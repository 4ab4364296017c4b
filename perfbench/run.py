"""blockmf benchmark: real CLI subcommands on scenarios made from a seed.

    python3 perfbench/run.py --workload particles --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
The workloads (perfbench/workloads.py) are closed loops with one client:
each iteration runs the workload's subcommands in order through
`blockmf.cli.main` in this process, and iterations repeat for `--seconds`.
Every subcommand's artifacts are checked (perfbench/checks.py).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics (an iteration's mean time and the median set-up time,
both scaled to the reference speed by perfbench/gauge.py, and the peak
memory); with `--trace 1` it holds
the per-layer metrics of a traced run (perfbench/spans.py), in which
traced and untraced iterations alternate so the tracing overhead shows.
Lines before it list every metric by name with its unit, the
per-subcommand times, the failed ratio and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread per process, set before numpy loads. Otherwise numpy's
# BLAS runs on the second core whenever it is idle, so the wall time of a
# single-process workload depends on what else the machine runs (a Picard
# step read 2.45 s or 1.4 s at equal CPU time), and pool workers
# oversubscribe the cores. The parallelism measured is the program's own
# process pool; set-up probes and workers inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gauge  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe.py")

END_TO_END = {"setup_s": "s", "scaled_wall_s": "s", "peak_rss_mb": "MB"}
# Per-subcommand and run-level figures. The untraced run prints them above
# its result; the traced run reports them, from its untraced iterations,
# among the per-layer metrics.
RUN_METRICS = {
    "trace.overhead": "ratio",
    "run.failed_ratio": "ratio",
    "step.simulate_events_per_s": "1/s",
    "step.chaos_s": "s",
    "step.multichaos_s": "s",
    "step.simulate_s": "s",
    "step.meanfield_s": "s",
    "step.picard_s": "s",
    "step.ldp_cost_s": "s",
    "step.oracle_check_s": "s",
}
SETUP_PROBES = 9
MIN_ITERATIONS = 3       # untraced run
MIN_TRACE_PAIRS = 2      # traced run: this many traced and untraced each


class Runner:
    """Runs a workload's subcommands and checks what they write."""

    def __init__(self, cli, workload, work_dir):
        self.cli = cli
        self.workload = workload
        self.out_dir = os.path.join(work_dir, "out")
        self.paths = {}
        os.makedirs(work_dir, exist_ok=True)
        for stem, scen in workload.scenarios.items():
            path = os.path.join(work_dir, f"{stem}.json")
            with open(path, "w") as fp:
                json.dump(scen, fp, indent=1)
            self.paths[stem] = path
        self.attempted = 0
        self.failed = 0

    def _call(self, argv):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            return exc.code
        except Exception:  # a crash counts as a failed subcommand
            traceback.print_exc()
            return None

    def _record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {what}: {p}", file=sys.stderr)

    def validate(self):
        for path in self.paths.values():
            rc = self._call(["validate", "--scenario", path])
            self._record("validate", [] if rc == 0 else [f"exit {rc}"])

    def iteration(self, index, threads=None, steps=None):
        """Pass `index` over the steps (by default all of the workload's):
        per-step seconds, bytes written and events in the trajectory (0
        when no step writes one)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        times, written, events = {}, 0, 0
        for step in steps or self.workload.steps:
            scen_path = self.paths[step.scenario]
            argv = step.argv(scen_path, self.out_dir,
                             self.workload.iteration_seed(index), threads)
            t0 = time.perf_counter()
            rc = self._call(argv)
            times[step.metric] = time.perf_counter() - t0
            problems = [] if rc == 0 else [f"exit {rc}"]
            if not problems:
                try:
                    problems = step.check(
                        self.out_dir, self.workload.scenarios[step.scenario])
                except (OSError, ValueError, IndexError, KeyError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
            self._record(step.command, problems)
            for name in step.artifacts:
                path = os.path.join(self.out_dir, name)
                if os.path.exists(path):
                    written += os.path.getsize(path)
            if step.command == "simulate" and not problems:
                with open(os.path.join(self.out_dir, "trajectory.csv")) as fp:
                    events = sum(1 for _ in fp) - 1
        return times, written, events


def _median_steps(passes):
    return {name: statistics.median(p[0][name] for p in passes)
            for name in passes[0][0]}


def _wall(p):
    return sum(p[0].values())


def _keep_going(passes, deadline, minimum):
    if len(passes) < minimum:
        return True
    return time.perf_counter() + statistics.median(map(_wall, passes)) \
        <= deadline


def _run_metrics(runner, passes):
    steps = _median_steps(passes)
    wall = statistics.median(map(_wall, passes))
    events = statistics.median(p[2] for p in passes)
    m = {name: 0.0 for name in RUN_METRICS}
    m.update(steps)
    m["run.failed_ratio"] = runner.failed / max(runner.attempted, 1)
    if events:
        m["step.simulate_events_per_s"] = events / steps["step.simulate_s"]
    return m, wall


def measure(runner, seconds):
    """Untraced iterations for `seconds`; the end-to-end metrics, the
    per-subcommand figures, each iteration's wall time and the run's
    mean slowdown."""
    deadline = time.perf_counter() + seconds
    passes = []
    with gauge.Gauge() as g:
        while _keep_going(passes, deadline, MIN_ITERATIONS):
            passes.append(runner.iteration(len(passes)))
    slowdown = g.slowdown()
    run, _ = _run_metrics(runner, passes)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    walls = [_wall(p) for p in passes]
    metrics = {
        "setup_s": setup_time(list(runner.paths.values())),
        # The mean wall time of an iteration at the reference speed. The
        # mean, not the median or the fastest, because the gauge reads the
        # mean slowdown over all iterations.
        "scaled_wall_s": statistics.mean(walls) / slowdown,
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
    }
    notes = {name: v for name, v in run.items()
             if v and not name.startswith("trace.")}
    notes["run.failed_ratio"] = run["run.failed_ratio"]
    return metrics, notes, walls, slowdown


def measure_traced(runner, seconds, tracer):
    """Traced and untraced iterations in turn for `seconds`, plus a
    single-worker pass for workloads that farm; the per-layer metrics."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    bytes_written = 0
    while (_keep_going(plain, deadline, MIN_TRACE_PAIRS)
           or len(traced) < MIN_TRACE_PAIRS):
        if len(traced) < len(plain):
            tracer.run_id = f"it{len(traced)}"
            tracer.install()
            try:
                traced.append(runner.iteration(len(traced)))
            finally:
                tracer.uninstall()
            tracer.collect_workers()
            bytes_written += traced[-1][1]
        else:
            plain.append(runner.iteration(len(plain)))
    run, wall = _run_metrics(runner, plain)
    extra = {
        "cli.bytes_written": bytes_written / len(traced),
        "experiments.parallel_efficiency": 0.0,
        "trace.overhead": statistics.median(map(_wall, traced)) / wall,
    }
    pool = runner.workload.pool_steps
    if pool:
        single = _wall(runner.iteration(0, threads=1, steps=pool))
        multi = sum(run[s.metric] for s in pool)
        extra["experiments.parallel_efficiency"] = single / (2.0 * multi)
    run.update(extra)
    threads = max((s.threads or 1) for s in runner.workload.steps)
    metrics = spans.layer_metrics(tracer, len(traced), threads, run)
    return metrics, len(traced) + len(plain)


def setup_time(scenario_paths):
    """Seconds from starting a fresh interpreter until blockmf is imported
    and the scenarios are parsed, each probe's time scaled by the slowdown
    its own gauge read; the median over the probes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, PROBE, SRC, *scenario_paths],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        done, slowdown = map(float, proc.stdout.split()[-2:])
        times.append((done - t0) / slowdown)
    return statistics.median(times)


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs")) as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(),
            "seed": seed}


def _print_metrics(metrics, units):
    width = max(map(len, units))
    for name, unit in units.items():
        print(f"  {name:<{width}}  {metrics[name]!r} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "blockmf", "__init__.py")):
        print(f"error: no blockmf package under {SRC}; run from the root "
              f"of a blockmf checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from blockmf import cli

    workload = workloads.build(args.workload, args.seed)
    work_root = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(work_root,
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        runner = Runner(cli, workload, work_dir)
        runner.validate()
        print(f"blockmf benchmark: workload={workload.name} "
              f"seed={args.seed} trace={args.trace}")
        print(f"why: {workload.why}")
        print("env: " + json.dumps(environment(args.seed)))
        if args.trace:
            spool = os.path.join(work_dir, "spool")
            os.makedirs(spool)
            tracer = spans.Tracer(spool)
            metrics, n = measure_traced(runner, args.seconds, tracer)
            units = {**spans.LAYER_METRICS, **RUN_METRICS}
            print(f"per-layer metrics, {n} iterations:")
            _print_metrics(metrics, units)
        else:
            metrics, notes, walls, slowdown = measure(runner, args.seconds)
            units = END_TO_END
            print(f"{len(walls)} iterations, wall_s each: "
                  f"{', '.join(f'{w:.3f}' for w in walls)}; mean slowdown "
                  f"against the reference speed {slowdown:.3f}")
            print("end-to-end metrics:")
            _print_metrics(metrics, units)
            print("per-subcommand and run figures:")
            _print_metrics(notes, {k: RUN_METRICS[k] for k in notes})
        print(f"failed: {runner.failed} of {runner.attempted} subcommands")
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
