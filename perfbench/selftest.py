"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a small size and checks that:
- every output check passes on the real artifacts and fails on each
  deliberately corrupted one, so no check is vacuous;
- the metric names and units the untraced and the traced run print are
  exactly those BENCHMARK.json declares, and the workloads and their
  reasons match it too;
- the speed gauge samples while active and restores the signal state;
- without the package next to it, run.py exits non-zero and prints no
  result.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import gauge
import run
import spans
import workloads

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


# --- corruptions: (artifact, edit of its data rows, step it must fail) ----

def _edit_rows(path, edit):
    with open(path) as fp:
        lines = fp.read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows)
    with open(path, "w") as fp:
        fp.write("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _swap(rows, i, j):
    rows[i], rows[j] = rows[j], rows[i]


def _not_decreasing(rows):
    rows[-1][2] = rows[0][2]


def _ratio_too_small(rows):
    m0 = float(rows[0][2])
    for k, row in enumerate(rows):
        row[2] = repr(m0 * (1.0 - 0.2 * k / (len(rows) - 1)))


def _shift_mass(delta, conserve):
    """Move `delta` of mass within the first row of a component series,
    or add it outright when `conserve` is false."""
    def edit(rows):
        rows[0][4] = repr(float(rows[0][4]) + delta)
        if conserve:
            rows[1][4] = repr(float(rows[1][4]) - delta)
    return edit


def _oracle_off_by_six_se(rows):
    se = float(rows[0][4])
    rows[0][3] = repr(float(rows[0][3]) + 6.0 * se)
    rows[1][3] = repr(float(rows[1][3]) - 6.0 * se)


def _truncate(path):
    with open(path) as fp:
        text = fp.read()
    with open(path, "w") as fp:
        fp.write(text[: len(text) // 2])


CORRUPTIONS = {
    "chaos": [
        ("convergence.csv", _not_decreasing, "largest-N mean not smallest"),
        ("convergence.csv", _ratio_too_small, "e(N_min)/e(N_max) < 2"),
        ("chaos_convergence.svg", None, "truncated SVG"),
    ],
    "multichaos": [
        ("multichaos.csv", lambda rows: rows[0].__setitem__(2, "1.5"),
         "TV above 1"),
    ],
    "simulate": [
        ("trajectory.csv", lambda rows: rows.pop(len(rows) // 2),
         "an event dropped"),
        ("trajectory.csv", lambda rows: _swap(rows, 0, 1),
         "two events swapped"),
        ("empirical.csv", _shift_mass(1e-3, False), "mass added"),
    ],
    "meanfield": [
        ("flow.csv", _shift_mass(1e-8, False), "mass drift 1e-8"),
    ],
    "picard": [
        ("flow_picard.csv", _shift_mass(1e-5, True), "Picard gap 1e-5"),
    ],
    "ldp-cost": [
        ("cost.csv", lambda rows: rows[-1].__setitem__(1, "0.001"),
         "S_total 1e-3"),
    ],
    "oracle-check": [
        ("oracle_check.csv", _oracle_off_by_six_se, "MC 6 SE off"),
    ],
}


def check_outputs(cli, name, work_dir):
    wl = workloads.build(name, seed=7, size="small")
    runner = run.Runner(cli, wl, work_dir)
    runner.validate()
    runner.iteration(0)
    expect(runner.failed == 0 and runner.attempted > 0,
           f"{name}: checks pass on real artifacts "
           f"({runner.attempted - runner.failed}/{runner.attempted})")
    pristine = runner.out_dir + ".pristine"
    shutil.copytree(runner.out_dir, pristine)
    for step in wl.steps:
        scen = wl.scenarios[step.scenario]
        for artifact, edit, what in CORRUPTIONS[step.command]:
            shutil.rmtree(runner.out_dir)
            shutil.copytree(pristine, runner.out_dir)
            path = os.path.join(runner.out_dir, artifact)
            if edit is None:
                _truncate(path)
            else:
                _edit_rows(path, edit)
            try:
                problems = step.check(runner.out_dir, scen)
            except (ValueError, IndexError, KeyError) as exc:
                problems = [repr(exc)]
            expect(bool(problems), f"{name}/{step.command}: fails on {what}")
    return runner


def check_metric_names(cli, name, work_dir, declared):
    wl = workloads.build(name, seed=7, size="small")
    expect(declared["workloads"].get(name) == wl.why,
           f"{name}: why matches BENCHMARK.json")
    runner = run.Runner(cli, wl, work_dir)
    e2e = run.measure(runner, 0)[0]
    expect(set(e2e) == set(declared["end_to_end"]),
           f"{name}: untraced metric names match BENCHMARK.json")
    expect(run.END_TO_END == declared["end_to_end"],
           "end-to-end units match BENCHMARK.json")
    spool = os.path.join(work_dir, "spool")
    os.makedirs(spool)
    layer, _ = run.measure_traced(runner, 0, spans.Tracer(spool))
    units = {**spans.LAYER_METRICS, **run.RUN_METRICS}
    expect(set(layer) == set(declared["per_layer"]) and
           units == declared["per_layer"],
           f"{name}: traced metric names and units match BENCHMARK.json")
    expect(runner.failed == 0, f"{name}: timed runs pass their checks")


def check_gauge():
    """The gauge samples while active and leaves no timer or handler."""
    before = signal.getsignal(signal.SIGALRM)
    with gauge.Gauge() as g:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(i * i for i in range(1000))
    expect(len(g.readings) >= 5 and g.slowdown() > 0,
           f"gauge: {len(g.readings)} readings in 0.5 s, slowdown "
           f"{g.slowdown():.3f}")
    expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
           and signal.getsignal(signal.SIGALRM) is before,
           "gauge: timer and handler restored")


def check_no_package(work_dir):
    """run.py next to BENCHMARK.json alone must fail without a result."""
    with tempfile.TemporaryDirectory(dir=work_dir) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "limit",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the package: non-zero exit and no result")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fp:
        bench = json.load(fp)
    declared = {
        "workloads": {w["name"]: w["why"] for w in bench["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expect(sorted(declared["workloads"]) == sorted(workloads.WHY),
           "workload names match BENCHMARK.json")
    sys.path.insert(0, run.SRC)
    from blockmf import cli

    work_root = os.path.join(run.ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=work_root)
    try:
        for name in sorted(workloads.WHY):
            check_outputs(cli, name, os.path.join(work, name))
            check_metric_names(cli, name, os.path.join(work, name + "-m"),
                               declared)
        check_gauge()
        check_no_package(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
