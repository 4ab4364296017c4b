"""Span tracing for the benchmark's traced run.

`Tracer.install()` rebinds the public functions of the `blockmf` modules
to timing wrappers, in every `blockmf` module that holds them, so nothing
under `src/` changes; `uninstall()` puts the originals back. A span is
(name, start, end, parent, run id, span id, work count). Spans live in
memory; forked pool workers inherit the wrappers and write their spans to
a spool file when they exit, which the parent merges back.
`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import pickle
import statistics
import sys
import time

# span name -> (defining module, attribute, work count read off the result)
_FUNCTIONS = {
    "graph.build": [
        ("graph", "build_complete_peripheral", "edges"),
        ("graph", "build_regular_peripheral", "edges"),
    ],
    "simulate.simulate": [("simulate", "simulate", "events")],
    "simulate.empirical": [("simulate", "empirical_process", None)],
    "rng.substream": [("rng", "substream", None)],
    "metrics.d_bl": [("metrics", "d_bl", None)],
    "experiments.lln": [("experiments", "lln_experiment", None)],
    "experiments.multichaos": [("experiments", "multichaos_test", None)],
    "experiments.sample_colors": [("experiments", "sample_block_colors",
                                   None)],
    "meanfield.rk4": [("meanfield", "solve_mckean_vlasov", "steps")],
    "meanfield.picard": [("meanfield", "picard_iterate", "sweeps")],
    "ldp.drift": [("meanfield", "flow_drift", None)],
    "ldp.rates": [("meanfield", "flow_rates", None)],
    "ldp.variational_cost": [("ldp", "variational_cost", None)],
    "ldp.norm": [("ldp", "variational_norm", None)],
    "oracle.solve": [("oracle", "master_equation_oracle", "states")],
}
# span name -> (defining module, class, method)
_METHODS = {
    "cli.csv_write": [
        ("simulate", "Trajectory", "to_csv"),
        ("simulate", "EmpiricalSeries", "to_csv"),
        ("meanfield", "MeanFieldFlow", "to_csv"),
        ("experiments", "ConvergenceReport", "to_csv"),
        ("experiments", "ConvergenceReport", "to_svg"),
        ("ldp", "DeviationCost", "to_csv"),
    ],
    "cli.csv_read": [("meanfield", "MeanFieldFlow", "from_csv")],
}

_COUNTS = {
    "edges": lambda g: len(g.peripheral_edges),
    "events": lambda traj: len(traj.events),
    "steps": lambda flow: flow.times.size - 1,
    "sweeps": lambda out: len(out[1]),
    "states": lambda dist: dist.probs.size,
}

# Per-layer metrics the traced run prints, with their units. Sums are per
# traced iteration of the workload; a layer the workload never enters
# reads 0.
LAYER_METRICS = {
    "graph.build_s": "s",
    "graph.edges": "count",
    "graph.pickle_mb": "MB",
    "graph.self_s": "s",
    "simulate.calls": "count",
    "simulate.busy_s": "s",
    "simulate.events": "count",
    "simulate.events_per_s": "1/s",
    "simulate.call_ms.p50": "ms",
    "simulate.call_ms.tail": "ms",
    "simulate.call_ms.tail_pct": "%",
    "simulate.empirical_s": "s",
    "simulate.self_s": "s",
    "rng.substream_calls": "count",
    "rng.substream_s": "s",
    "metrics.d_bl_calls": "count",
    "metrics.d_bl_s": "s",
    "metrics.d_bl_us.p50": "us",
    "experiments.farm_s": "s",
    "experiments.worker_busy_ratio": "ratio",
    "experiments.parallel_efficiency": "ratio",
    "experiments.self_s": "s",
    "meanfield.rk4_s": "s",
    "meanfield.rk4_steps_per_s": "1/s",
    "meanfield.picard_s": "s",
    "meanfield.picard_sweeps": "count",
    "meanfield.sweep_s": "s",
    "meanfield.self_s": "s",
    "ldp.variational_cost_s": "s",
    "ldp.norm_calls": "count",
    "ldp.norm_us.p50": "us",
    "ldp.norm_us.tail": "us",
    "ldp.norm_us.tail_pct": "%",
    "ldp.drift_s": "s",
    "ldp.rates_s": "s",
    "ldp.self_s": "s",
    "oracle.solve_s": "s",
    "oracle.states": "count",
    "cli.csv_write_s": "s",
    "cli.csv_read_s": "s",
    "cli.bytes_written": "count",
    "cli.self_s": "s",
}

WORKER_SPANS = ("simulate.simulate", "simulate.empirical", "metrics.d_bl")


class Tracer:
    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.spans = []
        self.run_id = None
        self.largest_graph = None
        self._stack = []
        self._next = 0
        self._pid = os.getpid()
        self.main_pid = self._pid
        self._saved = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # --- recording -------------------------------------------------------

    def _after_fork(self):
        # Runs in a multiprocessing child: keep the inherited open span as
        # the parent of the worker's spans and spool them at exit.
        self.spans = []
        self._pid = os.getpid()
        self._next = 0
        multiprocessing.util.Finalize(self, self._spool, exitpriority=100)

    def _spool(self):
        if not self.spans:  # a pool forked while the wrappers were off
            return
        path = os.path.join(self.spool_dir, f"{self._pid}.json")
        with open(path, "w") as fp:
            json.dump(self.spans, fp)

    def collect_workers(self):
        """Merge the spool files of workers that have exited."""
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path) as fp:
                self.spans.extend(tuple(s) for s in json.load(fp))
            os.remove(path)

    def _wrap(self, name, fn, count=None):
        tracer = self
        counter = _COUNTS.get(count)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = f"{tracer._pid}.{tracer._next}"
            tracer._next += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            n = counter(out) if counter else None
            tracer.spans.append((name, t0, t1, parent, tracer.run_id, sid,
                                 tracer._pid, n))
            if count == "edges" and tracer._pid == tracer.main_pid and (
                    tracer.largest_graph is None
                    or n > len(tracer.largest_graph.peripheral_edges)):
                tracer.largest_graph = out
            return out

        return traced

    # --- rebinding -------------------------------------------------------

    def _set(self, owner, attr, value, as_item=False):
        if as_item:
            self._saved.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self._saved.append((owner, attr, owner.__dict__[attr], False))
            setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "blockmf" or n.startswith("blockmf.")]
        # A name the program no longer has is skipped; its metrics read 0.
        for name, targets in _FUNCTIONS.items():
            for mod, attr, count in targets:
                orig = getattr(sys.modules.get(f"blockmf.{mod}"), attr, None)
                if orig is None:
                    continue
                wrapped = self._wrap(name, orig, count)
                for m in modules:
                    if m.__dict__.get(attr) is orig:
                        self._set(m, attr, wrapped)
        for name, targets in _METHODS.items():
            for mod, cls_name, meth in targets:
                cls = getattr(sys.modules.get(f"blockmf.{mod}"), cls_name,
                              None)
                orig = getattr(cls, "__dict__", {}).get(meth)
                if orig is None:
                    continue
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._wrap(name, orig.__func__))
                else:
                    wrapped = self._wrap(name, orig)
                self._set(cls, meth, wrapped)
        cli = sys.modules["blockmf.cli"]
        for command, fn in list(cli._DISPATCH.items()):
            self._set(cli._DISPATCH, command,
                      self._wrap("cli." + command, fn), as_item=True)

    def uninstall(self):
        while self._saved:
            owner, attr, orig, as_item = self._saved.pop()
            if as_item:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)


# --- aggregation -----------------------------------------------------------

def tail(samples):
    """(value, percentile) of the highest of p50/p90/p99/p99.9 with at
    least ten samples beyond it; the median when there are too few, and
    (0, 0) when there are none."""
    xs = sorted(samples)
    n = len(xs)
    if not n:
        return 0.0, 0.0
    best = 50.0
    for pct in (90.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    return _percentile(xs, best), best


def _percentile(xs, pct):
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _union_length(intervals):
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Per-layer time of spans minus the part their child spans cover."""
    children = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = {}
    for name, t0, t1, _, _, sid, _, _ in spans:
        inner = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())
                 if b > t0 and a < t1]
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + (t1 - t0) - _union_length(inner)
    return out


def layer_metrics(tracer, n_iter, threads, extra):
    """The LAYER_METRICS values from the spans of `n_iter` traced
    iterations; `extra` carries the metrics measured outside the spans."""
    by = {}
    for s in tracer.spans:
        by.setdefault(s[0], []).append(s)

    def dur(name):
        return [s[2] - s[1] for s in by.get(name, ())]

    def total(name):
        return sum(dur(name))

    def work(name):
        return sum(s[7] or 0 for s in by.get(name, ()))

    def per_iter(x):
        return x / n_iter

    def ratio(a, b):
        return a / b if b else 0.0

    def median(xs):
        return statistics.median(xs) if xs else 0.0

    sim_ms = [d * 1e3 for d in dur("simulate.simulate")]
    sim_tail, sim_pct = tail(sim_ms)
    norm_us = [d * 1e6 for d in dur("ldp.norm")]
    norm_tail, norm_pct = tail(norm_us)
    farm = total("experiments.lln") + total("experiments.multichaos")
    worker_busy = sum(s[2] - s[1] for name in WORKER_SPANS
                      for s in by.get(name, ()) if s[6] != tracer.main_pid)
    selfs = self_times(tracer.spans)
    graph = tracer.largest_graph
    m = {
        "graph.build_s": per_iter(total("graph.build")),
        "graph.edges": per_iter(work("graph.build")),
        "graph.pickle_mb": (len(pickle.dumps(graph)) / 1e6
                            if graph is not None else 0.0),
        "simulate.calls": per_iter(len(sim_ms)),
        "simulate.busy_s": per_iter(total("simulate.simulate")),
        "simulate.events": per_iter(work("simulate.simulate")),
        "simulate.events_per_s": ratio(work("simulate.simulate"),
                                       total("simulate.simulate")),
        "simulate.call_ms.p50": median(sim_ms),
        "simulate.call_ms.tail": sim_tail,
        "simulate.call_ms.tail_pct": sim_pct,
        "simulate.empirical_s": per_iter(total("simulate.empirical")),
        "rng.substream_calls": per_iter(len(dur("rng.substream"))),
        "rng.substream_s": per_iter(total("rng.substream")),
        "metrics.d_bl_calls": per_iter(len(dur("metrics.d_bl"))),
        "metrics.d_bl_s": per_iter(total("metrics.d_bl")),
        "metrics.d_bl_us.p50": median([d * 1e6
                                       for d in dur("metrics.d_bl")]),
        "experiments.farm_s": per_iter(farm),
        "experiments.worker_busy_ratio": ratio(worker_busy, threads * farm),
        "meanfield.rk4_s": per_iter(total("meanfield.rk4")),
        "meanfield.rk4_steps_per_s": ratio(work("meanfield.rk4"),
                                           total("meanfield.rk4")),
        "meanfield.picard_s": per_iter(total("meanfield.picard")),
        "meanfield.picard_sweeps": per_iter(work("meanfield.picard")),
        "meanfield.sweep_s": ratio(total("meanfield.picard"),
                                   work("meanfield.picard")),
        "ldp.variational_cost_s": per_iter(total("ldp.variational_cost")),
        "ldp.norm_calls": per_iter(len(norm_us)),
        "ldp.norm_us.p50": median(norm_us),
        "ldp.norm_us.tail": norm_tail,
        "ldp.norm_us.tail_pct": norm_pct,
        "ldp.drift_s": per_iter(total("ldp.drift")),
        "ldp.rates_s": per_iter(total("ldp.rates")),
        "oracle.solve_s": per_iter(total("oracle.solve")),
        "oracle.states": per_iter(work("oracle.solve")),
        "cli.csv_write_s": per_iter(total("cli.csv_write")),
        "cli.csv_read_s": per_iter(total("cli.csv_read")),
    }
    for layer in ("graph", "simulate", "experiments", "meanfield", "ldp",
                  "cli"):
        m[f"{layer}.self_s"] = per_iter(selfs.get(layer, 0.0))
    m.update(extra)
    return m
