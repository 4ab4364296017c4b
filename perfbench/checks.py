"""Output checks, one per subcommand the benchmark runs.

Each check reads the artifacts a subcommand wrote and returns a list of
problems; an empty list is a pass. The checks hold for every correct
implementation, whatever order it draws random numbers in, so kernels
that consume their streams differently still pass. They read the files
only and do not import `blockmf`.
"""

from __future__ import annotations

import math
import os

import numpy as np

MASS_TOL = 1e-9          # |sum of a measure - 1|
REPLAY_TOL = 1e-12       # empirical mass against replayed counts
PICARD_GAP = 1e-6        # sup |Picard flow - RK4 flow|
COST_TOL = 1e-5          # S_total of the solved flow
ORACLE_SE = 5.0          # |MC - oracle| in oracle standard errors
CHAOS_RATIO = 2.0        # e(N_min) / e(N_max)


def _rows(path):
    """Data rows of a CSV file as lists of strings, header dropped."""
    with open(path) as fp:
        lines = fp.read().splitlines()
    return [line.split(",") for line in lines[1:] if line]


def _series(path):
    """A "t,block,class,color,mass" file as (times, values[t, 2j+cls, z])."""
    rows = _rows(path)
    times = sorted({float(r[0]) for r in rows})
    r = 1 + max(int(row[1]) for row in rows)
    K = 1 + max(int(row[3]) for row in rows)
    index = {t: i for i, t in enumerate(times)}
    values = np.full((len(times), 2 * r, K), np.nan)
    for t, j, cls, z, m in rows:
        values[index[float(t)], 2 * int(j) + (cls == "p"), int(z)] = float(m)
    return np.asarray(times), values


def _measure_problems(values, what):
    problems = []
    if np.isnan(values).any():
        problems.append(f"{what}: missing cells")
        return problems
    drift = float(np.abs(values.sum(axis=2) - 1.0).max())
    if drift > MASS_TOL:
        problems.append(f"{what}: mass drift {drift:.3g} > {MASS_TOL:g}")
    if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
        problems.append(f"{what}: entries outside [0, 1]")
    return problems


def chaos(out_dir, scenario):
    rows = _rows(os.path.join(out_dir, "convergence.csv"))
    ns = [int(r[0]) for r in rows]
    if ns != scenario["n_list"]:
        return [f"convergence.csv: N column {ns} != {scenario['n_list']}"]
    problems = []
    if any(int(r[1]) != scenario["replicas"] for r in rows):
        problems.append("convergence.csv: wrong replica count")
    means = [float(r[2]) for r in rows]
    if not all(math.isfinite(m) and m > 0 for m in means):
        problems.append(f"convergence.csv: means not positive: {means}")
    elif any(b >= a for a, b in zip(means, means[1:])):
        problems.append(f"convergence.csv: means not decreasing in N: {means}")
    elif means[0] / means[-1] < CHAOS_RATIO:
        problems.append(f"convergence.csv: e({ns[0]})/e({ns[-1]}) = "
                        f"{means[0] / means[-1]:.3g} < {CHAOS_RATIO:g}")
    with open(os.path.join(out_dir, "chaos_convergence.svg")) as fp:
        svg = fp.read()
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        problems.append("chaos_convergence.svg: not a complete SVG")
    return problems


def multichaos(out_dir, scenario):
    rows = _rows(os.path.join(out_dir, "multichaos.csv"))
    ns = [int(r[0]) for r in rows]
    if ns != scenario["n_list"]:
        return [f"multichaos.csv: N column {ns} != {scenario['n_list']}"]
    problems = []
    if any(int(r[1]) != scenario["replicas"] for r in rows):
        problems.append("multichaos.csv: wrong replica count")
    # TV between a joint law and the product of its marginals; both are
    # distributions, so the distance lies in [0, 1).
    tvs = [float(r[2]) for r in rows]
    if not all(0.0 <= tv < 1.0 for tv in tvs):
        problems.append(f"multichaos.csv: TV outside [0, 1): {tvs}")
    return problems


def _node_layout(blocks):
    """(block, class) of every node: each block's centrals, then its
    peripherals, block after block."""
    comp = []
    for j, (nc, npp) in enumerate(blocks):
        comp += [2 * j] * nc + [2 * j + 1] * npp
    return np.asarray(comp)


def sparse(out_dir, scenario):
    blocks = scenario["graph"]["regular"]["blocks"]
    sizes = np.asarray([s for b in blocks for s in b], dtype=float)
    comp = _node_layout(blocks)
    T = scenario["horizon"]
    problems = []
    times, emp = _series(os.path.join(out_dir, "empirical.csv"))
    problems += _measure_problems(emp, "empirical.csv")
    if not np.allclose(times, np.linspace(0.0, T, scenario["grid"]),
                       rtol=0, atol=1e-12):
        problems.append("empirical.csv: grid is not linspace(0, T, grid)")
    if problems:
        return problems
    events = _rows(os.path.join(out_dir, "trajectory.csv"))
    if not events:
        return ["trajectory.csv: no events"]
    K = emp.shape[2]
    counts = np.rint(emp[0] * sizes[:, None])
    last_color = {}
    prev_t = 0.0
    ie = 0
    for it, t_grid in enumerate(times):
        while ie < len(events) and float(events[ie][0]) <= t_grid:
            t, node, z, zp = (float(events[ie][0]), int(events[ie][1]),
                              int(events[ie][2]), int(events[ie][3]))
            ie += 1
            if not prev_t < t <= T:
                return [f"trajectory.csv: time {t!r} after {prev_t!r} is "
                        f"not increasing within (0, T]"]
            prev_t = t
            if not (0 <= node < comp.size and 0 <= z < K and 0 <= zp < K
                    and z != zp):
                return [f"trajectory.csv: bad event {events[ie - 1]}"]
            if last_color.get(node, z) != z:
                return [f"trajectory.csv: node {node} leaves color {z} "
                        f"but holds {last_color[node]}"]
            last_color[node] = zp
            counts[comp[node], z] -= 1
            counts[comp[node], zp] += 1
        if counts.min() < 0:
            return [f"trajectory.csv: negative count by t={t_grid:g}"]
        gap = float(np.abs(counts / sizes[:, None] - emp[it]).max())
        if gap > REPLAY_TOL:
            return [f"trajectory.csv does not replay to empirical.csv at "
                    f"t={t_grid:g} (gap {gap:.3g})"]
    if ie != len(events):
        problems.append("trajectory.csv: events after the horizon")
    return problems


def meanfield(out_dir, scenario):
    _, flow = _series(os.path.join(out_dir, "flow.csv"))
    return _measure_problems(flow, "flow.csv")


def picard(out_dir, scenario):
    t_rk, rk = _series(os.path.join(out_dir, "flow.csv"))
    t_pic, pic = _series(os.path.join(out_dir, "flow_picard.csv"))
    if rk.shape != pic.shape or not np.array_equal(t_rk, t_pic):
        return ["flow_picard.csv: grid differs from flow.csv"]
    problems = _measure_problems(pic, "flow_picard.csv")
    gap = float(np.abs(pic - rk).max())
    if not gap <= PICARD_GAP:
        problems.append(f"flow_picard.csv: sup gap to flow.csv {gap:.3g} > "
                        f"{PICARD_GAP:g}")
    res = [float(r[1]) for r in _rows(os.path.join(out_dir,
                                                   "residuals.csv"))]
    if not res or not res[-1] < scenario.get("picard_tol", 1e-8):
        problems.append("residuals.csv: last residual above the tolerance")
    return problems


def ldp_cost(out_dir, scenario):
    rows = _rows(os.path.join(out_dir, "cost.csv"))
    if not rows or rows[-1][0] != "S_total":
        return ["cost.csv: no S_total line"]
    total = float(rows[-1][1])
    problems = []
    if not 0.0 <= total <= COST_TOL:
        problems.append(f"cost.csv: S_total {total:.3g} not in "
                        f"[0, {COST_TOL:g}]")
    integrand = [float(r[3]) for r in rows[:-1]]
    if not integrand or not all(math.isfinite(x) and x >= 0.0
                                for x in integrand):
        problems.append("cost.csv: integrand not finite and >= 0")
    return problems


def oracle(out_dir, scenario):
    rows = _rows(os.path.join(out_dir, "oracle_check.csv"))
    table = np.asarray([[float(x) for x in r] for r in rows])
    n_nodes = sum(sum(b) for b in scenario["graph"]["regular"]["blocks"])
    if table.shape != (2 * n_nodes, 5):
        return [f"oracle_check.csv: shape {table.shape}, expected "
                f"({2 * n_nodes}, 5)"]
    problems = []
    p_or, p_mc, se = table[:, 2], table[:, 3], table[:, 4]
    for name, p in (("oracle_p", p_or), ("mc_p", p_mc)):
        sums = p.reshape(n_nodes, 2).sum(axis=1)
        if np.abs(sums - 1.0).max() > MASS_TOL or p.min() < 0:
            problems.append(f"oracle_check.csv: {name} rows are not "
                            f"distributions")
    replicas = scenario["replicas"]
    expect_se = np.sqrt(p_or * (1.0 - p_or) / replicas)
    if np.abs(se - expect_se).max() > 1e-12:
        problems.append("oracle_check.csv: stderr column is not "
                        "sqrt(p(1-p)/replicas)")
    diff = np.abs(p_mc - p_or)
    worst = float(np.max(np.where(diff == 0.0, 0.0,
                                  diff / np.maximum(se, 1e-300))))
    if worst > ORACLE_SE:
        problems.append(f"oracle_check.csv: |MC - oracle| reaches "
                        f"{worst:.3g} SE > {ORACLE_SE:g}")
    return problems
