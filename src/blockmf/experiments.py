"""Statistical experiments: empirical-measure convergence to the
mean-field flow, and factorization of tagged-node joint laws.

Replica randomness is keyed by (master seed, N index, replica index,
purpose word), so results are independent of execution order and worker
count; aggregation always runs in replica order. The words of `rng` keep
the convergence study's streams and the joint-law test's apart.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .graph import CENTRAL, BlockGraph, ProportionTargets, \
    build_complete_peripheral, class_index
from .meanfield import solve_mckean_vlasov
from .metrics import d_bl
from .rates import validate_probability
from .rng import CHAOS, MULTICHAOS, substream
from .simulate import empirical_process, simulate
from .tables import write_table

__all__ = [
    "ConvergenceReport",
    "proportional_family",
    "proportional_sizes",
    "resolve_tagged",
    "sample_block_colors",
    "lln_experiment",
    "multichaos_test",
]


@dataclass(frozen=True)
class ConvergenceReport:
    """Mean sup-grid distance to the limiting flow per system size."""

    n_values: tuple
    replicas: int
    means: np.ndarray            # (n_N,)
    stderrs: np.ndarray          # (n_N,)
    component_means: np.ndarray  # (n_N, 2r)
    distances: np.ndarray        # (n_N, replicas) raw per-replica sups

    def __post_init__(self):
        if list(self.n_values) != sorted(set(self.n_values)):
            raise InvalidArgumentError("N values must be strictly increasing")
        if np.any(self.stderrs < 0):
            raise InvalidArgumentError("standard errors must be >= 0")

    def to_csv(self, fp) -> None:
        write_table(fp, ("N", "replicas", "mean_dist", "stderr"),
                    [self.n_values, [self.replicas] * len(self.n_values),
                     self.means, self.stderrs])

    def to_svg(self, fp) -> None:
        """Log-log plot of mean distance vs N with a slope -1/2 guide."""
        _svg_loglog(fp, np.asarray(self.n_values, dtype=float), self.means,
                    self.stderrs)


def _svg_loglog(fp, xs, ys, errs, slope=-0.5):
    if np.any(ys <= 0) or np.any(xs <= 0):
        raise InvalidArgumentError("log-log plot needs positive data")
    W, H = 640.0, 480.0
    ml, mr, mt, mb = 80.0, 24.0, 24.0, 56.0
    lx, ly = np.log10(xs), np.log10(ys)
    ref = ly[0] + slope * (lx - lx[0])
    # error bars clamp at 30% of the mean so a wide bar cannot wreck the scale
    bar_lo = np.log10(np.maximum(ys - errs, 0.3 * ys))
    bar_hi = np.log10(ys + errs)
    lo = np.concatenate((ly, ref, bar_lo))
    xmin, xmax = lx.min() - 0.08, lx.max() + 0.08
    ymin = lo.min() - 0.15
    ymax = max(ly.max(), ref.max(), bar_hi.max()) + 0.15

    def X(u):
        return ml + (u - xmin) / (xmax - xmin) * (W - ml - mr)

    def Y(v):
        return H - mb - (v - ymin) / (ymax - ymin) * (H - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" '
        f'height="{H:.0f}" viewBox="0 0 {W:.0f} {H:.0f}">',
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{W - ml - mr:.2f}" '
        f'height="{H - mt - mb:.2f}" fill="none" stroke="black"/>',
    ]
    for x, v in zip(xs, lx):
        out.append(f'<line x1="{X(v):.2f}" y1="{H - mb:.2f}" x2="{X(v):.2f}" '
                   f'y2="{H - mb + 6:.2f}" stroke="black"/>')
        out.append(f'<text x="{X(v):.2f}" y="{H - mb + 22:.2f}" '
                   f'font-size="13" text-anchor="middle">{x:g}</text>')
    dec0, dec1 = int(math.floor(ymin)), int(math.ceil(ymax))
    for d in range(dec0, dec1 + 1):
        if not ymin <= d <= ymax:
            continue
        out.append(f'<line x1="{ml - 6:.2f}" y1="{Y(d):.2f}" x2="{ml:.2f}" '
                   f'y2="{Y(d):.2f}" stroke="black"/>')
        out.append(f'<text x="{ml - 10:.2f}" y="{Y(d) + 4:.2f}" '
                   f'font-size="13" text-anchor="end">1e{d}</text>')
    pts = " ".join(f"{X(a):.2f},{Y(b):.2f}" for a, b in zip(lx, ly))
    rpts = " ".join(f"{X(a):.2f},{Y(b):.2f}" for a, b in zip(lx, ref))
    out.append(f'<polyline points="{rpts}" fill="none" stroke="gray" '
               f'stroke-dasharray="6 4"/>')
    out.append(f'<polyline points="{pts}" fill="none" stroke="black"/>')
    for a, b, blo, bhi in zip(lx, ly, bar_lo, bar_hi):
        out.append(f'<line x1="{X(a):.2f}" y1="{Y(blo):.2f}" x2="{X(a):.2f}" '
                   f'y2="{Y(bhi):.2f}" stroke="black"/>')
        out.append(f'<circle cx="{X(a):.2f}" cy="{Y(b):.2f}" r="3.5" '
                   f'fill="black"/>')
    out.append(f'<text x="{(ml + W - mr) / 2:.2f}" y="{H - 12:.2f}" '
               f'font-size="14" text-anchor="middle">N</text>')
    out.append(f'<text x="18" y="{(mt + H - mb) / 2:.2f}" font-size="14" '
               f'text-anchor="middle" transform="rotate(-90 18 '
               f'{(mt + H - mb) / 2:.2f})">mean distance</text>')
    out.append(f'<text x="{X(lx[-1]) - 8:.2f}" y="{Y(ref[-1]) - 8:.2f}" '
               f'font-size="12" text-anchor="end" fill="gray">slope -1/2'
               f'</text>')
    out.append("</svg>")
    fp.write("\n".join(out) + "\n")


def proportional_sizes(targets: ProportionTargets, N: int):
    """(central, peripheral) size of each block of an N-node system whose
    block and class sizes are exactly proportional to the targets; N
    values that do not split into integers are rejected."""
    sizes = []
    for j in range(targets.r):
        nj = targets.alpha[j] * N
        ncj = targets.p_c[j] * nj
        if abs(nj - round(nj)) > 1e-9 or abs(ncj - round(ncj)) > 1e-9:
            raise InvalidArgumentError(
                f"N={N} does not realize the target proportions"
            )
        nj, ncj = int(round(nj)), int(round(ncj))
        sizes.append((ncj, nj - ncj))
    return sizes


def proportional_family(targets: ProportionTargets):
    """Callable N -> complete-peripheral graph with the sizes of
    `proportional_sizes`."""

    def build(N: int) -> BlockGraph:
        return build_complete_peripheral(proportional_sizes(targets, N))

    return build


def sample_block_colors(graph: BlockGraph, inits, gen) -> np.ndarray:
    """iid initial colors, one distribution per component 2*block+class."""
    if len(inits) != 2 * graph.r:
        raise InvalidArgumentError(f"need 2r={2 * graph.r} initial measures")
    K = validate_probability(inits[0]).size
    cdf = np.cumsum([validate_probability(m, K) for m in inits], axis=1)
    # a node's color is the number of its cdf entries at or below u
    u = gen.random(graph.n_total)
    return np.minimum((cdf[graph.component] <= u[:, None]).sum(axis=1), K - 1)


def _seed_path(seed):
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def _lln_replica(args):
    (graph, spec, targets, inits, T, grid_times, flow_grid, seed_path,
     n_idx, rep) = args
    gen = substream(*seed_path, n_idx, rep, CHAOS)
    colors = sample_block_colors(graph, inits, gen)
    traj = simulate(graph, spec, targets, colors, T, gen)
    emp = empirical_process(traj, graph, grid_times).values
    per_comp = np.array([
        max(d_bl(emp[i, g], flow_grid[i, g]) for i in range(len(grid_times)))
        for g in range(2 * graph.r)
    ])
    return float(per_comp.max()), per_comp


def _run_ordered(worker, arg_list, threads):
    """worker over arg_list, in order, on at most `threads` processes and
    never more than there are items or CPUs."""
    workers = min(threads, len(arg_list), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(a) for a in arg_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(arg_list) // (4 * workers))
        return list(pool.map(worker, arg_list, chunksize=chunk))


def lln_experiment(graph_family, spec, targets: ProportionTargets, inits,
                   T, grid, N_list, replicas, seed, *, dt=0.01,
                   threads=1) -> ConvergenceReport:
    """For each N: sample iid initial colors, simulate, and take the sup
    over the grid of the max-component BL distance between the empirical
    measures and the limiting flow. Reports mean and standard error over
    replicas per N."""
    N_list = [int(n) for n in N_list]
    if N_list != sorted(set(N_list)):
        raise InvalidArgumentError("N_list must be strictly increasing")
    if replicas < 2:
        raise InvalidArgumentError("need at least 2 replicas")
    T = float(T)
    grid_times = (np.linspace(0.0, T, int(grid)) if np.ndim(grid) == 0
                  else np.asarray(grid, dtype=float))
    flow = solve_mckean_vlasov(spec, targets, inits, T, dt)
    flow_grid = np.stack([flow.at(t) for t in grid_times])
    seed_path = _seed_path(seed)

    r = targets.r
    means = np.empty(len(N_list))
    stderrs = np.empty(len(N_list))
    comp_means = np.empty((len(N_list), 2 * r))
    dists = np.empty((len(N_list), replicas))
    for n_idx, N in enumerate(N_list):
        graph = graph_family(N)
        if graph.r != r:
            raise InvalidArgumentError("graph family disagrees with targets")
        args = [(graph, spec, targets, inits, T, grid_times, flow_grid,
                 seed_path, n_idx, rep) for rep in range(replicas)]
        results = _run_ordered(_lln_replica, args, threads)
        dists[n_idx] = [s for s, _ in results]
        comp_means[n_idx] = np.mean([c for _, c in results], axis=0)
        means[n_idx] = dists[n_idx].mean()
        stderrs[n_idx] = dists[n_idx].std(ddof=1) / math.sqrt(replicas)
    return ConvergenceReport(tuple(N_list), replicas, means, stderrs,
                             comp_means, dists)


def resolve_tagged(graph: BlockGraph, tagged_nodes):
    """One to three distinct node ids from raw node ids or (block, class)
    requests; a request picks the first node of that class
    (exchangeability makes the choice neutral)."""
    out = []
    for spec_ in tagged_nodes:
        if isinstance(spec_, (int, np.integer)):
            n = int(spec_)
            if not 0 <= n < graph.n_total:
                raise InvalidArgumentError(
                    f"tagged node {n} outside 0..{graph.n_total - 1}"
                )
            out.append(n)
        else:
            j, cls = spec_
            cls = class_index(cls)
            if not 0 <= j < graph.r or cls is None:
                raise InvalidArgumentError(
                    f"tagged {tuple(spec_)!r} names no class of a graph "
                    f"with {graph.r} blocks"
                )
            nodes = (graph.central_nodes(j) if cls == CENTRAL
                     else graph.peripheral_nodes(j))
            out.append(nodes[0])
    if len(out) != len(set(out)):
        raise InvalidArgumentError("tagged nodes must be distinct")
    if not 1 <= len(out) <= 3:
        raise InvalidArgumentError(
            f"need 1 to 3 tagged nodes, got {len(out)}"
        )
    return out


def _chaos_replica(args):
    graph, spec, targets, inits, tagged, T, seed_path, rep = args
    gen = substream(*seed_path, rep, MULTICHAOS)
    colors = sample_block_colors(graph, inits, gen)
    traj = simulate(graph, spec, targets, colors, T, gen)
    final = traj.final_colors
    return tuple(int(final[n]) for n in tagged)


def multichaos_test(graph: BlockGraph, spec, targets, tagged_nodes, T,
                    replicas, seed, *, inits, threads=1):
    """Estimate the joint law of the tagged nodes' colors at time T, the
    product of its marginals, and the total-variation distance between
    the two. tagged_nodes entries are node ids or (block, class) pairs
    (resolved to the first node of the class)."""
    tagged = resolve_tagged(graph, tagged_nodes)
    if replicas < 1:
        raise InvalidArgumentError("need at least 1 replica")
    seed_path = _seed_path(seed)
    args = [(graph, spec, targets, inits, tagged, float(T), seed_path, rep)
            for rep in range(replicas)]
    results = _run_ordered(_chaos_replica, args, threads)
    K = len(inits[0])
    m = len(tagged)
    joint = np.zeros((K,) * m)
    for cell in results:
        joint[cell] += 1.0
    joint /= replicas
    product = np.ones(())
    for axis in range(m):
        marg = joint.sum(axis=tuple(a for a in range(m) if a != axis))
        shape = [1] * m
        shape[axis] = K
        product = product * marg.reshape(shape)
    tv = 0.5 * float(np.abs(joint - product).sum())
    return joint, product, tv
