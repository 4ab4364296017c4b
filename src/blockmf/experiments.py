"""Statistical experiments: empirical-measure convergence to the
mean-field flow, and factorization of tagged-node joint laws.

On every design, each member of a group (a block's centrals, a
peripheral twin class) jumps at the same rates, so the system is
Kurtz's density-dependent chain on group colour counts. Both
experiments run it as the count farm of `simulate`: all replicas of one
N advance together in numpy arrays, one jump per replica per lock-step,
in the calling process. `lln_experiment` lands the farm's jump record on
its grid. Single nodes need no farm of their own: the members of a group
are exchangeable, so the joint law of a few nodes at time T is a
function of their groups' colour counts (`tagged_law`), averaged over
the farm's replicas. `multichaos_test` reads the joint law of its tagged
nodes so, and `oracle-check` every node's marginal law.

Each farm draws from one stream keyed by its seed path and a purpose
word, so results are a pure function of the seed and the replica count;
a replica's draws depend on how many replicas share its stream.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .graph import CENTRAL, BlockGraph, ProportionTargets, \
    _component_of, build_complete_peripheral
from .meanfield import solve_mckean_vlasov
from .metrics import d_bl_of_differences
from .rates import _check_entries, _check_horizon, _integer, _is_integer, \
    _quoted, initial_laws
from .rng import CHAOS, MULTICHAOS, substream
from .simulate import FarmRun, GroupTables, _check_grid, _count_farm, _land
from .tables import write_table

log = logging.getLogger(__name__)

__all__ = [
    "ConvergenceReport",
    "proportional_family",
    "proportional_sizes",
    "resolve_tagged",
    "lln_experiment",
    "final_group_counts",
    "tagged_law",
    "multichaos_test",
]


@dataclass(frozen=True)
class ConvergenceReport:
    """Mean sup-grid distance to the limiting flow per system size, with
    its standard error over the replicas."""

    n_values: tuple
    component_means: np.ndarray  # (n_N, 2r)
    distances: np.ndarray        # (n_N, replicas) raw per-replica sups

    @property
    def replicas(self) -> int:
        return self.distances.shape[1]

    @property
    def means(self) -> np.ndarray:
        return self.distances.mean(axis=1)

    @property
    def stderrs(self) -> np.ndarray:
        return self.distances.std(axis=1, ddof=1) / math.sqrt(self.replicas)

    def to_csv(self, fp) -> None:
        write_table(fp, ("N", "replicas", "mean_dist", "stderr"),
                    [self.n_values, [self.replicas] * len(self.n_values),
                     self.means, self.stderrs])

    def to_svg(self, fp) -> None:
        """Log-log plot of mean distance vs N with a slope -1/2 guide."""
        _svg_loglog(fp, np.asarray(self.n_values, dtype=float), self.means,
                    self.stderrs)


def _svg_loglog(fp, xs, ys, errs):
    if np.any(ys <= 0) or np.any(xs <= 0):
        raise InvalidArgumentError("log-log plot needs positive data")
    W, H = 640.0, 480.0
    ml, mr, mt, mb = 80.0, 24.0, 24.0, 56.0
    lx, ly = np.log10(xs), np.log10(ys)
    ref = ly[0] - 0.5 * (lx - lx[0])  # the slope -1/2 guide
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


def _seed_path(seed):
    path = seed if isinstance(seed, (tuple, list)) else (seed,)
    return tuple(_integer(s, "seed") for s in path)


def _start_counts(tables: GroupTables, inits, replicas: int, gen):
    """Group colour counts of `replicas` iid starts with law
    inits[2*block + class], shape (replicas, G, K): one multinomial per
    group."""
    law = initial_laws(inits, tables.graph.r, tables.K)
    _check_entries(replicas * tables.n_groups * tables.K, "replicas")
    return gen.multinomial(tables.sizes, law[tables.component],
                           size=(replicas, tables.n_groups))


def _farm_on_grid(tables: GroupTables, inits, T: float, replicas: int, gen,
                  grid) -> tuple[FarmRun, np.ndarray]:
    """A count farm of `replicas` iid starts (`_start_counts`) to time T,
    and its group counts at each time of `grid` (a grid `_check_grid`
    passed), shape (replicas, len(grid), G, K): the state after the last
    jump at or before that time, landed from the farm's jump record."""
    G, K = tables.n_groups, tables.K
    _check_entries(replicas * (grid.size + 1) * G * K, "replicas x grid")
    start = _start_counts(tables, inits, replicas, gen)
    landed = np.zeros((replicas, grid.size + 1, G * K), dtype=np.int64)

    def record(times, picks):
        _land(landed, grid, times, tables.src[picks], tables.dst[picks])

    run = _count_farm(tables, start, T, gen, record)
    counts = (start.reshape(replicas, 1, G * K).astype(float)
              + np.cumsum(landed[:, :-1], axis=1))
    return run, counts.reshape(replicas, grid.size, G, K)


def _log_farm(caller, N, run: FarmRun):
    if log.isEnabledFor(logging.DEBUG):
        log.debug("%s N=%d: %d lock-steps, %d replica jumps", caller, N,
                  run.lock_steps, run.jumps)


def lln_experiment(graph_family, spec, targets: ProportionTargets, inits,
                   T, grid, N_list, replicas, seed, *,
                   dt=0.01) -> ConvergenceReport:
    """For each N: sample iid initial colors, simulate, and take the sup
    over a uniform grid of `grid` points on [0, T] of the max-component
    BL distance between the empirical measures and the limiting flow.
    Reports mean and standard error over replicas per N. All replicas of
    one N run as one count farm."""
    N_list = [_integer(n, "N_list entry") for n in N_list]
    if N_list != sorted(set(N_list)):
        raise InvalidArgumentError("N_list must be strictly increasing")
    replicas = _integer(replicas, "replicas")
    if replicas < 2:
        raise InvalidArgumentError("need at least 2 replicas")
    T = _check_horizon(T)
    grid = _integer(grid, "grid")
    if grid < 1:
        raise InvalidArgumentError("need at least 1 grid point")
    _check_entries(grid, "grid")
    _check_entries(len(N_list) * replicas, "replicas")
    grid_times = _check_grid(np.linspace(0.0, T, grid), T)
    flow = solve_mckean_vlasov(spec, targets, inits, T, dt)
    flow_grid = np.stack([flow.at(t) for t in grid_times])
    seed_path = _seed_path(seed)

    r = targets.r
    comp_means = np.empty((len(N_list), 2 * r))
    dists = np.empty((len(N_list), replicas))
    for n_idx, N in enumerate(N_list):
        graph = graph_family(N)
        if graph.r != r:
            raise InvalidArgumentError("graph family disagrees with targets")
        tables = GroupTables(graph, spec)
        run, counts = _farm_on_grid(tables, inits, T, replicas,
                                    substream(*seed_path, n_idx, CHAOS),
                                    grid_times)
        _log_farm("lln_experiment", N, run)
        to_component = np.zeros((2 * r, tables.n_groups))
        to_component[tables.component, np.arange(tables.n_groups)] = 1.0
        emp = ((to_component @ counts)
               / np.ravel(graph.block_sizes)[:, None])  # (R, grid, 2r, K)
        per_comp = d_bl_of_differences(emp - flow_grid).max(axis=1)
        dists[n_idx] = per_comp.max(axis=1)
        comp_means[n_idx] = per_comp.mean(axis=0)
    return ConvergenceReport(tuple(N_list), comp_means, dists)


def resolve_tagged(graph: BlockGraph, tagged_nodes):
    """One to three distinct node ids from raw node ids or (block, class)
    pairs; a pair picks the first node of that class (exchangeability
    makes the choice neutral). Anything but a pair must be a node id."""
    out = []
    for spec_ in tagged_nodes:
        if isinstance(spec_, (tuple, list)):
            j, cls = spec_ if len(spec_) == 2 else (None, None)
            g = _component_of(j, cls, graph.r)
            if g is None:
                raise InvalidArgumentError(
                    f"tagged {_quoted(tuple(spec_))} names no class of a "
                    f"graph with {graph.r} blocks")
            spec_ = (graph.central_nodes(j) if g % 2 == CENTRAL
                     else graph.peripheral_nodes(j))[0]
        if not _is_integer(spec_) or not 0 <= spec_ < graph.n_total:
            raise InvalidArgumentError(
                f"tagged node {_quoted(spec_)} is no node id in "
                f"0..{graph.n_total - 1}")
        out.append(int(spec_))
    if len(out) != len(set(out)):
        raise InvalidArgumentError("tagged nodes must be distinct")
    if not 1 <= len(out) <= 3:
        raise InvalidArgumentError(
            f"need 1 to 3 tagged nodes, got {len(out)}"
        )
    return out


def final_group_counts(graph: BlockGraph, spec, T, replicas, gen, *,
                       inits) -> tuple[GroupTables, np.ndarray]:
    """The design's group tables, and the group colour counts at time T
    of `replicas` runs from iid initial colours with law inits[2*block +
    class], shape (replicas, G, K). All runs are one count farm drawing
    from `gen`; its lock-steps and replica jumps are logged on
    `blockmf.experiments` at debug level."""
    replicas = _integer(replicas, "replicas")
    if replicas < 1:
        raise InvalidArgumentError("need at least 1 replica")
    tables = GroupTables(graph, spec)
    run = _count_farm(tables, _start_counts(tables, inits, replicas, gen),
                      T, gen)
    _log_farm("final_group_counts", graph.n_total, run)
    return tables, run.final


def tagged_law(tables: GroupTables, counts, nodes) -> np.ndarray:
    """The joint law of the colours of `nodes` (distinct node ids), shape
    (K,) * len(nodes), averaged over group colour counts of `tables`'
    groups, shape (replicas, G, K). Given the counts n, every arrangement
    of a group's colours over its exchangeable members is equally likely,
    so node i of group g takes colour a_i, given the nodes before it, with
    probability (n[g, a_i] - g's earlier nodes of colour a_i) / (n_g -
    g's earlier nodes)."""
    counts = np.asarray(counts, dtype=float)
    k = len(nodes)
    group = [next(g for g, m in enumerate(tables.members) if n in m)
             for n in nodes]
    law = np.ones((len(counts),) + (1,) * k)
    for axis, g in enumerate(group):
        factor = np.expand_dims(counts[:, g], [1 + a for a in range(k)
                                               if a != axis])
        same = [a for a in range(axis) if group[a] == g]
        for a in same:  # one fewer of a's colour left for this node
            factor = factor - np.expand_dims(np.eye(tables.K), [0] + [
                1 + b for b in range(k) if b not in (a, axis)])
        law = law * factor / (tables.sizes[g] - len(same))
    return law.mean(axis=0)


def multichaos_test(graph: BlockGraph, spec, tagged_nodes, T, replicas,
                    seed, *, inits):
    """Estimate the joint law of the tagged nodes' colors at time T, the
    product of its marginals, and the total-variation distance between
    the two. tagged_nodes entries are node ids or (block, class) pairs
    (resolved to the first node of the class). The dynamics run on the
    graph's own proportions."""
    tagged = resolve_tagged(graph, tagged_nodes)
    tables, counts = final_group_counts(
        graph, spec, T, replicas, substream(*_seed_path(seed), MULTICHAOS),
        inits=inits)
    joint = tagged_law(tables, counts, tagged)
    K, m = tables.K, len(tagged)
    product = np.ones(())
    for axis in range(m):
        marg = joint.sum(axis=tuple(a for a in range(m) if a != axis))
        shape = [1] * m
        shape[axis] = K
        product = product * marg.reshape(shape)
    tv = 0.5 * float(np.abs(joint - product).sum())
    return joint, product, tv
