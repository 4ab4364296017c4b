"""Statistical experiments: empirical-measure convergence to the
mean-field flow, and factorization of tagged-node joint laws.

On every design, each member of a group (a block's centrals, a
peripheral twin class) jumps at the same rates, so the system is
Kurtz's density-dependent chain on group colour counts. Both
experiments run it as the count farm of `simulate`: all replicas of one
N advance together in numpy arrays, one jump per replica per lock-step,
in the calling process. `lln_experiment` lands the farm's jump record on
its grid. To follow single nodes (`tagged_colors`: the joint law here,
every node's marginal law in `oracle-check`), the nodes are singleton
groups of split tables, so the farm follows them with no bookkeeping of
its own.

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
from .rates import _check_horizon, _integer, initial_laws
from .rng import CHAOS, MULTICHAOS, substream
from .simulate import FarmRun, GroupTables, _check_grid, _check_tagged, \
    _count_farm, _land
from .tables import write_table

log = logging.getLogger(__name__)

__all__ = [
    "ConvergenceReport",
    "proportional_family",
    "proportional_sizes",
    "resolve_tagged",
    "sample_block_colors",
    "lln_experiment",
    "tagged_colors",
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


def sample_block_colors(graph: BlockGraph, inits, gen) -> np.ndarray:
    """iid initial colors, one distribution per component 2*block+class,
    from one gen.random(N) draw: a node's colour is the number of entries
    of its law's cdf at or below its uniform."""
    cdf = np.cumsum(initial_laws(inits, graph.r), axis=1)[graph.component]
    u = gen.random(len(cdf))
    return np.minimum((cdf <= u[:, None]).sum(axis=1), cdf.shape[1] - 1)


def _seed_path(seed):
    path = seed if isinstance(seed, (tuple, list)) else (seed,)
    return tuple(_integer(s, "seed") for s in path)


def _start_counts(tables: GroupTables, inits, replicas: int, gen):
    """Group colour counts of `replicas` iid starts with law
    inits[2*block + class], shape (replicas, G, K): one multinomial per
    group, so a singleton group of split tables draws its node's
    colour."""
    law = initial_laws(inits, tables.graph.r, tables.K)
    return gen.multinomial(tables.sizes, law[tables.component],
                           size=(replicas, tables.n_groups))


def _farm_on_grid(tables: GroupTables, inits, T: float, replicas: int, gen,
                  grid) -> tuple[FarmRun, np.ndarray]:
    """A count farm of `replicas` iid starts (`_start_counts`) to time T,
    and its group counts at each time of `grid` (a grid `_check_grid`
    passed), shape (replicas, len(grid), G, K): the state after the last
    jump at or before that time, landed from the farm's jump record."""
    G, K = tables.n_groups, tables.K
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
    if _integer(replicas, "replicas") < 2:
        raise InvalidArgumentError("need at least 2 replicas")
    T = _check_horizon(T)
    grid_times = _check_grid(np.linspace(0.0, T, _integer(grid, "grid")), T)
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
    makes the choice neutral). Anything but a pair must be a node id, as
    `simulate._check_tagged` checks."""
    out = []
    for spec_ in tagged_nodes:
        if not isinstance(spec_, (tuple, list)):
            out.append(spec_)
            continue
        j, cls = spec_ if len(spec_) == 2 else (None, None)
        g = _component_of(j, cls, graph.r)
        if g is None:
            raise InvalidArgumentError(
                f"tagged {tuple(spec_)!r} names no class of a graph "
                f"with {graph.r} blocks"
            )
        nodes = (graph.central_nodes(j) if g % 2 == CENTRAL
                 else graph.peripheral_nodes(j))
        out.append(nodes[0])
    out = list(_check_tagged(graph, out))
    if not 1 <= len(out) <= 3:
        raise InvalidArgumentError(
            f"need 1 to 3 tagged nodes, got {len(out)}"
        )
    return out


def tagged_colors(graph: BlockGraph, spec, tagged, T, replicas, gen, *,
                  inits) -> np.ndarray:
    """The colours at time T of the nodes `tagged` (distinct node ids) in
    `replicas` runs from iid initial colours with law inits[2*block +
    class], shape (replicas, len(tagged)). All runs are one count farm
    drawing from `gen`, on tables in which each tagged node is a
    singleton group; its lock-steps and replica jumps are logged on
    `blockmf.experiments` at debug level."""
    if _integer(replicas, "replicas") < 1:
        raise InvalidArgumentError("need at least 1 replica")
    tables = GroupTables(graph, spec, tagged)
    run = _count_farm(tables, _start_counts(tables, inits, replicas, gen),
                      T, gen)
    _log_farm("tagged_colors", graph.n_total, run)
    # the singleton groups come last, one count each
    return run.final[:, tables.n_groups - len(tables.tagged):].argmax(axis=2)


def multichaos_test(graph: BlockGraph, spec, tagged_nodes, T, replicas,
                    seed, *, inits):
    """Estimate the joint law of the tagged nodes' colors at time T, the
    product of its marginals, and the total-variation distance between
    the two. tagged_nodes entries are node ids or (block, class) pairs
    (resolved to the first node of the class). The dynamics run on the
    graph's own proportions."""
    tagged = resolve_tagged(graph, tagged_nodes)
    final = tagged_colors(graph, spec, tagged, T, replicas,
                          substream(*_seed_path(seed), MULTICHAOS),
                          inits=inits)
    K = len(inits[0])  # the farm checked each law against the spec's K
    m = len(tagged)
    joint = np.zeros((K,) * m)
    np.add.at(joint, tuple(final.T), 1.0)
    joint /= replicas
    product = np.ones(())
    for axis in range(m):
        marg = joint.sum(axis=tuple(a for a in range(m) if a != axis))
        shape = [1] * m
        shape[axis] = K
        product = product * marg.reshape(shape)
    tv = 0.5 * float(np.abs(joint - product).sum())
    return joint, product, tv
