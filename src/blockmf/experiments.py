"""Statistical experiments: empirical-measure convergence to the
mean-field flow, and factorization of tagged-node joint laws.

Both experiments take a list of graphs, designs of growing N, and one
seed or seed path per graph. On every design, each member of a group
(a block's centrals, a peripheral twin class) jumps at the same rates,
so the system is Kurtz's density-dependent chain on group colour
counts. One runner, `_run_farms`, runs it as the count farm of
`simulate`, in the calling process: the replicas of every graph whose
designs share one structure (on a complete proportional family, all N)
advance together in numpy arrays, one jump per replica per lock-step,
so a run takes as many lock-steps as its longest N needs.
`lln_experiment` has the runner land the farm's jump record on its
grid. Single nodes need no farm of their own: the members of a group
are exchangeable, so the joint law of a few nodes at time T is a
function of their groups' colour counts (`tagged_law`), averaged over
the farm's replicas. `multichaos_test` reads the joint law of its
tagged nodes so, and `oracle-check` every node's marginal law.

Each graph draws from its own stream, keyed by its seed path and a
purpose word, and reads it as a farm of that graph alone would, so
results are a pure function of the seeds and the replica count,
whatever other graphs share the farm; a replica's draws depend on how
many replicas share its stream.
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
from .simulate import GroupTables, _check_grid, _count_farm, _land, \
    _same_structure
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


def _streams(seeds, graphs, purpose):
    """One generator per graph, keyed by its entry of `seeds`, a seed or a
    seed path, and the purpose word."""
    if not isinstance(seeds, (list, tuple)) or len(seeds) != len(graphs):
        raise InvalidArgumentError(
            f"need a list of one seed per graph, {len(graphs)} in all")
    paths = [s if isinstance(s, (tuple, list)) else (s,) for s in seeds]
    return [substream(*(_integer(w, "seed") for w in path), purpose)
            for path in paths]


def _start_counts(designs, inits, replicas: int, gens):
    """Group colour counts of `replicas` iid starts with law
    inits[2*block + class] for each design, drawn from its entry of
    `gens`: one array of shape (replicas, G, K) per design, one
    multinomial per group. The farm stacks them into one array, so their
    sum is checked as that array's size."""
    laws = [initial_laws(inits, t.graph.r, t.K)[t.component] for t in designs]
    _check_entries(len(designs) * replicas * designs[0].n_groups
                   * designs[0].K, "replicas")
    return [gen.multinomial(t.sizes, law, size=(replicas, t.n_groups))
            for t, law, gen in zip(designs, laws, gens)]


def _by_structure(designs):
    """The indices of `designs` grouped by structure (`_same_structure`),
    each group in order and the groups in order of their first member:
    one count farm each."""
    farms = []
    for i, tables in enumerate(designs):
        farm = next((f for f in farms
                     if _same_structure(designs[f[0]], tables)), None)
        if farm is None:
            farms.append([i])
        else:
            farm.append(i)
    return farms


def _run_farms(caller, designs, inits, T: float, replicas: int, gens,
               grid=None) -> list:
    """Run `replicas` iid starts (`_start_counts`) of each of `designs`,
    GroupTables, to time T, each design drawing from its entry of `gens`,
    in one count farm per structure (`_by_structure`). Each design's
    lock-steps and replica jumps are logged as `caller`'s on
    `blockmf.experiments` at debug level. Returns one FarmRun per design;
    given a grid (one `_check_grid` passed), each design's group counts
    at its times instead, shape (replicas, len(grid), G, K): the state
    after the last jump at or before that time, landed from the farm's
    jump record."""
    out = [None] * len(designs)
    for farm in _by_structure(designs):
        group, farm_gens = [designs[i] for i in farm], [gens[i] for i in farm]
        G, K = group[0].n_groups, group[0].K
        R = len(farm) * replicas
        if grid is None:
            record = None
        else:
            _check_entries(R * grid.size * G * K, "replicas x grid")
            landed = np.zeros((R, grid.size, G * K), dtype=np.int64)
            src, dst = group[0].src, group[0].dst

            def record(times, picks):
                _land(landed, grid, times, src[picks], dst[picks])
        starts = _start_counts(group, inits, replicas, farm_gens)
        runs = _count_farm(group, starts, T, farm_gens, record)
        if grid is not None:
            start = np.concatenate(starts).reshape(R, 1, G * K)
            counts = start.astype(float) + np.cumsum(landed, axis=1)
            on_grid = np.split(counts.reshape(R, grid.size, G, K), len(farm))
        for k, (i, run) in enumerate(zip(farm, runs)):
            if log.isEnabledFor(logging.DEBUG):
                log.debug("%s N=%d: %d lock-steps, %d replica jumps", caller,
                          designs[i].graph.n_total, run.lock_steps, run.jumps)
            out[i] = run if grid is None else on_grid[k]
    return out


def lln_experiment(graphs, spec, targets: ProportionTargets, inits, T, grid,
                   replicas, seeds, *, dt=0.01) -> ConvergenceReport:
    """For each of `graphs`, of strictly increasing N: sample iid initial
    colors, simulate, and take the sup over a uniform grid of `grid`
    points on [0, T] of the max-component BL distance between the
    empirical measures and the limiting flow. Reports mean and standard
    error over replicas per N. seeds: one seed or seed path per graph.
    The replicas of all graphs whose designs share a structure run as one
    count farm, each graph on its own stream, and are landed on one grid
    array."""
    n_values = [graph.n_total for graph in graphs]
    if n_values != sorted(set(n_values)):
        raise InvalidArgumentError("graph sizes N must strictly increase")
    r = targets.r
    if any(graph.r != r for graph in graphs):
        raise InvalidArgumentError("a graph disagrees with the targets' "
                                   f"{r} blocks")
    replicas = _integer(replicas, "replicas")
    if replicas < 2:
        raise InvalidArgumentError("need at least 2 replicas")
    T = _check_horizon(T)
    grid = _integer(grid, "grid")
    if grid < 1:
        raise InvalidArgumentError("need at least 1 grid point")
    _check_entries(grid, "grid")
    _check_entries(len(graphs) * replicas, "replicas")
    gens = _streams(seeds, graphs, CHAOS)
    grid_times = _check_grid(np.linspace(0.0, T, grid), T)
    flow = solve_mckean_vlasov(spec, targets, inits, T, dt)
    flow_grid = np.stack([flow.at(t) for t in grid_times])

    designs = [GroupTables(graph, spec) for graph in graphs]
    per_comp = []  # (replicas, 2r) per N
    for tables, counts in zip(designs, _run_farms(
            "lln_experiment", designs, inits, T, replicas, gens, grid_times)):
        to_component = np.zeros((2 * r, tables.n_groups))
        to_component[tables.component, np.arange(tables.n_groups)] = 1.0
        emp = ((to_component @ counts)
               / np.ravel(tables.graph.block_sizes)[:, None])
        per_comp.append(d_bl_of_differences(emp - flow_grid).max(axis=1))
    comp_means = np.reshape([p.mean(axis=0) for p in per_comp],
                            (len(graphs), 2 * r))
    dists = np.reshape([p.max(axis=1) for p in per_comp],
                       (len(graphs), replicas))
    return ConvergenceReport(tuple(n_values), comp_means, dists)


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


def final_group_counts(graphs, spec, T, replicas, gens, *,
                       inits) -> list:
    """For each of `graphs`, its group tables and the group colour counts
    at time T of `replicas` runs from iid initial colours with law
    inits[2*block + class], shape (replicas, G, K), drawing from its
    entry of `gens`. The runs on graphs whose designs share a structure
    are one count farm; each graph's lock-steps and replica jumps are
    logged on `blockmf.experiments` at debug level."""
    replicas = _integer(replicas, "replicas")
    if replicas < 1:
        raise InvalidArgumentError("need at least 1 replica")
    if not (isinstance(gens, list) and len(gens) == len(graphs) and all(
            isinstance(gen, np.random.Generator) for gen in gens)):
        raise InvalidArgumentError(
            f"gens must be a list of one numpy Generator per graph, "
            f"{len(graphs)} in all, got {_quoted(gens)}")
    designs = [GroupTables(graph, spec) for graph in graphs]
    runs = _run_farms("final_group_counts", designs, inits, T, replicas, gens)
    return [(tables, run.final) for tables, run in zip(designs, runs)]


def tagged_law(tables: GroupTables, counts, nodes) -> np.ndarray:
    """The joint law of the colours of `nodes` (1 to 3 distinct nodes, as
    `resolve_tagged` reads them), shape (K,) * len(nodes), averaged over
    group colour counts of `tables`' groups, shape (replicas, G, K).
    Given the counts n, every arrangement of a group's colours over its
    exchangeable members is equally likely, so node i of group g takes
    colour a_i, given the nodes before it, with probability (n[g, a_i] -
    g's earlier nodes of colour a_i) / (n_g - g's earlier nodes)."""
    counts = np.asarray(counts, dtype=float)
    nodes = resolve_tagged(tables.graph, nodes)
    k = len(nodes)
    group = tables.graph.group[nodes].tolist()
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


def multichaos_test(graphs, spec, tagged_nodes, T, replicas, seeds, *,
                    inits) -> list:
    """For each of `graphs`, estimate the joint law of the tagged nodes'
    colors at time T, the product of its marginals, and the
    total-variation distance between the two: one (joint, product, tv)
    per graph. tagged_nodes entries are node ids or (block, class) pairs
    (resolved to the first node of the class), resolved on every graph
    before any run. seeds: one seed or seed path per graph. The dynamics
    run on each graph's own proportions; the runs on graphs of one
    structure are one count farm (`final_group_counts`)."""
    tagged = [resolve_tagged(graph, tagged_nodes) for graph in graphs]
    gens = _streams(seeds, graphs, MULTICHAOS)
    out = []
    for nodes, (tables, counts) in zip(tagged, final_group_counts(
            graphs, spec, T, replicas, gens, inits=inits)):
        joint = tagged_law(tables, counts, nodes)
        K, m = tables.K, len(nodes)
        product = np.ones(())
        for axis in range(m):
            marg = joint.sum(axis=tuple(a for a in range(m) if a != axis))
            shape = [1] * m
            shape[axis] = K
            product = product * marg.reshape(shape)
        tv = 0.5 * float(np.abs(joint - product).sum())
        out.append((joint, product, tv))
    return out
