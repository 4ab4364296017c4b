"""Event-driven simulation of the interacting particle system.

Every node carries a color in 0..K-1 and jumps along allowed color
edges at rates driven by its neighborhood's empirical color measure
(gamma_c-weighted over central neighbors, gamma_p-weighted over
peripheral ones, self included, everything divided by deg+1 — the
normalized block structure makes all weights equal to table value over
neighborhood size).

Nodes of one (block, class) sharing a closed neighbourhood jump at the
same rates, so each such twin class (all centrals of a block; the
graph's peripheral twin classes) is one group, and the group colour
counts are one Markov chain, Kurtz's density-dependent chain. The count
farm samples it by the direct method (exponential waiting time at the
total rate, then category sampling) for any number of replicas in
lock-step; the per-event work is O(nonzeros of the rate map), not O(N).
`simulate` runs the farm with one replica and hands each jump of a group
to a uniform member of the group in the jump's source colour: twins are
exchangeable, so that is the per-node law.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng as _rng
from .errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    NumericalBlowupError,
)
from .graph import CENTRAL, PERIPHERAL, BlockGraph, neighborhood_proportions
from .rates import _check_horizon, _quoted, affine_rows, as_block_rates, \
    initial_laws
from .tables import write_series, write_table

__all__ = [
    "GroupTables",
    "SystemState",
    "Trajectory",
    "LocalMeasure",
    "EmpiricalSeries",
    "local_empirical",
    "sample_block_colors",
    "simulate",
    "empirical_process",
]

log = logging.getLogger(__name__)


@dataclass
class SystemState:
    """Node colors plus their count table counts[g, z], g = 2*block +
    class: an int array of shape (2r, K), the layout of
    EmpiricalSeries.values[t]. A stack of states has colors (..., N) and
    counts (..., 2r, K), one state per row."""

    colors: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_colors(cls, graph: BlockGraph, colors, K: int) -> "SystemState":
        colors = np.asarray(colors)
        if colors.dtype.kind not in "iu":
            raise InvalidArgumentError(
                f"colors must be integers, got dtype {colors.dtype}"
            )
        colors = colors.astype(np.int64, copy=False)
        if colors.ndim == 0 or colors.shape[-1] != graph.n_total:
            raise InvalidArgumentError(
                f"need {graph.n_total} colors, got shape {colors.shape}"
            )
        if colors.min() < 0 or colors.max() >= K:
            raise InvalidArgumentError(f"colors must lie in 0..{K - 1}")
        # state s of a stack counts into cells s*width .. (s+1)*width - 1
        width = 2 * graph.r * K
        n_states = colors.size // graph.n_total
        cells = graph.component * K + colors
        if colors.ndim > 1:
            cells += width * np.arange(n_states).reshape(*colors.shape[:-1], 1)
        counts = np.bincount(cells.ravel(), minlength=n_states * width)
        return cls(colors, counts.reshape(*colors.shape[:-1], 2 * graph.r, K))

    @property
    def K(self) -> int:
        return self.counts.shape[-1]


@dataclass
class Trajectory:
    """A run's events."""

    initial: SystemState
    events: list  # (t, node, from_color, to_color), strictly increasing t
    horizon: float

    @property
    def final_colors(self) -> np.ndarray:
        colors = self.initial.colors.copy()
        for _, node, _, zp in self.events:
            colors[node] = zp
        return colors

    def to_csv(self, fp):
        write_table(fp, ("t", "node", "from", "to"),
                    list(zip(*self.events)) or [()] * 4)


@dataclass
class LocalMeasure:
    """A node's neighborhood measure, decomposed by node group."""

    parts: tuple       # group measures, np arrays
    proportions: np.ndarray


def local_empirical(state: SystemState, graph: BlockGraph, node: int,
                    ) -> LocalMeasure:
    """Decomposed neighborhood measure of `node` (self included).

    Central node: (own-block central measure, own-block peripheral
    measure) with block-share proportions. Peripheral node: (own-block
    central measure, per-block peripheral neighbor measures) with
    deg+1-normalized proportions; a block contributing no neighbors gets
    a zero part with proportion 0. For a stack of states every part
    carries the stack's leading axes, one measure per state.
    """
    K = state.K
    j = graph.block_of(node)
    nc, npp = graph.block_sizes[j]
    mu_c = state.counts[..., 2 * j + CENTRAL, :] / nc
    if not graph.is_peripheral(node):
        mu_p = state.counts[..., 2 * j + PERIPHERAL, :] / npp
        nj = nc + npp
        return LocalMeasure(
            (mu_c, mu_p),
            np.array([nc / nj, npp / nj]),
        )
    # peripheral: per-block neighbor counts (self counts for its own block)
    scan = np.array([*graph.peripheral_neighbors(node), node])
    seen = state.colors[..., scan, None] == np.arange(K)
    block = graph.component[scan] // 2
    cross = graph.cross_counts(node)
    parts = [mu_c]
    for i in range(graph.r):
        counts = seen[..., block == i, :].sum(axis=-2, dtype=float)
        parts.append(counts / cross[i] if cross[i] else counts)
    return LocalMeasure(tuple(parts), neighborhood_proportions(graph, node))


# --------------------------------------------------------------------------
# the count chain


class GroupTables:
    """The quotient chain of one design: its groups and their affine rate
    map, built once per (graph, rate family) and never changed after:
    every array is read-only, so threads and the `_group_tables` cache
    share the tables. The count farm reads them.

    Groups are the graph's (`BlockGraph.group`), with their `component`s
    and `sizes` (the graph's array): one per block's centrals (0..r-1),
    then the peripheral twin classes in order of their first node. A
    closed neighbourhood is a union of groups (the graph's `links`), so
    each group reads whole groups, and every group has members: each
    block has a central and a peripheral node. The members of a group
    are exchangeable, so the joint law of any nodes is a function of the
    law of the group counts (`experiments.tagged_law`). With n[h*K + x]
    the count of colour x in group h, edge e of group g fires, for each
    member of g in the edge's source colour, at rate

        max(0, beta[g, e] + sum over i with row[i] == g*E + e
                            of weight[i] * n[col[i]]).

    (row, col, weight, beta) are `rates.affine_rows` as returned: the
    nonzeros of the rate map in row-major order, columns ascending within
    a row; memory is O(nnz), never the dense map. The farm reads the same
    map compiled for `np.add.reduceat`: row g*E + e gathers the counts
    `gather_col[starts[g*E + e]:starts[g*E + e + 1]]` with weights
    `gather_weight`, its nonzeros and then its beta, read from a column
    G*K that holds a constant 1. `src` and `dst` are the flat cells g*K
    + z of each (group, edge)'s source and target colours, and row g*E +
    e of `move` (G*E rows, G*K + 1 columns) is that jump's count change.
    """

    def __init__(self, graph: BlockGraph, family):
        family = as_block_rates(family, graph.r)
        cg = family.colors
        self.graph = graph
        self.K = K = cg.K
        self.n_edges = E = cg.n_edges
        self.n_groups = G = len(graph.firsts)
        self.sizes = graph.sizes
        self.component = graph.component[list(graph.firsts)]
        self.row, self.col, self.weight, self.beta = affine_rows(
            family, self._readers())

        # reduceat adds each row's beta last, and every row has a start
        GK, GE = G * K, G * E
        row = np.concatenate((self.row, np.arange(GE)))
        order = np.argsort(row, kind="stable")
        self.gather_col = np.concatenate((self.col, np.full(GE, GK)))[order]
        self.gather_weight = np.concatenate((self.weight,
                                             self.beta.ravel()))[order]
        self.starts = np.searchsorted(row[order], np.arange(GE))
        self.src, self.dst = cg.edge_cells(G)
        self.move = np.zeros((GE, GK + 1))
        self.move[np.arange(GE), self.src] = -1.0
        self.move[np.arange(GE), self.dst] = 1.0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def _readers(self):
        """Yield, group by group, the groups it reads with their weights
        (streamed: on sparse designs the dicts would outweigh the rows).
        A group reads its closed neighbourhood, the graph's links; every
        node weighs each neighbour by 1/(neighbourhood size), which the
        members of a group share, so a group's count vector enters once
        with it. Central groups are 0..r-1."""
        graph, r = self.graph, self.graph.r
        for g, closed in enumerate(graph.links):
            w = 1.0 / int(graph.sizes[list(closed)].sum())
            yield divmod(int(self.component[g]), 2), {
                h: (w, CENTRAL if h < r else PERIPHERAL) for h in closed}


# --------------------------------------------------------------------------
# the count farm: replicas of the count chains of designs that share one
# structure, one jump per replica per lock-step


# The farm hands its record of jump times and edges to its caller every
# RECORD_STEPS lock-steps, so the record stays O(RECORD_STEPS * replicas):
# kept whole, it peaked at 2.5 MB (tracemalloc) for the 2046 lock-steps of
# a 24-replica N=640 farm, against 0.08 MB for the farm without it.
RECORD_STEPS = 64


class FarmRun(NamedTuple):
    """What `_count_farm` returns for each design: the group counts at T,
    shape (replicas, G, K), and the work counters, lock-steps (the passes
    that moved one of the design's replicas) and replica jumps (over all
    of its replicas)."""

    final: np.ndarray
    lock_steps: int
    jumps: int


def _same_structure(a: GroupTables, b: GroupTables) -> bool:
    """Whether two designs' count chains read the same cells, row by row,
    and jump between the same cells: then only their weights (and so
    their betas) differ. `move` follows from `src`, `dst` and the sizes."""
    return ((a.n_groups, a.K, a.n_edges) == (b.n_groups, b.K, b.n_edges)
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("gather_col", "starts", "src", "dst")))


def _farm_rates(tables: GroupTables, n, spans) -> np.ndarray:
    """The rate max(0, beta + A n) of every (group, edge), shape (rows,
    G*E), at the flat counts n of shape (rows, G*K + 1), each row ending
    in the constant 1 that beta is read from. Rows gather the cells of
    `tables`; for each (rows, weights) of `spans`, which cover n, those
    rows weigh them with `weights`, their design's `gather_weight`."""
    rate = n[:, tables.gather_col]
    for rows, weights in spans:
        part = rate[rows]
        part *= weights
    rate = np.add.reduceat(rate, tables.starts, axis=1)
    np.maximum(rate, 0.0, out=rate)
    return rate


def _farm_picks(tables: GroupTables, n, spans, u):
    """The total rate of each row of the flat counts n (as `_farm_rates`
    reads them) and the (group, edge) row g*E + e it picks with its
    uniform in u: the first whose cumulated rate exceeds u * total. u < 1
    keeps u * total below the last cumulated rate, total, so a row with a
    positive total picks an edge of positive rate."""
    rate = _farm_rates(tables, n, spans)
    rate *= n[:, tables.src]
    # in place, so one (rows, G*E) array outlives the rates
    cum = np.add.accumulate(rate, axis=1, out=rate)
    total = cum[:, -1].copy()
    if not math.isfinite(total.sum()):
        raise NumericalBlowupError("non-finite rate in the count farm")
    return total, (cum > (u * total)[:, None]).argmax(axis=1)


def _count_farm(designs, counts, T: float, gens, record=None) -> list:
    """Run copies of the count chains of `designs`, GroupTables of one
    structure (`_same_structure`), to time T in one lock-step loop: for
    each design, one copy from each start in its entry of `counts`, group
    colour counts of shape (replicas, G, K), drawing from its entry of
    `gens`. Returns one FarmRun per design. Designs of different
    structures raise InvalidArgumentError.

    The replicas of all designs are the rows of one stack, design after
    design; a row reads its design's weights. Each lock-step, every design
    with a running replica draws one exponential and then one uniform for
    each of its replicas, running or not, so no replica's draws depend on
    when the others stop, and a design's stream is read as in a farm of
    its own. Only the running replicas have their rates computed
    (`_farm_rates`), take their draws to pick the jump time and the
    (group, edge), and apply the jump, one row of the move table. A
    replica whose next jump time passes T, or whose total rate is 0,
    stops: its counts go into the result and its row leaves the working
    arrays. A replica's jumps are the lock-steps before it stopped; a
    design's lock-steps are the most jumps of its replicas.

    record: called with each block of at most RECORD_STEPS lock-steps as
    (times, picks), both of shape (lock-steps, replicas), one column per
    replica in design order: the jump times and the picked (group, edge)
    rows g*E + e. A replica that has stopped reads time +inf and pick 0.
    T must be finite and >= 0.
    """
    T = _check_horizon(T)
    first = designs[0]
    if not all(_same_structure(first, d) for d in designs[1:]):
        raise InvalidArgumentError(
            "the designs of one count farm must share their groups and "
            "rate structure")
    GK = first.n_groups * first.K
    # design d's replicas are rows bounds[d]..bounds[d+1] - 1
    bounds = np.cumsum([0, *(len(c) for c in counts)]).tolist()
    R = bounds[-1]
    # the flat counts, then the constant-one column that beta is read from;
    # `final` holds every replica's counts, `n` the running replicas' rows,
    # which are final's own rows until the first replica stops
    final = n = np.ones((R, GK + 1))
    np.concatenate([np.reshape(c, (len(c), GK)) for c in counts],
                   out=final[:, :GK])
    del counts  # a caller that passed its only references frees them here
    move = first.move
    running = np.arange(R)
    e, u = np.empty(R), np.empty(R)
    stopped_at = np.zeros(R, dtype=np.int64)
    t = np.zeros(R)
    step = 0

    def split():
        """For each design with running replicas: its generator with its
        replicas' entries of e and u, and its running replicas' working
        rows with its weights."""
        cut = np.searchsorted(running, bounds).tolist()
        active = [i for i in range(len(designs)) if cut[i] < cut[i + 1]]
        return ([(gens[i], e[bounds[i]:bounds[i + 1]],
                  u[bounds[i]:bounds[i + 1]]) for i in active],
                [(slice(cut[i], cut[i + 1]), designs[i].gather_weight)
                 for i in active])

    draws, spans = split()
    # an overflowing rate (inf, or inf x 0 = nan) is caught by
    # `_farm_picks`, not reported by numpy; a zero total rate puts the
    # next jump at +inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while running.size:
            for gen, e_rows, u_rows in draws:
                gen.standard_exponential(out=e_rows)
                gen.random(out=u_rows)
            total, k = _farm_picks(first, n, spans, u[running])
            t_next = t + e[running] / total
            live = t_next <= T
            moved = np.count_nonzero(live)
            if moved < running.size:
                if not moved:
                    break
                stop = ~live
                final[running[stop]] = n[stop]
                stopped_at[running[stop]] = step
                running, n, k, t_next = (a[live]
                                         for a in (running, n, k, t_next))
                if len(designs) > 1:  # one design's span is every row
                    draws, spans = split()
            n += move[k]
            if record is not None:
                # a fresh block every RECORD_STEPS lock-steps, handed on full
                j = step % RECORD_STEPS
                if not j:
                    times = np.full((RECORD_STEPS, R), np.inf)
                    picks = np.zeros((RECORD_STEPS, R), dtype=k.dtype)
                times[j][running] = t_next
                picks[j][running] = k
                if j == RECORD_STEPS - 1:
                    record(times, picks)
            step += 1
            t = t_next
    # the replicas that stopped together at the last lock-step
    final[running] = n
    stopped_at[running] = step
    j = step % RECORD_STEPS
    if record is not None and j:
        record(times[:j], picks[:j])
    return [FarmRun(final[lo:hi, :GK].reshape(hi - lo, first.n_groups,
                                              first.K),
                    int(stopped_at[lo:hi].max(initial=0)),
                    int(stopped_at[lo:hi].sum()))
            for lo, hi in zip(bounds, bounds[1:])]


_last_tables = None  # (key, tables) of the last design simulated


def _group_tables(graph: BlockGraph, family) -> GroupTables:
    """The tables of the last design simulated, or of this one. Graph and
    rate family compare by value, so the replicas of one design build
    them once. The cache is one (key, tables) tuple, replaced in one
    assignment; the tables hold no run state, so threads may share them."""
    global _last_tables
    key = (graph, family)
    last = _last_tables
    if last is None or last[0] != key:
        last = _last_tables = (key, GroupTables(graph, family))
    return last[1]


def sample_block_colors(graph: BlockGraph, inits, gen) -> np.ndarray:
    """iid initial colors, one distribution per component 2*block+class,
    from one gen.random(N) draw: a node's colour is the number of entries
    of its law's cdf at or below its uniform."""
    cdf = np.cumsum(initial_laws(inits, graph.r), axis=1)[graph.component]
    u = gen.random(len(cdf))
    return np.minimum((cdf <= u[:, None]).sum(axis=1), cdf.shape[1] - 1)


def simulate(graph: BlockGraph, spec, init, T: float, seed) -> Trajectory:
    """Exact sample of the N-particle jump process up to time T.

    init: the length-N integer color vector, node n's color init[n].
    The dynamics run on the graph's own finite-N neighborhood
    proportions. seed: integer or a numpy Generator (callers pass
    per-replica substreams).

    The run is a count farm with one replica; then one gen.random(jumps)
    draw gives each jump of group g along edge z -> z' the member of g's
    colour-z bucket at that uniform's position, which is swapped out to
    the colour-z' bucket. The farm's final counts must be the counts of
    the final node colours, or InternalConsistencyError is raised.
    """
    family = as_block_rates(spec, graph.r)
    state = SystemState.from_colors(graph, init, family.colors.K)
    if state.colors.shape != (graph.n_total,):
        raise InvalidArgumentError(
            f"need one state of {graph.n_total} colors, got shape "
            f"{state.colors.shape}"
        )
    gen = seed if isinstance(seed, np.random.Generator) else _rng.substream(seed)
    tables = _group_tables(graph, family)
    K, E, GK = tables.K, tables.n_edges, tables.n_groups * tables.K
    colors = state.colors.tolist()
    # bucket g*K + z: group g's nodes of colour z, ascending (a stable sort)
    cell = graph.group * K + state.colors
    start = np.bincount(cell, minlength=GK)
    buckets = [b.tolist() for b in np.split(np.argsort(cell, kind="stable"),
                                            np.cumsum(start[:-1]))]
    T = _check_horizon(T)
    blocks = []
    [run] = _count_farm([tables], [start[None]], T, [gen],
                        lambda times, picks: blocks.append((times, picks)))
    events = []
    if blocks:
        times, picks = (np.concatenate(b).ravel().tolist()
                        for b in zip(*blocks))
        edges = family.colors.edges
        for t, k, u in zip(times, picks, gen.random(run.jumps).tolist()):
            g, e = divmod(k, E)
            z, zp = edges[e]
            bucket = buckets[g * K + z]
            i = min(int(u * len(bucket)), len(bucket) - 1)
            node = bucket[i]
            bucket[i] = bucket[-1]
            bucket.pop()
            buckets[g * K + zp].append(node)
            colors[node] = zp
            events.append((t, node, z, zp))
    log.debug("simulate: %d events", len(events))
    counts = np.bincount(graph.group * K + colors, minlength=GK)
    if not np.array_equal(run.final[0].ravel(), counts):
        raise InternalConsistencyError(
            "count table drifted from the node colors")
    return Trajectory(state, events, T)


@dataclass
class EmpiricalSeries:
    """Per-grid-point empirical measure vector, component g = 2*block+class
    (class 0 central, 1 peripheral), values[t, g, z]."""

    times: np.ndarray
    values: np.ndarray  # (n_times, 2r, K)

    def to_csv(self, fp):
        write_series(fp, self.times, self.values)


def _check_grid(grid, T: float) -> np.ndarray:
    """`grid` as a float array, checked to be a nonempty nondecreasing 1-d
    array of times in [0, T]."""
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or grid.size == 0 or not np.all(np.diff(grid) >= 0)
            or not 0 <= grid[0] <= grid[-1] <= T):
        raise InvalidArgumentError(
            f"grid must be a nonempty nondecreasing 1-d array within "
            f"[0, {T}]")
    return grid


def _land(landed, grid, times, source, target):
    """Add jumps to `landed`, the count changes per (replica, grid row,
    cell), shape (replicas, len(grid), cells), a C-contiguous array.
    times, source and target have replicas as their last axis: a jump at
    times[..., r] moves one count of replica r from cell source[..., r]
    to cell target[..., r]. Each jump lands on the first grid time at or
    after it, so counts accumulated along the grid give the states there
    (right-continuous: a grid time on a jump sees the post-jump state);
    jumps after the last grid time, and a stopped replica's +inf, land
    nowhere. Only the jumps that land are touched, so a record with many
    stopped replicas costs no more than its jumps."""
    R, rows, cells = landed.shape
    keep = times <= grid[-1]
    replica = np.broadcast_to(np.arange(R), np.shape(times))[keep]
    at = (np.searchsorted(grid, times[keep], side="left")
          + rows * replica) * cells
    flat = landed.reshape(-1)  # a view, so the adds land in `landed`
    np.add.at(flat, at + target[keep], 1)
    np.subtract.at(flat, at + source[keep], 1)


def empirical_process(trajectory: Trajectory, graph: BlockGraph,
                      time_grid) -> EmpiricalSeries:
    """Empirical measure vector along the grid, right-continuous in time
    (a grid point lying exactly on a jump time sees the post-jump state).
    The trajectory must have run on `graph`'s block sizes."""
    grid = _check_grid(time_grid, trajectory.horizon)
    start, K = trajectory.initial.counts, trajectory.initial.K
    sizes, ran = np.ravel(graph.block_sizes).tolist(), start.sum(-1).tolist()
    if start.shape != (2 * graph.r, K) or ran != sizes:
        raise InvalidArgumentError(
            f"the trajectory ran on components of sizes {_quoted(ran)}, not "
            f"on this graph's {sizes}")
    width = 2 * graph.r * K
    landed = np.zeros((1, grid.size, width), dtype=np.int64)
    if trajectory.events:
        t, node, z, zp = (np.asarray(col) for col in zip(*trajectory.events))
        cell = graph.component[node] * K
        _land(landed, grid, t, cell + z, cell + zp)
    counts = (trajectory.initial.counts.reshape(width)
              + np.cumsum(landed[0], axis=0))
    out = (counts.reshape(grid.size, 2 * graph.r, K)
           / np.ravel(graph.block_sizes)[:, None])
    return EmpiricalSeries(grid, out)
