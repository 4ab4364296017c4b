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
from .rates import _check_horizon, _is_integer, affine_rows, as_block_rates
from .tables import write_series, write_table

__all__ = [
    "GroupTables",
    "SystemState",
    "Trajectory",
    "LocalMeasure",
    "EmpiricalSeries",
    "local_empirical",
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

    Groups: one per block's centrals (0..r-1), then the graph's
    peripheral twin classes in order of their first node. A closed
    neighbourhood is a union of twin classes (the graph's twin links), so
    each group reads whole groups. Each node of `tagged` (distinct node
    ids) then leaves its group for a singleton group of its own, added
    after the others in the order given; a group may be left empty.
    `base[g]` is the unsplit group that group g came from. A singleton
    jumps at its old group's rates, and every read of an old group reads
    all its nonempty parts with the same weight, so the split chain
    lumps exactly to the unsplit one; an emptied group has nothing to
    jump and reads nothing. With n[h*K + x] the count of colour x in
    group h, edge e of group g fires, for each member of g in the
    edge's source colour, at rate

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

    def __init__(self, graph: BlockGraph, family, tagged=()):
        family = as_block_rates(family, graph.r)
        cg = family.colors
        self.graph = graph
        self.K = K = cg.K
        self.n_edges = E = cg.n_edges
        self.members = [list(graph.central_nodes(j)) for j in range(graph.r)]
        self.members += [list(c) for c in graph.twin_classes]
        self.meta = [(graph.block_of(m[0]), graph.class_of(m[0]))
                     for m in self.members]
        self._first = [m[0] for m in self.members]
        self.tagged = _check_tagged(graph, tagged)
        self.base = list(range(len(self.members)))
        for node in self.tagged:
            g = self._unsplit_group(node)
            self.members[g].remove(node)
            self.members.append([node])
            self.meta.append(self.meta[g])
            self.base.append(g)
        self.n_groups = G = len(self.members)
        self.sizes = np.array([len(m) for m in self.members], dtype=np.int64)
        self.component = np.array([2 * j + cls for j, cls in self.meta],
                                  dtype=np.int64)
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
        Every node weighs each neighbour by 1/(neighbourhood size); the
        members of one group share that weight, so a group's count vector
        enters once with it. A group reads what its unsplit group reads,
        and a read of an unsplit group reads each of its nonempty parts;
        an emptied group has no members to jump and reads nothing. Central
        groups are 0..r-1."""
        graph, r = self.graph, self.graph.r
        parts = [[h] if self.sizes[h] else [] for h in range(len(self._first))]
        for g in range(len(parts), self.n_groups):
            parts[self.base[g]].append(g)
        for g, (j, cls) in enumerate(self.meta):
            if not self.sizes[g]:
                yield (j, cls), {}
                continue
            if cls == CENTRAL:
                w = 1.0 / graph.block_size(j)
                seen = [h for h in range(r, len(parts))
                        if self.meta[h] == (j, PERIPHERAL)]
            else:
                b = self.base[g]
                w = 1.0 / (graph.degree(self._first[b]) + 1)
                seen = [r + d for d in graph.twin_links[b - r]]
            reads = {p: (w, PERIPHERAL) for h in seen for p in parts[h]}
            reads.update((p, (w, CENTRAL)) for p in parts[j])
            yield (j, cls), reads

    def _unsplit_group(self, node: int) -> int:
        graph = self.graph
        if graph.is_peripheral(node):
            return graph.r + graph._twin(node)
        return graph.block_of(node)


def _check_tagged(graph: BlockGraph, tagged) -> tuple:
    """`tagged` as a tuple of distinct node ids of `graph`."""
    out = []
    for n in tagged:
        if not _is_integer(n) or not 0 <= n < graph.n_total:
            raise InvalidArgumentError(
                f"tagged node {n!r} is no node id in 0..{graph.n_total - 1}")
        out.append(int(n))
    if len(out) != len(set(out)):
        raise InvalidArgumentError("tagged nodes must be distinct")
    return tuple(out)


# --------------------------------------------------------------------------
# the count farm: replicas of the count chain of one design's GroupTables,
# one jump per replica per lock-step


# The farm hands its record of jump times and edges to its caller every
# RECORD_STEPS lock-steps, so the record stays O(RECORD_STEPS * replicas):
# kept whole, it peaked at 2.5 MB (tracemalloc) for the 2046 lock-steps of
# a 24-replica N=640 farm, against 0.08 MB for the farm without it.
RECORD_STEPS = 64


class FarmRun(NamedTuple):
    """What `_count_farm` returns: the group counts at T, shape
    (replicas, G, K), and the work counters, lock-steps (the loop's
    passes that moved a replica) and replica jumps (over all replicas)."""

    final: np.ndarray
    lock_steps: int
    jumps: int


def _farm_rates(tables: GroupTables, n) -> np.ndarray:
    """The rate max(0, beta + A n) of every (group, edge), shape (R, G*E),
    at the flat counts n of shape (R, G*K + 1), each row ending in the
    constant 1 that beta is read from."""
    rate = n[:, tables.gather_col]
    rate *= tables.gather_weight
    rate = np.add.reduceat(rate, tables.starts, axis=1)
    np.maximum(rate, 0.0, out=rate)
    return rate


def _farm_picks(tables: GroupTables, n, u):
    """The total rate of each row of the flat counts n (as `_farm_rates`
    reads them) and the (group, edge) row g*E + e it picks with its
    uniform in u: the first whose cumulated rate exceeds u * total. u < 1
    keeps u * total below the last cumulated rate, total, so a row with a
    positive total picks an edge of positive rate."""
    rate = _farm_rates(tables, n)
    rate *= n[:, tables.src]
    # in place, so one (rows, G*E) array outlives the rates
    cum = np.add.accumulate(rate, axis=1, out=rate)
    total = cum[:, -1].copy()
    if not math.isfinite(total.sum()):
        raise NumericalBlowupError("non-finite rate in the count farm")
    return total, (cum > (u * total)[:, None]).argmax(axis=1)


def _count_farm(tables: GroupTables, counts, T: float, gen,
                record=None) -> FarmRun:
    """Run copies of the count chain of `tables` to time T in lock-step,
    one from each start in `counts`, the group colour counts of shape
    (replicas, G, K).

    Each lock-step draws one exponential and then one uniform for every
    replica, running or not, so no replica's draws depend on when the
    others stop. Only the running replicas have their rates computed
    (`_farm_rates`), take their draws to pick the jump time and the
    (group, edge), and apply the jump, one row of the move table. A
    replica whose next jump time passes T, or whose total rate is 0,
    stops: its counts go into the result and its row leaves the working
    arrays.

    record: called with each block of at most RECORD_STEPS lock-steps as
    (times, picks), both of shape (lock-steps, replicas): the jump times
    and the picked (group, edge) rows g*E + e. A replica that has
    stopped reads time +inf and pick 0. T must be finite and >= 0.
    """
    T = _check_horizon(T)
    R = len(counts)
    GK = tables.n_groups * tables.K
    # the flat counts, then the constant-one column that beta is read from;
    # `final` holds every replica's counts, `n` the running replicas' rows,
    # which are final's own rows until the first replica stops
    final = n = np.concatenate((np.reshape(counts, (R, GK)), np.ones((R, 1))),
                               axis=1)
    del counts  # a caller that passed its only reference frees it here
    move = tables.move
    running = np.arange(R)
    t = np.zeros(R)
    lock_steps = jumps = 0
    # an overflowing rate (inf, or inf x 0 = nan) is caught by
    # `_farm_picks`, not reported by numpy; a zero total rate puts the
    # next jump at +inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while running.size:
            e = gen.standard_exponential(R)[running]
            total, k = _farm_picks(tables, n, gen.random(R)[running])
            t_next = t + e / total
            live = t_next <= T
            moved = np.count_nonzero(live)
            if moved < running.size:
                if not moved:
                    break
                final[running[~live]] = n[~live]
                running, n, k, t_next = (a[live]
                                         for a in (running, n, k, t_next))
            n += move[k]
            if record is not None:
                # a fresh block every RECORD_STEPS lock-steps, handed on full
                j = lock_steps % RECORD_STEPS
                if not j:
                    times = np.full((RECORD_STEPS, R), np.inf)
                    picks = np.zeros((RECORD_STEPS, R), dtype=k.dtype)
                times[j][running] = t_next
                picks[j][running] = k
                if j == RECORD_STEPS - 1:
                    record(times, picks)
            lock_steps += 1
            jumps += moved
            t = t_next
    # the replicas that stopped together at the last lock-step
    final[running] = n
    j = lock_steps % RECORD_STEPS
    if record is not None and j:
        record(times[:j], picks[:j])
    return FarmRun(final[:, :GK].reshape(R, tables.n_groups, tables.K),
                   lock_steps, jumps)


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
    K, E = tables.K, tables.n_edges
    colors = state.colors.tolist()
    buckets = [[[] for _ in range(K)] for _ in tables.members]
    for own, members in zip(buckets, tables.members):
        for node in members:
            own[colors[node]].append(node)
    start = [[len(b) for b in own] for own in buckets]
    T = _check_horizon(T)
    blocks = []
    run = _count_farm(tables, [start], T, gen,
                      lambda times, picks: blocks.append((times, picks)))
    events = []
    if blocks:
        times, picks = (np.concatenate(b).ravel().tolist()
                        for b in zip(*blocks))
        edges = family.colors.edges
        for t, k, u in zip(times, picks, gen.random(run.jumps).tolist()):
            g, e = divmod(k, E)
            z, zp = edges[e]
            bucket = buckets[g][z]
            i = min(int(u * len(bucket)), len(bucket) - 1)
            node = bucket[i]
            bucket[i] = bucket[-1]
            bucket.pop()
            buckets[g][zp].append(node)
            colors[node] = zp
            events.append((t, node, z, zp))
    log.debug("simulate: %d events", len(events))
    final = np.asarray(colors, dtype=np.int64)
    counts = [np.bincount(final[m], minlength=K) for m in tables.members]
    if not np.array_equal(run.final[0], counts):
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
    cell), shape (replicas, len(grid) + 1, cells). times, source and
    target have replicas as their last axis: a jump at times[..., r]
    moves one count of replica r from cell source[..., r] to cell
    target[..., r]. Each jump lands on the first grid time at or after
    it, so counts accumulated along the grid give the states there
    (right-continuous: a grid time on a jump sees the post-jump state);
    jumps after the last grid time land in an extra row that is cut off.
    """
    R, rows, cells = landed.shape
    at = np.searchsorted(grid, times, side="left")
    at = (at + rows * np.arange(R)) * cells
    landed += (np.bincount((at + target).ravel(), minlength=landed.size)
               - np.bincount((at + source).ravel(), minlength=landed.size)
               ).reshape(landed.shape)


def empirical_process(trajectory: Trajectory, graph: BlockGraph,
                      time_grid) -> EmpiricalSeries:
    """Empirical measure vector along the grid, right-continuous in time
    (a grid point lying exactly on a jump time sees the post-jump state)."""
    grid = _check_grid(time_grid, trajectory.horizon)
    K = trajectory.initial.K
    width = 2 * graph.r * K
    landed = np.zeros((1, grid.size + 1, width), dtype=np.int64)
    if trajectory.events:
        t, node, z, zp = (np.asarray(col) for col in zip(*trajectory.events))
        cell = graph.component[node] * K
        _land(landed, grid, t, cell + z, cell + zp)
    counts = (trajectory.initial.counts.reshape(width)
              + np.cumsum(landed[0, :-1], axis=0))
    out = (counts.reshape(grid.size, 2 * graph.r, K)
           / np.ravel(graph.block_sizes)[:, None])
    return EmpiricalSeries(grid, out)
