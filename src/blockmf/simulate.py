"""Event-driven simulation of the interacting particle system.

Every node carries a color in 0..K-1 and jumps along allowed color
edges at rates driven by its neighborhood's empirical color measure
(gamma_c-weighted over central neighbors, gamma_p-weighted over
peripheral ones, self included, everything divided by deg+1 — the
normalized block structure makes all weights equal to table value over
neighborhood size).

The sampler is the direct method: exponential waiting time at the total
rate, then category sampling. Nodes of one (block, class) sharing a
closed neighbourhood jump at the same rates, so each such twin class
(all centrals of a block; the graph's peripheral twin classes) is one
group, and the per-event work is O(groups * K * edges) instead of O(N).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import (
    InternalConsistencyError,
    InvalidArgumentError,
)
from .graph import CENTRAL, PERIPHERAL, BlockGraph, neighborhood_proportions
from .rates import affine_rows, as_block_rates
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

    def class_size(self, j: int, cls: int):
        return self.counts[..., 2 * j + cls, :].sum(axis=-1)


@dataclass
class Trajectory:
    """A run's events; `refreshes` (group rate refreshes after jumps) and
    `drawn` (random numbers pulled from the generator) are the kernel's
    work counters and take no part in equality."""

    initial: SystemState
    events: list  # (t, node, from_color, to_color), strictly increasing t
    horizon: float
    refreshes: int = field(default=0, compare=False)
    drawn: int = field(default=0, compare=False)

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
    labels: tuple

    def combined(self) -> np.ndarray:
        out = np.zeros_like(self.parts[0])
        for w, part in zip(self.proportions, self.parts):
            if w != 0.0:
                out += w * part
        return out


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
            ("central", "peripheral"),
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
    props = neighborhood_proportions(graph, node)
    labels = ("central",) + tuple(f"peripheral_{i}" for i in range(graph.r))
    return LocalMeasure(tuple(parts), props, labels)


# --------------------------------------------------------------------------
# kernel


class GroupTables:
    """The quotient chain of one design: its groups and their affine rate
    map, built once per (graph, rate family) and never changed after. The
    per-node kernel and the count farms of `experiments` read it.

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
    a row; memory is O(nnz), never the dense map. `coef` (coef[g][e] the
    (column, weight) pairs of row g*E + e), `beta_rows`, `deps` (the
    groups whose rates a jump in g changes, g included), `out_of` and
    `edges` are the list views the kernel's event loop reads.
    """

    def __init__(self, graph: BlockGraph, family, tagged=()):
        family = as_block_rates(family, graph.r)
        cg = family.colors
        self.graph = graph
        self.family = family
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

        bounds = np.searchsorted(self.row, np.arange(G * E + 1)).tolist()
        pairs = list(zip(self.col.tolist(), self.weight.tolist()))
        rows = [pairs[a:b] for a, b in zip(bounds, bounds[1:])]
        self.coef = [rows[g * E:(g + 1) * E] for g in range(G)]
        self.beta_rows = self.beta.tolist()
        deps = [{h} for h in range(G)]
        for g, h in set(zip((self.row // E).tolist(),
                            (self.col // K).tolist())):
            deps[h].add(g)
        self.deps = [sorted(d) for d in deps]
        self.out_of = [cg.out_edges(z) for z in range(K)]
        self.edges = cg.edges

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

    def group_of(self, node: int) -> int:
        """The group holding `node`: its singleton if it is tagged."""
        if node in self.tagged:
            return self.n_groups - len(self.tagged) + self.tagged.index(node)
        return self._unsplit_group(node)

    def _unsplit_group(self, node: int) -> int:
        graph = self.graph
        if graph.is_peripheral(node):
            return graph.r + graph._twin(node)
        return graph.block_of(node)


def _check_tagged(graph: BlockGraph, tagged) -> tuple:
    """`tagged` as a tuple of distinct node ids of `graph`."""
    out = []
    for n in tagged:
        if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                or not 0 <= n < graph.n_total):
            raise InvalidArgumentError(
                f"tagged node {n!r} is no node id in 0..{graph.n_total - 1}")
        out.append(int(n))
    if len(out) != len(set(out)):
        raise InvalidArgumentError("tagged nodes must be distinct")
    return tuple(out)


# --------------------------------------------------------------------------
# the per-node kernel: a Gillespie run over a design's GroupTables. Each
# group's per-edge rate is a clamped affine function of the flat count
# vector; the coefficient lists make a group refresh a few multiply-adds.


def _group_rates(tables: GroupTables, cnt, g):
    """Group g's per-edge rates at the flat counts cnt, and its total jump
    rate: the sum over colours z of cnt[g*K + z] times the rates of the
    edges leaving z."""
    beta = tables.beta_rows[g]
    rate = []
    for e, row in enumerate(tables.coef[g]):
        v = beta[e]
        for idx, w in row:
            v += w * cnt[idx]
        if v < 0.0:
            v = 0.0
        if v != v or v == float("inf"):  # non-finite guard
            raise InternalConsistencyError(
                f"non-finite rate in group {g} edge {e}"
            )
        rate.append(v)
    gK = g * tables.K
    total = 0.0
    for z, out in enumerate(tables.out_of):
        c = cnt[gK + z]
        if c:
            s = 0.0
            for e in out:
                s += rate[e]
            total += c * s
    return rate, total


def _start(tables: GroupTables, colors: list):
    """The kernel's state at the node colours `colors`: the flat group
    counts cnt[g*K + z], each group's per-colour buckets of nodes, and
    every group's rates and total from `_group_rates`."""
    K = tables.K
    cnt = [0] * (tables.n_groups * K)
    buckets = []
    for g, members in enumerate(tables.members):
        own = [[] for _ in range(K)]
        for n in members:
            z = colors[n]
            cnt[g * K + z] += 1
            own[z].append(n)
        buckets.append(own)
    rates = [_group_rates(tables, cnt, g) for g in range(tables.n_groups)]
    rate, group_total = map(list, zip(*rates))
    return cnt, buckets, rate, group_total


def _run(tables: GroupTables, colors: list, T: float, gen):
    """Advance the node colours `colors` (changed in place) to horizon T.
    Returns the events, the group refreshes and the numbers drawn, and
    the final flat group counts."""
    draws = _rng.BatchedDraws(gen)
    cnt, buckets, rate, group_total = _start(tables, colors)
    K, G = tables.K, tables.n_groups
    out_of, edges, all_deps = tables.out_of, tables.edges, tables.deps
    events = []
    refreshes = 0
    t = 0.0
    while True:
        total = 0.0
        for g in range(G):
            total += group_total[g]
        if total <= 0.0:
            break
        t += draws.exponential() / total
        if t > T:
            break
        # category: group, then (color, edge) inside the group
        target = draws.uniform() * total
        acc = 0.0
        g_pick = -1
        last_pos = -1
        for g in range(G):
            gt = group_total[g]
            if gt > 0.0:
                last_pos = g
            acc += gt
            if target < acc:
                g_pick = g
                break
        if g_pick < 0:  # float slack at the very top of the walk
            g_pick = last_pos
        acc -= group_total[g_pick]
        e_pick = -1
        gK = g_pick * K
        g_rate = rate[g_pick]
        for z in range(K):
            c = cnt[gK + z]
            if not c:
                continue
            for e in out_of[z]:
                acc += c * g_rate[e]
                if target < acc:
                    e_pick = e
                    break
            if e_pick >= 0:
                break
        if e_pick < 0:
            # numerical slack at the top edge of the walk: retake the
            # last positive-rate category
            for z in range(K - 1, -1, -1):
                if cnt[gK + z]:
                    for e in reversed(out_of[z]):
                        if g_rate[e] > 0.0:
                            e_pick = e
                            break
                    if e_pick >= 0:
                        break
            if e_pick < 0:
                raise InternalConsistencyError("category walk fell off")
        z, zp = edges[e_pick]
        bucket = buckets[g_pick][z]
        i = 0
        if len(bucket) > 1:
            i = int(draws.uniform() * len(bucket))
            if i >= len(bucket):
                i = len(bucket) - 1
        node = bucket[i]
        bucket[i] = bucket[-1]
        bucket.pop()
        buckets[g_pick][zp].append(node)
        cnt[gK + z] -= 1
        cnt[gK + zp] += 1
        colors[node] = zp
        events.append((t, node, z, zp))
        deps = all_deps[g_pick]
        for g in deps:
            rate[g], group_total[g] = _group_rates(tables, cnt, g)
        refreshes += len(deps)
    return events, refreshes, draws.drawn, cnt


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


def simulate(graph: BlockGraph, spec, init, T: float, seed,
             debug: bool = False) -> Trajectory:
    """Exact sample of the N-particle jump process up to time T.

    init: SystemState or a length-N color vector. The dynamics run on the
    graph's own finite-N neighborhood proportions. seed: integer or a
    numpy Generator (callers pass per-replica substreams).
    """
    family = as_block_rates(spec, graph.r)
    if T < 0:
        raise InvalidArgumentError("T must be >= 0")
    if isinstance(init, SystemState):
        state = init
    else:
        state = SystemState.from_colors(graph, init, family.colors.K)
    if state.K != family.colors.K:
        raise InvalidArgumentError("init state K does not match rate spec")
    if state.colors.shape != (graph.n_total,):
        raise InvalidArgumentError(
            f"need one state of {graph.n_total} colors, got shape "
            f"{state.colors.shape}"
        )
    gen = seed if isinstance(seed, np.random.Generator) else _rng.substream(seed)
    tables = _group_tables(graph, family)
    colors = state.colors.tolist()
    events, refreshes, drawn, cnt = _run(tables, colors, float(T), gen)
    traj = Trajectory(state, events, float(T), refreshes, drawn)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("simulate: %d events, %d refreshes, %d drawn",
                  len(events), refreshes, drawn)
    if debug:
        if cnt != _start(tables, colors)[0]:
            raise InternalConsistencyError(
                "count table drifted from the node colors")
        if not np.array_equal(traj.final_colors,
                              np.asarray(colors, dtype=np.int64)):
            raise InternalConsistencyError("replay does not match kernel state")
    return traj


@dataclass
class EmpiricalSeries:
    """Per-grid-point empirical measure vector, component g = 2*block+class
    (class 0 central, 1 peripheral), values[t, g, z]."""

    times: np.ndarray
    values: np.ndarray  # (n_times, 2r, K)
    r: int

    def component(self, j: int, cls: int) -> np.ndarray:
        return self.values[:, 2 * j + cls, :]

    def to_csv(self, fp):
        write_series(fp, self.times, self.values)


def empirical_process(trajectory: Trajectory, graph: BlockGraph,
                      time_grid) -> EmpiricalSeries:
    """Empirical measure vector along the grid, right-continuous in time
    (a grid point lying exactly on a jump time sees the post-jump state)."""
    grid = np.asarray(time_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidArgumentError("grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) < 0):
        raise InvalidArgumentError("grid must be nondecreasing")
    if grid[0] < 0 or grid[-1] > trajectory.horizon:
        raise InvalidArgumentError(
            f"grid must lie within [0, {trajectory.horizon}]"
        )
    # each jump lands on the first grid point at or after it, then counts
    # accumulate along the grid; jumps after the last point land in an
    # extra row that is cut off
    K = trajectory.initial.K
    width = 2 * graph.r * K
    rows = (grid.size + 1) * width
    delta = np.zeros(rows, dtype=np.int64)
    delta[:width] = trajectory.initial.counts.ravel()
    if trajectory.events:
        t, node, z, zp = (np.asarray(col) for col in zip(*trajectory.events))
        at = (np.searchsorted(grid, t, side="left") * width
              + graph.component[node] * K)
        delta += (np.bincount(at + zp, minlength=rows)
                  - np.bincount(at + z, minlength=rows))
    counts = np.cumsum(delta[:-width].reshape(grid.size, width), axis=0)
    out = (counts.reshape(grid.size, 2 * graph.r, K)
           / np.ravel(graph.block_sizes)[:, None])
    return EmpiricalSeries(grid, out, graph.r)
