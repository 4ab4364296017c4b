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
import threading
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
    map as arrays, built once per (graph, rate family). The per-node
    kernel and the count farms of `experiments` read the same object.

    Groups: one per block's centrals (0..r-1), then the graph's
    peripheral twin classes in order of their first node. A closed
    neighbourhood is a union of twin classes (the graph's twin links), so
    each group reads whole groups. With n[h*K + x] the count of colour x
    in group h, edge e of group g fires, for each member of g in the
    edge's source colour, at rate

        max(0, beta[g, e] + sum over i with row[i] == g*E + e
                            of weight[i] * n[col[i]]).

    (row, col, weight) are the nonzeros of the rate map in row-major
    order, columns ascending within a row; memory is O(nnz), never the
    dense map.
    """

    def __init__(self, graph: BlockGraph, family):
        family = as_block_rates(family, graph.r)
        cg = family.colors
        self.graph = graph
        self.family = family
        self.K = K = cg.K
        self.n_edges = E = len(cg.edges)
        self.members = [list(graph.central_nodes(j)) for j in range(graph.r)]
        self.members += [list(c) for c in graph.twin_classes]
        self.meta = [(graph.block_of(m[0]), graph.class_of(m[0]))
                     for m in self.members]
        self.n_groups = G = len(self.members)
        self.sizes = np.array([len(m) for m in self.members], dtype=np.int64)
        self.component = np.array([2 * j + cls for j, cls in self.meta],
                                  dtype=np.int64)
        self.edge_src, self.edge_dst = cg.src, cg.dst

        rows, beta = affine_rows(family, self._readers())
        lengths = [len(row) for own in rows for row in own]
        nnz = sum(lengths)
        self.row = np.repeat(np.arange(G * E, dtype=np.int64), lengths)
        self.col = np.fromiter((i for own in rows for row in own
                                for i, _ in row), np.int64, nnz)
        self.weight = np.fromiter((w for own in rows for row in own
                                   for _, w in row), float, nnz)
        self.beta = np.array(beta, dtype=float).reshape(G, E)

        # reverse dependencies: a jump in h changes the rates of every
        # group reading h, and of h itself
        deps = [{h} for h in range(G)]
        for g, h in set(zip((self.row // E).tolist(),
                            (self.col // K).tolist())):
            deps[h].add(g)
        self.deps = [sorted(d) for d in deps]

    def _readers(self):
        """Yield, group by group, the groups it reads with their weights
        (streamed: on sparse designs the dicts would outweigh the rows).
        Every node weighs each neighbour by 1/(neighbourhood size); the
        members of one group share that weight, so a group's count vector
        enters once with it. Central groups are 0..r-1."""
        graph = self.graph
        for g, (j, cls) in enumerate(self.meta):
            if cls == CENTRAL:
                w = 1.0 / graph.block_size(j)
                seen = [h for h, m in enumerate(self.meta)
                        if m == (j, PERIPHERAL)]
            else:
                w = 1.0 / (graph.degree(self.members[g][0]) + 1)
                seen = [graph.r + d for d in graph.twin_links[g - graph.r]]
            reads = dict.fromkeys(seen, (w, PERIPHERAL))
            reads[j] = (w, CENTRAL)
            yield (j, cls), reads

    def coef_rows(self):
        """The rate map as nested lists: coef[g][e] is the list of
        (column, weight) pairs of row g*E + e."""
        E = self.n_edges
        bounds = np.searchsorted(
            self.row, np.arange(self.n_groups * E + 1)).tolist()
        pairs = list(zip(self.col.tolist(), self.weight.tolist()))
        flat = [pairs[a:b] for a, b in zip(bounds, bounds[1:])]
        return [flat[g * E:(g + 1) * E] for g in range(self.n_groups)]

    def group_of(self, node: int) -> int:
        """The group holding `node`."""
        graph = self.graph
        if graph.is_peripheral(node):
            return graph.r + graph._twin(node)
        return graph.block_of(node)


class _Kernel:
    """Aggregated-group Gillespie state machine over a design's
    `GroupTables`. Each group's per-edge rate is a clamped affine function
    of the flat count vector; the coefficient lists make a group refresh a
    few multiply-adds.
    """

    def __init__(self, graph: BlockGraph, family):
        tables = GroupTables(graph, family)
        self.K = K = tables.K
        self.n_edges = tables.n_edges
        self.members = tables.members
        self.meta = tables.meta
        self.n_groups = tables.n_groups
        self.coef = tables.coef_rows()
        self.beta = tables.beta.tolist()
        self.deps = tables.deps
        self.out_of = [tables.family.colors.out_edges(z) for z in range(K)]
        self.edge_src = tables.edge_src.tolist()
        self.edge_dst = tables.edge_dst.tolist()

    # -- per-run state -------------------------------------------------

    def load(self, colors):
        K = self.K
        self.colors = [int(c) for c in colors]
        self.cnt = [0] * (self.n_groups * K)
        self.buckets = [
            [[] for _ in range(K)] for _ in range(self.n_groups)
        ]
        for g, members in enumerate(self.members):
            for n in members:
                z = self.colors[n]
                self.cnt[g * K + z] += 1
                self.buckets[g][z].append(n)
        self.rate = [[0.0] * self.n_edges for _ in range(self.n_groups)]
        self.group_total = [0.0] * self.n_groups
        for g in range(self.n_groups):
            self._refresh(g)

    def _refresh(self, g):
        cnt = self.cnt
        rate = self.rate[g]
        beta = self.beta[g]
        K = self.K
        base = 0.0
        for e, row in enumerate(self.coef[g]):
            v = beta[e]
            for idx, w in row:
                v += w * cnt[idx]
            if v < 0.0:
                v = 0.0
            if v != v or v == float("inf"):  # non-finite guard
                raise InternalConsistencyError(
                    f"non-finite rate in group {g} edge {e}"
                )
            rate[e] = v
        gK = g * K
        for z in range(K):
            c = cnt[gK + z]
            if c:
                s = 0.0
                for e in self.out_of[z]:
                    s += rate[e]
                base += c * s
        self.group_total[g] = base

    def run(self, T: float, gen: np.random.Generator):
        """Advance to horizon T; returns the event list. Sets `refreshes`
        and `drawn` for the run."""
        draws = _rng.BatchedDraws(gen)
        events = []
        refreshes = 0
        t = 0.0
        K = self.K
        cnt = self.cnt
        while True:
            total = 0.0
            for g in range(self.n_groups):
                total += self.group_total[g]
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
            for g in range(self.n_groups):
                gt = self.group_total[g]
                if gt > 0.0:
                    last_pos = g
                acc += gt
                if target < acc:
                    g_pick = g
                    break
            if g_pick < 0:  # float slack at the very top of the walk
                g_pick = last_pos
            acc -= self.group_total[g_pick]
            e_pick = -1
            gK = g_pick * K
            rate = self.rate[g_pick]
            for z in range(K):
                c = cnt[gK + z]
                if not c:
                    continue
                for e in self.out_of[z]:
                    acc += c * rate[e]
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
                        for e in reversed(self.out_of[z]):
                            if rate[e] > 0.0:
                                e_pick = e
                                break
                        if e_pick >= 0:
                            break
                if e_pick < 0:
                    raise InternalConsistencyError("category walk fell off")
            z, zp = self.edge_src[e_pick], self.edge_dst[e_pick]
            bucket = self.buckets[g_pick][z]
            i = 0
            if len(bucket) > 1:
                i = int(draws.uniform() * len(bucket))
                if i >= len(bucket):
                    i = len(bucket) - 1
            node = bucket[i]
            bucket[i] = bucket[-1]
            bucket.pop()
            self.buckets[g_pick][zp].append(node)
            cnt[gK + z] -= 1
            cnt[gK + zp] += 1
            self.colors[node] = zp
            events.append((t, node, z, zp))
            deps = self.deps[g_pick]
            for g in deps:
                self._refresh(g)
            refreshes += len(deps)
        self.refreshes = refreshes
        self.drawn = draws.drawn
        return events

    def check_counts(self):
        for g, members in enumerate(self.members):
            expect = [0] * self.K
            for n in members:
                expect[self.colors[n]] += 1
            for z in range(self.K):
                if self.cnt[g * self.K + z] != expect[z]:
                    raise InternalConsistencyError(
                        f"count table drifted at group {g}, color {z}"
                    )


_last_kernel = threading.local()


def _kernel(graph: BlockGraph, family) -> _Kernel:
    """The kernel of the last design this thread ran. Graph and rate
    family compare by value, so the replicas of one design build it
    once; `load` resets every per-run field. Per thread, because a kernel
    holds its run's state."""
    key = (graph, family)
    if getattr(_last_kernel, "key", None) != key:
        _last_kernel.kernel = _Kernel(graph, family)  # may raise: key last
        _last_kernel.key = key
    return _last_kernel.kernel


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
    kern = _kernel(graph, family)
    kern.load(state.colors)
    events = kern.run(float(T), gen)
    traj = Trajectory(state, events, float(T), kern.refreshes, kern.drawn)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("simulate: %d events, %d refreshes, %d drawn",
                  len(events), kern.refreshes, kern.drawn)
    if debug:
        kern.check_counts()
        if not np.array_equal(traj.final_colors,
                              np.asarray(kern.colors, dtype=np.int64)):
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
