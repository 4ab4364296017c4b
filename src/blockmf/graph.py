"""Block-structured interaction graphs.

A graph is r blocks; every block is a clique over its own nodes. Each
block splits into central nodes (no links outside the block) and
peripheral nodes (additionally linked to peripheral nodes of other
blocks). Central adjacency is implicit. The peripherals are stored as
their twin quotient: the twin classes (peripherals of one block sharing a
closed neighbourhood) and, per class, the classes its neighbourhood is
made of. Its size depends on the design's fractions, not on N; the
peripheral edge list is expanded from it on request. Intra-block
peripheral pairs must be present (the block is a clique); cross-block
pairs are whatever the design says.

Node ids are global, contiguous, 0-based: block 0 centrals, block 0
peripherals, block 1 centrals, ... so they run in component order, where
component g = 2*block + class (class 0 central, 1 peripheral) is the
index every per-(block, class) table uses. `BlockGraph.component` maps a
node to it, and `BlockGraph.group` to its group, the one node-to-group map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidConfigurationError,
    WrongClassError,
)
from .rates import _check_entries, _integer, _is_integer, _quoted, _reals

CENTRAL, PERIPHERAL = 0, 1
CLASS_LABELS = ("c", "p")  # each class's label in CSVs and scenarios

__all__ = [
    "CENTRAL",
    "PERIPHERAL",
    "CLASS_LABELS",
    "class_index",
    "BlockGraph",
    "ProportionTargets",
    "RegularityReport",
    "build_complete_peripheral",
    "build_regular_peripheral",
    "neighborhood_proportions",
    "check_regularity",
]


def class_index(cls):
    """The class named by `cls`, given as CENTRAL/PERIPHERAL or as its
    label; None when it names no class."""
    if isinstance(cls, str):
        return CLASS_LABELS.index(cls) if cls in CLASS_LABELS else None
    return int(cls) if _is_integer(cls) and cls in (CENTRAL, PERIPHERAL) \
        else None


def _component_of(block, cls, r: int):
    """The component 2*block + class that a (block, class) pair names in
    an r-block graph, the class read by `class_index`; None when the
    pair names none."""
    cls = class_index(cls)
    if cls is None or not _is_integer(block) or not 0 <= block < r:
        return None
    return 2 * int(block) + cls


class BlockGraph:
    """Immutable block graph; see module docstring for the node layout.

    peripheral_edges: iterable of (a, b) global node id pairs. Must
    contain every intra-block peripheral pair (clique property) and no
    self-loops or central endpoints.

    group[n]: read-only int64 array, node n's group: block j's centrals
    are group j, peripheral twin class c (the peripherals of one block
    sharing a closed neighbourhood, in order of first node) group r + c;
    firsts[g] is group g's first node. twin_links[c]: the classes whose
    union is class c's closed neighbourhood. These two are the stored form.

    component[n]: read-only int64 array, node n's component 2*block +
    class; non-decreasing, since ids run in component order.
    """

    def _layout(self, block_sizes):
        """Sizes and the node -> component table; the builders lay out a
        bare instance, then hand `_quotient` their labels and adjacency."""
        sizes = [
            (_integer(nc, f"block {j} central size"),
             _integer(npp, f"block {j} peripheral size"))
            for j, (nc, npp) in enumerate(block_sizes)
        ]
        if not sizes:
            raise InvalidConfigurationError("need at least one block")
        for j, (nc, npp) in enumerate(sizes):
            if nc < 1 or npp < 1:
                raise InvalidConfigurationError(
                    f"block {j}: every block needs >=1 central and >=1 "
                    f"peripheral node, got ({_quoted(nc)},{_quoted(npp)})"
                )
        self.r = len(sizes)
        self.block_sizes = tuple(sizes)
        self.n_total = sum(nc + npp for nc, npp in sizes)
        _check_entries(self.n_total, "graph node count")

        # component g holds nodes _bounds[g] .. _bounds[g + 1] - 1
        self._bounds = (0, *np.cumsum(np.ravel(sizes)).tolist())
        self.component = np.repeat(np.arange(2 * self.r, dtype=np.int64),
                                   np.ravel(sizes))
        self.component.flags.writeable = False

    def __init__(self, block_sizes, peripheral_edges):
        self._layout(block_sizes)
        closed = {n: {n} for n in self.peripheral_nodes_all()}
        for a, b in peripheral_edges:
            a = _integer(a, "peripheral edge endpoint")
            b = _integer(b, "peripheral edge endpoint")
            if a == b:
                raise InvalidConfigurationError(
                    f"self-loop at node {_quoted(a)}")
            if not (0 <= a < self.n_total and 0 <= b < self.n_total):
                raise InvalidConfigurationError(
                    f"edge ({_quoted(a)},{_quoted(b)}) out of range")
            if not (self.is_peripheral(a) and self.is_peripheral(b)):
                raise InvalidConfigurationError(
                    f"edge ({a},{b}) touches a central node"
                )
            closed[a].add(b)
            closed[b].add(a)
        labels = [{} for _ in range(self.r)]
        self._quotient(
            [labels[j].setdefault(frozenset(closed[n]), len(labels[j]))
             for j in range(self.r) for n in self.peripheral_nodes(j)],
            lambda m, n: n in closed[m])

    def _quotient(self, label, adjacent):
        """Store the group map and the twin quotient. label[i] is the twin
        class of the i-th peripheral node in id order within its block
        (the block's peripherals grouped by closed neighbourhood), each
        block's classes numbered from 0 in order of first node. Classes
        c, d are linked when adjacent(first of c, first of d). A closed
        neighbourhood is a union of whole classes, so a first node stands
        for its class; adjacent must hold within a block (the clique)."""
        r, label = self.r, np.asarray(label, dtype=np.int64)
        self.group = self.component // 2  # right for the centrals
        firsts = []
        for mid, hi in zip(self._bounds[1::2], self._bounds[2::2]):
            own = self.group[mid:hi]
            np.add(label[:hi - mid], r + len(firsts), out=own)
            label = label[hi - mid:]
            # unique lists the classes by number, so by first node
            firsts += (np.unique(own, return_index=True)[1] + mid).tolist()
        # counted before the flag: bincount copies a read-only array
        size = np.bincount(self.group)[r:].tolist()
        self.group.flags.writeable = False
        self.firsts = (*self._bounds[0:-1:2], *firsts)
        self.twin_links = tuple(
            tuple(d for d, n in enumerate(firsts) if adjacent(m, n))
            for m in firsts
        )
        # M_i^n per class: neighbour count in each block, own block counted
        # as N_j^p (self included), which holds iff the block is a clique
        blocks = [self.block_of(n) for n in firsts]
        cross = []
        for c, links in enumerate(self.twin_links):
            counts = [0] * r
            for d in links:
                counts[blocks[d]] += size[d]
            j = blocks[c]
            if counts[j] != self.block_sizes[j][1]:
                raise InvalidConfigurationError(
                    f"block {j} peripheral {firsts[c]} is not adjacent to "
                    "its whole block; intra-block peripheral pairs are "
                    "mandatory"
                )
            cross.append(tuple(counts))
        self._cross = tuple(cross)

        perips = tuple(npp for _, npp in self.block_sizes)
        self.is_complete_peripheral = all(row == perips for row in cross)
        # realized cross-degree matrix when the design is regular, else None
        rows = [{row for row, i in zip(cross, blocks) if i == j}
                for j in range(self.r)]
        self.cross_degree_matrix = (
            tuple(s.pop() for s in rows) if all(len(s) == 1 for s in rows)
            else None
        )

    def __setstate__(self, state):
        # pickling drops the flag; an unpickled copy stays read-only too
        self.__dict__.update(state)
        self.component.flags.writeable = False
        self.group.flags.writeable = False

    # --- queries -----------------------------------------------------

    def block_of(self, n) -> int:
        return int(self.component[n]) // 2

    def class_of(self, n) -> int:
        return int(self.component[n]) % 2

    def is_peripheral(self, n) -> bool:
        return self.class_of(n) == PERIPHERAL

    def central_nodes(self, j) -> range:
        return range(self._bounds[2 * j], self._bounds[2 * j + 1])

    def peripheral_nodes(self, j) -> range:
        return range(self._bounds[2 * j + 1], self._bounds[2 * j + 2])

    def peripheral_nodes_all(self):
        return [n for j in range(self.r) for n in self.peripheral_nodes(j)]

    def _twin(self, n) -> int:
        if not self.is_peripheral(n):
            raise WrongClassError(f"node {n} is central")
        return int(self.group[n]) - self.r

    def peripheral_neighbors(self, n):
        """Peripheral neighbours of peripheral node n, ascending."""
        linked = np.zeros(len(self.firsts), dtype=bool)
        linked[[self.r + d for d in self.twin_links[self._twin(n)]]] = True
        near = np.flatnonzero(linked[self.group])
        return near[near != n].tolist()

    @property
    def peripheral_edges(self):
        """Every adjacent peripheral pair (a, b), a < b, ascending; the
        intra-block cliques included. Expanded from the twin quotient."""
        return tuple((a, b) for a in self.peripheral_nodes_all()
                     for b in self.peripheral_neighbors(a) if a < b)

    def block_size(self, j) -> int:
        nc, npp = self.block_sizes[j]
        return nc + npp

    def cross_counts(self, n):
        """Per-block peripheral neighbor counts of peripheral node n, own
        block counted with self (so entry j equals N_j^p)."""
        return self._cross[self._twin(n)]

    def degree(self, n) -> int:
        """Graph degree: block clique plus cross-block peripheral links."""
        j = self.block_of(n)
        if not self.is_peripheral(n):
            return self.block_size(j) - 1
        cross = sum(
            c for i, c in enumerate(self.cross_counts(n)) if i != j
        )
        return self.block_size(j) - 1 + cross

    def __eq__(self, other):
        return (
            isinstance(other, BlockGraph)
            and self.block_sizes == other.block_sizes
            and self.twin_links == other.twin_links
            and np.array_equal(self.group, other.group)
        )

    def __hash__(self):
        return hash((self.block_sizes, self.firsts, self.twin_links))

    def __repr__(self):
        return (
            f"BlockGraph(r={self.r}, sizes={list(self.block_sizes)}, "
            f"twin_classes={len(self.twin_links)})"
        )

    # --- serialization ------------------------------------------------

    def to_json_obj(self):
        return {
            "blocks": [
                {"central": nc, "peripheral": npp}
                for nc, npp in self.block_sizes
            ],
            "peripheral_edges": [[a, b] for a, b in self.peripheral_edges],
        }

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict):
            raise InvalidConfigurationError("graph object must be a JSON dict")
        unknown = set(obj) - {"blocks", "peripheral_edges"}
        if unknown:
            raise InvalidConfigurationError(
                f"unknown graph fields: {_quoted(sorted(unknown))}"
            )
        try:
            blocks = [(b["central"], b["peripheral"]) for b in obj["blocks"]]
        except (KeyError, TypeError) as exc:
            raise InvalidConfigurationError(f"malformed blocks field: {exc}")
        return cls(blocks, obj.get("peripheral_edges", []))


def build_complete_peripheral(block_sizes) -> BlockGraph:
    """All pairs of peripheral nodes (any blocks) adjacent: one twin class
    per block, each linked to all."""
    graph = BlockGraph.__new__(BlockGraph)
    graph._layout(block_sizes)
    perips = sum(npp for _, npp in graph.block_sizes)
    graph._quotient(np.zeros(perips, dtype=np.int64), lambda m, n: True)
    return graph


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def build_regular_peripheral(block_sizes, cross_degree_fractions) -> BlockGraph:
    """Regular cross-block design: every peripheral of block j links to the
    same number M_i = round(f_ji * N_i^p) of peripherals in each foreign
    block i. Fractions: scalar in (0,1] applied to every ordered pair, or an
    r x r symmetric matrix (diagonal ignored).

    Feasibility needs N_j^p * M_i == N_i^p * M_j for every pair (the two
    sides count the same bipartite edge set); violations raise. Realized
    counts end up in graph.cross_degree_matrix.
    """
    graph = BlockGraph.__new__(BlockGraph)
    graph._layout(block_sizes)
    sizes, r = graph.block_sizes, graph.r
    f = _reals(cross_degree_fractions, "cross_degree_fractions")
    if f.ndim == 0:
        f = np.full((r, r), f)
    if f.shape != (r, r):
        raise InvalidConfigurationError(
            f"cross_degree_fractions must be scalar or {r}x{r}"
        )
    for j in range(r):
        for i in range(j + 1, r):
            if abs(f[j, i] - f[i, j]) > 1e-12:
                raise InvalidConfigurationError(
                    f"fractions not symmetric at ({j},{i})"
                )
            if not (0.0 < f[j, i] <= 1.0):
                raise InvalidConfigurationError(
                    f"fraction for pair ({j},{i}) must be in (0,1], "
                    f"got {f[j, i]}"
                )

    # consecutive-runs biregular bipartite construction: row a of block j
    # takes columns (a*mu .. a*mu+mu-1) mod v of block i; columns receive
    # u*mu/v = mv each since the run ends tile 0..u*mu-1.
    runs = {}  # (j, i), j < i -> (mu, v, gcd(mu, v))
    for j in range(r):
        for i in range(j + 1, r):
            u, v = sizes[j][1], sizes[i][1]
            mu = _round_half_up(f[j, i] * v)  # block-j node's degree into i
            mv = _round_half_up(f[i, j] * u)
            if mu < 1 or mv < 1:
                raise InvalidConfigurationError(
                    f"blocks ({j},{i}): rounded cross degree is 0; "
                    "fraction too small for the block size"
                )
            if u * mu != v * mv:
                raise InvalidConfigurationError(
                    f"blocks ({j},{i}): degrees ({mu},{mv}) infeasible: "
                    f"{u}*{mu} != {v}*{mv}"
                )
            runs[j, i] = (mu, v, math.gcd(mu, v))

    # A row's run starts at a*mu % v. Runs start and end on multiples of
    # g = gcd(mu, v), so a column's rows are fixed by its g-aligned chunk
    # b // g. Peripherals with equal keys over all pairs are twins;
    # distinct keys see distinct sets unless mu == v.
    labels = []
    for j in range(r):
        a = np.arange(sizes[j][1], dtype=np.int64)
        keys = [a * mu % v if j == lo else a // g
                for (lo, hi), (mu, v, g) in runs.items()
                if j in (lo, hi) and mu < v] or [0 * a]  # keyless: 1 class
        _, first, label = np.unique(np.stack(keys, axis=1), axis=0,
                                    return_index=True, return_inverse=True)
        # renumber the classes in order of their first node
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        labels.append(rank[label.reshape(-1)])

    def local(n):
        j = graph.block_of(n)
        return j, n - graph.peripheral_nodes(j).start

    def adjacent(m, n):
        (j, a), (i, b) = sorted((local(m), local(n)))
        if j == i:
            return True
        mu, v, _ = runs[j, i]
        return (b - a * mu) % v < mu

    graph._quotient(np.concatenate(labels), adjacent)
    return graph


def neighborhood_proportions(graph: BlockGraph, node: int) -> np.ndarray:
    """Weight of each node group in a peripheral node's neighborhood
    (self included): [central share, block-1 peripheral share, ...,
    block-r peripheral share]. Sums to 1 exactly: the last entry is
    computed as one minus the rest.
    """
    if not graph.is_peripheral(node):
        raise WrongClassError(
            f"node {node} is central; proportions are a peripheral-node notion"
        )
    j = graph.block_of(node)
    counts = graph.cross_counts(node)
    denom = graph.degree(node) + 1
    out = np.empty(graph.r + 1)
    out[0] = graph.block_sizes[j][0] / denom
    for i in range(graph.r - 1):
        out[1 + i] = counts[i] / denom
    out[graph.r] = 1.0 - out[: graph.r].sum()
    return out


@dataclass(frozen=True)
class ProportionTargets:
    """Limiting proportions the finite graphs are tending to.

    p_c[j]: central fraction of block j; alpha_c[j] and q[j][i]: weight of
    own-block centrals resp. block-i peripherals in a block-j peripheral
    node's neighborhood; alpha[j]: block j's share of all nodes.
    """

    p_c: tuple
    alpha_c: tuple
    q: tuple  # r rows of r entries
    alpha: tuple

    def __post_init__(self):
        vectors = {name: _reals(getattr(self, name), name)
                   for name in ("p_c", "alpha_c", "alpha")}
        q = _reals(self.q, "q")
        r = vectors["p_c"].size
        if any(v.shape != (r,) for v in vectors.values()):
            raise InvalidArgumentError("target arrays disagree on block count")
        if q.shape != (r, r):
            raise InvalidArgumentError("q must be r x r")
        for name, v in vectors.items():
            object.__setattr__(self, name, tuple(v.tolist()))
        object.__setattr__(self, "q", tuple(map(tuple, q.tolist())))
        for j in range(r):
            if not (0.0 < self.p_c[j] < 1.0):
                raise InvalidArgumentError(
                    f"p_c[{j}]={self.p_c[j]} outside (0,1)"
                )
            if not (0.0 < self.alpha_c[j] < 1.0):
                raise InvalidArgumentError(
                    f"alpha_c[{j}]={self.alpha_c[j]} outside (0,1)"
                )
            if any(not (0.0 < x < 1.0) for x in self.q[j]):
                raise InvalidArgumentError(f"q[{j}] entries must be in (0,1)")
            if not (0.0 < self.alpha[j] <= 1.0):
                raise InvalidArgumentError(
                    f"alpha[{j}]={self.alpha[j]} outside (0,1]"
                )
            s = self.alpha_c[j] + sum(self.q[j])
            if abs(s - 1.0) > 1e-9:
                raise InvalidArgumentError(
                    f"alpha_c[{j}] + sum(q[{j}]) = {s}, expected 1"
                )
        if abs(sum(self.alpha) - 1.0) > 1e-9:
            raise InvalidArgumentError("alpha must sum to 1")

    @property
    def r(self) -> int:
        return len(self.p_c)

    @property
    def p_p(self) -> tuple:
        return tuple(1.0 - x for x in self.p_c)

    @classmethod
    def from_graph(cls, graph: BlockGraph) -> "ProportionTargets":
        """Exact finite-N ratios of a regular-design graph."""
        if graph.cross_degree_matrix is None:
            raise InvalidConfigurationError(
                "graph is not a regular design; per-node proportions differ"
            )
        p_c, alpha_c, q, alpha = [], [], [], []
        n_tot = graph.n_total
        for j in range(graph.r):
            nc, npp = graph.block_sizes[j]
            counts = graph.cross_degree_matrix[j]
            denom = nc + sum(counts)  # deg+1 of a block-j peripheral
            p_c.append(nc / (nc + npp))
            alpha_c.append(nc / denom)
            q.append(tuple(c / denom for c in counts))
            alpha.append((nc + npp) / n_tot)
        return cls(tuple(p_c), tuple(alpha_c), tuple(q), tuple(alpha))

    def to_json_obj(self):
        return {
            "p_c": list(self.p_c),
            "alpha_c": list(self.alpha_c),
            "q": [list(row) for row in self.q],
            "alpha": list(self.alpha),
        }

    @classmethod
    def from_json_obj(cls, obj):
        unknown = set(obj) - {"p_c", "alpha_c", "q", "alpha"}
        if unknown:
            raise InvalidArgumentError(
                f"unknown target fields: {sorted(unknown)}"
            )
        try:
            return cls(obj["p_c"], obj["alpha_c"], obj["q"], obj["alpha"])
        except KeyError as exc:
            raise InvalidArgumentError(f"targets missing field {exc}")


@dataclass(frozen=True)
class RegularityReport:
    """Max deviations of finite-N neighborhood ratios from the targets."""

    q_resid: float        # |M_i^n/(deg+1) - q_ji| incl. own block
    alpha_c_resid: float  # |N_j^c/(deg+1) - alpha_c_j|
    p_c_resid: float      # |N_j^c/N_j - p_c_j|
    block_share_resid: float  # |N_j/N - alpha_j|

    @property
    def max_resid(self) -> float:
        return max(
            self.q_resid, self.alpha_c_resid, self.p_c_resid,
            self.block_share_resid,
        )


def check_regularity(graph: BlockGraph, targets: ProportionTargets):
    if targets.r != graph.r:
        raise InvalidArgumentError(
            f"targets have r={targets.r}, graph has r={graph.r}"
        )
    q_res = alpha_c_res = p_res = share_res = 0.0
    for j in range(graph.r):
        nc, npp = graph.block_sizes[j]
        p_res = max(p_res, abs(nc / (nc + npp) - targets.p_c[j]))
        share_res = max(
            share_res, abs((nc + npp) / graph.n_total - targets.alpha[j])
        )
        # twins share their ratios, so a class's first node stands for it
        for n in (n for n in graph.firsts[graph.r:]
                  if graph.block_of(n) == j):
            denom = graph.degree(n) + 1
            alpha_c_res = max(alpha_c_res, abs(nc / denom - targets.alpha_c[j]))
            counts = graph.cross_counts(n)
            for i in range(graph.r):
                q_res = max(q_res, abs(counts[i] / denom - targets.q[j][i]))
    return RegularityReport(q_res, alpha_c_res, p_res, share_res)
