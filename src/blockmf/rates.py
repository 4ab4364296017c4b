"""Color space, rate tables, and transition-rate evaluation.

Colors are 0..K-1 with a directed edge set E of allowed transitions.
A node's jump rate along an edge is affine in the empirical measures of
the groups it sees:

    central:    a1 * <gamma_c[e], nu> + a2 * <gamma_p[e], mu>
    peripheral: a  * <gamma_c[e], nu> + sum_i b_i * <gamma_p[e], mu_i>

with the group weights a*, b* summing to one. On top of the affine core
a RateSpec may carry a state-only additive term beta[e] (curing/service
rates, and negative offsets for clipped queue arrivals); the dynamics
use total = max(0, affine + beta).

A single RateSpec is one (gamma_c, gamma_p, beta) triple. Models whose
central and peripheral nodes (or different blocks) follow different
tables use a BlockRates family: one RateSpec per (block, class).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnknownEdgeError

__all__ = [
    "ColorGraph",
    "RateSpec",
    "BlockRates",
    "as_block_rates",
    "lambda_c",
    "lambda_p",
    "total_rate",
    "sis_spec",
    "queue_spec",
    "validate_measure",
    "validate_probability",
]


def validate_measure(x, K=None):
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"measure must be numbers, got {x!r}")
    if arr.ndim != 1 or (K is not None and arr.shape[0] != K):
        raise InvalidArgumentError(
            f"measure must be a length-{K} vector, got shape {arr.shape}"
        )
    if not (np.isfinite(arr).all() and (arr >= 0).all()):
        raise InvalidArgumentError("measure entries must be finite and >= 0")
    return arr


def validate_probability(x, K=None, tol=1e-9):
    arr = validate_measure(x, K)
    s = float(arr.sum())
    if abs(s - 1.0) > tol:
        raise InvalidArgumentError(f"probability vector sums to {s!r}, not 1")
    return arr


@dataclass(frozen=True)
class ColorGraph:
    """Directed graph of allowed color transitions, colors 0..K-1. Besides
    the canonical edge tuple it carries read-only int64 arrays `src` and
    `dst` of the edge endpoints, in the same order."""

    K: int
    edges: tuple

    def __post_init__(self):
        K = int(self.K)
        if K < 1:
            raise InvalidArgumentError("need K >= 1 colors")
        seen = set()
        canon = []
        for e in self.edges:
            z, zp = int(e[0]), int(e[1])
            if z == zp:
                raise InvalidArgumentError(f"self-loop edge ({z},{zp})")
            if not (0 <= z < K and 0 <= zp < K):
                raise InvalidArgumentError(f"edge ({z},{zp}) outside 0..{K-1}")
            if (z, zp) in seen:
                raise InvalidArgumentError(f"duplicate edge ({z},{zp})")
            seen.add((z, zp))
            canon.append((z, zp))
        canon.sort()
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(
            self,
            "_out",
            tuple(
                tuple(i for i, (a, _) in enumerate(canon) if a == z)
                for z in range(K)
            ),
        )
        ends = np.array(canon, dtype=np.int64).reshape(-1, 2).T.copy()
        ends.setflags(write=False)
        object.__setattr__(self, "src", ends[0])
        object.__setattr__(self, "dst", ends[1])

    @property
    def n_edges(self):
        return len(self.edges)

    def edge_index(self, z, zp) -> int:
        try:
            return self.edges.index((int(z), int(zp)))
        except ValueError:
            raise UnknownEdgeError(f"({z},{zp}) not an allowed transition")

    def out_edges(self, z):
        """Indices into self.edges of transitions leaving color z."""
        return self._out[z]

    def edge_cells(self, n_groups: int):
        """(src, dst): for each (group, edge) pair, group-major, the flat
        (group, color) cells g*K + z of the edge's source and target
        colors in group g."""
        base = np.repeat(np.arange(n_groups) * self.K, self.n_edges)
        return (base + np.tile(self.src, n_groups),
                base + np.tile(self.dst, n_groups))


@dataclass(frozen=True)
class RateSpec:
    """Rate tables over one ColorGraph.

    gamma_c / gamma_p: per edge (canonical edge order), a length-K vector
    of nonnegative integrand values. beta: per edge scalar (may be
    negative; the evaluated total rate is clamped at zero).
    """

    colors: ColorGraph
    gamma_c: tuple
    gamma_p: tuple
    beta: tuple = None

    def __post_init__(self):
        ne, K = self.colors.n_edges, self.colors.K

        def canon_table(tab, name):
            arr = np.asarray(tab, dtype=float)
            if arr.shape != (ne, K):
                raise InvalidArgumentError(
                    f"{name} must be ({ne},{K}) — one length-{K} row per edge"
                )
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise InvalidArgumentError(f"{name} entries must be >= 0")
            return tuple(tuple(row) for row in arr)

        object.__setattr__(self, "gamma_c", canon_table(self.gamma_c, "gamma_c"))
        object.__setattr__(self, "gamma_p", canon_table(self.gamma_p, "gamma_p"))
        if self.beta is None:
            object.__setattr__(self, "beta", tuple(0.0 for _ in range(ne)))
        else:
            b = np.asarray(self.beta, dtype=float)
            if b.shape != (ne,):
                raise InvalidArgumentError(f"beta must be length {ne}")
            if not np.all(np.isfinite(b)):
                raise InvalidArgumentError("beta entries must be finite")
            object.__setattr__(self, "beta", tuple(float(x) for x in b))

    @property
    def gamma_bar(self) -> float:
        """Recorded bound on the affine part for probability inputs."""
        flat = [x for row in self.gamma_c for x in row]
        flat += [x for row in self.gamma_p for x in row]
        return max(flat) if flat else 0.0

    @property
    def gamma_span(self) -> float:
        """Largest within-edge integrand spread; Lipschitz diagnostic."""
        spans = [max(r) - min(r) for r in self.gamma_c]
        spans += [max(r) - min(r) for r in self.gamma_p]
        return max(spans) if spans else 0.0

    def rate_bound(self, edge_idx: int) -> float:
        """Upper bound of the total rate on this edge over probability
        measure inputs and convex group weights."""
        b = max(max(self.gamma_c[edge_idx]), max(self.gamma_p[edge_idx]))
        return b + max(self.beta[edge_idx], 0.0)

    # --- serialization --------------------------------------------------

    def to_json_obj(self):
        ek = [f"{z},{zp}" for z, zp in self.colors.edges]
        obj = {
            "colors": self.colors.K,
            "edges": [[z, zp] for z, zp in self.colors.edges],
            "gamma_c": {k: list(row) for k, row in zip(ek, self.gamma_c)},
            "gamma_p": {k: list(row) for k, row in zip(ek, self.gamma_p)},
        }
        if any(b != 0.0 for b in self.beta):
            obj["beta"] = {
                k: b for k, b in zip(ek, self.beta) if b != 0.0
            }
        return obj

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict):
            raise InvalidArgumentError("rate spec must be a JSON dict")
        unknown = set(obj) - {"colors", "edges", "gamma_c", "gamma_p", "beta",
                              "base"}
        if unknown:
            raise InvalidArgumentError(
                f"unknown rate spec fields: {sorted(unknown)}"
            )
        base = int(obj.get("base", 0))
        if base not in (0, 1):
            raise InvalidArgumentError("base must be 0 or 1")
        try:
            K = int(obj["colors"])
            edges = [(int(a) - base, int(b) - base) for a, b in obj["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"malformed colors/edges: {exc}")
        cg = ColorGraph(K, edges)

        def read_table(name, required=True):
            tab = obj.get(name)
            if tab is None:
                if required:
                    raise InvalidArgumentError(f"missing table {name}")
                return None
            rows = []
            for z, zp in cg.edges:
                key = f"{z + base},{zp + base}"
                if key not in tab:
                    raise InvalidArgumentError(
                        f"{name} missing entry for edge {key}"
                    )
                rows.append(tab[key])
            extra = set(tab) - {f"{z + base},{zp + base}" for z, zp in cg.edges}
            if extra:
                raise InvalidArgumentError(
                    f"{name} has entries for unknown edges: {sorted(extra)}"
                )
            return rows

        gc = read_table("gamma_c")
        gp = read_table("gamma_p")
        beta = None
        if "beta" in obj:
            bt = obj["beta"]
            beta = []
            for z, zp in cg.edges:
                beta.append(float(bt.get(f"{z + base},{zp + base}", 0.0)))
            extra = set(bt) - {f"{z + base},{zp + base}" for z, zp in cg.edges}
            if extra:
                raise InvalidArgumentError(
                    f"beta has entries for unknown edges: {sorted(extra)}"
                )
        return cls(cg, gc, gp, beta)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_obj(json.loads(text))


@dataclass(frozen=True)
class BlockRates:
    """One RateSpec per (block, class). All share one ColorGraph."""

    central: tuple
    peripheral: tuple

    def __post_init__(self):
        object.__setattr__(self, "central", tuple(self.central))
        object.__setattr__(self, "peripheral", tuple(self.peripheral))
        if len(self.central) != len(self.peripheral) or not self.central:
            raise InvalidArgumentError(
                "need equally many central and peripheral specs, >= 1 blocks"
            )
        cg = self.central[0].colors
        for s in (*self.central, *self.peripheral):
            if s.colors != cg:
                raise InvalidArgumentError(
                    "all specs in a family must share the color graph"
                )

    @property
    def r(self):
        return len(self.central)

    @property
    def colors(self) -> ColorGraph:
        return self.central[0].colors

    @property
    def gamma_bar(self) -> float:
        return max(
            s.gamma_bar for s in (*self.central, *self.peripheral)
        )

    def spec_for(self, j: int, cls: int) -> RateSpec:
        return self.central[j] if cls == 0 else self.peripheral[j]

    @classmethod
    def uniform(cls, spec: RateSpec, r: int) -> "BlockRates":
        return cls((spec,) * r, (spec,) * r)


def as_block_rates(spec, r: int) -> BlockRates:
    """Accept a bare RateSpec (uniform) or a BlockRates of matching r."""
    if isinstance(spec, RateSpec):
        return BlockRates.uniform(spec, r)
    if isinstance(spec, BlockRates):
        if spec.r != r:
            raise InvalidArgumentError(
                f"rate family has r={spec.r}, graph/targets have r={r}"
            )
        return spec
    raise InvalidArgumentError(f"not a rate spec: {type(spec).__name__}")


def affine_rows(family: BlockRates, readers):
    """Compile the affine rate map of a list of readers.

    readers: iterable of ((block, cls), {read_group: (weight, read_cls)}).
    A read group is read through gamma_c when read_cls is 0 (central) and
    through gamma_p when it is 1 (peripheral); weight multiplies whatever
    vector the caller stores at that group (counts or measures). With E
    edges and reader i's edge e on row i*E + e, returns the nonzeros
    (row, col, weight) in row-major order, columns ascending within a
    row: an entry per nonzero table value table[e][x] of a read group,
    at column read_group * K + x with weight * table[e][x]. beta, shape
    (readers, E), holds each reader's per-edge state-only term.
    """
    K, E = family.colors.K, family.colors.n_edges
    # one entry per (reader, read group) pair
    owner, reader, read, scale, read_cls = [], [], [], [], []
    for i, ((j, cls), reads) in enumerate(readers):
        owner.append(2 * j + cls)
        reader += [i] * len(reads)
        read += reads
        for w, c in reads.values():
            scale.append(w)
            read_cls.append(c)
    reader = np.array(reader, dtype=np.int64)
    read = np.array(read, dtype=np.int64)
    scale = np.array(scale, dtype=float)
    specs = [family.spec_for(j, cls)
             for j in range(family.r) for cls in (0, 1)]
    # table t = 2 * (2*block + cls) + read_cls; pair k reads table uses[k]
    tables = np.array([(s.gamma_c, s.gamma_p) for s in specs], dtype=float)
    uses = 2 * np.array(owner, dtype=np.int64)[reader] + read_cls
    parts = []
    for t, tab in enumerate(tables.reshape(len(specs) * 2, E, K)):
        e, x = np.nonzero(tab)
        use = np.flatnonzero(uses == t)
        parts.append(((reader[use, None] * E + e).ravel(),
                      (read[use, None] * K + x).ravel(),
                      (scale[use, None] * tab[e, x]).ravel()))
    row, col, weight = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((col, row))
    beta = np.array([specs[g].beta for g in owner], dtype=float)
    return row[order], col[order], weight[order], beta.reshape(len(owner), E)


def _affine_rate(spec: RateSpec, edge_idx: int, w0, nu, ws, mus):
    # np.vecdot gives each row of a stack exactly what np.dot gives it
    acc = w0 * np.vecdot(nu, spec.gamma_c[edge_idx])
    gp = spec.gamma_p[edge_idx]
    for w, mu in zip(ws, mus):
        if w != 0.0:
            acc += w * np.vecdot(mu, gp)
    return acc


def total_rate(spec: RateSpec, edge_idx: int, w0, nu, ws, mus):
    """Affine rate plus the state-only term, clamped at zero. This is the
    quantity the dynamics (simulator, generators, cost functionals) use.

    The measures nu and mus[i] may carry leading stack axes, one state per
    row, each row taking the arithmetic of a single call: the rates then
    come back as an array of the stack's shape, else as a float."""
    v = _affine_rate(spec, edge_idx, w0, nu, ws, mus) + spec.beta[edge_idx]
    v = np.where(v > 0.0, v, 0.0)
    return float(v) if v.ndim == 0 else v


def _check_weights(ws, what):
    ws = [float(w) for w in ws]
    for w in ws:
        if not (0.0 < w < 1.0):
            raise InvalidArgumentError(
                f"{what} must all be in (0,1), got {ws}"
            )
    if abs(sum(ws) - 1.0) > 1e-9:
        raise InvalidArgumentError(f"{what} must sum to 1, got {sum(ws)!r}")
    return ws


def lambda_c(spec: RateSpec, nu, mu, a1, a2, edge) -> float:
    """Central-node transition rate along `edge` (affine part only):
    a1 * <gamma_c, nu> + a2 * <gamma_p, mu>."""
    a1, a2 = _check_weights((a1, a2), "central proportions (a1,a2)")
    K = spec.colors.K
    nu = validate_probability(nu, K)
    mu = validate_probability(mu, K)
    idx = spec.colors.edge_index(*edge)
    return float(_affine_rate(spec, idx, a1, nu, (a2,), (mu,)))


def lambda_p(spec: RateSpec, nu, mus, a, b, edge) -> float:
    """Peripheral-node transition rate along `edge` (affine part only):
    a * <gamma_c, nu> + sum_i b[i] * <gamma_p, mus[i]>."""
    b = list(b)
    ws = _check_weights((a, *b), "peripheral proportions (a, b_1..b_r)")
    K = spec.colors.K
    nu = validate_probability(nu, K)
    mus = [validate_probability(m, K) for m in mus]
    if len(mus) != len(b):
        raise InvalidArgumentError(
            f"got {len(mus)} measures for {len(b)} proportions"
        )
    idx = spec.colors.edge_index(*edge)
    return float(_affine_rate(spec, idx, ws[0], nu, ws[1:], mus))


def sis_spec(r, gamma, nu, eta, zeta) -> BlockRates:
    """Susceptible/infected two-color model, normalized interaction rates.

    Per block j: a central node gets infected at rate
    p_c*gamma[j]*mu_c(1) + p_p*nu[j]*mu_p(1); a peripheral node at
    a*nu[j]*mu_c(1) + sum_i b_i*eta*mu_i^p(1); both cure at rate zeta[j].
    """

    def per_block(x, name):
        try:
            return [float(v) for v in np.broadcast_to(x, (r,))]
        except ValueError:
            raise InvalidArgumentError(
                f"{name} must be scalar or length {r}"
            )

    gamma = per_block(gamma, "gamma")
    nu = per_block(nu, "nu")
    zeta = per_block(zeta, "zeta")
    eta = float(eta)
    if min(*gamma, *nu, *zeta, eta) < 0:
        raise InvalidArgumentError("SIS parameters must be >= 0")
    cg = ColorGraph(2, [(0, 1), (1, 0)])
    zero = (0.0, 0.0)

    def make(gc_up, gp_up, z):
        # edges in canonical order: (0,1) then (1,0)
        return RateSpec(
            cg,
            gamma_c=((0.0, gc_up), zero),
            gamma_p=((0.0, gp_up), zero),
            beta=(0.0, z),
        )

    central = tuple(make(gamma[j], nu[j], zeta[j]) for j in range(r))
    peripheral = tuple(make(nu[j], eta, zeta[j]) for j in range(r))
    return BlockRates(central, peripheral)


def queue_spec(K, zeta, vartheta, h_coefficient) -> RateSpec:
    """Birth-death queue on 0..K-1 with capacity K-1.

    Arrivals at color z run at max(0, zeta[z] - c0*(z - m)) where m is the
    mean of the node's local color measure; service runs at vartheta[z],
    state-only. The interaction enters through the linear table c0*x plus
    a beta offset zeta[z] - c0*z, clamped at zero by the evaluator.

    Returned as a bare RateSpec = family uniform over blocks and classes
    (`as_block_rates` expands it for any r).
    """
    K = int(K)
    if K < 2:
        raise InvalidArgumentError("queue needs K >= 2 colors")
    try:
        zeta = [float(x) for x in np.broadcast_to(zeta, (K,))]
        vartheta = [float(x) for x in np.broadcast_to(vartheta, (K,))]
    except ValueError:
        raise InvalidArgumentError("zeta/vartheta must be scalar or length K")
    c0 = float(h_coefficient)
    if min(zeta) < 0 or min(vartheta) < 0 or c0 < 0:
        raise InvalidArgumentError("queue parameters must be >= 0")
    edges = [(z, z + 1) for z in range(K - 1)]
    edges += [(z, z - 1) for z in range(1, K)]
    cg = ColorGraph(K, edges)
    interact = tuple(c0 * x for x in range(K))
    zero = (0.0,) * K
    gamma_c, gamma_p, beta = [], [], []
    for z, zp in cg.edges:
        if zp == z + 1:
            gamma_c.append(interact)
            gamma_p.append(interact)
            beta.append(zeta[z] - c0 * z)
        else:
            gamma_c.append(zero)
            gamma_p.append(zero)
            beta.append(vartheta[z])
    return RateSpec(cg, tuple(gamma_c), tuple(gamma_p), tuple(beta))
