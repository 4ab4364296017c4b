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

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnknownEdgeError

__all__ = [
    "ColorGraph",
    "RateSpec",
    "BlockRates",
    "as_block_rates",
    "total_rate",
    "sis_spec",
    "queue_spec",
    "validate_probability",
    "initial_laws",
]


def validate_probability(x, K=None):
    arr = _reals(x, "measure")
    if arr.ndim != 1 or (K is not None and arr.shape[0] != K):
        want = "1-d" if K is None else f"length-{K}"
        raise InvalidArgumentError(
            f"measure must be a {want} vector, got shape {arr.shape}"
        )
    if not (np.isfinite(arr).all() and (arr >= 0).all()):
        raise InvalidArgumentError("measure entries must be finite and >= 0")
    s = float(arr.sum())
    if abs(s - 1.0) > 1e-9:
        raise InvalidArgumentError(f"probability vector sums to {s!r}, not 1")
    return arr


def initial_laws(inits, r: int, K=None) -> np.ndarray:
    """The initial laws inits[2*block + class] of an r-block model as a
    (2r, K) array, each checked to be a distribution on K colours (by
    default inits[0]'s)."""
    if len(inits) != 2 * r:
        raise InvalidArgumentError(f"need 2r={2 * r} initial measures")
    K = validate_probability(inits[0]).size if K is None else K
    return np.array([validate_probability(m, K) for m in inits])


def _check_horizon(T) -> float:
    """T as a float; raise unless it is one number, finite and >= 0: a
    run to a nan or infinite horizon would never stop, or stop at once."""
    T = _real(T, "T")
    if not 0 <= T < math.inf:
        raise InvalidArgumentError(f"T must be finite and >= 0, got {T}")
    return T


class _Short(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            return f"<int of {x.bit_length()} bits>"


_SHORT = _Short()
_SHORT.maxstring = _SHORT.maxlong = _SHORT.maxother = 80
_QUOTE_HALF = 60


def _quoted(value) -> str:
    """The repr of a refused value from outside, long ones cut in the
    middle (strings, ints and other objects to 80 characters, lists to
    their first items, and the whole to 123), so an error stays one
    short line."""
    text = _SHORT.repr(value)
    if len(text) > 2 * _QUOTE_HALF + 3:
        text = f"{text[:_QUOTE_HALF]}...{text[-_QUOTE_HALF:]}"
    return text


# every number the package is given is read by `_integer`, `_real` or
# `_reals`; none of them converts a string or a bool
def _is_integer(value) -> bool:
    """Whether value is an int (a numpy one too) and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, what) -> int:
    """value as an int; bools, floats, strings and the rest raise
    InvalidArgumentError instead of being truncated."""
    if not _is_integer(value):
        raise InvalidArgumentError(
            f"{what} must be an integer, got {_quoted(value)}")
    return int(value)


# most 8-byte entries numpy can hold in one array (bytes fit in intp)
_MAX_ENTRIES = np.iinfo(np.intp).max // 8


def _check_entries(n, what):
    """Raise InvalidArgumentError unless numpy can shape an array of n
    8-byte entries; past that it raises a bare ValueError or IndexError.
    A count that sizes arrays is checked at the first and largest of
    them; a smaller one still too large to allocate is a MemoryError."""
    if not n <= _MAX_ENTRIES:
        raise InvalidArgumentError(
            f"{what}: an array of {_quoted(n)} entries; numpy holds at "
            f"most {_MAX_ENTRIES} in one array")


def _is_real(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _real(value, what) -> float:
    """value, exactly one number, as a float; anything else, or an int
    beyond float range, raises InvalidArgumentError."""
    try:
        if _is_real(value):
            return float(value)
    except OverflowError:
        pass
    raise InvalidArgumentError(
        f"{what} must be a number, got {_quoted(value)}")


def _reals(value, what) -> np.ndarray:
    """value, a number or a rectangular nesting of lists of numbers, as a
    float array. Strings, bools (also inside a list), ragged lists and
    other objects raise InvalidArgumentError instead of being converted;
    a numeric numpy array passes as it is."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return np.asarray(value, dtype=float)
    try:
        arr = np.array(value, dtype=object)
        if all(map(_is_real, arr.flat)):
            return arr.astype(float)
    except (ValueError, OverflowError):  # ragged; an int beyond float
        pass
    raise InvalidArgumentError(
        f"{what} must be numbers, got {_quoted(value)}")


@dataclass(frozen=True)
class ColorGraph:
    """Directed graph of allowed color transitions, colors 0..K-1. Besides
    the canonical (sorted) edge tuple it carries read-only int64 arrays
    `src` and `dst` of the edge endpoints, in the same order. A bad edge
    list raises InvalidArgumentError naming its first faulty edge."""

    K: int
    edges: tuple

    def __post_init__(self):
        K = _integer(self.K, "K")
        if K < 1:
            raise InvalidArgumentError("need K >= 1 colors")
        seen = set()
        for e in self.edges:
            z = _integer(e[0], "edge endpoint")
            zp = _integer(e[1], "edge endpoint")
            if z == zp:
                raise InvalidArgumentError(
                    f"self-loop edge ({_quoted(z)},{_quoted(zp)})")
            if not (0 <= z < K and 0 <= zp < K):
                raise InvalidArgumentError(
                    f"edge ({_quoted(z)},{_quoted(zp)}) outside "
                    f"0..{_quoted(K - 1)}")
            if (z, zp) in seen:
                raise InvalidArgumentError(
                    f"duplicate edge ({_quoted(z)},{_quoted(zp)})")
            seen.add((z, zp))
        edges = tuple(sorted(seen))
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "edges", edges)
        src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T.copy()
        # colour z's out-edges are the canonical edges first[z]..first[z+1]
        object.__setattr__(self, "_first",
                           np.searchsorted(src, np.arange(K + 1)).tolist())
        src.setflags(write=False)
        dst.setflags(write=False)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)

    @property
    def n_edges(self):
        return len(self.edges)

    def edge_index(self, z, zp) -> int:
        z, zp = _integer(z, "edge endpoint"), _integer(zp, "edge endpoint")
        try:
            return self.edges.index((z, zp))
        except ValueError:
            raise UnknownEdgeError(f"({z},{zp}) not an allowed transition")

    def out_edges(self, z):
        """Indices into self.edges of transitions leaving color z."""
        return tuple(range(self._first[z], self._first[z + 1]))

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
            arr = _reals(tab, name)
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
            b = _reals(self.beta, "beta")
            if b.shape != (ne,):
                raise InvalidArgumentError(f"beta must be length {ne}")
            if not np.all(np.isfinite(b)):
                raise InvalidArgumentError("beta entries must be finite")
            object.__setattr__(self, "beta", tuple(float(x) for x in b))

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
        unknown = set(obj) - {"colors", "edges", "gamma_c", "gamma_p", "beta"}
        if unknown:
            raise InvalidArgumentError(
                f"unknown rate spec fields: {sorted(unknown)}"
            )
        try:
            K = obj["colors"]
            pairs = [(a, b) for a, b in obj["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"malformed colors/edges: {exc}")
        cg = ColorGraph(_integer(K, "colors"),
                        [(_integer(a, "edges endpoint"),
                          _integer(b, "edges endpoint")) for a, b in pairs])

        keys = [f"{z},{zp}" for z, zp in cg.edges]

        def read_table(name, default=None):
            """One value per edge from an object keyed "z,z'"; an edge
            the object leaves out reads `default`, if one is given."""
            tab = obj.get(name)
            if tab is None and default is None:
                raise InvalidArgumentError(f"missing table {name}")
            if not isinstance(tab, dict):
                raise InvalidArgumentError(
                    f"{name} must be a JSON object keyed by edge \"z,z'\""
                )
            for key in keys:
                if key not in tab and default is None:
                    raise InvalidArgumentError(
                        f"{name} missing entry for edge {key}"
                    )
            extra = set(tab) - set(keys)
            if extra:
                raise InvalidArgumentError(
                    f"{name} has entries for unknown edges: {sorted(extra)}"
                )
            return [tab.get(key, default) for key in keys]

        gc = read_table("gamma_c")
        gp = read_table("gamma_p")
        beta = read_table("beta", 0.0) if "beta" in obj else None
        return cls(cg, gc, gp, beta)


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


def total_rate(spec: RateSpec, edge_idx: int, w0, nu, ws, mus):
    """Affine rate plus the state-only term, clamped at zero, evaluated
    from the definition: w0 * <gamma_c[e], nu> + sum_i ws[i] * <gamma_p[e],
    mus[i]> + beta[e]. The simulator and the mean-field solvers read the
    compiled `affine_rows` instead; this evaluator shares no code with it
    and serves the product-space oracle, the cross-check.

    The measures nu and mus[i] may carry leading stack axes, one state per
    row, each row taking the arithmetic of a single call: the rates then
    come back as an array of the stack's shape, else as a float."""
    # np.vecdot gives each row of a stack exactly what np.dot gives it
    v = w0 * np.vecdot(nu, spec.gamma_c[edge_idx])
    gp = spec.gamma_p[edge_idx]
    for w, mu in zip(ws, mus):
        if w != 0.0:
            v += w * np.vecdot(mu, gp)
    v = v + spec.beta[edge_idx]
    v = np.where(v > 0.0, v, 0.0)
    return float(v) if v.ndim == 0 else v


def sis_spec(r, gamma, nu, eta, zeta) -> BlockRates:
    """Susceptible/infected two-color model, normalized interaction rates.

    Per block j: a central node gets infected at rate
    p_c*gamma[j]*mu_c(1) + p_p*nu[j]*mu_p(1); a peripheral node at
    a*nu[j]*mu_c(1) + sum_i b_i*eta*mu_i^p(1); both cure at rate zeta[j].
    """

    r = _integer(r, "r")
    if r < 1:
        raise InvalidArgumentError(f"r must be >= 1, got {_quoted(r)}")

    def per_block(x, name):
        # read outside the try: a ValidationError is a ValueError
        x = _reals(x, name)
        try:
            return np.broadcast_to(x, (r,)).tolist()
        except ValueError:
            raise InvalidArgumentError(
                f"{name} must be scalar or length {r}"
            )

    gamma = per_block(gamma, "gamma")
    nu = per_block(nu, "nu")
    zeta = per_block(zeta, "zeta")
    eta = _real(eta, "eta")
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
    K = _integer(K, "colors")
    if K < 2:
        raise InvalidArgumentError("queue needs K >= 2 colors")
    zeta, vartheta = _reals(zeta, "zeta"), _reals(vartheta, "vartheta")
    try:
        zeta = np.broadcast_to(zeta, (K,))
        vartheta = np.broadcast_to(vartheta, (K,))
    except ValueError:
        raise InvalidArgumentError("zeta/vartheta must be scalar or length K")
    c0 = _real(h_coefficient, "c0")
    if zeta.min() < 0 or vartheta.min() < 0 or c0 < 0:
        raise InvalidArgumentError("queue parameters must be >= 0")
    # one array, made first: a table too large to hold fails at once
    table = np.zeros((2 * (K - 1), K))
    edges = [(z, z + 1) for z in range(K - 1)]
    edges += [(z, z - 1) for z in range(1, K)]
    cg = ColorGraph(K, edges)
    up = cg.dst > cg.src
    table[up] = c0 * np.arange(K)
    beta = np.where(up, zeta[cg.src] - c0 * cg.src, vartheta[cg.src])
    return RateSpec(cg, table, table, beta)
