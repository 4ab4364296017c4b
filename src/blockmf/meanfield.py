"""The 2rK-dimensional mean-field limit of the particle system.

Components are indexed g = 2*block + class (class 0 central, 1
peripheral). Component g evolves by the forward equation mu' = A*mu
where A's off-diagonal entries are the rates evaluated at the current
measure vector with the limiting neighborhood proportions (targets):

    central j:    p_c[j] * <gamma_c, mu_{j,c}> + p_p[j] * <gamma_p, mu_{j,p}>
    peripheral j: alpha_c[j] * <gamma_c, mu_{j,c}>
                  + sum_i q[j][i] * <gamma_p, mu_{i,p}>

plus the state-only beta term, clamped at zero. The affine rows come
from `rates.affine_rows`, the same builder the particle simulator uses,
with finite-N neighbourhood weights replaced by the limiting shares.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import (
    InvalidArgumentError,
    NonConvergenceError,
    NumericalBlowupError,
)
from .graph import ProportionTargets
from .rates import (
    RateSpec,
    affine_rows,
    as_block_rates,
    total_rate,
    validate_probability,
)
from .tables import read_series, write_series

log = logging.getLogger(__name__)

__all__ = [
    "MeanFieldFlow",
    "ColorPath",
    "generator_c",
    "generator_p",
    "solve_mckean_vlasov",
    "picard_iterate",
    "simulate_limit_particle",
    "flow_rates",
    "flow_drift",
]


def generator_c(spec: RateSpec, mu_c, mu_p, p_c, p_p) -> np.ndarray:
    """K x K generator of a central node given its block's measures;
    includes the state-only rate component. Rows sum to zero."""
    K = spec.colors.K
    mu_c = validate_probability(mu_c, K)
    mu_p = validate_probability(mu_p, K)
    if not (0.0 < p_c < 1.0 and abs(p_c + p_p - 1.0) <= 1e-9):
        raise InvalidArgumentError(f"bad block proportions ({p_c},{p_p})")
    A = np.zeros((K, K))
    for e, (z, zp) in enumerate(spec.colors.edges):
        A[z, zp] = total_rate(spec, e, p_c, mu_c, (p_p,), (mu_p,))
    A[np.arange(K), np.arange(K)] = -A.sum(axis=1)
    return A


def generator_p(spec: RateSpec, mu_c, mus, alpha_c, q_row) -> np.ndarray:
    """K x K generator of a peripheral node given its own-block central
    measure and all blocks' peripheral measures."""
    K = spec.colors.K
    mu_c = validate_probability(mu_c, K)
    mus = [validate_probability(m, K) for m in mus]
    q_row = [float(x) for x in q_row]
    if len(mus) != len(q_row):
        raise InvalidArgumentError(
            f"{len(mus)} measures for {len(q_row)} proportions"
        )
    if abs(alpha_c + sum(q_row) - 1.0) > 1e-9 or alpha_c <= 0:
        raise InvalidArgumentError("peripheral proportions must sum to 1")
    A = np.zeros((K, K))
    for e, (z, zp) in enumerate(spec.colors.edges):
        A[z, zp] = total_rate(spec, e, alpha_c, mu_c, q_row, mus)
    A[np.arange(K), np.arange(K)] = -A.sum(axis=1)
    return A


@dataclass
class MeanFieldFlow:
    """Measure vector on a uniform time grid; values[t, g, z] with
    g = 2*block + class. Raw values may carry O(1e-16) negatives from
    the integrator; accessors clip reads at zero."""

    times: np.ndarray
    values: np.ndarray  # (n_times, 2r, K)
    r: int

    @property
    def K(self) -> int:
        return self.values.shape[2]

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def component(self, j: int, cls: int) -> np.ndarray:
        return np.maximum(self.values[:, 2 * j + cls, :], 0.0)

    def at(self, t: float) -> np.ndarray:
        """Linear interpolation, clipped on read; shape (2r, K)."""
        n = self.times.size - 1
        if not (-1e-12 <= t <= self.T + 1e-12):
            raise InvalidArgumentError(f"t={t} outside [0, {self.T}]")
        x = min(max(t, 0.0), self.T) / self.dt
        i = min(int(x), n - 1)
        w = x - i
        out = (1.0 - w) * self.values[i] + w * self.values[i + 1]
        return np.maximum(out, 0.0)

    def to_csv(self, fp):
        write_series(fp, self.times, self.values)

    @classmethod
    def from_csv(cls, fp) -> "MeanFieldFlow":
        return cls(*read_series(fp))


class _VectorField:
    """Precompiled affine rate map and flux scatter for one (family,
    targets) pair, over flat (component, edge) rate rows and flat
    (component, color) states. Two evaluators, each over any leading
    shape (one state or a stack of them): `rates(Y)` = max(Y W^T + beta,
    0), W the dense scatter of `affine_rows`; `drift(R, Y)` = (R *
    Y[..., src]) S^T, the forward equation's A*mu at rates R. The same
    rates as K x K matrices: `generators(R)` = R G, G scattering each
    edge's rate to (dst, src) and its negative to (src, src), so that
    A[g] @ mu_g is component g's drift."""

    def __init__(self, family, targets: ProportionTargets):
        family = as_block_rates(family, targets.r)
        self.family = family
        self.targets = targets
        cg = family.colors
        r, K, ne = targets.r, cg.K, cg.n_edges
        self.r, self.K, self.ne = r, K, ne
        readers = []
        for j in range(r):
            readers.append(((j, 0), {2 * j: (targets.p_c[j], 0),
                                     2 * j + 1: (targets.p_p[j], 1)}))
            reads = {2 * j: (targets.alpha_c[j], 0)}
            for i in range(r):
                reads[2 * i + 1] = (targets.q[j][i], 1)
            readers.append(((j, 1), reads))
        row, col, weight, beta = affine_rows(family, readers)
        W = np.zeros((2 * r * ne, 2 * r * K))
        W[row, col] = weight
        src, dst = cg.edge_cells(2 * r)
        S = np.zeros((2 * r * K, 2 * r * ne))
        S[dst, np.arange(2 * r * ne)] = 1.0
        S[src, np.arange(2 * r * ne)] = -1.0
        self.W, self.beta, self.src, self.S = W, beta.ravel(), src, S
        G = np.zeros((ne, K * K))
        G[np.arange(ne), cg.dst * K + cg.src] = 1.0
        G[np.arange(ne), cg.src * K + cg.src] = -1.0
        self.G = G

    def rates(self, Y: np.ndarray) -> np.ndarray:
        return np.maximum(Y @ self.W.T + self.beta, 0.0)

    def generators(self, R: np.ndarray) -> np.ndarray:
        lead = R.shape[:-1]
        A = R.reshape(*lead, 2 * self.r, self.ne) @ self.G
        return A.reshape(*lead, 2 * self.r, self.K, self.K)

    def drift(self, R: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return (R * Y.take(self.src, axis=-1)) @ self.S.T

    def rhs(self, y_flat: np.ndarray) -> np.ndarray:
        return self.drift(self.rates(y_flat), y_flat)


def _flow_states(flow: MeanFieldFlow, field: _VectorField) -> np.ndarray:
    """The flow's clipped states, one flat row per grid point; its block
    and colour counts must be the model's."""
    if flow.values.shape[1:] != (2 * field.r, field.K):
        raise InvalidArgumentError(
            f"flow has r={flow.r}, K={flow.K}; the model has r={field.r}, "
            f"K={field.K}"
        )
    return np.maximum(flow.values, 0.0).reshape(flow.times.size, -1)


def flow_rates(flow: MeanFieldFlow, spec, targets) -> np.ndarray:
    """Model jump rates along a flow: (n_times, 2r, n_edges)."""
    field = _VectorField(spec, targets)
    flat = _flow_states(flow, field)
    return field.rates(flat).reshape(flow.times.size, 2 * field.r, field.ne)


def flow_drift(flow: MeanFieldFlow, spec, targets) -> np.ndarray:
    """A*mu along a flow, component by component: (n_times, 2r, K). Reads
    the same batched rate evaluation as `flow_rates`."""
    field = _VectorField(spec, targets)
    flat = _flow_states(flow, field)
    out = field.drift(field.rates(flat), flat)
    return out.reshape(flow.values.shape)


def _grid(T: float, dt: float):
    if dt <= 0 or T <= 0:
        raise InvalidArgumentError("need T > 0 and dt > 0")
    n = max(1, int(math.ceil(T / dt - 1e-9)))
    return np.linspace(0.0, T, n + 1), T / n


def _init_vector(init, r: int, K: int) -> np.ndarray:
    init = [validate_probability(m, K) for m in init]
    if len(init) != 2 * r:
        raise InvalidArgumentError(f"need 2r={2 * r} initial measures")
    return np.concatenate(init)


def _renormalize(y: np.ndarray, K: int):
    """Subtract each component's mass drift in place; y holds whole
    components of K colours, in any contiguous shape."""
    comps = y.reshape(-1, K)
    comps -= ((comps.sum(axis=1) - 1.0) / K)[:, None]


def solve_mckean_vlasov(spec, targets: ProportionTargets, init, T, dt,
                        ) -> MeanFieldFlow:
    """Classical RK4 on the coupled system; dt is shrunk if needed so the
    grid lands exactly on T. Mass drift is subtracted after every step
    (it is zero up to roundoff — the generator preserves mass)."""
    field = _VectorField(spec, targets)
    r, K = field.r, field.K
    times, dt = _grid(float(T), float(dt))
    y = _init_vector(init, r, K)
    out = np.empty((times.size, 2 * r, K))
    out[0] = y.reshape(2 * r, K)
    # an overflow surfaces as a non-finite step, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(times.size - 1):
            k1 = field.rhs(y)
            k2 = field.rhs(y + 0.5 * dt * k1)
            k3 = field.rhs(y + 0.5 * dt * k2)
            k4 = field.rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise NumericalBlowupError(
                    f"non-finite flow at t={times[i + 1]:.6g}", t=times[i + 1]
                )
            _renormalize(y, K)
            out[i + 1] = y.reshape(2 * r, K)
    return MeanFieldFlow(times, out, r)


_SWEEP_CHUNK = 256  # grid steps whose RK4 propagators are built at once


def _frozen_solve(field: _VectorField, frozen: np.ndarray, y0: np.ndarray,
                  dt: float) -> np.ndarray:
    """One sweep of the fixed-point map: integrate the linear forward
    equation with rates read off the frozen flow. Half-step rates come
    from a cubic interpolation of the frozen values (quadratic at the
    ends) so the sweep integrator keeps the outer solver's order; a
    linear midpoint would leave an O(dt^2) gap between the fixed point
    and the directly integrated flow.

    With the rates frozen, one RK4 step on component g is the K x K map
    P = I + dt/6 (A1 + 2 A2 B1 + 2 A2 B2 + A4 B3), B1 = I + dt/2 A1,
    B2 = I + dt/2 A2 B1, B3 = I + dt A2 B2, with A1, A2, A4 the
    generators at t_i, the midpoint and t_{i+1}. The propagators are
    built in batched matmuls, _SWEEP_CHUNK steps at a time, and applied
    in order; the mass drift is subtracted once from the output."""
    n1 = frozen.shape[0]
    r, K = field.r, field.K
    flat = frozen.reshape(n1, 2 * r * K)
    R_grid = field.rates(flat)
    if n1 >= 4:
        mid = np.empty((n1 - 1, flat.shape[1]))
        mid[1:-1] = (-flat[:-3] + 9.0 * flat[1:-2]
                     + 9.0 * flat[2:-1] - flat[3:]) / 16.0
        mid[0] = (3.0 * flat[0] + 6.0 * flat[1] - flat[2]) / 8.0
        mid[-1] = (3.0 * flat[-1] + 6.0 * flat[-2] - flat[-3]) / 8.0
    else:
        mid = 0.5 * (flat[:-1] + flat[1:])
    R_mid = field.rates(mid)
    out = np.empty(frozen.shape)
    out[0] = y0.reshape(2 * r, K)
    cols = out[..., None]  # each step maps column vectors (2r, K, 1)
    eye = np.eye(K)
    # an overflow surfaces as a non-finite chunk, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, n1 - 1, _SWEEP_CHUNK):
            b = min(a + _SWEEP_CHUNK, n1 - 1)
            A = field.generators(R_grid[a:b + 1])
            A1, A4 = A[:-1], A[1:]
            A2 = field.generators(R_mid[a:b])
            A2B1 = A2 @ (eye + (0.5 * dt) * A1)
            A2B2 = A2 @ (eye + (0.5 * dt) * A2B1)
            P = eye + (dt / 6.0) * (A1 + 2.0 * A2B1 + 2.0 * A2B2
                                    + A4 @ (eye + dt * A2B2))
            for i in range(a, b):
                np.matmul(P[i - a], cols[i], out=cols[i + 1])
            if not np.all(np.isfinite(out[a + 1:b + 1])):
                raise NumericalBlowupError(
                    "non-finite flow in fixed-point sweep")
    _renormalize(out[1:], K)
    return out


def picard_iterate(spec, targets: ProportionTargets, init, T, dt, tol=1e-8,
                   max_iter=50, initial_flow=None):
    """Fixed-point iteration for the mean-field system: repeatedly solve
    the linear equations with rates frozen to the previous flow. Starts
    from the constant-in-time flow at `init` unless `initial_flow` is
    given. Returns (flow, residual history); the residual is the sup over
    grid points of the max-component L1 distance between sweeps."""
    if tol <= 0:
        raise InvalidArgumentError("tol must be > 0")
    if int(max_iter) < 1:
        raise InvalidArgumentError("max_iter must be >= 1")
    field = _VectorField(spec, targets)
    r, K = field.r, field.K
    times, dt = _grid(float(T), float(dt))
    y0 = _init_vector(init, r, K)
    if initial_flow is None:
        frozen = np.broadcast_to(
            y0.reshape(2 * r, K), (times.size, 2 * r, K)
        ).copy()
    else:
        if initial_flow.values.shape[0] != times.size:
            raise InvalidArgumentError("initial_flow grid mismatch")
        frozen = initial_flow.values.copy()
    residuals = []
    for _ in range(int(max_iter)):
        nxt = _frozen_solve(field, frozen, y0, dt)
        res = float(np.abs(nxt - frozen).sum(axis=2).max())
        residuals.append(res)
        frozen = nxt
        if res < tol:
            break
    if log.isEnabledFor(logging.DEBUG):
        log.debug("picard_iterate: %d sweeps, last residual %.3e",
                  len(residuals), residuals[-1])
    if residuals[-1] < tol:
        return MeanFieldFlow(times, frozen, r), residuals
    raise NonConvergenceError(
        f"fixed-point iteration did not reach {tol} in {max_iter} sweeps "
        f"(last residual {residuals[-1]:.3e})",
        residuals=residuals,
    )


@dataclass
class ColorPath:
    """Single-particle cadlag color path: color[i] holds on
    [times[i], times[i+1]), the last color up to the horizon."""

    jump_times: np.ndarray  # strictly increasing, within (0, T]
    colors: np.ndarray      # length len(jump_times)+1, starting color first
    horizon: float

    def color_at(self, t: float) -> int:
        return int(self.colors[np.searchsorted(self.jump_times, t,
                                               side="right")])

    @property
    def n_jumps(self) -> int:
        return len(self.jump_times)


def simulate_limit_particle(spec, targets: ProportionTargets,
                            flow: MeanFieldFlow, init_colors, seed):
    """Sample one limit particle per component (2r of them), each an
    independent time-inhomogeneous jump process whose rates read the
    flow. Thinning against the per-spec rate bound keeps it exact."""
    field = _VectorField(spec, targets)
    family = field.family
    r, K, ne = field.r, field.K, field.ne
    init_colors = [int(c) for c in init_colors]
    if len(init_colors) != 2 * r:
        raise InvalidArgumentError(f"need 2r={2 * r} initial colors")
    T = flow.T
    paths = []
    for g in range(2 * r):
        j, cls = divmod(g, 2)
        spec_g = family.spec_for(j, cls)
        bound = max(
            sum(spec_g.rate_bound(e) for e in spec_g.colors.out_edges(z))
            for z in range(K)
        )
        gen = seed if isinstance(seed, np.random.Generator) else \
            _rng.substream(seed, g)
        t, z = 0.0, init_colors[g]
        jt, cols = [], [z]
        if bound > 0.0:
            while True:
                t += gen.standard_exponential() / bound
                if t > T:
                    break
                rates = field.rates(flow.at(t).ravel())[g * ne:(g + 1) * ne]
                out = spec_g.colors.out_edges(z)
                lam = [rates[e] for e in out]
                s = sum(lam)
                u = gen.random() * bound
                if u < s:
                    acc = 0.0
                    for e, l in zip(out, lam):
                        acc += l
                        if u < acc:
                            z = spec_g.colors.edges[e][1]
                            break
                    jt.append(t)
                    cols.append(z)
        paths.append(ColorPath(np.asarray(jt), np.asarray(cols, dtype=int),
                               T))
    return paths
