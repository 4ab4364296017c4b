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

from .errors import (
    InvalidArgumentError,
    NonConvergenceError,
    NumericalBlowupError,
)
from .graph import ProportionTargets
from .rates import (
    _check_entries,
    _check_horizon,
    _real,
    affine_rows,
    as_block_rates,
    initial_laws,
)
from .tables import read_series, write_series

log = logging.getLogger(__name__)

__all__ = [
    "MeanFieldFlow",
    "solve_mckean_vlasov",
    "picard_iterate",
    "flow_rates",
    "flow_drift",
]

PICARD_TOL = 1e-8  # sup-norm residual at which the fixed point is reached
PICARD_MAX_ITER = 50


@dataclass
class MeanFieldFlow:
    """Measure vector on a uniform time grid; values[t, g, z] with
    g = 2*block + class. Accessors clip reads at zero: RK4 can undershoot
    a colour near zero by roundoff, and a flow read from `flow_csv` may
    hold any finite value. Both are checked on construction: the grid is
    1-d, at least two times, one per row of values, and uniform:
    increasing, each step within 1e-9 * max(1, first step) of the first;
    the values are a finite (times, 2r, K) array with r, K >= 1."""

    times: np.ndarray
    values: np.ndarray  # (n_times, 2r, K)

    def __post_init__(self):
        n = np.shape(self.times)
        if len(n) != 1 or n[0] < 2 or np.shape(self.values)[:1] != n:
            raise InvalidArgumentError(
                f"flow needs a 1-d grid of at least 2 times, one per row of "
                f"values; got times of shape {n} and values of shape "
                f"{np.shape(self.values)}")
        steps = np.diff(self.times)
        if not np.all((steps > 0) & (np.abs(steps - steps[0])
                                     <= 1e-9 * max(1.0, steps[0]))):
            raise InvalidArgumentError("flow grid must be uniform")
        shape = np.shape(self.values)
        if len(shape) != 3 or shape[1] % 2 or 0 in shape[1:]:
            raise InvalidArgumentError(
                f"flow values must have shape (times, 2r, K) with r, K >= "
                f"1; got {shape}")
        if not np.isfinite(self.values).all():
            raise InvalidArgumentError("flow values must be finite")

    @property
    def r(self) -> int:
        return self.values.shape[1] // 2

    @property
    def K(self) -> int:
        return self.values.shape[2]

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

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
    Y[..., src]) S^T, the forward equation's A*mu at rates R, which it
    leaves unchanged. The same rates as K x K matrices: `generators(R)`
    = R G, G scattering each edge's rate to (dst, src) and its negative
    to (src, src), so that A[g] @ mu_g is component g's drift."""

    def __init__(self, family, targets: ProportionTargets):
        family = as_block_rates(family, targets.r)
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
        R = Y @ self.W.T
        R += self.beta
        return np.maximum(R, 0.0, out=R)

    def generators(self, R: np.ndarray) -> np.ndarray:
        lead = R.shape[:-1]
        A = R.reshape(*lead, 2 * self.r, self.ne) @ self.G
        return A.reshape(*lead, 2 * self.r, self.K, self.K)

    def drift(self, R: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return (R * Y.take(self.src, axis=-1)) @ self.S.T


def _flow_states(flow: MeanFieldFlow, field: _VectorField) -> np.ndarray:
    """The flow's clipped states, one flat row per grid point; the flow's
    block and colour counts must be the model's."""
    if flow.values.shape[1:] != (2 * field.r, field.K):
        raise InvalidArgumentError(
            f"flow has {flow.values.shape[1]} components and "
            f"K={flow.values.shape[-1]}; the model has r={field.r}, "
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


def _grid(T, dt):
    T, dt = _check_horizon(T), _real(dt, "dt")
    if T == 0 or not 0 < dt < math.inf:
        raise InvalidArgumentError(
            f"need T > 0 and 0 < dt < inf, got T={T}, dt={dt}")
    _check_entries(T / dt + 1, "T/dt grid steps")
    n = max(1, int(math.ceil(T / dt - 1e-9)))
    return np.linspace(0.0, T, n + 1), T / n


_STEP_CHUNK = 256  # grid steps per finiteness check; per propagator batch
_SUB_BLOCK = 16  # grid steps per running product of the Picard sweep


def solve_mckean_vlasov(spec, targets: ProportionTargets, init, T, dt,
                        ) -> MeanFieldFlow:
    """Classical RK4 on the coupled system; dt is shrunk if needed so the
    grid lands exactly on T. Each component's mass is a linear invariant
    of the forward equation, which RK4 keeps up to roundoff, so no
    projection follows a step. The output is checked for non-finite
    values _STEP_CHUNK steps at a time; the error names the first
    non-finite grid point."""
    field = _VectorField(spec, targets)
    r, K = field.r, field.K
    times, dt = _grid(T, dt)
    n = times.size - 1
    out = np.empty((n + 1, 2 * r * K))
    out[0] = initial_laws(init, r, K).ravel()
    half, sixth = 0.5 * dt, dt / 6.0
    # an overflow surfaces as a non-finite chunk, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, n, _STEP_CHUNK):
            b = min(a + _STEP_CHUNK, n)
            for i in range(a, b):
                y = out[i]
                k1 = field.drift(field.rates(y), y)
                x = half * k1
                x += y
                k2 = field.drift(field.rates(x), x)
                np.multiply(half, k2, out=x)
                x += y
                k3 = field.drift(field.rates(x), x)
                np.multiply(dt, k3, out=x)
                x += y
                k4 = field.drift(field.rates(x), x)
                # (k1 + 2 k2 + 2 k3 + k4) dt/6, summed left to right
                k2 *= 2.0
                k1 += k2
                k3 *= 2.0
                k1 += k3
                k1 += k4
                k1 *= sixth
                np.add(y, k1, out=out[i + 1])
            finite = np.isfinite(out[a + 1:b + 1]).all(axis=1)
            if not finite.all():
                t = times[a + 1 + np.argmin(finite)]
                raise NumericalBlowupError(f"non-finite flow at t={t:.6g}",
                                           t=t)
    return MeanFieldFlow(times, out.reshape(n + 1, 2 * r, K))


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
    built in batched matmuls, _STEP_CHUNK steps at a time, and applied
    as a blocked prefix product: each run of _SUB_BLOCK steps is folded
    in place into its running products (_SUB_BLOCK - 1 matmuls batched
    over the chunk's sub-blocks), then one product per sub-block carries
    the state from its first grid point to the rest. The generators'
    columns sum to zero, so every P keeps each component's mass up to
    roundoff."""
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
        for a in range(0, n1 - 1, _STEP_CHUNK):
            b = min(a + _STEP_CHUNK, n1 - 1)
            m = b - a
            A = field.generators(R_grid[a:b + 1])
            A1, A4 = A[:-1], A[1:]
            A2 = field.generators(R_mid[a:b])
            # P = I + dt/6 (A1 + 2 A2 B1 + 2 A2 B2 + A4 B3), in place
            P = A2 @ A1
            P *= 0.5 * dt
            P += A2  # A2 B1
            X = A2 @ P
            X *= 0.5 * dt
            X += A2  # A2 B2
            A4B3 = np.matmul(A4, X, out=A2)  # A2 is not read again
            A4B3 *= dt
            A4B3 += A4
            P *= 2.0
            P += A1
            X *= 2.0
            P += X
            P += A4B3
            P *= dt / 6.0
            P += eye
            # P[i] becomes the product P[i] ... P[s] of its sub-block,
            # which starts at step s; one product per sub-block then
            # carries the state at step s to the sub-block's other steps
            for j in range(1, min(_SUB_BLOCK, m)):
                np.matmul(P[j::_SUB_BLOCK], P[j - 1:m - 1:_SUB_BLOCK],
                          out=P[j::_SUB_BLOCK])
            for s in range(0, m, _SUB_BLOCK):
                e = min(s + _SUB_BLOCK, m)
                np.matmul(P[s:e], cols[a + s], out=cols[a + s + 1:a + e + 1])
            if not np.all(np.isfinite(out[a + 1:b + 1])):
                raise NumericalBlowupError(
                    "non-finite flow in fixed-point sweep")
    return out


def picard_iterate(spec, targets: ProportionTargets, init, T, dt):
    """Fixed-point iteration for the mean-field system: repeatedly solve
    the linear equations with rates frozen to the previous flow, starting
    from the constant-in-time flow at `init`. Returns (flow, residual
    history); the residual is the sup over grid points of the
    max-component L1 distance between sweeps. Stops once a residual is
    below PICARD_TOL, and raises NonConvergenceError after
    PICARD_MAX_ITER sweeps; both are read at call time."""
    field = _VectorField(spec, targets)
    r, K = field.r, field.K
    times, dt = _grid(T, dt)
    y0 = initial_laws(init, r, K)
    frozen = np.broadcast_to(y0, (times.size, 2 * r, K)).copy()
    residuals = []
    for _ in range(PICARD_MAX_ITER):
        nxt = _frozen_solve(field, frozen, y0, dt)
        res = float(np.abs(nxt - frozen).sum(axis=2).max())
        residuals.append(res)
        frozen = nxt
        if res < PICARD_TOL:
            break
    if log.isEnabledFor(logging.DEBUG):
        log.debug("picard_iterate: %d sweeps, last residual %.3e",
                  len(residuals), residuals[-1])
    if residuals[-1] < PICARD_TOL:
        return MeanFieldFlow(times, frozen), residuals
    raise NonConvergenceError(
        f"fixed-point iteration did not reach {PICARD_TOL} in "
        f"{PICARD_MAX_ITER} sweeps (last residual {residuals[-1]:.3e})",
        residuals=residuals,
    )
