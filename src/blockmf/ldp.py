"""Pathwise deviation costs for the block mean-field dynamics.

The convex pair tau / tau_star (log-Laplace transform of the centered
unit Poisson and its conjugate), the weighted variational norm of a
flux residual, the deviation cost of a flow in both its Legendre form
(explicit perturbed rates) and variational form (residual of the
flow's own drift), and log densities of tagged-particle paths against
the unit-rate-per-edge reference walk.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import (
    AssumptionViolationError,
    InvalidArgumentError,
    NonConvergenceError,
    UnknownEdgeError,
)
from .graph import _component_of
from .meanfield import MeanFieldFlow, flow_drift, flow_rates
from .rates import (
    ColorGraph,
    _check_horizon,
    _integer,
    _quoted,
    _real,
    _reals,
    as_block_rates,
)
from .tables import write_cost

__all__ = [
    "tau",
    "tau_star",
    "ColorPath",
    "DeviationCost",
    "legendre_cost",
    "variational_norm",
    "variational_cost",
    "girsanov_log_densities",
    "h_functional",
    "sample_reference_path",
]

log = logging.getLogger(__name__)

PHI_CAP = 500.0  # potential spread beyond this means an unbounded ascent
GRAD_TOL = 1e-10
RATE_FLOOR = 1e-10  # legendre_cost's uniform-ellipticity floor
MAX_NEWTON = 200


def tau(u):
    """e^u - u - 1, elementwise; scalar in, scalar out."""
    u = np.asarray(u, dtype=float)
    out = np.expm1(u) - u
    return float(out) if out.ndim == 0 else out


def tau_star(v):
    """Convex conjugate of tau: (1+v)log(1+v) - v for v > -1, exactly 1
    at v = -1, +inf below."""
    v = np.asarray(v, dtype=float)
    out = np.full(v.shape, np.nan)
    out[v < -1.0] = np.inf
    out[v == -1.0] = 1.0
    above = v > -1.0
    w = v[above]
    out[above] = (1.0 + w) * np.log1p(w) - w
    return float(out) if out.ndim == 0 else out


@dataclass
class ColorPath:
    """Single-particle cadlag color path: colors[i] holds on
    [jump_times[i-1], jump_times[i]) (colors[0] from time 0), the last
    color up to the horizon."""

    jump_times: np.ndarray  # strictly increasing, within (0, T]
    colors: np.ndarray      # length len(jump_times)+1, starting color first
    horizon: float


@dataclass(frozen=True)
class DeviationCost:
    """Cost of a flow: per-grid-point integrand per component, the time
    integrals per component, the class weights used, and the weighted
    total. The variational form also counts what its solver did: Newton
    iterations, line-search halvings and stall exits summed over all
    norms, and the number of infinite norms (zero for the Legendre form;
    none of them is written to the CSV)."""

    times: np.ndarray
    integrand: np.ndarray        # (n, 2r)
    class_integrals: np.ndarray  # (2r,)
    weights: np.ndarray          # (2r,)
    total: float
    newton_iterations: int = field(default=0, compare=False)
    halvings: int = field(default=0, compare=False)
    stall_exits: int = field(default=0, compare=False)
    infinite: int = field(default=0, compare=False)

    def to_csv(self, fp) -> None:
        write_cost(fp, self.times, self.integrand, self.total)


def _class_weights(targets) -> np.ndarray:
    w = np.empty(2 * targets.r)
    for j in range(targets.r):
        w[2 * j] = targets.alpha[j] * targets.p_c[j]
        w[2 * j + 1] = targets.alpha[j] * targets.p_p[j]
    return w


def _package_cost(times, integrand, targets, **counters) -> DeviationCost:
    weights = _class_weights(targets)
    class_integrals = np.trapezoid(integrand, times, axis=0)
    total = float(weights @ class_integrals)
    return DeviationCost(times, integrand, class_integrals, weights,
                         total, **counters)


def legendre_cost(flow: MeanFieldFlow, targets, spec,
                  rates) -> DeviationCost:
    """Cost of running the flow with rates l instead of the model's lam:
    integrate sum_e mu(src)·lam·tau*(l/lam - 1) per component, weight by
    the limiting class proportions. `rates[i, g, e]`, finite and >= 0, is
    the rate l of edge e for component g (= 2*block + class) at
    flow.times[i], shaped like `flow_rates`.

    The model rates along the flow must stay above RATE_FLOOR on every
    edge (the dynamics are assumed uniformly elliptic); anything lower
    raises AssumptionViolationError.
    """
    family = as_block_rates(spec, targets.r)
    lam = flow_rates(flow, spec, targets)  # (n, 2r, E)
    rates = _reals(rates, "rates")
    if rates.shape != lam.shape:
        raise InvalidArgumentError(
            f"rates have shape {rates.shape}; the flow's model rates "
            f"have {lam.shape}"
        )
    if not np.all(np.isfinite(rates)) or rates.min() < 0.0:
        raise InvalidArgumentError("rates must be finite and >= 0")
    if lam.min() < RATE_FLOOR:
        i, g, e = np.unravel_index(int(lam.argmin()), lam.shape)
        raise AssumptionViolationError(
            f"model rate {lam[i, g, e]:.3g} on edge {e} of component {g} "
            f"at t={flow.times[i]:.6g} is below the floor {RATE_FLOOR:.3g}"
        )
    mu = np.clip(flow.values, 0.0, None)       # (n, 2r, K)
    mu_src = mu[:, :, family.colors.src]       # (n, 2r, E)
    integrand = np.sum(mu_src * lam * tau_star(rates / lam - 1.0), axis=2)
    return _package_cost(flow.times, integrand, targets)


def _component_roots(K, src, dst):
    """Root of each color's connected component in the undirected support
    graph: the lowest color it reaches. Boolean reachability (identity
    plus each edge both ways) squared until paths of length K-1 are in;
    a color with no incident edge is its own root."""
    reach = np.eye(K, dtype=bool)
    reach[src, dst] = True
    reach[dst, src] = True
    for _ in range((K - 1).bit_length()):
        reach = reach @ reach
    return reach.argmax(axis=1)


_NEWTON_CHUNK = 1024  # rows of one active-edge pattern solved together


def _solve_or_lstsq(H, g):
    try:
        return np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(H, g, rcond=None)[0]


def _newton(theta, w, src, dst, free):
    """Damped Newton ascent of Phi -> theta·Phi - sum_e w_e tau(dPhi_e)
    for each row of theta (n, K) and edge weights w (n, E), on one
    active-edge pattern (edges src -> dst, all weights > 0). Only the
    `free` colours move; the others stay pinned at zero.

    Each row keeps its own exits: gradient norm below GRAD_TOL; the
    Newton decrement below the resolution of the objective (a stall);
    the steepest-ascent fallback when the Newton step points downhill;
    +inf once the potential passes PHI_CAP. Rows leave the batch as they
    exit. Returns (values, [iterations, halvings, stall exits],
    failures), failures listing (row, gradient-norm history) for rows
    whose line search failed or that ran out of their MAX_NEWTON
    iterations (value nan).
    """
    n, K = theta.shape
    E = src.size
    inc = np.zeros((K, E))  # +1 at an edge's destination, -1 at its source
    inc[dst, np.arange(E)] = 1.0
    inc[src, np.arange(E)] = -1.0
    inc_free = inc[free]
    eye = np.eye(free.size)
    stall_scale = 100.0 * np.finfo(float).eps

    def objective(th, ww, p):
        with np.errstate(over="ignore"):
            d = p[:, dst] - p[:, src]
            t = np.expm1(d) - d
            val = (np.einsum("nk,nk->n", th, p)
                   - np.einsum("ne,ne->n", ww, t))
        val[~np.all(np.isfinite(t), axis=1)] = -math.inf
        return val

    values = np.full(n, np.nan)
    counts = np.zeros(3, dtype=np.int64)
    failures = []
    hist = []  # (live rows, their gradient norms) per iteration
    ids = np.arange(n)
    phi = np.zeros((n, K))
    F = objective(theta, w, phi)

    def fail(rows):
        for row in rows:
            failures.append((int(row), [float(gn[np.searchsorted(live, row)])
                                        for live, gn in hist]))

    for _ in range(MAX_NEWTON):
        if ids.size == 0:
            break
        ed = np.exp(phi[:, dst] - phi[:, src])
        g = theta - (w * (ed - 1.0)) @ inc.T  # tau'(dPhi) weighted
        gf = g[:, free]
        gn = np.max(np.abs(gf), axis=1)
        hist.append((ids, gn))
        counts[0] += ids.size
        H = (inc_free * (w * ed)[:, None, :]) @ inc_free.T
        reg = 1e-12 * np.maximum(1.0, H.diagonal(axis1=1, axis2=2).max(1))
        H += reg[:, None, None] * eye
        try:
            step = np.linalg.solve(H, gf[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.stack([_solve_or_lstsq(Hk, gk)
                             for Hk, gk in zip(H, gf)])
        slope = np.einsum("nf,nf->n", gf, step)
        # Newton decrement: slope/2 bounds the remaining gain to first
        # order (concave objective), so once it is below the resolution
        # of F itself no double-precision step can improve the value.
        # The raw gradient may still sit above GRAD_TOL here.
        stall = stall_scale * np.maximum(1.0, np.abs(F))
        converged = gn < GRAD_TOL
        stalled = ~converged & (np.abs(slope) <= stall)
        downhill = ~converged & ~stalled & (slope < 0.0)
        if downhill.any():
            step[downhill] = gf[downhill]
            slope[downhill] = np.einsum("nf,nf->n", gf[downhill],
                                        gf[downhill])
            stalled |= downhill & (slope <= stall)
        done = converged | stalled
        if done.any():
            values[ids[done]] = np.maximum(F[done], 0.0)
            counts[2] += np.count_nonzero(stalled)
            go = ~done
            ids, phi, F, theta, w, step, slope = (
                a[go] for a in (ids, phi, F, theta, w, step, slope))

        # per-row backtracking line search
        m = ids.size
        alpha = np.ones(m)
        Fn = np.empty(m)
        pending = np.ones(m, dtype=bool)
        lost = np.zeros(m, dtype=bool)
        while pending.any():
            k = np.flatnonzero(pending)
            trial = phi[k]
            trial[:, free] += alpha[k, None] * step[k]
            Fk = objective(theta[k], w[k], trial)
            ok = Fk >= F[k] + 1e-4 * alpha[k] * slope[k]
            Fn[k[ok]] = Fk[ok]
            pending[k[ok]] = False
            back = k[~ok]
            alpha[back] *= 0.5
            counts[1] += back.size
            out = back[alpha[back] <= 1e-14]
            pending[out] = False
            lost[out] = True
        phi[:, free] += alpha[:, None] * step
        F = Fn
        # ascent ran away: theta pushes some edge beyond its reverse
        # capacity, the sup is infinite
        runaway = ~lost & (np.max(np.abs(phi), axis=1) > PHI_CAP)
        if lost.any() or runaway.any():
            fail(ids[lost])
            values[ids[runaway]] = math.inf
            keep = ~lost & ~runaway
            ids, phi, F, theta, w = (a[keep] for a in (ids, phi, F, theta, w))
    fail(ids)
    return values, counts, failures


def _variational_norms(theta, mu, lam, colors: ColorGraph):
    """`variational_norm` of every row of theta (n, K), mu (n, K) and
    lam (n, E) on one colour graph. Rows are grouped by their active-edge
    pattern, which fixes the support components, the pinned roots and
    the free colours; each group is solved by `_newton`, _NEWTON_CHUNK
    rows at a time. Returns (values, [Newton iterations, line-search
    halvings, stall exits]); raises NonConvergenceError for the first
    row that does not converge, with its gradient-norm history."""
    n, K = theta.shape
    out = np.full(n, math.inf)
    counts = np.zeros(3, dtype=np.int64)
    failures = []
    w_all = mu[:, colors.src] * lam
    act = w_all > 0.0
    # net theta mass moves along the constant-shift direction for free
    bounded = np.flatnonzero(~(np.abs(theta.sum(axis=1)) > 1e-10))
    # group rows by active-edge pattern, each pattern packed into one
    # byte-string key (behind a set bit, so that no key is empty)
    packed = np.packbits(
        np.c_[np.ones(bounded.size, dtype=bool), act[bounded]], axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    for p, row in enumerate(bounded[first]):
        pattern = act[row]
        rows = bounded[which == p]
        src, dst = colors.src[pattern], colors.dst[pattern]
        # a direction constant on a support component costs nothing, so
        # any component carrying net theta mass makes the sup infinite;
        # colors outside the support with negligible theta are frozen at
        # zero, and the root (lowest color) of each component is pinned
        roots = _component_roots(K, src, dst)
        mass = theta[rows] @ (roots[:, None] == np.arange(K)).astype(float)
        rows = rows[~np.any(np.abs(mass) > GRAD_TOL, axis=1)]
        free = np.flatnonzero(roots != np.arange(K))
        if free.size == 0:
            out[rows] = 0.0
            continue
        for c in range(0, rows.size, _NEWTON_CHUNK):
            chunk = rows[c:c + _NEWTON_CHUNK]
            vals, cnt, fails = _newton(theta[chunk], w_all[chunk][:, pattern],
                                       src, dst, free)
            out[chunk] = vals
            counts += cnt
            failures += [(chunk[k], res) for k, res in fails]
    if failures:
        _, residuals = min(failures, key=lambda f: f[0])
        raise NonConvergenceError(
            "variational norm ascent did not reach the gradient tolerance",
            residuals=residuals,
        )
    return out, counts


def variational_norm(theta, mu_point, lambda_table,
                     colors: ColorGraph) -> float:
    """sup over potentials Phi of theta·Phi - sum_e tau(dPhi_e)·mu(src)·lam_e.

    Returns +inf when the flux theta is not realizable on the weighted
    support (in particular whenever sum(theta) exceeds 1e-10, the
    unbounded constant-shift direction). The smooth concave problem is
    solved by damped Newton with one potential pinned per support
    component; stops at gradient norm below GRAD_TOL, and raises
    NonConvergenceError after MAX_NEWTON iterations. A batch of one
    through the solver `variational_cost` uses.
    """
    theta = _reals(theta, "theta")
    mu_point = _reals(mu_point, "mu_point")
    lam = _reals(lambda_table, "lambda_table")
    K = colors.K
    if theta.shape != (K,) or mu_point.shape != (K,):
        raise InvalidArgumentError("theta and mu_point must have length K")
    if lam.shape != (colors.n_edges,):
        raise InvalidArgumentError("lambda_table must have one entry per edge")
    values, _ = _variational_norms(theta[None], mu_point[None], lam[None],
                                   colors)
    return float(values[0])


def variational_cost(flow: MeanFieldFlow, targets, spec) -> DeviationCost:
    """Cost of a flow from its own drift residual: at each grid point and
    component, the variational norm of theta = dmu/dt - A*mu, with dmu/dt
    by central differences (second-order one-sided at the ends). All
    points and components go to the solver as one batch; the returned
    cost carries its counters, also logged on `blockmf.ldp`."""
    family = as_block_rates(spec, targets.r)
    times = flow.times
    n = times.size
    if n < 3:
        raise InvalidArgumentError("flow needs at least 3 grid points")
    dt = flow.dt
    vals = flow.values  # (n, 2r, K), raw
    dmu = np.empty_like(vals)
    dmu[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * dt)
    dmu[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * dt)
    dmu[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * dt)
    theta = dmu - flow_drift(flow, spec, targets)
    lam = flow_rates(flow, spec, targets)
    mu = np.clip(vals, 0.0, None)
    K, ne = family.colors.K, family.colors.n_edges
    values, counts = _variational_norms(
        theta.reshape(-1, K), mu.reshape(-1, K), lam.reshape(-1, ne),
        family.colors)
    integrand = values.reshape(n, 2 * flow.r)
    infinite = int(np.count_nonzero(np.isinf(values)))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("variational_cost: %d norms, %d Newton iterations, "
                  "%d halvings, %d stall exits, %d infinite", values.size,
                  *counts, infinite)
    return _package_cost(times, integrand, targets,
                         newton_iterations=int(counts[0]),
                         halvings=int(counts[1]),
                         stall_exits=int(counts[2]), infinite=infinite)


def _pl_integral(times, vals, a, b) -> float:
    """Exact integral of the piecewise-linear interpolant of vals over
    [a, b]."""
    if b <= a:
        return 0.0
    ia = int(np.searchsorted(times, a, side="right"))
    ib = int(np.searchsorted(times, b, side="left"))
    pts = np.concatenate(([a], times[ia:ib], [b]))
    fv = np.interp(pts, times, vals)
    return float(np.trapezoid(fv, pts))


def girsanov_log_densities(paths, flow: MeanFieldFlow, targets, spec,
                           which) -> np.ndarray:
    """Vector of log densities of the supplied single-particle paths
    against the unit-rate-per-edge reference walk, with particle rates
    read off the flow. which = (block, class) picks the rate role; class
    may be 0/1 or "c"/"p".

    h = sum over jumps of log lambda(t-) minus int_0^T sum over the out
    edges of the current color of (lambda(t) - 1) dt. Jump-time rates
    interpolate the grid linearly; the time integral is exact for the
    interpolated rates. A jump along an edge the model gives rate 0 (or
    that is not an edge at all) sends the density to -inf. A path's
    colors must be len(jump_times) + 1 integers in 0..K-1, its jump
    times strictly increasing within (0, horizon], and its horizon within
    [0, flow.T].
    """
    family = as_block_rates(spec, targets.r)
    pair = isinstance(which, (tuple, list)) and len(which) == 2
    g = _component_of(*which, flow.r) if pair else None
    if g is None:
        raise InvalidArgumentError(
            f"no component (block, class) = {_quoted(which)}")
    colors = family.colors
    K = colors.K
    times = flow.times
    lam_grid = flow_rates(flow, spec, targets)[:, g, :]  # (n, E)
    excess = np.zeros((times.size, K))  # sum of (lam - 1) over out-edges
    np.add.at(excess.T, colors.src, (lam_grid - 1.0).T)

    out = np.empty(len(paths))
    for ip, path in enumerate(paths):
        horizon = _real(path.horizon, "path horizon")
        if not 0.0 <= horizon <= flow.T + 1e-9:
            raise InvalidArgumentError(
                f"path horizon must lie in [0, {flow.T:g}], the flow's, "
                f"got {_quoted(path.horizon)}")
        jumps = _reals(path.jump_times, "path jump times")
        if (jumps.ndim != 1 or not np.all(jumps > 0.0)
                or not np.all(jumps <= horizon)
                or not np.all(np.diff(jumps) > 0.0)):
            raise InvalidArgumentError(
                f"path jump times must increase strictly within (0, "
                f"horizon], got {_quoted(path.jump_times)}")
        seen = np.asarray(path.colors)
        if (seen.dtype.kind not in "iu"
                or seen.shape != (len(path.jump_times) + 1,)
                or seen.min() < 0 or seen.max() >= K):
            raise InvalidArgumentError(
                f"path colors must be len(jump_times) + 1 integers in "
                f"0..{K - 1}, got {_quoted(path.colors)}")
        jump_sum = 0.0
        for k, t_k in enumerate(jumps):
            z_prev = int(path.colors[k])
            z_new = int(path.colors[k + 1])
            try:
                e = colors.edge_index(z_prev, z_new)
            except UnknownEdgeError:
                jump_sum = -math.inf
                break
            lam_k = float(np.interp(t_k, times, lam_grid[:, e]))
            if lam_k <= 0.0:
                jump_sum = -math.inf
                break
            jump_sum += math.log(lam_k)
        if jump_sum == -math.inf:
            out[ip] = -math.inf
            continue
        comp = 0.0
        seg_starts = np.concatenate(([0.0], jumps))
        seg_ends = np.concatenate((jumps, [horizon]))
        for k in range(seg_starts.size):
            z = int(path.colors[k])
            comp += _pl_integral(times, excess[:, z],
                                 float(seg_starts[k]), float(seg_ends[k]))
        out[ip] = jump_sum - comp
    return out


def h_functional(path_sets, flow: MeanFieldFlow, targets, spec,
                 class_sizes) -> float:
    """Size-weighted empirical average of the per-class log densities:
    sum_g (n_g / N) * mean over the class's sampled paths.

    path_sets and class_sizes are indexed by component g = 2*block +
    class. Components with no sampled paths contribute zero (their
    empirical average is taken as empty); at least one component must
    have paths.
    """
    sizes = _reals(class_sizes, "class_sizes")
    if (sizes.shape != (2 * flow.r,)
            or not np.all(np.isfinite(sizes) & (sizes >= 0))):
        raise InvalidArgumentError(
            f"class_sizes must be {2 * flow.r} finite nonnegative counts"
        )
    if len(path_sets) != 2 * flow.r:
        raise InvalidArgumentError("path_sets must have one entry per "
                                   "(block, class)")
    total = float(sizes.sum())
    if total == 0.0:
        raise InvalidArgumentError("all class sizes are zero")
    if all(len(p) == 0 for p in path_sets):
        raise InvalidArgumentError("no paths supplied")
    h = 0.0
    for g, paths in enumerate(path_sets):
        if len(paths) == 0 or sizes[g] == 0.0:
            continue
        vals = girsanov_log_densities(paths, flow, targets, spec,
                                      (g // 2, g % 2))
        h += sizes[g] / total * float(np.mean(vals))
    return h


def sample_reference_path(colors: ColorGraph, z0: int, T: float,
                          seed) -> ColorPath:
    """One path of the reference walk: every edge of the color graph
    fires at rate 1, independently of everything else."""
    z0 = _integer(z0, "initial color")
    if not 0 <= z0 < colors.K:
        raise InvalidArgumentError(
            f"initial color {_quoted(z0)} out of range")
    T = _check_horizon(T)
    gen = seed if isinstance(seed, np.random.Generator) \
        else _rng.substream(seed)
    t = 0.0
    z = z0
    jump_times = []
    cols = [z0]
    while True:
        outs = colors.out_edges(z)
        if not outs:
            break
        t += gen.exponential(1.0 / len(outs))
        if t >= T:
            break
        e = outs[int(gen.integers(len(outs)))]
        z = colors.edges[e][1]
        jump_times.append(t)
        cols.append(z)
    return ColorPath(np.asarray(jump_times, dtype=float),
                     np.asarray(cols, dtype=int), T)
