import io
import math
import warnings

import numpy as np
import pytest

import blockmf as bm
from blockmf.experiments import resolve_tagged
from blockmf.graph import CLASS_LABELS, class_index
from conftest import random_inits, random_rate_family, random_targets

R1_TARGETS = bm.ProportionTargets((0.5,), (0.4,), ((0.6,),), (1.0,))


# --------------------------------------------------------------------------
# the convex pair


def test_tau_values():
    assert bm.tau(0.0) == 0.0
    assert bm.tau(1.0) == pytest.approx(np.e - 2.0)
    u = np.array([-2.0, 0.0, 3.0])
    assert np.allclose(bm.tau(u), np.exp(u) - u - 1.0)


def test_tau_star_values():
    assert bm.tau_star(0.0) == 0.0
    assert bm.tau_star(-1.0) == 1.0          # boundary value, exact
    assert bm.tau_star(-1.0 - 1e-12) == math.inf
    assert bm.tau_star(np.e - 1.0) == pytest.approx(1.0)
    assert np.isnan(bm.tau_star(np.nan))
    v = np.array([-2.0, -1.0, 0.0, 1.0])
    out = bm.tau_star(v)
    assert out[0] == math.inf and out[1] == 1.0 and out[2] == 0.0
    assert out[3] == pytest.approx(2.0 * np.log(2.0) - 1.0)


def test_fenchel_young():
    gen = np.random.default_rng(12)
    u = gen.uniform(-4.0, 4.0, 2000)
    v = gen.uniform(-1.0, 8.0, 2000)
    gap = bm.tau(u) + bm.tau_star(v) - u * v
    assert gap.min() >= -1e-12
    # equality on the conjugate curve v = e^u - 1
    vc = np.expm1(u)
    gap_c = bm.tau(u) + bm.tau_star(vc) - u * vc
    assert np.abs(gap_c).max() <= 1e-8


# --------------------------------------------------------------------------
# variational norm


def dual_value(theta, mu, lam, colors, fluxes):
    """Sum of w_e tau*(q_e / w_e) for a flux assignment q with div q =
    theta; any such assignment upper-bounds the variational norm."""
    total = 0.0
    div = np.zeros(colors.K)
    for e, q in enumerate(fluxes):
        z, zp = colors.edges[e]
        w = mu[z] * lam[e]
        div[zp] += q
        div[z] -= q
        if q != 0.0 or w > 0.0:
            total += w * bm.tau_star(q / w) if w > 0.0 else math.inf
    assert np.allclose(div, theta, atol=1e-12)
    return total


def primal_value(theta, mu, lam, colors, phi):
    src = [z for z, _ in colors.edges]
    dst = [zp for _, zp in colors.edges]
    w = mu[np.array(src)] * lam
    d = phi[np.array(dst)] - phi[np.array(src)]
    return float(theta @ phi - w @ bm.tau(d))


def test_variational_norm_trivia():
    cg = bm.ColorGraph(2, [(0, 1), (1, 0)])
    mu = np.array([0.5, 0.5])
    lam = np.array([1.0, 1.0])
    assert bm.variational_norm(np.zeros(2), mu, lam, cg) == 0.0
    # nonzero total mass is not a flux of anything
    assert bm.variational_norm(np.array([0.1, 0.0]), mu, lam, cg) == math.inf
    with pytest.raises(bm.InvalidArgumentError):
        bm.variational_norm(np.zeros(3), mu, lam, cg)
    with pytest.raises(bm.InvalidArgumentError):
        bm.variational_norm(np.zeros(2), mu, lam[:1], cg)


@pytest.mark.parametrize("theta, mu, lam, message", [
    ([-0.1, 0.1], [0.5, 0.5], [-1.0, 2.0], "lambda_table[0] = -1.0"),
    ([-0.1, 0.1], [-0.5, 1.5], [1.0, 2.0], "mu_point[0] = -0.5"),
    ([-0.1, 0.1], [0.5, 0.5], [1.0, math.nan], "lambda_table[1] = nan"),
    ([-0.1, 0.1], [0.5, math.inf], [1.0, 2.0], "mu_point[1] = inf"),
    ([math.nan, 0.1], [0.5, 0.5], [1.0, 2.0], "theta[0] = nan"),
    ([-math.inf, 0.1], [0.5, 0.5], [1.0, 2.0], "theta[0] = -inf"),
], ids=["negative-rate", "negative-mass", "nan-rate", "inf-mass",
        "nan-theta", "inf-theta"])
def test_variational_norm_fails_closed_on_its_inputs(theta, mu, lam,
                                                     message):
    # a negative rate or mass and a nan rate gave a finite value, and a
    # nan theta ended in NonConvergenceError, a numerical failure
    cg = bm.ColorGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(bm.InvalidArgumentError) as info:
        bm.variational_norm(theta, mu, lam, cg)
    assert str(info.value).startswith(message + ": entries must be finite")


def test_variational_norm_detached_mass_is_infinite():
    cg = bm.ColorGraph(3, [(0, 1), (1, 0)])
    mu = np.array([0.4, 0.4, 0.2])
    lam = np.array([1.0, 1.0])
    theta = np.array([-0.1, 0.0, 0.1])   # color 2 has no edges at all
    assert bm.variational_norm(theta, mu, lam, cg) == math.inf
    # same support hole via a zero rate
    cg2 = bm.ColorGraph(3, [(0, 1), (1, 0), (1, 2)])
    lam2 = np.array([1.0, 1.0, 0.0])
    assert bm.variational_norm(theta, mu, lam2, cg2) == math.inf


def test_variational_norm_exceeding_reverse_capacity():
    # a one-way edge can absorb reverse flux only up to its own flow w;
    # demanding more makes the ascent unbounded
    cg = bm.ColorGraph(2, [(0, 1)])
    mu = np.array([0.5, 0.5])
    lam = np.array([1.0])
    assert bm.variational_norm(np.array([0.6, -0.6]), mu, lam, cg) == math.inf
    # strictly inside capacity: finite, matches the 1-d conjugate value
    v = bm.variational_norm(np.array([0.1, -0.1]), mu, lam, cg)
    assert v == pytest.approx(0.5 * bm.tau_star(-0.2), rel=1e-8)


def test_variational_norm_two_cycle_scalar_oracle():
    # on a 2-cycle the dual is one-dimensional; minimize it directly
    from scipy.optimize import minimize_scalar

    cg = bm.ColorGraph(2, [(0, 1), (1, 0)])
    mu = np.array([0.3, 0.7])
    lam = np.array([1.4, 0.6])
    w01, w10 = mu[0] * lam[0], mu[1] * lam[1]
    s = 0.25
    theta = np.array([-s, s])

    def obj(x):
        return w01 * bm.tau_star((s + x) / w01) + w10 * bm.tau_star(x / w10)

    res = minimize_scalar(obj, bounds=(-w10 + 1e-12, 5.0), method="bounded",
                          options={"xatol": 1e-12})
    got = bm.variational_norm(theta, mu, lam, cg)
    assert got == pytest.approx(res.fun, rel=1e-7)


def test_variational_norm_tree_duality_exact():
    # on a directed tree the flux realizing theta is unique, so the dual
    # sum is the exact value, for any flux above the reverse capacity
    gen = np.random.default_rng(8)
    for _ in range(25):
        K = int(gen.integers(2, 6))
        parents = [int(gen.integers(0, z)) for z in range(1, K)]
        edges = []
        for z, par in enumerate(parents, start=1):
            edges.append((par, z) if gen.random() < 0.5 else (z, par))
        cg = bm.ColorGraph(K, edges)
        mu = gen.dirichlet(np.ones(K))
        lam = gen.uniform(0.1, 3.0, cg.n_edges)
        w = np.array([mu[z] * lam[e] for e, (z, _) in enumerate(cg.edges)])
        q = w * gen.uniform(-0.95, 3.0, cg.n_edges)
        theta = np.zeros(K)
        for e, (z, zp) in enumerate(cg.edges):
            theta[zp] += q[e]
            theta[z] -= q[e]
        want = dual_value(theta, mu, lam, cg, q)
        got = bm.variational_norm(theta, mu, lam, cg)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-10)


def test_variational_norm_gradient_form_exact():
    # fluxes of the form w (e^{dPhi} - 1) attain the sup at Phi itself,
    # on any color graph
    gen = np.random.default_rng(15)
    for K in (2, 3, 4):
        edges = [(z, zp) for z in range(K) for zp in range(K) if z != zp]
        cg = bm.ColorGraph(K, edges)
        for _ in range(10):
            mu = gen.dirichlet(np.ones(K))
            lam = gen.uniform(0.1, 3.0, cg.n_edges)
            phi = gen.normal(0.0, 1.0, K)
            q, theta = np.empty(cg.n_edges), np.zeros(K)
            for e, (z, zp) in enumerate(cg.edges):
                q[e] = mu[z] * lam[e] * math.expm1(phi[zp] - phi[z])
                theta[zp] += q[e]
                theta[z] -= q[e]
            want = dual_value(theta, mu, lam, cg, q)
            got = bm.variational_norm(theta, mu, lam, cg)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_variational_norm_random_sweep_sandwich():
    # bidirectional chains previously stalled the ascent right at the
    # optimum (gradient plateau below the resolution of the objective);
    # the sweep must finish without NonConvergenceError and land between
    # any primal value and any feasible dual value
    cg = bm.ColorGraph(4, [(0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0)])
    fwd = [cg.edge_index(z, z + 1) for z in range(3)]
    bwd = [cg.edge_index(z + 1, z) for z in range(3)]
    gen = np.random.default_rng(42)
    for _ in range(100):
        theta = gen.normal(0.0, 0.5, 4)
        theta -= theta.mean()
        mu = gen.dirichlet(np.ones(4))
        lam = gen.uniform(0.1, 3.0, 6)
        got = bm.variational_norm(theta, mu, lam, cg)
        assert np.isfinite(got) and got >= 0.0
        # feasible dual point: net pair flux on the matching direction
        q = np.zeros(6)
        run = 0.0
        for i in range(3):
            run -= theta[i]
            if run >= 0.0:
                q[fwd[i]] = run
            else:
                q[bwd[i]] = -run
        assert got <= dual_value(theta, mu, lam, cg, q) + 1e-9
        for _ in range(3):
            phi = gen.normal(0.0, 1.0, 4)
            assert got >= primal_value(theta, mu, lam, cg, phi) - 1e-9


def test_variational_norm_two_components_add_up():
    # two detached 2-cycles: the sup splits into one independent problem
    # per support component, each with its own pinned potential; mass
    # moved between the components is not realizable
    cg = bm.ColorGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    pair = bm.ColorGraph(2, [(0, 1), (1, 0)])
    gen = np.random.default_rng(23)
    for _ in range(20):
        mu = gen.dirichlet(np.ones(4))
        lam = gen.uniform(0.2, 2.0, 4)
        a, b = gen.uniform(-0.1, 0.1, 2)
        got = bm.variational_norm(np.array([-a, a, -b, b]), mu, lam, cg)
        want = (bm.variational_norm(np.array([-a, a]), mu[:2], lam[:2], pair)
                + bm.variational_norm(np.array([-b, b]), mu[2:], lam[2:],
                                      pair))
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-9)
        moved = np.array([-a - 0.05, a, -b + 0.05, b])
        assert bm.variational_norm(moved, mu, lam, cg) == math.inf


@pytest.mark.parametrize("force", ["batched-solve-fails",
                                   "every-solve-fails",
                                   "first-step-downhill"])
def test_newton_fallbacks_reach_the_same_value(monkeypatch, force):
    # the ascent's fallbacks, forced through `np.linalg.solve`: one solve
    # per row after the batched solve fails, lstsq when a row's solve
    # fails too, and the steepest-ascent step when a Newton step points
    # downhill; each must land on the unforced value
    import blockmf.ldp as ldp

    cg = bm.ColorGraph(4, [(z, zp) for z in range(4) for zp in range(4)
                           if z != zp])
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    lam = np.linspace(0.3, 2.5, cg.n_edges)
    theta = np.array([0.15, -0.05, -0.2, 0.1])
    want = bm.variational_norm(theta, mu, lam, cg)
    solve, lstsq = np.linalg.solve, np.linalg.lstsq
    seen = []

    def forced_solve(a, b):
        seen.append(("solve", np.ndim(a)))
        if force == "first-step-downhill":
            step = solve(a, b)
            return -step if len(seen) == 1 else step
        if np.ndim(a) == 3 or force == "every-solve-fails":
            raise np.linalg.LinAlgError("forced")
        return solve(a, b)

    def spied_lstsq(a, b, rcond):
        seen.append(("lstsq", np.ndim(a)))
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(ldp.np.linalg, "solve", forced_solve)
    monkeypatch.setattr(ldp.np.linalg, "lstsq", spied_lstsq)
    got = bm.variational_norm(theta, mu, lam, cg)
    assert want > 0.0 and abs(got - want) <= 1e-12
    per_row = {"batched-solve-fails": ("solve", 2),
               "every-solve-fails": ("lstsq", 2),
               "first-step-downhill": ("solve", 3)}[force]
    assert per_row in seen


# --------------------------------------------------------------------------
# perturbed rates and the Legendre form


def model_flow(T=1.0, dt=0.01):
    fam = bm.sis_spec(1, gamma=1.2, nu=0.5, eta=0.8, zeta=0.6)
    inits = [np.array([0.7, 0.3]), np.array([0.6, 0.4])]
    flow = bm.solve_mckean_vlasov(fam, R1_TARGETS, inits, T, dt)
    return fam, flow


def test_rate_family_validation():
    # the perturbed rates are an array shaped like the flow's model rates,
    # finite and >= 0
    fam, flow = model_flow()
    lam = bm.flow_rates(flow, fam, R1_TARGETS)
    assert lam.shape == (flow.times.size, 2, 2)
    for bad, match in [(-lam, "finite and >= 0"),
                       (np.where(lam > lam.mean(), np.nan, lam),
                        "finite and >= 0"),
                       (np.full_like(lam, np.inf), "finite and >= 0"),
                       (lam[:-1], "shape"), (lam[:, :1], "shape"),
                       (lam[..., None], "shape")]:
        with pytest.raises(bm.InvalidArgumentError, match=match):
            bm.legendre_cost(flow, R1_TARGETS, fam, bad)


def test_legendre_cost_zero_at_model_rates():
    fam, flow = model_flow()
    lam = bm.flow_rates(flow, fam, R1_TARGETS)
    cost = bm.legendre_cost(flow, R1_TARGETS, fam, lam)
    assert cost.total == 0.0
    assert np.all(cost.integrand == 0.0)
    # class weights are alpha_j p_c / alpha_j p_p
    assert np.allclose(cost.weights, [0.5, 0.5])


def test_legendre_cost_switched_off_rates():
    # l = 0 prices every edge at tau*(-1) = 1 exactly: the integrand is
    # the total model flux out of each component
    fam, flow = model_flow(T=0.5, dt=0.05)
    lam = bm.flow_rates(flow, fam, R1_TARGETS)
    cost = bm.legendre_cost(flow, R1_TARGETS, fam, np.zeros_like(lam))
    mu = np.clip(flow.values, 0.0, None)
    src = [z for z, _ in fam.colors.edges]
    want = (mu[:, :, src] * lam).sum(axis=2)
    assert np.allclose(cost.integrand, want, atol=1e-12)
    assert cost.total > 0.0


def test_legendre_cost_guards():
    fam, _ = model_flow(T=0.5, dt=0.05)
    # an absorbing init zeroes the infection rate: ellipticity violated
    dead = bm.solve_mckean_vlasov(
        fam, R1_TARGETS, [np.array([1.0, 0.0]), np.array([1.0, 0.0])],
        0.5, 0.05)
    lam = bm.flow_rates(dead, fam, R1_TARGETS)
    with pytest.raises(bm.AssumptionViolationError):
        bm.legendre_cost(dead, R1_TARGETS, fam, lam)


# --------------------------------------------------------------------------
# variational cost of flows


def test_variational_cost_zero_on_solution(sis2):
    spec, targets, inits = sis2
    flow = bm.solve_mckean_vlasov(spec, targets, inits, 1.0, 0.01)
    cost = bm.variational_cost(flow, targets, spec)
    assert cost.total <= 1e-5
    assert cost.integrand.min() >= 0.0


def test_perturbed_flow_legendre_equals_variational():
    # scale the infection table by c and the cure rate by 1/c: the rate
    # change is e^{Phi(z')-Phi(z)} for Phi = (0, log c), so the Legendre
    # cost of the perturbed flow is attained by the variational sup
    c = 1.6
    base = bm.sis_spec(1, gamma=1.2, nu=0.5, eta=0.8, zeta=0.6)
    cg = base.colors

    def scale(spec):
        return bm.RateSpec(
            cg,
            tuple(tuple(c * x for x in row) for row in spec.gamma_c),
            tuple(tuple(c * x for x in row) for row in spec.gamma_p),
            (spec.beta[0], spec.beta[1] / c),
        )

    tilted = bm.BlockRates(tuple(scale(s) for s in base.central),
                           tuple(scale(s) for s in base.peripheral))
    inits = [np.array([0.7, 0.3]), np.array([0.6, 0.4])]
    flow = bm.solve_mckean_vlasov(tilted, R1_TARGETS, inits, 1.0, 0.004)
    lc = bm.legendre_cost(flow, R1_TARGETS, base,
                          bm.flow_rates(flow, tilted, R1_TARGETS))
    vc = bm.variational_cost(flow, R1_TARGETS, base)
    assert lc.total > 1e-3                       # genuinely tilted
    assert vc.total == pytest.approx(lc.total, rel=2e-4)
    # and the tilted flow is free under its own model
    assert bm.variational_cost(flow, R1_TARGETS, tilted).total <= 1e-5


def test_time_reversed_flow_costs():
    fam, flow = model_flow(T=1.0, dt=0.01)
    rev = bm.MeanFieldFlow(flow.times, flow.values[::-1].copy())
    assert bm.variational_cost(rev, R1_TARGETS, fam).total > 1e-3


def test_deviation_cost_csv():
    fam, flow = model_flow(T=0.2, dt=0.1)
    rates = bm.flow_rates(flow, fam, R1_TARGETS) * 1.3
    cost = bm.legendre_cost(flow, R1_TARGETS, fam, rates)
    buf = io.StringIO()
    cost.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,block,class,integrand"
    assert lines[1].startswith("0,0,c,")
    assert lines[-1].startswith("S_total,")
    assert float(lines[-1].split(",")[1]) == pytest.approx(cost.total)
    assert len(lines) == 2 + 3 * 2


# --------------------------------------------------------------------------
# path densities


def unit_rate_setup(T=2.0):
    """A model whose rates along any flow are exactly 1 on both edges."""
    cg = bm.ColorGraph(2, [(0, 1), (1, 0)])
    spec = bm.RateSpec(cg, [(0.0, 0.0)] * 2, [(0.0, 0.0)] * 2,
                       beta=(1.0, 1.0))
    times = np.linspace(0.0, T, 21)
    vals = np.tile(np.array([[0.6, 0.4], [0.5, 0.5]]), (21, 1, 1))
    return spec, bm.MeanFieldFlow(times, vals)


def test_girsanov_reference_rates_give_zero():
    spec, flow = unit_rate_setup()
    paths = [bm.sample_reference_path(spec.colors, 0, flow.T, seed=s)
             for s in range(20)]
    h = bm.girsanov_log_densities(paths, flow, R1_TARGETS, spec, (0, "c"))
    assert np.allclose(h, 0.0, atol=1e-12)


def test_girsanov_no_jump_closed_form():
    s, T = 1.7, 1.3
    cg = bm.ColorGraph(2, [(0, 1)])
    spec = bm.RateSpec(cg, [(0.0, 0.0)], [(0.0, 0.0)], beta=(s,))
    times = np.linspace(0.0, T, 11)
    vals = np.tile(np.array([[0.6, 0.4], [0.5, 0.5]]), (11, 1, 1))
    flow = bm.MeanFieldFlow(times, vals)
    still = bm.ColorPath(np.array([]), np.array([0]), T)
    h = bm.girsanov_log_densities([still], flow, R1_TARGETS, spec, (0, 0))[0]
    assert h == pytest.approx(-(s - 1.0) * T, abs=1e-12)
    # a single jump adds log s at the jump and stops the compensator
    # (color 1 has no out-edges)
    t0 = 0.4
    one = bm.ColorPath(np.array([t0]), np.array([0, 1]), T)
    h1 = bm.girsanov_log_densities([one], flow, R1_TARGETS, spec, (0, 0))[0]
    assert h1 == pytest.approx(math.log(s) - (s - 1.0) * t0, abs=1e-12)


def test_girsanov_jump_at_the_horizon_closed_form():
    # the last jump sits at the horizon, so the compensator's last
    # segment [T, T] is empty and adds nothing, although its colour has
    # an out-edge
    s, u, T, t0 = 1.7, 0.6, 1.3, 0.4
    cg = bm.ColorGraph(2, [(0, 1), (1, 0)])
    spec = bm.RateSpec(cg, [(0.0, 0.0)] * 2, [(0.0, 0.0)] * 2, beta=(s, u))
    times = np.linspace(0.0, T, 11)
    vals = np.tile(np.array([[0.6, 0.4], [0.5, 0.5]]), (11, 1, 1))
    flow = bm.MeanFieldFlow(times, vals)
    path = bm.ColorPath(np.array([t0, T]), np.array([0, 1, 0]), T)
    h = bm.girsanov_log_densities([path], flow, R1_TARGETS, spec, (0, 0))[0]
    assert h == pytest.approx(math.log(s * u) - (s - 1.0) * t0
                              - (u - 1.0) * (T - t0), abs=1e-12)


def test_girsanov_impossible_jumps():
    spec, flow = unit_rate_setup()
    back = bm.ColorPath(np.array([0.5]), np.array([1, 0]), flow.T)
    ok = bm.girsanov_log_densities([back], flow, R1_TARGETS, spec, (0, 1))[0]
    assert np.isfinite(ok)
    cg1 = bm.ColorGraph(2, [(0, 1)])
    spec1 = bm.RateSpec(cg1, [(0.0, 0.0)], [(0.0, 0.0)], beta=(1.0,))
    h = bm.girsanov_log_densities([back], flow, R1_TARGETS, spec1, (0, 1))[0]
    assert h == -math.inf
    # zero model rate on an existing edge also kills the density
    spec0 = bm.RateSpec(cg1, [(0.0, 0.0)], [(0.0, 0.0)], beta=(0.0,))
    fwd = bm.ColorPath(np.array([0.5]), np.array([0, 1]), flow.T)
    assert bm.girsanov_log_densities([fwd], flow, R1_TARGETS, spec0,
                                     (0, 0))[0] == -math.inf


def test_girsanov_normalization_middle_color():
    # E_ref[e^h] = 1; the start color has two outgoing edges, so the
    # compensator must subtract 1 per edge, not 1 per color
    q = bm.queue_spec(3, zeta=1.3, vartheta=0.7, h_coefficient=0.3)
    inits = [np.array([0.3, 0.4, 0.3]), np.array([0.5, 0.3, 0.2])]
    flow = bm.solve_mckean_vlasov(q, R1_TARGETS, inits, 1.5, 0.005)
    n = 3000
    paths = [bm.sample_reference_path(q.colors, 1, flow.T, seed=s)
             for s in range(n)]
    h = bm.girsanov_log_densities(paths, flow, R1_TARGETS, q, (0, "p"))
    weights = np.exp(h)
    se = weights.std(ddof=1) / math.sqrt(n)
    assert abs(weights.mean() - 1.0) <= 4.0 * se
    assert se < 0.1


def test_girsanov_argument_guards():
    spec, flow = unit_rate_setup()
    path = bm.ColorPath(np.array([]), np.array([0]), flow.T + 1.0)
    with pytest.raises(bm.InvalidArgumentError, match="horizon"):
        bm.girsanov_log_densities([path], flow, R1_TARGETS, spec, (0, 0))
    with pytest.raises(bm.InvalidArgumentError, match="component"):
        bm.girsanov_log_densities([path], flow, R1_TARGETS, spec, (1, 0))


@pytest.mark.parametrize("which", [(0.5, "c"), (0.0, 0), (False, "c"),
                                   (0, 1.0), (0, True)],
                         ids=["block-0.5", "block-0.0", "block-False",
                              "class-1.0", "class-True"])
def test_girsanov_non_integer_component_is_no_component(which):
    spec, flow = unit_rate_setup()
    path = bm.ColorPath(np.array([]), np.array([0]), flow.T)
    with pytest.raises(bm.InvalidArgumentError, match="^no component"):
        bm.girsanov_log_densities([path], flow, R1_TARGETS, spec, which)


@pytest.mark.parametrize("colors", [
    [0.4, 1.6],  # truncated, the path 0 -> 1
    [-1, 0],     # read as colour K-1
    [5, 0],      # past the rate table
    [0, 2],
    [0],         # one colour short of the jump
    [0, 1, 0],   # one colour past it
], ids=["float", "start-negative", "start-5", "jump-to-K", "short", "long"])
def test_girsanov_bad_path_colors_fail_closed(colors):
    spec, flow = unit_rate_setup()
    path = bm.ColorPath(np.array([0.5]), np.array(colors), flow.T)
    with pytest.raises(bm.InvalidArgumentError, match="^path colors must"):
        bm.girsanov_log_densities([path], flow, R1_TARGETS, spec, (0, 0))


@pytest.mark.parametrize("jump_times", [
    [1.5, 0.5], [0.5, 0.5], [-1.0, 0.5], [0.0, 0.5], [0.5, 3.0],
    [float("nan"), 0.5], [0.5, float("inf")],
], ids=["out-of-order", "tie", "negative", "at-zero", "past-horizon", "nan",
        "inf"])
def test_girsanov_bad_jump_times_fail_closed(jump_times):
    spec, flow = unit_rate_setup()
    path = bm.ColorPath(np.array(jump_times), np.array([0, 1, 0]), flow.T)
    with pytest.raises(bm.InvalidArgumentError, match="^path jump times"):
        bm.girsanov_log_densities([path], flow, R1_TARGETS, spec, (0, 0))


@pytest.mark.parametrize("horizon", [float("nan"), -1.0],
                         ids=["nan", "negative"])
def test_girsanov_bad_horizon_fails_closed(horizon):
    spec, flow = unit_rate_setup()
    path = bm.ColorPath(np.array([]), np.array([0]), horizon)
    with pytest.raises(bm.InvalidArgumentError, match="^path horizon"):
        bm.girsanov_log_densities([path], flow, R1_TARGETS, spec, (0, 0))


def test_refused_library_value_is_quoted_short():
    # each message held the whole value: 4,033 characters for a seed word
    # of 4,001 digits, 160,978 for 5,000 jump times
    huge = -10 ** 4000
    spec, flow = unit_rate_setup()
    colors = bm.ColorGraph(2, [(0, 1), (1, 0)])
    times = np.linspace(0.0001, 0.5, 5000)

    def densities(which=(0, 0), jump_times=(), path_colors=(0,),
                  horizon=flow.T):
        path = bm.ColorPath(jump_times, path_colors, horizon)
        return bm.girsanov_log_densities([path], flow, R1_TARGETS, spec,
                                         which)

    for call, needle in (
            (lambda: bm.substream(5, huge), "seed words must be >= 0"),
            (lambda: bm.sample_reference_path(colors, huge, 1.0, 0),
             "initial color"),
            (lambda: densities(which=(huge, "c")), "no component"),
            (lambda: densities(which=[huge] * 5000), "no component"),
            (lambda: densities(horizon=huge), "path horizon"),
            (lambda: densities(horizon=1e300), "path horizon"),
            (lambda: densities(jump_times=times[::-1].tolist(),
                               path_colors=[0, 1] * 2500 + [0]),
             "path jump times"),
            (lambda: densities(jump_times=times.tolist(),
                               path_colors=[0, 1] * 2500 + [2]),
             "path colors"),
            (lambda: bm.ColorGraph(2, [(0, huge)]), "outside 0..1"),
            (lambda: bm.ColorGraph(2, [(huge, huge)]), "self-loop edge"),
            (lambda: bm.BlockGraph([(2, 3)], [(2, huge)]), "out of range"),
            (lambda: bm.BlockGraph([(2, 3)], [(huge, huge)]), "self-loop"),
            (lambda: bm.build_complete_peripheral([(huge, 3)]),
             "every block needs"),
            (lambda: bm.sis_spec(huge, 0.8, 0.5, 0.6, 0.7), "r must be")):
        with pytest.raises(bm.ValidationError, match=needle) as info:
            call()
        assert len(str(info.value)) < 200, (needle, len(str(info.value)))


@pytest.mark.parametrize("which", [0, (0,), (0, 0, 1), "c"],
                         ids=["int", "single", "triple", "string"])
def test_girsanov_which_not_a_pair_is_no_component(which):
    spec, flow = unit_rate_setup()
    path = bm.ColorPath(np.array([]), np.array([0]), flow.T)
    with pytest.raises(bm.InvalidArgumentError, match="^no component"):
        bm.girsanov_log_densities([path], flow, R1_TARGETS, spec, which)


@pytest.mark.parametrize("cls", ["x", "cp", "", 2, None])
def test_bad_class_label_is_an_argument_error(small_graph, cls):
    # the labels are one map, read by the densities, the tagged-node
    # resolver and the scenario
    assert [class_index(c) for c in CLASS_LABELS] == [bm.CENTRAL,
                                                      bm.PERIPHERAL]
    assert class_index(cls) is None
    spec, flow = unit_rate_setup()
    path = bm.ColorPath(np.array([]), np.array([0]), flow.T)
    with pytest.raises(bm.InvalidArgumentError, match="component"):
        bm.girsanov_log_densities([path], flow, R1_TARGETS, spec, (0, cls))
    with pytest.raises(bm.InvalidArgumentError, match="names no class"):
        resolve_tagged(small_graph, [(0, cls)])


def test_h_functional_weighting():
    spec, flow = unit_rate_setup()
    gen = np.random.default_rng(3)
    paths_c = [bm.sample_reference_path(spec.colors, 0, flow.T, gen)
               for _ in range(5)]
    paths_p = [bm.sample_reference_path(spec.colors, 1, flow.T, gen)
               for _ in range(7)]
    hc = bm.girsanov_log_densities(paths_c, flow, R1_TARGETS, spec, (0, 0))
    hp = bm.girsanov_log_densities(paths_p, flow, R1_TARGETS, spec, (0, 1))
    got = bm.h_functional([paths_c, paths_p], flow, R1_TARGETS, spec,
                          class_sizes=(30, 70))
    assert got == pytest.approx(0.3 * hc.mean() + 0.7 * hp.mean(), abs=1e-12)
    # empty classes contribute nothing
    got_c = bm.h_functional([paths_c, []], flow, R1_TARGETS, spec, (30, 70))
    assert got_c == pytest.approx(0.3 * hc.mean(), abs=1e-12)
    with pytest.raises(bm.InvalidArgumentError):
        bm.h_functional([paths_c, paths_p], flow, R1_TARGETS, spec, (30,))
    with pytest.raises(bm.InvalidArgumentError):
        bm.h_functional([[], []], flow, R1_TARGETS, spec, (30, 70))
    with pytest.raises(bm.InvalidArgumentError):
        bm.h_functional([paths_c, paths_p], flow, R1_TARGETS, spec, (0, 0))


@pytest.mark.parametrize("sizes", [(np.nan, 70), (30, np.inf)],
                         ids=["nan", "inf"])
def test_h_functional_rejects_non_finite_sizes(sizes):
    # a nan or infinite size passed the sign check and made h nan, with a
    # RuntimeWarning
    spec, flow = unit_rate_setup()
    paths = [bm.sample_reference_path(spec.colors, 0, flow.T, seed=s)
             for s in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bm.InvalidArgumentError,
                           match="finite nonnegative counts"):
            bm.h_functional([paths, paths], flow, R1_TARGETS, spec, sizes)


def test_sample_reference_path():
    cg = bm.ColorGraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    a = bm.sample_reference_path(cg, 1, 5.0, seed=4)
    b = bm.sample_reference_path(cg, 1, 5.0, seed=4)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.colors, b.colors)
    assert len(a.jump_times) > 0
    assert np.all(np.diff(a.jump_times) > 0)
    assert a.jump_times[-1] < 5.0
    edges = set(cg.edges)
    for k in range(len(a.jump_times)):
        assert (int(a.colors[k]), int(a.colors[k + 1])) in edges
    with pytest.raises(bm.InvalidArgumentError):
        bm.sample_reference_path(cg, 3, 1.0, seed=0)
    # an absorbing color ends the walk
    cg2 = bm.ColorGraph(2, [(0, 1)])
    p = bm.sample_reference_path(cg2, 0, 50.0, seed=1)
    assert len(p.jump_times) <= 1


@pytest.mark.parametrize("z0", [1.5, np.float64(1.0), True, "1"])
def test_reference_path_start_color_is_an_integer(z0):
    cg = bm.ColorGraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    with pytest.raises(bm.InvalidArgumentError,
                       match="^initial color must be an integer, got "):
        bm.sample_reference_path(cg, z0, 1.0, seed=0)


# --------------------------------------------------------------------------
# the variational norm against a per-row scalar reference


def scalar_norm(theta, mu_point, lam, colors, grad_tol=1e-10, max_iter=200):
    """Damped Newton on one (theta, mu, lambda) row with Python-level
    scatter-adds, one row at a time: the reference the batched solver
    must reproduce, exit for exit."""
    from blockmf.ldp import PHI_CAP, _component_roots

    K = colors.K
    if abs(float(theta.sum())) > 1e-10:
        return math.inf
    w_all = mu_point[colors.src] * lam
    act = w_all > 0.0
    src, dst, w = colors.src[act], colors.dst[act], w_all[act]
    roots = _component_roots(K, src, dst)
    if np.any(np.abs(np.bincount(roots, theta, minlength=K)) > grad_tol):
        return math.inf
    free = np.flatnonzero(roots != np.arange(K))
    if free.size == 0:
        return 0.0
    phi = np.zeros(K)

    def objective(p):
        with np.errstate(over="ignore"):
            d = p[dst] - p[src]
            t = np.expm1(d) - d
        if not np.all(np.isfinite(t)):
            return -math.inf
        return float(theta @ p - w @ t)

    F = objective(phi)
    grad_norms = []
    for _ in range(max_iter):
        d = phi[dst] - phi[src]
        ed = np.exp(d)
        flow_e = w * (ed - 1.0)
        g = theta.copy()
        np.subtract.at(g, dst, flow_e)
        np.add.at(g, src, flow_e)
        gn = float(np.max(np.abs(g[free])))
        grad_norms.append(gn)
        if gn < grad_tol:
            return max(float(F), 0.0)
        H = np.zeros((K, K))
        h = w * ed
        np.add.at(H, (dst, dst), h)
        np.add.at(H, (src, src), h)
        np.subtract.at(H, (dst, src), h)
        np.subtract.at(H, (src, dst), h)
        Hr = H[np.ix_(free, free)]
        gr = g[free]
        reg = 1e-12 * max(1.0, float(Hr.diagonal().max()))
        step = np.linalg.solve(Hr + reg * np.eye(free.size), gr)
        direction = np.zeros(K)
        direction[free] = step
        slope = float(g @ direction)
        stall = 100.0 * np.finfo(float).eps * max(1.0, abs(F))
        if abs(slope) <= stall:
            return max(float(F), 0.0)
        if slope < 0.0:
            direction = np.zeros(K)
            direction[free] = gr
            slope = float(gr @ gr)
            if slope <= stall:
                return max(float(F), 0.0)
        alpha = 1.0
        accepted = False
        while alpha > 1e-14:
            Fn = objective(phi + alpha * direction)
            if Fn >= F + 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        phi = phi + alpha * direction
        F = Fn
        if float(np.max(np.abs(phi))) > PHI_CAP:
            return math.inf
    raise bm.NonConvergenceError("reference ascent did not converge",
                                 residuals=grad_norms)


# two-way pair 0<->1, one-way 1->2 into the two-way pair 2<->3, and a
# colour 4 that only leaks into 0: mixed one- and two-way support
MIXED_CG = bm.ColorGraph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2),
                             (4, 0)])


def mixed_rows(gen, n):
    """(theta, mu, lambda) rows on MIXED_CG covering every exit of the
    solver: finite gradient-form fluxes, zero mu and zero lambda entries
    (so the active-edge pattern changes from row to row), theta mass on a
    detached colour, reverse flux beyond a one-way edge's capacity, zero
    theta and theta with net mass."""
    cg = MIXED_CG
    rows = []
    for i in range(n):
        mu = gen.dirichlet(np.ones(cg.K))
        lam = gen.uniform(0.1, 3.0, cg.n_edges)
        kind = i % 8
        if kind == 1:
            mu[gen.integers(cg.K)] = 0.0          # zero mu
        elif kind == 2:
            lam[gen.integers(cg.n_edges)] = 0.0   # zero lambda
        w = mu[cg.src] * lam
        phi = gen.normal(0.0, 0.7, cg.K)
        flux = w * np.expm1(phi[cg.dst] - phi[cg.src])
        theta = np.zeros(cg.K)
        np.add.at(theta, cg.dst, flux)
        np.subtract.at(theta, cg.src, flux)
        if kind == 3:                             # detached theta mass
            mu[4] = 0.0
            theta = np.array([0.05, 0.0, 0.0, 0.0, -0.05])
        elif kind == 4:                           # beyond reverse capacity
            e = cg.edge_index(1, 2)
            a = w[e] * gen.uniform(1.05, 3.0)
            theta = np.array([0.0, a, -a, 0.0, 0.0])
        elif kind == 5:                           # inside reverse capacity
            e = cg.edge_index(1, 2)
            a = w[e] * gen.uniform(0.1, 0.9)
            theta = np.array([0.0, a, -a, 0.0, 0.0])
        elif kind == 6:
            theta = np.zeros(cg.K)
        elif kind == 7:                           # net mass
            theta[0] += 1e-6 * gen.uniform(1.0, 2.0)
        elif kind == 0:                           # random zero-sum theta
            theta = gen.normal(0.0, 0.05, cg.K)
            theta -= theta.mean()
        rows.append((theta, mu, lam))
    return rows


def assert_matches_reference(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= 1e-12 * np.abs(want[fin]))


def test_variational_norm_matches_scalar_reference():
    rows = mixed_rows(np.random.default_rng(91), 400)
    want = [scalar_norm(t, m, l, MIXED_CG) for t, m, l in rows]
    got = [bm.variational_norm(t, m, l, MIXED_CG) for t, m, l in rows]
    assert_matches_reference(got, want)
    want = np.asarray(want)
    assert np.isinf(want).any() and (want == 0.0).any()
    assert (np.isfinite(want) & (want > 0.0)).sum() > 100


def test_variational_norm_max_iter_one_raises(monkeypatch):
    from blockmf import ldp

    theta, mu, lam = mixed_rows(np.random.default_rng(5), 1)[0]
    monkeypatch.setattr(ldp, "MAX_NEWTON", 1)
    with pytest.raises(bm.NonConvergenceError) as exc:
        bm.variational_norm(theta, mu, lam, MIXED_CG)
    assert len(exc.value.residuals) == 1
    with pytest.raises(bm.NonConvergenceError):
        scalar_norm(theta, mu, lam, MIXED_CG, max_iter=1)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_variational_cost_matches_scalar_reference(seed):
    # a random model's own flow, bent in time and with colours emptied at
    # some grid points, so one variational_cost call sees finite, zero
    # and infinite rows under many active-edge patterns
    gen = np.random.default_rng(seed)
    r, K = 2, 4
    fam = random_rate_family(gen, r, K)
    targets = random_targets(gen, r)
    flow = bm.solve_mckean_vlasov(fam, targets, random_inits(gen, r, K),
                                  1.0, 0.05)
    n = flow.times.size
    bend = 1.0 + 0.2 * np.sin(np.outer(flow.times, gen.uniform(1, 4, K)))
    vals = flow.values * bend[:, None, :]
    empty = gen.random(vals.shape) < 0.15
    vals[empty] = 0.0
    vals /= vals.sum(axis=2, keepdims=True)
    vals[n // 2, 1] *= 1.0 + 1e-6                 # net mass at one point
    bent = bm.MeanFieldFlow(flow.times, vals)

    got = bm.variational_cost(bent, targets, fam).integrand
    dmu = np.empty_like(vals)
    dmu[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * bent.dt)
    dmu[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * bent.dt)
    dmu[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * bent.dt)
    theta = dmu - bm.flow_drift(bent, fam, targets)
    lam = bm.flow_rates(bent, fam, targets)
    mu = np.clip(vals, 0.0, None)
    want = np.array([[scalar_norm(theta[i, g], mu[i, g], lam[i, g],
                                  fam.colors)
                      for g in range(2 * r)] for i in range(n)])
    assert_matches_reference(got, want)
    assert np.isinf(want).any() and np.isfinite(want).sum() > 10


@pytest.mark.parametrize("chunk", [7, 1024])
def test_batched_norms_match_scalar_reference(chunk, monkeypatch):
    # one batch holding every kind of row, split into several chunks per
    # active-edge pattern when the chunk is small
    from blockmf import ldp

    monkeypatch.setattr(ldp, "_NEWTON_CHUNK", chunk)
    rows = mixed_rows(np.random.default_rng(chunk), 300)
    theta, mu, lam = (np.array(col) for col in zip(*rows))
    want = [scalar_norm(t, m, l, MIXED_CG) for t, m, l in rows]
    got, counts = ldp._variational_norms(theta, mu, lam, MIXED_CG)
    assert_matches_reference(got, want)
    assert counts[0] > 0 and counts[2] > 0
    # MAX_NEWTON=1: rows whose zero potential is already optimal, or that
    # are infinite before any ascent, still return; the others run out
    # of iterations, and the error reports the first of them with its
    # one gradient norm
    monkeypatch.setattr(ldp, "MAX_NEWTON", 1)
    with pytest.raises(bm.NonConvergenceError) as exc:
        ldp._variational_norms(theta, mu, lam, MIXED_CG)
    for row in rows:
        try:
            scalar_norm(*row, MIXED_CG, max_iter=1)
        except bm.NonConvergenceError as ref:
            assert exc.value.residuals == ref.residuals
            break
    else:
        pytest.fail("no row needs a second iteration")


def test_variational_cost_counters(caplog):
    import logging

    fam, flow = model_flow(T=1.0, dt=0.01)
    rev = bm.MeanFieldFlow(flow.times, flow.values[::-1].copy())
    with caplog.at_level(logging.DEBUG, logger="blockmf.ldp"):
        cost = bm.variational_cost(rev, R1_TARGETS, fam)
    n = cost.integrand.size
    assert cost.newton_iterations >= n
    assert cost.infinite == np.isinf(cost.integrand).sum()
    assert caplog.messages == [
        f"variational_cost: {n} norms, {cost.newton_iterations} Newton "
        f"iterations, {cost.halvings} halvings, {cost.stall_exits} stall "
        f"exits, {cost.infinite} infinite"]
    # the counters stay out of the CSV
    buf = io.StringIO()
    cost.to_csv(buf)
    assert buf.getvalue().count("\n") == 2 + n
