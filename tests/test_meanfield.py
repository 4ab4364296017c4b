import io

import numpy as np
import pytest

import blockmf as bm
from blockmf.meanfield import _VectorField
from conftest import (list_affine_rows, random_rate_family,
                      random_targets)

R1_TARGETS = bm.ProportionTargets((0.5,), (0.4,), ((0.6,),), (1.0,))


def test_generator_c_worked_number():
    fam = bm.sis_spec(1, gamma=2.0, nu=1.0, eta=0.6, zeta=0.9)
    A = bm.generator_c(fam.central[0], (0.7, 0.3), (0.2, 0.8), 0.5, 0.5)
    assert np.allclose(A, [[-0.7, 0.7], [0.9, -0.9]])
    assert np.allclose(A.sum(axis=1), 0.0)
    with pytest.raises(bm.InvalidArgumentError):
        bm.generator_c(fam.central[0], (0.7, 0.3), (0.2, 0.8), 0.5, 0.6)


def test_generator_p_validation():
    fam = bm.sis_spec(2, gamma=1.0, nu=0.5, eta=0.6, zeta=0.3)
    spec = fam.peripheral[0]
    mus = [(0.5, 0.5), (0.9, 0.1)]
    A = bm.generator_p(spec, (0.4, 0.6), mus, 0.5, (0.25, 0.25))
    assert np.allclose(A.sum(axis=1), 0.0)
    assert A[0, 1] == pytest.approx(
        0.5 * 0.5 * 0.6 + 0.6 * (0.25 * 0.5 + 0.25 * 0.1))
    with pytest.raises(bm.InvalidArgumentError):
        bm.generator_p(spec, (0.4, 0.6), mus[:1], 0.5, (0.25, 0.25))
    with pytest.raises(bm.InvalidArgumentError):
        bm.generator_p(spec, (0.4, 0.6), mus, 0.6, (0.25, 0.25))


def test_solver_conserves_mass(sis2):
    spec, targets, inits = sis2
    flow = bm.solve_mckean_vlasov(spec, targets, inits, T=3.0, dt=0.01)
    mass = flow.values.sum(axis=2)
    assert np.abs(mass - 1.0).max() <= 1e-12
    assert flow.values.min() >= -1e-12
    assert flow.times[0] == 0.0 and flow.times[-1] == 3.0


def test_solver_fourth_order(sis2):
    spec, targets, inits = sis2
    ref = bm.solve_mckean_vlasov(spec, targets, inits, 1.0, 0.05 / 16)
    e = []
    for dt in (0.05, 0.025):
        flow = bm.solve_mckean_vlasov(spec, targets, inits, 1.0, dt)
        e.append(np.abs(flow.values[-1] - ref.values[-1]).max())
    ratio = e[0] / e[1]
    assert 10.0 < ratio < 30.0


def test_non_interacting_closed_form():
    # gamma == 0 makes every component an independent two-state chain:
    # p1(t) = a/(a+b) + (p1(0) - a/(a+b)) exp(-(a+b) t)
    a, b, T = 0.7, 0.4, 2.0
    cg = bm.ColorGraph(2, [(0, 1), (1, 0)])
    spec = bm.RateSpec(cg, [(0.0, 0.0)] * 2, [(0.0, 0.0)] * 2, beta=(a, b))
    inits = [np.array([0.9, 0.1]), np.array([0.3, 0.7])]
    flow = bm.solve_mckean_vlasov(spec, R1_TARGETS, inits, T, 0.002)
    for g in range(2):
        p_inf = a / (a + b)
        want = p_inf + (inits[g][1] - p_inf) * np.exp(-(a + b) * T)
        assert flow.values[-1, g, 1] == pytest.approx(want, abs=1e-10)


def test_picard_matches_rk4(sis2):
    spec, targets, inits = sis2
    direct = bm.solve_mckean_vlasov(spec, targets, inits, 2.0, 0.01)
    flow, residuals = bm.picard_iterate(spec, targets, inits, 2.0, 0.01,
                                        tol=1e-9)
    assert np.abs(flow.values - direct.values).max() <= 1e-6
    assert residuals[-1] < 1e-9
    # contraction: strictly decreasing after the first sweep
    for i in range(1, len(residuals) - 1):
        assert residuals[i + 1] < residuals[i]
    # warm start from the answer converges immediately
    _, res2 = bm.picard_iterate(spec, targets, inits, 2.0, 0.01, tol=1e-7,
                                initial_flow=flow)
    assert len(res2) <= 2


def test_picard_nonconvergence(sis2):
    spec, targets, inits = sis2
    with pytest.raises(bm.NonConvergenceError) as exc:
        bm.picard_iterate(spec, targets, inits, 2.0, 0.05, tol=1e-14,
                          max_iter=2)
    assert len(exc.value.residuals) == 2


def test_flow_interpolation_and_clipping():
    times = np.array([0.0, 1.0, 2.0])
    vals = np.array([[[1.0, 0.0]], [[0.5, 0.5]], [[-1e-15, 1.0]]])
    flow = bm.MeanFieldFlow(times, vals, r=None)
    mid = flow.at(0.5)
    assert np.allclose(mid, [[0.75, 0.25]])
    assert flow.at(2.0)[0, 0] == 0.0   # clipped on read
    assert flow.at(-1e-13) is not None  # tolerance at the ends
    with pytest.raises(bm.InvalidArgumentError):
        flow.at(2.5)
    assert np.allclose(flow.component(0, 0)[2], [0.0, 1.0])


def test_flow_csv_round_trip(sis2):
    spec, targets, inits = sis2
    flow = bm.solve_mckean_vlasov(spec, targets, inits, 1.0, 0.1)
    buf = io.StringIO()
    flow.to_csv(buf)
    buf.seek(0)
    back = bm.MeanFieldFlow.from_csv(buf)
    assert back.r == flow.r
    assert np.allclose(back.times, flow.times)
    assert np.allclose(back.values, flow.values)
    with pytest.raises(bm.InvalidArgumentError, match="header"):
        bm.MeanFieldFlow.from_csv(io.StringIO("time,mass\n"))
    partial = "t,block,class,color,mass\n0,0,c,0,1.0\n"
    with pytest.raises(bm.InvalidArgumentError):
        bm.MeanFieldFlow.from_csv(io.StringIO(partial))


def test_flow_rates_and_drift(sis2):
    spec, targets, inits = sis2
    flow = bm.solve_mckean_vlasov(spec, targets, inits, 1.0, 0.05)
    rates = bm.flow_rates(flow, spec, targets)
    drift = bm.flow_drift(flow, spec, targets)
    n = flow.times.size
    assert rates.shape == (n, 4, 2)
    assert drift.shape == (n, 4, 2)
    assert rates.min() >= 0.0
    # the drift moves mass around without creating any
    assert np.abs(drift.sum(axis=2)).max() <= 1e-12
    # cross-check one entry against the generator at t=0
    A = bm.generator_c(spec.central[0], inits[0], inits[1],
                       targets.p_c[0], targets.p_p[0])
    assert rates[0, 0, spec.colors.edge_index(0, 1)] == pytest.approx(A[0, 1])


def test_grid_validation(sis2):
    spec, targets, inits = sis2
    with pytest.raises(bm.InvalidArgumentError):
        bm.solve_mckean_vlasov(spec, targets, inits, 0.0, 0.01)
    with pytest.raises(bm.InvalidArgumentError):
        bm.solve_mckean_vlasov(spec, targets, inits, 1.0, -0.1)
    with pytest.raises(bm.InvalidArgumentError, match="2r"):
        bm.solve_mckean_vlasov(spec, targets, inits[:3], 1.0, 0.1)
    # dt that does not divide T is shrunk so the grid still ends at T
    flow = bm.solve_mckean_vlasov(spec, targets, inits, 1.0, 0.3)
    assert flow.times[-1] == 1.0 and flow.times.size == 5


def test_color_path_accessors():
    path = bm.ColorPath(np.array([0.5, 1.5]), np.array([0, 1, 0]), 2.0)
    assert path.n_jumps == 2
    assert path.color_at(0.0) == 0
    assert path.color_at(0.5) == 1   # cadlag: jump time reads the new color
    assert path.color_at(1.0) == 1
    assert path.color_at(1.9) == 0


def test_limit_particle_matches_flow():
    fam = bm.sis_spec(1, gamma=1.2, nu=0.5, eta=0.8, zeta=0.6)
    inits = [np.array([1.0, 0.0]), np.array([0.8, 0.2])]
    T = 1.5
    flow = bm.solve_mckean_vlasov(fam, R1_TARGETS, inits, T, 0.005)
    n = 3000
    hits = np.zeros(2)
    for s in range(n):
        paths = bm.simulate_limit_particle(fam, R1_TARGETS, flow, [0, 0],
                                           seed=s)
        for g in (0, 1):
            hits[g] += paths[g].color_at(T)
    # starting from color 0 (an atom of neither init), compare against the
    # conditional law: here inits put mass on 0, so the path marginal of a
    # particle started at 0 is the flow conditioned on starting at 0; for
    # component 0 the init is a point mass and the flow itself applies
    p0 = flow.at(T)[0, 1]
    se0 = np.sqrt(p0 * (1 - p0) / n)
    assert abs(hits[0] / n - p0) <= 4 * se0


def test_limit_particle_determinism(sis2):
    spec, targets, inits = sis2
    flow = bm.solve_mckean_vlasov(spec, targets, inits, 1.0, 0.01)
    a = bm.simulate_limit_particle(spec, targets, flow, [0, 1, 0, 1], seed=9)
    b = bm.simulate_limit_particle(spec, targets, flow, [0, 1, 0, 1], seed=9)
    assert len(a) == 4
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.jump_times, pb.jump_times)
        assert np.array_equal(pa.colors, pb.colors)
    with pytest.raises(bm.InvalidArgumentError):
        bm.simulate_limit_particle(spec, targets, flow, [0, 1], seed=9)


# --------------------------------------------------------------------------
# the fixed-point sweep against a step-by-step reference


def stepwise_frozen_solve(field, frozen, y0, dt):
    """One sweep as a plain RK4 loop with a `drift` call per stage and the
    mass renormalised after every step: the reference the batched sweep
    must reproduce."""
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
    out = np.empty_like(frozen)
    y = y0.copy()
    out[0] = y.reshape(2 * r, K)
    for i in range(n1 - 1):
        k1 = field.drift(R_grid[i], y)
        k2 = field.drift(R_mid[i], y + 0.5 * dt * k1)
        k3 = field.drift(R_mid[i], y + 0.5 * dt * k2)
        k4 = field.drift(R_grid[i + 1], y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise bm.NumericalBlowupError("non-finite flow in fixed-point "
                                          "sweep")
        comps = y.reshape(2 * r, K)
        comps -= ((comps.sum(axis=1) - 1.0) / K)[:, None]
        out[i + 1] = comps
    return out


def queue6_model():
    spec = bm.queue_spec(6, zeta=[1.2, 1.1, 1.0, 0.9, 0.8, 0.7],
                         vartheta=[0.0, 1.0, 1.1, 1.2, 1.3, 1.4],
                         h_coefficient=0.3)
    targets = bm.ProportionTargets(
        p_c=(0.4, 0.6), alpha_c=(0.3, 0.25), q=((0.35, 0.35), (0.3, 0.45)),
        alpha=(0.5, 0.5))
    inits = [np.array(m) for m in (
        [0.5, 0.2, 0.1, 0.1, 0.05, 0.05], [0.6, 0.2, 0.1, 0.05, 0.03, 0.02],
        [0.3, 0.3, 0.2, 0.1, 0.05, 0.05], [0.2, 0.2, 0.2, 0.2, 0.1, 0.1])]
    return spec, targets, inits


@pytest.mark.parametrize("model", ["sis2", "queue6"])
@pytest.mark.parametrize("steps", [1, 2, 3, 300, 601])
def test_frozen_sweep_matches_stepwise_reference(model, steps, request):
    # 1-3 steps take the linear-midpoint branch (fewer than 4 grid
    # points) or sit at its edge; 300 and 601 steps are not multiples of
    # any power-of-two chunk of grid steps
    from blockmf.meanfield import _frozen_solve

    spec, targets, inits = (request.getfixturevalue("sis2")
                            if model == "sis2" else queue6_model())
    T = 0.004 * steps
    direct = bm.solve_mckean_vlasov(spec, targets, inits, T, 0.004)
    field = _VectorField(spec, targets)
    y0 = np.concatenate(inits)
    gen = np.random.default_rng(steps)
    # a frozen flow off the fixed point, so the sweep moves it
    frozen = direct.values * gen.uniform(0.9, 1.1, direct.values.shape)
    frozen /= frozen.sum(axis=2, keepdims=True)
    dt = direct.dt
    want = stepwise_frozen_solve(field, frozen, y0, dt)
    got = _frozen_solve(field, frozen, y0, dt)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13
    assert np.array_equal(got[0], y0.reshape(want.shape[1:]))


def list_vector_field(family, targets):
    """W, beta, src and S of the limit field from the list compile, W
    filled entry by entry."""
    r = targets.r
    cg = family.colors
    K, ne = cg.K, cg.n_edges
    readers = []
    for j in range(r):
        readers.append(((j, 0), {2 * j: (targets.p_c[j], 0),
                                 2 * j + 1: (targets.p_p[j], 1)}))
        reads = {2 * j: (targets.alpha_c[j], 0)}
        for i in range(r):
            reads[2 * i + 1] = (targets.q[j][i], 1)
        readers.append(((j, 1), reads))
    rows, betas = list_affine_rows(family, readers)
    W = np.zeros((2 * r * ne, 2 * r * K))
    for g in range(2 * r):
        for e in range(ne):
            for col, w in rows[g][e]:
                W[g * ne + e, col] = w
    src, dst = [], []
    for g in range(2 * r):
        for z, zp in cg.edges:
            src.append(g * K + z)
            dst.append(g * K + zp)
    S = np.zeros((2 * r * K, 2 * r * ne))
    for k, (a, b) in enumerate(zip(src, dst)):
        S[b, k] = 1.0
        S[a, k] = -1.0
    return W, np.concatenate(betas), np.array(src), S


def test_vector_field_matches_list_compile(sis2):
    # the field's matrices, scattered from the array compile, are the
    # list compile's bit for bit: two-block SIS, the 6-colour queue, a
    # random per-(block, class) family, and three blocks
    gen = np.random.default_rng(8)
    models = [sis2[:2], queue6_model()[:2],
              (random_rate_family(gen, 2, 3), random_targets(gen, 2)),
              (random_rate_family(gen, 3, 4), random_targets(gen, 3))]
    for spec, targets in models:
        family = bm.as_block_rates(spec, targets.r)
        field = _VectorField(family, targets)
        for got, want in zip((field.W, field.beta, field.src, field.S),
                             list_vector_field(family, targets)):
            assert got.shape == want.shape
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_frozen_sweep_overflow_raises(sis2):
    from blockmf.meanfield import _frozen_solve

    spec, targets, inits = sis2
    field = _VectorField(spec, targets)
    frozen = np.full((11, 4, 2), 1e300)
    with pytest.raises(bm.NumericalBlowupError, match="fixed-point sweep"):
        _frozen_solve(field, frozen, np.concatenate(inits), 0.01)


def test_picard_logs_sweeps(sis2, caplog):
    import logging

    spec, targets, inits = sis2
    with caplog.at_level(logging.DEBUG, logger="blockmf.meanfield"):
        _, res = bm.picard_iterate(spec, targets, inits, 1.0, 0.05, tol=1e-9)
    assert caplog.messages == [
        f"picard_iterate: {len(res)} sweeps, last residual {res[-1]:.3e}"]
    with pytest.raises(bm.InvalidArgumentError, match="max_iter"):
        bm.picard_iterate(spec, targets, inits, 1.0, 0.05, max_iter=0)
