import io
import math
import re

import numpy as np
import pytest

import blockmf as bm
import blockmf.meanfield as meanfield
from blockmf.meanfield import _frozen_solve, _VectorField
from blockmf.rates import total_rate
from conftest import (list_affine_rows, random_inits, random_rate_family,
                      random_targets)

R1_TARGETS = bm.ProportionTargets((0.5,), (0.4,), ((0.6,),), (1.0,))


def constant_flow(*components):
    """A two-point flow that sits at the given component measures."""
    values = np.array([components, components], dtype=float)
    return bm.MeanFieldFlow(np.array([0.0, 1.0]), values)


def test_central_rates_worked_number():
    fam = bm.sis_spec(1, gamma=2.0, nu=1.0, eta=0.6, zeta=0.9)
    flow = constant_flow((0.7, 0.3), (0.2, 0.8))
    rates = bm.flow_rates(flow, fam, R1_TARGETS)[0, 0]
    # infection 0.5 * 2 * 0.3 + 0.5 * 1 * 0.8; cure at zeta
    assert np.allclose(rates, [0.7, 0.9])


def test_peripheral_rates_worked_number():
    fam = bm.sis_spec(2, gamma=1.0, nu=0.5, eta=0.6, zeta=0.3)
    targets = bm.ProportionTargets((0.5, 0.5), (0.5, 0.5),
                                   ((0.25, 0.25), (0.25, 0.25)), (0.5, 0.5))
    flow = constant_flow((0.4, 0.6), (0.5, 0.5), (0.5, 0.5), (0.9, 0.1))
    rates = bm.flow_rates(flow, fam, targets)
    infect = fam.colors.edge_index(0, 1)
    assert rates[0, 1, infect] == pytest.approx(
        0.5 * 0.5 * 0.6 + 0.6 * (0.25 * 0.5 + 0.25 * 0.1))


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


def test_picard_matches_rk4(sis2, monkeypatch):
    spec, targets, inits = sis2
    monkeypatch.setattr(meanfield, "PICARD_TOL", 1e-9)
    direct = bm.solve_mckean_vlasov(spec, targets, inits, 2.0, 0.01)
    flow, residuals = bm.picard_iterate(spec, targets, inits, 2.0, 0.01)
    assert np.abs(flow.values - direct.values).max() <= 1e-6
    assert residuals[-1] < 1e-9
    # contraction: strictly decreasing after the first sweep
    for i in range(1, len(residuals) - 1):
        assert residuals[i + 1] < residuals[i]
    # the answer is a fixed point: one more sweep from it barely moves it
    nxt = _frozen_solve(_VectorField(spec, targets), flow.values,
                        flow.values[0], flow.dt)
    assert np.abs(nxt - flow.values).sum(axis=2).max() < 1e-7


@pytest.mark.parametrize("shape", [(101, 2, 2), (101, 4, 3)])
def test_flow_with_other_layout_fails_closed(sis2, shape):
    spec, targets, _ = sis2
    flow = bm.MeanFieldFlow(np.linspace(0.0, 1.0, 101), np.full(shape, 0.5))
    with pytest.raises(bm.InvalidArgumentError, match=re.escape(
            f"flow has {shape[1]} components and K={shape[-1]}; the model "
            f"has r=2, K=2")):
        bm.flow_rates(flow, spec, targets)


@pytest.mark.parametrize("shape, fill, match", [
    ((3, 4, 2), math.nan, "^flow values must be finite$"),
    ((3, 4, 2), math.inf, "^flow values must be finite$"),
    ((3, 4, 2), -math.inf, "^flow values must be finite$"),
    ((3, 8), 0.5, r"^flow values must have shape \(times, 2r, K\)"),
    ((3, 3, 2), 0.5, r"^flow values must have shape \(times, 2r, K\)"),
    ((3, 0, 2), 0.5, r"^flow values must have shape \(times, 2r, K\)"),
    ((3, 4, 0), 0.5, r"^flow values must have shape \(times, 2r, K\)"),
], ids=["nan", "inf", "minus-inf", "2-d", "odd-components",
        "no-components", "no-colours"])
def test_flow_checks_its_values(shape, fill, match):
    # a flow of NaNs got a variational cost of 0.0, and a 2-d or
    # odd-component array passed until a solver read it
    values = np.full(shape, 0.5)
    values[-1, ...] = fill
    with pytest.raises(bm.InvalidArgumentError, match=match):
        bm.MeanFieldFlow(np.linspace(0.0, 1.0, 3), values)


def test_picard_nonconvergence(sis2, monkeypatch):
    spec, targets, inits = sis2
    monkeypatch.setattr(meanfield, "PICARD_TOL", 1e-14)
    monkeypatch.setattr(meanfield, "PICARD_MAX_ITER", 2)
    with pytest.raises(bm.NonConvergenceError,
                       match="did not reach 1e-14 in 2 sweeps") as exc:
        bm.picard_iterate(spec, targets, inits, 2.0, 0.05)
    assert len(exc.value.residuals) == 2


@pytest.mark.parametrize("times, rows, match", [
    ([0.0, 0.1, 0.3], 3, "^flow grid must be uniform$"),
    ([0.0, 0.2, 0.1], 3, "^flow grid must be uniform$"),
    ([0.0, -0.1, -0.2], 3, "^flow grid must be uniform$"),
    ([1.0, 1.0, 1.0], 3, "^flow grid must be uniform$"),
    ([0.0, math.nan, 2.0], 3, "^flow grid must be uniform$"),
    ([[0.0, 1.0]], 1, "^flow needs a 1-d grid"),
    ([0.0], 1, "^flow needs a 1-d grid"),
    ([0.0, 1.0, 2.0], 2, "^flow needs a 1-d grid"),
], ids=["uneven", "backwards-step", "decreasing", "constant", "nan",
        "2-d", "one-time", "rows-differ"])
def test_flow_checks_its_grid(times, rows, match):
    # only the CSV reader checked the grid: variational_cost on a flow
    # built with uneven times differentiated with its first step
    with pytest.raises(bm.InvalidArgumentError, match=match):
        bm.MeanFieldFlow(np.array(times), np.full((rows, 4, 2), 0.5))


def test_flow_interpolation_and_clipping():
    times = np.array([0.0, 1.0, 2.0])
    vals = np.array([[[1.0, 0.0]] * 2, [[0.5, 0.5]] * 2,
                     [[-1e-15, 1.0]] * 2])
    flow = bm.MeanFieldFlow(times, vals)
    mid = flow.at(0.5)
    assert np.allclose(mid, [[0.75, 0.25]] * 2)
    assert np.array_equal(flow.at(2.0), [[0.0, 1.0]] * 2)  # clipped on read
    assert flow.at(-1e-13) is not None  # tolerance at the ends
    with pytest.raises(bm.InvalidArgumentError):
        flow.at(2.5)


def test_flow_csv_round_trip(sis2):
    spec, targets, inits = sis2
    flow = bm.solve_mckean_vlasov(spec, targets, inits, 1.0, 0.1)
    buf = io.StringIO()
    flow.to_csv(buf)
    buf.seek(0)
    back = bm.MeanFieldFlow.from_csv(buf)
    # r is read off the values: the 2-block flow reads back as one, and
    # the variational cost takes it
    assert back.r == flow.r == 2 and back.K == flow.K == 2
    assert bm.variational_cost(back, targets, spec).integrand.shape == (11, 4)
    assert np.allclose(back.times, flow.times)
    assert np.allclose(back.values, flow.values)
    with pytest.raises(bm.InvalidArgumentError, match="header"):
        bm.MeanFieldFlow.from_csv(io.StringIO("time,mass\n"))
    partial = "t,block,class,color,mass\n0,0,c,0,1.0\n"
    with pytest.raises(bm.InvalidArgumentError):
        bm.MeanFieldFlow.from_csv(io.StringIO(partial))
    # the flow type checks the grid it is given, also from a file
    uneven = buf.getvalue().replace("\n0.10000000000000001,",
                                    "\n0.125,")
    with pytest.raises(bm.InvalidArgumentError,
                       match="^flow grid must be uniform$"):
        bm.MeanFieldFlow.from_csv(io.StringIO(uneven))


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
    # cross-check one entry against the definition-style rate at t=0
    e = spec.colors.edge_index(0, 1)
    assert rates[0, 0, e] == pytest.approx(total_rate(
        spec.central[0], e, targets.p_c[0], inits[0],
        (targets.p_p[0],), (inits[1],)))


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


@pytest.mark.parametrize("solver", [bm.solve_mckean_vlasov,
                                    bm.picard_iterate])
@pytest.mark.parametrize("T, dt, match", [
    (math.nan, 0.1, "^T must be finite and >= 0, got nan"),
    (math.inf, 0.1, "^T must be finite and >= 0, got inf"),
    (-1.0, 0.1, "^T must be finite and >= 0, got -1.0"),
    (1.0, math.nan, "^need T > 0 and 0 < dt < inf, got T=1.0, dt=nan"),
    (1.0, math.inf, "^need T > 0 and 0 < dt < inf, got T=1.0, dt=inf"),
    ("1", 0.1, "^T must be a number, got '1'$"),
    (True, 0.1, "^T must be a number, got True$"),
    (1.0, "0.1", "^dt must be a number, got '0.1'$"),
], ids=["T-nan", "T-inf", "T-negative", "dt-nan", "dt-inf", "T-string",
        "T-bool", "dt-string"])
def test_grid_names_a_bad_horizon_or_step(sis2, solver, T, dt, match):
    # a nan or infinite T or dt is not a grid-size problem, and an
    # infinite dt would run one step of length T
    spec, targets, inits = sis2
    with pytest.raises(bm.InvalidArgumentError, match=match):
        solver(spec, targets, inits, T, dt)


# --------------------------------------------------------------------------
# the fixed-point sweep against a step-by-step reference


def stepwise_frozen_solve(field, frozen, y0, dt):
    """One sweep as a plain RK4 loop with a `drift` call per stage: the
    reference the batched sweep must reproduce."""
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
        out[i + 1] = y.reshape(2 * r, K)
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


@pytest.mark.parametrize(
    "steps, model",
    [(s, m) for m in ("queue6", "sis2") for s in (1, 2, 3, 300, 601)]
    + [(s, "queue6") for s in (15, 16, 17, 255, 256, 257, 2000)])
def test_frozen_sweep_matches_stepwise_reference(model, steps, request):
    # 1-3 steps take the linear-midpoint branch (fewer than 4 grid
    # points) or sit at its edge; 300 and 601 steps are not multiples of
    # any power-of-two chunk of grid steps; 15-17 and 255-257 straddle
    # the edges of a 16-step sub-block and a 256-step chunk, and 2000 is
    # the benchmark's grid
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


def stepwise_mckean_vlasov(spec, targets, inits, T, dt):
    """RK4 as a plain loop, one `rates` and one `drift` call per stage and
    the finiteness checked after every step: the reference the solver
    must reproduce bit for bit."""
    from blockmf.meanfield import _grid

    field = _VectorField(spec, targets)
    r, K = field.r, field.K
    times, dt = _grid(float(T), float(dt))
    y = np.concatenate(inits)
    out = np.empty((times.size, 2 * r, K))
    out[0] = y.reshape(2 * r, K)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(times.size - 1):
            k1 = field.drift(field.rates(y), y)
            y2 = y + 0.5 * dt * k1
            k2 = field.drift(field.rates(y2), y2)
            y3 = y + 0.5 * dt * k2
            k3 = field.drift(field.rates(y3), y3)
            y4 = y + dt * k3
            k4 = field.drift(field.rates(y4), y4)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise bm.NumericalBlowupError(
                    f"non-finite flow at t={times[i + 1]:.6g}", t=times[i + 1]
                )
            out[i + 1] = y.reshape(2 * r, K)
    return times, out


@pytest.mark.parametrize("model", ["sis2", "queue6"])
@pytest.mark.parametrize("steps", [1, 2, 3, 300, 601])
def test_rk4_matches_stepwise_reference(model, steps, request):
    # 1-3 steps end inside any chunk of rows; 300 and 601 steps are not
    # multiples of any power-of-two chunk
    spec, targets, inits = (request.getfixturevalue("sis2")
                            if model == "sis2" else queue6_model())
    T = 0.004 * steps
    got = bm.solve_mckean_vlasov(spec, targets, inits, T, 0.004)
    times, want = stepwise_mckean_vlasov(spec, targets, inits, T, 0.004)
    assert np.array_equal(got.times, times)
    assert got.values.shape == want.shape
    assert np.array_equal(got.values, want)


@pytest.mark.parametrize("dt", [0.004, 5e-4])
@pytest.mark.parametrize("model", ["sis2", "queue6"])
def test_limit_flows_conserve_mass(model, dt, request):
    # the generator moves mass between colours and creates none, so each
    # component's mass is a linear invariant that RK4 keeps to roundoff;
    # at the fine grid a drift would first trip the variational norm's
    # net-mass test and turn the cost of the solver's own flow infinite
    spec, targets, inits = (request.getfixturevalue("sis2")
                            if model == "sis2" else queue6_model())
    direct = bm.solve_mckean_vlasov(spec, targets, inits, 5.0, dt)
    fixed, _ = bm.picard_iterate(spec, targets, inits, 5.0, dt)
    for flow in (direct, fixed):
        assert np.abs(flow.values.sum(axis=2) - 1.0).max() <= 1e-12
    cost = bm.variational_cost(direct, targets, spec)
    assert cost.infinite == 0
    assert cost.total <= 1e-5


@pytest.mark.parametrize("zeta, row", [(280.0, 156), (279.0, 406)])
def test_rk4_overflow_raises(sis2, zeta, row):
    # a stiff cure rate (dt * zeta about 2.8, past RK4's stability edge)
    # grows an oscillation until it overflows: the error names the first
    # non-finite grid point, inside the first or a later chunk of rows
    _, targets, inits = sis2
    spec = bm.sis_spec(2, gamma=[0.8, 1.1], nu=[0.5, 0.4], eta=0.6,
                       zeta=[zeta, 0.7])
    with pytest.raises(bm.NumericalBlowupError) as want:
        stepwise_mckean_vlasov(spec, targets, inits, 8.0, 0.01)
    times = np.linspace(0.0, 8.0, 801)
    assert want.value.t == times[row]
    with pytest.raises(bm.NumericalBlowupError,
                       match=f"non-finite flow at t={times[row]:.6g}$") as got:
        bm.solve_mckean_vlasov(spec, targets, inits, 8.0, 0.01)
    assert got.value.t == times[row]


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


def test_frozen_sweep_overflow_at_one_grid_point_raises():
    # the frozen flow is finite except at step 37 of 300, inside a
    # 16-step sub-block: the sweep stops with one error and no warning
    import warnings

    from blockmf.meanfield import _frozen_solve

    spec, targets, inits = queue6_model()
    field = _VectorField(spec, targets)
    y0 = np.concatenate(inits)
    frozen = np.repeat(y0.reshape(1, 4, 6), 301, axis=0)
    frozen[37] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bm.NumericalBlowupError,
                           match="fixed-point sweep"):
            _frozen_solve(field, frozen, y0, 0.004)


def test_picard_logs_sweeps(sis2, caplog, monkeypatch):
    import logging

    spec, targets, inits = sis2
    monkeypatch.setattr(meanfield, "PICARD_TOL", 1e-9)
    with caplog.at_level(logging.DEBUG, logger="blockmf.meanfield"):
        _, res = bm.picard_iterate(spec, targets, inits, 1.0, 0.05)
    assert caplog.messages == [
        f"picard_iterate: {len(res)} sweeps, last residual {res[-1]:.3e}"]


def definition_rates(family, targets, flow):
    """`total_rate` of every component and edge on a flow's clipped
    states, each read at its targets' shares: (n_times, 2r, n_edges)."""
    r, ne = targets.r, family.colors.n_edges
    comps = list(np.maximum(flow.values, 0.0).transpose(1, 0, 2))
    own = comps[1::2]
    out = np.empty((flow.times.size, 2 * r, ne))
    for j in range(r):
        for e in range(ne):
            out[:, 2 * j, e] = total_rate(
                family.spec_for(j, 0), e, targets.p_c[j], comps[2 * j],
                (targets.p_p[j],), (comps[2 * j + 1],))
            out[:, 2 * j + 1, e] = total_rate(
                family.spec_for(j, 1), e, targets.alpha_c[j], comps[2 * j],
                targets.q[j], own)
    return out


def definition_drift(family, flow, rates):
    """A*mu from per-edge rates: each edge's flux mu(src)*rate leaves its
    source colour and enters its target colour. Also returns the sum of
    the flux magnitudes at each cell, the scale its roundoff lives on."""
    mu = np.maximum(flow.values, 0.0)
    drift, scale = np.zeros_like(mu), np.zeros_like(mu)
    for e, (z, zp) in enumerate(family.colors.edges):
        flux = mu[:, :, z] * rates[:, :, e]
        drift[:, :, z] -= flux
        drift[:, :, zp] += flux
        scale[:, :, z] += flux
        scale[:, :, zp] += flux
    return drift, scale


def test_limit_rates_match_definition(sis2):
    # the compiled limit rates, read on every 5th grid point of RK4 flows,
    # are the definition-style `total_rate` at the targets' shares, and the
    # compiled drift is the forward equation built from those rates
    gen = np.random.default_rng(20)
    models = [sis2, queue6_model()]
    for r, K in [(1, 2), (2, 3), (3, 4), (2, 6)]:
        models.append((random_rate_family(gen, r, K), random_targets(gen, r),
                       random_inits(gen, r, K)))
    for spec, targets, inits in models:
        family = bm.as_block_rates(spec, targets.r)
        full = bm.solve_mckean_vlasov(family, targets, inits, 1.0, 0.01)
        flow = bm.MeanFieldFlow(full.times[::5], full.values[::5])
        want = definition_rates(family, targets, flow)
        got = bm.flow_rates(flow, family, targets)
        assert got.shape == want.shape
        # the affine part is nonnegative, so a rate of a negative offset
        # beta is rate - beta minus |beta|: its roundoff scales with
        # rate + 2|beta| (the queue's clamped arrivals cancel this way)
        beta = np.array([family.spec_for(j, cls).beta
                         for j in range(targets.r) for cls in (0, 1)])
        scale = want + 2.0 * np.maximum(-beta, 0.0)
        assert (np.abs(got - want) <= 1e-13 * scale).all()
        drift, scale = definition_drift(family, flow, want)
        gap = np.abs(bm.flow_drift(flow, family, targets) - drift)
        assert (gap <= 1e-13 * scale).all()
