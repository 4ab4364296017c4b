import numpy as np
import pytest
from scipy.optimize import linprog

import blockmf as bm


def bl_reference(mu, nu):
    """Independent BL oracle: LP over the full pairwise Lipschitz
    constraint set |g(z)-g(z')| <= |z-z'| (not just adjacent pairs)."""
    theta = np.asarray(mu, dtype=float) - np.asarray(nu, dtype=float)
    K = theta.shape[0]
    rows, rhs = [], []
    for z in range(K):
        for zp in range(K):
            if z == zp:
                continue
            row = np.zeros(K)
            row[z], row[zp] = 1.0, -1.0
            rows.append(row)
            rhs.append(abs(z - zp))
    res = linprog(-theta, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(-1.0, 1.0)] * K, method="highs")
    assert res.success
    return float(-res.fun)


def w1(mu, nu):
    """Order-1 transport distance for ground metric |z - z'|: the L1
    distance of the CDFs."""
    return np.abs(np.cumsum(np.subtract(mu, nu))[:-1]).sum()


def test_d_bl_hand_values():
    # adjacent point masses: transport cost 1, capped by the sup bound 2
    assert bm.d_bl([1, 0], [0, 1]) == pytest.approx(1.0)
    # distant point masses: BL caps at 2 where W1 keeps growing
    assert bm.d_bl([1, 0, 0, 0], [0, 0, 0, 1]) == pytest.approx(2.0)
    assert w1([1, 0, 0, 0], [0, 0, 0, 1]) == pytest.approx(3.0)
    assert bm.d_bl([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_d_bl_matches_full_lp_reference():
    gen = np.random.default_rng(77)
    for K in range(2, 25):   # the chain DP against the full LP, any K
        for _ in range(20):
            mu = gen.dirichlet(np.ones(K))
            nu = gen.dirichlet(np.ones(K))
            assert bm.d_bl(mu, nu) == pytest.approx(
                bl_reference(mu, nu), abs=1e-9)


def test_metric_axioms():
    gen = np.random.default_rng(3)
    for _ in range(50):
        K = int(gen.integers(2, 7))
        mu, nu, rho = (gen.dirichlet(np.ones(K)) for _ in range(3))
        d = bm.d_bl
        assert d(mu, mu) <= 1e-12
        assert d(mu, nu) == pytest.approx(d(nu, mu), abs=1e-12)
        assert d(mu, rho) <= d(mu, nu) + d(nu, rho) + 1e-12
        # BL is the weaker norm
        assert d(mu, nu) <= w1(mu, nu) + 1e-12


def test_relative_entropy():
    assert bm.relative_entropy([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert bm.relative_entropy([1.0, 0.0], [0.5, 0.5]) == \
        pytest.approx(np.log(2.0))
    assert bm.relative_entropy([0.5, 0.5], [1.0, 0.0]) == np.inf
    # 0 * log 0 convention on the p side
    assert np.isfinite(bm.relative_entropy([0.0, 1.0], [0.5, 0.5]))
    p = np.array([0.2, 0.3, 0.5])
    q = np.array([0.4, 0.4, 0.2])
    want = float(np.sum(p * np.log(p / q)))
    assert bm.relative_entropy(p, q) == pytest.approx(want)
    assert bm.relative_entropy(p, q) >= 0.0


def test_metric_input_validation():
    with pytest.raises(bm.InvalidArgumentError):
        bm.d_bl([0.5, 0.5], [0.5, 0.5, 0.0])
    with pytest.raises(bm.InvalidArgumentError, match="length mismatch"):
        bm.relative_entropy([0.5, 0.5], [0.5, 0.5, 0.0])
    with pytest.raises(bm.InvalidArgumentError):
        bm.d_bl([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(bm.InvalidArgumentError):
        bm.relative_entropy([-0.1, 1.1], [0.5, 0.5])


def test_d_bl_of_differences_runs_over_leading_axes():
    # the batched DP gives d_bl of every pair, whatever the leading shape
    gen = np.random.default_rng(8)
    for K in (1, 2, 5):
        mu = gen.dirichlet(np.ones(K), size=(4, 3))
        nu = gen.dirichlet(np.ones(K), size=(4, 3))
        got = bm.metrics.d_bl_of_differences(mu - nu)
        assert got.shape == (4, 3)
        assert got.tolist() == [[bm.d_bl(a, b) for a, b in zip(x, y)]
                                for x, y in zip(mu, nu)]
