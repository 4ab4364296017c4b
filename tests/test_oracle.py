import numpy as np
import pytest
from scipy import sparse

import blockmf as bm
from blockmf.oracle import _decode_states, _jump_matrix, master_equation_oracle
from blockmf.simulate import local_empirical
from conftest import reference_oracle


def mean_empirical(dist, graph):
    """Expected empirical measure vector of a product-space law, shape
    (2r, K)."""
    comp = graph.component
    size = np.ravel(graph.block_sizes)[comp]
    cells = comp * dist.K + _decode_states(dist.K, dist.n_nodes)
    out = np.bincount(cells.ravel(),
                      weights=(dist.probs[:, None] / size).ravel(),
                      minlength=2 * graph.r * dist.K)
    return out.reshape(2 * graph.r, dist.K)


def two_state_chain(a, b):
    """One isolated pair with constant flip rates a (0->1) and b (1->0)."""
    cg = bm.ColorGraph(2, [(0, 1), (1, 0)])
    spec = bm.RateSpec(cg, [(0.0, 0.0), (0.0, 0.0)],
                       [(0.0, 0.0), (0.0, 0.0)], beta=(a, b))
    return bm.build_complete_peripheral([(1, 1)]), spec


def test_two_state_closed_form():
    # constant-rate flip: P(Z_t = 1 | Z_0 = 0) = a/(a+b) (1 - e^{-(a+b)t})
    a, b, T = 0.7, 0.4, 1.3
    g, spec = two_state_chain(a, b)
    dist = master_equation_oracle(g, spec, [[1.0, 0.0], [1.0, 0.0]], T)
    want = a / (a + b) * (1.0 - np.exp(-(a + b) * T))
    for n in range(2):
        assert dist.node_marginal(n)[1] == pytest.approx(want, abs=1e-9)
    # the two nodes stay independent, so the joint factorizes
    p1 = dist.node_marginal(0)
    joint = dist.probs.reshape(2, 2)   # [node1, node0]
    assert np.allclose(joint, np.outer(p1, p1), atol=1e-9)


def test_oracle_counters(caplog):
    g, spec = two_state_chain(0.7, 0.4)
    init = [[1.0, 0.0], [1.0, 0.0]]
    with caplog.at_level("DEBUG", logger="blockmf.oracle"):
        dist = master_equation_oracle(g, spec, init, 200.0)
    # 4 states, each with 2 flips and a diagonal entry; the series is cut
    # into chunks of rate*T <= 50 (rate 1.4 here)
    assert (dist.states, dist.nonzeros, dist.chunks) == (4, 12, 6)
    assert dist.series_terms > dist.chunks
    assert caplog.messages[-1] == (
        f"oracle: 4 states, 12 nonzeros, 6 chunks, {dist.series_terms} "
        "series terms")
    again = master_equation_oracle(g, spec, init, 0.0)
    assert (again.states, again.chunks, again.series_terms) == (4, 0, 0)
    assert again == bm.StateDistribution(again.probs, 2, 2)


def test_zero_rates_leave_the_start_law():
    # SIS with every rate zero: the generator is zero, so the series is
    # skipped and the law at T is the start law, bit for bit
    g = bm.build_complete_peripheral([(1, 2)])
    spec = bm.sis_spec(1, gamma=0.0, nu=0.0, eta=0.0, zeta=0.0)
    init = [[0.7, 0.3], [0.6, 0.4], [0.2, 0.8]]
    dist = master_equation_oracle(g, spec, init, 2.0)
    start = master_equation_oracle(g, spec, init, 0.0)
    assert np.array_equal(dist.probs, start.probs)
    assert np.allclose(dist.probs, np.kron(init[2], np.kron(init[1], init[0])),
                       rtol=0, atol=1e-15)
    assert (dist.states, dist.chunks, dist.series_terms) == (8, 0, 0)


def test_product_init_matches_explicit_vector():
    g = bm.build_complete_peripheral([(1, 1)])
    fam = bm.sis_spec(1, gamma=1.0, nu=0.5, eta=0.8, zeta=0.6)
    per_node = np.array([[0.3, 0.7], [0.9, 0.1]])
    # encoded base K with node 0 as the fastest digit
    explicit = np.array([
        per_node[0][z0] * per_node[1][z1]
        for z1 in range(2) for z0 in range(2)
    ])
    dist = master_equation_oracle(g, fam, per_node, 0.0)
    assert np.allclose(dist.probs, explicit, atol=1e-12)
    # the per-node laws are the only form
    with pytest.raises(bm.InvalidArgumentError, match="per-node laws"):
        master_equation_oracle(g, fam, explicit, 0.9)


@pytest.mark.parametrize("init, message", [
    ([[2.0, 0.0], [0.25, 0.25]], "row 0 is not a distribution: probability "
                                 "vector sums to 2.0, not 1"),
    ([[0.5, 0.5], [1.5, -0.5]], "row 1 is not a distribution: measure "
                                "entries must be finite and >= 0"),
], ids=["rows-off-one", "negative"])
def test_oracle_checks_each_per_node_law(init, message):
    # only the product was checked: rows [2, 0] and [0.25, 0.25] multiply
    # to a distribution and were accepted
    g = bm.build_complete_peripheral([(1, 1)])
    fam = bm.sis_spec(1, gamma=1.0, nu=0.5, eta=0.8, zeta=0.6)
    with pytest.raises(bm.InvalidArgumentError) as info:
        master_equation_oracle(g, fam, init, 0.5)
    assert str(info.value) == "init_dist " + message


@pytest.mark.parametrize("node, message", [
    (-1, "node -1 is not in 0..2"),
    (3, "node 3 is not in 0..2"),
    (1.0, "node id must be an integer, got 1.0"),
    (True, "node id must be an integer, got True"),
    (10 ** 30, f"node {10 ** 30} is not in 0..2"),
], ids=["minus-one", "N", "float", "bool", "huge"])
def test_node_marginal_checks_the_id(node, message):
    # 99 raised OverflowError and -1 TypeError
    dist = bm.StateDistribution(np.full(8, 1 / 8), 2, 3)
    with pytest.raises(bm.InvalidArgumentError) as info:
        dist.node_marginal(node)
    assert str(info.value) == message


@pytest.mark.parametrize("probs, K, n_nodes, message", [
    (np.full(8, 1 / 8), 2, 5, "for K=2, n_nodes=5, got shape (8,)"),
    (np.full(8, 1 / 8), 3, 2, "for K=3, n_nodes=2, got shape (8,)"),
    (np.full((2, 4), 1 / 8), 2, 3, "for K=2, n_nodes=3, got shape (2, 4)"),
    (np.full(8, 1 / 8), 2, 10 ** 30,
     f"for K=2, n_nodes={10 ** 30}, got shape (8,)"),
], ids=["too-few-states", "too-many-states", "2-d", "huge-n"])
def test_state_distribution_checks_its_sizes(probs, K, n_nodes, message):
    # (8 states, K=2, 5 nodes) read node 4 as [1, 0], and (K=3, 2 nodes)
    # read node 1 as [0.375, 0.375, 0.25]
    with pytest.raises(bm.InvalidArgumentError) as info:
        bm.StateDistribution(probs, K, n_nodes)
    assert str(info.value) == "probs must be 1-d with K^n_nodes entries " \
        + message


@pytest.mark.parametrize("K, n_nodes, message", [
    (True, 3, "K must be an integer, got True"),
    (2.0, 3, "K must be an integer, got 2.0"),
    (2, 0, "need K >= 1 and n_nodes >= 1, got K=2, n_nodes=0"),
], ids=["bool-K", "float-K", "no-nodes"])
def test_state_distribution_reads_whole_sizes(K, n_nodes, message):
    with pytest.raises(bm.InvalidArgumentError) as info:
        bm.StateDistribution(np.full(8, 1 / 8), K, n_nodes)
    assert str(info.value) == message
    dist = bm.StateDistribution(np.full(8, 1 / 8), np.int64(2), 3)
    assert type(dist.K) is int and dist.node_marginal(2).tolist() == [0.5,
                                                                      0.5]


def test_long_horizon_chunks_conserve_mass():
    # rate * T far above the single-chunk budget exercises chunking
    a, b = 30.0, 25.0
    g, spec = two_state_chain(a, b)
    dist = master_equation_oracle(g, spec, [[1.0, 0.0], [0.0, 1.0]], 4.0)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    # equilibrium a/(a+b) reached to well below the solver tolerance
    assert dist.node_marginal(0)[1] == pytest.approx(a / (a + b), abs=1e-8)


def test_decode_expect_mean_empirical():
    g = bm.build_complete_peripheral([(1, 2)])
    dist = bm.StateDistribution(
        np.array([0.0] * 5 + [1.0] + [0.0] * 2), 2, 3
    )
    assert dist.states == 8  # read off probs; a counter field read 0
    colors = _decode_states(2, 3)
    assert colors[5].tolist() == [1, 0, 1]   # 5 = 1 + 0*2 + 1*4
    assert dist.node_marginal(0)[1] == 1.0
    assert dist.node_marginal(1)[0] == 1.0
    assert dist.probs @ colors.sum(axis=1) == 2.0   # mean colour sum
    m = mean_empirical(dist, g)
    assert m.shape == (2, 2)
    assert np.allclose(m[0], [0.0, 1.0])       # the central node has color 1
    assert np.allclose(m[1], [0.5, 0.5])


def test_capacity_and_argument_errors():
    g = bm.build_complete_peripheral([(7, 6)])   # 2^13 states
    fam = bm.sis_spec(1, 1.0, 0.5, 0.8, 0.6)
    with pytest.raises(bm.CapacityError):
        master_equation_oracle(g, fam, np.full((13, 2), 0.5), 1.0)
    g2 = bm.build_complete_peripheral([(1, 1)])
    with pytest.raises(bm.InvalidArgumentError):
        master_equation_oracle(g2, fam, np.full((3, 2), 0.5), 1.0)
    with pytest.raises(bm.InvalidArgumentError, match="distribution"):
        master_equation_oracle(g2, fam, [[0.5, 0.6], [0.5, 0.5]], 1.0)
    with pytest.raises(bm.InvalidArgumentError):
        master_equation_oracle(g2, fam, np.full((2, 2), 0.5), -1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_init_dist_fails_closed(bad):
    # a nan entry passed both distribution checks (comparisons with nan are
    # false) and the solve returned an all-nan law
    g = bm.build_complete_peripheral([(1, 1)])
    fam = bm.sis_spec(1, 1.0, 0.5, 0.8, 0.6)
    with pytest.raises(bm.InvalidArgumentError,
                       match="row 1 is not a distribution: .* finite"):
        master_equation_oracle(g, fam, [[0.5, 0.5], [bad, 0.0]], 1.0)


def test_oracle_vs_simulator_small_sis():
    # the two implementations share no rate-evaluation code: aggregated
    # kernel tables vs per-node definition path on the product space
    g = bm.build_complete_peripheral([(1, 2)])
    fam = bm.sis_spec(1, gamma=1.4, nu=0.7, eta=0.9, zeta=0.5)
    T = 1.0
    init_colors = [0, 1, 0]
    init = np.zeros((3, 2))
    init[range(3), init_colors] = 1.0
    dist = master_equation_oracle(g, fam, init, T)
    want = mean_empirical(dist, g)

    reps = 4000
    acc = np.zeros((2, 2))
    for rep in range(reps):
        tr = bm.simulate(g, fam, init_colors, T, seed=50_000 + rep)
        final = bm.SystemState.from_colors(g, tr.final_colors, 2)
        acc[0] += np.asarray(final.counts[0]) / 1.0
        acc[1] += np.asarray(final.counts[1]) / 2.0
    acc /= reps
    # per-component SE of a bounded [0,1] average across 4000 replicas
    se = 0.5 / np.sqrt(reps)
    assert np.all(np.abs(acc - want) <= 4 * se)


def test_oracle_vs_simulator_regular_design():
    # a non-complete design with twin pairs {1,3}, {2,4}, {6,7}, {8,9}:
    # each node's law at T must match the exact product-space solution
    g = bm.build_regular_peripheral([(1, 4), (1, 4)], 0.5)
    fam = bm.sis_spec(2, gamma=[0.8, 1.1], nu=[0.5, 0.4], eta=0.6,
                      zeta=[0.9, 0.7])
    T = 1.0
    init_colors = [0, 1, 0, 1, 1, 1, 0, 0, 1, 0]
    init = np.zeros((g.n_total, 2))
    init[range(g.n_total), init_colors] = 1.0
    dist = master_equation_oracle(g, fam, init, T)
    want = np.array([dist.node_marginal(n)[1] for n in range(g.n_total)])

    reps = 4000
    hits = np.zeros(g.n_total)
    for rep in range(reps):
        tr = bm.simulate(g, fam, init_colors, T, seed=60_000 + rep)
        hits += tr.final_colors
    se = np.sqrt(want * (1.0 - want) / reps)
    assert np.all(np.abs(hits / reps - want) <= 4 * se)


def node_laws_within_4_se(graph, fam, init_colors, T, reps, seed0):
    """Every node's colour law at T over `reps` simulate runs, seeds
    seed0, seed0 + 1, ..., against the exact product-space solution from
    the same colours: each (node, colour) share within 4 SE."""
    K = bm.as_block_rates(fam, graph.r).colors.K
    init = np.zeros((graph.n_total, K))
    init[range(graph.n_total), init_colors] = 1.0
    dist = master_equation_oracle(graph, fam, init, T)
    want = np.stack([dist.node_marginal(n) for n in range(graph.n_total)])
    hits = np.zeros_like(want)
    for rep in range(reps):
        final = bm.simulate(graph, fam, init_colors, T,
                            seed=seed0 + rep).final_colors
        hits[range(graph.n_total), final] += 1
    se = np.sqrt(want * (1.0 - want) / reps)
    assert np.all(np.abs(hits / reps - want) <= 4 * se)


def test_oracle_vs_simulator_clamped_queue():
    # a K=3 queue whose colour-1 arrival rate 0.2 - 1.2 (1 - m) clamps at
    # zero whenever the local mean colour m is below 5/6, as it is at
    # every node at the start
    g = bm.build_complete_peripheral([(1, 2), (1, 1)])
    fam = bm.queue_spec(3, zeta=(0.5, 0.2, 0.0), vartheta=0.6,
                        h_coefficient=1.2)
    init_colors = [1, 0, 1, 0, 1]
    st = bm.SystemState.from_colors(g, init_colors, 3)
    local = [local_empirical(st, g, n) for n in range(g.n_total)]
    assert max(lm.proportions @ np.array(lm.parts) @ np.arange(3)
               for lm in local) < 5 / 6
    node_laws_within_4_se(g, fam, init_colors, 1.5, 4000, 70_000)


def test_oracle_vs_simulator_block_rates():
    # a per-block family on a regular design: every (block, class) has its
    # own tables and offsets, so centrals and peripherals of each block
    # jump by different rules
    g = bm.build_regular_peripheral([(1, 4), (1, 4)], 0.5)
    cg = bm.ColorGraph(2, [(0, 1), (1, 0)])

    def spec(gc, gp, beta):
        return bm.RateSpec(cg, [(0.0, gc[0]), (gc[1], 0.0)],
                           [(0.0, gp[0]), (gp[1], 0.0)], beta=beta)

    fam = bm.BlockRates(
        (spec((1.6, 0.0), (0.4, 0.0), (0.1, 0.9)),
         spec((0.2, 0.5), (1.1, 0.0), (0.0, 0.6))),
        (spec((0.7, 0.0), (0.9, 0.3), (0.05, 0.8)),
         spec((0.0, 0.0), (1.8, 0.6), (0.2, 1.1))))
    assert len({*fam.central, *fam.peripheral}) == 4
    init_colors = [0, 1, 0, 1, 1, 1, 0, 0, 1, 0]
    node_laws_within_4_se(g, fam, init_colors, 1.0, 4000, 80_000)


# -- the assembly against the per-state definition loop -------------------

def _clamping_queue():
    """K=3 rates whose negative offsets clamp some rates to zero."""
    cg = bm.ColorGraph(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
    return bm.RateSpec(
        cg,
        [(0.0, 1.3, 0.37), (0.9, 0.0, 0.21), (0.11, 0.7, 0.0),
         (0.45, 0.0, 1.7)],
        [(0.3, 0.0, 1.1), (0.0, 0.83, 0.4), (1.9, 0.13, 0.0),
         (0.0, 0.6, 0.29)],
        beta=(-0.4, 0.35, -0.55, 0.15),
    )


def _oracle_cases():
    rng = np.random.default_rng(12)
    sis1 = bm.sis_spec(1, gamma=1.4, nu=0.9, eta=0.7, zeta=0.8)
    sis2 = bm.sis_spec(2, gamma=[0.8, 1.1], nu=[0.5, 0.4], eta=0.6,
                       zeta=[0.9, 0.7])
    regular = bm.build_regular_peripheral([(1, 4), (1, 4)], 0.5)
    inits2 = np.array([[0.7, 0.3], [0.8, 0.2], [0.6, 0.4], [0.75, 0.25]])
    apart = bm.BlockGraph([(1, 2), (2, 1)], [(1, 2)])
    return {
        "criterion_1": (bm.build_complete_peripheral([(2, 1)]), sis1,
                        [[0.65, 0.35], [0.80, 0.20], [0.50, 0.50]], 2.0),
        "regular_per_block": (regular, sis2, inits2[regular.component],
                              1.0),
        "k3_clamped": (bm.build_complete_peripheral([(1, 2), (1, 1)]),
                       _clamping_queue(), rng.dirichlet(np.ones(3), 5), 1.5),
        "no_cross_neighbours": (apart, sis2, inits2[apart.component], 1.2),
    }


@pytest.mark.parametrize("case", list(_oracle_cases()))
def test_oracle_matches_per_state_assembly(case):
    graph, spec, init, T = _oracle_cases()[case]
    Q_ref, p_ref, counters = reference_oracle(graph, spec, init, T)
    Q = sparse.csr_matrix(_jump_matrix(graph, bm.as_block_rates(spec,
                                                                graph.r)))
    # the series sums each target's terms in CSR order, so the arrays
    # must already be canonical: columns ascending within every row
    assert Q.has_canonical_format
    assert Q.shape == Q_ref.shape and Q.nnz == Q_ref.nnz
    assert abs(Q - Q_ref).max() <= 1e-15
    dist = master_equation_oracle(graph, spec, init, T)
    assert np.max(np.abs(dist.probs - p_ref)) <= 1e-15
    assert (dist.states, dist.nonzeros, dist.chunks,
            dist.series_terms) == counters


def test_oracle_cases_cover_what_they_name():
    cases = _oracle_cases()
    # some K=3 rates clamp: fewer positive jumps than admissible ones
    graph, spec, init, _ = cases["k3_clamped"]
    Q, _, _ = reference_oracle(graph, spec, init, 0.0)
    S, E = Q.shape[0], spec.colors.n_edges
    assert Q.nnz - S < graph.n_total * S * E // 3
    # a block lends a peripheral node no neighbours
    graph = cases["no_cross_neighbours"][0]
    assert 0 in graph.cross_counts(1)
