import hashlib
import io

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import blockmf as bm
from blockmf import experiments
from blockmf.simulate import GroupTables


def make_targets():
    # N-independent exact proportions of the complete-peripheral family
    # with p_c = 1/2: a peripheral node sees N/4 centrals of its block and
    # N/2 peripherals (self included) spread evenly over the two blocks
    return bm.ProportionTargets(
        p_c=(0.5, 0.5), alpha_c=(1 / 3, 1 / 3),
        q=((1 / 3, 1 / 3), (1 / 3, 1 / 3)), alpha=(0.5, 0.5))


def test_proportional_family_sizes():
    build = bm.proportional_family(make_targets())
    g = build(40)
    assert g.block_sizes == ((10, 10), (10, 10))
    assert g.is_complete_peripheral
    with pytest.raises(bm.InvalidArgumentError, match="N=30"):
        build(30)   # 30 splits into blocks of 15, not into equal classes


def test_proportional_family_matches_targets():
    t = make_targets()
    g = bm.proportional_family(t)(24)
    rep = bm.check_regularity(g, t)
    assert rep.max_resid <= 1e-12


def test_sample_block_colors():
    g = bm.build_complete_peripheral([(50, 50), (50, 50)])
    inits = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
             np.array([0.5, 0.5]), np.array([0.2, 0.8])]
    gen = np.random.default_rng(1)
    colors = bm.sample_block_colors(g, inits, gen)
    assert np.all(colors[g.central_nodes(0)] == 0)
    assert np.all(colors[g.peripheral_nodes(0)] == 1)
    frac = colors[g.peripheral_nodes(1)].mean()
    assert 0.6 <= frac <= 0.95   # ~Binomial(50, 0.8)/50
    again = bm.sample_block_colors(g, inits, np.random.default_rng(1))
    assert np.array_equal(colors, again)
    with pytest.raises(bm.InvalidArgumentError):
        bm.sample_block_colors(g, inits[:3], gen)
    # every row must be a probability vector of row 0's length: no
    # clamping of a longer row, no silent top colour for a short sum,
    # no raw numpy error for a ragged list
    for bad_row in ([0.2, 0.3, 0.5], [0.1, 0.1], [0.5], [1.2, -0.2],
                    [[0.5, 0.5]], [[0.5], [0.25, 0.25]]):
        bad = inits[:3] + [bad_row]
        with pytest.raises(bm.InvalidArgumentError):
            bm.sample_block_colors(g, bad, gen)
    with pytest.raises(bm.InvalidArgumentError):
        bm.sample_block_colors(g, [[0.5, 0.4]] + inits[1:], gen)


def sample_reference(graph, inits, gen):
    """Reference: one cumsum, draw and searchsorted per (block, class)."""
    K = len(inits[0])
    colors = np.empty(graph.n_total, dtype=np.int64)
    for j in range(graph.r):
        for cls in (0, 1):
            nodes = (graph.central_nodes(j) if cls == 0
                     else graph.peripheral_nodes(j))
            cdf = np.cumsum(np.asarray(inits[2 * j + cls], dtype=float))
            u = gen.random(len(nodes))
            colors[list(nodes)] = np.minimum(
                np.searchsorted(cdf, u, side="right"), K - 1
            )
    return colors


@pytest.mark.parametrize("make_gen", [
    lambda: bm.substream(17, 2, 5),
    lambda: np.random.default_rng(17),
], ids=["substream", "default_rng"])
def test_sample_block_colors_matches_reference(make_gen):
    graphs = [
        bm.build_complete_peripheral([(3, 4), (5, 2)]),
        bm.build_regular_peripheral([(1, 4), (1, 4)], 0.5),
        bm.build_complete_peripheral([(7, 9), (2, 3), (4, 1)]),
    ]
    inits3 = [[0.2, 0.5, 0.3], [1.0, 0.0, 0.0], [0.0, 0.25, 0.75],
              [1 / 3, 1 / 3, 1 / 3], [0.1, 0.0, 0.9], [0.0, 0.0, 1.0]]
    for graph in graphs:
        inits = [np.array(m) for m in inits3[:2 * graph.r]]
        gen, ref = make_gen(), make_gen()
        for _ in range(3):
            got = bm.sample_block_colors(graph, inits, gen)
            want = sample_reference(graph, inits, ref)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # the generators are left in the same state
        assert repr(gen.bit_generator.state) == repr(ref.bit_generator.state)
        assert np.array_equal(gen.random(7), ref.random(7))


def small_lln(n_list=(12, 24), replicas=6):
    targets = make_targets()
    spec = bm.sis_spec(2, gamma=0.8, nu=0.5, eta=0.6, zeta=0.7)
    inits = [np.array([0.6, 0.4])] * 4
    return bm.lln_experiment(
        bm.proportional_family(targets), spec, targets, inits,
        T=1.0, grid=11, N_list=list(n_list), replicas=replicas,
        seed=902, dt=0.01)


def test_lln_experiment_shrinks_with_n():
    rep = small_lln(n_list=(12, 96), replicas=12)
    assert rep.n_values == (12, 96)
    assert rep.means[1] < rep.means[0]
    assert rep.distances.shape == (2, 12)
    assert np.all(rep.stderrs > 0)
    assert rep.component_means.shape == (2, 4)


def test_lln_experiment_deterministic():
    a = small_lln()
    b = small_lln()
    assert np.array_equal(a.distances, b.distances)
    assert np.array_equal(a.means, b.means)


def test_lln_experiment_validation():
    targets = make_targets()
    spec = bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7)
    inits = [np.array([0.6, 0.4])] * 4
    fam = bm.proportional_family(targets)
    with pytest.raises(bm.InvalidArgumentError):
        bm.lln_experiment(fam, spec, targets, inits, 1.0, 11, [24, 12],
                          6, 1)
    with pytest.raises(bm.InvalidArgumentError):
        bm.lln_experiment(fam, spec, targets, inits, 1.0, 11, [12, 24],
                          1, 1)


def test_convergence_report_csv_and_svg():
    rep = small_lln()
    buf = io.StringIO()
    rep.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "N,replicas,mean_dist,stderr"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "12"
    svg = io.StringIO()
    rep.to_svg(svg)
    text = svg.getvalue()
    assert text.startswith("<svg ")
    assert "slope -1/2" in text
    assert text.rstrip().endswith("</svg>")


def test_multichaos_joint_and_tv():
    targets = make_targets()
    spec = bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7)
    inits = [np.array([0.6, 0.4])] * 4
    g = bm.proportional_family(targets)(48)
    joint, product, tv = bm.multichaos_test(
        g, spec, [(0, "c"), (1, "p")], T=1.0, replicas=400,
        seed=17, inits=inits)
    assert joint.shape == (2, 2) and product.shape == (2, 2)
    assert joint.sum() == pytest.approx(1.0)
    assert product.sum() == pytest.approx(1.0)
    assert 0.0 <= tv <= 1.0
    # the tagged nodes in a 48-node system are already nearly independent
    assert tv < 0.2
    # a second run with the same seed repeats the first
    j2, p2, tv2 = bm.multichaos_test(
        g, spec, [(0, "c"), (1, "p")], T=1.0, replicas=400,
        seed=17, inits=inits)
    assert np.array_equal(joint, j2)
    assert tv == tv2


def test_multichaos_tagged_resolution():
    targets = make_targets()
    spec = bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7)
    inits = [np.array([0.6, 0.4])] * 4
    g = bm.proportional_family(targets)(24)
    # node ids and (block, class) requests resolve to the same nodes
    a = bm.multichaos_test(g, spec, [(0, "c"), (1, "p")], 0.5,
                           50, 3, inits=inits)
    first_p1 = list(g.peripheral_nodes(1))[0]
    b = bm.multichaos_test(g, spec, [0, first_p1], 0.5,
                           50, 3, inits=inits)
    assert np.array_equal(a[0], b[0])
    with pytest.raises(bm.InvalidArgumentError, match="distinct"):
        bm.multichaos_test(g, spec, [0, (0, "c")], 0.5, 50, 3,
                           inits=inits)
    with pytest.raises(bm.InvalidArgumentError):
        bm.multichaos_test(g, spec, [g.n_total], 0.5, 50, 3,
                           inits=inits)
    # a (block, class) request must name a block of the graph and a class
    for bad in ((-1, "p"), (2, "p"), (0, "x")):
        with pytest.raises(bm.InvalidArgumentError, match="names no class"):
            bm.multichaos_test(g, spec, [0, bad], 0.5, 50, 3,
                               inits=inits)
    # three tagged nodes produce a rank-3 joint table
    j3, p3, _ = bm.multichaos_test(
        g, spec, [0, (0, "p"), (1, "p")], 0.5, 50, 3, inits=inits)
    assert j3.shape == (2, 2, 2)
    assert p3.sum() == pytest.approx(1.0)


SIS2 = bm.sis_spec(2, gamma=[0.8, 1.1], nu=[0.5, 0.4], eta=0.6,
                   zeta=[0.9, 0.7])
INITS2 = [[0.7, 0.3], [0.6, 0.4], [0.8, 0.2], [0.5, 0.5]]


@pytest.mark.parametrize("graph", [
    bm.build_complete_peripheral([(3, 5), (4, 4)]),
    bm.build_regular_peripheral([(2, 4), (2, 4)], 0.5),
], ids=["complete", "regular-twins"])
def test_count_farm_matches_per_node_simulation(graph):
    # two samples of the final infected count of every group: the count
    # farm's replicas against independent per-node kernel runs
    T, reps = 1.5, 2000
    tables = GroupTables(graph, SIS2)
    counts, _ = experiments._count_farm(tables, INITS2, T, reps,
                                        bm.substream(41, 0), grid=[T])
    farm = counts[:, 0, :, 1]
    node = np.empty_like(farm)
    for rep in range(reps):
        gen = bm.substream(41, 1, rep)
        colors = bm.sample_block_colors(graph, INITS2, gen)
        final = bm.simulate(graph, SIS2, colors, T, gen).final_colors
        node[rep] = [final[m].sum() for m in tables.members]
    # means of each group's count, then the law of the total count
    z = (farm.mean(0) - node.mean(0)) / np.sqrt(
        (farm.var(0, ddof=1) + node.var(0, ddof=1)) / reps)
    assert np.all(np.abs(z) < 4.0), z
    a, b = farm.sum(1).astype(int), node.sum(1).astype(int)
    table = np.array([np.bincount(a, minlength=graph.n_total + 1),
                      np.bincount(b, minlength=graph.n_total + 1)])
    table = table[:, table.sum(0) > 0]
    # merge sparse cells from the top until every column holds >= 10
    while table.shape[1] > 2 and table.sum(0).min() < 10:
        i = int(np.argmin(table.sum(0)))
        k = i - 1 if i == table.shape[1] - 1 else i + 1
        table[:, k] += table[:, i]
        table = np.delete(table, i, axis=1)
    assert chi2_contingency(table).pvalue > 1e-3


def test_count_farm_tagged_law_matches_oracle():
    # the tagged nodes' joint law, and so their marginals, against the
    # exact product-space solution on a 10-node design with twin pairs
    graph = bm.build_regular_peripheral([(1, 4), (1, 4)], 0.5)
    T, reps = 1.0, 20000
    tagged = [0, (0, "p"), (1, "p")]
    joint, _, _ = bm.multichaos_test(graph, SIS2, tagged, T, reps, 23,
                                     inits=INITS2)
    dist = bm.master_equation_oracle(
        graph, SIS2, np.asarray(INITS2)[graph.component], T)
    nodes = experiments.resolve_tagged(graph, tagged)
    exact = np.zeros_like(joint)
    for idx, p in enumerate(dist.probs):
        colors = dist.decode(idx)
        exact[tuple(colors[n] for n in nodes)] += p
    se = np.sqrt(exact * (1.0 - exact) / reps)
    assert np.all(np.abs(joint - exact) <= 5 * se)
    for axis, n in enumerate(nodes):
        others = tuple(a for a in range(len(nodes)) if a != axis)
        p = dist.node_marginal(n)
        marg_se = np.sqrt(p * (1.0 - p) / reps)
        assert np.all(np.abs(joint.sum(axis=others) - p) <= 5 * marg_se)


def test_count_farm_is_pinned():
    # the farm's seeded counts and tagged colours, pinned by sha256 of
    # their bytes: a change to the rate map's layout must keep them
    graph = bm.build_regular_peripheral([(2, 4), (2, 4)], 0.5)
    tables = GroupTables(graph, bm.sis_spec(
        2, gamma=[1.8, 2.1], nu=[1.5, 1.4], eta=1.6, zeta=[0.9, 0.7]))
    counts, final = experiments._count_farm(
        tables, INITS2, 2.0, 50, bm.substream(41, 0),
        grid=np.linspace(0.0, 2.0, 5), tagged=[0, 3])
    assert counts.shape == (50, 5, 6, 2) and final.dtype == np.int64
    assert hashlib.sha256(counts.tobytes()).hexdigest() == (
        "826096d4dcf5ebf45f956fc1bf5e20a7455988db308cff2c3678fbd700b42487")
    assert hashlib.sha256(final.tobytes()).hexdigest() == (
        "31bf966a90704d49cf3e154715a008a63afe0d34e2433e107afaf5d3e8fad3b1")
