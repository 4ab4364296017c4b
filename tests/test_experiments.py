import hashlib
import importlib
import io
import logging

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import blockmf as bm
from blockmf import experiments
from blockmf.oracle import _decode_states
from blockmf.simulate import GroupTables, _count_farm

simulate_module = importlib.import_module("blockmf.simulate")


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
    family = bm.proportional_family(targets)
    return bm.lln_experiment(
        [family(N) for N in n_list], spec, targets, inits,
        T=1.0, grid=11, replicas=replicas,
        seeds=[(902, i) for i in range(len(n_list))], dt=0.01)


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


def test_farm_counters_are_logged(caplog):
    # one debug line per N and experiment, with the farm's counters
    targets = make_targets()
    spec = bm.sis_spec(2, gamma=0.8, nu=0.5, eta=0.6, zeta=0.7)
    inits = [np.array([0.6, 0.4])] * 4
    graph = bm.proportional_family(targets)(24)
    with caplog.at_level(logging.DEBUG, logger="blockmf.experiments"):
        small_lln()
        bm.multichaos_test([graph], spec, [(0, "c"), (1, "p")], 1.0, 6, [3],
                           inits=inits)
    tables = GroupTables(graph, spec)
    gen = bm.substream(3, bm.rng.MULTICHAOS)
    [run] = _count_farm([tables], experiments._start_counts(
        [tables], inits, 6, [gen]), 1.0, [gen])
    assert [m.split(":")[0] for m in caplog.messages] == [
        "lln_experiment N=12", "lln_experiment N=24",
        "final_group_counts N=24"]
    assert caplog.messages[-1] == (
        f"final_group_counts N=24: {run.lock_steps} lock-steps, "
        f"{run.jumps} replica jumps")
    assert 0 < run.lock_steps <= run.jumps <= 6 * run.lock_steps


def test_lln_experiment_validation():
    targets = make_targets()
    spec = bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7)
    inits = [np.array([0.6, 0.4])] * 4
    fam = bm.proportional_family(targets)
    with pytest.raises(bm.InvalidArgumentError):
        bm.lln_experiment([fam(24), fam(12)], spec, targets, inits, 1.0, 11,
                          6, [(1, 0), (1, 1)])
    with pytest.raises(bm.InvalidArgumentError):
        bm.lln_experiment([fam(12), fam(24)], spec, targets, inits, 1.0, 11,
                          1, [(1, 0), (1, 1)])


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
    [(joint, product, tv)] = bm.multichaos_test(
        [g], spec, [(0, "c"), (1, "p")], T=1.0, replicas=400,
        seeds=[17], inits=inits)
    assert joint.shape == (2, 2) and product.shape == (2, 2)
    assert joint.sum() == pytest.approx(1.0)
    assert product.sum() == pytest.approx(1.0)
    assert 0.0 <= tv <= 1.0
    # the tagged nodes in a 48-node system are already nearly independent
    assert tv < 0.2
    # a second run with the same seed repeats the first
    [(j2, p2, tv2)] = bm.multichaos_test(
        [g], spec, [(0, "c"), (1, "p")], T=1.0, replicas=400,
        seeds=[17], inits=inits)
    assert np.array_equal(joint, j2)
    assert tv == tv2


def test_multichaos_tagged_resolution():
    targets = make_targets()
    spec = bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7)
    inits = [np.array([0.6, 0.4])] * 4
    g = bm.proportional_family(targets)(24)
    # node ids and (block, class) requests resolve to the same nodes
    [a] = bm.multichaos_test([g], spec, [(0, "c"), (1, "p")], 0.5,
                             50, [3], inits=inits)
    first_p1 = list(g.peripheral_nodes(1))[0]
    [b] = bm.multichaos_test([g], spec, [0, first_p1], 0.5,
                             50, [3], inits=inits)
    assert np.array_equal(a[0], b[0])
    with pytest.raises(bm.InvalidArgumentError, match="distinct"):
        bm.multichaos_test([g], spec, [0, (0, "c")], 0.5, 50, [3],
                           inits=inits)
    with pytest.raises(bm.InvalidArgumentError):
        bm.multichaos_test([g], spec, [g.n_total], 0.5, 50, [3],
                           inits=inits)
    # a (block, class) request must name a block of the graph and a class
    for bad in ((-1, "p"), (2, "p"), (0, "x")):
        with pytest.raises(bm.InvalidArgumentError, match="names no class"):
            bm.multichaos_test([g], spec, [0, bad], 0.5, 50, [3],
                               inits=inits)
    # three tagged nodes produce a rank-3 joint table
    [(j3, p3, _)] = bm.multichaos_test(
        [g], spec, [0, (0, "p"), (1, "p")], 0.5, 50, [3], inits=inits)
    assert j3.shape == (2, 2, 2)
    assert p3.sum() == pytest.approx(1.0)


def test_resolve_tagged_rejects_what_is_no_request():
    g = bm.proportional_family(make_targets())(24)
    assert experiments.resolve_tagged(g, [np.int64(3), (1, "c"), [0, 1]]) \
        == [3, 12, 6]
    # a bool is no node id, a float neither, and a request that is no
    # (block, class) pair names nothing
    for bad, match in (([True, 0], "no node id"), ([2.0], "no node id"),
                       (["0"], "no node id"), ([None], "no node id"),
                       ([(0,)], "names no class"),
                       ([(0, "c", 1)], "names no class"),
                       ([(True, "c")], "names no class"),
                       ([(0.0, "c")], "names no class"),
                       ([("0", "p")], "names no class")):
        with pytest.raises(bm.InvalidArgumentError, match=match):
            experiments.resolve_tagged(g, bad)
    with pytest.raises(bm.InvalidArgumentError, match="no node id"):
        bm.multichaos_test([g], bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7),
                           [True, 0], 0.5, 10, [3], inits=[[0.6, 0.4]] * 4)


def test_resolve_tagged_rejects_bad_node_ids():
    graph = bm.build_regular_peripheral([(2, 4), (2, 4)], 0.5)
    for bad in ([0, 0], [3, 5, 3], [-1], [graph.n_total], [1.0], ["0"],
                [True]):
        with pytest.raises(bm.InvalidArgumentError, match="tagged"):
            experiments.resolve_tagged(graph, bad)
    assert experiments.resolve_tagged(graph, [np.int64(2)]) == [2]
    # a refused value from outside is quoted short
    for bad in (["x" * 100_000], [10 ** 5000], [("p" * 100_000, "c")]):
        with pytest.raises(bm.InvalidArgumentError, match="tagged") as info:
            experiments.resolve_tagged(graph, bad)
        assert len(str(info.value)) < 200


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
    [counts] = experiments._run_farms("test", [tables], INITS2, T, reps,
                                      [bm.substream(41, 0)], np.array([T]))
    farm = counts[:, 0, :, 1]
    node = np.empty_like(farm)
    for rep in range(reps):
        gen = bm.substream(41, 1, rep)
        colors = bm.sample_block_colors(graph, INITS2, gen)
        final = bm.simulate(graph, SIS2, colors, T, gen).final_colors
        node[rep] = np.bincount(graph.group, weights=final,
                                minlength=tables.n_groups)
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
    [(joint, _, _)] = bm.multichaos_test([graph], SIS2, tagged, T, reps,
                                         [23], inits=INITS2)
    dist = bm.master_equation_oracle(
        graph, SIS2, np.asarray(INITS2)[graph.component], T)
    nodes = experiments.resolve_tagged(graph, tagged)
    exact = np.zeros_like(joint)
    for p, colors in zip(dist.probs, _decode_states(dist.K, dist.n_nodes)):
        exact[tuple(colors[n] for n in nodes)] += p
    se = np.sqrt(exact * (1.0 - exact) / reps)
    assert np.all(np.abs(joint - exact) <= 5 * se)
    for axis, n in enumerate(nodes):
        others = tuple(a for a in range(len(nodes)) if a != axis)
        p = dist.node_marginal(n)
        marg_se = np.sqrt(p * (1.0 - p) / reps)
        assert np.all(np.abs(joint.sum(axis=others) - p) <= 5 * marg_se)


@pytest.mark.parametrize("N, exact", [(40, 0.02219), (80, 0.01175)])
def test_multichaos_tv_matches_its_exact_value(N, exact):
    # criterion 5's design, rates, horizon, replicas and seeds: the
    # counts-based TV has a spread of about 0.0007 over seeds at 2,000
    # replicas; the exact values come from the count chain's law
    spec = bm.sis_spec(2, gamma=1.0, nu=3.0, eta=3.0, zeta=2.0)
    [(_, _, tv)] = bm.multichaos_test(
        [bm.proportional_family(make_targets())(N)], spec,
        [(0, "c"), (1, "p")], 3.0, 2000, [(20260815, N)],
        inits=[[0.75, 0.25]] * 4)
    assert abs(tv - exact) <= 3 * 0.0007


EXACT_LAW_DESIGNS = {
    # (design, rates, initial laws, T, node sets): nodes of one group, of
    # two groups, centrals with peripherals
    "complete": (bm.build_complete_peripheral([(2, 3), (2, 3)]), SIS2, INITS2,
                 1.5, [[9], [0, 1], [2, 3, 8], [2, 3, 4], [0, 1, 5], [3, 8]]),
    "regular": (bm.build_regular_peripheral([(1, 4), (1, 4)], 0.5), SIS2,
                INITS2, 1.0, [[0], [0, 1], [1, 2], [1, 3], [0, 1, 6],
                              [1, 2, 3], [2, 3, 7]]),
    # the clamped K=3 queue of test_oracle_vs_simulator_clamped_queue
    "clamped-queue3": (bm.build_complete_peripheral([(1, 2), (1, 1)]),
                       bm.queue_spec(3, zeta=(0.5, 0.2, 0.0), vartheta=0.6,
                                     h_coefficient=1.2),
                       [[0.3, 0.7, 0.0], [0.6, 0.4, 0.0], [0.5, 0.5, 0.0],
                        [0.8, 0.1, 0.1]], 1.5,
                       [[1, 2], [0, 1, 2], [4, 3, 1], [2]]),
}


@pytest.mark.parametrize("name", EXACT_LAW_DESIGNS)
def test_tagged_law_from_group_counts_is_exact(name):
    # the formula read off the product oracle's law lumped to group
    # counts, against the oracle's own joint law of the nodes
    graph, family, inits, T, node_sets = EXACT_LAW_DESIGNS[name]
    dist = bm.master_equation_oracle(
        graph, family, np.asarray(inits)[graph.component], T)
    tables = GroupTables(graph, family)
    colors = _decode_states(dist.K, dist.n_nodes)
    counts = np.stack([(colors[:, graph.group == g, None]
                        == np.arange(dist.K)).sum(axis=1)
                       for g in range(tables.n_groups)], axis=1)
    lumped, which = np.unique(counts, axis=0, return_inverse=True)
    probs = np.bincount(which.ravel(), weights=dist.probs)
    for nodes in node_sets:
        exact = np.zeros((dist.K,) * len(nodes))
        np.add.at(exact, tuple(colors[:, nodes].T), dist.probs)
        got = sum(p * experiments.tagged_law(tables, n[None], nodes)
                  for p, n in zip(probs, lumped))
        np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-13,
                                   err_msg=str(nodes))


@pytest.mark.parametrize("graph, digest", [
    (bm.build_regular_peripheral([(2, 4), (2, 4)], 0.5),
     "dbb6fa3535916a3a790a4e857dede52ef360a4792d4d1523268677a7becb2a4d"),
    (bm.build_complete_peripheral([(3, 5), (4, 4)]),
     "3db1bd1b79fd76b8441930083308ce6f55fedef17b5259fea4f19fa18c120d50"),
], ids=["regular", "complete"])
@pytest.mark.parametrize("record_steps", [1, 3, simulate_module.RECORD_STEPS])
def test_untagged_count_farm_is_pinned(graph, digest, record_steps,
                                       monkeypatch):
    # the grid counts of a farm without tagged nodes, pinned by sha256 of
    # their bytes: a rewrite of the lock-step must not move a draw, and
    # the grid counts do not depend on how often the jump record is
    # landed on the grid
    monkeypatch.setattr(simulate_module, "RECORD_STEPS", record_steps)
    tables = GroupTables(graph, bm.sis_spec(
        2, gamma=[1.8, 2.1], nu=[1.5, 1.4], eta=1.6, zeta=[0.9, 0.7]))
    [counts] = experiments._run_farms(
        "test", [tables], INITS2, 2.0, 50, [bm.substream(41, 0)],
        np.linspace(0.0, 2.0, 5))
    assert counts.shape == (50, 5, tables.n_groups, 2)
    assert hashlib.sha256(counts.tobytes()).hexdigest() == digest


def oracle_design_farm(replicas):
    """The oracle-check design with sis2 rates and iid starts with law
    INITS2."""
    graph = bm.build_regular_peripheral([(1, 4), (1, 4)], 0.5)
    tables = GroupTables(graph, SIS2)
    gen = bm.substream(23, 1)
    [start] = experiments._start_counts([tables], INITS2, replicas, [gen])
    return tables, start, 1.0, gen


def absorbed_farm():
    """A complete design under the chaos-criterion SIS rates, every third
    replica starting all-susceptible, where its total rate is 0."""
    graph = bm.build_complete_peripheral([(3, 5), (4, 4)])
    tables = GroupTables(graph, bm.sis_spec(2, gamma=1.0, nu=3.0, eta=3.0,
                                            zeta=2.0))
    gen = bm.substream(23, 2)
    [start] = experiments._start_counts([tables], [[0.75, 0.25]] * 4, 24,
                                        [gen])
    start[::3] = 0
    start[::3, :, 0] = tables.sizes
    return tables, start, 3.0, gen


@pytest.mark.parametrize("farm, pins", [
    (lambda: oracle_design_farm(300), (
        "d7dcd1b67f137cb3ce84d744a6d07e7da744ad6f566f7e82ea91a26a9f5e1de4",
        "fd652031c4c20c5f0d8aa5dfdaf8abbe8f31cb3da78d3233b6ee03f4e7caef89",
        12, 1026)),
    (absorbed_farm, (
        "460b0465a0c9b4b8df75fef8bcc70fff89b23f754c590458f98b2077cf68dab1",
        "77a1130b15075bb34a3a9722e1c4043777564b1f7c61d5a106aa4931bb1f31b1",
        62, 381)),
    (lambda: oracle_design_farm(1), (
        "91ac76ddcbf11a415c55602f05d2ebe18031c58865c9b344dc3008ec835def7a",
        "1e0b62bbe6219ff969a5f870c8d2b090dca08f756dfe379663211884061fe503",
        5, 5)),
], ids=["oracle-design", "absorbed", "one-replica"])
def test_count_farm_with_stopping_replicas_is_pinned(farm, pins):
    # farms whose replicas stop at many different lock-steps (or at the
    # first, with no rate): final counts, the jumps before T (times and
    # picked rows, in lock-step order) and the counters, pinned. A
    # replica's record entries after it stopped lie past T.
    tables, start, T, gen = farm()
    blocks = []
    [run] = _count_farm([tables], [start], T, [gen],
                        lambda times, picks: blocks.append((times, picks)))
    times, picks = (np.concatenate(b) for b in zip(*blocks))
    jumped = times <= T
    assert times.shape == picks.shape == (run.lock_steps, len(start))
    assert np.count_nonzero(jumped) == run.jumps
    assert np.all(times[~jumped] > T)
    got = (hashlib.sha256(run.final.tobytes()).hexdigest(),
           hashlib.sha256(times[jumped].tobytes()
                          + picks[jumped].tobytes()).hexdigest(),
           run.lock_steps, run.jumps)
    assert got == pins


def farm_record(designs, starts, T, seeds):
    """A farm of `designs` from `starts`, each design drawing from
    bm.substream(*its seed): its runs, its jump record stacked over the
    blocks (times, picks), and its generators after the farm."""
    gens = [bm.substream(*seed) for seed in seeds]
    blocks = []
    runs = _count_farm(designs, starts, T, gens,
                       lambda times, picks: blocks.append((times, picks)))
    times, picks = (np.concatenate(b) for b in zip(*blocks))
    return runs, times, picks, gens


@pytest.mark.parametrize("record_steps", [1, 3, simulate_module.RECORD_STEPS])
def test_multi_design_farm_matches_each_design_alone(record_steps,
                                                     monkeypatch):
    # complete designs at three N in one farm, against each design's farm
    # of its own: the final counts, counters and jump record of every
    # design, bit for bit, and each generator left where its own farm
    # leaves it. In the N=24 design every third replica starts
    # all-susceptible, where its total rate is 0.
    monkeypatch.setattr(simulate_module, "RECORD_STEPS", record_steps)
    family = bm.proportional_family(make_targets())
    spec = bm.sis_spec(2, gamma=1.0, nu=3.0, eta=3.0, zeta=2.0)
    designs = [GroupTables(family(N), spec) for N in (12, 24, 48)]
    seeds = [(29, i) for i in range(3)]
    starts = experiments._start_counts(
        designs, [[0.75, 0.25]] * 4, 9, [bm.substream(31, i)
                                         for i in range(3)])
    starts = [start[:R] for start, R in zip(starts, (5, 7, 9))]
    starts[1][::3] = 0
    starts[1][::3, :, 0] = designs[1].sizes
    T = 3.0
    runs, times, picks, gens = farm_record(designs, starts, T, seeds)
    assert times.shape == picks.shape == (
        max(run.lock_steps for run in runs), 21)
    lo = 0
    for tables, start, seed, run, gen in zip(designs, starts, seeds, runs,
                                             gens):
        [alone], a_times, a_picks, [a_gen] = farm_record(
            [tables], [start], T, [seed])
        hi = lo + len(start)
        assert run.final.tobytes() == alone.final.tobytes()
        assert (run.lock_steps, run.jumps) == (alone.lock_steps, alone.jumps)
        assert 0 < run.lock_steps <= run.jumps
        steps = run.lock_steps
        assert times[:steps, lo:hi].tobytes() == a_times.tobytes()
        assert picks[:steps, lo:hi].tobytes() == a_picks.tobytes()
        # after its last replica stopped, a design's columns read no jump
        assert np.all(times[steps:, lo:hi] == np.inf)
        assert np.all(picks[steps:, lo:hi] == 0)
        assert repr(gen.bit_generator.state) == repr(
            a_gen.bit_generator.state)
        lo = hi


def test_count_farm_refuses_designs_of_different_structures():
    complete = GroupTables(bm.build_complete_peripheral([(3, 5), (4, 4)]),
                           SIS2)
    regular = GroupTables(bm.build_regular_peripheral([(2, 4), (2, 4)], 0.5),
                          SIS2)
    gens = [bm.substream(41, 0), bm.substream(41, 1)]
    starts = experiments._start_counts([complete], INITS2, 2, gens[:1]) + \
        experiments._start_counts([regular], INITS2, 2, gens[1:])
    with pytest.raises(bm.InvalidArgumentError, match="structure"):
        _count_farm([complete, regular], starts, 1.0, gens)


@pytest.mark.parametrize("nodes, message", [
    ([True], r"^tagged node True is no node id in 0\.\.11$"),
    ([1.0], r"^tagged node 1\.0 is no node id in 0\.\.11$"),
    ([99], r"^tagged node 99 is no node id in 0\.\.11$"),
    ([-1], r"^tagged node -1 is no node id in 0\.\.11$"),
    ([3, 3], "^tagged nodes must be distinct$"),
], ids=["bool", "float", "past-the-end", "negative", "repeated"])
def test_tagged_law_fails_closed_on_node_ids(nodes, message):
    # [True] and [1.0] read node 1; past-the-end and negative ids raised a
    # bare StopIteration; a repeated node read as two distinct ones
    graph = bm.proportional_family(make_targets())(12)
    tables = GroupTables(graph, bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7))
    counts = np.ones((1, tables.n_groups, tables.K))
    with pytest.raises(bm.InvalidArgumentError, match=message):
        experiments.tagged_law(tables, counts, nodes)


@pytest.mark.parametrize("gens", [
    None, 5, [3], [], [np.random.default_rng(5)] * 2,
    (np.random.default_rng(5),),
], ids=["none", "int", "list-of-int", "empty", "two-for-one", "tuple"])
def test_final_group_counts_fails_closed_on_gens(gens):
    # None and 5 raised a bare TypeError, [3] a bare AttributeError
    graph = bm.proportional_family(make_targets())(12)
    with pytest.raises(bm.InvalidArgumentError,
                       match="^gens must be a list of one numpy Generator "
                             "per graph, 1 in all, got "):
        experiments.final_group_counts(
            [graph], bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7), 1.0, 4, gens,
            inits=[[0.6, 0.4]] * 4)


def test_count_farm_rejects_non_finite_rates():
    graph = bm.build_complete_peripheral([(3, 5), (4, 4)])
    tables = GroupTables(graph, SIS2)
    tables.gather_weight = np.full_like(tables.gather_weight, np.inf)
    gen = bm.substream(41, 0)
    start = experiments._start_counts([tables], INITS2, 4, [gen])
    # inf times a zero count is nan: the farm says so without a warning
    with pytest.raises(bm.NumericalBlowupError, match="non-finite"):
        _count_farm([tables], start, 1.0, [gen])


def initial_law_entry_points():
    """Each library entry point that reads a list of initial laws, as a
    call on the inits alone."""
    targets = make_targets()
    spec = bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7)
    graph = bm.proportional_family(targets)(12)
    return {
        "solve_mckean_vlasov": lambda inits: bm.solve_mckean_vlasov(
            spec, targets, inits, 1.0, 0.1),
        "picard_iterate": lambda inits: bm.picard_iterate(
            spec, targets, inits, 1.0, 0.1),
        "sample_block_colors": lambda inits: bm.sample_block_colors(
            graph, inits, bm.substream(5)),
        "final_group_counts": lambda inits: experiments.final_group_counts(
            [graph], spec, 1.0, 4, [bm.substream(5)], inits=inits),
        "lln_experiment": lambda inits: bm.lln_experiment(
            [graph], spec, targets, inits, 1.0, 11, 4, [(5, 0)]),
    }


@pytest.mark.parametrize("entry", sorted(initial_law_entry_points()))
@pytest.mark.parametrize("inits, message", [
    ([[0.6, 0.4]] * 3, "^need 2r=4 initial measures$"),
    ([[0.6, 0.4]] * 5, "^need 2r=4 initial measures$"),
    ([[0.6, 0.4], [0.6, 0.4], [0.6, 0.3], [0.6, 0.4]], "sums to"),
    ([[0.6, 0.4], [0.6, 0.4], [0.6, 0.4], [1.2, -0.2]], ">= 0"),
], ids=["three-laws", "five-laws", "short-sum", "negative"])
def test_initial_laws_fail_closed(entry, inits, message):
    # one fault per input: a wrong number of laws, or one law that is no
    # distribution; every entry point names it the same way
    with pytest.raises(bm.InvalidArgumentError, match=message):
        initial_law_entry_points()[entry](inits)


def count_argument_calls():
    """(argument name, call on its value) for each count argument of the
    library's solvers and experiments."""
    targets = make_targets()
    spec = bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7)
    inits = [[0.6, 0.4]] * 4
    fam = bm.proportional_family(targets)
    graph = fam(12)

    def lln(**kw):
        args = dict(grid=11, replicas=4) | kw
        return bm.lln_experiment([graph, fam(24)], spec, targets, inits, 1.0,
                                 seeds=[(5, 0), (5, 1)], **args)

    return {
        "picard_iterate-max_iter": ("max_iter", lambda v: bm.picard_iterate(
            spec, targets, inits, 1.0, 0.1, tol=1e-30, max_iter=v)),
        "lln_experiment-grid": ("grid", lambda v: lln(grid=v)),
        "lln_experiment-replicas": ("replicas", lambda v: lln(replicas=v)),
        "final_group_counts-replicas": (
            "replicas", lambda v: experiments.final_group_counts(
                [graph], spec, 1.0, v, [bm.substream(5)], inits=inits)),
        "multichaos_test-replicas": ("replicas",
                                     lambda v: bm.multichaos_test(
                                         [graph], spec, [0, 1], 1.0, v, [5],
                                         inits=inits)),
    }


@pytest.mark.parametrize("call", sorted(count_argument_calls()))
@pytest.mark.parametrize("value", [12.7, np.float64(12.0), True, "12"],
                         ids=["float", "numpy-float", "bool", "string"])
def test_count_arguments_take_true_integers(call, value):
    # picard_iterate(max_iter=2.7) ran 2 sweeps and reported 2.7;
    # lln_experiment truncated grid and N values; a float replica count
    # escaped as a bare TypeError
    name, run = count_argument_calls()[call]
    with pytest.raises(bm.InvalidArgumentError,
                       match=f"^{name} must be an integer, got "):
        run(value)


@pytest.mark.parametrize("call, value", [
    ("lln_experiment-grid", -1),
    ("lln_experiment-grid", 2 ** 63),
    ("lln_experiment-replicas", 2 ** 63),
    # each N's grid counts fit one array, both N's together do not
    ("lln_experiment-replicas", 10 ** 16),
    ("final_group_counts-replicas", 2 ** 63),
    ("multichaos_test-replicas", 2 ** 63),
])
def test_count_arguments_past_numpy_fail_closed(call, value):
    # each escaped as numpy's bare ValueError or IndexError; the farm of
    # all N stacks their replicas, so their sum sizes its arrays
    name, run = count_argument_calls()[call]
    with pytest.raises(bm.InvalidArgumentError, match=name):
        run(value)


def seed_calls():
    """Call on a seed for each library entry point that takes one."""
    targets = make_targets()
    spec = bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7)
    inits = [[0.6, 0.4]] * 4
    fam = bm.proportional_family(targets)
    graph = fam(12)
    return {
        "substream": lambda s: bm.substream(s),
        "substream-path": lambda s: bm.substream(5, s),
        "simulate": lambda s: bm.simulate(graph, spec, [0] * 12, 1.0, s),
        "lln_experiment": lambda s: bm.lln_experiment(
            [graph], spec, targets, inits, 1.0, 11, 2, [(s, 0)]),
        "lln_experiment-path": lambda s: bm.lln_experiment(
            [graph], spec, targets, inits, 1.0, 11, 2, [(5, s, 0)]),
        "multichaos_test": lambda s: bm.multichaos_test(
            [graph], spec, [0, 1], 1.0, 4, [s], inits=inits),
        "sample_reference_path": lambda s: bm.sample_reference_path(
            spec.colors, 0, 1.0, s),
    }


@pytest.mark.parametrize("call", sorted(seed_calls()))
@pytest.mark.parametrize("seed, message", [
    (1.5, "must be an integer, got 1.5"),
    (np.float64(1.0), "must be an integer, got "),
    (True, "must be an integer, got True"),
    ("1", "must be an integer, got '1'"),
    (-1, "must be >= 0"),
], ids=["float", "numpy-float", "bool", "string", "negative"])
def test_seeds_are_integers_not_truncated(call, seed, message):
    # seed=1.5 and seed=True replayed seed=1; a negative word escaped as
    # numpy's bare ValueError
    with pytest.raises(bm.InvalidArgumentError, match=message):
        seed_calls()[call](seed)


def test_integer_seed_streams_stay_put():
    for path in [(17,), (17, 2, 5), (np.int64(17), np.uint8(2), 5),
                 (2 ** 70, 0, 0, bm.rng.SIMULATE)]:
        want = np.random.Generator(np.random.Philox(
            np.random.SeedSequence([int(w) for w in path])))
        assert np.array_equal(bm.substream(*path).random(5), want.random(5))
