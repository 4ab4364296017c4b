import hashlib
import io
import logging
import pickle
import sys
import threading

import numpy as np
import pytest

import blockmf as bm
from blockmf.meanfield import _VectorField
from blockmf.graph import CENTRAL, PERIPHERAL
from blockmf.rates import total_rate
from blockmf.rng import BatchedDraws
from blockmf.simulate import (GroupTables, _group_tables, _start,
                              local_empirical)
from conftest import list_affine_rows, random_rate_family, reference_rate

SIS = bm.sis_spec(2, gamma=[0.8, 1.1], nu=[0.5, 0.4], eta=0.6,
                  zeta=[0.9, 0.7])


def test_system_state_from_colors():
    g = bm.build_complete_peripheral([(2, 3), (2, 3)])
    colors = [0, 1, 1, 1, 0, 0, 0, 1, 0, 1]
    st = bm.SystemState.from_colors(g, colors, 2)
    assert st.K == 2
    assert tuple(st.counts[0]) == (1, 1)     # block 0 centrals
    assert tuple(st.counts[1]) == (1, 2)     # block 0 peripherals
    assert tuple(st.counts[3]) == (1, 2)     # block 1 peripherals
    assert st.class_size(1, 0) == 2
    with pytest.raises(bm.InvalidArgumentError, match="colors"):
        bm.SystemState.from_colors(g, colors[:-1], 2)
    with pytest.raises(bm.InvalidArgumentError, match="0..1"):
        bm.SystemState.from_colors(g, [2] + colors[1:], 2)
    # non-integer colors are refused, not truncated
    for bad in ([0.7, 1.2] * 5, np.array(colors, dtype=float),
                [True, False] * 5, np.array(colors, dtype=bool)):
        with pytest.raises(bm.InvalidArgumentError, match="integer"):
            bm.SystemState.from_colors(g, bad, 2)
    one = bm.build_complete_peripheral([(1, 1)])
    for bad in ([0.7, 1.2], [True, False]):
        with pytest.raises(bm.InvalidArgumentError, match="integer"):
            bm.simulate(one, SIS.central[0], bad, 1.0, seed=1)


def test_trajectory_replay_and_csv():
    g = bm.build_complete_peripheral([(1, 1)])
    st = bm.SystemState.from_colors(g, [0, 0], 2)
    tr = bm.Trajectory(st, [(0.5, 0, 0, 1), (0.9, 1, 0, 1), (1.4, 0, 1, 0)],
                       2.0)
    assert list(tr.final_colors) == [0, 1]
    buf = io.StringIO()
    tr.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,node,from,to"
    assert lines[1] == "0.5,0,0,1"
    assert len(lines) == 4


def test_simulate_determinism_and_horizon():
    g = bm.build_complete_peripheral([(2, 3), (2, 3)])
    init = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    a = bm.simulate(g, SIS, init, 2.0, seed=7)
    b = bm.simulate(g, SIS, init, 2.0, seed=7)
    c = bm.simulate(g, SIS, init, 2.0, seed=8)
    assert a.events == b.events
    assert a.events != c.events
    assert a.horizon == 2.0
    times = [e[0] for e in a.events]
    assert all(0.0 < t <= 2.0 for t in times)
    assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))


def test_simulate_events_follow_color_graph():
    g = bm.build_complete_peripheral([(2, 3), (2, 3)])
    q = bm.queue_spec(3, zeta=1.0, vartheta=0.8, h_coefficient=0.4)
    init = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
    tr = bm.simulate(g, q, init, 1.5, seed=11, debug=True)
    allowed = set(q.colors.edges)
    colors = list(init)
    for _, node, z, zp in tr.events:
        assert colors[node] == z
        assert (z, zp) in allowed
        colors[node] = zp
    assert list(tr.final_colors) == colors


def test_simulate_zero_horizon_and_bad_args():
    g = bm.build_complete_peripheral([(1, 1)])
    tr = bm.simulate(g, SIS.central[0], [0, 1], 0.0, seed=3)
    assert tr.events == []
    with pytest.raises(bm.InvalidArgumentError):
        bm.simulate(g, SIS.central[0], [0, 1], -1.0, seed=3)
    with pytest.raises(bm.InvalidArgumentError, match="K"):
        q3 = bm.queue_spec(3, 1.0, 0.5, 0.4)
        st = bm.SystemState.from_colors(g, [0, 1], 2)
        bm.simulate(g, q3, st, 1.0, seed=3)


def test_kernel_reuse_leaks_no_state():
    # simulate reuses the last design's tables: runs on other designs in
    # between must leave no trace in a rerun of the first one
    graph_a = bm.build_regular_peripheral([(2, 4), (2, 4)], 0.5)
    init_a = [0, 1, 2, 0, 0, 1, 0, 1, 2, 0, 1, 0]
    queue = bm.queue_spec(3, zeta=1.0, vartheta=0.8, h_coefficient=0.4)
    first = bm.simulate(graph_a, queue, init_a, 5.0, seed=7)
    assert len(first.events) > 2 * BatchedDraws.FIRST  # refills mid-run
    for debug in (False, True):
        graph_b = bm.build_complete_peripheral([(2, 3), (3, 4)])
        bm.simulate(graph_b, queue, [1] * graph_b.n_total, 5.0,
                    seed=8, debug=debug)
        bm.simulate(graph_a, SIS, [1] * graph_a.n_total, 5.0, seed=9,
                    debug=debug)
        again = bm.simulate(graph_a, queue, init_a, 5.0, seed=7,
                            debug=debug)
        assert again.events == first.events
        assert (again.refreshes, again.drawn) == (first.refreshes,
                                                  first.drawn)


def test_kernel_is_shared_by_equal_designs():
    # an equal graph (an unpickled copy) and an equal rate
    # family hit the one-entry tables cache; anything else rebuilds
    graph = bm.build_regular_peripheral([(2, 4), (2, 4)], 0.5)
    family = bm.as_block_rates(SIS, 2)
    tables = _group_tables(graph, family)
    assert _group_tables(pickle.loads(pickle.dumps(graph)),
                         bm.as_block_rates(SIS, 2)) is tables
    other = bm.sis_spec(2, gamma=0.8, nu=0.5, eta=0.6, zeta=0.9)
    assert _group_tables(graph, bm.as_block_rates(other, 2)) is not tables


def test_threads_do_not_share_a_kernel():
    # threads that interleave runs share the tables of each design, and
    # swap the cached design under one another: each must still get the
    # sequential result
    queue = bm.queue_spec(3, zeta=1.0, vartheta=0.8, h_coefficient=0.4)
    designs = [(bm.build_complete_peripheral([(2, 3), (2, 3)]),
                [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]),
               (bm.build_regular_peripheral([(2, 4), (2, 4)], 0.5),
                [0, 1, 2, 0, 0, 1, 0, 1, 2, 0, 1, 0])]
    want = {s: [bm.simulate(graph, queue, init, 3.0, seed=s).events
                for graph, init in designs] for s in range(4)}
    got = {}

    def worker(s):
        got[s] = [[bm.simulate(graph, queue, init, 3.0, seed=s).events
                   for graph, init in designs] for _ in range(10)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert got == {s: [events] * 10 for s, events in want.items()}


# seeded runs pinned by a sha256 of the event rows (repr of the list of
# (t, node, from, to) tuples) and the run's counters
PINNED_RUNS = {
    "complete": (
        lambda: bm.build_complete_peripheral([(3, 5), (4, 4)]), 60, 149, 320,
        "230ce4f66897d790df48d2fd116018c86ac741e3459ff42ded01c80d8057c5bb"),
    "regular-f0.5": (
        lambda: bm.build_regular_peripheral([(2, 4), (3, 6)], 0.5),
        95, 348, 320,
        "fdc804e0e01e92a347e0a97d3fef92d77d43d48d28a00b9305d9f66f02a0f2c4"),
    "regular-f0.25": (
        lambda: bm.build_regular_peripheral([(2, 8), (2, 8)], 0.25),
        101, 584, 448,
        "86898b861d0f5ab4cafd3cecf4c13284a7abca0867368fe646626c24a1270aad"),
    "queue3": (
        lambda: bm.build_regular_peripheral([(2, 4), (2, 4)], 0.5),
        101, 368, 448,
        "79a611d0d891fb348ebab3f79ad223182689455e04f14ce0e91303aaebcb7b85"),
}


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_seeded_runs_are_pinned(name):
    # the kernel's arithmetic and draw order are fixed: a rewrite must
    # reproduce these runs event for event
    builder, n_events, refreshes, drawn, digest = PINNED_RUNS[name]
    graph = builder()
    gen = np.random.default_rng(3)
    if name == "queue3":
        fam = bm.queue_spec(3, zeta=(1.0, 0.8, 0.0), vartheta=0.6,
                            h_coefficient=0.4)
        init = gen.integers(0, 3, graph.n_total)
    else:
        fam = bm.sis_spec(2, gamma=[1.8, 2.1], nu=[1.5, 1.4], eta=1.6,
                          zeta=[0.9, 0.7])
        init = (gen.random(graph.n_total) < 0.8).astype(np.int64)
    for debug in (False, True):
        tr = bm.simulate(graph, fam, init, 8.0, seed=19, debug=debug)
        assert (len(tr.events), tr.refreshes, tr.drawn) == (
            n_events, refreshes, drawn)
        assert hashlib.sha256(repr(tr.events).encode()).hexdigest() == digest


def test_trajectory_counters(caplog):
    g = bm.build_complete_peripheral([(2, 3), (2, 3)])
    init = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    with caplog.at_level(logging.DEBUG, logger="blockmf.simulate"):
        tr = bm.simulate(g, SIS, init, 2.0, seed=7)
    # every jump refreshes at least its own group; each stream's first
    # block is BatchedDraws.FIRST numbers
    assert tr.refreshes >= len(tr.events) > 0
    assert tr.drawn >= 2 * BatchedDraws.FIRST
    assert tr == bm.Trajectory(tr.initial, tr.events, tr.horizon)
    assert caplog.messages == [
        f"simulate: {len(tr.events)} events, {tr.refreshes} refreshes, "
        f"{tr.drawn} drawn"
    ]


def kernel_definition_gap(graph, family, colors):
    """Max |kernel rate - definition rate| over nodes and edges."""
    family = bm.as_block_rates(family, graph.r)
    st = bm.SystemState.from_colors(graph, colors, family.colors.K)
    tables = GroupTables(graph, family)
    _, _, rate, _ = _start(tables, st.colors.tolist())
    group = {n: g for g, members in enumerate(tables.members) for n in members}
    worst = 0.0
    for n in range(graph.n_total):
        j, cls = graph.block_of(n), graph.class_of(n)
        spec = family.spec_for(j, cls)
        lm = local_empirical(st, graph, n)
        g = group[n]
        for e in range(family.colors.n_edges):
            ref = total_rate(spec, e, lm.proportions[0], lm.parts[0],
                             lm.proportions[1:], lm.parts[1:])
            worst = max(worst, abs(rate[g][e] - ref))
    return worst


@pytest.mark.parametrize("builder", [
    lambda: bm.build_complete_peripheral([(2, 3), (2, 3)]),
    lambda: bm.build_regular_peripheral([(2, 4), (2, 4)],
                                        ((0.5, 0.5), (0.5, 0.5))),
    lambda: bm.build_regular_peripheral([(2, 4), (2, 4)], 0.25),
])
@pytest.mark.parametrize("fam", [
    SIS,
    bm.queue_spec(3, zeta=(1.0, 0.8, 0.0), vartheta=0.6, h_coefficient=0.4),
])
def test_kernel_rates_match_definition(builder, fam):
    # aggregated-group rates must agree with the per-node neighborhood
    # definition whatever the twin classes are: whole blocks (complete
    # design), pairs (f=0.5) or singletons (f=0.25, cross degree 1)
    graph = builder()
    family = bm.as_block_rates(fam, graph.r)
    gen = np.random.default_rng(5)
    for _ in range(6):
        colors = gen.integers(0, family.colors.K, graph.n_total)
        assert kernel_definition_gap(graph, family, colors) <= 1e-12


@pytest.mark.parametrize("fam", [
    SIS,
    bm.queue_spec(3, zeta=(1.0, 0.8, 0.0), vartheta=0.6, h_coefficient=0.4),
])
def test_kernel_rates_match_limit_field(fam):
    # on a complete design the finite graph's proportions are the limit's,
    # so each aggregated group must read the limit rates at counts/size
    graph = bm.build_complete_peripheral([(2, 3), (3, 4)])
    targets = bm.ProportionTargets.from_graph(graph)
    family = bm.as_block_rates(fam, graph.r)
    field = _VectorField(family, targets)
    K, ne = family.colors.K, family.colors.n_edges
    gen = np.random.default_rng(13)
    for _ in range(6):
        colors = gen.integers(0, K, graph.n_total)
        st = bm.SystemState.from_colors(graph, colors, K)
        tables = GroupTables(graph, family)
        _, _, rate, _ = _start(tables, st.colors.tolist())
        y = np.concatenate([
            np.asarray(st.counts[2 * j + cls], dtype=float)
            / graph.block_sizes[j][cls]
            for j in range(graph.r) for cls in (0, 1)
        ])
        want = field.rates(y)
        for g, (j, cls) in enumerate(tables.meta):
            comp = 2 * j + cls
            assert np.abs(np.asarray(rate[g])
                          - want[comp * ne:(comp + 1) * ne]).max() <= 1e-12


@pytest.mark.parametrize("builder, n_groups", [
    (lambda: bm.build_complete_peripheral([(2, 3), (3, 4)]), 4),
    (lambda: bm.build_regular_peripheral([(1, 4), (1, 4)], 0.5), 6),
    (lambda: bm.build_regular_peripheral([(2, 4), (2, 4)], 0.25), 10),
], ids=["complete", "regular-f0.5", "regular-f0.25"])
def test_kernel_groups_are_twin_classes(builder, n_groups):
    # a group is a maximal set of nodes sharing block, class and closed
    # neighbourhood
    graph = builder()
    tables = GroupTables(graph, SIS)
    assert tables.n_groups == n_groups

    def closed(n):
        if not graph.is_peripheral(n):
            return ("central", graph.block_of(n))
        return tuple(sorted([*graph.peripheral_neighbors(n), n]))

    seen = set()
    for g, members in enumerate(tables.members):
        keys = {(graph.block_of(n), graph.class_of(n), closed(n))
                for n in members}
        assert len(keys) == 1
        assert tables.meta[g] == next(iter(keys))[:2]
        seen |= keys
    assert len(seen) == n_groups
    assert sorted(n for m in tables.members for n in m) == list(
        range(graph.n_total))


def reference_tables(graph, family):
    """The kernel's group tables compiled as Python lists, one group at a
    time: members, (block, class), coefficient rows, beta and reverse
    dependencies. The reference `GroupTables` must reproduce."""
    K = family.colors.K
    members = [list(graph.central_nodes(j)) for j in range(graph.r)]
    members += [list(c) for c in graph.twin_classes]
    meta = [(graph.block_of(m[0]), graph.class_of(m[0])) for m in members]

    def readers():
        for g, (j, cls) in enumerate(meta):
            if cls == CENTRAL:
                w = 1.0 / graph.block_size(j)
                seen = [h for h, m in enumerate(meta) if m == (j, PERIPHERAL)]
            else:
                w = 1.0 / (graph.degree(members[g][0]) + 1)
                seen = [graph.r + d for d in graph.twin_links[g - graph.r]]
            reads = dict.fromkeys(seen, (w, PERIPHERAL))
            reads[j] = (w, CENTRAL)
            yield (j, cls), reads

    coef, beta = list_affine_rows(family, readers())
    deps = [set() for _ in members]
    for g in range(len(members)):
        for g0 in {idx // K for row in coef[g] for idx, _ in row}:
            deps[g0].add(g)
    for g0 in range(len(members)):
        deps[g0].add(g0)
    return members, meta, coef, beta, [sorted(d) for d in deps]


# the designs the tests build, complete and regular
TABLE_DESIGNS = [
    lambda: bm.build_complete_peripheral([(1, 1)]),
    lambda: bm.build_complete_peripheral([(1, 2)]),
    lambda: bm.build_complete_peripheral([(2, 1)]),
    lambda: bm.build_complete_peripheral([(7, 6)]),
    lambda: bm.build_complete_peripheral([(2, 3), (2, 3)]),
    lambda: bm.build_complete_peripheral([(2, 3), (3, 4)]),
    lambda: bm.build_complete_peripheral([(2, 3), (4, 1)]),
    lambda: bm.build_complete_peripheral([(3, 4), (5, 2)]),
    lambda: bm.build_complete_peripheral([(50, 50), (50, 50)]),
    lambda: bm.build_complete_peripheral([(320, 960)] * 2),
    lambda: bm.build_complete_peripheral([(2, 3), (1, 4), (3, 2)]),
    lambda: bm.build_complete_peripheral([(7, 9), (2, 3), (4, 1)]),
    lambda: bm.BlockGraph([(1, 2), (1, 2)], [(1, 2), (4, 5), (1, 4)]),
    lambda: bm.build_regular_peripheral([(1, 4), (1, 4)], 0.5),
    lambda: bm.build_regular_peripheral([(1, 4), (1, 4)], 1.0),
    lambda: bm.build_regular_peripheral([(2, 4), (2, 4)], 0.5),
    lambda: bm.build_regular_peripheral([(2, 4), (2, 4)], 0.25),
    lambda: bm.build_regular_peripheral([(2, 4), (3, 4)], 0.5),
    lambda: bm.build_regular_peripheral([(3, 6), (3, 6)], 0.5),
    lambda: bm.build_regular_peripheral([(10, 30), (10, 30)], 0.2),
    lambda: bm.build_regular_peripheral([(10, 30), (10, 30)], 1 / 30),
    lambda: bm.build_regular_peripheral([(320, 960)] * 2, 0.5),
    lambda: bm.build_regular_peripheral(
        [(1, 6), (1, 4), (1, 6)],
        [[0, .5, 1 / 3], [.5, 0, .5], [1 / 3, .5, 0]]),
]


@pytest.mark.parametrize("builder", TABLE_DESIGNS)
def test_group_tables_match_list_compile(builder):
    # the array tables give back the list compile's rows, beta and
    # dependencies bit for bit, and the kernel's list views are exactly
    # those
    graph = builder()
    for fam in (bm.sis_spec(graph.r, gamma=0.8, nu=0.5, eta=0.6, zeta=0.9),
                bm.queue_spec(3, zeta=(1.0, 0.8, 0.0), vartheta=0.6,
                              h_coefficient=0.4)):
        family = bm.as_block_rates(fam, graph.r)
        members, meta, coef, beta, deps = reference_tables(graph, family)
        tables = GroupTables(graph, family)
        assert tables.members == members
        assert tables.meta == meta
        E = family.colors.n_edges
        nonzeros = [(g * E + e, col, w) for g, own in enumerate(coef)
                    for e, row in enumerate(own) for col, w in row]
        assert list(zip(tables.row.tolist(), tables.col.tolist(),
                        tables.weight.tolist())) == nonzeros
        assert tables.beta.tolist() == beta
        assert tables.deps == deps
        assert tables.sizes.tolist() == [len(m) for m in members]
        assert tables.component.tolist() == [2 * j + c for j, c in meta]
        assert [tables.group_of(n) for n in range(graph.n_total)] == [
            g for _, g in sorted((n, g) for g, ms in enumerate(members)
                                 for n in ms)]
        assert (tables.coef, tables.beta_rows, tables.deps) == (
            coef, beta, deps)


def test_kernel_group_totals():
    graph = bm.build_complete_peripheral([(2, 3), (2, 3)])
    gen = np.random.default_rng(9)
    colors = gen.integers(0, 2, graph.n_total)
    st = bm.SystemState.from_colors(graph, colors, 2)
    tables = GroupTables(graph, SIS)
    _, _, rate, group_total = _start(tables, st.colors.tolist())
    cg = SIS.colors
    for g, members in enumerate(tables.members):
        expect = sum(
            rate[g][e]
            for n in members
            for e in cg.out_edges(int(colors[n]))
        )
        assert group_total[g] == pytest.approx(expect, abs=1e-12)


def test_independent_nodes_exponential_law():
    # gamma == 0 and a one-way color edge: every node flips 0 -> 1 at
    # constant rate b independently, so the final share of color 1 is a
    # Binomial(N, 1 - exp(-b T)) average
    b, T = 0.7, 1.3
    cg = bm.ColorGraph(2, [(0, 1)])
    spec = bm.RateSpec(cg, [(0.0, 0.0)], [(0.0, 0.0)], beta=(b,))
    g = bm.build_complete_peripheral([(5, 5), (5, 5)])
    n_rep = 400
    hits = total = 0
    for rep in range(n_rep):
        tr = bm.simulate(g, spec, [0] * g.n_total, T, seed=1000 + rep)
        hits += int(tr.final_colors.sum())
        total += g.n_total
    p = 1.0 - np.exp(-b * T)
    se = np.sqrt(p * (1 - p) / total)
    assert abs(hits / total - p) <= 4 * se


def test_empirical_process_masses_and_alignment():
    g = bm.build_complete_peripheral([(2, 3), (2, 3)])
    init = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    tr = bm.simulate(g, SIS, init, 2.0, seed=21)
    grid = np.linspace(0.0, 2.0, 41)
    series = bm.empirical_process(tr, g, grid)
    assert series.values.shape == (41, 4, 2)
    assert np.allclose(series.values.sum(axis=2), 1.0)
    assert np.all(series.values >= 0)
    # t=0 row is the initial state
    st = bm.SystemState.from_colors(g, init, 2)
    assert np.allclose(series.values[0, 0], np.array(st.counts[0]) / 2)
    # component accessor matches the flat layout
    assert np.array_equal(series.component(1, 1), series.values[:, 3, :])


def test_empirical_process_right_continuous():
    g = bm.build_complete_peripheral([(1, 1)])
    st = bm.SystemState.from_colors(g, [0, 0], 2)
    tr = bm.Trajectory(st, [(0.5, 0, 0, 1)], 1.0)
    series = bm.empirical_process(tr, g, [0.5])
    # the grid point sitting exactly on the jump sees the post-jump state
    assert series.values[0, 0, 1] == 1.0


def replay_empirical(traj, graph, grid):
    """Reference: replay the events one by one, walking the grid."""
    K = traj.initial.K
    counts = [[[0] * K for _ in (0, 1)] for _ in range(graph.r)]
    for n, z in enumerate(traj.initial.colors):
        counts[graph.block_of(n)][graph.class_of(n)][z] += 1
    out = np.empty((len(grid), 2 * graph.r, K))
    ev = traj.events
    ie = 0
    for it, t in enumerate(grid):
        while ie < len(ev) and ev[ie][0] <= t:
            _, node, z, zp = ev[ie]
            j, cls = graph.block_of(node), graph.class_of(node)
            counts[j][cls][z] -= 1
            counts[j][cls][zp] += 1
            ie += 1
        for j in range(graph.r):
            for cls in (0, 1):
                out[it, 2 * j + cls] = np.asarray(
                    counts[j][cls], dtype=float
                ) / graph.block_sizes[j][cls]
    return out


@pytest.mark.parametrize("builder, fam", [
    (lambda: bm.build_complete_peripheral([(4, 6), (6, 4)]), SIS),
    (lambda: bm.build_regular_peripheral([(3, 6), (3, 6)], 0.5), SIS),
    (lambda: bm.build_complete_peripheral([(3, 2), (2, 3)]),
     bm.queue_spec(6, zeta=(1.2, 1.0, 0.9, 0.7, 0.5, 0.0), vartheta=0.8,
                   h_coefficient=0.3)),
], ids=["complete-sis", "regular-sis", "queue-6"])
def test_empirical_process_matches_event_replay(builder, fam):
    graph = builder()
    K = bm.as_block_rates(fam, graph.r).colors.K
    T = 3.0
    for seed in (31, 32):
        init = np.random.default_rng(seed).integers(0, K, graph.n_total)
        tr = bm.simulate(graph, fam, init, T, seed=seed)
        assert len(tr.events) > 10
        times = [e[0] for e in tr.events]
        # grid points on jump times (first, middle, last), repeated points,
        # both ends of [0, T]
        grid = np.sort(np.concatenate([
            np.linspace(0.0, T, 13), times[:1], times[len(times) // 2:][:3],
            times[-1:], times[-1:], [0.0, 1.5, 1.5, T],
        ]))
        got = bm.empirical_process(tr, graph, grid).values
        want = replay_empirical(tr, graph, grid)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
    # no events: every row is the initial state
    st = bm.SystemState.from_colors(graph, init, K)
    quiet = bm.Trajectory(st, [], T)
    grid = [0.0, 0.0, 1.0, T]
    assert np.array_equal(bm.empirical_process(quiet, graph, grid).values,
                          replay_empirical(quiet, graph, grid))


def test_empirical_process_grid_validation():
    g = bm.build_complete_peripheral([(1, 1)])
    tr = bm.simulate(g, SIS.central[0], [0, 1], 1.0, seed=2)
    with pytest.raises(bm.InvalidArgumentError):
        bm.empirical_process(tr, g, [])
    with pytest.raises(bm.InvalidArgumentError):
        bm.empirical_process(tr, g, [0.5, 0.4])
    with pytest.raises(bm.InvalidArgumentError):
        bm.empirical_process(tr, g, [0.5, 1.5])


def test_component_series_csv():
    g = bm.build_complete_peripheral([(2, 3), (2, 3)])
    init = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    tr = bm.simulate(g, SIS, init, 1.0, seed=4)
    series = bm.empirical_process(tr, g, [0.0, 0.5, 1.0])
    buf = io.StringIO()
    series.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,block,class,color,mass"
    assert len(lines) == 1 + 3 * 2 * 2 * 2   # times * blocks * classes * K
    assert lines[1].split(",")[:4] == ["0", "0", "c", "0"]


def test_local_empirical_decomposition():
    g = bm.build_complete_peripheral([(2, 3), (2, 3)])
    colors = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0]
    st = bm.SystemState.from_colors(g, colors, 2)
    lm_c = local_empirical(st, g, 0)
    assert np.allclose(lm_c.proportions, [0.4, 0.6])
    assert np.allclose(lm_c.combined(),
                       0.4 * np.array([1, 1]) / 2 + 0.6 * np.array([1, 2]) / 3)
    lm_p = local_empirical(st, g, 2)
    assert lm_p.labels == ("central", "peripheral_0", "peripheral_1")
    assert np.allclose(lm_p.proportions, [2 / 8, 3 / 8, 3 / 8])
    # own-block peripheral part includes self
    assert np.allclose(lm_p.parts[1], np.array([1, 2]) / 3)


@pytest.mark.parametrize("builder", [
    lambda: bm.build_complete_peripheral([(3, 5), (3, 7)]),
    lambda: bm.build_regular_peripheral([(3, 6), (3, 6)], 0.5),
    lambda: bm.BlockGraph([(1, 2), (2, 1)], [(1, 2)]),
])
def test_stacked_states_match_single_calls(builder):
    # local_empirical and total_rate on a stack of states give, row by
    # row, what one call per state gives, bit for bit
    g = builder()
    gen = np.random.default_rng(5)
    K = 3
    fam = random_rate_family(gen, g.r, K)
    colors = gen.integers(0, K, (2, 4, g.n_total))
    stack = bm.SystemState.from_colors(g, colors, K)
    singles = {s: bm.SystemState.from_colors(g, colors[s], K)
               for s in np.ndindex(colors.shape[:-1])}
    for s, one in singles.items():
        assert np.array_equal(stack.counts[s], one.counts)
    for n in range(g.n_total):
        spec = fam.spec_for(g.block_of(n), g.class_of(n))
        many = local_empirical(stack, g, n)
        for e in range(fam.colors.n_edges):
            rates = total_rate(spec, e, many.proportions[0], many.parts[0],
                               many.proportions[1:], many.parts[1:])
            assert rates.shape == colors.shape[:-1]
            for s, one in singles.items():
                lm = local_empirical(one, g, n)
                assert np.array_equal(lm.proportions, many.proportions)
                for a, b in zip(many.parts, lm.parts):
                    assert np.array_equal(a[s], b)
                single = total_rate(spec, e, lm.proportions[0], lm.parts[0],
                                    lm.proportions[1:], lm.parts[1:])
                ref = reference_rate(spec, e, lm.proportions[0], lm.parts[0],
                                     lm.proportions[1:], lm.parts[1:])
                assert type(single) is float
                assert rates[s] == single == ref


def test_simulate_takes_one_state():
    g = bm.build_complete_peripheral([(1, 1)])
    with pytest.raises(bm.InvalidArgumentError, match="one state"):
        bm.simulate(g, SIS.central[0], [[0, 1], [1, 0]], 1.0, seed=1)
