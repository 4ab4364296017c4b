import json
import math
import pickle

import numpy as np
import pytest

import blockmf as bm
from blockmf.graph import build_complete_peripheral, build_regular_peripheral
from blockmf.simulate import GroupTables


def test_complete_peripheral_layout():
    g = build_complete_peripheral([(2, 3), (4, 1)])
    assert g.r == 2
    assert g.n_total == 10
    assert list(g.central_nodes(0)) == [0, 1]
    assert list(g.peripheral_nodes(0)) == [2, 3, 4]
    assert list(g.central_nodes(1)) == [5, 6, 7, 8]
    assert list(g.peripheral_nodes(1)) == [9]
    assert g.block_of(4) == 0 and g.block_of(5) == 1
    assert not g.is_peripheral(1)
    assert g.is_peripheral(9)
    assert g.is_complete_peripheral
    # node -> 2*block + class, in id order, read-only even after a pickle
    assert g.component.tolist() == [0, 0, 1, 1, 1, 2, 2, 2, 2, 3]
    assert g.component.dtype == np.int64
    for h in (g, pickle.loads(pickle.dumps(g))):
        with pytest.raises(ValueError):
            h.component[0] = 1
    # every peripheral pair adjacent, both directions visible
    perips = list(g.peripheral_nodes_all())
    for n in perips:
        assert sorted(g.peripheral_neighbors(n)) == [m for m in perips
                                                     if m != n]


def test_degree_and_cross_counts():
    g = build_complete_peripheral([(2, 3), (2, 3)])
    n = list(g.peripheral_nodes(0))[0]
    # 2 centrals + 2 own-block peripherals + 3 cross peripherals
    assert g.degree(n) == 7
    cc = g.cross_counts(n)
    # self counts toward the own-block entry
    assert cc[0] == 3 and cc[1] == 3
    props = bm.neighborhood_proportions(g, n)
    assert props.shape == (3,)
    assert props.sum() == 1.0
    assert np.allclose(props, [2 / 8, 3 / 8, 3 / 8])
    with pytest.raises(bm.WrongClassError):
        bm.neighborhood_proportions(g, 0)


def test_regular_design_cross_degrees():
    g = build_regular_peripheral([(2, 4), (2, 4)], ((0.5, 0.5), (0.5, 0.5)))
    M = g.cross_degree_matrix
    assert M is not None
    # every block-0 peripheral sees 2 of the 4 foreign peripherals
    assert M[0][1] == 2 and M[1][0] == 2
    for n in g.peripheral_nodes(0):
        assert g.cross_counts(n)[1] == 2
    assert not g.is_complete_peripheral


def test_regular_design_infeasible():
    # 3*round(0.5*5) = 9 edges from one side, 5*round(0.5*3) = 10 from the
    # other: no biregular bipartite graph exists
    with pytest.raises(bm.InvalidConfigurationError):
        build_regular_peripheral([(1, 3), (1, 5)], 0.5)


def test_graph_json_round_trip():
    g = build_regular_peripheral([(2, 4), (3, 4)], ((0.5, 0.5), (0.5, 0.5)))
    g2 = bm.BlockGraph.from_json(g.to_json())
    assert g2 == g
    assert g2.cross_degree_matrix == g.cross_degree_matrix
    obj = json.loads(g.to_json())
    obj["bogus"] = 1
    with pytest.raises(bm.ValidationError):
        bm.BlockGraph.from_json_obj(obj)


def test_targets_validation_names_block():
    with pytest.raises(bm.InvalidArgumentError, match=r"p_c\[1\]"):
        bm.ProportionTargets((0.5, 1.2), (0.5, 0.5),
                             ((0.25, 0.25), (0.25, 0.25)), (0.5, 0.5))
    with pytest.raises(bm.InvalidArgumentError, match=r"alpha_c\[0\]"):
        bm.ProportionTargets((0.5,), (0.0,), ((1.0,),), (1.0,))
    with pytest.raises(bm.InvalidArgumentError, match="sum"):
        bm.ProportionTargets((0.5,), (0.5,), ((0.4,),), (1.0,))
    with pytest.raises(bm.InvalidArgumentError, match="alpha"):
        bm.ProportionTargets((0.5, 0.5), (0.5, 0.5),
                             ((0.25, 0.25), (0.25, 0.25)), (0.5, 0.4))


def test_targets_p_p_and_json():
    t = bm.ProportionTargets((0.6, 0.3), (0.5, 0.4),
                             ((0.25, 0.25), (0.3, 0.3)), (0.5, 0.5))
    assert t.p_p == pytest.approx((0.4, 0.7))
    t2 = bm.ProportionTargets.from_json_obj(t.to_json_obj())
    assert t2 == t


def test_from_graph_matches_finite_ratios():
    g = build_complete_peripheral([(2, 3), (2, 3)])
    t = bm.ProportionTargets.from_graph(g)
    assert t.p_c == (0.4, 0.4)
    # block-0 peripheral: 2 centrals, 3+3 peripherals incl self, deg+1 = 8
    assert t.alpha_c == (0.25, 0.25)
    assert np.allclose(t.q, [[3 / 8, 3 / 8], [3 / 8, 3 / 8]])
    rep = bm.check_regularity(g, t)
    assert rep.max_resid == 0.0


def test_from_graph_rejects_irregular():
    # hand-built peripheral edges with unequal cross degrees (intra-block
    # cliques are mandatory, so those pairs are present too)
    g = bm.BlockGraph([(1, 2), (1, 2)],
                      [(1, 2), (4, 5), (1, 4), (1, 5), (2, 4)])
    assert g.cross_degree_matrix is None
    with pytest.raises(bm.InvalidConfigurationError):
        bm.ProportionTargets.from_graph(g)


def test_check_regularity_reports_residual():
    g = build_complete_peripheral([(2, 3), (2, 3)])
    t = bm.ProportionTargets.from_graph(g)
    skew = bm.ProportionTargets((0.45, 0.4), t.alpha_c, t.q, t.alpha)
    rep = bm.check_regularity(g, skew)
    assert rep.p_c_resid == pytest.approx(0.05)
    assert rep.max_resid == pytest.approx(0.05)


@pytest.mark.parametrize("sizes, edges", [
    ([(1, 3)], [(1, 2), (2, 3)]),  # lacks 1-3
    ([(1, 2), (1, 3)], [(1, 2), (4, 5), (5, 6), (1, 4), (2, 6)]),  # lacks 4-6
], ids=["one-block", "two-blocks"])
def test_block_graph_rejects_missing_clique_pair(sizes, edges):
    with pytest.raises(bm.InvalidConfigurationError,
                       match="intra-block peripheral pairs"):
        bm.BlockGraph(sizes, edges)


@pytest.mark.parametrize("build", [
    lambda: build_complete_peripheral([(320, 960)] * 2),
    lambda: build_regular_peripheral([(320, 960)] * 2, 0.5),
], ids=["complete", "regular"])
def test_large_design_is_stored_as_its_quotient(build):
    # N=2560: the 1.4-1.8 million peripheral edges are not stored
    g = build()
    assert len(pickle.dumps(g)) < 1_000_000
    assert len(g.twin_classes) == (2 if g.is_complete_peripheral else 4)


def test_block_graph_rejects_bad_edges():
    with pytest.raises(bm.ValidationError):
        bm.BlockGraph([(2, 1)], [(0, 2)])   # node 0 is central
    with pytest.raises(bm.ValidationError):
        bm.BlockGraph([(2, 1)], [(2, 2)])   # self-loop
    with pytest.raises(bm.ValidationError):
        bm.BlockGraph([(2, 1)], [(2, 9)])   # out of range


def _complete_reference_edges(block_sizes):
    """All pairs of peripheral nodes, listed pair by pair."""
    perips, pos = [], 0
    for nc, npp in block_sizes:
        perips.extend(range(pos + nc, pos + nc + npp))
        pos += nc + npp
    return [(perips[a], perips[b]) for a in range(len(perips))
            for b in range(a + 1, len(perips))]


def _regular_reference_edges(block_sizes, fractions):
    """Own-block cliques plus, for blocks j < i, consecutive runs: row a
    of block j takes columns (a*mu .. a*mu+mu-1) mod v of block i."""
    r = len(block_sizes)
    f = np.asarray(fractions, dtype=float)
    if f.ndim == 0:
        f = np.full((r, r), float(f))
    offsets, pos = [], 0
    for nc, npp in block_sizes:
        offsets.append(pos + nc)
        pos += nc + npp
    edges = [(offsets[j] + a, offsets[j] + b)
             for j, (_, npp) in enumerate(block_sizes)
             for a in range(npp) for b in range(a + 1, npp)]
    for j in range(r):
        for i in range(j + 1, r):
            u, v = block_sizes[j][1], block_sizes[i][1]
            mu = int(np.floor(f[j, i] * v + 0.5))
            edges += [(offsets[j] + a, offsets[i] + (a * mu + t) % v)
                      for a in range(u) for t in range(mu)]
    return edges


_GATE_DESIGNS = [
    ("complete", [(2, 3), (3, 4)], None),
    ("complete", [(7, 6)], None),
    ("complete", [(2, 3), (1, 4), (3, 2)], None),
    ("regular", [(1, 4), (1, 4)], 0.5),
    ("regular", [(2, 4), (2, 4)], 0.25),
    ("regular", [(2, 4), (3, 4)], 0.5),
    ("regular", [(10, 30), (10, 30)], 0.2),
    ("regular", [(10, 30), (10, 30)], 1 / 30),
    ("regular", [(1, 4), (1, 4)], 1.0),
    ("regular", [(1, 6), (1, 4), (1, 6)],
     [[0, .5, 1 / 3], [.5, 0, .5], [1 / 3, .5, 0]]),
]


@pytest.mark.parametrize("kind, sizes, fractions", _GATE_DESIGNS, ids=[
    "complete-2", "complete-1", "complete-3", "regular-1x4-f.5",
    "regular-2x4-f.25", "regular-2x4-3x4-f.5", "regular-10x30-f.2",
    "regular-10x30-f1/30", "regular-1x4-f1", "regular-3-blocks",
])
def test_builders_match_reference_edges(kind, sizes, fractions):
    # the builders and the edge-list constructor must agree on every
    # query and give the simulator the same kernel tables
    if kind == "complete":
        built = build_complete_peripheral(sizes)
        edges = _complete_reference_edges(sizes)
    else:
        built = build_regular_peripheral(sizes, fractions)
        edges = _regular_reference_edges(sizes, fractions)
    ref = bm.BlockGraph(sizes, edges)
    assert built.peripheral_edges == ref.peripheral_edges
    assert built.peripheral_edges == tuple(sorted(set(edges)))
    assert built.twin_classes == ref.twin_classes
    assert built.cross_degree_matrix == ref.cross_degree_matrix
    assert built.is_complete_peripheral == ref.is_complete_peripheral
    assert built == ref and hash(built) == hash(ref)
    for n in range(ref.n_total):
        assert built.degree(n) == ref.degree(n)
        if ref.is_peripheral(n):
            assert (list(built.peripheral_neighbors(n))
                    == list(ref.peripheral_neighbors(n)))
            assert built.cross_counts(n) == ref.cross_counts(n)
    r = ref.r
    for fam in (bm.sis_spec(r, gamma=0.8, nu=0.5, eta=0.6, zeta=0.9),
                bm.queue_spec(3, zeta=(1.0, 0.8, 0.0), vartheta=0.6,
                              h_coefficient=0.4)):
        a, b = GroupTables(built, fam), GroupTables(ref, fam)
        for attr in ("members", "meta", "coef", "beta_rows", "deps"):
            assert getattr(a, attr) == getattr(b, attr), attr


def _per_node_quotient(block_sizes, fractions):
    """Twin classes and links of a regular design from one key per
    peripheral node: a row's run start a*mu % v and a column's g-aligned
    chunk b // g, grouped in order of first node."""
    r = len(block_sizes)
    f = np.asarray(fractions, dtype=float)
    if f.ndim == 0:
        f = np.full((r, r), float(f))
    runs = {}
    for j in range(r):
        for i in range(j + 1, r):
            mu = int(np.floor(f[j, i] * block_sizes[i][1] + 0.5))
            v = block_sizes[i][1]
            runs[j, i] = (mu, v, math.gcd(mu, v))
    classes = []  # of (block, local index) pairs
    for j, (_, npp) in enumerate(block_sizes):
        groups = {}
        for a in range(npp):
            key = tuple(a * mu % v if j == lo else a // g
                        for (lo, hi), (mu, v, g) in runs.items()
                        if j in (lo, hi) and mu < v)
            groups.setdefault(key, []).append((j, a))
        classes += groups.values()

    def adjacent(m, n):
        (j, a), (i, b) = sorted((m, n))
        if j == i:
            return True
        mu, v, _ = runs[j, i]
        return (b - a * mu) % v < mu

    links = [tuple(d for d, c in enumerate(classes) if adjacent(m[0], c[0]))
             for m in classes]
    return classes, links


@pytest.mark.parametrize("sizes, fractions", [
    ([(1, 4), (1, 4)], 0.5),
    ([(1, 4), (1, 4)], 1.0),
    ([(2, 4), (2, 4)], 0.5),
    ([(2, 4), (2, 4)], 0.25),
    ([(2, 4), (2, 4)], ((0.5, 0.5), (0.5, 0.5))),
    ([(2, 4), (3, 4)], 0.5),
    ([(3, 6), (3, 6)], 0.5),
    ([(10, 30), (10, 30)], 0.2),
    ([(10, 30), (10, 30)], 1 / 30),
    ([(1, 6), (1, 4), (1, 6)], [[0, .5, 1 / 3], [.5, 0, .5], [1 / 3, .5, 0]]),
    ([(80, 240), (80, 240)], 0.5),
    ([(320, 960)] * 2, 0.5),
    ([(1250, 3750), (1250, 3750)], 0.5),
    ([(2500, 7500), (1250, 3750)], 0.2),
])
def test_regular_quotient_matches_per_node_keys(sizes, fractions):
    # the builder keys whole index ranges at once; the classes and links
    # are the ones a key per peripheral node gives
    g = build_regular_peripheral(sizes, fractions)
    classes, links = _per_node_quotient(sizes, fractions)
    starts = [g.peripheral_nodes(j).start for j in range(g.r)]
    assert g.twin_classes == tuple(tuple(starts[j] + a for j, a in c)
                                   for c in classes)
    assert g.twin_links == tuple(links)
