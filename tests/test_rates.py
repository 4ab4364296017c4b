import numpy as np
import pytest

import blockmf as bm
from blockmf.rates import total_rate


def test_color_graph_canonical_order_and_lookup():
    cg = bm.ColorGraph(3, [(2, 0), (0, 1), (1, 2)])
    assert cg.edges == ((0, 1), (1, 2), (2, 0))
    assert cg.n_edges == 3
    assert cg.edge_index(1, 2) == 1
    assert cg.out_edges(2) == (2,)
    assert cg.out_edges(0) == (0,)
    with pytest.raises(bm.UnknownEdgeError):
        cg.edge_index(2, 1)


def test_edge_index_takes_integer_colors():
    # int(0.9), int(1.2) would look up the edge (0, 1)
    cg = bm.ColorGraph(3, [(2, 0), (0, 1), (1, 2)])
    assert cg.edge_index(np.int64(0), np.int64(1)) == 0
    for z, zp in ((0.9, 1.2), (0, 1.0), (True, 2)):
        with pytest.raises(bm.InvalidArgumentError,
                           match="^edge endpoint must be an integer, got "):
            cg.edge_index(z, zp)


def test_out_edges_match_definition():
    # the one-pass index lists each colour's out-edges in canonical order
    gen = np.random.default_rng(4)
    for K in (1, 2, 5, 12):
        pairs = [(z, zp) for z in range(K) for zp in range(K) if z != zp]
        for _ in range(10):
            pick = gen.permutation(len(pairs))[:gen.integers(len(pairs) + 1)]
            cg = bm.ColorGraph(K, [pairs[i] for i in pick])
            for z in range(K):
                assert cg.out_edges(z) == tuple(
                    i for i, (a, _) in enumerate(cg.edges) if a == z)


def test_color_graph_rejects_bad_edges():
    with pytest.raises(bm.InvalidArgumentError):
        bm.ColorGraph(2, [(0, 0)])
    with pytest.raises(bm.InvalidArgumentError):
        bm.ColorGraph(2, [(0, 2)])
    with pytest.raises(bm.InvalidArgumentError):
        bm.ColorGraph(2, [(0, 1), (0, 1)])
    with pytest.raises(bm.InvalidArgumentError):
        bm.ColorGraph(0, [])


def test_rate_spec_validation():
    cg = bm.ColorGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(bm.InvalidArgumentError, match="gamma_c"):
        bm.RateSpec(cg, [(1.0, 0.0)], [(0.0, 0.0), (0.0, 0.0)])
    with pytest.raises(bm.InvalidArgumentError, match=">= 0"):
        bm.RateSpec(cg, [(-1.0, 0.0), (0.0, 0.0)],
                    [(0.0, 0.0), (0.0, 0.0)])
    with pytest.raises(bm.InvalidArgumentError, match="beta"):
        bm.RateSpec(cg, [(0.0, 1.0), (0.0, 0.0)],
                    [(0.0, 0.0), (0.0, 0.0)], beta=(1.0,))
    with pytest.raises(bm.InvalidArgumentError, match="finite"):
        bm.RateSpec(cg, [(0.0, 1.0), (0.0, 0.0)],
                    [(0.0, 0.0), (0.0, 0.0)], beta=(np.inf, 0.0))
    spec = bm.RateSpec(cg, [(0.0, 1.0), (0.0, 0.0)],
                       [(0.0, 2.0), (0.0, 0.0)])
    assert spec.beta == (0.0, 0.0)


def test_central_rate_worked_number():
    fam = bm.sis_spec(1, gamma=2.0, nu=1.0, eta=0.6, zeta=0.9)
    spec = fam.spec_for(0, 0)
    nu, mu = np.array([0.7, 0.3]), np.array([0.2, 0.8])
    # the infection edge carries no state-only term:
    # 0.5 * 2 * 0.3 + 0.5 * 1 * 0.8
    infect = spec.colors.edge_index(0, 1)
    assert spec.beta[infect] == 0.0
    v = total_rate(spec, infect, 0.5, nu, (0.5,), (mu,))
    assert v == pytest.approx(0.7)
    # the cure edge has no affine part, only zeta
    cure = spec.colors.edge_index(1, 0)
    assert total_rate(spec, cure, 0.5, nu, (0.5,), (mu,)) == 0.9


def test_peripheral_rate_worked_number():
    fam = bm.sis_spec(2, gamma=1.0, nu=0.5, eta=0.6, zeta=0.3)
    spec = fam.spec_for(0, 1)
    mus = [np.array([0.5, 0.5]), np.array([0.9, 0.1])]
    infect = spec.colors.edge_index(0, 1)
    assert spec.beta[infect] == 0.0
    v = total_rate(spec, infect, 0.5, np.array([0.4, 0.6]), (0.25, 0.25), mus)
    assert v == pytest.approx(0.5 * 0.5 * 0.6 + 0.6 * (0.25 * 0.5 + 0.25 * 0.1))


def test_total_rate_affine_plus_offset_clamped():
    q = bm.queue_spec(3, zeta=1.0, vartheta=0.5, h_coefficient=0.4)
    cg = q.colors
    assert cg.edges == ((0, 1), (1, 0), (1, 2), (2, 1))
    nu = np.array([0.2, 0.3, 0.5])   # mean 1.3
    mu = np.array([0.5, 0.5, 0.0])   # mean 0.5
    up = cg.edge_index(1, 2)
    v = total_rate(q, up, 0.5, nu, (0.5,), (mu,))
    # zeta[1] + c0*(mean - 1) with mean = 0.5*1.3 + 0.5*0.5
    assert v == pytest.approx(1.0 + 0.4 * (0.9 - 1.0))
    down = cg.edge_index(1, 0)
    assert total_rate(q, down, 0.5, nu, (0.5,), (mu,)) == 0.5
    # arrivals clamp at zero when the offset drags the affine part negative
    q2 = bm.queue_spec(3, zeta=0.0, vartheta=0.5, h_coefficient=1.0)
    at0 = np.array([1.0, 0.0, 0.0])
    assert total_rate(q2, cg.edge_index(1, 2), 0.5, at0, (0.5,), (at0,)) == 0.0


def test_block_rates_family():
    fam = bm.sis_spec(2, gamma=[0.8, 1.1], nu=[0.5, 0.4], eta=0.6,
                      zeta=[0.9, 0.7])
    assert fam.r == 2
    assert fam.spec_for(1, 0).gamma_c[0] == (0.0, 1.1)
    assert fam.spec_for(1, 1).gamma_c[0] == (0.0, 0.4)
    assert fam.spec_for(0, 1).gamma_p[0] == (0.0, 0.6)
    cg2 = bm.ColorGraph(3, [(0, 1)])
    other = bm.RateSpec(cg2, [(1.0, 0.0, 0.0)], [(0.0, 0.0, 0.0)])
    with pytest.raises(bm.InvalidArgumentError, match="color graph"):
        bm.BlockRates((fam.central[0], other), fam.peripheral)


def test_as_block_rates():
    q = bm.queue_spec(3, 1.0, 0.5, 0.4)
    fam = bm.as_block_rates(q, 2)
    assert fam.r == 2 and fam.central[0] is q and fam.peripheral[1] is q
    with pytest.raises(bm.InvalidArgumentError, match="r=2"):
        bm.as_block_rates(fam, 3)
    with pytest.raises(bm.InvalidArgumentError):
        bm.as_block_rates("sis", 2)


def test_rate_spec_json_round_trip():
    q = bm.queue_spec(3, zeta=(1.0, 0.8, 0.0), vartheta=0.5,
                      h_coefficient=0.4)
    q2 = bm.RateSpec.from_json(q.to_json())
    assert q2 == q
    plain = bm.RateSpec(bm.ColorGraph(2, [(0, 1)]), [(0.0, 1.5)], [(2.0, 0.0)])
    assert "beta" not in plain.to_json_obj()
    assert bm.RateSpec.from_json(plain.to_json()) == plain


def test_rate_spec_json_one_based_and_errors():
    obj = {
        "colors": 2,
        "edges": [[1, 2], [2, 1]],
        "gamma_c": {"1,2": [0.0, 1.0], "2,1": [0.0, 0.0]},
        "gamma_p": {"1,2": [0.0, 0.5], "2,1": [0.0, 0.0]},
        "beta": {"2,1": 0.9},
        "base": 1,
    }
    spec = bm.RateSpec.from_json_obj(obj)
    assert spec.colors.edges == ((0, 1), (1, 0))
    assert spec.gamma_c[0] == (0.0, 1.0)
    assert spec.beta == (0.0, 0.9)
    with pytest.raises(bm.InvalidArgumentError, match="unknown rate spec"):
        bm.RateSpec.from_json_obj({**obj, "extra": 1})
    missing = {k: v for k, v in obj.items() if k != "gamma_p"}
    with pytest.raises(bm.InvalidArgumentError, match="gamma_p"):
        bm.RateSpec.from_json_obj(missing)
    bad_edge = dict(obj)
    bad_edge["beta"] = {"1,1": 0.9}
    with pytest.raises(bm.InvalidArgumentError, match="unknown edges"):
        bm.RateSpec.from_json_obj(bad_edge)
    for name, value in [("gamma_c", [[0, 1]]), ("gamma_p", "x"),
                        ("beta", [1]), ("beta", None)]:
        with pytest.raises(bm.InvalidArgumentError,
                           match=f"{name} must be a JSON object"):
            bm.RateSpec.from_json_obj({**obj, name: value})


@pytest.mark.parametrize("field, value, needle", [
    ("colors", 3.7, "colors"),
    ("colors", "3", "colors"),
    ("colors", True, "colors"),
    ("base", 0.5, "base"),
    ("base", "1", "base"),
    ("base", True, "base"),
    ("edges", [[0.9, 1.2], [1, 0]], "edges"),
    ("edges", [[0, "1"], [1, 0]], "edges"),
    ("edges", [[False, 1], [1, 0]], "edges"),
], ids=["colors-float", "colors-string", "colors-bool", "base-float",
        "base-string", "base-bool", "edge-floats", "edge-string",
        "edge-bool"])
def test_rate_spec_json_integer_fields(field, value, needle):
    # truncated with int(), each would load as another spec: colors 3.7
    # as K = 3, base 0.5 as 0, the edge [0.9, 1.2] as (0, 1)
    obj = {
        "colors": 2,
        "edges": [[0, 1], [1, 0]],
        "gamma_c": {"0,1": [0.0, 1.0], "1,0": [0.0, 0.0]},
        "gamma_p": {"0,1": [0.0, 0.5], "1,0": [0.0, 0.0]},
        field: value,
    }
    with pytest.raises(bm.InvalidArgumentError,
                       match=f"^{needle}.* must be an integer, got "):
        bm.RateSpec.from_json_obj(obj)


def test_sis_spec_parameter_validation():
    with pytest.raises(bm.InvalidArgumentError, match="scalar or length"):
        bm.sis_spec(2, gamma=[1.0, 2.0, 3.0], nu=0.5, eta=0.6, zeta=0.9)
    with pytest.raises(bm.InvalidArgumentError, match=">= 0"):
        bm.sis_spec(2, gamma=1.0, nu=-0.5, eta=0.6, zeta=0.9)


def test_queue_spec_validation():
    with pytest.raises(bm.InvalidArgumentError, match="K >= 2"):
        bm.queue_spec(1, 1.0, 0.5, 0.4)
    with pytest.raises(bm.InvalidArgumentError, match="scalar or length"):
        bm.queue_spec(3, (1.0, 0.8), 0.5, 0.4)
    with pytest.raises(bm.InvalidArgumentError, match=">= 0"):
        bm.queue_spec(3, 1.0, 0.5, -0.4)


@pytest.mark.parametrize("colors", [3.5, "3", True],
                         ids=["float", "string", "bool"])
def test_queue_spec_rejects_non_integer_colors(colors):
    # truncated with int(), 3.5 would run as K = 3 and True as K = 1
    with pytest.raises(bm.InvalidArgumentError,
                       match="^colors must be an integer, got "):
        bm.queue_spec(colors, 1.0, 0.5, 0.4)


@pytest.mark.parametrize("K, edges, needle", [
    (2.7, [(0, 1)], "K"),
    ("2", [(0, 1)], "K"),
    (True, [], "K"),
    (2, [(0.9, 1.2)], "edge endpoint"),
    (3, [(0, 1), (1, np.float64(2.0))], "edge endpoint"),
    (3, [(0, 1), (True, 2)], "edge endpoint"),
], ids=["K-float", "K-string", "K-bool", "edge-floats",
        "edge-numpy-float", "edge-bool"])
def test_color_graph_rejects_non_integers(K, edges, needle):
    # truncated with int(), ColorGraph(2.7, [(0.9, 1.2)]) built K = 2
    # with the edge (0, 1)
    with pytest.raises(bm.InvalidArgumentError,
                       match=f"^{needle} must be an integer, got "):
        bm.ColorGraph(K, edges)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 0), (1, 1), (0, 5), (0, 1)], "self-loop edge (1,1)"),
    ([(0, 1), (2, 0), (0, 5), (1, 1), (0, 1)], "edge (0,5) outside 0..2"),
    ([(0, 1), (2, 0), (0, 1), (1, 1), (0, 5)], "duplicate edge (0,1)"),
    ([(0, 1), (-1, 2), (3, 3)], "edge (-1,2) outside 0..2"),
    ([(1, 2), (4, 4), (0, 1)], "self-loop edge (4,4)"),
    ([(1, 2), (5, 1), (5, 1)], "edge (5,1) outside 0..2"),
    ([(0, 2**70), (0, 1), (0, 1)], f"edge (0,{2**70}) outside 0..2"),
    ([(2, 0), (np.int64(2), np.int64(0))], "duplicate edge (2,0)"),
], ids=["self-loop-first", "range-first", "duplicate-first",
        "negative", "self-loop-outside", "outside-repeated", "past-int64",
        "numpy-duplicate"])
def test_color_graph_names_the_first_bad_edge(edges, message):
    # the first offending edge in input order; for an edge with several
    # faults the self-loop, then the range, then the duplicate
    with pytest.raises(bm.InvalidArgumentError) as info:
        bm.ColorGraph(3, edges)
    assert str(info.value) == message


def test_color_graph_checks_each_edge_before_the_next():
    # a non-integer endpoint is an edge fault like the others: the first
    # faulty edge in input order is named, whatever its fault
    with pytest.raises(bm.InvalidArgumentError, match="^self-loop edge"):
        bm.ColorGraph(3, [(0, 1), (1, 1), (0.5, 2)])
    with pytest.raises(bm.InvalidArgumentError,
                       match="^edge endpoint must be an integer, got 0.5"):
        bm.ColorGraph(3, [(0, 1), (0.5, 2), (1, 1)])


def reference_color_graph(K, edges):
    """The canonical edges by one check per edge in input order: a
    self-loop, then the range, then a repeat; the message of the first
    fault, or the sorted edges."""
    seen = set()
    for z, zp in edges:
        if z == zp:
            return f"self-loop edge ({z},{zp})"
        if not (0 <= z < K and 0 <= zp < K):
            return f"edge ({z},{zp}) outside 0..{K-1}"
        if (z, zp) in seen:
            return f"duplicate edge ({z},{zp})"
        seen.add((z, zp))
    return tuple(sorted(seen))


def test_color_graph_matches_the_per_edge_reference():
    gen = np.random.default_rng(24)
    for _ in range(400):
        K = int(gen.integers(1, 5))
        n = int(gen.integers(0, 9))
        edges = [tuple(int(v) for v in gen.integers(-1, K + 1, size=2))
                 for _ in range(n)]
        if gen.random() < 0.5:  # mostly valid lists too
            edges = [(z, zp) for z, zp in dict.fromkeys(edges)
                     if z != zp and 0 <= z < K and 0 <= zp < K]
        want = reference_color_graph(K, edges)
        if isinstance(want, str):
            with pytest.raises(bm.InvalidArgumentError) as info:
                bm.ColorGraph(K, edges)
            assert str(info.value) == want
            continue
        cg = bm.ColorGraph(K, [(np.int64(z), zp) for z, zp in edges])
        assert cg.edges == want
        assert all(type(z) is int for e in cg.edges for z in e)
        for ends, column in ((cg.src, 0), (cg.dst, 1)):
            assert ends.dtype == np.int64 and not ends.flags.writeable
            assert ends.tolist() == [e[column] for e in want]
