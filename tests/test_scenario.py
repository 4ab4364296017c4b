import json

import numpy as np
import pytest

import blockmf as bm
from blockmf.scenario import load_scenario

BASE = {
    "schema": "blockmf/1",
    "seed": 7,
    "graph": {"complete_blocks": [[2, 3], [2, 3]]},
    "rates": {"model": "sis", "r": 2, "gamma": [0.8, 1.1],
              "nu": [0.5, 0.4], "eta": 0.6, "zeta": [0.9, 0.7]},
    "targets": "from_graph",
    "init": {"c": [[0.7, 0.3], [0.8, 0.2]],
             "p": [[0.6, 0.4], [0.75, 0.25]]},
    "horizon": 1.0,
}


def write(tmp_path, obj, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_load_and_build_sections(tmp_path):
    sc = load_scenario(write(tmp_path, BASE))
    assert sc.number("seed") == 7
    assert sc.number("horizon") == 1.0
    assert sc.number("dt") == 0.01          # default
    assert sc.number("grid") == 51
    g = sc.build_graph()
    assert g.block_sizes == ((2, 3), (2, 3))
    fam = sc.build_rates()
    assert fam.r == 2
    t = sc.build_targets(g)
    assert t == bm.ProportionTargets.from_graph(g)
    inits = sc.build_inits(2)
    assert len(inits) == 4
    assert np.allclose(inits[1], [0.6, 0.4])   # block 0 peripheral row
    assert sc.tagged(2) == [(0, "c"), (1, "p")]
    assert sc.tagged(1) == [(0, "c"), (0, "p")]


def test_fail_closed_unknown_fields(tmp_path):
    with pytest.raises(bm.InvalidConfigurationError, match="unknown field"):
        load_scenario(write(tmp_path, {**BASE, "replcias": 10}))
    sc = load_scenario(write(tmp_path, {
        **BASE, "graph": {"complete_blocks": [[2, 3]], "bogus": 1}}))
    with pytest.raises(bm.InvalidConfigurationError, match="graph"):
        sc.build_graph()
    sc2 = load_scenario(write(tmp_path, {
        **BASE, "rates": {"model": "sis", "gamma": 1, "nu": 1, "eta": 1,
                          "zeta": 1, "beta": 3}}))
    with pytest.raises(bm.InvalidConfigurationError, match="rates"):
        sc2.build_rates()


def test_schema_and_json_errors(tmp_path):
    with pytest.raises(bm.InvalidConfigurationError, match="schema"):
        load_scenario(write(tmp_path, {**BASE, "schema": "blockmf/2"}))
    with pytest.raises(bm.InvalidConfigurationError, match="schema"):
        load_scenario(write(tmp_path, {k: v for k, v in BASE.items()
                                       if k != "schema"}))
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "blockmf/1",\n  "seed": }')
    with pytest.raises(bm.InvalidConfigurationError,
                       match=r"line 2 column \d+"):
        load_scenario(bad)
    with pytest.raises(bm.InvalidConfigurationError, match="not found"):
        load_scenario(tmp_path / "missing.json")
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(bm.InvalidConfigurationError, match="object"):
        load_scenario(arr)


def test_numeric_field_validation(tmp_path):
    sc = load_scenario(write(tmp_path, {**BASE, "seed": 2 ** 64}))
    with pytest.raises(bm.InvalidConfigurationError, match="64 bits"):
        sc.number("seed")
    sc = load_scenario(write(tmp_path, {**BASE, "seed": -1}))
    with pytest.raises(bm.InvalidConfigurationError):
        sc.number("seed")
    sc = load_scenario(write(tmp_path, {**BASE, "horizon": 0}))
    with pytest.raises(bm.InvalidConfigurationError, match="horizon"):
        sc.number("horizon")
    # an int beyond float range raised a bare OverflowError
    sc = load_scenario(write(tmp_path, {**BASE, "horizon": 10 ** 400}))
    with pytest.raises(bm.InvalidConfigurationError, match="horizon"):
        sc.number("horizon")
    sc = load_scenario(write(tmp_path, {**BASE, "dt": "fine"}))
    with pytest.raises(bm.InvalidConfigurationError, match="dt"):
        sc.number("dt")
    sc = load_scenario(write(tmp_path, {**BASE, "grid": 1}))
    with pytest.raises(bm.InvalidConfigurationError, match="grid"):
        sc.number("grid")
    sc = load_scenario(write(tmp_path, {**BASE, "replicas": True}))
    with pytest.raises(bm.InvalidConfigurationError, match="replicas"):
        sc.number("replicas")
    sc = load_scenario(write(tmp_path, BASE))
    with pytest.raises(bm.InvalidConfigurationError, match="replicas"):
        sc.number("replicas")
    sc = load_scenario(write(tmp_path, {**BASE, "n_list": [20, 10]}))
    with pytest.raises(bm.InvalidConfigurationError, match="increasing"):
        sc.n_list
    sc = load_scenario(write(tmp_path, {**BASE, "n_list": [10, 20]}))
    assert sc.n_list == [10, 20]


def test_graph_variants(tmp_path):
    g_ref = bm.build_regular_peripheral([(2, 4), (2, 4)], 0.5)
    sc = load_scenario(write(tmp_path, {
        **BASE,
        "graph": {"regular": {"blocks": [[2, 4], [2, 4]],
                              "fractions": 0.5}}}))
    assert sc.build_graph() == g_ref
    # the inline object form resolves to the same graph
    inline = load_scenario(write(tmp_path, {
        **BASE, "graph": g_ref.to_json_obj()}, "inline.json"))
    assert inline.build_graph() == g_ref


def test_rates_variants(tmp_path):
    q = bm.queue_spec(3, 1.0, 0.5, 0.4)
    sc = load_scenario(write(tmp_path, {
        **BASE, "rates": {"model": "queue", "colors": 3, "zeta": 1.0,
                          "vartheta": 0.5, "c0": 0.4}}))
    assert sc.build_rates() == q
    sc2 = load_scenario(write(tmp_path, {
        **BASE, "rates": {"model": "tables", "spec": q.to_json_obj()}}))
    assert sc2.build_rates() == q
    sc4 = load_scenario(write(tmp_path, {
        **BASE, "rates": {"model": "lorenz"}}))
    with pytest.raises(bm.InvalidConfigurationError, match="lorenz"):
        sc4.build_rates()


def test_targets_and_init_validation(tmp_path):
    t = bm.ProportionTargets((0.4, 0.4), (0.25, 0.25),
                             ((0.375, 0.375), (0.375, 0.375)), (0.5, 0.5))
    sc = load_scenario(write(tmp_path, {**BASE, "targets": t.to_json_obj()}))
    assert sc.build_targets() == t
    sc2 = load_scenario(write(tmp_path, {**BASE, "targets": 5}))
    with pytest.raises(bm.InvalidConfigurationError, match="from_graph"):
        sc2.build_targets()
    sc3 = load_scenario(write(tmp_path, {
        **BASE, "init": {"c": [[0.7, 0.3]], "p": [[0.6, 0.4]]}}))
    with pytest.raises(bm.InvalidConfigurationError, match="rows"):
        sc3.build_inits(2)
    sc4 = load_scenario(write(tmp_path, {
        **BASE, "init": {"c": [[0.7, 0.3]] * 2, "q": [[0.6, 0.4]] * 2}}))
    with pytest.raises(bm.InvalidConfigurationError):
        sc4.build_inits(2)


def test_tagged_parsing(tmp_path):
    sc = load_scenario(write(tmp_path, {
        **BASE, "tagged": [3, [1, "p"]]}))
    assert sc.tagged(2) == [3, (1, "p")]
    sc2 = load_scenario(write(tmp_path, {**BASE, "tagged": [[1, "x"]]}))
    with pytest.raises(bm.InvalidConfigurationError, match="tagged"):
        sc2.tagged(2)
    for block in (-1, 2, True):
        sc3 = load_scenario(write(tmp_path, {
            **BASE, "tagged": [[0, "c"], [block, "p"]]}))
        with pytest.raises(bm.InvalidConfigurationError, match="0..1"):
            sc3.tagged(2)
