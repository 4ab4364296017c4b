import contextlib
import copy
import importlib
import io
import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockmf import MeanFieldFlow, sample_block_colors, simulate
from blockmf.cli import main
from blockmf.rng import ORACLE_CHECK, substream
from blockmf.scenario import load_scenario
from conftest import reference_marginals, reference_oracle, run_blockmf_module

SCEN = {
    "schema": "blockmf/1",
    "seed": 515,
    "graph": {"complete_blocks": [[2, 3], [2, 3]]},
    "rates": {"model": "sis", "r": 2, "gamma": [0.8, 1.1],
              "nu": [0.5, 0.4], "eta": 0.6, "zeta": [0.9, 0.7]},
    "targets": "from_graph",
    "init": {"c": [[0.7, 0.3], [0.8, 0.2]],
             "p": [[0.6, 0.4], [0.75, 0.25]]},
    "horizon": 1.0,
    "dt": 0.01,
    "grid": 21,
    "replicas": 30,
    "n_list": [10, 20],
}

ORACLE_SCEN = {
    "schema": "blockmf/1",
    "seed": 99,
    "graph": {"complete_blocks": [[1, 2]]},
    "rates": {"model": "sis", "gamma": 1.2, "nu": 0.5, "eta": 0.8,
              "zeta": 0.6},
    "targets": "from_graph",
    "init": {"c": [[0.7, 0.3]], "p": [[0.6, 0.4]]},
    "horizon": 0.8,
    "replicas": 400,
}


def scen_path(tmp_path, obj=SCEN, name="scen.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(tmp_path, capsys):
    code, out, err = run(["validate", "--scenario", scen_path(tmp_path)],
                         capsys)
    assert code == 0 and err == ""
    assert out.startswith("scenario OK: schema, graph(N=10,r=2), rates")
    assert "max target residual 0" in out


def test_validate_rejects_unknown_field(tmp_path, capsys):
    bad = scen_path(tmp_path, {**SCEN, "replcias": 3}, "bad.json")
    code, out, err = run(["validate", "--scenario", bad], capsys)
    assert code == 1 and "replcias" in err


def test_simulate_writes_deterministic_artifacts(tmp_path, capsys):
    sp = scen_path(tmp_path)
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        code, out, _ = run(["simulate", "--scenario", sp, "--out", str(d)],
                           capsys)
        assert code == 0 and "trajectory.csv" in out
        outs.append(((d / "trajectory.csv").read_bytes(),
                     (d / "empirical.csv").read_bytes()))
    assert outs[0] == outs[1]
    header = outs[0][1].decode().splitlines()[0]
    assert header == "t,block,class,color,mass"
    # 21 grid points x 2 blocks x 2 classes x 2 colors
    assert len(outs[0][1].decode().splitlines()) == 1 + 21 * 8
    d3 = tmp_path / "c"
    code, _, _ = run(["simulate", "--scenario", sp, "--out", str(d3),
                      "--seed", "516"], capsys)
    assert code == 0
    assert (d3 / "trajectory.csv").read_bytes() != outs[0][0]


def test_simulate_needs_seed(tmp_path, capsys):
    sp = scen_path(tmp_path, {k: v for k, v in SCEN.items() if k != "seed"})
    code, _, err = run(["simulate", "--scenario", sp], capsys)
    assert code == 1 and "seed" in err


def test_grid_override(tmp_path, capsys):
    sp = scen_path(tmp_path)
    d = tmp_path / "g"
    code, _, _ = run(["simulate", "--scenario", sp, "--out", str(d),
                      "--grid", "5"], capsys)
    assert code == 0
    assert len((d / "empirical.csv").read_text().splitlines()) == 1 + 5 * 8


def test_meanfield_then_ldp_cost(tmp_path, capsys):
    sp = scen_path(tmp_path)
    d = str(tmp_path / "mf")
    code, out, _ = run(["meanfield", "--scenario", sp, "--out", d], capsys)
    assert code == 0 and "flow.csv" in out
    code, out, _ = run(["ldp-cost", "--scenario", sp, "--out", d], capsys)
    assert code == 0 and "flow.csv" in out   # reused the solved flow
    last = (tmp_path / "mf" / "cost.csv").read_text().splitlines()[-1]
    assert last.startswith("S_total,")
    assert float(last.split(",")[1]) <= 1e-5


def test_picard_artifacts_and_nonconvergence(tmp_path, capsys):
    sp = scen_path(tmp_path)
    d = tmp_path / "p"
    code, out, _ = run(["picard", "--scenario", sp, "--out", str(d)], capsys)
    assert code == 0 and "flow_picard.csv" in out
    lines = (d / "residuals.csv").read_text().splitlines()
    assert lines[0] == "iter,residual"
    res = [float(l.split(",")[1]) for l in lines[1:]]
    assert res[-1] < 1e-8
    stuck = scen_path(tmp_path, {**SCEN, "picard_max_iter": 1,
                                 "picard_tol": 1e-14}, "stuck.json")
    code, _, err = run(["picard", "--scenario", stuck, "--out", str(d)],
                       capsys)
    assert code == 2 and "numerical error" in err


@pytest.mark.parametrize("sub", ["meanfield", "picard", "ldp-cost"])
def test_numerical_failure_prints_one_line(tmp_path, sub):
    # rates of 1e200 overflow the limit solvers: the run stops with exit 2
    # and one stderr line, no numpy warnings before it, and no artifact
    blowup = {**SCEN, "rates": {"model": "sis", "r": 2, "gamma": 1e200,
                                "nu": 1e200, "eta": 1e200, "zeta": 0.7}}
    proc = run_blockmf_module([sub, "--scenario",
                               scen_path(tmp_path, blowup),
                               "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical error: "), (
        proc.stderr)
    assert not (tmp_path / "out").exists()


def test_out_dir_is_created_with_the_first_artifact(tmp_path, capsys):
    # validate writes nothing, and a rejected run stops before its first
    # artifact: neither leaves an --out directory behind
    deeper = tmp_path / "new" / "deeper"
    code, _, err = run(["validate", "--scenario", scen_path(tmp_path),
                        "--out", str(deeper)], capsys)
    assert code == 0 and err == ""
    assert not (tmp_path / "new").exists()
    bad = scen_path(tmp_path, {**SCEN, "rates": {"model": "nope"}},
                    "bad.json")
    code, _, err = run(["simulate", "--scenario", bad, "--out", str(deeper)],
                       capsys)
    assert code == 1 and err.startswith("error: ")
    assert not (tmp_path / "new").exists()
    code, _, _ = run(["simulate", "--scenario", scen_path(tmp_path),
                      "--out", str(deeper)], capsys)
    assert code == 0
    assert sorted(p.name for p in deeper.iterdir()) == [
        "empirical.csv", "trajectory.csv"]


def test_chaos_thread_count_invariance(tmp_path, capsys):
    sp = scen_path(tmp_path)
    files = []
    for threads, sub in ((1, "t1"), (2, "t2")):
        d = tmp_path / sub
        code, out, _ = run(["chaos", "--scenario", sp, "--out", str(d),
                            "--threads", str(threads)], capsys)
        assert code == 0 and "convergence.csv" in out
        files.append(((d / "convergence.csv").read_bytes(),
                      (d / "chaos_convergence.svg").read_bytes()))
    assert files[0] == files[1]
    lines = files[0][0].decode().splitlines()
    assert lines[0] == "N,replicas,mean_dist,stderr"
    assert [l.split(",")[0] for l in lines[1:]] == ["10", "20"]


def test_multichaos_csv(tmp_path, capsys):
    sp = scen_path(tmp_path)
    d = tmp_path / "m"
    code, out, _ = run(["multichaos", "--scenario", sp, "--out", str(d)],
                       capsys)
    assert code == 0 and "multichaos.csv" in out
    lines = (d / "multichaos.csv").read_text().splitlines()
    assert lines[0] == "N,replicas,tv_distance"
    for line in lines[1:]:
        n, reps, tv = line.split(",")
        assert int(reps) == 30
        assert 0.0 <= float(tv) <= 1.0


def test_multichaos_streams_differ_from_other_subcommands(
        tmp_path, capsys, monkeypatch):
    # SeedSequence pads keys with zeros, so a key that merely drops a
    # trailing zero repeats another caller's stream: compare the first
    # draws of every stream each subcommand pulls
    import blockmf.cli as cli_mod
    import blockmf.experiments as exp_mod

    real = exp_mod.substream
    used = {}

    def recorder(sub):
        def substream(*path):
            used.setdefault(sub, set()).add(path)
            return real(*path)
        return substream

    sp = scen_path(tmp_path, {**SCEN, "n_list": [10, 20, 30, 40],
                              "replicas": 4})
    for sub in ("multichaos", "chaos", "oracle-check", "simulate"):
        monkeypatch.setattr(cli_mod, "substream", recorder(sub))
        monkeypatch.setattr(exp_mod, "substream", recorder(sub))
        code, _, err = run([sub, "--scenario", sp, "--out",
                            str(tmp_path / sub), "--threads", "1"], capsys)
        assert code == 0, err

    def first_draws(path):
        return tuple(real(*path).random(4))

    # every stream of every subcommand is its own: one per N for
    # multichaos and for chaos (a farm of 4 replicas each), 4 oracle-check
    # replicas, one simulate run
    draws = [first_draws(p) for paths in used.values() for p in paths]
    assert len(draws) == len(set(draws)) == 13


def test_oracle_check(tmp_path, capsys):
    sp = scen_path(tmp_path, ORACLE_SCEN, "oracle.json")
    d = tmp_path / "o"
    code, out, _ = run(["oracle-check", "--scenario", sp, "--out", str(d)],
                       capsys)
    assert code == 0
    assert "max ratio to SE" in out
    lines = (d / "oracle_check.csv").read_text().splitlines()
    assert lines[0] == "node,color,oracle_p,mc_p,stderr"
    assert len(lines) == 1 + 3 * 2
    # agreement within 5 standard errors on every cell
    for line in lines[1:]:
        _, _, op, mp, se = line.split(",")
        assert abs(float(op) - float(mp)) <= 5.0 * max(float(se), 1e-6)


REGULAR_ORACLE_SCEN = {
    **ORACLE_SCEN, "seed": 41,
    "graph": {"regular": {"blocks": [[1, 2], [1, 2]], "fractions": 0.5}},
    "rates": {"model": "sis", "r": 2, "gamma": [0.8, 1.1],
              "nu": [0.5, 0.4], "eta": 0.6, "zeta": [0.9, 0.7]},
    "init": {"c": [[0.7, 0.3], [0.8, 0.2]],
             "p": [[0.6, 0.4], [0.75, 0.25]]},
    "replicas": 150,
}
# three colours; the negative offsets clamp some rates to zero
K3_ORACLE_SCEN = {
    **ORACLE_SCEN, "seed": 57,
    "graph": {"complete_blocks": [[1, 3]]},
    "rates": {"model": "tables", "spec": {
        "colors": 3, "edges": [[0, 1], [1, 0], [1, 2], [2, 0]],
        "gamma_c": {"0,1": [0.0, 1.3, 0.37], "1,0": [0.9, 0.0, 0.21],
                    "1,2": [0.11, 0.7, 0.0], "2,0": [0.45, 0.0, 1.7]},
        "gamma_p": {"0,1": [0.3, 0.0, 1.1], "1,0": [0.0, 0.83, 0.4],
                    "1,2": [1.9, 0.13, 0.0], "2,0": [0.0, 0.6, 0.29]},
        "beta": {"0,1": -0.4, "1,0": 0.35, "1,2": -0.55, "2,0": 0.15}}},
    "init": {"c": [[0.5, 0.3, 0.2]], "p": [[0.2, 0.5, 0.3]]},
    "replicas": 150,
}


@pytest.mark.parametrize("scen", [ORACLE_SCEN, REGULAR_ORACLE_SCEN,
                                  K3_ORACLE_SCEN],
                         ids=["complete", "regular", "k3-tables"])
def test_oracle_check_csv_matches_reference(tmp_path, capsys, scen):
    # the whole file against a reference built here: the exact law from
    # the per-state assembly, the Monte Carlo column from per-replica
    # colour draws and simulate runs on the subcommand's own streams
    sp = scen_path(tmp_path, scen, "oracle.json")
    code, _, err = run(["oracle-check", "--scenario", sp, "--out",
                        str(tmp_path)], capsys)
    assert code == 0, err
    sc = load_scenario(sp)
    graph, spec = sc.build_graph(), sc.build_rates()
    inits = sc.build_inits(graph.r, spec.colors.K)
    N, K, R = graph.n_total, spec.colors.K, scen["replicas"]
    _, probs, _ = reference_oracle(graph, spec,
                                   np.asarray(inits)[graph.component],
                                   scen["horizon"])
    oracle_p = reference_marginals(probs, K, N)
    counts = np.zeros((N, K))
    for rep in range(R):
        gen = substream(scen["seed"], 0, rep, ORACLE_CHECK)
        colors = sample_block_colors(graph, inits, gen)
        final = simulate(graph, spec, colors, scen["horizon"],
                         gen).final_colors
        counts[np.arange(N), final] += 1.0
    mc_p = counts / R
    se = np.sqrt(oracle_p * (1.0 - oracle_p) / R)
    want = "node,color,oracle_p,mc_p,stderr\n" + "".join(
        f"{n},{z},{oracle_p[n, z]:.17g},{mc_p[n, z]:.17g},"
        f"{se[n, z]:.17g}\n" for n in range(N) for z in range(K))
    assert (tmp_path / "oracle_check.csv").read_text() == want


def test_log_level_env(tmp_path, capsys, monkeypatch):
    sp = scen_path(tmp_path)
    monkeypatch.setenv("BLOCKMF_LOG", "loud")
    code, _, err = run(["validate", "--scenario", sp], capsys)
    assert code == 1 and "BLOCKMF_LOG" in err
    monkeypatch.setenv("BLOCKMF_LOG", "info")
    code, _, _ = run(["validate", "--scenario", sp], capsys)
    assert code == 0


@pytest.mark.skipif(shutil.which("blockmf") is None,
                    reason="the blockmf console script is not on PATH; "
                           "`pip install -e .` creates it")
def test_console_script(tmp_path):
    sp = scen_path(tmp_path)
    proc = subprocess.run(["blockmf", "validate", "--scenario", sp],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("scenario OK")
    proc2 = subprocess.run(["blockmf", "simulate", "--scenario", sp,
                            "--out", str(tmp_path / "cs")],
                           capture_output=True, text=True)
    assert proc2.returncode == 0, proc2.stderr
    assert (tmp_path / "cs" / "trajectory.csv").exists()


def test_entry_point_declared_and_runs_as_module(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["blockmf"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    proc = run_blockmf_module(["validate", "--scenario", scen_path(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("scenario OK")


def test_distribution_name_and_test_extra():
    # the suite imports pytest and hypothesis; the `test` extra declares them
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["name"] == "blockmf"
    assert sorted(project["optional-dependencies"]["test"]) == [
        "hypothesis", "pytest"]


def _without(section, key):
    return {**SCEN, section: {k: v for k, v in SCEN[section].items()
                              if k != key}}


def assert_fails_closed(proc, artifact, needle):
    """Exit 1 with exactly one `error:` line naming `needle`, no
    traceback, and no artifact written."""
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert needle in lines[0]
    assert not artifact.exists()


# Graph files for the cases below. Each is a valid two-block complete
# design once its one non-integer field is truncated.
_PERIPHERAL_PAIRS = [[1, 2], [1, 4], [1, 5], [2, 4], [2, 5], [4, 5]]
BAD_GRAPH_FILES = {
    "edge-float.json": {
        "blocks": [{"central": 1, "peripheral": 2}] * 2,
        "peripheral_edges": [[1.9, 2]] + _PERIPHERAL_PAIRS[1:],
    },
    "central-bool.json": {
        "blocks": [{"central": True, "peripheral": 2},
                   {"central": 1, "peripheral": 2}],
        "peripheral_edges": _PERIPHERAL_PAIRS,
    },
}


@pytest.mark.parametrize("sub", ["validate", "simulate"])
@pytest.mark.parametrize("scen, needle", [
    (_without("rates", "gamma"), "rates"),
    ({**SCEN, "graph": {"complete_blocks": 5}}, "graph"),
    ({**SCEN, "init": {**SCEN["init"], "c": [["x", 0.3], [0.8, 0.2]]}},
     "init"),
    ({**SCEN, "init": {**SCEN["init"], "c": [[0.7, 0.4], [0.8, 0.2]]}},
     "init"),
    ({**SCEN, "init": {**SCEN["init"], "c": [[1.0], [0.8, 0.2]]}}, "init"),
    ({**SCEN, "init": {**SCEN["init"], "c": [[0.5, 0.3, 0.2], [0.8, 0.2]]}},
     "init"),
    ({**SCEN, "graph": {"file": "edge-float.json"}}, "integer"),
    ({**SCEN, "graph": {"file": "central-bool.json"}}, "integer"),
    ({**SCEN, "graph": {"regular": {"blocks": [[1, 4.9], [1, 4]],
                                    "fractions": 0.5}}}, "integer"),
    ({**SCEN, "graph": {"complete_blocks": [[2.5, 3], [2, 3]]}}, "integer"),
], ids=["rates-missing-gamma", "graph-not-a-list", "init-not-numeric",
        "init-not-a-probability", "init-row-too-short", "init-row-too-long",
        "graph-file-edge-float", "graph-file-central-bool",
        "regular-size-float", "complete-size-float"])
def test_malformed_scenario_fails_closed(tmp_path, sub, scen, needle):
    for name, obj in BAD_GRAPH_FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    proc = run_blockmf_module([sub, "--scenario", scen_path(tmp_path, scen),
                               "--out", str(tmp_path / "out")])
    assert_fails_closed(proc, tmp_path / "out" / "trajectory.csv", needle)


@pytest.mark.parametrize("sub", ["validate", "multichaos"])
@pytest.mark.parametrize("tagged", [[[0, "c"], [-1, "p"]],
                                    [[0, "c"], [7, "p"]],
                                    [0, 999],
                                    [0, 1, 2, 3],
                                    # node 4 is block 0's first
                                    # peripheral at N=20, not at N=10
                                    [4, [0, "p"]]],
                         ids=["negative-block", "block-past-r",
                              "node-past-n", "four-nodes",
                              "same-node-at-larger-n"])
def test_tagged_outside_blocks_fails_closed(tmp_path, sub, tagged):
    scen = scen_path(tmp_path, {**SCEN, "tagged": tagged})
    proc = run_blockmf_module([sub, "--scenario", scen,
                               "--out", str(tmp_path / "out")])
    assert_fails_closed(proc, tmp_path / "out" / "multichaos.csv", "tagged")


@pytest.mark.parametrize("sub, artifact", [("validate", "convergence.csv"),
                                           ("chaos", "convergence.csv"),
                                           ("multichaos", "multichaos.csv")])
def test_n_list_off_the_target_sizes_fails_closed(tmp_path, sub, artifact):
    # N=42 splits into two blocks of 21, whose 40% central share is 8.4
    scen = scen_path(tmp_path, {**SCEN, "n_list": [42, 160]})
    proc = run_blockmf_module([sub, "--scenario", scen,
                               "--out", str(tmp_path / "out")])
    assert_fails_closed(proc, tmp_path / "out" / artifact, "n_list")


@pytest.mark.parametrize("sub, artifact", [("simulate", "trajectory.csv"),
                                           ("meanfield", "flow.csv")])
@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"), ("--seed", str(2 ** 64)), ("--grid", "-3"),
    ("--grid", "1"), ("--threads", "-2"), ("--threads", "0"),
])
def test_bad_flag_fails_closed(tmp_path, sub, artifact, flag, value):
    # checked also where the subcommand does not use the flag
    proc = run_blockmf_module([sub, "--scenario", scen_path(tmp_path),
                               "--out", str(tmp_path / "out"), flag, value])
    assert_fails_closed(proc, tmp_path / "out" / artifact, flag.lstrip("-"))


def _flow_lines(r=2, K=2):
    """A constant flow.csv on the grid 0, 0.5, 1, one list item a line."""
    return ["t,block,class,color,mass"] + [
        f"{t},{j},{c},{z},{1 / K}" for t in (0.0, 0.5, 1.0)
        for j in range(r) for c in "cp" for z in range(K)
    ]


def _with_line_8(row):
    # line 8 holds the cell t=0, block 1, class p, color 0
    lines = _flow_lines()
    lines[7] = row
    return lines


def test_flow_csv_reference_runs(tmp_path, capsys):
    (tmp_path / "flow.csv").write_text("\n".join(_flow_lines()) + "\n")
    sp = scen_path(tmp_path, {**SCEN, "flow_csv": "flow.csv"})
    code, out, _ = run(["ldp-cost", "--scenario", sp,
                        "--out", str(tmp_path / "out")], capsys)
    assert code == 0 and "flow.csv" in out


def _read_flow(lines):
    return MeanFieldFlow.from_csv(io.StringIO("\n".join(lines) + "\n"))


def test_flow_csv_rows_in_any_order_and_blank_lines(tmp_path, capsys):
    # a solved flow, its rows shuffled, with blank and all-space lines
    sp = scen_path(tmp_path)
    code, _, _ = run(["meanfield", "--scenario", sp,
                      "--out", str(tmp_path)], capsys)
    assert code == 0
    header, *rows = (tmp_path / "flow.csv").read_text().splitlines()
    order = np.random.default_rng(5).permutation(len(rows))
    shuffled = [rows[i] for i in order]
    shuffled[10:10] = ["", "   "]
    want = _read_flow([header, *rows])
    got = _read_flow([header, "", *shuffled])
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.values, want.values) and got.r == want.r
    (tmp_path / "shuffled.csv").write_text(
        "\n".join([header, *shuffled]) + "\n")
    costs = []
    for flow_csv in ("flow.csv", "shuffled.csv"):
        out = tmp_path / flow_csv.replace(".", "_")
        sp = scen_path(tmp_path, {**SCEN, "flow_csv": flow_csv})
        code, _, err = run(["ldp-cost", "--scenario", sp, "--out", str(out)],
                           capsys)
        assert code == 0, err
        costs.append((out / "cost.csv").read_bytes())
    assert costs[0] == costs[1]


@pytest.mark.parametrize("lines, needle", [
    (_with_line_8("0,1,x,0,0.5"), "flow line 8"),
    (_with_line_8("0,-1,p,0,0.5"), "flow line 8"),
    (_with_line_8("0,1,p,0,abc"), "flow line 8"),
    (_with_line_8("0,1,p,0"), "flow line 8"),
    (_with_line_8("0,1,p,0,nan"), "flow line 8"),
    (_with_line_8("0,1,pp,0,0.5"), "flow line 8"),
    (_flow_lines()[:1] + ["# a comment"] + _flow_lines()[1:], "flow line 2"),
    (_flow_lines() + ["0,1,p,0,0.25"], "flow line 26"),
    (_flow_lines()[:-1], "missing"),
    (_flow_lines(K=3), "flow"),
    (_flow_lines(r=1), "flow"),
], ids=["class-x", "block-negative", "mass-not-numeric", "four-fields",
        "mass-nan", "class-pp", "comment-line", "duplicate-cell",
        "missing-cell", "three-colors", "one-block"])
def test_malformed_flow_csv_fails_closed(tmp_path, lines, needle):
    (tmp_path / "flow.csv").write_text("\n".join(lines) + "\n")
    scen = scen_path(tmp_path, {**SCEN, "flow_csv": "flow.csv"})
    proc = run_blockmf_module(["ldp-cost", "--scenario", scen,
                               "--out", str(tmp_path / "out")])
    assert_fails_closed(proc, tmp_path / "out" / "cost.csv", needle)


@pytest.mark.parametrize("field, value, sub, artifact, needle", [
    ("picard_tol", -1, "picard", "flow_picard.csv", "picard_tol"),
    ("picard_max_iter", 0, "picard", "flow_picard.csv", "picard_max_iter"),
    ("flow_csv", "nope.csv", "ldp-cost", "cost.csv", "flow_csv"),
    ("flow_csv", ".", "ldp-cost", "cost.csv", "flow_csv"),
    ("flow_csv", "three-colors.csv", "ldp-cost", "cost.csv", "K=3"),
    ("flow_csv", "class-pp.csv", "ldp-cost", "cost.csv", "flow line 8"),
    ("flow_csv", "binary.csv", "ldp-cost", "cost.csv", "flow line 2"),
    ("flow_csv", "two-points.csv", "ldp-cost", "cost.csv", "3 grid points"),
], ids=["picard-tol-negative", "picard-max-iter-zero", "flow-csv-missing",
        "flow-csv-directory", "flow-csv-three-colors", "flow-csv-class-pp",
        "flow-csv-binary", "flow-csv-two-points"])
def test_limit_fields_fail_closed(tmp_path, field, value, sub, artifact,
                                  needle):
    # validate checks what picard and ldp-cost read
    (tmp_path / "three-colors.csv").write_text(
        "\n".join(_flow_lines(K=3)) + "\n")
    (tmp_path / "class-pp.csv").write_text(
        "\n".join(_with_line_8("0,1,pp,0,0.5")) + "\n")
    (tmp_path / "two-points.csv").write_text(
        "\n".join(_flow_lines()[:-8]) + "\n")
    (tmp_path / "binary.csv").write_bytes(
        b"t,block,class,color,mass\n\xff\xfe,0,c,0,1\n")
    scen = scen_path(tmp_path, {**SCEN, field: value})
    for command in ("validate", sub):
        proc = run_blockmf_module([command, "--scenario", scen,
                                   "--out", str(tmp_path / "out")])
        assert_fails_closed(proc, tmp_path / "out" / artifact, needle)


FUZZ_SCEN = {**SCEN, "horizon": 0.5, "grid": 5,
             "tagged": [[0, "c"], [1, "p"]]}
FUZZ_VALUES = [None, True, "x", -1, 0, 0.5, 2, [], {}, [0.5, 0.5]]
DELETE = object()


def _paths(obj, prefix=()):
    """The path from the root to every key and list index of a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutated(path, value):
    scen = copy.deepcopy(FUZZ_SCEN)
    parent = scen
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return scen


@settings(max_examples=100, deadline=None, derandomize=True)
@given(path=st.sampled_from(list(_paths(FUZZ_SCEN))),
       value=st.sampled_from([DELETE, *FUZZ_VALUES]))
def test_mutated_scenario_runs_or_fails_closed(tmp_path_factory, path,
                                               value):
    # any one-field mutation of a valid scenario either runs, or exits 1
    # with a single error line; nothing escapes as an exception
    tmp = tmp_path_factory.mktemp("fuzz")
    sp = scen_path(tmp, _mutated(path, value))
    for sub in ("validate", "simulate"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([sub, "--scenario", sp, "--out", str(tmp / "out")])
        lines = err.getvalue().splitlines()
        assert code in (0, 1), (sub, code, err.getvalue())
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: "), \
                (sub, err.getvalue())
