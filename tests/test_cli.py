import contextlib
import copy
import importlib
import io
import json
import math
import resource
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockmf.experiments as experiments
import blockmf.meanfield as meanfield
from blockmf import MeanFieldFlow, build_regular_peripheral
from blockmf.cli import main
from blockmf.errors import InvalidArgumentError
from blockmf.experiments import final_group_counts
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


def test_parser_is_built_once_and_keeps_no_arguments(tmp_path, capsys):
    # one parser serves every call; an override given to one call does
    # not carry over to the next
    from blockmf.cli import _build_parser

    assert _build_parser() is _build_parser()
    first = _build_parser().parse_args(
        ["picard", "--scenario", "a.json", "--seed", "3", "--out", "o"])
    assert (first.seed, first.out) == (3, "o")
    second = _build_parser().parse_args(["meanfield", "--scenario", "b"])
    assert (second.command, second.seed, second.out) == (
        "meanfield", None, None)
    sp = scen_path(tmp_path, {k: v for k, v in SCEN.items() if k != "seed"})
    code, _, err = run(["simulate", "--scenario", sp, "--seed", "4",
                        "--out", str(tmp_path / "s")], capsys)
    assert code == 0
    code, _, err = run(["simulate", "--scenario", sp], capsys)
    assert code == 1 and "seed" in err


def test_grid_override(tmp_path, capsys):
    # the scenario's grid is the one source of the time grid: there is
    # no --grid flag to override it, and passing one is refused
    sp = scen_path(tmp_path, {**SCEN, "grid": 5})
    d = tmp_path / "g"
    code, _, _ = run(["simulate", "--scenario", sp, "--out", str(d)], capsys)
    assert code == 0
    assert len((d / "empirical.csv").read_text().splitlines()) == 1 + 5 * 8
    code, out, err = run(["simulate", "--scenario", scen_path(tmp_path),
                          "--out", str(tmp_path / "h"), "--grid", "5"],
                         capsys)
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: --grid 5\n"
    assert not (tmp_path / "h").exists()


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


def test_picard_artifacts_and_nonconvergence(tmp_path, capsys,
                                             monkeypatch):
    sp = scen_path(tmp_path)
    d = tmp_path / "p"
    code, out, _ = run(["picard", "--scenario", sp, "--out", str(d)], capsys)
    assert code == 0 and "flow_picard.csv" in out
    lines = (d / "residuals.csv").read_text().splitlines()
    assert lines[0] == "iter,residual"
    res = [float(l.split(",")[1]) for l in lines[1:]]
    assert res[-1] < 1e-8
    monkeypatch.setattr(meanfield, "PICARD_MAX_ITER", 1)
    monkeypatch.setattr(meanfield, "PICARD_TOL", 1e-14)
    code, _, err = run(["picard", "--scenario", sp, "--out", str(d)], capsys)
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


def test_count_farm_overflow_prints_one_line(tmp_path):
    # rates of 1e308 overflow the multichaos farm's rate sums: exit 2 and
    # one stderr line, no numpy warnings before it, and no artifact
    blowup = {**SCEN, "rates": {**SCEN["rates"], "gamma": 1e308,
                                "nu": 1e308}}
    proc = run_blockmf_module(["multichaos", "--scenario",
                               scen_path(tmp_path, blowup),
                               "--out", str(tmp_path / "out")])
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.splitlines() == [
        "numerical error: non-finite rate in the count farm"]
    assert not (tmp_path / "out").exists()


def test_oracle_check_with_huge_rates_fails_closed(tmp_path):
    # rates of 1e300 would take about 1e298 uniformization chunks: the
    # oracle refuses them at once
    huge = {**ORACLE_SCEN, "rates": {**ORACLE_SCEN["rates"],
                                     "gamma": 1e300, "nu": 1e300}}
    proc = run_blockmf_module(["oracle-check", "--scenario",
                               scen_path(tmp_path, huge),
                               "--out", str(tmp_path / "out")], timeout=30)
    assert_fails_closed(proc, tmp_path / "out" / "oracle_check.csv",
                        "series chunks")


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


@pytest.mark.parametrize("sub", ["oracle-check", "simulate"])
def test_out_naming_a_file_fails_closed(tmp_path, sub):
    # the run's work is done before the first artifact is written; an
    # --out that cannot be made a directory then ends in one error line
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    proc = run_blockmf_module([sub, "--scenario",
                               scen_path(tmp_path, ORACLE_SCEN),
                               "--out", str(afile)])
    assert_fails_closed(proc, afile / "oracle_check.csv", "afile")
    assert afile.read_text() == "kept\n"


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
    import blockmf.experiments as exp_mod
    import blockmf.rng as rng_mod

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
        monkeypatch.setattr(rng_mod, "substream", recorder(sub))
        monkeypatch.setattr(exp_mod, "substream", recorder(sub))
        code, _, err = run([sub, "--scenario", sp, "--out",
                            str(tmp_path / sub), "--threads", "1"], capsys)
        assert code == 0, err

    def first_draws(path):
        return tuple(real(*path).random(4))

    # every stream of every subcommand is its own: one per N for
    # multichaos and for chaos (a farm of 4 replicas each), one for
    # oracle-check's farm and one for the simulate run
    draws = [first_draws(p) for paths in used.values() for p in paths]
    assert len(draws) == len(set(draws)) == 10
    assert len(used["oracle-check"]) == 1


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
    # the per-state assembly, the Monte Carlo column from the count farm
    # on the subcommand's own stream, each node's the mean colour
    # fractions of its group
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
    [(tables, counts)] = final_group_counts(
        [graph], spec, scen["horizon"], R,
        [substream(scen["seed"], 0, 0, ORACLE_CHECK)], inits=inits)
    assert counts.shape == (R, tables.n_groups, K)
    group = graph.group
    mc_p = np.array([(counts[:, group[n]] / tables.sizes[group[n]]).mean(
        axis=0) for n in range(N)])
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
    # a long value is quoted short: 5,000 characters made a 5,069-byte line
    monkeypatch.setenv("BLOCKMF_LOG", "x" * 5000)
    code, _, err = run(["validate", "--scenario", sp], capsys)
    assert code == 1 and err.startswith("error: BLOCKMF_LOG must be one of")
    assert len(err.splitlines()) == 1 and len(err) < 250, err
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
    # the package needs numpy alone; the suite also imports pytest,
    # hypothesis and scipy, and the `test` extra declares them
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["name"] == "blockmf"
    assert project["dependencies"] == ["numpy>=2.0"]
    assert sorted(project["optional-dependencies"]["test"]) == [
        "hypothesis", "pytest", "scipy>=1.10"]


def _without(section, key):
    return {**SCEN, section: {k: v for k, v in SCEN[section].items()
                              if k != key}}


def _with_tables(**tables):
    """SCEN with its rates as a two-colour `tables` spec, some tables
    replaced."""
    spec = {"colors": 2, "edges": [[0, 1], [1, 0]],
            "gamma_c": {"0,1": [0.0, 1.0], "1,0": [0.0, 0.0]},
            "gamma_p": {"0,1": [0.0, 0.5], "1,0": [0.0, 0.0]},
            "beta": {"1,0": 0.9}}
    return {**SCEN, "rates": {"model": "tables", "spec": {**spec, **tables}}}


def _with_queue(colors):
    """SCEN with its rates as a queue of `colors` colours."""
    return {**SCEN,
            "rates": {"model": "queue", "colors": colors, "zeta": 1.0,
                      "vartheta": 0.5, "c0": 0.4}}


def assert_fails_closed(proc, artifact, needle):
    """Exit 1 with exactly one `error:` line naming `needle`, no
    traceback, and no artifact written."""
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert needle in lines[0]
    assert not artifact.exists()


# A two-block complete design in the inline graph form; two cases below
# replace one of its integers.
_PERIPHERAL_PAIRS = [[1, 2], [1, 4], [1, 5], [2, 4], [2, 5], [4, 5]]
_INLINE = {"blocks": [{"central": 1, "peripheral": 2}] * 2,
           "peripheral_edges": _PERIPHERAL_PAIRS}
# Valid graph and rates files: a scenario that names one is refused for
# naming a file, not for naming a missing or bad one.
NAMED_FILES = {"g.json": _INLINE, "r.json": SCEN["rates"]}


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
    ({**SCEN, "graph": {**_INLINE, "peripheral_edges":
                        [[1.9, 2]] + _PERIPHERAL_PAIRS[1:]}}, "integer"),
    ({**SCEN, "graph": {**_INLINE, "blocks": [
        {"central": True, "peripheral": 2},
        {"central": 1, "peripheral": 2}]}}, "integer"),
    ({**SCEN, "graph": {"regular": {"blocks": [[1, 4.9], [1, 4]],
                                    "fractions": 0.5}}}, "integer"),
    ({**SCEN, "graph": {"complete_blocks": [[2.5, 3], [2, 3]]}}, "integer"),
    (_with_tables(beta=[1]), "beta must be a JSON object"),
    (_with_tables(gamma_c=[[0, 1]]), "gamma_c must be a JSON object"),
    (_with_tables(colors=3.7), "colors must be an integer"),
    (_with_tables(colors="3"), "colors must be an integer"),
    (_with_tables(base=0.5), "unknown rate spec fields"),
    (_with_tables(base="1"), "unknown rate spec fields"),
    (_with_tables(edges=[[0.9, 1.2], [1, 0]]),
     "edges endpoint must be an integer"),
    (_with_queue(3.5), "colors must be an integer"),
    (_with_queue("3"), "colors must be an integer"),
    (_with_queue(True), "colors must be an integer"),
    # a scenario is one document: the output directory is --out's alone,
    # and the graph and rates are given inline
    ({**SCEN, "out": "o"}, "['out']"),
    ({**SCEN, "out": 5}, "['out']"),
    ({**SCEN, "graph": {"file": "g.json"}}, "unknown graph fields"),
    ({**SCEN, "rates": {"file": "r.json"}}, "unknown rate model"),
], ids=["rates-missing-gamma", "graph-not-a-list", "init-not-numeric",
        "init-not-a-probability", "init-row-too-short", "init-row-too-long",
        "graph-inline-edge-float", "graph-inline-central-bool",
        "regular-size-float", "complete-size-float",
        "tables-beta-a-list", "tables-gamma-c-a-list", "tables-colors-float",
        "tables-colors-string", "tables-base-float", "tables-base-string",
        "tables-edge-floats", "queue-colors-float", "queue-colors-string",
        "queue-colors-bool", "out-field", "out-field-not-a-path",
        "graph-file", "rates-file"])
def test_malformed_scenario_fails_closed(tmp_path, sub, scen, needle):
    for name, obj in NAMED_FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    proc = run_blockmf_module([sub, "--scenario", scen_path(tmp_path, scen),
                               "--out", str(tmp_path / "out")])
    assert_fails_closed(proc, tmp_path / "out" / "trajectory.csv", needle)


def test_nested_init_row_without_rates_fails_closed(tmp_path):
    # without rates, validate knows no K: the row must still be 1-d
    scen = {k: v for k, v in SCEN.items() if k != "rates"}
    scen["init"] = {**SCEN["init"], "c": [[[0.7, 0.3]], [0.8, 0.2]]}
    proc = run_blockmf_module(["validate", "--scenario",
                               scen_path(tmp_path, scen)])
    assert_fails_closed(proc, tmp_path / "out", "must be a 1-d vector")


_REFUSED_ENTRY = 'tagged entries are node ids or [block, "c"|"p"] with ' \
    "block in 0..1: "


@pytest.mark.parametrize("sub", ["validate", "multichaos"])
@pytest.mark.parametrize("tagged, line", [
    ([[0, "c"], [-1, "p"]], _REFUSED_ENTRY + "[-1, 'p']"),
    ([[0, "c"], [7, "p"]], _REFUSED_ENTRY + "[7, 'p']"),
    ([0, 999], "N=10: tagged node 999 is no node id in 0..9"),
    ([0, 1, 2, 3], "N=10: need 1 to 3 tagged nodes, got 4"),
    # node 4 is block 0's first peripheral at N=20, not at N=10
    ([4, [0, "p"]], "N=20: tagged nodes must be distinct"),
    # nodes 15 and 12 exist at N=20 only
    ([15, [0, "c"]], "N=10: tagged node 15 is no node id in 0..9"),
    ([[1, "p"], 12], "N=10: tagged node 12 is no node id in 0..9"),
], ids=["negative-block", "block-past-r", "node-past-n", "four-nodes",
        "same-node-at-larger-n", "node-past-smallest-n",
        "pair-then-node-past-smallest-n"])
def test_tagged_outside_blocks_fails_closed(tmp_path, sub, tagged, line):
    # a request is resolved on every N before any run, by the library,
    # which names the N that refused it
    scen = scen_path(tmp_path, {**SCEN, "tagged": tagged})
    proc = run_blockmf_module([sub, "--scenario", scen,
                               "--out", str(tmp_path / "out")])
    assert_fails_closed(proc, tmp_path / "out" / "multichaos.csv", "tagged")
    assert proc.stderr == f"error: {line}\n"
    assert not (tmp_path / "out").exists()


def test_tagged_requests_and_laws_are_read_once(tmp_path, capsys,
                                                monkeypatch):
    # multichaos resolves its request twice per graph: its pass before
    # the run and tagged_law's entry check; oracle-check reads one law
    # per group, not one per node
    resolved, laws = [], []
    resolve, law = experiments.resolve_tagged, experiments.tagged_law
    monkeypatch.setattr(experiments, "resolve_tagged", lambda graph, nodes: (
        resolved.append(graph.n_total) or resolve(graph, nodes)))
    monkeypatch.setattr(experiments, "tagged_law", lambda tables, c, nodes: (
        laws.append(nodes) or law(tables, c, nodes)))
    scen = {**SCEN, "n_list": [10, 20, 30], "horizon": 0.3, "replicas": 4}
    code, _, err = run(["multichaos", "--scenario", scen_path(tmp_path, scen),
                        "--out", str(tmp_path / "m")], capsys)
    assert code == 0, err
    assert resolved == [10, 20, 30] * 2 and len(laws) == 3
    laws.clear()
    oracle = {**REGULAR_ORACLE_SCEN, "replicas": 20, "graph": {
        "regular": {"blocks": [[1, 4], [1, 4]], "fractions": 0.5}}}
    code, _, err = run(["oracle-check", "--scenario",
                        scen_path(tmp_path, oracle, "oracle.json"), "--out",
                        str(tmp_path / "o")], capsys)
    assert code == 0, err
    graph = build_regular_peripheral([(1, 4), (1, 4)], 0.5)
    assert graph.sizes.size == 6 < graph.n_total
    assert laws == [[m] for m in graph.firsts]


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
    # refused by the parser: a value of the wrong type, an unknown flag,
    # the removed --grid, no --scenario (value None drops it) and an
    # unknown subcommand (flag "command" names it in place of `sub`);
    # each printed argparse's usage block and exited 2
    ("--seed", "abc"), ("--bogus", "1"), ("--grid", "5"),
    ("--scenario", None), ("command", "bogus"),
    # argparse quotes them whole: 5,040- and 5,155-byte lines
    pytest.param("--" + "x" * 4998, "1", id="long-flag"),
    pytest.param("command", "y" * 5000, id="long-command"),
])
def test_bad_flag_fails_closed(tmp_path, sub, artifact, flag, value):
    # checked also where the subcommand does not use the flag; the line
    # names it within its first 60 characters
    argv = [sub, "--scenario", scen_path(tmp_path),
            "--out", str(tmp_path / "out")]
    if flag == "command":
        argv[0] = value
    elif value is None:  # flag is "--scenario"
        del argv[1:3]
    else:
        argv += [flag, value]
    proc = run_blockmf_module(argv)
    assert_fails_closed(proc, tmp_path / "out" / artifact,
                        flag.lstrip("-")[:20])
    assert len(proc.stderr.encode()) < 200


def _cap_address_space():
    # 4 GiB: the child fails at once even where the sizes below could be
    # allocated
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("sub, field, value, artifact", [
    ("oracle-check", "replicas", 10 ** 12, "oracle_check.csv"),
    ("chaos", "replicas", 10 ** 12, "convergence.csv"),
    ("multichaos", "replicas", 10 ** 12, "multichaos.csv"),
    ("chaos", "grid", 10 ** 11, "convergence.csv"),
    ("simulate", "grid", 10 ** 11, "trajectory.csv"),
    ("meanfield", "dt", 1e-13, "flow.csv"),
    ("meanfield", "rates", {"model": "queue", "colors": 10 ** 5, "zeta": 1.0,
                            "vartheta": 0.5, "c0": 0.4}, "flow.csv"),
], ids=["oracle-check-replicas", "chaos-replicas", "multichaos-replicas",
        "chaos-grid", "simulate-grid", "meanfield-dt",
        "meanfield-queue-colors"])
def test_huge_sizes_fail_closed(tmp_path, sub, field, value, artifact):
    # each size asks numpy for one array of 149 GiB to 73 TiB, which
    # fails at once: one error line, no traceback, no artifact
    scen = scen_path(tmp_path, {**SCEN, field: value})
    proc = run_blockmf_module([sub, "--scenario", scen,
                               "--out", str(tmp_path / "out")],
                              preexec_fn=_cap_address_space, timeout=60)
    assert_fails_closed(proc, tmp_path / "out" / artifact, "memory")


@pytest.mark.parametrize("blocks", [[[5000, 5000]], [[10000, 10000]]],
                         ids=["N-10000", "N-20000"])
def test_oracle_check_past_its_cap_fails_closed(tmp_path, blocks):
    # the cap formed K^N and printed it: a 3,053-character error line at
    # N = 10,000, and past Python's 4,300-digit limit on turning an int
    # into a string a ValueError traceback at N = 20,000
    scen = scen_path(tmp_path, {**ORACLE_SCEN,
                                "graph": {"complete_blocks": blocks}})
    proc = run_blockmf_module(["oracle-check", "--scenario", scen,
                               "--out", str(tmp_path / "out")])
    N = 2 * blocks[0][0]
    assert_fails_closed(proc, tmp_path / "out" / "oracle_check.csv",
                        f"K=2 colours and N={N} nodes exceed the oracle cap")
    assert len(proc.stderr) < 250, proc.stderr


@pytest.mark.parametrize("sub, field, value, artifact", [
    ("meanfield", "horizon", 1e300, "flow.csv"),
    ("meanfield", "dt", 1e-300, "flow.csv"),
    ("picard", "horizon", 1e300, "flow_picard.csv"),
    ("chaos", "horizon", 1e300, "convergence.csv"),
    ("ldp-cost", "dt", 1e-300, "cost.csv"),
    ("chaos", "replicas", 2 ** 62, "convergence.csv"),
    ("chaos", "replicas", 2 ** 63, "convergence.csv"),
    ("multichaos", "replicas", 2 ** 62, "multichaos.csv"),
    ("multichaos", "replicas", 2 ** 63, "multichaos.csv"),
    ("oracle-check", "replicas", 2 ** 62, "oracle_check.csv"),
    ("oracle-check", "replicas", 2 ** 63, "oracle_check.csv"),
    ("chaos", "grid", 2 ** 61, "convergence.csv"),
    ("chaos", "grid", 2 ** 63, "convergence.csv"),
    ("simulate", "grid", 2 ** 61, "trajectory.csv"),
    ("simulate", "grid", 2 ** 63, "trajectory.csv"),
    # --grid is no flag any more: refused before the scenario is read
    ("chaos", "--grid", 2 ** 63, "convergence.csv"),
    ("simulate", "--grid", 2 ** 63, "trajectory.csv"),
    ("validate", "n_list", [10, 2 ** 62], "convergence.csv"),
    ("chaos", "n_list", [10, 2 ** 62], "convergence.csv"),
    ("multichaos", "n_list", [10, 2 ** 62], "multichaos.csv"),
    ("simulate", "graph", {"complete_blocks": [[2 ** 62, 3], [2, 3]]},
     "trajectory.csv"),
    # one farm runs both N: each N's grid counts fit one array, the
    # stacked ones do not, and neither do multichaos's stacked starts
    ("chaos", "replicas", 5 * 10 ** 15, "convergence.csv"),
    ("multichaos", "replicas", 10 ** 17, "multichaos.csv"),
])
def test_time_grid_past_numpy_fails_closed(tmp_path, sub, field, value,
                                           artifact):
    # a step count T/dt, or a replica, grid or node count, that no numpy
    # array can hold is bad input; the counts ended in numpy's ValueError
    # or IndexError (chaos after its first N had run), and validate passed
    # the node counts
    flags = [field, str(value)] if field.startswith("--") else []
    scen = scen_path(tmp_path, SCEN if flags else {**SCEN, field: value})
    proc = run_blockmf_module([sub, "--scenario", scen,
                               "--out", str(tmp_path / "out"), *flags],
                              preexec_fn=_cap_address_space)
    needle = {"horizon": "grid steps", "dt": "grid steps",
              "graph": "graph node count"}.get(field, field.lstrip("-"))
    assert_fails_closed(proc, tmp_path / "out" / artifact, needle)


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
    (_with_line_8("0,1.0,p,0,0.5"), "flow line 8"),
    (_with_line_8("0,1,p,1e0,0.5"), "flow line 8"),
    (_with_line_8("0,1,p,0,0.5,"), "flow line 8"),
    (_with_line_8('0,1,"p",0,0.5'), "flow line 8"),
    (_with_line_8("0,1,ccc,0,0.5"), "flow line 8"),
    (_with_line_8(",,,,"), "flow line 8"),
    (_with_line_8("0,1,p\0,0,0.5"), "flow line 8"),
    # forms Python's int and float read but numpy's parser refuses
    (_with_line_8("0,1,p,0,1_0"), "flow line 8"),
    (_with_line_8("0,1,p,0,1_0.5"), "flow line 8"),
    (_with_line_8("0,\u0661,p,0,0.5"), "flow line 8"),
    # 2 * block + 1 wrapped in int64, and the row read as a repeat
    (_with_line_8(f"0,{2 ** 62},p,0,0.5"), "flow line 8: expected"),
], ids=["class-x", "block-negative", "mass-not-numeric", "four-fields",
        "mass-nan", "class-pp", "comment-line", "duplicate-cell",
        "missing-cell", "three-colors", "one-block", "block-float",
        "color-exponent", "trailing-comma", "class-quoted", "class-ccc",
        "empty-fields", "class-nul", "underscore-int", "underscore-float",
        "non-ascii-digit", "block-past-2-62"])
def test_malformed_flow_csv_fails_closed(tmp_path, lines, needle):
    (tmp_path / "flow.csv").write_text("\n".join(lines) + "\n")
    scen = scen_path(tmp_path, {**SCEN, "flow_csv": "flow.csv"})
    proc = run_blockmf_module(["ldp-cost", "--scenario", scen,
                               "--out", str(tmp_path / "out")])
    assert_fails_closed(proc, tmp_path / "out" / "cost.csv", needle)


def test_carriage_return_inside_a_row_fails():
    # a stream that does not translate newlines can hold a CR before a
    # row's end; in a file opened as text it would end the line there
    with pytest.raises(InvalidArgumentError, match="flow line 8:"):
        _read_flow(_with_line_8("0,1,p,0,0.5\r\t"))


@pytest.mark.parametrize("field, value, needle", [
    ("horizon", 10 ** 400, "horizon must be a number"),
    ("seed", [0] * 10000, "seed must be an integer"),
    ("rates", {**SCEN["rates"], "gamma": ["x" * 10000, 1.0]},
     "gamma must be numbers"),
    ("flow_csv", "row.csv", "flow line 8"),
    ("flow_csv", "header.csv", "unexpected flow header"),
    ("schema", "x" * 100_000, "scenario schema must be"),
    ("x" * 100_000, 1, "unknown field(s) in scenario"),
    ("graph", {**_INLINE, "x" * 100_000: 1}, "unknown graph fields"),
    # an integer of 4,001 digits below a bound, each value once
    ("replicas", -10 ** 4000, "replicas must be >= 1"),
    ("seed", -10 ** 4000, "seed must be >= 0"),
    ("grid", -10 ** 4000, "grid must be >= 2"),
    ("n_list", [-10 ** 4000], "n_list must be >= 2"),
    ("graph", {"complete_blocks": [[-10 ** 4000, 3], [2, 3]]},
     "every block needs"),
    ("graph", {**_INLINE, "peripheral_edges":
               [[1, -10 ** 4000]] + _PERIPHERAL_PAIRS[1:]}, "out of range"),
    ("rates", _with_tables(edges=[[0, 1], [-10 ** 4000, 0]])["rates"],
     "outside 0..1"),
    ("rates", {**SCEN["rates"], "r": -10 ** 4000}, "r must be >= 1"),
    # a list of them, each item cut to 80 characters, 527 in all
    ("seed", [-10 ** 4000] * 10, "seed must be an integer"),
], ids=["huge-int", "long-list", "long-string", "long-row", "long-header",
        "long-schema", "long-unknown-field", "long-unknown-graph-field",
        "replicas-below-bound", "seed-below-bound", "grid-below-bound",
        "n-list-below-bound",
        "complete-blocks-below-bound", "inline-edge-out-of-range",
        "tables-edge-out-of-range", "sis-r-below-bound", "list-of-huge-ints"])
def test_refused_value_is_quoted_short(tmp_path, field, value, needle):
    # the error line quotes a long refused value cut to a few dozen
    # characters, not whole
    (tmp_path / "row.csv").write_text(
        "\n".join(_with_line_8("0,1,p,0," + "9" * 10 ** 5)) + "\n")
    (tmp_path / "header.csv").write_text("t,block" + "x" * 10 ** 5 + "\n")
    scen = scen_path(tmp_path, {**SCEN, field: value})
    proc = run_blockmf_module(["validate", "--scenario", scen,
                               "--out", str(tmp_path / "out")])
    assert_fails_closed(proc, tmp_path / "out" / "cost.csv", needle)
    assert len(proc.stderr) < 250, proc.stderr


@pytest.mark.parametrize("content, needle", [
    (b'{"schema": "blockmf/1", "seed": \xff}', "not UTF-8 text"),
    (b'{"schema": "blockmf/1", "seed": ' + b"9" * 5000 + b"}",
     "too long an integer"),
    (b'{"seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "too deeply"),
    (None, "cannot read scenario"),
], ids=["not-utf8", "int-past-str-limit", "deep-nesting", "directory"])
def test_unreadable_scenario_fails_closed(tmp_path, content, needle):
    # each ended in a traceback: UnicodeDecodeError, ValueError,
    # RecursionError and IsADirectoryError
    path = tmp_path / "scen.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    proc = run_blockmf_module(["validate", "--scenario", str(path),
                               "--out", str(tmp_path / "out")])
    assert_fails_closed(proc, tmp_path / "out" / "cost.csv", needle)
    assert len(proc.stderr) < 250, proc.stderr


@pytest.mark.parametrize("field, value, sub, artifact, needle", [
    # the Picard stopping rule is meanfield's constants, not a field: a
    # scenario that names either is refused as naming an unknown field
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


def _mutated(path, value, base=FUZZ_SCEN):
    scen = copy.deepcopy(base)
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


# SCEN on a regular design with targets written out (the design's, but
# for p_c 1/3), without n_list, and a queue variant: together they hold
# a numeric leaf of every kind the rates, targets, init and
# graph.regular sections read
LEAF_SCEN = {
    **{k: v for k, v in SCEN.items() if k != "n_list"},
    "graph": {"regular": {"blocks": [[2, 4], [2, 4]], "fractions": 0.5}},
    "targets": {"p_c": [0.25, 0.25], "alpha_c": [0.25, 0.25],
                "q": [[0.5, 0.25], [0.25, 0.5]], "alpha": [0.5, 0.5]},
}
QUEUE_LEAF_SCEN = {**LEAF_SCEN, "rates": {
    "model": "queue", "colors": 2, "zeta": [1.0, 0.5], "vartheta": 0.5,
    "c0": 0.3}}
LEAF_SECTIONS = ("rates", "targets", "init", "graph")


def _numeric_leaves():
    """(scenario name, path, value) of each number in LEAF_SECTIONS."""
    for name, scen in (("sis", LEAF_SCEN), ("queue", QUEUE_LEAF_SCEN)):
        for path in _paths({k: scen[k] for k in LEAF_SECTIONS}):
            if name == "queue" and path[0] != "rates":
                continue
            value = scen
            for key in path:
                value = value[key]
            if type(value) in (int, float):
                yield name, path, value


LEAVES = list(_numeric_leaves())


def run_main(scenario, sub, tmp_path):
    """`main` on one subcommand, writing to tmp_path/out: (exit code,
    stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([sub, "--scenario", scenario,
                     "--out", str(tmp_path / "out")])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, path, value", LEAVES, ids=[
    f"{name}-{'.'.join(map(str, path))}" for name, path, _ in LEAVES])
def test_numeric_leaf_that_is_not_a_number_fails_closed(tmp_path, name,
                                                         path, value):
    # each case ran as the number float() made of it: true as 1, "0.5"
    # as 0.5; the fuzz test accepts a run, so it let them through
    scen = {"sis": LEAF_SCEN, "queue": QUEUE_LEAF_SCEN}[name]
    for sub in ("validate", "meanfield", "simulate"):
        code, _, _ = run_main(scen_path(tmp_path, scen), sub, tmp_path)
        assert code == 0, (sub, path)
    shutil.rmtree(tmp_path / "out")
    for bad in (True, str(value)):
        sp = scen_path(tmp_path, _mutated(path, bad, scen))
        for sub in ("validate", "meanfield", "simulate"):
            code, out, err = run_main(sp, sub, tmp_path)
            lines = err.splitlines()
            assert code == 1 and out == "", (sub, path, bad, out)
            assert len(lines) == 1 and lines[0].startswith("error: "), \
                (sub, path, bad, err)
            assert not (tmp_path / "out").exists()


# Item alphabet of the property gate below: a deleted key, the JSON
# scalars that are no valid number, counts past what numpy can shape, an
# integer of 4,001 digits, and containers where a scalar belongs
GATE_VALUES = [DELETE, None, True, "x", "x" * 300, math.nan, math.inf, 1e308,
               2 ** 62, -2 ** 62, 2 ** 63, -2 ** 63, -10 ** 4000, [],
               [[0.5, 0.5]], {}]
GATE_FLOW_FILES = {
    "scen.json": json.dumps({**SCEN, "flow_csv": "flow.csv"}).encode(),
    "flow.csv": ("\n".join(_flow_lines()) + "\n").encode(),
}
GATE_CASES = st.one_of(
    # the limit subcommands read every section
    st.tuples(st.just(("validate", "meanfield")),
              st.sampled_from(list(_paths(SCEN))),
              st.sampled_from(GATE_VALUES)),
    # the particle subcommands, on the counts that size their arrays
    st.tuples(st.just(("chaos", "multichaos", "oracle-check", "simulate")),
              st.sampled_from([("replicas",), ("grid",)]),
              st.sampled_from(GATE_VALUES)),
    # ldp-cost on raw bytes of its scenario and of its flow_csv
    st.tuples(st.just(("ldp-cost",)), st.sampled_from(sorted(GATE_FLOW_FILES)),
              st.lists(st.tuples(st.integers(0, 10 ** 4),
                                 st.integers(0, 255)),
                       min_size=1, max_size=3)),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=GATE_CASES)
def test_mutated_input_runs_or_fails_closed(tmp_path_factory, case):
    # the fail-closed contract: exit 0 with nothing on stderr, or exit 1
    # (2 for a numerical failure) with one short `error:` (`numerical
    # error:`) line; no exception and no warning escapes
    subs, where, change = case
    tmp = tmp_path_factory.mktemp("gate")
    if subs == ("ldp-cost",):
        for name, content in GATE_FLOW_FILES.items():
            data = bytearray(content)
            if name == where:
                for pos, byte in change:
                    data[pos % len(data)] = byte
            (tmp / name).write_bytes(bytes(data))
        sp = str(tmp / "scen.json")
    else:
        sp = scen_path(tmp, _mutated(where, change, SCEN))
    for sub in subs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_main(sp, sub, tmp)
        assert not caught, (sub, [str(w.message) for w in caught])
        if code == 0:
            assert err == "", (sub, err)
            continue
        prefix = {1: "error: ", 2: "numerical error: "}[code]
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), (sub, err)
        assert len(lines[0]) < 300, (sub, err)
