"""The package's public names: each resolves to the object its defining
module holds, whatever was imported first, and `import *` and `dir`
cover `__all__`.

`simulate` is both a public function and a submodule. Loading a
submodule for the first time binds it as an attribute of its package,
so these checks also run in fresh interpreters after the imports that
load `blockmf.simulate`.
"""

import json
import sys
import types

import blockmf as bm
from conftest import run_python

# public names that carry no __module__ of their own
CONSTANTS = {"CENTRAL": "graph", "PERIPHERAL": "graph"}

TINY = {
    "schema": "blockmf/1",
    "seed": 7,
    "graph": {"complete_blocks": [[1, 2]]},
    "rates": {"model": "sis", "gamma": 1.2, "nu": 0.5, "eta": 0.8,
              "zeta": 0.6},
    "targets": "from_graph",
    "init": {"c": [[0.7, 0.3]], "p": [[0.6, 0.4]]},
    "horizon": 0.5,
    "grid": 5,
    "replicas": 20,
}


def defining_module(name, obj):
    if name in CONSTANTS:
        return sys.modules[f"blockmf.{CONSTANTS[name]}"]
    return sys.modules[obj.__module__]


def test_every_public_name_is_the_defining_modules_object():
    for name in bm.__all__:
        obj = getattr(bm, name)
        assert not isinstance(obj, types.ModuleType), name
        assert getattr(defining_module(name, obj), name) is obj, name


def test_star_import_and_dir_cover_all():
    assert len(set(bm.__all__)) == len(bm.__all__)
    namespace = {}
    exec("from blockmf import *", namespace)
    assert set(bm.__all__) <= set(namespace)
    assert set(bm.__all__) <= set(dir(bm))


def check_simulate_is_the_function(prelude):
    code = prelude + (
        "\nimport sys, blockmf\n"
        "fn = blockmf.simulate\n"
        "assert callable(fn), type(fn)\n"
        "assert fn is sys.modules['blockmf.simulate'].simulate\n"
        "assert 'simulate' in blockmf.__all__\n"
    )
    proc = run_python(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_simulate_stays_the_function_after_the_submodule_import():
    check_simulate_is_the_function("import blockmf.simulate")


def test_simulate_stays_the_function_after_cli_runs(tmp_path):
    scen = tmp_path / "tiny.json"
    scen.write_text(json.dumps(TINY))
    prelude = (
        "from blockmf.cli import main\n"
        "for cmd in ('oracle-check', 'simulate'):\n"
        f"    assert main([cmd, '--scenario', {str(scen)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}]) == 0\n"
    )
    check_simulate_is_the_function(prelude)


# the limit objects only: a queue's flow, fixed point and cost
LIMIT = {
    "schema": "blockmf/1",
    "rates": {"model": "queue", "colors": 3, "zeta": [1.0, 0.8, 0.6],
              "vartheta": [0.0, 1.0, 1.2], "c0": 0.3},
    "targets": {"p_c": [0.4], "alpha_c": [0.3], "q": [[0.7]],
                "alpha": [1.0]},
    "init": {"c": [[0.5, 0.3, 0.2]], "p": [[0.6, 0.3, 0.1]]},
    "horizon": 1.0,
    "dt": 0.05,
}

FOOTPRINT = """
import json, sys
from blockmf.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps([m for m in sys.modules
                  if m.split(".")[0] in ("blockmf", "scipy")
                  or m == "numpy.random"]))
"""


def loaded_after(*argvs):
    """The blockmf, scipy and numpy.random modules loaded in a fresh
    interpreter that imports the CLI and runs each argv in turn."""
    proc = run_python(["-c", FOOTPRINT, json.dumps(argvs)], timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_engine_and_no_numpy_random():
    loaded = loaded_after()
    assert "blockmf.cli" in loaded
    assert not loaded & {"blockmf.experiments", "blockmf.oracle",
                         "blockmf.ldp", "blockmf.meanfield",
                         "blockmf.metrics", "numpy.random"}


def test_limit_subcommands_load_no_particle_engine(tmp_path):
    scen = tmp_path / "limit.json"
    scen.write_text(json.dumps(LIMIT))
    for cmd in ("meanfield", "picard", "ldp-cost", "validate"):
        loaded = loaded_after([cmd, "--scenario", str(scen),
                               "--out", str(tmp_path)])
        assert not loaded & {"blockmf.experiments", "blockmf.oracle",
                             "blockmf.metrics", "numpy.random"}, cmd


def test_simulate_loads_no_experiment_or_limit_code(tmp_path):
    # the node-level run seeds its colours in `blockmf.simulate` itself
    scen = tmp_path / "tiny.json"
    scen.write_text(json.dumps(TINY))
    loaded = loaded_after(["simulate", "--scenario", str(scen),
                           "--out", str(tmp_path)])
    assert "blockmf.simulate" in loaded
    assert not loaded & {"blockmf.experiments", "blockmf.meanfield",
                         "blockmf.metrics", "blockmf.oracle", "blockmf.ldp"}


def test_no_subcommand_loads_scipy(tmp_path):
    # only the tests call scipy (their statistics and the CSR reference
    # oracle), so no subcommand needs it installed or pays for its import
    from blockmf.cli import _COMMANDS

    scen = tmp_path / "particles.json"
    scen.write_text(json.dumps({**TINY, "dt": 0.05, "n_list": [3, 6]}))
    argvs = [[cmd, "--scenario", str(scen), "--out", str(tmp_path / cmd)]
             for cmd in _COMMANDS]
    loaded = loaded_after(*argvs)
    assert "blockmf.oracle" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
