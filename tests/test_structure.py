"""The rate map has one compiler and one independent cross-check, and
the count chain has one event loop.

`rates.affine_rows` compiles the affine rate map for the simulator, the
count farms and the mean-field solvers. `rates.total_rate` evaluates the
same rates from their definition for the product-space oracle only, so
that the oracle shares no rate code with what it checks. Every jump time
of the particle system is drawn in `simulate._count_farm`, every list
of initial laws is checked in `rates.initial_laws`, and every number
the package is given in `rates`: an integer in `_integer`, one real in
`_real`, an array of reals in `_reals`. These tests read the package's
syntax trees and fail when any of these spreads further.

The farm runs every design of one structure in one loop, so it has two
callers: `simulate` and the experiments' one runner
(`experiments._run_farms`), which alone groups the designs and draws
their starts; none of them loops the farm over N.

A tagged node's law is read off the group counts by one helper,
`experiments.tagged_law`, for `multichaos_test` and `oracle-check`; no
second chain splits tagged nodes out of their groups. A tagged request
is resolved before a run by `multichaos_test` alone, and checked by
`validate`; the CLI keeps no pass of its own.

Which group a node is in is recorded once, in `BlockGraph.group`, which
only `graph.py` builds: no per-class member tuples, per-node twin index
or per-group member lists stand beside it.

JSON is read by one function, `scenario.load_scenario`, and files are
opened only by it, by the CLI's flow reader and by its artifact writer:
a scenario names no graph or rates file, so no second reader skips the
loader's checks.

A result type holds only what it measures: a value its arrays already
hold (a block count, a replica count, a mean) is a property, not a
field, so it cannot disagree with them.

The CLI imports at module level only what every subcommand needs, so
that a call loads only its own engine; these tests also keep the engine
imports inside the subcommands. numpy is the package's one dependency:
no module imports scipy, which only the tests call.
"""

import ast
import dataclasses
from pathlib import Path

import blockmf as bm
from blockmf.simulate import GroupTables

SRC = Path(bm.__file__).resolve().parent


def modules_referencing(name):
    """File names of the package modules that mention `name` as an
    identifier, an attribute, an imported name or an exact string (an
    `__all__` entry or a getattr key); docstrings and comments do not
    count."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.alias) and node.name == name
                    or isinstance(node, ast.FunctionDef) and node.name == name
                    or isinstance(node, ast.Constant) and node.value == name):
                found.add(path.name)
    return found


def test_total_rate_serves_only_the_oracle():
    assert modules_referencing("total_rate") == {"rates.py", "oracle.py"}


def test_affine_rows_is_the_one_compiler():
    assert modules_referencing("affine_rows") == {
        "rates.py", "simulate.py", "meanfield.py"}


def functions_calling(name):
    """(file name, function name) of every call of `name`, a function or a
    method, by the innermost function around the call ("" at module
    level)."""
    found = set()

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if isinstance(child, ast.Call) and (
                    isinstance(child.func, ast.Attribute)
                    and child.func.attr == name
                    or isinstance(child.func, ast.Name)
                    and child.func.id == name):
                found.add((path.name, function))
            visit(child, path, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return found


def test_count_farm_is_the_one_event_loop():
    assert functions_calling("standard_exponential") == {
        ("simulate.py", "_count_farm")}


def test_count_farm_runs_from_two_callers():
    # one farm for every design of a run: simulate's one replica, and the
    # runner of the chaos grid and of the final counts of multichaos and
    # oracle-check; no caller loops the farm over N
    assert functions_calling("_count_farm") == {
        ("simulate.py", "simulate"), ("experiments.py", "_run_farms")}
    for helper in ("_start_counts", "_by_structure"):
        assert functions_calling(helper) == {
            ("experiments.py", "_run_farms")}, helper


def test_tagged_laws_come_from_group_counts():
    assert functions_calling("tagged_law") == {
        ("experiments.py", "multichaos_test"), ("cli.py", "cmd_oracle_check")}
    assert modules_referencing("tagged_law") == {"experiments.py", "cli.py"}
    for gone in ("tagged_colors", "_unsplit_group"):
        assert modules_referencing(gone) == set(), gone


def test_tagged_requests_resolve_in_one_pass():
    # one pass before the run, which names the refusing N itself, and
    # tagged_law's entry check; validate checks the request on every N
    assert functions_calling("resolve_tagged") == {
        ("experiments.py", "multichaos_test"),
        ("experiments.py", "tagged_law"), ("cli.py", "cmd_validate")}
    assert modules_referencing("_resolve_tagged_for_every_n") == set()


def modules_storing(attr):
    """File names of the package modules that assign the attribute
    `attr` of some object."""
    return {path.name for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Store)}


def test_the_graph_alone_records_the_groups():
    # the graph stores the quotient once, indexed by group: its map, sizes
    # and closed neighbourhoods; the tables read the graph's sizes
    assert modules_storing("group") == {"graph.py"}
    for gone in ("_twin_of", "twin_classes", "members", "meta", "twin_links",
                 "_cross", "is_complete_peripheral", "_twin", "block_size"):
        assert modules_referencing(gone) == set(), gone
    graph = bm.build_complete_peripheral([(2, 3), (2, 3)])
    tables = GroupTables(graph, bm.sis_spec(2, 0.8, 0.5, 0.6, 0.7))
    assert not hasattr(tables, "members") and not hasattr(tables, "meta")
    assert tables.sizes is graph.sizes
    # a central group reads its block's twin classes, a class its block's
    # centrals, then the classes adjacent to it, ascending
    assert graph.links == ((0, 2), (1, 3), (0, 2, 3), (1, 2, 3))
    regular = bm.build_regular_peripheral([(1, 4), (1, 4)], 0.5)
    assert regular.sizes.tolist() == [1, 1, 2, 2, 2, 2]
    assert regular.links == ((0, 2, 3), (1, 4, 5), (0, 2, 3, 4),
                             (0, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5))


def test_load_scenario_is_the_one_json_reader():
    assert functions_calling("load") == {("scenario.py", "load_scenario")}
    assert functions_calling("open") == {
        ("scenario.py", "load_scenario"), ("cli.py", "_read_flow"),
        ("cli.py", "_write")}


def test_initial_laws_are_checked_in_one_place():
    # the solvers and experiments read their initial laws through
    # `rates.initial_laws`; the scenario loader, the distances and the
    # oracle (one law per node, not per component) check their own
    # measures
    assert functions_calling("validate_probability") == {
        ("rates.py", "initial_laws"), ("metrics.py", "_check_pair"),
        ("scenario.py", "build_inits"),
        ("oracle.py", "master_equation_oracle")}


def test_integer_check_is_defined_once():
    # and so are the checks of one real and of an array of reals
    for name in ("_integer", "_real", "_reals"):
        defined = [path.name for path in SRC.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)
                   and node.name == name]
        assert defined == ["rates.py"], name


def test_only_rates_tells_a_bool_from_a_number():
    # a module that tests for bools itself is reading numbers itself
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and "bool" in {n.id for n in ast.walk(node.args[1])
                                   if isinstance(n, ast.Name)}):
                found.add(path.name)
    assert found == {"rates.py"}


def cli_imports():
    """(module, at module level) of every package module `cli.py`
    imports."""
    tree = ast.parse((SRC / "cli.py").read_text())
    top = {node for node in tree.body if isinstance(node, ast.ImportFrom)}
    return {(node.module, node in top) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_cli_imports_its_engines_inside_the_subcommands():
    imports = cli_imports()
    assert {m for m, top in imports if top} == {
        "errors", "scenario", "tables"}
    assert {m for m, top in imports if not top} >= {
        "experiments", "ldp", "meanfield", "oracle", "simulate"}


def test_the_package_imports_no_scipy():
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported and "scipy" not in imported


def test_result_types_hold_no_field_their_arrays_hold():
    fields = {cls.__name__: tuple(f.name for f in dataclasses.fields(cls))
              for cls in (bm.MeanFieldFlow, bm.EmpiricalSeries,
                          bm.DeviationCost, bm.ConvergenceReport,
                          bm.StateDistribution)}
    assert fields == {
        "MeanFieldFlow": ("times", "values"),
        "StateDistribution": ("probs", "K", "n_nodes", "nonzeros", "chunks",
                              "series_terms"),
        "EmpiricalSeries": ("times", "values"),
        "DeviationCost": ("times", "integrand", "class_integrals", "weights",
                          "total", "newton_iterations", "halvings",
                          "stall_exits", "infinite"),
        "ConvergenceReport": ("n_values", "component_means", "distances"),
    }
    # perturbed rates are an array shaped like `flow_rates`, not a type
    assert modules_referencing("RateFamily") == set()
