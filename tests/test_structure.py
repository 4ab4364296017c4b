"""The rate map has one compiler and one independent cross-check.

`rates.affine_rows` compiles the affine rate map for the simulator, the
count farms and the mean-field solvers. `rates.total_rate` evaluates the
same rates from their definition for the product-space oracle only, so
that the oracle shares no rate code with what it checks. These tests read
the package's syntax trees and fail when either name spreads further.
"""

import ast
from pathlib import Path

import blockmf as bm

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
