"""Checks on the package source itself."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import conestab

SRC = Path(conestab.__file__).parent
ROOT = SRC.parent.parent


def test_no_assert_statements():
    """python -O strips assert statements, so no check in the package may be one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# Breaks each certificate on purpose, under python -O, and runs the CLI
# command that checks it; both crashes must still exit with code 4.
_BROKEN_CERTIFICATES = """
import sys
from conestab import cli, cones, graded

flag, relation = sys.argv[1:]
cones.perp = lambda v: (0, 0)  # every separator becomes (0, 0)
print(cli.main(["hilbert", flag]))
cones.perp = lambda v: (-v[1], v[0])
graded.positive_relation = lambda vectors: {2: 1}  # z_3 alone, of weight (0, 1)
print(cli.main(["hilbert", relation, "--no-constraint"]))
"""


def test_self_checks_survive_optimize(tmp_path):
    flag = tmp_path / "flag.json"
    flag.write_text(json.dumps({"A": [[1, 0]] * 3, "B": [[0, 1]] * 3, "C": [1, 1]}))
    relation = tmp_path / "relation.json"
    relation.write_text(json.dumps(
        {"A": [[1, 0], [-1, 0], [0, 1]], "B": [[0, 1]] * 3, "C": [1, 1]}
    ))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_CERTIFICATES, str(flag), str(relation)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        timeout=60,
    )
    assert proc.stdout.split() == ["4", "4"], proc.stderr
    assert proc.stderr.splitlines() == [
        "crash: AssertionError: strictly_separates: the separator fails on an input",
        "crash: AssertionError: find_invariant_monomial: the witness is not a nonconstant"
        " invariant monomial",
    ]


# The modules that may use floating point; every other module is exact.
_FLOAT_MODULES = {"cli.py", "moment.py", "svg.py"}


def _inexact_nodes(tree: ast.AST):
    """(line, what) of every inexact construct in tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round", "complex")):
            yield node.lineno, f"{node.func.id}()"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math"):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name != "gcd":
                    yield node.lineno, f"from math import {alias.name}"


def test_exact_modules_stay_exact():
    """Every module outside _FLOAT_MODULES uses integers only: no true
    division, float or complex literal, float(), round() or complex() call,
    math.* attribute, or import from math but gcd.  A new module is exact
    unless it is named there."""
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in _FLOAT_MODULES
        for line, what in _inexact_nodes(ast.parse(path.read_text(encoding="utf-8"), path.name))
    ]
    assert found == []


def _bench_tracing_tables():
    """FUNCTIONS and METHODS of bench/tracing.py, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and node.targets[0].id in ("FUNCTIONS", "METHODS")
    }


def test_traced_names_resolve():
    """The benchmark traces these names; a rename or deletion in the
    package must fail here, not only in the benchmark's self-test."""
    tables = _bench_tracing_tables()
    assert tables["FUNCTIONS"] and tables["METHODS"]
    missing = [
        f"{module}.{name}"
        for module, name in tables["FUNCTIONS"]
        if not callable(getattr(importlib.import_module(f"conestab.{module}"), name, None))
    ]
    for module, cls_name, method, _ in tables["METHODS"]:
        cls = getattr(importlib.import_module(f"conestab.{module}"), cls_name, None)
        if not isinstance(cls, type) or method not in vars(cls):
            missing.append(f"{module}.{cls_name}.{method}")
    assert missing == []
