"""Checks on the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import conestab

SRC = Path(conestab.__file__).parent


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
