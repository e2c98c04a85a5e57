"""Golden CLI outputs: the exit code and the sha256 of stdout, per run.

Each run of the matrix below goes through ``cli.main`` in process, and
its exit code and stdout digest must equal the entry pinned in
``tests/data/cli_golden.json``.  The matrix covers, over every config in
``demos/configs``, ``analyze`` (text, ``--nmax 3``, ``--json``, ``--json
--nmax 3``), ``hilbert`` (text, ``--json``), ``fan-svg --shade``,
``biquotient`` (text, ``--json``), each with and without ``--nmax 2``, and
``moment`` (text, ``--json``), each also with ``--no-constraint`` where the
subcommand takes it; and ``verify SUITE --trials 50 --seed 7`` (text,
``--json``) for every suite, also with ``--no-constraint --bound 3``.
Config paths are written relative to the repository root, so no digest
depends on where the checkout lives.

A change meant to keep CLI bytes must leave every digest as it is.  A
change that alters one must name each changed run, and say why, in
CHANGES.md.  To regenerate the file from the current code, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from conestab.cli import SUITE_NAMES, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def golden_argvs():
    """Every argv of the matrix, in a fixed order."""
    argvs = []
    for path in sorted((ROOT / "demos" / "configs").glob("*.json")):
        config = path.relative_to(ROOT).as_posix()
        for base in (["analyze"], ["analyze", "--json"], ["analyze", "--json", "--nmax", "3"],
                     ["hilbert", "--json"], ["fan-svg", "--shade"], ["moment", "--json"],
                     ["analyze", "--nmax", "3"], ["hilbert"], ["moment"]):
            argvs.append(base + [config])
            argvs.append(base + [config, "--no-constraint"])
        for base in (["biquotient", "--json"], ["biquotient", "--json", "--nmax", "2"],
                     ["biquotient"], ["biquotient", "--nmax", "2"]):
            argvs.append(base + [config])
    for suite in SUITE_NAMES:
        for base in (["verify", suite, "--json", "--trials", "50", "--seed", "7"],
                     ["verify", suite, "--trials", "50", "--seed", "7"]):
            argvs.append(base)
            argvs.append(base + ["--no-constraint", "--bound", "3"])
    return argvs


def run_in_process(argv):
    """(exit code, sha256 hex of stdout) of one run from the repository root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _key(argv):
    return " ".join(argv)


def test_matrix_is_pinned():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(_key(a) for a in golden_argvs())


@pytest.mark.parametrize("argv", golden_argvs(), ids=_key)
def test_cli_output_matches_golden(argv):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))[_key(argv)]
    code, digest = run_in_process(argv)
    assert {"exit": code, "stdout_sha256": digest} == pinned


if __name__ == "__main__":
    table = {}
    for argv in golden_argvs():
        code, digest = run_in_process(argv)
        table[_key(argv)] = {"exit": code, "stdout_sha256": digest}
    GOLDEN.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} runs to {GOLDEN.relative_to(ROOT)}", file=sys.stderr)
