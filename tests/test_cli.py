"""End-to-end tests for the command-line interface."""

import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conestab
from conestab import cli, cones, stability
from conestab.cli import SUITE_NAMES, build_analysis_report, canonical_json, main
from conestab.cones import Cone2
from conestab.graded import MAX_TABLE_WORK
from conestab.stability import (
    ALL_PATTERNS,
    StabilityClass,
    WeightDatum,
    flag_datum,
    r0_is_trivial,
    weights_from_biquotient,
)
from conestab.svg import fan_svg
from conestab.verify import VERIFY_SUITES

from conftest import random_test_datum

FLAG_CONFIG = {
    "A": [[1, 0], [1, 0], [1, 0]],
    "B": [[0, 1], [0, 1], [0, 1]],
    "C": [1, 1],
}


@pytest.fixture
def flag_config(tmp_path):
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(FLAG_CONFIG))
    return str(path)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# one config that analyze and biquotient both read
REPORT_CONFIG = dict(FLAG_CONFIG, wL=[[0, 0], [0, 0], [0, 0]], wR=[[-1, 0], [0, 0], [1, 0]])


def reference_json(doc):
    """The canonical form the --json writer promises."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_flag_text_report(self, capsys, flag_config):
        code, out, err = run_cli(capsys, "analyze", flag_config)
        assert code == 0
        assert "fan condition (interior form): yes" in out
        assert "fan condition (membership form): yes" in out
        assert "degree-0 invariants trivial: yes" in out
        assert "apex: yes" in out
        assert "pattern table:" in out
        assert err == ""

    def test_flag_json_report(self, capsys, flag_config):
        code, out, _ = run_cli(capsys, "analyze", flag_config, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["star"] is True
        assert doc["star_prime"] is True
        assert doc["apex"] is True
        assert doc["r0_trivial"] is True
        assert doc["hilbert"] is None
        assert len(doc["pattern_table"]) == 64
        for row in doc["pattern_table"]:
            assert set(row) == {
                "z_support",
                "w_support",
                "realizable",
                "in_M",
                "class_hm",
                "class_cone",
            }
            assert row["class_hm"] == row["class_cone"]

    def test_flag_single_support_rows_stable(self, capsys, flag_config):
        _, out, _ = run_cli(capsys, "analyze", flag_config, "--json")
        rows = json.loads(out)["pattern_table"]
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i == j:
                    continue
                row = next(
                    r
                    for r in rows
                    if r["z_support"] == [i] and r["w_support"] == [j]
                )
                assert row["class_hm"] == "stable"
                assert row["in_M"] is True

    def test_json_round_trips_byte_identically(self, capsys, flag_config):
        _, out, _ = run_cli(capsys, "analyze", flag_config, "--json")
        assert reference_json(json.loads(out)) == out

    def test_nmax_adds_hilbert(self, capsys, flag_config):
        code, out, _ = run_cli(capsys, "analyze", flag_config, "--json", "--nmax", "3")
        assert code == 0
        assert json.loads(out)["hilbert"] == [1, 8, 27, 64]

    def test_zero_character_rejected(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path, {"A": FLAG_CONFIG["A"], "B": FLAG_CONFIG["B"], "C": [0, 0]}
        )
        code, _, err = run_cli(capsys, "analyze", cfg)
        assert code == 2
        assert "nontrivial" in err

    def test_constraint_violation_rejected(self, capsys):
        cfg = str(Path(__file__).resolve().parents[1] / "demos" / "configs" / "degenerate.json")
        code, out, err = run_cli(capsys, "analyze", cfg)
        assert (code, out) == (2, "")
        assert err.startswith("error: weight sums a_i + b_i must be constant")
        assert err.endswith("; pass --no-constraint to waive\n")
        code, _, _ = run_cli(capsys, "analyze", cfg, "--no-constraint")
        assert code == 0

    def test_missing_file_and_bad_json(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "absent.json"))
        assert code == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2
        assert "JSON" in err

    def test_missing_field(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"A": FLAG_CONFIG["A"], "C": [1, 1]})
        code, _, err = run_cli(capsys, "analyze", cfg)
        assert code == 2
        assert "'B'" in err

    def test_decimal_string_integers(self, capsys, tmp_path):
        doc = {
            "A": [["1", "0"], [1, 0], [1, 0]],
            "B": [[0, 1], [0, 1], ["0", "1"]],
            "C": ["1", 1],
        }
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, "analyze", cfg, "--json")
        assert code == 0
        assert json.loads(out)["datum"]["A"] == [[1, 0], [1, 0], [1, 0]]

    def test_non_integer_rejected(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {"A": [[1.5, 0], [1, 0], [1, 0]], "B": FLAG_CONFIG["B"], "C": [1, 1]},
        )
        code, _, err = run_cli(capsys, "analyze", cfg)
        assert code == 2

    @pytest.mark.parametrize("command", ["analyze", "biquotient"])
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_out_writes_copy(self, capsys, tmp_path, command, flags):
        cfg = write_config(tmp_path, REPORT_CONFIG)
        out_path = tmp_path / "report.out"
        code, out, _ = run_cli(capsys, command, cfg, *flags, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == out

    @pytest.mark.parametrize("command", ["analyze", "biquotient"])
    @pytest.mark.parametrize(
        "flags, owner, unused",
        [(["--json"], cli, "render_report_text"), ([], cli.AnalysisReport, "as_dict")],
        ids=["json", "text"],
    )
    def test_only_the_printed_writer_runs(
        self, capsys, tmp_path, monkeypatch, command, flags, owner, unused
    ):
        cfg = write_config(tmp_path, REPORT_CONFIG)
        want = run_cli(capsys, command, cfg, *flags)

        def refuse(*args, **kwargs):
            raise RuntimeError(f"{unused} ran for output that is not printed")

        monkeypatch.setattr(owner, unused, refuse)
        assert run_cli(capsys, command, cfg, *flags) == want
        assert want[0] == 0

    def test_unwritable_out_is_io_error(self, capsys, flag_config, tmp_path):
        code, _, err = run_cli(
            capsys,
            "analyze",
            flag_config,
            "--out",
            str(tmp_path / "no" / "such" / "dir" / "x.txt"),
        )
        assert code == 3
        assert "i/o error" in err

    def test_negative_nmax_rejected(self, capsys, flag_config):
        code, _, _ = run_cli(capsys, "analyze", flag_config, "--nmax", "-1")
        assert code == 2


class TestInternalErrors:
    """analyze exits 1, printing nothing to stdout, when a cross-check of
    its report fails."""

    def test_classifier_disagreement_names_the_first_pattern(self, capsys, flag_config, monkeypatch):
        # both patterns are stable on the flag datum; z{1}w{3} comes first in
        # ALL_PATTERNS, though its mask bit is the higher one
        first, second = (p for p in ALL_PATTERNS if str(p) in ("z{1}w{3}", "z{2}w{1}"))
        assert str(first) == "z{1}w{3}" and first._mask > second._mask
        real = stability._cone_table

        def cleared(datum):
            semistable, stable = real(datum)
            return semistable, stable & ~(1 << first._mask | 1 << second._mask)

        monkeypatch.setattr(stability, "_cone_table", cleared)
        code, out, err = run_cli(capsys, "analyze", flag_config)
        assert (code, out) == (1, "")
        assert err == (
            "internal error: classifiers disagree on pattern z{1}w{3}: stable vs "
            f"strictly-semistable for {flag_datum()!r}\n"
        )

    def test_fan_form_disagreement(self, capsys, flag_config, monkeypatch):
        real = cli.fan_condition_membership
        monkeypatch.setattr(cli, "fan_condition_membership", lambda datum: not real(datum))
        code, out, err = run_cli(capsys, "analyze", flag_config)
        assert (code, out) == (1, "")
        assert err.startswith("internal error: fan condition forms disagree: interior=True "
                              "membership=False for ")


class TestVerifyCommand:
    def test_suite_names_match_registry(self):
        assert set(SUITE_NAMES) == set(VERIFY_SUITES)

    def test_main_theorem_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "main-theorem", "--seed", "3", "--trials", "50",
            "--bound", "6",
        )
        assert code == 0
        assert "PASS" in out
        assert "disagreements: 0" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "r0", "--seed", "1", "--trials", "30", "--bound", "5",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "r0"
        assert doc["passed"] is True
        assert doc["checked"] == 90
        assert reference_json(doc) == out

    def test_intcone_exhaustive_via_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "intcone", "--bound", "2", "--json"
        )
        assert code == 0
        assert json.loads(out)["details"]["exhaustive"] is True

    def test_unconstrained_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "star-equivalence", "--trials", "40", "--bound", "5",
            "--no-constraint", "--json",
        )
        assert code == 0
        assert json.loads(out)["enforce_constraint"] is False

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "bogus")
        assert code == 2


class TestFanSvgCommand:
    def test_stdout_matches_library(self, capsys, flag_config):
        code, out, _ = run_cli(capsys, "fan-svg", flag_config)
        assert code == 0
        assert out == fan_svg(flag_datum())

    def test_out_file_and_determinism(self, capsys, flag_config, tmp_path):
        p1 = tmp_path / "a.svg"
        p2 = tmp_path / "b.svg"
        assert run_cli(capsys, "fan-svg", flag_config, "--out", str(p1))[0] == 0
        assert run_cli(capsys, "fan-svg", flag_config, "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_shade_flag(self, capsys, flag_config):
        _, plain, _ = run_cli(capsys, "fan-svg", flag_config)
        _, shaded, _ = run_cli(capsys, "fan-svg", flag_config, "--shade")
        assert "<path " not in plain
        assert "<path " in shaded

    def test_unwritable_out(self, capsys, flag_config, tmp_path):
        code, _, err = run_cli(
            capsys, "fan-svg", flag_config, "--out", str(tmp_path / "nope" / "x.svg")
        )
        assert code == 3

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        code, _, _ = run_cli(capsys, "fan-svg", str(bad))
        assert code == 2


class TestHilbertCommand:
    def test_flag_table(self, capsys, flag_config):
        code, out, _ = run_cli(capsys, "hilbert", flag_config, "--nmax", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["n", "dim"]
        assert [ln.split() for ln in lines[1:]] == [
            ["0", "1"],
            ["1", "8"],
            ["2", "27"],
            ["3", "64"],
        ]

    def test_nmax_zero(self, capsys, flag_config):
        code, out, _ = run_cli(capsys, "hilbert", flag_config, "--nmax", "0")
        assert code == 0
        assert out.strip().splitlines()[1:] == ["   0  1"]

    def test_json(self, capsys, flag_config):
        code, out, _ = run_cli(capsys, "hilbert", flag_config, "--nmax", "4", "--json")
        assert code == 0
        assert json.loads(out) == {"nmax": 4, "dims": [1, 8, 27, 64, 125]}

    def test_nontrivial_invariants_exit_2_with_witness(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "A": [[0, 0], [1, 0], [1, 0]],
                "B": [[1, 1], [0, 1], [0, 1]],
                "C": [1, 1],
            },
        )
        code, _, err = run_cli(capsys, "hilbert", cfg)
        assert code == 2
        assert "witness z1" in err

    @pytest.mark.parametrize("scale", [10, 100])
    def test_scaled_flag_table(self, capsys, tmp_path, scale):
        # the scaled weights span a sparser lattice, so the work is bounded
        # as for the flag itself
        s = scale
        cfg = write_config(
            tmp_path, {"A": [[s, 0]] * 3, "B": [[0, s]] * 3, "C": [s, s]}
        )
        code, out, _ = run_cli(capsys, "hilbert", cfg, "--json")
        assert code == 0
        assert json.loads(out) == {"nmax": 6, "dims": [(n + 1) ** 3 for n in range(7)]}
        code, out, _ = run_cli(capsys, "hilbert", cfg, "--nmax", "40", "--json")
        assert code == 0
        assert json.loads(out)["dims"] == [(n + 1) ** 3 for n in range(41)]

    @pytest.mark.parametrize("command", ["hilbert", "analyze"])
    def test_work_past_cap_exits_2_naming_the_bound(self, capsys, flag_config, command):
        for nmax in (300, 10**30):
            code, out, err = run_cli(capsys, command, flag_config, "--nmax", str(nmax))
            assert (code, out) == (2, "")
            assert err == (
                f"error: this Hilbert table needs more than MAX_TABLE_WORK = {MAX_TABLE_WORK:,} "
                "DP states and walk-back steps\n"
            )


class TestBiquotientCommand:
    def test_known_example(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {"wL": [[0, 0], [0, 0], [0, 0]], "wR": [[-1, 0], [0, 0], [1, 0]]},
        )
        code, out, _ = run_cli(capsys, "biquotient", cfg)
        assert code == 0
        assert "fan condition for the derived weights: no" in out
        assert "A1 = (1, 0)" in out
        assert "C  = (2, 0)" in out

    def test_json_payload(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {"wL": [[0, 0], [0, 0], [0, 0]], "wR": [[-1, 0], [0, 0], [1, 0]]},
        )
        code, out, _ = run_cli(capsys, "biquotient", cfg, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["star"] is False
        assert doc["biquotient"]["star_hypothesis"] is False
        assert doc["datum"]["C"] == [2, 0]
        assert reference_json(doc) == out

    def test_equal_right_weights_rejected(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {"wL": [[1, 2], [3, 4], [5, 6]], "wR": [[1, 1], [0, 0], [1, 1]]},
        )
        code, _, err = run_cli(capsys, "biquotient", cfg)
        assert code == 2
        assert "nontrivial" in err

    def test_missing_biquotient_fields(self, capsys, flag_config):
        code, _, err = run_cli(capsys, "biquotient", flag_config)
        assert code == 2
        assert "wL" in err


class TestMomentCommand:
    def test_flag_point(self, capsys, tmp_path):
        doc = dict(FLAG_CONFIG)
        doc["z"] = [[1, 0], [0, 0], [0, 0]]
        doc["w"] = [[0, 0], [1, 0], [0, 0]]
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, "moment", cfg, "--json")
        assert code == 0
        assert json.loads(out) == {"phi": [1.0, 1.0], "residual": 0.0}

    def test_text_output(self, capsys, tmp_path):
        doc = dict(FLAG_CONFIG)
        doc["z"] = [[1, 0], [0, 0], [0, 0]]
        doc["w"] = [[1, 0], [0, 0], [0, 0]]
        cfg = write_config(tmp_path, doc)
        code, out, _ = run_cli(capsys, "moment", cfg)
        assert code == 0
        assert "residual = 1.0" in out

    def test_missing_point(self, capsys, flag_config):
        code, _, err = run_cli(capsys, "moment", flag_config)
        assert code == 2
        assert "'z'" in err

    def test_numbers_strings_and_pairs_are_one_point(self, capsys, tmp_path):
        outs = set()
        for z in ([[2, 0], [0, 1.5], [0, 0]], [2, [0, 1.5], 0], ["2", ["0", "1.5"], "0"]):
            cfg = write_config(tmp_path, dict(FLAG_CONFIG, z=z, w=[0, [1, 0], 0.5]))
            code, out, _ = run_cli(capsys, "moment", cfg, "--json")
            assert code == 0
            outs.add(out)
        assert [json.loads(out) for out in outs] == [{"phi": [6.25, 1.25], "residual": 1.5}]

    @pytest.mark.parametrize(
        "z, message",
        [
            ("abc", "z: expected three coordinates, each a number or an [re, im] pair"),
            ([1, 0], "z: expected three coordinates, each a number or an [re, im] pair"),
            ([[1, 2, 3], 0, 0], "z[0]: expected a number or an [re, im] pair"),
            ([0, None, 0], "z[1]: entries must be finite numbers"),
        ],
        ids=["string", "two-coordinates", "triple-entry", "null-entry"],
    )
    def test_malformed_point_is_named(self, capsys, tmp_path, z, message):
        cfg = write_config(tmp_path, dict(FLAG_CONFIG, z=z, w=[0, 0, 0]))
        assert run_cli(capsys, "moment", cfg) == (2, "", f"error: {message}\n")


FLAG_MOMENT_TEXT = (
    '{"A": [[1, 0], [1, 0], [1, 0]], "B": [[0, 1], [0, 1], [0, 1]], "C": [1, 1], '
    '"z": [[%s, 0], [0, 0], [0, 0]], "w": [[0, 0], [1, 0], [0, 0]]}'
)

BEYOND_DOUBLE = "1" + "0" * 400


def moment_config_bytes(z0, a="1", w0=0):
    doc = {
        "A": [[a, 0], [a, 0], [a, 0]],
        "B": [[0, 1], [0, 1], [0, 1]],
        "C": [1, 1],
        "z": [[z0, 0], [0, 0], [0, 0]],
        "w": [[w0, 0], [1, 0], [0, 0]],
    }
    return json.dumps(doc).encode()


def huge_weight_config_bytes(a1):
    """A constrained datum whose first z-weight is a1 (every a_i + b_i is 0)."""
    doc = {
        "A": [a1, [1, 0], [0, 1]],
        "B": [[f"-{a1[0]}", -a1[1]], [-1, 0], [0, -1]],
        "C": [1, 1],
    }
    return json.dumps(doc).encode()


DIGITS_4301 = "1" + "0" * 4300
NINES_4300 = "9" * 4300  # within the 4,300-digit limit; twice it is not
# biquotient derives A1 = wL1 - wR1 = 2 * NINES_4300, one digit too long to print
DERIVED_PAST_DIGIT_LIMIT = {
    "wL": [[NINES_4300, 0], [0, 0], [0, 0]],
    "wR": [["-" + NINES_4300, 0], [0, 0], [1, 1]],
}
# A1 + B1 is one digit too long to print, and differs from A2 + B2 and A3 + B3
SUMS_PAST_DIGIT_LIMIT = {
    "A": [[NINES_4300, 0], [0, 0], [0, 0]],
    "B": [[NINES_4300, 0], [0, 1], [0, 0]],
    "C": [1, 1],
}
# strictly_separates gives f = (1, 10^400) here, so the DP's triangle holds
# about 2 * 10^400 points.
HUGE_A1_TABLE = {
    "A": [[10**400, 0], [1, 0], [1, 0]],
    "B": [[0, 1], [0, 1], [0, 1]],
    "C": [1, 1],
}
# X and Y are within the digit limit, but the exponents of the invariant
# monomial that positive_relation finds are not
X_DIGITS, Y_DIGITS = "7" * 4290 + "1", "3" * 4290 + "7"
WITNESS_PAST_DIGIT_LIMIT = {
    "A": [
        [X_DIGITS, str(10**4200)],
        ["-" + Y_DIGITS, str(2 * 10**4200 + 1)],
        [X_DIGITS, "-" + Y_DIGITS],
    ],
    "B": [[1, 0], [0, 1], [1, 1]],
    "C": [1, 1],
}


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(conestab.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "conestab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv, content",
        [
            (["analyze"], b'{"A": "\xff\xfe"}'),
            (["analyze"], b"[" * 100_000 + b"]" * 100_000),
            (["moment", "--json"], (FLAG_MOMENT_TEXT % "NaN").encode()),
            (["moment", "--json"], (FLAG_MOMENT_TEXT % "1e999").encode()),
            (["moment", "--json"], moment_config_bytes("nan")),
            (["moment", "--json"], moment_config_bytes("1e999")),
            (["moment", "--json"], moment_config_bytes(int(BEYOND_DOUBLE))),
            (["moment", "--json"], moment_config_bytes(1, a=BEYOND_DOUBLE)),
            (["moment", "--json"], moment_config_bytes(1e200)),
            (["moment"], moment_config_bytes(1e200)),
            (["moment", "--json"], moment_config_bytes(1e300, w0=1e300)),
            (["analyze"], (FLAG_MOMENT_TEXT % DIGITS_4301).encode()),
            (["moment", "--json"], (FLAG_MOMENT_TEXT % DIGITS_4301).encode()),
            (["fan-svg"], huge_weight_config_bytes([BEYOND_DOUBLE, 1])),
            (["fan-svg", "--shade"], huge_weight_config_bytes([BEYOND_DOUBLE, 0])),
            (["biquotient"], json.dumps(DERIVED_PAST_DIGIT_LIMIT).encode()),
            (["analyze"], json.dumps(SUMS_PAST_DIGIT_LIMIT).encode()),
            (["hilbert", "--no-constraint", "--nmax", "1"], json.dumps(HUGE_A1_TABLE).encode()),
            (["hilbert", "--no-constraint"], json.dumps(WITNESS_PAST_DIGIT_LIMIT).encode()),
            (["analyze", "--no-constraint", "--nmax", "1"], json.dumps(WITNESS_PAST_DIGIT_LIMIT).encode()),
        ],
        ids=[
            "non-utf8",
            "deeply-nested",
            "nan",
            "overflowing-float",
            "moment-nan-string",
            "moment-overflowing-string",
            "moment-integer-beyond-double",
            "moment-weight-beyond-double",
            "moment-infinite-phi",
            "moment-infinite-phi-text",
            "moment-infinite-residual",
            "analyze-4301-digit-integer",
            "moment-4301-digit-integer",
            "fan-svg-weight-beyond-double",
            "fan-svg-shade-weight-beyond-double",
            "biquotient-derived-4301-digit-weight",
            "analyze-4301-digit-weight-sum",
            "hilbert-work-past-cap",
            "hilbert-witness-past-digit-limit",
            "analyze-witness-past-digit-limit",
        ],
    )
    def test_bad_config_exits_2_without_traceback(self, tmp_path, argv, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        proc = run_module(argv[0], str(cfg), *argv[1:])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("z0, w0, name", [(True, 0, "z[0]"), (1, False, "w[0]")])
    def test_boolean_coordinate_named_by_type(self, tmp_path, capsys, z0, w0, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(moment_config_bytes(z0, w0=w0))
        code, out, err = run_cli(capsys, "moment", str(cfg), "--json")
        assert (code, out, err) == (2, "", f"error: {name}: expected a number, got a boolean\n")
        # a decimal string keeps its meaning
        cfg.write_bytes(moment_config_bytes("10"))
        code, out, _ = run_cli(capsys, "moment", str(cfg), "--json")
        assert (code, json.loads(out)["phi"]) == (0, [100.0, 1.0])

    def test_digit_limit_errors_name_the_culprit(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "biquotient", write_config(tmp_path, DERIVED_PAST_DIGIT_LIMIT)
        )
        assert code == 2 and err.startswith("error: derived A1 has more than 4300 digits")
        code, _, err = run_cli(capsys, "analyze", write_config(tmp_path, SUMS_PAST_DIGIT_LIMIT))
        assert code == 2
        assert "a_1 + b_1 differs from a_2 + b_2 and a_3 + b_3" in err
        code, _, err = run_cli(
            capsys, "hilbert", write_config(tmp_path, WITNESS_PAST_DIGIT_LIMIT), "--no-constraint"
        )
        assert code == 2 and err.startswith(
            "error: graded dimensions are infinite: degree-0 invariants are nontrivial, "
            "witness too long to print: an exponent has more than 4300 digits"
        )

    @pytest.mark.parametrize("command, field", [("analyze", "A"), ("biquotient", "wL")])
    def test_overlong_decimal_string_is_named_not_echoed(self, tmp_path, capsys, command, field):
        long = "9" * 5000
        doc = dict(
            FLAG_CONFIG, A=[[long, 0], [1, 0], [1, 0]], wL=[[long, 0], [0, 0], [0, 0]], wR=[[0, 0]] * 3
        )
        code, out, err = run_cli(capsys, command, write_config(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {field}[0]: a string of 5000 characters is not a decimal integer "
            "within the 4300-digit limit sys.get_int_max_str_digits()\n"
        )

    @pytest.mark.parametrize(
        "value, named",
        [
            ([0] * 50_000, "a list"),
            ({"x": 1}, "an object"),
            (None, "null"),
            (1.5, "a number with a fraction or exponent"),
        ],
        ids=["list", "object", "null", "float"],
    )
    def test_rejected_value_is_named_not_echoed(self, tmp_path, capsys, value, named):
        doc = dict(FLAG_CONFIG, A=[[value, 0], [1, 0], [1, 0]])
        code, out, err = run_cli(capsys, "analyze", write_config(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == f"error: A[0]: expected an integer or decimal string, got {named}\n"

    @pytest.mark.parametrize(
        "value, shown",
        [
            ("1_0", "'1_0'"),
            (" 0 ", "' 0 '"),
            ("1\n", "'1\\n'"),
            ("١", "'١'"),  # ARABIC-INDIC DIGIT ONE
            ("１", "'１'"),  # FULLWIDTH DIGIT ONE
            ("0x10", "'0x10'"),
            ("1e3", "'1e3'"),
            ("", "''"),
            ("+-1", "'+-1'"),
            ("x" * 5000, "a string of 5000 characters"),
        ],
    )
    def test_integer_strings_are_sign_and_ascii_digits(self, tmp_path, capsys, value, shown):
        doc = dict(FLAG_CONFIG, A=[[value, 0], [1, 0], [1, 0]])
        code, out, err = run_cli(capsys, "analyze", write_config(tmp_path, doc))
        assert (code, out, err) == (2, "", f"error: A[0]: {shown} is not a decimal integer\n")

    def test_signed_decimal_strings_are_integers(self, tmp_path, capsys):
        doc = dict(FLAG_CONFIG, A=[["+1", "-0"], ["01", "+0"], [1, "0000"]])
        code, out, _ = run_cli(capsys, "analyze", write_config(tmp_path, doc), "--json")
        assert (code, json.loads(out)["datum"]["A"]) == (0, FLAG_CONFIG["A"])

    @pytest.mark.parametrize("z0", [" 1_0 ", "1_0", "+1", "01", ".5", "1.", "١", "inf", "x" * 5000])
    def test_moment_strings_are_json_numbers(self, tmp_path, capsys, z0):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(moment_config_bytes(z0))
        code, out, err = run_cli(capsys, "moment", str(cfg), "--json")
        assert (code, out, err) == (2, "", "error: z[0]: a string entry must be a JSON number\n")

    @pytest.mark.parametrize("z0, phi", [("-0", 0.0), ("0.5", 0.25), ("1E1", 100.0), ("2.5e-1", 0.0625)])
    def test_moment_json_number_strings_are_read(self, tmp_path, capsys, z0, phi):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(moment_config_bytes(z0))
        code, out, _ = run_cli(capsys, "moment", str(cfg), "--json")
        assert (code, json.loads(out)["phi"]) == (0, [phi, 1.0])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["hilbert", "FLAG", "--nmax", " 1_0"], "argument --nmax: ' 1_0' is not a decimal integer"),
            (["analyze", "FLAG", "--nmax", "٣"], "argument --nmax: '٣' is not a decimal integer"),
            (["verify", "r0", "--trials", "١٠"],
             "argument --trials: '١٠' is not a decimal integer"),
            (["verify", "r0", "--bound", "1_0"], "argument --bound: '1_0' is not a decimal integer"),
            (["verify", "r0", "--seed", " 7"], "argument --seed: ' 7' is not a decimal integer"),
            (["verify", "r0", "--seed", "x" * 5000],
             "argument --seed: a string of 5000 characters is not a decimal integer"),
            (["verify", "r0", "--trials", "9" * 5000],
             "argument --trials: a string of 5000 characters is not a decimal integer within the"
             " 4300-digit limit sys.get_int_max_str_digits()"),
            (["verify", "r0", "--trials", "-" + "9" * 4000], "argument --trials: must be at least 1"),
        ],
    )
    def test_command_line_integers_are_sign_and_ascii_digits(
        self, tmp_path, capsys, argv, message
    ):
        argv = [write_config(tmp_path, FLAG_CONFIG) if a == "FLAG" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f": error: {message}\n")

    def test_signed_command_line_integers_are_read(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "r0", "--json", "--trials", "+3", "--bound", "02", "--seed", "-7"
        )
        report = json.loads(out)
        assert (code, report["trials"], report["coord_bound"], report["seed"]) == (0, 3, 2, -7)

    @pytest.mark.parametrize(
        "command, doc, missing",
        [
            ("analyze", {"A": [["x", 0], [1, 0], [1, 0]], "B": FLAG_CONFIG["B"]}, "'C'"),
            ("biquotient", {"wL": "x"}, "'wR'"),
            ("moment", dict(FLAG_CONFIG, z=[[True, 0], [0, 0], [0, 0]]), "'w'"),
        ],
    )
    def test_missing_field_is_reported_before_a_malformed_one(
        self, tmp_path, capsys, command, doc, missing
    ):
        code, _, err = run_cli(capsys, command, write_config(tmp_path, doc))
        assert code == 2
        assert err == f"error: config is missing required field {missing}\n"


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in --json output")


_NUMBER = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**53 + 1, 2**63, 10**400, -(10**400)]),
).flatmap(lambda n: st.sampled_from([n, str(n)]))
_PAIR = st.lists(_NUMBER, min_size=2, max_size=2)
_TRIPLE = st.lists(_PAIR, min_size=3, max_size=3)
_BAD = st.one_of(st.floats(), st.sampled_from([True, None, "x", [], {}, [1], [1, 2, 3]]))


@st.composite
def hostile_config_text(draw):
    """A config with every field well formed, then at most one value, at
    any depth, replaced by a bad one, so the fuzz reaches the commands."""
    doc = draw(
        st.fixed_dictionaries(
            {key: _TRIPLE for key in ("A", "B", "wL", "wR", "z", "w")} | {"C": _PAIR}
        )
    )
    key = draw(st.sampled_from([None, *doc]))
    if key is not None:
        holder, index = doc, key
        for _ in range(draw(st.integers(0, 2))):
            if not isinstance(holder[index], list):
                break
            holder, index = holder[index], draw(st.integers(0, len(holder[index]) - 1))
        holder[index] = draw(_BAD)
    return json.dumps(doc)


_PLAIN_ARGV = [
    ["analyze"],
    ["analyze", "--json"],
    ["analyze", "--no-constraint", "--json"],
    ["biquotient"],
    ["biquotient", "--json"],
    ["moment"],
    ["moment", "--json"],
    ["moment", "--no-constraint", "--json"],
    ["fan-svg", "--no-constraint"],
    ["fan-svg", "--shade", "--no-constraint"],
    ["hilbert"],
    ["hilbert", "--json"],
    ["hilbert", "--no-constraint", "--json"],
]
_NMAX_ARGV = [
    ["hilbert"],
    ["hilbert", "--no-constraint", "--json"],
    ["analyze", "--json"],
    ["analyze", "--no-constraint"],
    ["biquotient"],
    ["biquotient", "--json"],
]
# small degrees, and degrees whose table alone is past the work cap
_NMAX = st.one_of(st.integers(0, 8), st.sampled_from([MAX_TABLE_WORK, 2**63, 10**30]))
_FUZZ_ARGV = st.one_of(
    st.sampled_from(_PLAIN_ARGV),
    st.tuples(st.sampled_from(_NMAX_ARGV), _NMAX).map(
        lambda pair: [*pair[0], "--nmax", str(pair[1])]
    ),
)


class TestHostileInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "r0", "--trials", "0"],
            ["verify", "r0", "--trials", "-3"],
            ["verify", "r0", "--bound", "0"],
            ["fan-svg", "FLAG", "--json"],
            ["biquotient", "BIQUOTIENT", "--no-constraint"],
        ],
        ids=["trials-0", "trials-negative", "bound-0", "fan-svg-json", "biquotient-no-constraint"],
    )
    def test_bad_argv_exits_2_without_traceback(self, tmp_path, argv):
        paths = {
            "FLAG": write_config(tmp_path, FLAG_CONFIG, "flag.json"),
            "BIQUOTIENT": write_config(
                tmp_path,
                {"wL": [[1, 0], [1, 0], [1, 0]], "wR": [[0, 0], [0, 0], [1, 1]]},
                "biquotient.json",
            ),
        }
        proc = run_module(*(paths.get(a, a) for a in argv))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "message, line",
        [("division by zero", "division by zero"), ("first\nsecond", "first second")],
        ids=["one-line", "multi-line"],
    )
    def test_unexpected_exception_exits_4_on_one_line(
        self, monkeypatch, capsys, flag_config, message, line
    ):
        def crash(args):
            raise ZeroDivisionError(message)

        _, help_text, arguments = cli.COMMANDS["analyze"]
        monkeypatch.setitem(cli.COMMANDS, "analyze", (crash, help_text, arguments))
        code, out, err = run_cli(capsys, "analyze", flag_config)
        assert (code, out, err) == (4, "", f"crash: ZeroDivisionError: {line}\n")

    @settings(max_examples=200, deadline=None)
    @given(text=hostile_config_text(), argv=_FUZZ_ARGV)
    def test_main_maps_hostile_configs_to_0_or_2(self, text, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([argv[0], path, *argv[1:]])
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
        elif "--json" in argv:
            doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert out.getvalue() == reference_json(doc)


def _vec(bound):
    return st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))


@st.composite
def random_datum(draw):
    """Constrained or not, at bound 2 (zero, collinear and opposite weights
    are common there) or bound 20."""
    bound = draw(st.sampled_from([2, 20]))
    a = draw(st.tuples(_vec(bound), _vec(bound), _vec(bound)))
    c = draw(_vec(bound).filter(any))
    if draw(st.booleans()):
        s = draw(_vec(bound))
        return WeightDatum(a=a, b=tuple((s[0] - x, s[1] - y) for x, y in a), c=c)
    b = draw(st.tuples(_vec(bound), _vec(bound), _vec(bound)))
    return WeightDatum(a=a, b=b, c=c, constrained=False)


@st.composite
def report_payload(draw):
    """A real analyze or biquotient payload, with or without hilbert, its
    pattern table cut to a prefix of any length."""
    if draw(st.booleans()):
        w_left = draw(st.tuples(_vec(3), _vec(3), _vec(3)))
        w_right = draw(st.tuples(_vec(3), _vec(3), _vec(3)).filter(lambda w: w[0] != w[2]))
        datum = weights_from_biquotient(w_left, w_right)
    else:
        w_left = None
        datum = draw(random_datum())
    nmax = 2 if r0_is_trivial(datum) and draw(st.booleans()) else None
    report = build_analysis_report(datum, nmax=nmax)
    payload = report.as_dict()
    if w_left is not None:
        payload["biquotient"] = {
            "wL": [list(v) for v in w_left],
            "wR": [list(v) for v in w_right],
            "star_hypothesis": report.star,
        }
    payload["pattern_table"] = payload["pattern_table"][: draw(st.sampled_from([64, 0, 1, 5]))]
    return payload


_ODD_VALUES = st.sampled_from(
    [1, 1.0, True, None, "stable ", "unstable", [1], (1,), "1", {"1": 1}, [1.0], [True], [[1]]]
)


_FLAGS = [("apex",), ("star",), ("star_prime",), ("r0_trivial",), ("datum", "constrained")]


@st.composite
def odd_payload(draw):
    """A real payload with one value replaced, one key added to a row, or
    one field outside the table corrupted: a datum integer, a flag,
    hilbert, or a datum key added or removed."""
    payload = draw(report_payload())
    rows = payload["pattern_table"]
    where = draw(st.sampled_from(
        ["row-value", "row-key", "table", "integer", "flag", "hilbert", "datum-key"]
    ))
    datum = payload["datum"]
    if where == "integer":
        # an integer of A, B or C, or a whole vector of A or B
        key = draw(st.sampled_from("ABC"))
        holder = datum if key == "C" else datum[key]
        if key == "C" or draw(st.booleans()):
            holder = holder[key] if key == "C" else holder[draw(st.integers(0, 2))]
            index = draw(st.integers(0, 1))
        else:
            index = draw(st.integers(0, 2))
        holder[index] = draw(st.sampled_from([True, 1.0, "1", [1]]))
    elif where == "flag":
        *path, key = draw(st.sampled_from(_FLAGS))
        (datum if path else payload)[key] = draw(st.sampled_from([1, None]))
    elif where == "hilbert":
        payload["hilbert"] = draw(st.sampled_from([[1.0], [True], (1,), 0]))
    elif where == "datum-key":
        if draw(st.booleans()):
            datum[draw(st.sampled_from(["note", "D", "a"]))] = draw(_ODD_VALUES)
        else:
            del datum[draw(st.sampled_from(sorted(datum)))]
    elif where == "row-value" and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.sampled_from(sorted(row)))] = draw(_ODD_VALUES)
    elif where == "row-key" and rows:
        rows[draw(st.integers(0, len(rows) - 1))]["note"] = draw(_ODD_VALUES)
    else:
        payload["pattern_table"] = draw(_ODD_VALUES)
    return payload


class TestCanonicalJson:
    @settings(max_examples=150, deadline=None)
    @given(payload=report_payload())
    def test_real_reports_match_json_dumps(self, payload):
        assert canonical_json(payload) == reference_json(payload)

    @settings(max_examples=300, deadline=None)
    @given(payload=odd_payload())
    def test_odd_payloads_match_json_dumps(self, payload):
        assert canonical_json(payload) == reference_json(payload)

    def test_equal_values_of_other_types_are_not_mistaken(self, monkeypatch):
        """1 == 1.0 == True, but json.dumps writes each differently: no row
        may be served the cached text of a row equal to it, in either order."""
        monkeypatch.setattr(cli, "_ROW_TEXT", dict.fromkeys(cli._ROW_TEXT))
        payload = build_analysis_report(flag_datum()).as_dict()
        odd = []
        for row in payload["pattern_table"]:
            z = row["z_support"]
            for key, value in (
                ("realizable", int(row["realizable"])),
                ("in_M", float(row["in_M"])),
                ("z_support", [float(k) for k in z]),
                ("z_support", [k == 1 or k for k in z]),
                ("z_support", tuple(z)),
                ("class_hm", True),
                ("class_hm", 1),
            ):
                odd.append(dict(payload, pattern_table=[dict(row, **{key: value})]))
        for p in odd + [payload] + odd:
            assert canonical_json(p) == reference_json(p)

    def test_the_skeleton_writes_every_analyze_report_without_hilbert(self, monkeypatch):
        """The byte tests pass whichever path a payload takes.  This one
        checks that a plain analyze report, the payload written on a hot
        path, never falls through to json.dumps, and that every row it
        holds is served from _ROW_TEXT; and that a report with hilbert or
        a biquotient report always falls through."""
        monkeypatch.setattr(cli, "_ROW_TEXT", dict.fromkeys(cli._ROW_TEXT))
        rng = random.Random(18)
        seen = set()
        for i in range(2000):
            d = random_test_datum(rng, bound=(2, 20)[i % 2], constrained=i % 4 > 1)
            payload = build_analysis_report(d).as_dict()
            assert cli._report_text(payload) == reference_json(payload), d
            seen.update(
                (tuple(r["z_support"]), tuple(r["w_support"]), r["realizable"], r["in_M"],
                 r["class_hm"], r["class_cone"])
                for r in payload["pattern_table"]
            )
        assert {key for key, text in cli._ROW_TEXT.items() if text is not None} == seen
        w_left, w_right = ((1, 0), (1, 0), (1, 0)), ((0, 0), (0, 0), (1, 1))
        d = weights_from_biquotient(w_left, w_right)
        for nmax, biquotient in ((0, False), (3, False), (None, True), (2, True)):
            report = build_analysis_report(d, nmax=nmax)
            payload = report.as_dict()
            if biquotient:
                payload["biquotient"] = {
                    "wL": [list(v) for v in w_left],
                    "wR": [list(v) for v in w_right],
                    "star_hypothesis": report.star,
                }
            assert cli._report_text(payload) is None
            assert canonical_json(payload) == reference_json(payload)

    def test_other_payloads_match_json_dumps(self):
        for payload in (
            {"nmax": 2, "dims": [1, 8, 27]},
            {"phi": [1.0, -0.5], "residual": 0.0},
            [{"pattern_table": []}],
            {"pattern_table": [{"z_support": [1]}]},
            {},
        ):
            assert canonical_json(payload) == reference_json(payload)

    def test_row_table_holds_exactly_the_rows_a_report_can_hold(self, monkeypatch):
        # a real row is fixed by its pattern and its one verdict
        real = {
            (tuple(sorted(p.z_support)), tuple(sorted(p.w_support)),
             p.is_realizable(), p.is_open_pattern(), v.value, v.value)
            for p in ALL_PATTERNS
            for v in StabilityClass
        }
        assert len(real) == 64 * 3 and cli._ROW_TEXT.keys() == real
        monkeypatch.setattr(cli, "_ROW_TEXT", dict.fromkeys(cli._ROW_TEXT))
        # a row no report can hold is dumped, never added to the table
        report = build_analysis_report(flag_datum()).as_dict()
        row = report["pattern_table"][0]
        for k in range(3000):
            payload = dict(report, pattern_table=[dict(row, z_support=[k])])
            assert canonical_json(payload) == reference_json(payload)
        assert cli._ROW_TEXT.keys() == real


class TestReportApex:
    @settings(max_examples=300, deadline=None)
    @given(datum=random_datum())
    def test_apex_is_has_apex(self, datum):
        assert build_analysis_report(datum).apex is Cone2(datum.weights()).has_apex()

    @pytest.mark.parametrize(
        "a, b",
        [
            (((0, 0), (1, 0), (0, 1)), ((1, 1), (0, 1), (1, 0))),  # a zero weight, apex
            (((0, 0), (1, 0), (-1, 0)), ((1, 1), (0, 1), (1, 0))),  # a zero and an opposite pair
            (((1, 0), (2, 0), (-1, 0)), ((0, 1), (0, 1), (0, 1))),  # opposite, no zero
            (((1, 0), (2, 0), (3, 0)), ((1, 1), (2, 2), (0, 1))),  # collinear, apex
            (((0, 0), (0, 0), (0, 0)), ((0, 0), (0, 0), (0, 0))),  # every weight zero
        ],
    )
    def test_apex_with_zero_collinear_and_opposite_weights(self, a, b):
        d = WeightDatum(a=a, b=b, c=(1, 1), constrained=False)
        assert build_analysis_report(d).apex is Cone2(d.weights()).has_apex()

    def test_one_relation_search_when_a_pair_cone_fails(self, monkeypatch):
        real, calls = cones.positive_relation, []

        def counted(vectors):
            calls.append(vectors)
            return real(vectors)

        # c = A1 lies on the boundary of cone(A1, B2), so the fan condition fails
        d = WeightDatum(a=((1, 0),) * 3, b=((0, 1),) * 3, c=(1, 0))
        for module in (cones, stability):
            monkeypatch.setattr(module, "positive_relation", counted)
        report = build_analysis_report(d)
        assert (report.star, report.r0_trivial, report.apex) == (False, True, True)
        assert len(calls) == 1


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_python_dash_m_conestab(self):
        env = dict(os.environ, PYTHONPATH=str(Path(conestab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "conestab", "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: conestab")

    def test_no_command_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_readme_synopsis_matches_the_commands(self):
        """README's CLI synopsis lists every subcommand, in order, with
        exactly the arguments its handler reads, each in --help order."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
        listed = []
        for line in block.splitlines():
            prog, name, rest = line.split(maxsplit=2)
            assert prog == "conestab", line
            words = re.findall(r"\[[^]]*\]|\S+", rest)
            listed.append((name, [re.sub(r" [A-Z]+\]$", " VALUE]", w) for w in words]))
        declared = []
        for name, (_, _, arguments) in cli.COMMANDS.items():
            words = []
            for flags, kwargs in arguments:
                if not flags[0].startswith("-"):
                    words.append(flags[0].upper())
                elif kwargs.get("action") == "store_true":
                    words.append(f"[{flags[0]}]")
                else:
                    words.append(f"[{flags[0]} VALUE]")
            declared.append((name, words))
        assert listed == declared

    def test_console_script_installed(self, flag_config):
        exe = shutil.which("conestab")
        assert exe is not None
        proc = subprocess.run(
            [exe, "analyze", flag_config, "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["star"] is True
