"""End-to-end tests for the command-line interface."""

import io
import json
import os
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
from conestab.cli import SUITE_NAMES, canonical_json, main
from conestab.stability import WeightDatum, flag_datum
from conestab.svg import fan_svg
from conestab.verify import VERIFY_SUITES

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
        assert canonical_json(json.loads(out)) == out

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

    def test_constraint_violation_rejected(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {"A": [[1, 0], [2, 0], [3, 0]], "B": FLAG_CONFIG["B"], "C": [1, 1]},
        )
        code, _, err = run_cli(capsys, "analyze", cfg)
        assert code == 2
        assert "constant" in err
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

    def test_out_writes_copy(self, capsys, flag_config, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "analyze", flag_config, "--json", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text() == out

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
        assert canonical_json(doc) == out

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
        assert canonical_json(doc) == out

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


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(conestab.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "conestab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
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

    def test_digit_limit_errors_name_the_culprit(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "biquotient", write_config(tmp_path, DERIVED_PAST_DIGIT_LIMIT)
        )
        assert code == 2 and err.startswith("error: derived A1 has more than 4300 digits")
        code, _, err = run_cli(capsys, "analyze", write_config(tmp_path, SUMS_PAST_DIGIT_LIMIT))
        assert code == 2
        assert "a_1 + b_1 differs from a_2 + b_2 and a_3 + b_3" in err


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


# hilbert and --nmax are left out: graded dimensions have no work cap yet
_FUZZ_ARGV = st.sampled_from(
    [
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
    ]
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
            json.loads(out.getvalue(), parse_constant=_reject_constant)


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
