"""Command-line interface.

Subcommands:
  analyze     full stability report for a weight datum
  verify      randomized / exhaustive consistency suites
  fan-svg     render the weight fan as SVG
  hilbert     graded dimension table
  biquotient  derive weights from a biquotient action, then analyze
  moment      evaluate the moment map at a point from the config

Configs are single JSON documents with integer-array fields "A" (3x2),
"B" (3x2), "C" (2); "wL"/"wR" (3x2) for biquotient mode; "z"/"w"
(3 x [re, im]) for moment mode.  Integers may be given as decimal strings
when they exceed safe double range.

Exit codes: 0 success, 1 internal invariant breach (including failed
verification suites), 2 input error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from conestab.cones import ZERO, Cone2
from conestab.graded import find_invariant_monomial, hilbert_table
from conestab.stability import (
    ALL_PATTERNS,
    StabilityClass,
    SupportPattern,
    WeightDatum,
    classify_by_cone,
    classify_by_one_ps,
    fan_condition,
    fan_condition_membership,
    r0_is_trivial,
    weights_from_biquotient,
)
from conestab.svg import fan_svg
from conestab.verify import VERIFY_SUITES, TrialConfig, moment_map

SUITE_NAMES = tuple(VERIFY_SUITES)


class InputError(Exception):
    """Bad config or arguments; maps to exit code 2."""


class InternalError(Exception):
    """A cross-check the tool guarantees has failed; maps to exit code 1."""


_PLACEHOLDER = "\x00conestab pattern table\x00"
_PLACEHOLDER_JSON = json.dumps(_PLACEHOLDER)
_ROW_KEYS = {"z_support", "w_support", "realizable", "in_M", "class_hm", "class_cone"}
_VERDICTS = frozenset(v.value for v in StabilityClass)
# Encoded pattern rows, indented to their depth in a report.  Real reports
# have at most 64 patterns x 3 verdicts; the cap bounds made-up rows.
_ROW_TEXT: dict[tuple, str] = {}
_ROW_TEXT_CAP = 1024


def _pattern_table_text(table) -> str | None:
    """json.dumps of a report's pattern table at depth 1, or None unless
    every row has the six keys, integer supports, two booleans and two
    verdict strings."""
    if type(table) is not list:
        return None
    rows = []
    for row in table:
        if type(row) is not dict or row.keys() != _ROW_KEYS:
            return None
        z, w = row["z_support"], row["w_support"]
        realizable, in_m = row["realizable"], row["in_M"]
        hm, cone = row["class_hm"], row["class_cone"]
        if not (type(z) is list and type(w) is list
                and type(realizable) is bool and type(in_m) is bool):
            return None
        key = (tuple(z), tuple(w), realizable, in_m, hm, cone)
        try:
            text = _ROW_TEXT.get(key)
        except TypeError:  # an unhashable value, which no well-formed row has
            return None
        if text is None:
            if not (all(type(i) is int for i in z + w) and hm in _VERDICTS and cone in _VERDICTS):
                return None
            text = "    " + json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    ")
            if len(_ROW_TEXT) < _ROW_TEXT_CAP:
                _ROW_TEXT[key] = text
        rows.append(text)
    # A key compares by value, and 1 == 1.0 == True, but json.dumps writes
    # each differently: the cached text is this row's only for exact ints.
    if not {type(i) for row in table for i in row["z_support"] + row["w_support"]} <= {int}:
        return None
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.

    The indenting encoder runs in pure Python, so a report's 64-row
    pattern table would dominate the cost.  Each distinct row is encoded
    once, by ``json.dumps`` itself, and spliced into the dump of the rest
    of the payload in place of a placeholder string; any other payload is
    dumped whole.  Either way the bytes are those of ``json.dumps``.
    """
    if type(obj) is dict and "pattern_table" in obj:
        table = _pattern_table_text(obj["pattern_table"])
        if table is not None:
            text = json.dumps({**obj, "pattern_table": _PLACEHOLDER}, sort_keys=True, indent=2)
            if text.count(_PLACEHOLDER_JSON) == 1:
                return text.replace(_PLACEHOLDER_JSON, table) + "\n"
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- config


def _to_int(value, name: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{name}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise InputError(f"{name}: {value!r} is not a decimal integer") from None
    raise InputError(f"{name}: expected an integer or decimal string, got {value!r}")


def _to_vec2(value, name: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputError(f"{name}: expected a pair of integers")
    return (_to_int(value[0], name), _to_int(value[1], name))


def _to_vec2_triple(value, name: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise InputError(f"{name}: expected three pairs of integers")
    return tuple(_to_vec2(v, f"{name}[{i}]") for i, v in enumerate(value))


def load_config(path: str) -> dict:
    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise InputError(f"config {path}: non-finite number {text} is not allowed")
        return value

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=finite, parse_float=finite)
    except OSError as e:
        raise InputError(f"cannot read config {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"config {path} is not valid UTF-8: {e}") from None
    except ValueError as e:  # JSONDecodeError, or an integer literal over 4,300 digits
        raise InputError(f"config {path} is not valid JSON: {e}") from None
    except RecursionError:
        raise InputError(f"config {path} is nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(f"config {path} must be a JSON object")
    return doc


def datum_from_config(doc: dict, enforce_constraint: bool) -> WeightDatum:
    for key in ("A", "B", "C"):
        if key not in doc:
            raise InputError(f"config is missing required field {key!r}")
    a = _to_vec2_triple(doc["A"], "A")
    b = _to_vec2_triple(doc["B"], "B")
    c = _to_vec2(doc["C"], "C")
    try:
        return WeightDatum(a=a, b=b, c=c, constrained=enforce_constraint)
    except ValueError as e:
        raise InputError(str(e)) from None


def complex3_from_config(doc: dict, key: str) -> tuple[complex, complex, complex]:
    if key not in doc:
        raise InputError(f"config is missing required field {key!r}")
    value = doc[key]
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise InputError(f"{key}: expected three [re, im] pairs")
    out = []
    for i, entry in enumerate(value):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InputError(f"{key}[{i}]: expected an [re, im] pair")
        try:
            re, im = float(entry[0]), float(entry[1])
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"{key}[{i}]: entries must be finite numbers") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise InputError(f"{key}[{i}]: entries must be finite numbers")
        out.append(complex(re, im))
    return tuple(out)


# ---------------------------------------------------------------- report


class PatternRow(NamedTuple):
    pattern: SupportPattern
    z_support: tuple[int, ...]  # sorted
    w_support: tuple[int, ...]
    realizable: bool
    in_m: bool
    class_hm: str
    class_cone: str


# the columns of a row that depend only on the pattern, never on the datum
_PATTERN_COLUMNS = tuple(
    (p, tuple(sorted(p.z_support)), tuple(sorted(p.w_support)),
     p.is_realizable(), p.is_open_pattern())
    for p in ALL_PATTERNS
)


@dataclass
class AnalysisReport:
    datum: WeightDatum
    apex: bool
    star: bool
    star_prime: bool
    r0_trivial: bool
    pattern_table: list[PatternRow]
    hilbert: list[int] | None = None

    def as_dict(self) -> dict:
        d = self.datum
        return {
            "datum": {
                "A": [list(v) for v in d.a],
                "B": [list(v) for v in d.b],
                "C": list(d.c),
                "constrained": d.constrained,
            },
            "apex": self.apex,
            "star": self.star,
            "star_prime": self.star_prime,
            "r0_trivial": self.r0_trivial,
            "pattern_table": [
                {
                    "z_support": list(row.z_support),
                    "w_support": list(row.w_support),
                    "realizable": row.realizable,
                    "in_M": row.in_m,
                    "class_hm": row.class_hm,
                    "class_cone": row.class_cone,
                }
                for row in self.pattern_table
            ],
            "hilbert": self.hilbert,
        }


def _infinite_dims_error(datum: WeightDatum) -> InputError:
    witness = find_invariant_monomial(datum)
    return InputError(
        "graded dimensions are infinite: degree-0 invariants are "
        f"nontrivial, witness {witness}"
    )


def _hilbert_table(datum: WeightDatum, nmax: int) -> list[int]:
    try:
        return hilbert_table(datum, nmax)
    except ValueError as e:  # the table needs more work than graded.MAX_TABLE_WORK
        raise InputError(str(e)) from None


def build_analysis_report(datum: WeightDatum, nmax: int | None = None) -> AnalysisReport:
    """Run both classifiers over all 64 patterns and cross-check everything
    the emitted report promises."""
    star = fan_condition(datum)
    star_prime = fan_condition_membership(datum)
    if star != star_prime:
        raise InternalError(
            f"fan condition forms disagree: interior={star} membership={star_prime} "
            f"for {datum!r}"
        )
    rows = []
    for columns in _PATTERN_COLUMNS:
        p = columns[0]
        hm = classify_by_one_ps(datum, p)
        cone = classify_by_cone(datum, p)
        if hm is not cone:
            raise InternalError(
                f"classifiers disagree on pattern {p}: {hm} vs {cone} for {datum!r}"
            )
        rows.append(PatternRow(*columns, hm.value, cone.value))
    trivial = r0_is_trivial(datum)
    # Both answers come from positive_relation: over all six weights for
    # r0, over the nonzero ones for the apex, so they differ only when a
    # weight is zero.
    ws = datum.weights()
    apex = trivial or (ZERO in ws and Cone2(ws).has_apex())
    hilbert = None
    if nmax is not None:
        if not trivial:
            raise _infinite_dims_error(datum)
        hilbert = _hilbert_table(datum, nmax)
    return AnalysisReport(
        datum=datum,
        apex=apex,
        star=star,
        star_prime=star_prime,
        r0_trivial=trivial,
        pattern_table=rows,
        hilbert=hilbert,
    )


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def render_report_text(report: AnalysisReport, extra_lines: list[str] | None = None) -> str:
    d = report.datum
    lines = ["datum:"]
    for i, v in enumerate(d.a, start=1):
        lines.append(f"  A{i} = {v}")
    for j, v in enumerate(d.b, start=1):
        lines.append(f"  B{j} = {v}")
    lines.append(f"  C  = {d.c}")
    lines.append(
        "  constraint A_i + B_i constant: "
        + ("enforced" if d.constrained else "not enforced")
    )
    lines.append(f"apex: {_yesno(report.apex)}")
    lines.append(f"fan condition (interior form): {_yesno(report.star)}")
    lines.append(f"fan condition (membership form): {_yesno(report.star_prime)}")
    lines.append(f"degree-0 invariants trivial: {_yesno(report.r0_trivial)}")
    if extra_lines:
        lines.extend(extra_lines)
    lines.append("pattern table:")
    for row in report.pattern_table:
        lines.append(
            f"  {str(row.pattern):12s} realizable={_yesno(row.realizable):3s} "
            f"in_M={_yesno(row.in_m):3s} hm={row.class_hm:20s} "
            f"cone={row.class_cone}"
        )
    if report.hilbert is not None:
        lines.append(f"graded dimensions 0..{len(report.hilbert) - 1}: {report.hilbert}")
    return "\n".join(lines) + "\n"


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise IOError(f"cannot write {path}: {e}") from None


def _emit(args, payload, text: str) -> None:
    """Write canonical_json(payload) under --json, else text, to stdout and
    also to --out when the command has that flag."""
    out = canonical_json(payload) if args.json else text
    sys.stdout.write(out)
    if getattr(args, "out", None) is not None:
        _write_file(args.out, out)


# ---------------------------------------------------------------- commands


def _load_datum(args) -> tuple[dict, WeightDatum]:
    doc = load_config(args.config)
    return doc, datum_from_config(doc, enforce_constraint=not args.no_constraint)


def cmd_analyze(args) -> int:
    _, datum = _load_datum(args)
    report = build_analysis_report(datum, nmax=args.nmax)
    _emit(args, report.as_dict(), render_report_text(report))
    return 0


def cmd_verify(args) -> int:
    cfg = TrialConfig(
        seed=args.seed,
        trials=args.trials,
        coord_bound=args.bound,
        enforce_constraint=not args.no_constraint,
    )
    report = VERIFY_SUITES[args.suite](cfg)
    lines = [
        f"suite: {report.suite}",
        f"seed: {cfg.seed}  trials: {cfg.trials}  bound: {cfg.coord_bound}  "
        f"constraint: {'on' if cfg.enforce_constraint else 'off'}",
        f"checked: {report.checked}  disagreements: {report.disagreements}",
    ]
    for key, value in sorted(report.details.items()):
        lines.append(f"{key}: {value}")
    if report.passed:
        lines.append("PASS")
    else:
        lines.append(f"first failure: {report.first_failure}")
        lines.append("FAIL")
    _emit(args, report.as_dict(), "\n".join(lines) + "\n")
    return 0 if report.passed else 1


def cmd_fan_svg(args) -> int:
    _, datum = _load_datum(args)
    try:
        svg = fan_svg(datum, shade=args.shade)
    except OverflowError:
        raise InputError(
            "a weight direction is beyond double range; the fan cannot be drawn"
        ) from None
    if args.out is None:
        sys.stdout.write(svg)
    else:
        _write_file(args.out, svg)
    return 0


def cmd_hilbert(args) -> int:
    _, datum = _load_datum(args)
    if not r0_is_trivial(datum):
        raise _infinite_dims_error(datum)
    dims = _hilbert_table(datum, args.nmax)
    lines = ["   n  dim"] + [f"{n:4d}  {dim}" for n, dim in enumerate(dims)]
    _emit(args, {"nmax": args.nmax, "dims": dims}, "\n".join(lines) + "\n")
    return 0


def _check_printable(datum: WeightDatum) -> None:
    """Reject a derived coordinate too long for str() to print."""
    limit = sys.get_int_max_str_digits()
    names = ("A1", "A2", "A3", "B1", "B2", "B3", "C")
    for name, v in zip(names, datum.weights() + (datum.c,)):
        if limit and any(abs(x) >= 10**limit for x in v):
            raise InputError(
                f"derived {name} has more than {limit} digits, past the "
                "integer-to-string limit sys.get_int_max_str_digits()"
            )


def cmd_biquotient(args) -> int:
    doc = load_config(args.config)
    for key in ("wL", "wR"):
        if key not in doc:
            raise InputError(f"config is missing required field {key!r}")
    w_left = _to_vec2_triple(doc["wL"], "wL")
    w_right = _to_vec2_triple(doc["wR"], "wR")
    try:
        datum = weights_from_biquotient(w_left, w_right)
    except ValueError as e:
        raise InputError(str(e)) from None
    _check_printable(datum)
    report = build_analysis_report(datum, nmax=args.nmax)
    payload = report.as_dict()
    payload["biquotient"] = {
        "wL": [list(v) for v in w_left],
        "wR": [list(v) for v in w_right],
        "star_hypothesis": report.star,
    }
    extra = [
        f"derived from biquotient weights wL={list(w_left)} wR={list(w_right)}",
        f"fan condition for the derived weights: {_yesno(report.star)}",
    ]
    _emit(args, payload, render_report_text(report, extra_lines=extra))
    return 0


def cmd_moment(args) -> int:
    doc, datum = _load_datum(args)
    z = complex3_from_config(doc, "z")
    w = complex3_from_config(doc, "w")
    try:
        value = moment_map(datum, z, w)
    except OverflowError:
        raise InputError("weights are beyond double range; the moment map cannot be evaluated") from None
    if not all(math.isfinite(x) for x in (*value.phi, value.residual)):
        raise InputError("the moment map overflows double precision at this point")
    _emit(
        args,
        {"phi": [value.phi[0], value.phi[1]], "residual": value.residual},
        f"phi = ({value.phi[0]!r}, {value.phi[1]!r})\nresidual = {value.residual!r}\n",
    )
    return 0


# ---------------------------------------------------------------- parser


def _at_least(least: int):
    """argparse type: an integer no smaller than least."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value" errors
    return parse


def _arg(*flags, **kwargs):
    return flags, kwargs


_CONFIG = _arg("config", help="path to a JSON config")
_JSON = _arg("--json", action="store_true", help="machine-readable output")
_NO_CONSTRAINT = _arg(
    "--no-constraint", action="store_true", help="do not require A_i + B_i to be constant"
)
_NMAX = _arg("--nmax", type=_at_least(0), help="also tabulate graded dimensions")
_OUT = _arg("--out", help="also write the report to this file")

# name: (handler, help, the arguments that handler reads, in --help order)
COMMANDS = {
    "analyze": (cmd_analyze, "full stability report for a weight datum",
                (_CONFIG, _JSON, _NO_CONSTRAINT, _NMAX, _OUT)),
    "verify": (cmd_verify, "run a consistency suite", (
        _arg("suite", choices=SUITE_NAMES),
        _arg("--seed", type=int, default=0),
        _arg("--trials", type=_at_least(1), default=1000),
        _arg("--bound", type=_at_least(1), default=20, help="coordinate box bound"),
        _JSON, _NO_CONSTRAINT)),
    "fan-svg": (cmd_fan_svg, "render the weight fan as SVG", (
        _CONFIG, _NO_CONSTRAINT,
        _arg("--shade", action="store_true", help="shade the mixed-pair sectors"),
        _arg("--out", help="output SVG path (default stdout)"))),
    "hilbert": (cmd_hilbert, "graded dimension table", (
        _CONFIG, _JSON, _NO_CONSTRAINT,
        _arg("--nmax", type=_at_least(0), default=6, help="largest degree to tabulate"))),
    "biquotient": (cmd_biquotient, "derive weights from a biquotient action",
                   (_CONFIG, _JSON, _NMAX, _OUT)),
    "moment": (cmd_moment, "evaluate the moment map at a config point",
               (_CONFIG, _JSON, _NO_CONSTRAINT)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conestab",
        description="Stability analysis for two-torus actions on the rank-one quadric",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    except IOError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
