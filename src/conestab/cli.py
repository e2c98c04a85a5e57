"""Command-line interface.

Subcommands:
  analyze     full stability report for a weight datum
  verify      randomized / exhaustive consistency suites
  fan-svg     render the weight fan as SVG
  hilbert     graded dimension table
  biquotient  derive weights from a biquotient action, then analyze
  moment      evaluate the moment map at a point from the config

Configs are single JSON documents with integer-array fields "A" (3x2),
"B" (3x2), "C" (2); "wL"/"wR" (3x2) for biquotient mode; "z"/"w" (three
numbers or [re, im] pairs) for moment mode.  Integers may be given as
decimal strings (an optional sign and ASCII digits) when they exceed safe
double range; moment coordinates as strings in the JSON number grammar.

Exit codes: 0 success, 1 internal invariant breach (including failed
verification suites), 2 input error, 3 I/O error, 4 crash (any other
exception, reported on one stderr line without a traceback).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

from conestab.cones import ZERO, Cone2
from conestab.graded import hilbert_table
from conestab.moment import moment_map
from conestab.stability import (
    ALL_PATTERNS,
    StabilityClass,
    WeightDatum,
    classify_by_cone,
    classify_by_one_ps,
    fan_condition,
    fan_condition_membership,
    r0_is_trivial,
    weights_from_biquotient,
)
from conestab.svg import fan_svg
from conestab.verify import VERIFY_SUITES, TrialConfig

SUITE_NAMES = tuple(VERIFY_SUITES)


class InputError(Exception):
    """Bad config or arguments; maps to exit code 2."""


class InternalError(Exception):
    """A cross-check the tool guarantees has failed; maps to exit code 1."""


_ROW_KEYS = {"z_support", "w_support", "realizable", "in_M", "class_hm", "class_cone"}
# the columns of a row that depend only on the pattern, never on the datum
_PATTERN_COLUMNS = tuple(
    (p, tuple(sorted(p.z_support)), tuple(sorted(p.w_support)),
     p.is_realizable(), p.is_open_pattern())
    for p in ALL_PATTERNS
)
# The 64 x 3 rows a report can hold, each with its text indented to its
# depth in a report; the text is encoded the first time the row is written.
_ROW_TEXT: dict[tuple, str | None] = dict.fromkeys(
    (z, w, realizable, in_m, text, text)
    for _, z, w, realizable, in_m in _PATTERN_COLUMNS
    for text in (v.value for v in StabilityClass)
)

_REPORT_KEYS = {"datum", "apex", "star", "star_prime", "r0_trivial", "pattern_table", "hilbert"}
_DATUM_KEYS = {"A", "B", "C", "constrained"}
# The dump of an analyze report without hilbert, with %s in place of each
# other value.  In key order the values are apex, the six integers of A and
# of B, the two of C, constrained, the pattern table, r0_trivial, star and
# star_prime.
_REPORT_SKELETON = json.dumps(
    {"datum": {"A": [["%s"] * 2] * 3, "B": [["%s"] * 2] * 3, "C": ["%s"] * 2, "constrained": "%s"},
     **dict.fromkeys(_REPORT_KEYS - {"datum", "hilbert"}, "%s"), "hilbert": None},
    sort_keys=True, indent=2,
).replace('"%s"', "%s") + "\n"
_JSON_BOOL = {True: "true", False: "false"}


def _report_text(obj) -> str | None:
    """canonical_json of an analyze report without hilbert, or None unless
    obj is a dict with exactly a report's keys and value types.

    The datum's integers, the five flags and the rows fill the slots of
    _REPORT_SKELETON; each row is one of the 192 of _ROW_TEXT.  A key
    compares by value, and 1 == 1.0 == True, but json.dumps writes each
    differently, so every value must first have its exact type: integers,
    booleans, and rows with the six keys and string verdicts.
    """
    if type(obj) is not dict or obj.keys() != _REPORT_KEYS or obj["hilbert"] is not None:
        return None
    datum = obj["datum"]
    if type(datum) is not dict or datum.keys() != _DATUM_KEYS:
        return None
    a, b = datum["A"], datum["B"]
    if not (type(a) is list and type(b) is list and len(a) == len(b) == 3):
        return None
    numbers = []
    for v in (*a, *b, datum["C"]):
        if not (type(v) is list and len(v) == 2 and type(v[0]) is int and type(v[1]) is int):
            return None
        numbers += v
    flags = (obj["apex"], datum["constrained"], obj["r0_trivial"], obj["star"], obj["star_prime"])
    for x in flags:
        if type(x) is not bool:
            return None
    table = obj["pattern_table"]
    if type(table) is not list:
        return None
    rows = []
    for row in table:
        if type(row) is not dict or row.keys() != _ROW_KEYS:
            return None
        z, w = row["z_support"], row["w_support"]
        realizable, in_m = row["realizable"], row["in_M"]
        hm, cone = row["class_hm"], row["class_cone"]
        if not (type(z) is list and type(w) is list and type(realizable) is bool
                and type(in_m) is bool and type(hm) is str and type(cone) is str):
            return None
        for i in z + w:
            if type(i) is not int:
                return None
        key = (tuple(z), tuple(w), realizable, in_m, hm, cone)
        text = _ROW_TEXT.get(key, False)
        if text is False:  # not a row a report can hold
            return None
        if text is None:
            text = "    " + json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    ")
            _ROW_TEXT[key] = text
        rows.append(text)
    table = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    apex, constrained, r0_trivial, star, star_prime = map(_JSON_BOOL.__getitem__, flags)
    return _REPORT_SKELETON % (apex, *numbers, constrained, table, r0_trivial, star, star_prime)


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.

    The indenting encoder runs in pure Python, so the 64-row pattern table
    would dominate the cost of an analyze report without ``hilbert``, the
    one payload written on a hot path; _report_text writes that from a
    fixed skeleton.  Every other payload, an analyze report with
    ``hilbert`` or a biquotient report among them, is dumped whole.
    """
    return _report_text(obj) or json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- config


# A rejected value is named by its JSON type, never echoed: it may be huge.
_JSON_TYPE_NAMES = {float: "a number with a fraction or exponent", list: "a list",
                    dict: "an object", type(None): "null"}
# Integers from a config or the command line; int() alone also takes
# underscores, spaces and other digits.
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(text: str) -> int:
    """argparse type: the integer text spells in the decimal grammar."""
    if _DECIMAL.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # past the digit limit
            raise argparse.ArgumentTypeError(
                f"a string of {len(text)} characters is not a decimal integer within the"
                f" {sys.get_int_max_str_digits()}-digit limit sys.get_int_max_str_digits()"
            ) from None
    # a long string is named by its length, never echoed
    shown = repr(text) if len(text) <= 40 else f"a string of {len(text)} characters"
    raise argparse.ArgumentTypeError(f"{shown} is not a decimal integer")


def _to_int(value, name: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{name}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return _decimal(value)
        except argparse.ArgumentTypeError as e:
            raise InputError(f"{name}: {e}") from None
    got = _JSON_TYPE_NAMES.get(type(value), type(value).__name__)
    raise InputError(f"{name}: expected an integer or decimal string, got {got}")


def _to_vec2(value, name: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputError(f"{name}: expected a pair of integers")
    return (_to_int(value[0], name), _to_int(value[1], name))


def _to_vec2_triple(value, name: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise InputError(f"{name}: expected three pairs of integers")
    return tuple(_to_vec2(v, f"{name}[{i}]") for i, v in enumerate(value))


def load_config(path: str) -> dict:
    """The config's JSON object.  A fraction stays a float, infinite when
    beyond double range, for the field that reads it to reject."""
    def non_finite(text: str):
        raise InputError(f"config {path}: non-finite number {text} is not allowed")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=non_finite)
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


def _field(doc: dict, key: str):
    """doc[key]; InputError when the config lacks that required field."""
    if key not in doc:
        raise InputError(f"config is missing required field {key!r}")
    return doc[key]


def datum_from_config(doc: dict, enforce_constraint: bool) -> WeightDatum:
    a, b, c = [_field(doc, key) for key in ("A", "B", "C")]  # all present before any parse
    a, b, c = _to_vec2_triple(a, "A"), _to_vec2_triple(b, "B"), _to_vec2(c, "C")
    try:
        return WeightDatum(a=a, b=b, c=c, constrained=enforce_constraint)
    except ValueError as e:  # name the flag that waives the constant-sum check
        raise InputError(str(e).replace("constrained=False", "--no-constraint")) from None


# ---------------------------------------------------------------- report


@dataclass
class AnalysisReport:
    datum: WeightDatum
    apex: bool
    star: bool  # the fan condition; its interior and membership forms agree
    r0_trivial: bool
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
            "star_prime": self.star,
            "r0_trivial": self.r0_trivial,
            "pattern_table": [
                {"z_support": list(z), "w_support": list(w), "realizable": realizable,
                 "in_M": in_m, "class_hm": text, "class_cone": text}
                # the classifiers agree; _value_ skips the Enum.value property
                for p, z, w, realizable, in_m in _PATTERN_COLUMNS
                for text in (classify_by_cone(d, p)._value_,)
            ],
            "hilbert": self.hilbert,
        }


def _checked(func, *args):
    """func(*args), with its ValueError, the library's mark of a bad
    input, as InputError."""
    try:
        return func(*args)
    except ValueError as e:
        raise InputError(str(e)) from None


def build_analysis_report(datum: WeightDatum, nmax: int | None = None) -> AnalysisReport:
    """Cross-check everything the emitted report promises.  The two
    classifiers agree on all 64 patterns iff their (semistable, stable)
    bitset pairs are equal, since each stable bitset lies within its
    semistable one."""
    star = fan_condition(datum)
    star_prime = fan_condition_membership(datum)
    if star != star_prime:
        raise InternalError(
            f"fan condition forms disagree: interior={star} membership={star_prime} "
            f"for {datum!r}"
        )
    if datum._one_ps_bits != datum._cone_bits:
        for p in ALL_PATTERNS:
            hm, cone = classify_by_one_ps(datum, p), classify_by_cone(datum, p)
            if hm is not cone:
                raise InternalError(
                    f"classifiers disagree on pattern {p}: {hm} vs {cone} for {datum!r}"
                )
    trivial = r0_is_trivial(datum)
    # Both answers come from positive_relation: over all six weights for
    # r0, over the nonzero ones for the apex, so they differ only when a
    # weight is zero.
    ws = datum.weights()
    apex = trivial or (ZERO in ws and Cone2(ws).has_apex())
    hilbert = None if nmax is None else _checked(hilbert_table, datum, nmax)
    return AnalysisReport(datum=datum, apex=apex, star=star, r0_trivial=trivial, hilbert=hilbert)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def render_report_text(report: AnalysisReport, extra_lines: list[str] | None = None) -> str:
    d = report.datum
    lines = [
        "datum:",
        *(f"  A{i} = {v}" for i, v in enumerate(d.a, start=1)),
        *(f"  B{j} = {v}" for j, v in enumerate(d.b, start=1)),
        f"  C  = {d.c}",
        "  constraint A_i + B_i constant: " + ("enforced" if d.constrained else "not enforced"),
        f"apex: {_yesno(report.apex)}",
        f"fan condition (interior form): {_yesno(report.star)}",
        f"fan condition (membership form): {_yesno(report.star)}",
        f"degree-0 invariants trivial: {_yesno(report.r0_trivial)}",
        *(extra_lines or ()),
        "pattern table:",
    ]
    for p, _, _, realizable, in_m in _PATTERN_COLUMNS:
        verdict = classify_by_cone(d, p).value  # both classifiers agree
        lines.append(
            f"  {str(p):12s} realizable={_yesno(realizable):3s} in_M={_yesno(in_m):3s} "
            f"hm={verdict:20s} cone={verdict}"
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


def _emit(args, payload, text) -> None:
    """Write canonical_json(payload()) under --json, else text(), to stdout
    and also to --out when the command has that flag.  Each writer is a
    callable, so only the one whose output is printed runs."""
    out = canonical_json(payload()) if args.json else text()
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
    _emit(args, report.as_dict, lambda: render_report_text(report))
    return 0


def cmd_verify(args) -> int:
    cfg = TrialConfig(
        seed=args.seed,
        trials=args.trials,
        coord_bound=args.bound,
        enforce_constraint=not args.no_constraint,
    )
    report = VERIFY_SUITES[args.suite](cfg)
    _emit(args, report.as_dict, lambda: _verify_text(report))
    return 0 if report.passed else 1


def _verify_text(report) -> str:
    cfg = report.config
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
    return "\n".join(lines) + "\n"


def cmd_fan_svg(args) -> int:
    _, datum = _load_datum(args)
    svg = _checked(fan_svg, datum, args.shade)
    if args.out is None:
        sys.stdout.write(svg)
    else:
        _write_file(args.out, svg)
    return 0


def cmd_hilbert(args) -> int:
    _, datum = _load_datum(args)
    dims = _checked(hilbert_table, datum, args.nmax)
    _emit(args, lambda: {"nmax": args.nmax, "dims": dims}, lambda: "".join(
        ["   n  dim\n"] + [f"{n:4d}  {dim}\n" for n, dim in enumerate(dims)]))
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
    w_left, w_right = [_field(doc, key) for key in ("wL", "wR")]
    w_left, w_right = _to_vec2_triple(w_left, "wL"), _to_vec2_triple(w_right, "wR")
    datum = _checked(weights_from_biquotient, w_left, w_right)
    _check_printable(datum)
    report = build_analysis_report(datum, nmax=args.nmax)
    biquotient = {
        "wL": [list(v) for v in w_left],
        "wR": [list(v) for v in w_right],
        "star_hypothesis": report.star,
    }
    extra = [
        f"derived from biquotient weights wL={list(w_left)} wR={list(w_right)}",
        f"fan condition for the derived weights: {_yesno(report.star)}",
    ]
    _emit(args, lambda: {**report.as_dict(), "biquotient": biquotient},
          lambda: render_report_text(report, extra_lines=extra))
    return 0


def cmd_moment(args) -> int:
    doc = load_config(args.config)
    z, w = [_field(doc, key) for key in ("z", "w")]  # all present before any parse
    datum = datum_from_config(doc, enforce_constraint=not args.no_constraint)
    value = _checked(moment_map, datum, z, w)
    _emit(
        args,
        lambda: {"phi": [value.phi[0], value.phi[1]], "residual": value.residual},
        lambda: f"phi = ({value.phi[0]!r}, {value.phi[1]!r})\nresidual = {value.residual!r}\n",
    )
    return 0


# ---------------------------------------------------------------- parser


def _at_least(least: int):
    """argparse type: an integer no smaller than least."""

    def parse(text: str) -> int:
        value = _decimal(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}")
        return value

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
        _arg("--seed", type=_decimal, default=0),
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
    except Exception as e:
        print(f"crash: {type(e).__name__}: " + " ".join(str(e).splitlines()), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
