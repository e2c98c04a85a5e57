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
verification suites), 2 input error, 3 I/O error, 4 crash (any other
exception, reported on one stderr line without a traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from operator import attrgetter

from conestab.cones import ZERO, Cone2
from conestab.graded import hilbert_table
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
from conestab.verify import VERIFY_SUITES, TrialConfig, moment_map

SUITE_NAMES = tuple(VERIFY_SUITES)


class InputError(Exception):
    """Bad config or arguments; maps to exit code 2."""


class InternalError(Exception):
    """A cross-check the tool guarantees has failed; maps to exit code 1."""


_PLACEHOLDER = "\x00conestab pattern table\x00"
_PLACEHOLDER_JSON = json.dumps(_PLACEHOLDER)
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


def _pattern_table_text(table) -> str | None:
    """json.dumps of a report's pattern table at depth 1, or None unless
    every row is one of the 192 of _ROW_TEXT.

    A key compares by value, and 1 == 1.0 == True, but json.dumps writes
    each differently: before its lookup a row must have the six keys,
    integer supports, boolean flags and string verdicts.
    """
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
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


_REPORT_KEYS = {"datum", "apex", "star", "star_prime", "r0_trivial", "pattern_table", "hilbert"}
_DATUM_KEYS = {"A", "B", "C", "constrained"}
# The dump of an analyze report with %s in place of each value.  In key
# order the values are apex, the six integers of A and of B, the two of C,
# constrained, hilbert, the pattern table, r0_trivial, star and star_prime.
_REPORT_SKELETON = json.dumps(
    {"datum": {"A": [["%s"] * 2] * 3, "B": [["%s"] * 2] * 3, "C": ["%s"] * 2, "constrained": "%s"},
     **dict.fromkeys(_REPORT_KEYS - {"datum"}, "%s")},
    sort_keys=True, indent=2,
).replace('"%s"', "%s") + "\n"
_JSON_BOOL = {True: "true", False: "false"}


def _report_text(obj: dict) -> str | None:
    """canonical_json of an analyze report, written from _REPORT_SKELETON,
    or None unless obj has exactly a report's keys and value types.

    As for a row, 1 == 1.0 == True, so every value must have its exact
    type before it is spliced: integers, booleans, hilbert as None or a
    list of integers, and a pattern table that _pattern_table_text takes.
    """
    if obj.keys() != _REPORT_KEYS:
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
    hilbert = obj["hilbert"]
    if hilbert is None:
        hilbert = "null"
    elif type(hilbert) is list:
        for x in hilbert:
            if type(x) is not int:
                return None
        hilbert = "[\n    " + ",\n    ".join(map(str, hilbert)) + "\n  ]" if hilbert else "[]"
    else:
        return None
    table = _pattern_table_text(obj["pattern_table"])
    if table is None:
        return None
    apex, constrained, r0_trivial, star, star_prime = map(_JSON_BOOL.__getitem__, flags)
    return _REPORT_SKELETON % (apex, *numbers, constrained, hilbert, table,
                               r0_trivial, star, star_prime)


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.

    The indenting encoder runs in pure Python, so a report's 64-row
    pattern table would dominate the cost.  A report's rows are among the
    192 of _ROW_TEXT; each is encoded once, by ``json.dumps`` itself.  An
    analyze report, with exactly its seven keys and its value types, is
    written from a fixed skeleton, the dump of a report with a slot for
    each value, with the datum's integers, the five flags, ``hilbert`` and
    the encoded rows spliced in.  Any other payload holding a pattern table
    that _pattern_table_text takes, such as a biquotient report, gets the
    encoded rows spliced into the dump of the rest of it in place of a
    placeholder string.  Any other payload is dumped whole.  Every way the
    bytes are those of ``json.dumps``.
    """
    if type(obj) is dict and "pattern_table" in obj:
        text = _report_text(obj)
        if text is not None:
            return text
        table = _pattern_table_text(obj["pattern_table"])
        if table is not None:
            text = json.dumps({**obj, "pattern_table": _PLACEHOLDER}, sort_keys=True, indent=2)
            if text.count(_PLACEHOLDER_JSON) == 1:
                return text.replace(_PLACEHOLDER_JSON, table) + "\n"
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------- config


# A rejected value is named by its JSON type, never echoed: it may be huge.
_JSON_TYPE_NAMES = {float: "a number with a fraction or exponent", list: "a list",
                    dict: "an object", type(None): "null"}


def _to_int(value, name: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{name}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            if limit and len(value) > limit:  # too long to echo
                raise InputError(f"{name}: a string of {len(value)} characters is not a decimal"
                                 f" integer within the {limit}-digit limit"
                                 " sys.get_int_max_str_digits()") from None
            raise InputError(f"{name}: {value!r} is not a decimal integer") from None
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
    except ValueError as e:
        raise InputError(str(e)) from None


def complex3_from_config(doc: dict, key: str) -> tuple[complex, complex, complex]:
    value = _field(doc, key)
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


@dataclass
class AnalysisReport:
    datum: WeightDatum
    apex: bool
    star: bool  # the fan condition; its interior and membership forms agree
    r0_trivial: bool
    verdicts: list[StabilityClass]  # per pattern of ALL_PATTERNS; both classifiers agree
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
                {
                    "z_support": list(z),
                    "w_support": list(w),
                    "realizable": realizable,
                    "in_M": in_m,
                    "class_hm": text,
                    "class_cone": text,
                }
                # _value_ is a plain attribute; Enum.value is a Python-level property
                for (_, z, w, realizable, in_m), text in zip(
                    _PATTERN_COLUMNS, map(attrgetter("_value_"), self.verdicts)
                )
            ],
            "hilbert": self.hilbert,
        }


def _hilbert_table(datum: WeightDatum, nmax: int) -> list[int]:
    try:
        return hilbert_table(datum, nmax)
    except ValueError as e:  # infinite dimensions, or work past graded.MAX_TABLE_WORK
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
    verdicts = []
    for p in ALL_PATTERNS:
        hm = classify_by_one_ps(datum, p)
        cone = classify_by_cone(datum, p)
        if hm is not cone:
            raise InternalError(
                f"classifiers disagree on pattern {p}: {hm} vs {cone} for {datum!r}"
            )
        verdicts.append(hm)
    trivial = r0_is_trivial(datum)
    # Both answers come from positive_relation: over all six weights for
    # r0, over the nonzero ones for the apex, so they differ only when a
    # weight is zero.
    ws = datum.weights()
    apex = trivial or (ZERO in ws and Cone2(ws).has_apex())
    hilbert = None if nmax is None else _hilbert_table(datum, nmax)
    return AnalysisReport(
        datum=datum,
        apex=apex,
        star=star,
        r0_trivial=trivial,
        verdicts=verdicts,
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
    lines.append(f"fan condition (membership form): {_yesno(report.star)}")
    lines.append(f"degree-0 invariants trivial: {_yesno(report.r0_trivial)}")
    if extra_lines:
        lines.extend(extra_lines)
    lines.append("pattern table:")
    for (p, _, _, realizable, in_m), verdict in zip(_PATTERN_COLUMNS, report.verdicts):
        lines.append(
            f"  {str(p):12s} realizable={_yesno(realizable):3s} in_M={_yesno(in_m):3s} "
            f"hm={verdict.value:20s} cone={verdict.value}"
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
    w_left, w_right = [_field(doc, key) for key in ("wL", "wR")]
    w_left, w_right = _to_vec2_triple(w_left, "wL"), _to_vec2_triple(w_right, "wR")
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
    except Exception as e:
        print(f"crash: {type(e).__name__}: " + " ".join(str(e).splitlines()), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
