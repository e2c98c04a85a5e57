"""Span tracing of conestab's public functions, installed from outside the package.

A span is (name, request, parent, start, end).  Spans stay in memory in
flat arrays while the traced work runs and are written out afterwards;
a function's self time is its span's duration minus the time its child
spans cover.

Wrappers replace every binding of a wrapped function in the loaded
conestab modules, including names imported into other modules (graded
imports strictly_separates; cli and verify import the classifiers, the
fan-condition forms, r0_is_trivial, hilbert_table and
find_invariant_monomial by name) and dict registries such as
verify.VERIFY_SUITES.  Methods, including the constructors reported as
`new`, are patched on the class.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

# (module, function) wrapped at every binding site, reported as "module.function"
FUNCTIONS = (
    ("cones", "strictly_separates"),
    ("stability", "classify_by_one_ps"),
    ("stability", "classify_by_cone"),
    ("stability", "hm_weight"),
    ("stability", "fan_condition"),
    ("stability", "fan_condition_membership"),
    ("stability", "r0_is_trivial"),
    ("graded", "hilbert_table"),
    ("graded", "graded_dim"),
    ("graded", "find_invariant_monomial"),
    ("verify", "verify_main_theorem"),
    ("verify", "verify_star_equivalence"),
    ("verify", "verify_intcone"),
    ("verify", "verify_hm_reduction"),
    ("verify", "verify_r0"),
    ("verify", "main_theorem_sides"),
    ("cli", "build_analysis_report"),
    ("cli", "canonical_json"),
    ("cli", "main"),
    ("svg", "fan_svg"),
)

# (module, class, method, reported name)
METHODS = (
    ("cones", "Cone2", "__init__", "cones.Cone2.new"),
    ("cones", "Cone2", "contains", "cones.Cone2.contains"),
    ("cones", "Cone2", "interior_contains", "cones.Cone2.interior_contains"),
    ("cones", "Cone2", "has_apex", "cones.Cone2.has_apex"),
    ("cones", "Cone2", "linear_hull_dim", "cones.Cone2.linear_hull_dim"),
    ("stability", "WeightDatum", "__init__", "stability.WeightDatum.new"),
)

LAYER_FUNCTIONS = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(n for *_, n in METHODS)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.request = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._request = -1

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.request.append(self._request)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def wrap(self, label: str, fn):
        nid = self._id(label)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    @contextlib.contextmanager
    def span(self, label: str):
        """A span opened by the harness; at the top level it starts a new request."""
        if not self._stack:
            self._request += 1
        i = self._open(self._id(label))
        try:
            yield
        finally:
            self._close(i)

    def totals(self) -> dict[str, list]:
        """{name: [calls, self seconds]} over all recorded spans."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - covered[i]
        return out

    def dump(self, path) -> None:
        """Write every span as one gzipped JSON line: name, request, parent, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'["{self.names[self.name[i]]}",{self.request[i]},{self.parent[i]},'
                    f"{self.start[i]!r},{self.end[i]!r}]\n"
                )


def merge_totals(into: dict, more: dict) -> None:
    for name, (calls, self_s) in more.items():
        entry = into.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += self_s


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrap every listed function and method while the block runs."""
    mods = {m: importlib.import_module(f"conestab.{m}") for m in ("cones", "stability", "graded", "verify", "svg", "cli")}
    loaded = [mod for name, mod in list(sys.modules.items()) if name == "conestab" or name.startswith("conestab.")]
    undo = []
    for m, fname in FUNCTIONS:
        orig = getattr(mods[m], fname)
        wrapper = rec.wrap(f"{m}.{fname}", orig)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((setattr, mod, attr, orig))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is orig:
                            undo.append((dict.__setitem__, value, key, orig))
                            value[key] = wrapper
    for m, cls_name, meth, label in METHODS:
        cls = getattr(mods[m], cls_name)
        orig = cls.__dict__[meth]
        undo.append((setattr, cls, meth, orig))
        setattr(cls, meth, rec.wrap(label, orig))
    try:
        yield rec
    finally:
        for put, obj, key, orig in reversed(undo):
            put(obj, key, orig)


def write_totals(path, totals: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(totals, fh)
