"""Seeded inputs and the four measured families of operations.

Every family turns a seed into a fixed list of inputs with the benchmark's
own random generator, runs them through the public API of conestab in
"passes", checks every output, and keeps the samples its end-to-end
metrics are computed from.  The program only ever sees the generated
inputs.

    analyze  build_analysis_report + canonical_json, one datum per op
    hilbert  hilbert_table on the flag datum and on random data, one per op
    verify   the five verification suites at fixed scale, one run per op
    cli      a fresh `python -m conestab.cli`, one invocation per op
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GENERIC_CONFIG = "demos/configs/generic.json"

DEFAULT_SEED = 0
SUBPROCESS_TIMEOUT_S = 60


@dataclass(frozen=True)
class Sizes:
    """Work in one pass of each family."""

    analyze_data: int = 600
    flag_nmax: int = 18
    random_nmax: int = 8
    # hilbert strata: the count of data whose character lies outside the
    # weight cone (zero tables, the largest group, so the median table is one
    # of them as in unstratified data), then (low, high, count) per band of
    # log10(estimated enumeration size); the bands carry the heavy tail.
    zero_tables: int = 30
    bands: tuple[tuple[float, float, int], ...] = (
        (0.0, 4.0, 6),
        (4.0, 5.0, 6),
        (5.0, 5.5, 6),
    )
    # each verify round runs every suite once on its own derived seed.  The
    # cost of a main-theorem trial depends on the datum: with 200 trials a
    # round the rate of a pass spread by 0.085 (interquartile range over
    # median, ten seeds) from seed to seed, with 1000 by 0.024.  The same
    # holds, less strongly, for hm-reduction (0.067 with 4 trials, 0.040
    # with 12).
    verify_rounds: int = 5
    main_theorem_trials: int = 1000
    star_trials: int = 300
    intcone_bound: int = 2
    hm_trials: int = 12
    hm_sweep_bound: int = 50
    r0_trials: int = 300
    cli_verify_trials: int = 200


FULL = Sizes()
TINY = Sizes(
    analyze_data=12,
    flag_nmax=6,
    random_nmax=4,
    zero_tables=3,
    bands=((0.0, 4.0, 1), (4.0, 5.0, 1)),
    verify_rounds=1,
    main_theorem_trials=20,
    star_trials=20,
    intcone_bound=1,
    hm_trials=2,
    r0_trials=20,
    cli_verify_trials=10,
)


def cpu_seconds() -> float:
    """CPU time of this process, all threads, in seconds.

    Ops are timed by the CPU time they use, not by wall time.  On a shared
    host the hypervisor takes the processor away now and then (steal time),
    and that inflates wall times, their tails most, by an amount that says
    nothing about the program; CPU time leaves it out.  On an idle machine
    an in-process op's CPU time is its wall time, since ops run one at a
    time on one thread.
    """
    return time.process_time()


def child_cpu_seconds() -> float:
    """User plus system time of all reaped child processes, in seconds.

    Taken before and after a child that runs on its own, the difference is
    that child's CPU time, its numpy threads included.
    """
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src first on the path."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


# ------------------------------------------------------------------ inputs


def raw_datum(rng: random.Random, bound: int, constrained: bool):
    """Weights A, B and character C drawn from the box [-bound, bound]^2.

    With the constraint, B_i = S - A_i for a common random sum S.
    """

    def vec():
        return (rng.randint(-bound, bound), rng.randint(-bound, bound))

    a = (vec(), vec(), vec())
    if constrained:
        s = vec()
        b = tuple((s[0] - x, s[1] - y) for x, y in a)
    else:
        b = (vec(), vec(), vec())
    c = vec()
    while c == (0, 0):
        c = vec()
    return a, b, c, constrained


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1]


def _positive_direction(ws):
    """A unit direction pairing strictly positively with every weight, or None.

    The benchmark's own test (floats are exact enough for weights this
    small): the dual cone of a pointed cone is spanned by two rotations of
    the weights, and their normalised sum is interior to it.
    """
    if any(w == (0, 0) for w in ws):
        return None
    rays = []
    for w in ws:
        for q in ((-w[1], w[0]), (w[1], -w[0]), w):
            if all(_dot(q, v) >= 0 for v in ws):
                n = math.hypot(*q)
                rays.append((q[0] / n, q[1] / n))
    best = None
    for i, p in enumerate(rays):
        for r in rays[i:]:
            f = (p[0] + r[0], p[1] + r[1])
            score = min(f[0] * v[0] + f[1] * v[1] for v in ws)
            if score > 1e-9 and (best is None or score > best[0]):
                best = (score, f)
    return None if best is None else best[1]


def character_outside_cone(ws, c) -> bool:
    """Some rotation of a weight (or a weight) pairs >= 0 with all weights, < 0 with c."""
    for w in ws:
        for g in ((-w[1], w[0]), (w[1], -w[0]), w):
            if _dot(g, c) < 0 and all(_dot(g, v) >= 0 for v in ws):
                return True
    return False


def enumeration_estimate(a, b, c, nmax: int) -> float:
    """log10 of a box bound on the exponent vectors counted at degree nmax.

    Used only to stratify random hilbert data: the per-table cost is
    heavy-tailed, so a fixed number of data per band keeps the work of a
    pass the same from seed to seed.
    """
    f = _positive_direction(a + b)
    fc = f[0] * c[0] + f[1] * c[1]
    free = (a[0], b[0], a[1], a[2], b[1])
    return sum(math.log10(nmax * fc / (f[0] * w[0] + f[1] * w[1]) + 1) for w in free)


def hilbert_inputs(seed: int, sizes: Sizes):
    """Random r0-trivial data at bound 3, stratified; zero-table data first."""
    rng = random.Random(seed * 7919 + 3)
    zero, banded = [], [[] for _ in sizes.bands]
    want = sizes.zero_tables + sum(n for _, _, n in sizes.bands)
    have = 0
    while have < want:
        a, b, c, con = raw_datum(rng, 3, True)
        if _positive_direction(a + b) is None:
            continue
        if character_outside_cone(a + b, c):
            if len(zero) < sizes.zero_tables:
                zero.append((a, b, c, con))
                have += 1
            continue
        e = enumeration_estimate(a, b, c, sizes.random_nmax)
        for k, (lo, hi, n) in enumerate(sizes.bands):
            if lo <= e < hi and len(banded[k]) < n:
                banded[k].append((a, b, c, con))
                have += 1
    return zero + [d for band in banded for d in band]


def analyze_inputs(seed: int, sizes: Sizes):
    """Round-robin over constrained and unconstrained data at bound 20 and
    constrained data at bound 2, which has zero, collinear and opposite weights."""
    rng = random.Random(seed * 7919 + 1)
    kinds = ((20, True), (20, False), (2, True))
    return [raw_datum(rng, *kinds[i % 3]) for i in range(sizes.analyze_data)]


def cli_argvs(seed: int, sizes: Sizes):
    return {
        "analyze": ["analyze", GENERIC_CONFIG, "--json"],
        "fan-svg": ["fan-svg", GENERIC_CONFIG, "--shade"],
        "verify": ["verify", "r0", "--trials", str(sizes.cli_verify_trials), "--seed", str(seed)],
    }


def in_process_output(argv) -> bytes:
    from conestab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"in-process cli {argv} exited {code}")
    return buf.getvalue().encode()


# ------------------------------------------------------------------ families


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def op(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(why)

    def fail_pass(self, n_ops: int, why: str) -> None:
        """A pass digest mismatch: every op of the pass produced wrong output."""
        self.failed += n_ops
        if len(self.errors) < 5:
            self.errors.append(why)


class Family:
    """A pass is the family's whole fixed input list, run one op per step.

    Every op is checked as it runs.  At the end of a pass the digest of its
    outputs must equal `expected` (recorded for the default seed) or, for
    other seeds, the first pass's digest.
    """

    name = ""
    recorder = None  # a tracing.Recorder during the traced pass

    def __init__(self, tally: Tally, expected: str | None, n_ops: int):
        self.tally = tally
        self.expected = expected
        self.n_ops = n_ops
        self.first_digest = None
        self.pass_seconds = []  # summed op time of each complete pass
        self._pos = 0
        self._chunks = []
        self._elapsed = 0.0

    def _op(self, i: int) -> tuple[float, str | bytes]:
        """Run and check op i of a pass; return its duration and its output."""
        raise NotImplementedError

    def start_turn(self) -> None:
        """The family gets the processor back from another sampler."""

    def step(self) -> float:
        if self.recorder is None:
            seconds, chunk = self._op(self._pos)
        else:
            with self.recorder.span(f"op.{self.name}"):
                seconds, chunk = self._op(self._pos)
        self._chunks.append(chunk)
        self._elapsed += seconds
        self._pos += 1
        if self._pos == self.n_ops:
            self._finish_pass()
        return seconds

    def run_pass(self) -> float:
        done = len(self.pass_seconds)
        while len(self.pass_seconds) == done:
            self.step()
        return self.pass_seconds[-1]

    def _finish_pass(self) -> None:
        d = digest(self._chunks)
        self.pass_seconds.append(self._elapsed)
        self._pos, self._chunks, self._elapsed = 0, [], 0.0
        want = self.expected if self.expected is not None else self.first_digest
        if self.first_digest is None:
            self.first_digest = d
        if want is not None and d != want:
            self.tally.fail_pass(self.n_ops, f"{self.name}: pass digest {d[:12]} != {want[:12]}")


class AnalyzeFamily(Family):
    name = "analyze"

    def __init__(self, data, tally, expected):
        super().__init__(tally, expected, len(data))
        from conestab import cli, stability

        self.cli, self.WeightDatum = cli, stability.WeightDatum
        self.data = data
        self.latencies = []
        self._untimed = 0

    def start_turn(self) -> None:
        # The first datum after another family or a child process runs on
        # cold caches, a cost that a caller looping over analyses does not
        # pay; it is run and checked but left out of the latency samples.
        self._untimed = 1

    def _op(self, i):
        a, b, c, con = self.data[i]
        t0 = cpu_seconds()
        try:
            d = self.WeightDatum(a=a, b=b, c=c, constrained=con)
            text = self.cli.canonical_json(self.cli.build_analysis_report(d).as_dict())
        except Exception as e:  # InternalError: a classifier or fan-form disagreement
            text, why = "", repr(e)
        else:
            why = "pattern table does not have 64 rows"
        seconds = cpu_seconds() - t0
        if self._untimed:
            self._untimed -= 1
        else:
            self.latencies.append(seconds)
        self.tally.op(text.count('"class_hm"') == 64, f"analyze {self.data[i]}: {why}")
        return seconds, text

    def metrics(self) -> dict:
        ms = [x * 1e3 for x in self.latencies]
        return {
            "analyze.data_per_s": (len(ms) / sum(self.latencies), "1/s"),
            "analyze.datum_p50_ms": (statistics.median(ms), "ms"),
            "analyze.datum_p99_ms": (percentile(ms, 99), "ms"),
        }


class HilbertFamily(Family):
    """Op 0 is the flag datum at flag_nmax; the rest are the random data."""

    name = "hilbert"

    def __init__(self, data, sizes: Sizes, tally, expected):
        from conestab import graded, stability

        flag = (stability.flag_datum(), sizes.flag_nmax, False)
        self.tables = [flag] + [
            (stability.WeightDatum(a=a, b=b, c=c, constrained=con), sizes.random_nmax, character_outside_cone(a + b, c))
            for a, b, c, con in data
        ]
        super().__init__(tally, expected, len(self.tables))
        self.graded = graded
        self.latencies = []
        self.dims_total = 0  # sum of every table entry in the latest pass

    def _op(self, i):
        datum, nmax, outside = self.tables[i]
        t0 = cpu_seconds()
        try:
            table = self.graded.hilbert_table(datum, nmax)
        except Exception as e:  # ValueError: the datum was not r0-trivial after all
            table, why = None, repr(e)
        seconds = cpu_seconds() - t0
        self.latencies.append(seconds)
        if i == 0:
            self.dims_total = 0
            ok = table == [(n + 1) ** 3 for n in range(nmax + 1)]
        else:
            ok = table is not None and table[0] == 1 and not (outside and any(table[1:]))
        if table is not None:
            self.dims_total += sum(table)
            why = f"table {table}"
        self.tally.op(ok, f"hilbert {datum!r}: {why}")
        return seconds, json.dumps(table)

    def metrics(self) -> dict:
        return {
            # a mean, not a median: the long flag table's time is bimodal from
            # pass to pass, and a median of a few passes jumps between modes
            "hilbert.wall_s": (statistics.fmean(self.pass_seconds), "s"),
            "hilbert.table_p50_ms": (statistics.median(self.latencies) * 1e3, "ms"),
        }


SUITES = ("main-theorem", "star-equivalence", "intcone", "hm-reduction", "r0")


class VerifyFamily(Family):
    """One op per suite run; star-equivalence runs in both constraint regimes.

    A pass is verify_rounds rounds of all suites, so each suite's samples
    are spread over the run.
    """

    name = "verify"

    def __init__(self, seed: int, sizes: Sizes, tally, expected):
        from conestab import verify

        cfg = verify.TrialConfig
        s = sizes
        # (suite, function name, config, keyword arguments, exact checked count)
        self.runs = []
        for j in range(s.verify_rounds):
            sd = seed * 10 + j
            self.runs += [
                ("main-theorem", "verify_main_theorem", cfg(sd, s.main_theorem_trials, 20, True), {}, s.main_theorem_trials),
                ("star-equivalence", "verify_star_equivalence", cfg(sd, s.star_trials, 20, True), {}, s.star_trials),
                ("star-equivalence", "verify_star_equivalence", cfg(sd, s.star_trials, 20, False), {}, s.star_trials),
                ("intcone", "verify_intcone", cfg(sd, 1, s.intcone_bound, True), {}, (2 * s.intcone_bound + 1) ** 6),
                ("hm-reduction", "verify_hm_reduction", cfg(sd, s.hm_trials, 20, True), {"sweep_bound": s.hm_sweep_bound}, 64 * s.hm_trials),
                ("r0", "verify_r0", cfg(sd, s.r0_trials, 20, True), {}, 3 * s.r0_trials),
            ]
        super().__init__(tally, expected, len(self.runs))
        self.verify = verify
        self.checked = {name: 0 for name in SUITES}
        self.seconds = {name: 0.0 for name in SUITES}
        self.details = {}  # per suite, counts summed over the latest pass

    def _op(self, i):
        suite, fname, cfg, kwargs, want = self.runs[i]
        fn = getattr(self.verify, fname)  # looked up per call so the span wrappers apply
        t0 = cpu_seconds()
        report = fn(cfg, **kwargs)
        seconds = cpu_seconds() - t0
        self.seconds[suite] += seconds
        self.checked[suite] += report.checked
        if i == 0:
            self.details = {name: {} for name in SUITES}
        counts = dict(report.details, checked=report.checked, trials=cfg.trials)
        totals = self.details[suite]
        for key in ("checked", "trials", "hypothesis_hits", "exact_fallback_data"):
            if key in counts:
                totals[key] = totals.get(key, 0) + counts[key]
        self.tally.op(
            report.passed and report.checked == want,
            f"{suite}: passed={report.passed} checked={report.checked} want {want}: {report.first_failure}",
        )
        return seconds, json.dumps(report.as_dict(), sort_keys=True)

    def metrics(self) -> dict:
        return {
            f"verify.{suite}.checked_per_s": (self.checked[suite] / self.seconds[suite], "1/s")
            for suite in SUITES
        }


CLI_COMMANDS = ("analyze", "fan-svg", "verify")


class CliFamily(Family):
    """Cold invocations, round-robin over the subcommands, each checked byte
    for byte against cli.main run in-process on the same argv.

    With a recorder, each child is started through cli_child.py, which
    installs the span wrappers before calling cli.main and leaves its
    per-function totals in `trace_dir`.
    """

    name = "cli"
    trace_dir = None

    def __init__(self, seed: int, sizes: Sizes, tally, expected):
        super().__init__(tally, expected, len(CLI_COMMANDS))
        self.argvs = cli_argvs(seed, sizes)
        self.references = {k: in_process_output(v) for k, v in self.argvs.items()}
        self.child_totals = []
        self.latencies = {k: [] for k in CLI_COMMANDS}
        self.env = child_env()

    def _op(self, i):
        sub = CLI_COMMANDS[i]
        argv = self.argvs[sub]
        if self.recorder is None:
            cmd, totals = [sys.executable, "-m", "conestab.cli", *argv], None
        else:
            totals = self.trace_dir / f"cli-{len(self.child_totals)}.json"
            cmd = [sys.executable, str(ROOT / "bench" / "cli_child.py"), str(totals), *argv]
        t0 = child_cpu_seconds()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
        seconds = child_cpu_seconds() - t0
        self.latencies[sub].append(seconds)
        if totals is not None and totals.is_file():
            self.child_totals.append(json.loads(totals.read_text()))
        self.tally.op(
            proc.returncode == 0 and proc.stdout == self.references[sub],
            f"cli {sub}: exit {proc.returncode} or stdout differs from in-process: {proc.stderr[-300:]!r}",
        )
        return seconds, proc.stdout

    def metrics(self) -> dict:
        return {
            f"cli.{sub}.p50_ms": (statistics.median(self.latencies[sub]) * 1e3, "ms")
            for sub in CLI_COMMANDS
        }


def build_families(seed: int, sizes: Sizes, tally: Tally, expected: dict):
    """All four families for one seed, keyed by family name.

    `expected` maps a seed (as a string) to the recorded digest of each
    family; seeds without an entry are checked for repeatability only.
    """
    exp = expected.get(str(seed), {})
    return {
        "analyze": AnalyzeFamily(analyze_inputs(seed, sizes), tally, exp.get("analyze")),
        "hilbert": HilbertFamily(hilbert_inputs(seed, sizes), sizes, tally, exp.get("hilbert")),
        "verify": VerifyFamily(seed, sizes, tally, exp.get("verify")),
        "cli": CliFamily(seed, sizes, tally, exp.get("cli")),
    }
