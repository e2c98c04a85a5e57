"""conestab benchmark: closed-loop, single-caller workloads over the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Every result carries every end-to-end metric, so every workload runs all
four families of operations (see workloads.py), interleaved for S
seconds; the workload only decides which family gets the largest share of
the time.  setup_s is the median CPU time of cold processes that import
conestab.cli and build the inputs, interleaved with the rest.

With --trace 1 the run makes one untraced and one traced pass of every
family instead and reports per-layer metrics: calls and self time of each
wrapped function, the import split, two useful-work ratios with their
bases, the exact sum of all graded dimensions, and the traced/untraced
CPU-time ratio of the workload's own family.  Spans are written to
.bench_out/.

The last line of stdout is the result, {"correct", "attempted", "failed",
"metrics"}; the line before it is the run record (versions, machine,
seed, digests, errors).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import ROOT, SRC

# workload -> the family that gets OWN_SHARE of its time
WORKLOADS = {
    "analyze-stream": "analyze",
    "cli-cold": "cli",
}
FAMILY_ORDER = ("analyze", "hilbert", "verify", "cli")
# time shares of the interleaved samplers: the workload's own family, each
# other family, and the cold set-up probe
OWN_SHARE = 2.0
SETUP_SHARE = 0.5
# a sampler keeps the processor for this long before the next one is chosen,
# so ops rarely start right after a child process
QUANTUM_S = 0.5
MIN_SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
OUT_DIR = ROOT / ".bench_out"
EXPECTED = ROOT / "bench" / "expected.json"


def _child(args) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=workloads.child_env(),
        capture_output=True,
        timeout=workloads.SUBPROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    return proc


def setup_probe(seed: int) -> float:
    """CPU time of one cold process that imports conestab.cli and builds the inputs."""
    t0 = workloads.child_cpu_seconds()
    _child([str(ROOT / "bench" / "setup_probe.py"), str(seed)])
    return workloads.child_cpu_seconds() - t0


def import_split_ms() -> tuple[float, float]:
    """Median cumulative import time of conestab.cli and of numpy, from -X importtime."""
    cli_us, numpy_us = [], []
    for _ in range(IMPORT_SAMPLES):
        err = _child(["-X", "importtime", "-c", "import conestab.cli"]).stderr.decode()
        found = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                name = parts[2].strip()
                if name in ("conestab.cli", "numpy") and name not in found:
                    found[name] = int(parts[1])
        cli_us.append(found["conestab.cli"])
        numpy_us.append(found["numpy"])
    return statistics.median(cli_us) / 1e3, statistics.median(numpy_us) / 1e3


def measure(workload: str, seed: int, seconds: float, sizes, expected: dict):
    """Untraced run: returns (end-to-end metrics, tally, families).

    The families and the cold set-up probe take turns of QUANTUM_S, so
    that each metric samples the whole run rather than one stretch of it:
    the machine's speed drifts over tens of seconds.  Each turn goes to the
    sampler furthest below its share of the time.  After `seconds`, only
    families still short of one complete pass, and the set-up probe until
    it has MIN_SETUP_SAMPLES, go on.
    """
    tally = workloads.Tally()
    fams = workloads.build_families(seed, sizes, tally, expected)
    setup = []

    def probe() -> float:
        setup.append(setup_probe(seed))
        return setup[-1]

    steps = {name: fam.step for name, fam in fams.items()}
    steps["setup"] = probe
    share = {name: OWN_SHARE if name == WORKLOADS[workload] else 1.0 for name in fams}
    share["setup"] = SETUP_SHARE
    spent = dict.fromkeys(steps, 0.0)
    deadline = time.perf_counter() + seconds
    while True:
        due = [name for name, fam in fams.items() if not fam.pass_seconds]
        if len(setup) < MIN_SETUP_SAMPLES:
            due.append("setup")
        if time.perf_counter() < deadline:
            due = list(steps)
        elif not due:
            break
        name = min(due, key=lambda k: spent[k] / share[k])
        if name in fams:
            fams[name].start_turn()
        quantum = spent[name] + QUANTUM_S
        while spent[name] < quantum:
            spent[name] += steps[name]()
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for name in FAMILY_ORDER:
        metrics.update(fams[name].metrics())
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, tally, fams


def trace(workload: str, seed: int, sizes, expected: dict):
    """Traced run: returns (per-layer metrics, tally, families)."""
    from tracing import LAYER_FUNCTIONS, Recorder, installed, merge_totals

    tally = workloads.Tally()
    fams = workloads.build_families(seed, sizes, tally, expected)
    own = WORKLOADS[workload]
    for name in FAMILY_ORDER:
        fams[name].run_pass()
    plain = fams[own].run_pass()  # warm, untraced: the base of trace.overhead_ratio

    trace_dir = OUT_DIR / f"trace-{workload}-{seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    rec = Recorder()
    for fam in fams.values():
        fam.recorder = rec
    fams["cli"].trace_dir = trace_dir
    with installed(rec):
        traced = {name: fams[name].run_pass() for name in FAMILY_ORDER}
    totals = rec.totals()
    for child in fams["cli"].child_totals:
        merge_totals(totals, child)
    rec.dump(trace_dir / "spans.jsonl.gz")

    metrics = {}
    for fn in LAYER_FUNCTIONS:
        calls, self_s = totals.get(fn, (0, 0.0))
        metrics[f"{fn}.calls"] = (calls, "count")
        metrics[f"{fn}.self_s"] = (self_s, "s")
    conestab_ms, numpy_ms = import_split_ms()
    metrics["cli.import.conestab_ms"] = (conestab_ms, "ms")
    metrics["cli.import.numpy_ms"] = (numpy_ms, "ms")
    details = fams["verify"].details
    intcone, hm = details["intcone"], details["hm-reduction"]
    metrics["verify.intcone.hit_ratio"] = (intcone["hypothesis_hits"] / intcone["checked"], "ratio")
    metrics["verify.intcone.checked"] = (intcone["checked"], "count")
    metrics["verify.hm-reduction.fallback_ratio"] = (hm["exact_fallback_data"] / hm["trials"], "ratio")
    metrics["verify.hm-reduction.trials"] = (hm["trials"], "count")
    metrics["graded.dims_total"] = (fams["hilbert"].dims_total, "count")
    metrics["trace.overhead_ratio"] = (traced[own] / plain, "ratio")
    return metrics, tally, fams


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, timeout=10
        )
    except OSError:
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, tally, fams) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "errors": tally.errors,
        "passes": {name: len(f.pass_seconds) for name, f in fams.items()},
        "digests": {name: f.first_digest for name, f in fams.items()},
    }


def result(metrics: dict, tally) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conestab" / "__init__.py").is_file():
        print(f"error: no conestab package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conestab

    if Path(conestab.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: conestab imported from {conestab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    if args.trace:
        metrics, tally, fams = trace(args.workload, args.seed, workloads.FULL, expected)
    else:
        metrics, tally, fams = measure(args.workload, args.seed, args.seconds, workloads.FULL, expected)
    print(json.dumps({"record": run_record(args, tally, fams)}))
    print(json.dumps(result(metrics, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
