"""grady benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload star_calculus --seed 0 --seconds 25 \
        --trace 0

Run from the root of a source checkout; grady is imported from ./src.
The process imports grady, builds its inputs from the seed (three
times, keeping the median as set-up time), then runs one closed-loop
client for --seconds: each operation starts when the previous one
returns, and its output is checked after its clock stops.  Cold CLI
runs are spread through the loop with the clock paused.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every
operation twice, untraced and then traced, and reports per-layer
metrics from the traced copies plus trace.overhead_ratio (traced time
over untraced time).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it
describe the run for a human reader.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
DIGEST_INPUTS = 400
SETUP_REPEATS = 3
MIN_OPS = 100
CLI_RUNS = 9
WARMUP_OPS = 4


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def digest(out):
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_digests(workload):
    """Committed output digests of the first DIGEST_INPUTS inputs of the
    default seed's pool (written by make_digests.py)."""
    with open(BENCH / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)[workload]


def quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def environment():
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            lines += sum(1 for _ in handle)
    return {"git": sha, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "src_lines": lines}


def build_pool(workload, seed, size):
    """Generate records from the seed and turn them into grady objects,
    then run a few ops untimed so lazy imports and first-call costs land
    in set-up."""
    import gen
    from spans import OFF
    records = gen.GENERATORS[workload.name](seed, size)
    if hasattr(workload, "prepare_pool"):
        items = workload.prepare_pool(records)
    else:
        items = [workload.prepare(rec) for rec in records]
    for item in items[:WARMUP_OPS]:
        workload.op(item, OFF)
    return records, items


class Checker:
    """Counts attempted and failed ops.  An op fails when it raises,
    fails its workload's check, gives a different output than an earlier
    op on the same input, or (default seed) differs from the committed
    digest; invariant checks and cold CLI runs report here too."""

    def __init__(self, workload, items, expected):
        self.workload = workload
        self.items = items
        self.expected = expected or []
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def __call__(self, index, out, error):
        self.attempted += 1
        ok = error is None and self.workload.check(self.items[index], out)
        if ok:
            d = digest(out)
            ok = self.first.setdefault(index, d) == d
            ok = ok and (index >= len(self.expected)
                         or self.expected[index] == d)
        if not ok:
            self.fail(f"op on input {index}: "
                      f"{error or json.dumps(out)[:200]}")

    def fail(self, reason):
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


def closed_loop(workload, items, seconds, tracer, checker, breaks=()):
    """One client: op i+1 starts when op i returns (and its output is
    checked), cycling through the pool for `seconds` of loop time.  Each
    callable in `breaks` runs once between two ops, at evenly spaced
    moments, with the clock paused.  Returns one list of op wall times
    per mode; with a tracer each op runs both untraced and traced on the
    same input, the two in alternating order so that neither copy always
    gets the other's warm caches."""
    from spans import OFF
    lat = ([], [])
    modes = [(OFF, lat[0])]
    if tracer is not None:
        modes.append((tracer, lat[1]))
    start = time.perf_counter()
    deadline = start + seconds
    pending = list(breaks)
    due = [start + seconds * (k + 0.5) / len(breaks)
           for k in range(len(breaks))]
    i = 0
    while True:
        index = i % len(items)
        for t, times in modes if i % 2 == 0 else modes[::-1]:
            a = time.perf_counter()
            try:
                out, error = workload.op(items[index], t), None
            except Exception as exc:  # a raising op counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - a)
            checker(index, out, error)
        i += 1
        now = time.perf_counter()
        if due and now >= due[0]:
            due.pop(0)
            pending.pop(0)()
            paused = time.perf_counter() - now
            deadline += paused
            due = [d + paused for d in due]
        elif now >= deadline:
            for run in pending:
                run()
            return lat


def deep_checks(workload, items, checker):
    """Expensive invariants on a fixed sample, outside the timed region."""
    for index, item in enumerate(items[:getattr(workload, "check_sample",
                                                0)]):
        checker.attempted += 1
        try:
            workload.deep_check(item)
        except AssertionError as exc:
            checker.fail(f"invariant on input {index}: {exc}")


def cli_runs(workload, records, checker, times):
    """One callable per generated job document (at most CLI_RUNS): each
    times a fresh `python -m grady.cli run -` fed the document on stdin,
    appends the wall time to `times`, and checks that it exits 0 and,
    where the workload knows the in-process rendering, prints exactly
    that."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    docs = [d for d in map(workload.cli_doc, records) if d][:CLI_RUNS]

    def run(doc):
        a = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "grady.cli", "run", "-"], input=doc,
            capture_output=True, text=True, cwd=str(ROOT), env=env,
            timeout=120)
        times.append(time.perf_counter() - a)
        checker.attempted += 1
        want = getattr(workload, "cli_expect", lambda d: None)(doc)
        if proc.returncode != 0 or (want is not None
                                    and proc.stdout.rstrip("\n") != want):
            checker.fail(f"cli run: exit {proc.returncode}, "
                         f"{proc.stdout.strip()[:200]}")

    return [functools.partial(run, doc) for doc in docs]


def enough_samples(lat, checker):
    """p90 needs at least ten samples beyond it: a run with fewer than
    MIN_OPS timed ops counts one failure."""
    checker.attempted += 1
    if len(lat) < MIN_OPS:
        checker.fail(f"only {len(lat)} timed ops, {MIN_OPS} needed for "
                     f"latency_p90_ms")


def end_to_end(lat, setup_s, cli_times):
    """ops_per_s is ops completed over the op time they took, every op
    of the run, tail included."""
    rate = len(lat) / sum(lat)
    lat = sorted(lat)
    return {
        "ops_per_s": (rate, "1/s"),
        "latency_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(lat, 0.9) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "cli_cold_ms": (statistics.median(cli_times) * 1e3, "ms"),
    }


def per_layer(spec, tracer, lat):
    """Every per-layer metric in the spec, as a total over the traced ops
    divided by their number; layers this workload never calls read 0."""
    untraced, traced = lat
    n = len(traced)
    out = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead_ratio":
            value = sum(traced) / sum(untraced)
        elif name.endswith("_s"):
            value = tracer.seconds.get(name[:-2], 0.0) / n
        elif name.endswith("_calls"):
            value = tracer.calls.get(name[:-6], 0) / n
        else:
            value = tracer.counts.get(name, 0) / n
        out[name] = (value, unit)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grady" / "__init__.py").is_file():
        print(f"no grady sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    a = time.perf_counter()
    import grady  # noqa: F401  (timed: the import is part of set-up)
    import_s = time.perf_counter() - a
    from spans import Tracer
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        a = time.perf_counter()
        records, items = build_pool(workload, args.seed,
                                    workload.pool_size)
        setups.append(time.perf_counter() - a)
    setup_s = import_s + statistics.median(setups)

    expected = None
    if args.seed == DEFAULT_SEED:
        expected = load_digests(workload.name)
    checker = Checker(workload, items, expected)
    tracer = Tracer() if args.trace else None
    cli_times = []
    breaks = [] if args.trace else cli_runs(workload, records, checker,
                                            cli_times)
    lat = closed_loop(workload, items, args.seconds, tracer, checker,
                      breaks)
    deep_checks(workload, items, checker)
    if not args.trace:
        enough_samples(lat[0], checker)
    metrics = per_layer(spec, tracer, lat) if args.trace \
        else end_to_end(lat[0], setup_s, cli_times)

    env = environment()
    print(f"# workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} pool={len(items)} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# attempted={checker.attempted} failed={checker.failed} "
          f"failed_ratio={checker.failed / checker.attempted:.4f} "
          f"samples={len(lat[0])} "
          f"import_s={import_s:.4f} setups_s="
          + ",".join(f"{s:.4f}" for s in setups)
          + f" process_s={time.perf_counter() - _PROCESS_START:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for line in checker.reasons:
        print(f"# FAIL {line}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted, "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
