"""signalbox benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics of an
untraced, closed-loop run with one caller, with every time scaled to a
core of reference speed (see speed.py); with ``--trace 1`` it runs a
fixed set of operations in alternating untraced and traced passes and
reports the per-layer metrics.  Every outcome is checked against the
independent reference.  The last line of standard output is the JSON result; the
lines before it repeat the metrics for a reader.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SPAWNS = 9
SPAWN_TIMEOUT_S = 60

# The timed loop runs in slices of about SLICE_S, with a calibration
# (speed.calibrate) between every two slices.  Each slice's wall time,
# and the latency of each operation in it, is scaled to reference speed
# by the calibrations just before and just after it (speed.scale).  The
# host's speed changes within tens of milliseconds, so a slice whose two
# calibrations differ by more than SPEED_CHANGE times changed speed
# inside it and cannot be scaled: it is left out of the metrics, unless
# the slices kept would hold less than MIN_KEPT of the operations, in
# which case all are used.  Set-up probes calibrate around their own
# timing.
SLICE_S = 0.05
SPEED_CHANGE = 1.3
MIN_KEPT = 0.25

# A fresh interpreter imports numpy, reads its inputs, then times
# ``import signalbox`` plus the workload's warm-up between two
# calibrations.  It then runs any further operations it was given.
SETUP_PROBE = r"""
import json, sys, time
import numpy
payload = json.loads(sys.stdin.read())
sys.path.insert(0, payload["bench"])
import speed, workloads
items = [workloads.decode(d) for d in payload["items"]]
warm = payload["warmup"]
speed.calibrate()
before = speed.calibrate()
start = time.perf_counter()
sys.path.insert(0, payload["src"])
import signalbox
op = workloads.make_op(payload["workload"], signalbox)
for item in items[:warm]:
    op(item)
setup_s = time.perf_counter() - start
after = speed.calibrate()
for item in items[warm:]:
    op(item)
print(json.dumps({"setup_s": setup_s, "scale": speed.scale(before, after)}))
"""

# Linux carries a process's peak resident set across fork and exec, so a
# probe started from this (large) process would report at least this
# process's peak.  A small launcher in between starts the probe with a
# fresh count and prints the peak of its waited-for child, in KiB.  Its
# own timeout is shorter, so that it stops the probe before it is stopped.
RSS_LAUNCHER = (
    "import resource, subprocess, sys; "
    f"subprocess.run(sys.argv[1:], check=True, timeout={SPAWN_TIMEOUT_S - 10}); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


def import_package():
    """Import signalbox from this checkout's src/, nowhere else."""
    init = os.path.join(SRC, "signalbox", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no signalbox package at {init}")
    sys.path.insert(0, SRC)
    import signalbox

    if os.path.realpath(signalbox.__file__) != os.path.realpath(init):
        sys.exit(f"perfbench: imported signalbox from {signalbox.__file__}, not {init}")
    return signalbox


def setup_probe(workload, items, with_rss):
    """One fresh interpreter: its set-up time, and with ``with_rss`` the
    peak resident set after ``rss_ops`` further operations."""
    import workloads

    count = workload.warmup + (workload.rss_ops if with_rss else 0)
    payload = {
        "bench": BENCH,
        "src": SRC,
        "workload": workload.name,
        "warmup": workload.warmup,
        "items": [workloads.encode(item) for item in items[:count]],
    }
    cmd = [sys.executable, "-c", SETUP_PROBE]
    if with_rss:
        cmd = [sys.executable, "-c", RSS_LAUNCHER] + cmd
    done = subprocess.run(cmd, input=json.dumps(payload), capture_output=True, text=True, cwd=ROOT, timeout=SPAWN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    if with_rss:
        return json.loads(lines[-2]), int(lines[-1]) / 1024.0
    return json.loads(lines[-1]), None


def timed_loop(op, items, seconds):
    """Closed loop with one caller: each operation starts when the last ends.

    Runs slices of about SLICE_S with a calibration between every two.
    Returns the latency and outcome of every operation and, per slice,
    ``(first op, end op, wall seconds, scale to reference speed, steady)``,
    where ``steady`` is false when the speed changed during the slice.
    """
    latencies, outcomes, slices = [], [], []
    clock = time.perf_counter
    deadline = clock() + seconds
    index = 0
    before = speed.calibrate()
    while index < len(items) and clock() < deadline:
        first = index
        slice_start = clock()
        slice_end = slice_start + SLICE_S
        while index < len(items):
            t0 = clock()
            outcome = op(items[index])
            t1 = clock()
            latencies.append(t1 - t0)
            outcomes.append(outcome)
            index += 1
            if t1 >= slice_end:
                break
        after = speed.calibrate()
        steady = max(before, after) <= SPEED_CHANGE * min(before, after)
        slices.append((first, index, t1 - slice_start, speed.scale(before, after), steady))
        before = after
    return latencies, outcomes, slices


def failures_of(workload, items, refs, outcomes):
    """Failure reasons of the outcomes against precomputed references."""
    failures = []
    for index, (item, ref, outcome) in enumerate(zip(items, refs, outcomes)):
        try:
            reason = workload.check(item, ref, outcome)
        except Exception as exc:  # output the check cannot even parse is a failure
            reason = f"check raised {exc!r}"
        if reason is not None:
            failures.append(f"op {index}: {reason}")
    return failures


def tail(latencies, group):
    """Highest percentile with ten samples beyond it, per group of ``group``.

    Returns the median over the groups, the percentile and the group count.
    """
    n = len(latencies)
    if n < 11:
        raise RuntimeError(f"only {n} operations ran; the tail needs at least 11")
    size = min(n, group)
    groups = [sorted(latencies[k : k + size]) for k in range(0, n - size + 1, size)]
    return statistics.median(g[size - 11] for g in groups), 100.0 * (size - 10) / size, len(groups)


def run_untraced(workload, items, op, seconds, notes):
    probes = [setup_probe(workload, items, with_rss=k == SETUP_SPAWNS - 1) for k in range(SETUP_SPAWNS)]
    warm = items[: workload.warmup]
    warm_out = [op(item) for item in warm]
    rest = items[workload.warmup :]
    # The inputs and references are this harness's, not the program's:
    # keep them out of the garbage collector's full passes.
    gc.collect()
    gc.freeze()
    latencies, outcomes, slices = timed_loop(op, rest, seconds)
    if len(outcomes) == len(rest):
        notes.append(f"input pool of {len(rest)} ran out")
    ran = warm + rest[: len(outcomes)]
    failures = failures_of(workload, ran, workload.prepare(ran), warm_out + outcomes)

    kept = [s for s in slices if s[4]]
    if sum(s[1] - s[0] for s in kept) < MIN_KEPT * len(latencies):
        notes.append("the host changed speed in most slices: every slice is used")
        kept = slices
    scaled = [latencies[j] * s[3] for s in kept for j in range(s[0], s[1])]
    n = len(scaled)
    wall = sum(s[2] for s in slices)
    reference = sum(s[2] * s[3] for s in kept)
    value, pct, groups = tail(scaled, workload.tail_group)
    factors = [s[3] for s in slices]
    setups = [probe["setup_s"] * probe["scale"] for probe, _ in probes]
    notes.append(
        f"{n} operations in {len(kept)} of {len(slices)} slices, {reference:.3f} s at reference speed; "
        f"all slices wall-clock: {len(latencies) / wall:.6g} ops/s, p50 {statistics.median(latencies) * 1e3:.6g} ms"
    )
    notes.append(
        f"host speed against reference: median {statistics.median(factors):.3f}, "
        f"range {min(factors):.3f} to {max(factors):.3f}"
    )
    notes.append(f"latency_tail_ms is the median over {groups} groups of {min(n, workload.tail_group)} operations of their p{pct:.2f}")
    notes.append(
        f"setup_s is the median of {SETUP_SPAWNS} fresh interpreters (wall-clock median "
        f"{statistics.median(p['setup_s'] for p, _ in probes):.6g} s); peak_rss_mb is from the last"
    )
    metrics = {
        "ops_per_s": (n / reference, "1/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (probes[-1][1], "MB"),
    }
    return metrics, len(ran), failures


def run_traced(workload, items, op, seconds, seed, notes):
    """Alternate untraced and traced passes over one fixed set of operations.

    Passes repeat until ``seconds`` have gone by.  Every metric is a
    per-operation average over the traced passes, so counts repeat
    exactly for a seed; the spans of the first traced pass are written out.
    """
    import tracer as T

    for item in items[: workload.warmup]:
        op(item)
    chosen = items[workload.warmup : workload.warmup + workload.traced_ops]
    refs = workload.prepare(chosen)
    trace = T.Tracer()
    failures = []
    passes = 0
    untraced_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        start = time.perf_counter()
        plain = [op(item) for item in chosen]
        untraced_s += time.perf_counter() - start
        trace.install()
        try:
            start = time.perf_counter()
            traced = []
            for index, item in enumerate(chosen):
                trace.op = index
                traced.append(op(item))
            traced_s += time.perf_counter() - start
        finally:
            trace.remove()
        failures += failures_of(workload, chosen, refs, plain) + failures_of(workload, chosen, refs, traced)
        if not passes:
            path = os.path.join(OUT, f"spans-{workload.name}-{seed}.csv")
            trace.write_spans(path)
            notes.append(f"{len(trace.spans)} spans of the first traced pass written to {os.path.relpath(path, ROOT)}")
        trace.fold()
        passes += 1
    metrics = trace.metrics(passes * len(chosen))
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    notes.append(f"{passes} passes of {len(chosen)} operations each, untraced then traced")
    return metrics, 2 * passes * len(chosen), failures


def nan_probe(workload, op):
    """Known defect: NaN tables pass validation (exit 0, not 2)."""
    items = workload.nan_items()
    codes = [getattr(outcome, "kind", None) or outcome[0] for outcome in map(op, items)]
    wrong = sum(code != 2 for code in codes)
    return f"known defect: {wrong} of {len(items)} NaN-table calls exit {codes}, the reference expects 2"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sb = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](sb, args.seed, OUT)
    started = time.perf_counter()
    try:
        items = workload.generate()
        op = workloads.make_op(workload.name, sb)
        notes = [f"generated {len(items)} inputs in {time.perf_counter() - started:.2f} s"]
        problem = workload.selfcheck()
        if args.trace:
            metrics, attempted, failures = run_traced(workload, items, op, args.seconds, args.seed, notes)
        else:
            metrics, attempted, failures = run_untraced(workload, items, op, args.seconds, notes)
            if workload.name == "cli":
                notes.append(nan_probe(workload, op))
    finally:
        if workload.name == "cli":
            shutil.rmtree(workload.files, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"{args.workload}: {note}")
    if problem:
        print(f"{args.workload}: FAILED self-check: {problem}")
    for reason in failures[:10]:
        print(f"{args.workload}: FAILED {reason}")
    print(f"{args.workload}: {attempted} operations checked, {len(failures)} failed; run took {time.perf_counter() - started:.1f} s")
    result = {
        "correct": not failures and problem is None,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
