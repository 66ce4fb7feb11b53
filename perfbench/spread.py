"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads classify sweep --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --against 11-20

For each workload this runs ``run.py --trace 0`` once per seed, one run
at a time, and prints each metric's median and its quartile spread,
``(Q3 - Q1) / median`` with quartiles from ``statistics.quantiles(n=4)``,
next to the metric's bound in BENCHMARK.json.  A spread above a third of
the bound is flagged, except for ``setup_s``, whose spread the bound does
not cover.  With ``--against`` a second seed set is run and each median
must be within the bound of the first, so a fast path tuned to the first
seeds shows.  Results are appended as JSON lines to ``--log``.  The exit
code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, log):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    *notes, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"workload": workload, "seed": seed, **result, "notes": notes}) + "\n")
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect output:\n{done.stdout[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--against", type=seed_range)
    parser.add_argument("--log", default=os.path.join(ROOT, ".bench_out", "spread.jsonl"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(os.path.dirname(args.log), exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads or [w["name"] for w in spec["workloads"]]:
        sets = [args.seeds] + ([args.against] if args.against else [])
        medians = []
        for seeds in sets:
            runs = [run_once(spec, workload, seed, args.log) for seed in seeds]
            medians.append({})
            for name, bound in bounds.items():
                median, spread = summarise([r[name] for r in runs])
                medians[-1][name] = median
                flag = ""
                if name != "setup_s" and spread > bound / 3.0:
                    flag = "  SPREAD ABOVE BOUND/3"
                    ok = False
                print(
                    f"{workload:10s} seeds {seeds[0]}-{seeds[-1]} {name:16s} median {median:12.6g} {units[name]:4s} "
                    f"spread {spread:7.4f}  bound {bound}{flag}"
                )
        if len(medians) == 2:
            for name, bound in bounds.items():
                first, second = medians[0][name], medians[1][name]
                better_higher = next(m["better"] for m in spec["end_to_end"] if m["name"] == name) == "higher"
                worse = (first - second) / first if better_higher else (second - first) / first
                verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
                ok &= worse <= bound
                print(f"{workload:10s} {name:16s} second median is {worse:+.4f} worse than the first (bound {bound}): {verdict}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
