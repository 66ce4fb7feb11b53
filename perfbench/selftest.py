"""Self-tests of the benchmark itself, not of signalbox.

    python3 perfbench/selftest.py

* One seed gives the same inputs in two interpreters with different
  hash seeds, and another seed gives other inputs.
* The check counts perturbed results as failed: ``eta + 1e-6``, a
  flipped ``classical`` verdict, a decomposition cost off by 1e-6 and a
  wrong CLI exit code.
* After a traced run, every traced name at every signalbox namespace is
  the original object again.
* The count metrics of the traced run repeat exactly across two runs of
  one seed.

Exits 1 on the first failed test.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import types

import run

sb = run.import_package()
import tracer  # noqa: E402  (after run.import_package put src/ on the path)
import workloads  # noqa: E402

SEED = 5
# Counts whose exact repetition the traced run promises.
COUNTS = (
    "signaling.mi_evals",
    "simplex.pivots",
    "quantum.qubit_states.calls",
    "correlation.strategy_tables.calls",
    "quantum.crossover_holevo_calls",
)
SMALL_TRACE = {"classify": 40, "decompose": 40, "sweep": 3, "cli": 2 * len(workloads.CLI_SLOTS)}


# Prints a digest of the inputs that one workload and seed generate.
DIGEST = r"""
import hashlib, json, shutil, sys
sys.path.insert(0, sys.argv[1])
import run
sb = run.import_package()
import workloads
wl = workloads.WORKLOADS[sys.argv[2]](sb, int(sys.argv[3]), run.OUT)
try:
    items = wl.generate()
finally:
    shutil.rmtree(getattr(wl, "files", ""), ignore_errors=True)
print(hashlib.sha256(json.dumps([workloads.encode(i) for i in items]).encode()).hexdigest())
"""


def digest(name, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, "-c", DIGEST, run.BENCH, name, str(seed)],
        capture_output=True, text=True, cwd=run.ROOT, env=env, timeout=300, check=True,
    )
    return done.stdout.strip()


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        first, again, other = digest(name, SEED, 1), digest(name, SEED, 2), digest(name, SEED + 1, 1)
        if first != again:
            raise AssertionError(f"{name}: seed {SEED} gives different inputs in two interpreters")
        if first == other:
            raise AssertionError(f"{name}: seeds {SEED} and {SEED + 1} give the same inputs")
        print(f"ok  {name}: inputs depend on the seed alone")


def fresh(name):
    wl = workloads.WORKLOADS[name](sb, SEED, run.OUT)
    return wl, wl.generate(), workloads.make_op(name, sb)


def expect_failure(wl, item, ref, outcome, what):
    reason = wl.check(item, ref, outcome)
    if reason is None:
        raise AssertionError(f"{wl.name}: {what} passed the check")
    print(f"ok  {wl.name}: {what} fails the check ({reason[:70]})")


def test_perturbed_results_fail():
    wl, items, op = fresh("classify")
    item = items[3]
    ref = wl.prepare([item])[0]
    report = op(item)
    assert wl.check(item, ref, report) is None, "unperturbed classify result failed"
    expect_failure(wl, item, ref, dataclasses.replace(report, eta=report.eta + 1e-6), "eta + 1e-6")
    expect_failure(wl, item, ref, dataclasses.replace(report, classical=not report.classical), "flipped classical")

    wl, items, op = fresh("decompose")
    item = items[0]
    ref = wl.prepare([item])[0]
    dec = op(item)
    assert wl.check(item, ref, dec) is None, "unperturbed decomposition failed"
    expect_failure(wl, item, ref, dataclasses.replace(dec, cost=dec.cost + 1e-6), "decomposition cost + 1e-6")

    wl, items, op = fresh("sweep")
    item = items[1]  # the second window of each five brackets the crossover
    ref = wl.prepare([item])[0]
    rows, crossover = op(item)
    assert wl.check(item, ref, (rows, crossover)) is None, "unperturbed sweep failed"
    expect_failure(wl, item, ref, (rows, None), "a missing crossover")
    moved = [dataclasses.replace(rows[0], holevo_info=rows[0].holevo_info + 1e-6)] + rows[1:]
    expect_failure(wl, item, ref, (moved, crossover), "holevo_info + 1e-6")

    wl, items, op = fresh("cli")
    try:
        for index in (0, 5, 17):  # analyze, malformed input, decompose
            item = items[index]
            ref = wl.prepare([item])[0]
            code, out, err = op(item)
            assert wl.check(item, ref, (code, out, err)) is None, f"unperturbed cli op {item['argv']} failed"
            wrong = 0 if code else 2
            expect_failure(wl, item, ref, (wrong, out, err), f"{item['argv'][0]} exit {wrong} instead of {code}")
    finally:
        run.shutil.rmtree(wl.files, ignore_errors=True)


def namespace_snapshot():
    """Every attribute of every signalbox module and class, by identity."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "signalbox" or name.startswith("signalbox."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        snap[(name, f"{attr}.{cattr}")] = cvalue
    return snap


def traced_counts(name):
    wl, items, op = fresh(name)
    wl.traced_ops = SMALL_TRACE[name]
    try:
        metrics, _, failures = run.run_traced(wl, items, op, 0.0, SEED, [])
    finally:
        if name == "cli":
            run.shutil.rmtree(wl.files, ignore_errors=True)
    assert not failures, f"{name}: traced run failed its check: {failures[:3]}"
    return {k: metrics[k][0] for k in COUNTS}


def test_tracer_restores_and_counts_repeat():
    import signalbox.cli  # noqa: F401  (the tracer wraps cli.run too)

    before = namespace_snapshot()
    for name in workloads.WORKLOADS:
        first = traced_counts(name)
        after = namespace_snapshot()
        changed = [key for key, value in before.items() if after.get(key) is not value]
        if changed or set(after) != set(before):
            raise AssertionError(f"{name}: traced run left replaced names behind: {changed[:5]}")
        wrappers = [k for k, v in after.items() if isinstance(v, types.FunctionType) and v.__name__ == "traced"]
        if wrappers:
            raise AssertionError(f"{name}: tracer wrappers still installed at {wrappers[:5]}")
        print(f"ok  {name}: every traced name is the original object after the run")
        second = traced_counts(name)
        if first != second:
            raise AssertionError(f"{name}: counts differ across two runs of seed {SEED}: {first} vs {second}")
        print(f"ok  {name}: counts repeat exactly {first}")


def test_targets_exist():
    for span, (module, path) in tracer.TARGETS.items():
        owner, attr = tracer._resolve(module, path)
        if attr not in vars(owner):
            raise AssertionError(f"trace target {span} not found at {module}.{path}")
    print(f"ok  all {len(tracer.TARGETS)} trace targets resolve")


def main():
    os.makedirs(run.OUT, exist_ok=True)
    tests = (
        test_targets_exist,
        test_inputs_follow_the_seed,
        test_perturbed_results_fail,
        test_tracer_restores_and_counts_repeat,
    )
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc}")
            sys.exit(1)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
