"""The benchmark workloads: inputs, the timed operation, the check.

Each workload turns a seed into a list of plain inputs (numpy arrays,
floats, argv lists) before anything is timed.  ``make_op`` binds the
operation to an imported ``signalbox`` module, so the set-up probe can
time the import itself.  ``Workload.check`` compares one outcome with the
independent reference in :mod:`reference` and returns a reason string
when it fails.

Inputs are laid out in blocks with a fixed slot per family, so every
seed has the same family shares and only the draws inside a family
change.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import zlib

import numpy as np

import reference as R

MEASURES = ("mutual_info", "delta")
THETA_C = 1.0701081368276957  # reference.crossover_angle(), pinned by Cli.selfcheck

# Stated tolerances of the correctness check.
NUM_TOL = 1e-9  # classification numbers, sweep rows, demo payloads
ALPHA_TOL = 1e-5  # optimal prior, compared only where it is well defined
ALPHA_MIN_INFO = 1e-4  # below this the capacity is too flat to pin the prior
TIE_TOL = 1e-9  # channel infos closer than this make b_star a tie
LP_COST_TOL = 1e-9  # one-bit cost against HiGHS
RECON_TOL = 1e-8  # reconstruction of the table from the returned weights
CROSSOVER_TOL = 1e-4  # find_crossover's own bisection tolerance
VERDICT_MARGIN = 5e-10  # inputs this close to the eta <= 1e-9 edge are redrawn
CLASSICAL_TOL = 1e-9  # the program's verdict threshold, part of its contract


class Raised:
    """Outcome of an operation that raised: only the type name is compared."""

    __slots__ = ("kind", "message")

    def __init__(self, kind, message=""):
        self.kind = kind
        self.message = message

    def __repr__(self):
        return f"Raised({self.kind}: {self.message[:80]})"


def guarded(fn):
    def op(item):
        try:
            return fn(item)
        except Exception as exc:  # every outcome is compared with the reference
            return Raised(type(exc).__name__, str(exc))

    return op


def make_op(name, sb):
    """The timed operation of workload ``name`` on the imported package."""
    if name == "classify":
        return guarded(lambda it: sb.classify(sb.Correlation(it["p"]), measure=it["measure"]))
    if name == "decompose":

        def decompose(it):
            table = sb.Correlation(it["p"])
            if it["closed"]:
                return sb.closed_form_decompose(table, sigma=it["sigma"])
            return sb.lp_min_cost(table)

        return guarded(decompose)
    if name == "sweep":

        def sweep(it):
            rows = sb.theta_sweep(it["lo"], it["hi"], SWEEP_STEPS)
            try:
                crossover = sb.find_crossover(it["lo"], it["hi"])
            except sb.NoCrossoverError:
                crossover = None
            return rows, crossover

        return guarded(sweep)
    if name == "cli":
        cli = importlib.import_module("signalbox.cli")

        def run_cli(it):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(it["argv"])
            return code, out.getvalue(), err.getvalue()

        return guarded(run_cli)
    raise KeyError(name)


# What an operation reads from its input; the rest is reference data.
OP_KEYS = ("p", "measure", "closed", "sigma", "argv", "lo", "hi")


def encode(item):
    """JSON-ready copy of an operation's input, for the set-up probe's stdin."""
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in item.items() if k in OP_KEYS}


def decode(data):
    return {k: (np.array(v) if k == "p" else v) for k, v in data.items()}


# --------------------------------------------------------------- families


class Families:
    """Table families drawn with numpy from the catalog's rule tables."""

    def __init__(self, sb, rng):
        self.sb = sb
        self.rng = rng
        self.ids, self.columns, _ = R.strategy_basis(sb)
        self.index = {ident: k for k, ident in enumerate(self.ids)}

    def table_of(self, ident):
        return self.columns[:, self.index[ident]].reshape(2, 2, 2, 2)

    def mixture(self, ids, concentration, n):
        cols = self.columns[:, [self.index[i] for i in ids]]
        w = self.rng.dirichlet(np.full(len(ids), concentration), size=n)
        return (w @ cols.T).reshape(n, 2, 2, 2, 2), w

    def sub_cost(self, n):
        sb = self.sb
        return self.mixture(sb.PLUS_LOCAL_IDS + sb.VIOLATING_IDS, 0.4, n)[0]

    def super_cost(self, n, toward):
        """Mixtures whose dominant shift strictly beats the disturbance cost."""
        sb = self.sb
        if toward == "bob":
            extra = ("signal_0_anb", "signal_1_canb", "signal_a_a", "signal_na_na")
        else:
            extra = ("signal_canb_1", "signal_anb_0", "signal_b_b", "signal_nb_nb")
        ids = sb.LOCAL_IDS + extra
        cols = self.columns[:, [self.index[i] for i in ids]]
        found = []
        while sum(len(f) for f in found) < n:
            w = self.rng.dirichlet(np.full(len(ids), 0.3), size=4 * n)
            pair = w[:, 16:].copy()
            pair[:, 0:2] = np.sort(pair[:, 0:2], axis=1)[:, ::-1]
            pair[:, 2:4] = np.sort(pair[:, 2:4], axis=1)[:, ::-1]
            w[:, 16:] = pair
            tables = (w @ cols.T).reshape(-1, 2, 2, 2, 2)
            cost = np.maximum(0.0, R.functional(tables) / 2.0 - 1.0)
            if toward == "bob":
                ch = R.bob_channels(tables)  # (N, b, a)
                strong = ch[:, 0, 0] - ch[:, 0, 1]
                weak = ch[:, 1, 0] - ch[:, 1, 1]
            else:
                px0 = tables[:, :, :, 0, :].sum(axis=-1)  # (N, a, b)
                strong = px0[:, 1, 0] - px0[:, 1, 1]
                weak = px0[:, 0, 0] - px0[:, 0, 1]
            shift_max = R.shifts(tables).max(axis=-1)
            keep = (strong - weak >= cost - 1e-12) & (shift_max > cost + 1e-6)
            found.append(tables[keep])
        return np.concatenate(found)[:n]

    def bob_shift(self, n):
        """Plus locals and the bob-side pair, with a legal closed-form sigma."""
        sb = self.sb
        pair = ("signal_0_anb", "signal_1_canb")
        tables, w = self.mixture(sb.PLUS_LOCAL_IDS + pair, 0.5, n)
        cost = w[:, -2] + w[:, -1]
        shift = np.abs(w[:, -2] - w[:, -1])
        sigma_lo = np.maximum(0.0, (4.0 * shift - cost) / 3.0)
        sigma = sigma_lo + self.rng.uniform(0.05, 1.0, size=n) * (cost - sigma_lo)
        return tables, sigma

    def unstructured(self, n):
        return self.rng.dirichlet(np.ones(4), size=(n, 4)).reshape(n, 2, 2, 2, 2)

    def unit(self, n):
        v = self.rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def qubit_instances(self, n):
        """Random states in the Bloch ball and four random sharp observables."""
        r = self.unit(n) * self.rng.random(n)[:, None] ** (1.0 / 3.0)
        obs = [self.unit(n) for _ in range(4)]
        return [(r[i],) + tuple(o[i] for o in obs) for i in range(n)]

    def qubit(self, n):
        tables = [R.sequential_table(*inst) for inst in self.qubit_instances(n)]
        return np.clip(np.array(tables), 0.0, None)

    def near_nonsignaling(self, n):
        """Nonsignaling tables plus a bob b=0 shift between 1e-12 and 1e-3."""
        locals_ = self.mixture(self.sb.LOCAL_IDS, 0.5, n)[0]
        pr = 0.5 * (self.table_of("signal_0_anb") + self.table_of("signal_1_canb"))
        u = self.rng.uniform(0.0, 0.6, size=n)[:, None, None, None, None]
        base = (1.0 - u) * locals_ + u * pr
        d = 10.0 ** self.rng.uniform(-12.0, -3.0, size=n)
        d = d[:, None, None, None, None]
        return (1.0 - d) * base + d * self.table_of("signal_0_anb")


def verdict_margin_ok(ref):
    """False where either verdict sits within VERDICT_MARGIN of its edge."""
    ok = np.ones(ref["functional"].shape, dtype=bool)
    for signal in (ref["S_mutual_info"], ref["S_delta"]):
        ok &= np.abs(ref["disturbance"] - signal - CLASSICAL_TOL) > VERDICT_MARGIN
    return ok


def reference_row(table):
    """The classify reference of one table, as a dict."""
    return {key: value[0] for key, value in R.classify_reference(table[None]).items()}


def classify_tables(fam, kind, n):
    """``n`` (table, reference row) pairs of one family, away from the verdict edge."""
    draw = {
        "random": fam.unstructured,
        "sub": fam.sub_cost,
        "super_bob": lambda k: fam.super_cost(k, "bob"),
        "super_alice": lambda k: fam.super_cost(k, "alice"),
        "qubit": fam.qubit,
        "near_ns": fam.near_nonsignaling,
    }[kind]
    kept = []
    while len(kept) < n:
        tables = draw(n)
        ref = R.classify_reference(tables)
        keep = verdict_margin_ok(ref)
        rows = [{key: value[i] for key, value in ref.items()} for i in np.flatnonzero(keep)]
        kept.extend(zip(tables[keep], rows))
    return kept[:n]


# --------------------------------------------------------------- checks


def close(a, b, tol):
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


def check_report(fields, ref, measure):
    """Compare classify fields (a dict) with one reference row."""
    cost = float(ref["disturbance"])
    s_mi = float(ref["S_mutual_info"])
    s_delta = float(ref["S_delta"])
    signal = s_mi if measure == "mutual_info" else s_delta
    total = max(cost, signal)
    expect = {
        "functional": float(ref["functional"]),
        "disturbance": cost,
        "signal": signal,
        "strength": float(ref["strength"]),
        "cost": total,
        "eta": total - signal,
        "signal_mutual_info": s_mi,
        "signal_delta": s_delta,
    }
    for key, value in expect.items():
        if not close(fields[key], value, NUM_TOL):
            return f"{key}={fields[key]!r}, reference {value!r}"
    verdicts = {
        "classical": total - signal <= CLASSICAL_TOL,
        "classical_by_mutual_info": max(cost, s_mi) - s_mi <= CLASSICAL_TOL,
        "classical_by_delta": max(cost, s_delta) - s_delta <= CLASSICAL_TOL,
    }
    for key, value in verdicts.items():
        if fields[key] is not value:
            return f"{key}={fields[key]!r}, reference {value!r}"
    if fields["measure"] != measure:
        return f"measure={fields['measure']!r}, asked {measure!r}"
    info = ref["info_b"]
    if abs(info[0] - info[1]) > TIE_TOL:
        b_star = int(np.argmax(info))
        if fields["b_star"] != b_star:
            return f"b_star={fields['b_star']!r}, reference {b_star}"
        alpha = float(ref["alpha_b"][b_star])
        if s_mi > ALPHA_MIN_INFO and not close(fields["alpha_star"], alpha, ALPHA_TOL):
            return f"alpha_star={fields['alpha_star']!r}, reference {alpha!r}"
    return None


def report_fields(report):
    return {
        "functional": report.functional,
        "disturbance": report.disturbance,
        "signal": report.signal,
        "strength": report.strength,
        "cost": report.cost,
        "eta": report.eta,
        "classical": report.classical,
        "signal_mutual_info": report.signal_mutual_info,
        "signal_delta": report.signal_delta,
        "classical_by_mutual_info": report.classical_by_mutual_info,
        "classical_by_delta": report.classical_by_delta,
        "alpha_star": report.alpha_star,
        "b_star": report.b_star,
        "measure": report.measure,
    }


def json_report_fields(payload):
    """classify fields from the CLI's report JSON."""
    keys = {
        "functional": "lambda",
        "disturbance": "c_lambda",
        "signal": "S",
        "strength": "s",
        "cost": "C",
        "eta": "eta",
        "classical": "classical",
        "signal_mutual_info": "S_mutual_info",
        "signal_delta": "S_delta",
        "classical_by_mutual_info": "classical_mutual_info",
        "classical_by_delta": "classical_delta",
        "alpha_star": "alpha_star",
        "b_star": "b_star",
        "measure": "measure",
    }
    if set(payload) != set(keys.values()):
        raise ValueError(f"report keys {sorted(payload)}")
    return {field: payload[key] for field, key in keys.items()}


def check_decomposition(lp, weights, cost, residual, table, ref_cost):
    """A returned mixture must rebuild the table at the reference cost."""
    if any(w < 0.0 for w in weights.values()) or not set(weights) <= set(lp.ids):
        return f"weights outside the basis or negative: {weights}"
    err = lp.reconstruction_error(weights, table)
    if err > RECON_TOL:
        return f"weights rebuild the table only to {err:.3g}"
    if not close(sum(weights.values()), 1.0, RECON_TOL):
        return f"weights sum to {sum(weights.values())!r}"
    if not close(cost, lp.one_bit_weight(weights), RECON_TOL):
        return f"cost {cost!r} is not the one-bit weight {lp.one_bit_weight(weights)!r}"
    if not close(cost, ref_cost, LP_COST_TOL):
        return f"cost {cost!r}, HiGHS {ref_cost!r}"
    if not residual <= RECON_TOL:
        return f"residual {residual!r}"
    return None


def check_lp_outcome(lp, outcome, table, verdict, ref_cost):
    if isinstance(outcome, Raised):
        if outcome.kind == "InfeasibleError" and verdict in ("infeasible", "ambiguous"):
            return None
        return f"raised {outcome!r}, reference {verdict}"
    if verdict == "infeasible":
        return "returned a decomposition, reference infeasible"
    if verdict == "ambiguous":
        ref_cost = outcome.cost
    return check_decomposition(lp, outcome.weights, outcome.cost, outcome.residual, table, ref_cost)


def sweep_reference(lo, hi, steps):
    rows = [R.sweep_row(t) for t in np.linspace(lo, hi, steps)]
    return rows, (lo < THETA_C < hi)


ROW_NUMBERS = ("theta", "functional", "functional_norm", "restricted_info", "disturbance", "holevo_info")


def check_rows(rows, ref_rows):
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows, reference {len(ref_rows)}"
    for row, ref in zip(rows, ref_rows):
        for key in ROW_NUMBERS:
            if not close(row[key], ref[key], NUM_TOL):
                return f"theta={ref['theta']:.6f} {key}={row[key]!r}, reference {ref[key]!r}"
        if bool(row["classical"]) is not ref["classical"]:
            return f"theta={ref['theta']:.6f} classical={row['classical']!r}"
    return None


def check_crossover(crossover, brackets):
    if brackets != (crossover is not None):
        return f"crossover {crossover!r}, reference brackets={brackets}"
    if brackets and not close(crossover, THETA_C, CROSSOVER_TOL):
        return f"crossover {crossover!r}, reference {THETA_C!r}"
    return None


# --------------------------------------------------------------- workloads


class Workload:
    """Seeded inputs plus the check of one workload.

    ``pool`` inputs are drawn; at the seed commit a timed run uses at
    most about two thirds of them, so every operation gets a distinct input.  ``warmup``
    inputs run before timing, ``rss_ops`` more in the set-up probe, and
    ``traced_ops`` in each pass of the traced run.  ``latency_tail_ms`` is
    taken per group of ``tail_group`` operations.  The group is sized so
    that its eleventh largest latency falls inside a cluster of similar
    operations, not in a gap between two, where it would jump.
    """

    name = ""
    block = 10
    pool_blocks = 0
    warmup = 10
    rss_ops = 100
    traced_ops = 100
    tail_group = 200

    def __init__(self, sb, seed, workdir):
        self.sb = sb
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.fam = Families(sb, self.rng)
        self._lp = None

    @property
    def lp(self):
        if self._lp is None:
            self._lp = R.LPReference(self.sb)
        return self._lp

    def interleave(self, slots):
        """Blocks of one item per slot; ``slots`` is a list of item lists."""
        return [slot[k] for k in range(self.pool_blocks) for slot in slots]

    def selfcheck(self):
        """Checks of the program that are not per-operation; reason or None."""
        return None


class Classify(Workload):
    name = "classify"
    pool_blocks = 4000
    warmup = 20
    rss_ops = 200
    traced_ops = 300
    FAMILIES = ("random", "random", "sub", "sub", "super_bob", "super_alice", "qubit", "qubit", "near_ns", "near_ns")

    def generate(self):
        tables = {}
        for kind in dict.fromkeys(self.FAMILIES):
            count = self.FAMILIES.count(kind) * self.pool_blocks
            tables[kind] = classify_tables(self.fam, kind, count)
        slots = []
        for kind in self.FAMILIES:
            slots.append(tables[kind][: self.pool_blocks])
            tables[kind] = tables[kind][self.pool_blocks :]
        items = [{"p": p, "ref": ref} for p, ref in self.interleave(slots)]
        for i, item in enumerate(items):
            item["measure"] = MEASURES[(i + i // self.block) % 2]
        return items

    def prepare(self, items):
        return [it["ref"] for it in items]

    def check(self, item, ref, outcome):
        if isinstance(outcome, Raised):
            return f"raised {outcome!r}"
        return check_report(report_fields(outcome), ref, item["measure"])

    def selfcheck(self):
        """Formula route (reference) against the program's projector route."""
        sb = self.sb
        for inst in self.fam.qubit_instances(50):
            r, a0, a1, b0, b1 = inst
            obs = [sb.Observable(v) for v in (a0, a1, b0, b1)]
            direct = sb.projector_update_table(sb.QubitState.from_bloch(r), *obs)
            gap = float(np.max(np.abs(direct - R.sequential_table(*inst))))
            if gap > 1e-12:
                return f"projector route differs from the update formula by {gap:.3g}"
        return None


class Decompose(Workload):
    name = "decompose"
    pool_blocks = 2500
    warmup = 20
    rss_ops = 100
    traced_ops = 200
    # No cluster of operations ends near the top: a smaller group puts
    # the percentile at p90, which the host's bursts move less than p95.
    tail_group = 100
    FAMILIES = ("sub", "sub", "super_bob", "super_alice", "bob_lp", "qubit", "qubit", "random", "bob_closed", "bob_closed")

    def generate(self):
        n = self.pool_blocks
        fam = self.fam
        draws = {
            "sub": [{"p": p, "feasible": True} for p in fam.sub_cost(2 * n)],
            "super_bob": [{"p": p, "feasible": True} for p in fam.super_cost(n, "bob")],
            "super_alice": [{"p": p, "feasible": True} for p in fam.super_cost(n, "alice")],
            "qubit": [{"p": p, "feasible": False} for p in fam.qubit(2 * n)],
            "random": [{"p": p, "feasible": False} for p in fam.unstructured(n)],
        }
        tables, sigma = fam.bob_shift(3 * n)
        draws["bob_lp"] = [{"p": p, "feasible": True} for p in tables[:n]]
        draws["bob_closed"] = [
            {"p": p, "feasible": True, "sigma": float(s)} for p, s in zip(tables[n:], sigma[n:])
        ]
        slots = []
        taken = {k: 0 for k in draws}
        for kind in self.FAMILIES:
            slots.append(draws[kind][taken[kind] : taken[kind] + n])
            taken[kind] += n
        items = []
        for d in self.interleave(slots):
            closed = "sigma" in d
            items.append({"p": d["p"], "closed": closed, "sigma": d.get("sigma", 0.0), "feasible": d["feasible"]})
        return items

    def prepare(self, items):
        return self.lp.solve([it["p"] for it in items], [it["feasible"] for it in items])

    def check(self, item, ref, outcome):
        verdict, cost = ref
        if item["closed"] and verdict != "feasible":
            return f"closed-form input is {verdict} for the reference"
        return check_lp_outcome(self.lp, outcome, item["p"], verdict, cost)


def sweep_windows(rng, n):
    """Windows inside (0, pi/2): two of every five bracket THETA_C.

    Endpoints stay at least 0.02 from the crossover, and widths lie in
    [0.2, 0.4], so every bracketing window costs 11 or 12 bisections.
    """
    windows = []
    for k in range(n):
        width = rng.uniform(0.2, 0.4)
        if k % 5 in (1, 3):
            lo = rng.uniform(THETA_C - width + 0.02, THETA_C - 0.02)
        elif k % 2 == 0:
            lo = rng.uniform(0.1, THETA_C - 0.02 - width)
        else:
            lo = rng.uniform(THETA_C + 0.02, 1.5 - width)
        windows.append((float(lo), float(lo + width)))
    return windows


SWEEP_STEPS = 61


class Sweep(Workload):
    """``theta_sweep(lo, hi, 61)`` plus ``find_crossover(lo, hi)``, as
    ``signalbox sweep`` computes them, on seeded windows."""

    name = "sweep"
    block = 5
    pool_blocks = 40
    warmup = 1
    rss_ops = 2
    traced_ops = 10
    # Two in five windows bracket the crossover and cost a bisection more:
    # in a group of 50, p80 falls among them.
    tail_group = 50

    def generate(self):
        return [{"lo": lo, "hi": hi} for lo, hi in sweep_windows(self.rng, self.block * self.pool_blocks)]

    def prepare(self, items):
        return [sweep_reference(it["lo"], it["hi"], SWEEP_STEPS) for it in items]

    def check(self, item, ref, outcome):
        if isinstance(outcome, Raised):
            return f"raised {outcome!r}"
        rows, crossover = outcome
        ref_rows, brackets = ref
        fields = [{key: getattr(row, key) for key in ROW_NUMBERS + ("classical",)} for row in rows]
        return check_rows(fields, ref_rows) or check_crossover(crossover, brackets)


# --------------------------------------------------------------- cli

CLI_SLOTS = (
    ("analyze", "random", ()),
    ("analyze", "sub", ("--measure", "delta")),
    ("decompose", "sub", ()),
    ("demo", "pr-box", ()),
    ("analyze-in", "super_bob", ()),
    ("invalid", "malformed", ()),
    ("decompose", "qubit", ()),
    ("demo", "d01", ()),
    ("analyze", "qubit", ("--measure", "delta")),
    ("demo", "tsirelson", ()),
    ("sweep", "window", ()),
    ("analyze", "near_ns", ()),
    ("decompose", "super_alice", ()),
    ("demo", "tsirelson-signal", ()),
    ("invalid", "shape", ()),
    ("analyze", "random", ("--measure", "delta")),
    ("demo", "sigma", ()),
    ("decompose", "random", ()),
    ("demo", "qp", ()),
    ("invalid", "negative", ()),
)
CLI_SWEEP_STEPS = 9


def strict_json(text):
    """Parse RFC 8259 JSON: NaN and infinities are rejected."""

    def bad(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=bad)


def check_json_bytes(text, payload):
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if text != expected:
        return "output bytes are not sorted, 2-space indented JSON"
    return None


def check_sig12(values):
    for value in values:
        if isinstance(value, float) and float(f"{value:.12g}") != value:
            return f"{value!r} has more than 12 significant digits"
    return None


class Cli(Workload):
    name = "cli"
    block = len(CLI_SLOTS)
    pool_blocks = 400
    warmup = len(CLI_SLOTS)
    rss_ops = 2 * len(CLI_SLOTS)
    traced_ops = 3 * len(CLI_SLOTS)
    # One sweep per block, two in five bracketing the crossover: the top
    # 2 % are bracketing sweeps, and a group of 1000 puts p99 among them.
    tail_group = 1000

    def __init__(self, sb, seed, workdir):
        super().__init__(sb, seed, workdir)
        self.files = os.path.join(workdir, f"cli-{self.seed}")

    def write(self, name, text):
        path = os.path.join(self.files, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return os.path.relpath(path)

    def table_file(self, name, p):
        return self.write(name, json.dumps({"p": np.asarray(p).tolist()}, indent=2) + "\n")

    def generate(self):
        os.makedirs(self.files, exist_ok=True)
        n = self.pool_blocks
        kinds = {}
        for _, kind, _ in CLI_SLOTS:
            kinds[kind] = kinds.get(kind, 0) + n
        fam = self.fam
        pools = {}
        for kind, count in kinds.items():
            if kind in ("random", "sub", "super_bob", "super_alice", "qubit", "near_ns"):
                pools[kind] = classify_tables(fam, kind, count)
        windows = sweep_windows(self.rng, n)
        qp = self.rng.uniform(0.05, 0.95, size=n)
        items = []
        used = {k: 0 for k in pools}
        for block in range(n):
            for slot, (command, kind, extra) in enumerate(CLI_SLOTS):
                tag = f"{block:04d}-{slot:02d}"
                item = {"command": command, "kind": kind}
                if command in ("analyze", "analyze-in", "decompose"):
                    p, ref = pools[kind][used[kind]]
                    used[kind] += 1
                    path = self.table_file(f"{tag}.json", p)
                    item.update(p=p, ref=ref)
                    if command == "analyze-in":
                        item["argv"] = ["analyze", "--in", path]
                        item["measure"] = "mutual_info"
                    else:
                        item["argv"] = [command, path, *extra]
                        item["measure"] = "delta" if extra else "mutual_info"
                elif command == "demo":
                    item["argv"] = ["demo", kind]
                    if kind == "qp":
                        item["qp"] = float(qp[block])
                        item["argv"] += ["--p", repr(item["qp"])]
                elif command == "sweep":
                    lo, hi = windows[block]
                    item.update(lo=lo, hi=hi)
                    item["argv"] = ["sweep", "--theta-min", repr(lo), "--theta-max", repr(hi), "--steps", str(CLI_SWEEP_STEPS)]
                else:
                    item["argv"] = ["analyze", self.write(f"{tag}.json", self.invalid_text(kind))]
                items.append(item)
        return items

    def invalid_text(self, kind):
        p = self.fam.unstructured(1)[0]
        if kind == "malformed":
            return json.dumps({"p": p.tolist()})[: -int(self.rng.integers(2, 20))]
        if kind == "shape":
            return json.dumps({"p": p[0].tolist()})
        # One entry at -0.1; its setting pair still sums to one.
        p[0, 0, 0, 0] += p[0, 0, 0, 1] + 0.1
        p[0, 0, 0, 1] = -0.1
        return json.dumps({"p": p.tolist()})

    def selfcheck(self):
        theta_c = R.crossover_angle()
        if abs(theta_c - THETA_C) > 1e-12:
            return f"reference crossover moved to {theta_c!r}"
        return None

    def nan_items(self):
        """Tables with one NaN entry: the reference expects exit code 2."""
        items = []
        for command, extra in (("analyze", ()), ("analyze", ("--measure", "delta")), ("decompose", ())):
            p = self.fam.unstructured(1)[0]
            p[1, 0, 1, 0] = math.nan
            path = self.write(f"nan-{command}-{len(items)}.json", json.dumps({"p": p.tolist()}))
            items.append({"command": "invalid", "kind": "nan", "argv": [command, path, *extra]})
        return items

    def prepare(self, items):
        refs = [it.get("ref") for it in items]
        decompose = [i for i, it in enumerate(items) if it["command"] == "decompose"]
        solved = self.lp.solve(
            [items[i]["p"] for i in decompose],
            [items[i]["kind"] in ("sub", "super_alice") for i in decompose],
        )
        for i, verdict in zip(decompose, solved):
            refs[i] = verdict
        for i, it in enumerate(items):
            if it["command"] == "sweep":
                refs[i] = sweep_reference(it["lo"], it["hi"], CLI_SWEEP_STEPS)
            elif it["command"] == "demo":
                refs[i] = self.demo_reference(it)
        return refs

    def check(self, item, ref, outcome):
        if isinstance(outcome, Raised):
            return f"raised {outcome!r}"
        code, out, err = outcome
        command = item["command"]
        if command == "invalid":
            if code != 2 or out:
                return f"exit {code} with {len(out)} bytes of output, reference exit 2 and none"
            return None
        if command == "decompose":
            verdict, cost = ref
            if code == 3 and not out and verdict in ("infeasible", "ambiguous"):
                return None
            if code != 0:
                return f"exit {code}, reference {verdict}"
            if verdict == "infeasible":
                return "exit 0, reference infeasible (exit 3)"
            payload = strict_json(out)
            if verdict == "ambiguous":
                cost = payload["cost"]
            return (
                check_json_bytes(out, payload)
                or check_sig12(list(payload["weights"].values()) + [payload["cost"], payload["residual"]])
                or check_decomposition(self.lp, payload["weights"], payload["cost"], payload["residual"], item["p"], cost)
            )
        if code != 0:
            return f"exit {code}: {err.strip()[:120]}"
        if command.startswith("analyze"):
            payload = strict_json(out)
            return (
                check_json_bytes(out, payload)
                or check_sig12(payload.values())
                or check_report(json_report_fields(payload), ref, item["measure"])
            )
        if command == "sweep":
            return self.check_csv(out, ref)
        return self.check_demo(out, ref)

    def check_csv(self, text, ref):
        ref_rows, brackets = ref
        lines = text.split("\n")
        if lines[0] != "theta,lambda,lambda_norm,S_restricted,c_lambda,chi,classical" or lines[-1] != "":
            return "CSV header or final newline differs"
        body = lines[1:-1]
        crossover = None
        if body and body[-1].startswith("# crossover="):
            crossover = float(body[-1].split("=", 1)[1])
            if body[-1] != "# crossover=%.12g" % crossover:
                return f"crossover line {body[-1]!r} is not at 12 digits"
            body = body[:-1]
        rows = []
        for line in body:
            cells = line.split(",")
            values = [float(c) for c in cells[:6]]
            if ",".join("%.12g" % v for v in values) + "," + cells[6] != line or cells[6] not in ("0", "1"):
                return f"CSV row {line!r} is not at 12 digits"
            rows.append(dict(zip(ROW_NUMBERS, values), classical=cells[6] == "1"))
        return check_rows(rows, ref_rows) or check_crossover(crossover, brackets)

    def demo_reference(self, item):
        """Expected demo table and the extra keys each demo carries."""
        name = item["kind"]
        fam = self.fam
        extra = {}
        measure = "mutual_info"
        if name == "pr-box":
            table = 0.5 * (fam.table_of("signal_0_anb") + fam.table_of("signal_1_canb"))
        elif name == "d01":
            table = fam.table_of("signal_0_anb")
        elif name == "tsirelson":
            _, a0, a1, b0, b1 = R.theta_instance(math.pi / 4.0)
            table = R.sequential_table(np.zeros(3), a0, a1, b0, b1)
        elif name == "tsirelson-signal":
            # Tsirelson correlators, with bob's b=0 channel {1, 1/2}.
            hi, lo = (2.0 + math.sqrt(2.0)) / 8.0, (2.0 - math.sqrt(2.0)) / 8.0
            table = np.array([[[[2 * hi, 0.0], [2 * lo, 0.0]], [[hi, lo], [lo, hi]]],
                              [[[lo, hi], [hi, lo]], [[hi, lo], [lo, hi]]]])
        elif name == "sigma":
            z, x = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
            table = R.sequential_table(z, z, x, z, x)
            ref = reference_row(table)
            mu = float(ref["S_mutual_info"])
            alpha = float(ref["alpha_b"][int(np.argmax(ref["info_b"]))])
            extra = {
                "mu": mu,
                "alpha_star": alpha,
                "s": float(ref["strength"]),
                "tau": 0.5,
                # Unread z and x measurements of |0>: Bloch vectors z and 0.
                "chi": float(R.holevo(alpha, z, np.zeros(3))),
                "bound": 2.0 * (mu + 1.0),
            }
        else:
            p = item["qp"]
            table = p * fam.table_of("signal_0_anb") + (1.0 - p) * fam.table_of("signal_1_canb")
            intrinsic = min(p, 1.0 - p)
            s = float(reference_row(table)["strength"])
            extra = {"p": p, "s": s, "intrinsic": intrinsic, "tradeoff": s + 2.0 * intrinsic}
            if p <= 0.5:
                extra["cloning_violation"] = 1.0 - s
            measure = "delta"
        return table, reference_row(table), extra, measure

    def check_demo(self, text, ref):
        table, ref_report, extra, measure = ref
        payload = strict_json(text)
        if set(payload) != {"table", "report"} | set(extra):
            return f"demo keys {sorted(payload)}"
        reason = check_json_bytes(text, payload)
        if reason:
            return reason
        got = np.array(payload["table"]["p"], dtype=float)
        if got.shape != (2, 2, 2, 2) or np.max(np.abs(got - table)) > NUM_TOL:
            return "demo table differs from the reference table"
        reason = check_report(json_report_fields(payload["report"]), ref_report, measure)
        if reason:
            return reason
        for key, value in extra.items():
            tol = ALPHA_TOL if key == "alpha_star" else NUM_TOL
            if not close(payload[key], value, tol):
                return f"{key}={payload[key]!r}, reference {value!r}"
        return check_sig12(v for k, v in payload.items() if k in extra)


WORKLOADS = {w.name: w for w in (Classify, Decompose, Sweep, Cli)}
