"""Shared fixtures and mixture generators for the test suite."""

import numpy as np
import pytest

import signalbox as sb

# Plus-signed locals plus the violating octet.  Every table in the convex
# hull of these has its largest marginal shift bounded by the pair sums,
# which all count toward the disturbance cost, so the shift never exceeds
# the cost and the minimum one-bit weight equals the cost itself.
SUB_COST_IDS = sb.PLUS_LOCAL_IDS + sb.VIOLATING_IDS

# All sixteen locals, one imbalance pair and one aligned echo pair, in a
# single signaling direction.  Sorting the pair weights and accepting only
# draws where the dominant signed shift beats the weaker one by at least
# the disturbance cost pins the minimum one-bit weight at the shift.
SUPER_BOB_IDS = sb.LOCAL_IDS + (
    "signal_0_anb",
    "signal_1_canb",
    "signal_a_a",
    "signal_na_na",
)
SUPER_ALICE_IDS = sb.LOCAL_IDS + (
    "signal_canb_1",
    "signal_anb_0",
    "signal_b_b",
    "signal_nb_nb",
)

# Plus locals plus the single bob-side pair: the only family the closed
# form accepts, since every other channel stays silent.
BOB_SHIFT_IDS = sb.PLUS_LOCAL_IDS + ("signal_0_anb", "signal_1_canb")

# A valid table whose b=0 channel differs by 2.5e-14: its capacity, a
# difference of entropies, once rounded to -1.67e-16 bits, which put eta
# above c_lambda.
NEAR_SILENT = np.array(
    [
        [[[2.5e-14, 0.0], [0.25, 0.75]], [[0.25, 0.0], [0.25, 0.5]]],
        [[[0.25, 0.5], [0.0, 0.25]], [[0.5, 0.5], [0.0, 0.0]]],
    ]
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture
def fresh_program(monkeypatch):
    """The catalog program prepared afresh for one test: its memo starts empty.

    Returns the program; the registry of prepared programs is restored afterwards.
    """
    from signalbox import correlation, simplex, simulate

    simulate._solver()
    monkeypatch.setattr(simplex, "_PROGRAMS", {})
    simplex._prepare(simulate._CATALOG_CONSTRAINTS, correlation.STRATEGY_COSTS)
    return simplex._PROGRAMS[id(simulate._CATALOG_CONSTRAINTS)][2]


def strategy_table(ident):
    return sb.catalog(ident).as_correlation()


def dirichlet_mixture(rng, ids, concentration=0.4):
    weights = rng.dirichlet(np.full(len(ids), concentration))
    table = sb.mix(weights, [strategy_table(i) for i in ids])
    return table, dict(zip(ids, (float(w) for w in weights)))


def sub_cost_mixture(rng):
    return dirichlet_mixture(rng, SUB_COST_IDS)


def signed_gap(table, side, own):
    """Signed first-outcome marginal shift of one channel."""
    lhs = sb.marginal(table, side, own, 0)[0]
    rhs = sb.marginal(table, side, own, 1)[0]
    return float(lhs - rhs)


def super_cost_mixture(rng, toward="bob"):
    """Draw until the dominant shift strictly beats the disturbance cost."""
    if toward == "bob":
        ids, side, strong_own, weak_own = SUPER_BOB_IDS, "bob", 0, 1
    else:
        ids, side, strong_own, weak_own = SUPER_ALICE_IDS, "alice", 1, 0
    tables = [strategy_table(i) for i in ids]
    while True:
        weights = rng.dirichlet(np.full(len(ids), 0.3))
        q = list(weights[16:])
        if q[1] > q[0]:
            q[0], q[1] = q[1], q[0]
        if q[3] > q[2]:
            q[2], q[3] = q[3], q[2]
        table = sb.mix(list(weights[:16]) + q, tables)
        cost = sb.disturbance_cost(table)
        strong = signed_gap(table, side, strong_own)
        weak = signed_gap(table, side, weak_own)
        shift_max = sb.signaling_deltas(table).max
        if strong - weak >= cost - 1e-12 and shift_max > cost + 1e-6:
            return table, shift_max


def bob_shift_mixture(rng):
    return dirichlet_mixture(rng, BOB_SHIFT_IDS, concentration=0.5)


def near_nonsignaling_tables(rng, n):
    """Local and PR-box mixtures plus a bob b=0 shift between 1e-12 and 1e-3."""
    pr = 0.5 * (strategy_table("signal_0_anb").p + strategy_table("signal_1_canb").p)
    push = strategy_table("signal_0_anb").p
    for shift in 10.0 ** np.linspace(-12.0, -3.0, n):
        base = dirichlet_mixture(rng, sb.LOCAL_IDS, 0.5)[0].p
        u = rng.uniform(0.0, 0.6)
        yield sb.Correlation((1.0 - shift) * ((1.0 - u) * base + u * pr) + shift * push)


def random_table(rng):
    """Unstructured normalized table, one outcome simplex per setting pair."""
    cells = rng.dirichlet(np.ones(4), size=4).reshape(2, 2, 2, 2)
    return sb.Correlation(cells)


def random_bloch_vector(rng, radius=1.0):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * radius * rng.random() ** (1.0 / 3.0)


def random_state(rng):
    return sb.QubitState.from_bloch(random_bloch_vector(rng))


def random_observable(rng):
    v = rng.normal(size=3)
    return sb.Observable(v / np.linalg.norm(v))


def random_quantum_instance(rng):
    """A random state and four random sharp observables."""
    return random_state(rng), [random_observable(rng) for _ in range(4)]
