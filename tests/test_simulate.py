"""Decompositions, the minimum-cost program and the signal-deficit verdict."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import signalbox as sb
from signalbox import correlation, simulate
from signalbox.correlation import _table_terms, disturbance_from_functional
from signalbox.quantum import _theta_batch
from signalbox.signaling import _best_channel
from signalbox.simulate import _verdict_rows
from conftest import (
    BOB_SHIFT_IDS,
    bob_shift_mixture,
    dirichlet_mixture,
    near_nonsignaling_tables,
    random_quantum_instance,
    random_table,
    strategy_table,
    sub_cost_mixture,
    super_cost_mixture,
)

MU = math.log2(5.0) - 2.0
ROOT2 = math.sqrt(2.0)


def one_bit_total(weights):
    return sum(
        w
        for ident, w in weights.items()
        if sb.catalog(ident).kind is not sb.StrategyKind.LOCAL
    )


def test_lp_cost_of_pr_box():
    dec = sb.lp_min_cost(sb.pr_box())
    assert dec.cost == pytest.approx(1.0, abs=1e-9)
    assert dec.residual <= 1e-9
    assert one_bit_total(dec.weights) == pytest.approx(1.0, abs=1e-9)


def test_lp_cost_of_single_strategies():
    for ident in sb.VIOLATING_IDS:
        assert sb.lp_min_cost(strategy_table(ident)).cost == pytest.approx(
            1.0, abs=1e-9
        )
    # a pure echo needs its bit even though it violates nothing
    assert sb.lp_min_cost(strategy_table("signal_a_a")).cost == pytest.approx(
        1.0, abs=1e-9
    )
    assert sb.lp_min_cost(strategy_table("local_a_b")).cost == pytest.approx(
        0.0, abs=1e-12
    )


def test_lp_cost_of_partial_violation():
    table = sb.mix([0.4, 0.6], [sb.pr_box(), strategy_table("local_0_0")])
    dec = sb.lp_min_cost(table)
    assert dec.cost == pytest.approx(0.4, abs=1e-9)


def test_lp_cost_of_quantum_maximum():
    dec = sb.lp_min_cost(sb.tsirelson_box())
    assert dec.cost == pytest.approx(ROOT2 - 1.0, abs=1e-9)
    assert dec.residual <= 1e-9


def test_lp_weights_are_a_distribution(rng):
    for _ in range(10):
        table, _ = sub_cost_mixture(rng)
        dec = sb.lp_min_cost(table)
        total = sum(dec.weights.values())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert min(dec.weights.values()) >= 0.0
        assert set(dec.weights) <= set(sb.FULL_BASIS)


def test_lp_respects_the_lower_bound(rng):
    """Cost can never undercut the disturbance or the largest shift."""
    for _ in range(25):
        table, _ = dirichlet_mixture(rng, sb.FULL_BASIS, concentration=0.2)
        dec = sb.lp_min_cost(table)
        floor = max(sb.disturbance_cost(table), sb.signaling_deltas(table).max)
        assert dec.cost >= floor - 1e-9
        assert dec.residual <= 1e-9


def _catalog_mixtures(rng, n):
    """Weights over the 32 strategies, on 2 to 32 of them, with the tables they build."""
    for _ in range(n):
        w = np.zeros(32)
        support = rng.choice(32, size=int(rng.integers(2, 33)), replace=False)
        w[support] = rng.dirichlet(np.full(support.size, rng.choice([0.2, 1.0, 3.0])))
        yield w, sb.Correlation((correlation.STRATEGY_MATRIX @ w).reshape(2, 2, 2, 2))


def test_lp_price_of_a_catalog_mixture_is_at_most_its_one_bit_weight(rng):
    """The price is a minimum over decompositions, the known mixture among them."""
    for w, table in _catalog_mixtures(rng, 150):
        assert sb.lp_min_cost(table).cost <= float(correlation.STRATEGY_COSTS @ w) + 1e-12


def test_lp_price_is_convex_along_a_segment(rng):
    """Mixing two tables mixes their optimal decompositions, so the price at a
    point of the segment is at most the same mixture of the end prices."""
    mixtures = [table for _, table in _catalog_mixtures(rng, 60)]
    for first, second in zip(mixtures[::2], mixtures[1::2]):
        ends = sb.lp_min_cost(first).cost, sb.lp_min_cost(second).cost
        for t in (1 / 6, 1 / 3, 1 / 2, 2 / 3, 5 / 6):
            inner = sb.Correlation((1.0 - t) * first.p + t * second.p)
            assert sb.lp_min_cost(inner).cost <= (1.0 - t) * ends[0] + t * ends[1] + 1e-12


def test_lp_infeasible_outside_basis_hull():
    with pytest.raises(sb.InfeasibleError):
        sb.lp_min_cost(sb.pr_box(), basis=sb.LOCAL_IDS)
    with pytest.raises(sb.InfeasibleError):
        sb.lp_min_cost(sb.unbalanced_pr(0.3), basis=sb.PLUS_LOCAL_IDS)
    # the synthetic signal-carrying table lies outside even the full basis
    with pytest.raises(sb.InfeasibleError):
        sb.lp_min_cost(sb.tsirelson_signal_box())


def _skewed_local_mixture(eps):
    """A mixture of the 16 locals with pair (0, 0) scaled by 1 + eps and pair (1, 1) by 1 - eps."""
    weights = np.random.default_rng(0).dirichlet(np.ones(16))
    p = sb.mix(weights, [sb.catalog(ident).as_correlation() for ident in sb.LOCAL_IDS]).p.copy()
    p[0, 0] *= 1.0 + eps
    p[1, 1] *= 1.0 - eps
    return sb.Correlation(p)


def test_lp_consistency_check_at_the_normalization_bound():
    """Setting-pair sums 1e-9 apart still price; 1.8e-9 apart, a validated table is refused."""
    dec = sb.lp_min_cost(_skewed_local_mixture(0.5e-9))
    assert dec.cost == pytest.approx(5.8036e-10, rel=1e-4)
    assert 0.99e-9 < dec.residual <= 1e-9
    table = _skewed_local_mixture(0.9e-9)  # Correlation accepts each sum within 1e-9 of one
    with pytest.raises(
        sb.InfeasibleError, match=r"^equality system is inconsistent \(residual -1\.800e-09\)$"
    ):
        sb.lp_min_cost(table)


def test_lp_rejects_unknown_basis_entry():
    with pytest.raises(sb.UnknownStrategyError):
        sb.lp_min_cost(sb.pr_box(), basis=("local_0_0", "signal_q_q"))


def test_lp_rejects_empty_basis_and_unknown_weights():
    with pytest.raises(sb.DomainError):
        sb.lp_min_cost(sb.pr_box(), basis=())
    stray = sb.Decomposition(weights={"local_0_0": 0.5, "signal_q_q": 1.0}, cost=0.0, residual=0.0)
    with pytest.raises(sb.UnknownStrategyError, match="unknown strategy 'signal_q_q'"):
        sb.verify_reconstruction(sb.pr_box(), stray)


def test_strategy_matrix_matches_catalog():
    """Column k of the precomputed matrix is the table of FULL_BASIS[k]."""
    assert correlation.STRATEGY_MATRIX.shape == (16, 32)
    for k, ident in enumerate(sb.FULL_BASIS):
        strategy = sb.catalog(ident)
        table = strategy.as_correlation().p
        assert correlation.strategy_column(ident) == k
        assert np.array_equal(correlation.STRATEGY_MATRIX[:, k], table.ravel())
        assert np.array_equal(correlation.strategy_table(ident), table)
        one_bit = strategy.kind is not sb.StrategyKind.LOCAL
        assert correlation.STRATEGY_COSTS[k] == (1.0 if one_bit else 0.0)
    assert not correlation.STRATEGY_MATRIX.flags.writeable
    assert not correlation.strategy_table("local_0_0").flags.writeable
    with pytest.raises(sb.UnknownStrategyError):
        correlation.strategy_column("signal_q_q")


def test_decompositions_build_no_strategy_tables(rng, monkeypatch):
    """The LP, the closed form and the residual read the matrix built at import."""
    table, _ = bob_shift_mixture(rng)
    expected = (sb.lp_min_cost(table), sb.closed_form_decompose(table, sigma=0.0))

    def rebuilt(self):
        raise AssertionError(f"rebuilt the table of {self.id}")

    monkeypatch.setattr(sb.Strategy, "as_correlation", rebuilt)
    lp = sb.lp_min_cost(table)
    closed = sb.closed_form_decompose(table, sigma=0.0)
    assert (lp, closed) == expected
    assert sb.verify_reconstruction(table, lp) == lp.residual


def test_closed_form_on_tsirelson():
    table = sb.tsirelson_box()
    dec = sb.closed_form_decompose(table)
    cost = ROOT2 - 1.0
    assert dec.cost == pytest.approx(cost, abs=1e-9)
    assert dec.residual <= 1e-9
    for ident in sb.VIOLATING_IDS:
        assert dec.weights[ident] == pytest.approx(cost / 8.0, abs=1e-12)
    assert sb.lp_min_cost(table).cost == pytest.approx(dec.cost, abs=1e-9)


def test_closed_form_on_unbalanced_box():
    dec = sb.closed_form_decompose(sb.unbalanced_pr(0.3), sigma=1.0)
    assert dec.cost == pytest.approx(1.0, abs=1e-12)
    assert dec.weights["signal_0_anb"] == pytest.approx(0.3, abs=1e-12)
    assert dec.weights["signal_1_canb"] == pytest.approx(0.7, abs=1e-12)
    assert set(dec.weights) == {"signal_0_anb", "signal_1_canb"}


def test_closed_form_sigma_window():
    table = sb.unbalanced_pr(0.3)
    # with sigma = 0 the shift exceeds the positivity window
    with pytest.raises(sb.PreconditionError):
        sb.closed_form_decompose(table, sigma=0.0)
    with pytest.raises(sb.DomainError):
        sb.closed_form_decompose(table, sigma=1.5)
    with pytest.raises(sb.DomainError):
        sb.closed_form_decompose(table, sigma=-0.2)


def test_closed_form_rejects_other_channels():
    with pytest.raises(sb.PreconditionError):
        sb.closed_form_decompose(strategy_table("signal_anb_0"), sigma=1.0)


def test_closed_form_sigma_freedom(rng):
    """Every legal sigma reproduces the same table at the same cost."""
    for _ in range(15):
        table, _ = bob_shift_mixture(rng)
        cost = sb.disturbance_cost(table)
        shift = abs(
            float(
                sb.marginal(table, "bob", 0, 0)[0] - sb.marginal(table, "bob", 0, 1)[0]
            )
        )
        sigma_lo = max(0.0, (4.0 * shift - cost) / 3.0)
        costs = []
        for sigma in np.linspace(sigma_lo, cost, 5):
            dec = sb.closed_form_decompose(table, sigma=float(sigma))
            assert dec.residual <= 1e-9
            costs.append(dec.cost)
        assert max(costs) - min(costs) <= 1e-12
        assert sb.lp_min_cost(table).cost == pytest.approx(costs[0], abs=1e-7)


def test_verify_reconstruction_flags_mismatch():
    table = sb.pr_box()
    good = sb.lp_min_cost(table)
    assert sb.verify_reconstruction(table, good) <= 1e-9
    bad = sb.Decomposition(weights={"local_0_0": 1.0}, cost=0.0, residual=0.0)
    assert sb.verify_reconstruction(table, bad) >= 0.2


def _loop_total(start, weights, step):
    """The dict-order loop the stacked reduce replaced: one 4-D update per strategy."""
    total = np.array(start, dtype=float)
    for ident, weight in weights.items():
        step(total, weight * correlation.strategy_table(ident))
    return total


def test_stacked_residual_is_bit_identical_to_the_dict_order_loop(rng):
    """_max_residual against a loop of 4-D adds, by bits."""
    ids = list(sb.FULL_BASIS)
    for k in range(300):
        corr = (random_table(rng), sub_cost_mixture(rng)[0], sb.pr_box())[k % 3]
        chosen = rng.permutation(ids)[: int(rng.integers(0, 33))].tolist()
        values = rng.normal(size=len(chosen)) * (rng.random(len(chosen)) < 0.7)
        if k % 5 == 0:
            values = np.where(values == 0.0, -0.0, values)
        weights = dict(zip(chosen, values.tolist()))
        total = _loop_total(np.zeros((2, 2, 2, 2)), weights, np.ndarray.__iadd__)
        want = float(np.abs(corr.p - total).max()).hex()
        dec = sb.Decomposition(weights=weights, cost=0.0, residual=0.0)
        assert simulate._max_residual(corr, weights).hex() == want
        assert sb.verify_reconstruction(corr, dec).hex() == want


def _weights_loop_lp_min_cost(corr, basis=None):
    """lp_min_cost as it stood: a weights loop over the solution, then the 4-D residual chain."""
    from signalbox.correlation import _STRATEGY_TABLES, strategy_column
    from signalbox.simplex import solve_lp
    from signalbox.simulate import (
        FULL_BASIS, STRATEGY_COSTS, _CATALOG_CONSTRAINTS, _WEIGHT_CUTOFF, Decomposition,
        DomainError,
    )

    def _max_residual(corr, weights):
        tables = _STRATEGY_TABLES[[strategy_column(ident) for ident in weights]]
        weighted = np.array(list(weights.values())).reshape(-1, 1, 1, 1, 1) * tables
        total = np.add.reduce(weighted, axis=0, initial=0.0)
        return float(np.abs(corr.p - total).max())

    if basis is None:
        ids, columns = FULL_BASIS, slice(None)
    else:
        ids = tuple(basis)
        if not ids:
            raise DomainError("basis must name at least one strategy")
        columns = [strategy_column(ident) for ident in ids]
    rhs = np.concatenate([corr.p.ravel(), [1.0]])
    solution = solve_lp(STRATEGY_COSTS[columns], _CATALOG_CONSTRAINTS[:, columns], rhs)
    weights = {}
    for ident, value in zip(ids, solution.x.tolist()):
        if value > _WEIGHT_CUTOFF:
            weights[ident] = value
    return Decomposition(
        weights=weights,
        cost=float(solution.objective),
        residual=_max_residual(corr, weights),
    )


def _decomposition_key(decompose, *args):
    """Weights (ids in order), cost and residual as hex, or the error class and message."""
    try:
        dec = decompose(*args)
    except sb.SignalBoxError as exc:
        return type(exc), str(exc)
    return [(k, v.hex()) for k, v in dec.weights.items()], dec.cost.hex(), dec.residual.hex()


def _qubit_table(state, observables):
    return sb.sequential_correlation(state, *observables)


def test_lp_result_assembly_is_bit_identical_to_the_weights_loop(rng):
    """lp_min_cost against its replaced result assembly, over 2100 catalog tables."""
    draws = (
        lambda: sub_cost_mixture(rng)[0],
        lambda: super_cost_mixture(rng, "bob")[0],
        lambda: super_cost_mixture(rng, "alice")[0],
        lambda: bob_shift_mixture(rng)[0],
        lambda: _qubit_table(*random_quantum_instance(rng)),
        lambda: random_table(rng),
    )
    shuffled = tuple(rng.permutation(sb.FULL_BASIS).tolist())
    bases = (
        sb.LOCAL_IDS,
        sb.PLUS_LOCAL_IDS + sb.VIOLATING_IDS,
        shuffled[:20],
        shuffled,
        # A repeated strategy: only its first copy can enter a Bland pivot.
        ("signal_0_anb",) + sb.FULL_BASIS,
    )
    outcomes = {"InfeasibleError": 0, "solved": 0, "custom basis": 0}
    for k in range(2100):
        corr = draws[k % len(draws)]()
        args = (corr,) if k % 3 else (corr, bases[k // 3 % len(bases)])
        want = _decomposition_key(_weights_loop_lp_min_cost, *args)
        assert _decomposition_key(sb.lp_min_cost, *args) == want
        outcomes["solved" if isinstance(want[0], list) else want[0].__name__] += 1
        outcomes["custom basis"] += len(args) == 2
    assert min(outcomes.values()) >= 500, outcomes


def test_lp_refuses_a_bare_string_basis():
    """A string is one id, not a basis: it is refused, not read letter by letter."""
    with pytest.raises(sb.DomainError, match="collection of strategy ids"):
        sb.lp_min_cost(sb.pr_box(), basis="signal_0_anb")
    single = sb.lp_min_cost(strategy_table("signal_0_anb"), basis=("signal_0_anb",))
    assert single.weights == {"signal_0_anb": 1.0}


def _closed_form_three_reads(corr, sigma=0.0):
    """closed_form_decompose as it stood: cost, shifts and marginals each read the table."""
    from signalbox.simulate import (
        PLUS_LOCAL_IDS, VIOLATING_IDS, _LOCAL_ENTRIES, _RESIDUAL_TOL, _WEIGHT_CUTOFF,
        Decomposition, DomainError, InfeasibleError, PreconditionError, _max_residual,
    )
    from signalbox.correlation import (
        StrategyKind, _table_terms, catalog, disturbance_cost, signaling_deltas,
    )

    cost = disturbance_cost(corr)
    if not -1e-12 <= sigma <= cost + 1e-12:
        raise DomainError(f"sigma {sigma} outside [0, {cost}]")
    sigma = min(max(sigma, 0.0), cost)

    deltas = signaling_deltas(corr)
    side_shifts = (deltas.to_bob_at_b1, deltas.to_alice_at_a1, deltas.to_alice_at_a0)
    if max(side_shifts) > 1e-9:
        raise PreconditionError(
            "closed form handles a single active shift (bob at b=0); "
            f"other channels shift by up to {max(side_shifts)}"
        )
    bob = _table_terms(corr.p.reshape(16).tolist())[2]
    # Signed shift of bob's b=0 marginal when alice flips her setting.
    shift = bob[0][0] - bob[1][0]
    window = (cost + 3.0 * sigma) / 4.0
    if abs(shift) > window + 1e-12:
        raise PreconditionError(
            f"shift {abs(shift)} exceeds the positivity window {window} "
            f"for sigma={sigma}"
        )

    weights = {}
    base = (cost - sigma) / 8.0
    lifted = (cost + 3.0 * sigma) / 8.0
    for ident in VIOLATING_IDS:
        weights[ident] = base
    weights["signal_0_anb"] = lifted + shift / 2.0
    weights["signal_1_canb"] = lifted - shift / 2.0
    for ident, value in weights.items():
        if value < -1e-9:
            raise PreconditionError(
                f"one-bit weight for {ident} came out negative ({value})"
            )
        weights[ident] = max(0.0, value)

    entries = corr.p.reshape(16).tolist()
    for ident, k in zip(PLUS_LOCAL_IDS, _LOCAL_ENTRIES):
        weights[ident] = entries[k]

    weights = {k: v for k, v in weights.items() if v > _WEIGHT_CUTOFF}
    one_bit = sum(
        (v for k, v in weights.items() if catalog(k).kind is not StrategyKind.LOCAL), 0.0
    )
    residual = _max_residual(corr, weights)
    if residual > _RESIDUAL_TOL:
        raise InfeasibleError(
            f"closed-form reconstruction misses the table by {residual}"
        )
    return Decomposition(weights=weights, cost=one_bit, residual=residual)


# The least-squares fit that solved for the locals before they were read
# off the table, kept verbatim as the record of the replaced solver.
_PLUS_LOCAL_COLUMNS = correlation.STRATEGY_MATRIX[
    :, [correlation.strategy_column(ident) for ident in sb.PLUS_LOCAL_IDS]
]


def _weighted_tables(weights: dict) -> np.ndarray:
    """``weight * table`` of every strategy in ``weights``, stacked in dict order."""
    tables = correlation._STRATEGY_TABLES[[correlation.strategy_column(ident) for ident in weights]]
    return np.array(list(weights.values())).reshape(-1, 1, 1, 1, 1) * tables


def _closed_form_lstsq(corr, sigma=0.0):
    """closed_form_decompose with its locals fitted by lstsq to the table's remainder."""
    from signalbox.simulate import (
        PLUS_LOCAL_IDS, VIOLATING_IDS, _INPUT_SLACK, _RESIDUAL_TOL, _WEIGHT_CUTOFF,
        Decomposition, DomainError, InfeasibleError, PreconditionError,
        _check_real, _max_residual, disturbance_from_functional,
    )
    from signalbox.correlation import StrategyKind, catalog

    # One read of the table gives the cost, the shifts and bob's marginals.
    functional, _, bob, to_bob, to_alice = _table_terms(corr._entries)
    cost = disturbance_from_functional(abs(functional))
    if not -_INPUT_SLACK <= _check_real(sigma, "sigma") <= cost + _INPUT_SLACK:
        raise DomainError(f"sigma {sigma} outside [0, {cost}]")
    sigma = min(max(sigma, 0.0), cost)

    side_shifts = (to_bob[1], to_alice[1], to_alice[0])
    if max(side_shifts) > 1e-9:
        raise PreconditionError(
            "closed form handles a single active shift (bob at b=0); "
            f"other channels shift by up to {max(side_shifts)}"
        )
    # Signed shift of bob's b=0 marginal when alice flips her setting.
    shift = bob[0][0] - bob[1][0]
    window = (cost + 3.0 * sigma) / 4.0
    if abs(shift) > window + _INPUT_SLACK:
        raise PreconditionError(
            f"shift {abs(shift)} exceeds the positivity window {window} "
            f"for sigma={sigma}"
        )

    weights = dict.fromkeys(VIOLATING_IDS, (cost - sigma) / 8.0)
    lifted = (cost + 3.0 * sigma) / 8.0
    # The window check keeps these above about -5e-13, half its slack.
    weights["signal_0_anb"] = max(0.0, lifted + shift / 2.0)
    weights["signal_1_canb"] = max(0.0, lifted - shift / 2.0)

    # Subtracted one table after another, in dict order, as in _max_residual.
    remainder = np.subtract.reduce(
        np.concatenate([corr.p[None], _weighted_tables(weights)]), axis=0
    )

    local_w = np.linalg.lstsq(_PLUS_LOCAL_COLUMNS, remainder.ravel(), rcond=None)[0]
    if float(local_w.min()) < -1e-9:
        raise InfeasibleError(
            f"local remainder needs a negative weight ({float(local_w.min())})"
        )
    for ident, value in zip(PLUS_LOCAL_IDS, local_w):
        weights[ident] = max(0.0, float(value))

    weights = {k: v for k, v in weights.items() if v > _WEIGHT_CUTOFF}
    one_bit = sum(
        v for k, v in weights.items() if catalog(k).kind is not StrategyKind.LOCAL
    )
    residual = _max_residual(corr, weights)
    if residual > _RESIDUAL_TOL:
        raise InfeasibleError(
            f"closed-form reconstruction misses the table by {residual}"
        )
    return Decomposition(weights=weights, cost=one_bit, residual=residual)


def _decomposition_bits(fn, table, sigma):
    try:
        dec = fn(table, sigma=sigma)
    except sb.SignalBoxError as exc:
        return type(exc), str(exc)
    return [(k, v.hex()) for k, v in dec.weights.items()], dec.cost.hex(), dec.residual.hex()


def _closed_form_mix(rng):
    """300 (table, sigma) pairs: bob-shift mixtures with sigma across its window,
    below it (shift past the window), past the cost and below 0, plus tables
    with other channels active."""
    for k in range(300):
        table, _ = bob_shift_mixture(rng)
        if k % 10 == 9:
            table = (random_table(rng), sub_cost_mixture(rng)[0], strategy_table("signal_anb_0"))[k % 3]
        cost = sb.disturbance_cost(table)
        yield table, float((rng.uniform(0.0, cost), 0.0, cost, rng.uniform(-0.2, cost + 0.2))[k % 4])


def test_closed_form_single_read_is_bit_identical_to_three_reads(rng):
    """One table read gives the three-read Decomposition, hex for hex, errors included."""
    errors = 0
    for table, sigma in _closed_form_mix(rng):
        want = _decomposition_bits(_closed_form_three_reads, table, sigma)
        assert _decomposition_bits(sb.closed_form_decompose, table, sigma) == want
        errors += isinstance(want, tuple) and len(want) == 2
    assert 30 <= errors <= 270


def test_closed_form_reads_agree_with_the_lstsq_fit(rng):
    """Reading the locals off the table moves only the locals' last bits.

    Against the least-squares fit, on the mix of the single-read test:
    the cost and the one-bit weights are hex-equal, each local weight is
    within 2e-15, and every error has the same class and message.
    """
    decompositions = 0
    for table, sigma in _closed_form_mix(rng):
        try:
            fit = _closed_form_lstsq(table, sigma)
        except sb.SignalBoxError as exc:
            assert _decomposition_bits(sb.closed_form_decompose, table, sigma) == (type(exc), str(exc))
            continue
        decompositions += 1
        dec = sb.closed_form_decompose(table, sigma)
        assert dec.cost.hex() == fit.cost.hex()
        assert set(dec.weights) == set(fit.weights)
        for ident, weight in fit.weights.items():
            if ident in sb.PLUS_LOCAL_IDS:
                assert abs(dec.weights[ident] - weight) <= 2e-15, ident
            else:
                assert dec.weights[ident].hex() == weight.hex(), ident
    assert decompositions >= 30


def test_local_entries_are_reached_by_their_local_alone():
    """Each +2 local is the only one of the closed form's sixteen strategies
    that reaches its entry of _LOCAL_ENTRIES, so that entry is its weight."""
    sixteen = sb.PLUS_LOCAL_IDS + sb.VIOLATING_IDS
    assert simulate._LOCAL_ENTRIES == (8, 14, 1, 6, 5, 2, 13, 11)
    for ident, k in zip(sb.PLUS_LOCAL_IDS, simulate._LOCAL_ENTRIES):
        reach = [other for other in sixteen if correlation.strategy_table(other).flat[k] != 0.0]
        assert reach == [ident]


def test_closed_form_is_exact_on_dyadic_mixtures(rng):
    """Bob-shift mixtures in 1/64ths decompose exactly: each local weight is
    its mixture weight and the residual is 0.0."""
    for _ in range(200):
        counts = rng.multinomial(64, rng.dirichlet(np.full(len(BOB_SHIFT_IDS), 0.5)))
        mixture = dict(zip(BOB_SHIFT_IDS, (counts / 64.0).tolist()))
        table = sb.mix(list(mixture.values()), [strategy_table(i) for i in BOB_SHIFT_IDS])
        dec = sb.closed_form_decompose(table, sigma=sb.disturbance_cost(table))
        assert dec.residual == 0.0
        for ident in sb.PLUS_LOCAL_IDS:
            assert dec.weights.get(ident, 0.0) == mixture[ident], ident


def test_closed_form_of_a_local_table():
    """A +2 local is its own decomposition, at cost 0.0 as a float; a -2
    local is off the family and misses the table."""
    for ident in sb.PLUS_LOCAL_IDS:
        dec = sb.closed_form_decompose(strategy_table(ident))
        assert dec.weights == {ident: 1.0}
        assert (dec.cost.hex(), dec.residual) == ((0.0).hex(), 0.0)
    with pytest.raises(sb.InfeasibleError, match="closed-form reconstruction misses the table by"):
        sb.closed_form_decompose(strategy_table("local_1_0"))


_BOB_SHIFT_WEIGHTS = (
    st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10)
    .filter(lambda w: sum(w) > 0.0)
    .map(lambda w: np.array(w) / np.sum(w))
)


@settings(max_examples=300, deadline=None)
@given(_BOB_SHIFT_WEIGHTS, st.floats(0.0, 1.0))
@example(np.array([0.0] * 8 + [0.3, 0.7]), 0.0)
@example(np.array([0.0] * 8 + [0.3, 0.7]), 1.0)
def test_closed_form_one_bit_weights_at_the_window_edge(weights, inside):
    """At the positivity window's edge, and up to its 1e-12 slack past it, every
    one-bit weight is at least -5e-13 before the clamp at 0.

    That bound is why closed_form_decompose has no negativity check of its
    own.  sigma starts at the edge, where the window equals the shift, and
    steps down by up to 4e-12/3, which shrinks the window by up to 1e-12.
    A weight is half of window minus shift, so its floor is half the slack,
    less the rounding of ``window + 1e-12`` (window <= 1): -5.000028e-13
    has been seen at the slack's very end.
    """
    table = sb.mix(weights, [strategy_table(i) for i in BOB_SHIFT_IDS])
    functional, _, bob, *_ = _table_terms(table._entries)
    cost = disturbance_from_functional(abs(functional))
    shift = bob[0][0] - bob[1][0]
    edge = (4.0 * abs(shift) - cost) / 3.0
    for sigma in (edge, edge - inside * 4e-12 / 3.0):
        if not 0.0 <= sigma <= cost:
            continue
        try:
            dec = sb.closed_form_decompose(table, sigma=sigma)
        except sb.PreconditionError:
            continue  # rounded past the slack
        lifted = (cost + 3.0 * sigma) / 8.0
        pair = {"signal_0_anb": lifted + shift / 2.0, "signal_1_canb": lifted - shift / 2.0}
        for ident, value in pair.items():
            assert value >= -5e-13 - 2.0**-53
            assert dec.weights.get(ident, 0.0) == (value if value > 1e-12 else 0.0)


def test_communication_cost_examples():
    assert sb.communication_cost(sb.pr_box()) == pytest.approx(1.0)
    assert sb.communication_cost(sb.tsirelson_box()) == pytest.approx(
        ROOT2 - 1.0, abs=1e-9
    )
    # a silent-functional echo still pays for its marginal shift
    assert sb.communication_cost(strategy_table("signal_a_a")) == pytest.approx(1.0)
    assert sb.communication_cost(sb.tsirelson_signal_box()) == pytest.approx(0.5)


def test_classify_pr_box():
    report = sb.classify(sb.pr_box())
    assert report.functional == pytest.approx(4.0)
    assert report.disturbance == pytest.approx(1.0)
    assert report.signal <= 1e-9
    assert report.cost == pytest.approx(1.0)
    assert report.eta == pytest.approx(1.0, abs=1e-9)
    assert report.classical is False
    assert report.measure == "mutual_info"


def test_classify_measure_validation():
    with pytest.raises(sb.DomainError):
        sb.classify(sb.pr_box(), measure="capacity")


def test_classify_unbalanced_endpoints():
    # fully imbalanced: the shift pays the entire disturbance cost
    report0 = sb.classify(sb.unbalanced_pr(0.0), measure="delta")
    assert report0.eta == pytest.approx(0.0, abs=1e-12)
    assert report0.classical is True
    # balanced: no shift at all, the full bit goes unexplained
    report_half = sb.classify(sb.unbalanced_pr(0.5), measure="delta")
    assert report_half.eta == pytest.approx(1.0, abs=1e-12)
    assert report_half.classical is False


def test_classify_internal_consistency(rng):
    for _ in range(10):
        table, _ = sub_cost_mixture(rng)
        for measure in ("mutual_info", "delta"):
            report = sb.classify(table, measure=measure)
            chosen = (
                report.signal_mutual_info
                if measure == "mutual_info"
                else report.signal_delta
            )
            assert report.signal == pytest.approx(chosen, abs=1e-15)
            assert report.cost == pytest.approx(
                max(report.disturbance, report.signal), abs=1e-15
            )
            assert report.eta == pytest.approx(
                report.cost - report.signal, abs=1e-15
            )
            assert report.classical == (report.eta <= 1e-9)


def test_synthetic_signal_table_cells():
    table = sb.tsirelson_signal_box()
    hi = (2.0 + ROOT2) / 8.0
    lo = (2.0 - ROOT2) / 8.0
    assert np.allclose(table.p[0, 0], [[2.0 * hi, 0.0], [2.0 * lo, 0.0]])
    assert np.allclose(table.p[1, 0], [[lo, hi], [hi, lo]])
    assert np.allclose(table.p[0, 1], [[hi, lo], [lo, hi]])
    assert np.allclose(table.p[1, 1], [[hi, lo], [lo, hi]])


def test_synthetic_signal_table_disagreeing_verdicts():
    """The two signal measures split on this table by construction."""
    table = sb.tsirelson_signal_box()
    assert sb.functional_value(table) == pytest.approx(2.0 * ROOT2, abs=1e-12)
    report = sb.classify(table)
    assert report.signal_mutual_info == pytest.approx(MU, abs=1e-9)
    assert report.signal_delta == pytest.approx(0.5, abs=1e-12)
    assert report.classical_by_mutual_info is False
    assert report.classical_by_delta is True
    assert report.eta == pytest.approx(0.09228546748573252, abs=1e-6)
    delta_report = sb.classify(table, measure="delta")
    assert delta_report.classical is True
    assert delta_report.eta == pytest.approx(0.0, abs=1e-12)


def test_super_cost_generator_is_honest(rng):
    """Spot check the acceptance generator in both directions."""
    for toward in ("bob", "alice"):
        for _ in range(5):
            table, shift_max = super_cost_mixture(rng, toward=toward)
            assert shift_max > sb.disturbance_cost(table) + 1e-6
            dec = sb.lp_min_cost(table)
            assert dec.cost == pytest.approx(shift_max, abs=1e-7)


def test_decomposition_json_dict():
    dec = sb.lp_min_cost(sb.pr_box())
    payload = sb.decomposition_json_dict(dec)
    assert set(payload) == {"weights", "cost", "residual"}
    assert payload["cost"] == pytest.approx(1.0, abs=1e-9)
    assert list(payload["weights"]) == sorted(payload["weights"])
    for value in payload["weights"].values():
        assert value == float(f"{value:.12g}")


def test_report_json_dict_keys():
    payload = sb.report_json_dict(sb.classify(sb.pr_box()))
    assert set(payload) == {
        "lambda",
        "c_lambda",
        "S",
        "s",
        "C",
        "eta",
        "classical",
        "S_mutual_info",
        "S_delta",
        "classical_mutual_info",
        "classical_delta",
        "alpha_star",
        "b_star",
        "measure",
    }
    assert payload["classical"] is False
    assert payload["measure"] == "mutual_info"
    assert payload["lambda"] == pytest.approx(4.0)


def _report_key(report):
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in vars(report).items()
    }


def _batch_tables(rng):
    """Conftest families, deterministic tables, and clamped or -0.0 entries."""
    tables = []
    for _ in range(40):
        tables.append(sub_cost_mixture(rng)[0].p)
        tables.append(bob_shift_mixture(rng)[0].p)
        tables.append(random_table(rng).p)
        state, obs = random_quantum_instance(rng)
        tables.append(sb.sequential_correlation(state, *obs).p)
    for toward in ("bob", "alice"):
        tables += [super_cost_mixture(rng, toward)[0].p for _ in range(20)]
    tables += [strategy_table(ident).p for ident in sb.FULL_BASIS]
    tables += [sb.pr_box().p, sb.tsirelson_signal_box().p, sb.tsirelson_box().p]
    noisy = []
    for k in range(120):
        p = np.array(tables[k])
        a, b, x, y = rng.integers(0, 2, size=4)
        p[a, b, 1 - x, y] += p[a, b, x, y]
        p[a, b, x, y] = -float(rng.uniform(0.0, 1e-9)) if k % 2 else -0.0
        noisy.append(p)
    return np.array(tables + noisy)


def _composed_report(corr, measure):
    """The verdict composed from the scalar helpers, one table at a time."""
    lam = sb.functional_value(corr)
    floor = sb.disturbance_cost(corr)
    channel = sb.signal_info(corr)
    shift = sb.signaling_deltas(corr).max

    def verdict(signal):
        total = max(floor, signal)
        return total, total - signal, total - signal <= 1e-9

    signal = channel.info if measure == "mutual_info" else shift
    total, eta, classical = verdict(signal)
    return sb.ClassificationReport(
        functional=lam,
        disturbance=floor,
        signal=signal,
        strength=channel.strength,
        cost=total,
        eta=eta,
        classical=classical,
        signal_mutual_info=channel.info,
        signal_delta=shift,
        classical_by_mutual_info=verdict(channel.info)[2],
        classical_by_delta=verdict(shift)[2],
        alpha_star=channel.alpha_star,
        b_star=channel.b_star,
        measure=measure,
    )


def test_classify_batch_matches_classify(rng):
    """Field by field, under float.hex, for both measures.

    The batch equals ``classify`` on each table, and both equal the
    report composed from ``functional_value``, ``signal_info`` and
    ``signaling_deltas``.
    """
    tables = _batch_tables(rng)
    for measure in ("mutual_info", "delta"):
        batch = sb.classify_batch(tables, measure)
        assert len(batch) == len(tables)
        for p, report in zip(tables, batch):
            corr = sb.Correlation(p)
            want = _report_key(_composed_report(corr, measure))
            assert _report_key(report) == want
            assert _report_key(sb.classify(corr, measure)) == want
    single = sb.classify_batch(sb.pr_box().p[None])
    assert _report_key(single[0]) == _report_key(sb.classify(sb.pr_box()))


def _raised(fn, arg):
    try:
        fn(arg)
    except sb.SignalBoxError as exc:
        return type(exc), str(exc)
    raise AssertionError("no error raised")


def test_classify_batch_validation_parity():
    """Bad tables fail as Correlation fails them, with no warning; bad batches are DomainErrors.

    A setting sum past the float range (entries 1e308, 1e308) is inf and
    fails normalization in every validator.
    """
    good = sb.pr_box().p
    nan = good.copy()
    nan[0, 1, 1, 0] = np.nan
    negative = good.copy()
    negative[1, 0, 0, 1] -= 0.25
    negative[1, 0, 1, 1] += 0.25
    negative[1, 0, 0, 1] = -1e-6
    unnormalised = good * 1.01
    infinite = good.copy()
    infinite[0, 0, 0, 0] = np.inf
    overflow = good.copy()
    overflow[0, 1] = [[1e308, 1e308], [0.0, 0.0]]
    assert _raised(sb.Correlation, overflow) == (
        sb.NormalizationError, "per-setting outcome sums deviate from 1 by inf"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (nan, negative, unnormalised, infinite, overflow):
            want = _raised(sb.Correlation, bad)
            assert _raised(correlation.validate_tables, bad[None]) == want
            assert _raised(sb.classify_batch, bad[None]) == want
            assert _raised(sb.classify_batch, np.stack([good, bad, good])) == want
    # Several bad tables: the first one's error is raised, class and message.
    for first, second in ((negative, nan), (nan, negative)):
        want = _raised(sb.Correlation, first)
        for check in (correlation.validate_tables, sb.classify_batch):
            assert _raised(check, np.stack([good, first, second])) == want
    for shape in ((0, 2, 2, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2), (1, 2, 2, 2, 3), (4,)):
        with pytest.raises(sb.DomainError):
            sb.classify_batch(np.full(shape, 0.25))
    for junk in ([[1, 2], [3]], "table", None):
        with pytest.raises(sb.DomainError):
            sb.classify_batch(junk)
    with pytest.raises(sb.DomainError):
        sb.classify_batch(good[None], measure="capacity")
    assert sb.classify_batch(good[None].tolist())[0].functional == 4.0


# The numpy chain that the flat verdict kernel replaced, kept verbatim as
# the oracle that simulate._verdict_rows and the scalar helpers of
# signalbox.correlation have to match bit for bit.
_CHAIN_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0]])


def _chain_terms(p):
    """Functional, zero-label marginals and shifts of tables ``(..., 2, 2, 2, 2)``."""
    values = sb.OUTCOME_VALUES
    correlators = np.einsum("...abxy,x,y->...ab", p, values, values)
    functional = np.sum(_CHAIN_SIGNS * correlators, axis=(-2, -1))
    alice, bob = p[..., 0, :].sum(axis=-1), p[..., 0].sum(axis=-1)
    to_bob = np.abs(bob[..., 0, :] - bob[..., 1, :])
    to_alice = np.abs(alice[..., 0] - alice[..., 1])
    return functional, alice, bob, to_bob, to_alice


def _chain_rows(tables):
    functional, _, bob, to_bob, to_alice = _chain_terms(tables)
    to_bob = to_bob.max(axis=-1)
    rows = []
    for lam, strength, shift, channels in zip(
        np.abs(functional).tolist(),
        to_bob.tolist(),
        np.maximum(to_bob, to_alice.max(axis=-1)).tolist(),
        bob.tolist(),
    ):
        info, alpha_star, b_star = _best_channel(channels)
        floor = correlation.disturbance_from_functional(lam)
        rows.append((lam, floor, info, alpha_star, b_star, strength, shift))
    return rows


def _row_key(row):
    """A verdict row with its floats as ``float.hex`` and ``b_star`` as is."""
    assert type(row[4]) is int
    return tuple(v if k == 4 else v.hex() for k, v in enumerate(row))


def _kernel_tables(rng):
    """Every table family the verdict kernel has to reproduce, validated."""
    strategies = [strategy_table(ident).p for ident in sb.FULL_BASIS]
    tables = [random_table(rng).p for _ in range(300)] + strategies
    # The same deterministic tables with every zero written as -0.0.
    tables += [np.where(p == 0.0, -0.0, p) for p in strategies]
    for k in range(300):
        p = np.array(tables[k % 200])
        for _ in range(1 + k % 3):
            a, b, x, y = rng.integers(0, 2, size=4)
            p[a, b, 1 - x, y] += p[a, b, x, y]
            p[a, b, x, y] = -float(rng.uniform(0.0, 1e-9)) if k % 2 else -0.0
        tables.append(p)
    tables += list(_theta_batch(np.linspace(0.001, 1.5697, 1000))[0])
    tables += [corr.p for corr in near_nonsignaling_tables(rng, 200)]
    # Outcome sums and marginals up to 1 + 1e-9, inside the tolerance: a
    # strategy's setting pair scaled, or a random table's entry raised.
    for k, eps in enumerate(np.linspace(0.0, 0.999e-9, 100).tolist()):
        p = np.array(strategies[k % 32] if k % 2 else tables[k])
        a, b = k % 4 // 2, k % 2
        if k % 2:
            p[a, b] *= 1.0 + eps
        else:
            p[a, b, 0, 0] += eps
        tables.append(p)
    return correlation.validate_tables(np.array(tables))


def test_verdict_kernel_is_bit_identical_to_the_array_chain(rng):
    """Rows and scalar helpers against the replaced numpy chain, by ``float.hex``."""
    tables = _kernel_tables(rng)
    assert np.signbit(tables).any() and (tables < 0.0).sum() == 0
    assert float(tables[..., 0].sum(axis=-1).max()) > 1.0 + 5e-10
    rows = _verdict_rows(tables)
    want = _chain_rows(tables)
    assert len(rows) == len(want) == len(tables)
    for k, row in enumerate(rows):
        single = _verdict_rows(tables[k : k + 1])[0]
        assert _row_key(row) == _row_key(single) == _row_key(want[k])
    functional, alice, bob, to_bob, to_alice = _chain_terms(tables)
    for k, p in enumerate(tables):
        corr = sb.Correlation(p)
        assert sb.signed_functional(corr).hex() == float(functional[k]).hex()
        _, got_alice, got_bob, _, _ = correlation._table_terms(corr.p.reshape(16).tolist())
        for got, chain in ((got_alice, alice[k]), (got_bob, bob[k])):
            assert np.array(got).tobytes() == chain.tobytes()
        deltas = sb.signaling_deltas(corr)
        chain = (to_bob[k, 0], to_bob[k, 1], to_alice[k, 1], to_alice[k, 0])
        assert [v.hex() for v in vars(deltas).values()] == [float(v).hex() for v in chain]
