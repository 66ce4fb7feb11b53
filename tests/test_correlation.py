"""Tables, the four-correlator functional, marginals and the catalog."""

import json
import warnings

import numpy as np
import pytest

import signalbox as sb
from signalbox import correlation
from conftest import dirichlet_mixture, random_table, strategy_table


def test_rejects_wrong_shape():
    with pytest.raises(sb.DomainError):
        sb.Correlation(np.zeros((2, 2, 2)))
    with pytest.raises(sb.DomainError):
        sb.Correlation([[0.5, 0.5], [0.5, 0.5]])


def test_rejects_negative_entries():
    p = np.full((2, 2, 2, 2), 0.25)
    p[0, 0, 0, 0] = -1e-3
    p[0, 0, 1, 1] = 0.25 + 1e-3
    with pytest.raises(sb.NegativeProbabilityError):
        sb.Correlation(p)


def test_clamps_rounding_noise():
    p = np.full((2, 2, 2, 2), 0.25)
    p[0, 0] = [[-1e-12, 0.25], [0.25, 0.5 + 1e-12]]
    corr = sb.Correlation(p)
    assert corr.p[0, 0, 0, 0] == 0.0
    assert corr.p.min() >= 0.0


def test_clamp_never_writes_the_callers_array():
    """The clamp writes a private copy: the input keeps its noise entry."""
    p = np.full((2, 2, 2, 2), 0.25)
    p[0, 1] = [[-5e-10, 0.25], [0.25, 0.5 + 5e-10]]
    before = p.tobytes()
    corr = sb.Correlation(p)
    assert p.tobytes() == before and p.flags.writeable
    assert corr.p[0, 1, 0, 0] == 0.0
    assert not corr.p.flags.writeable
    assert not np.shares_memory(corr.p, p)


def test_rejects_bad_normalization():
    p = np.full((2, 2, 2, 2), 0.25)
    p[1, 1] *= 1.01
    with pytest.raises(sb.NormalizationError):
        sb.Correlation(p)


def test_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        p = np.full((2, 2, 2, 2), 0.25)
        p[1, 0, 1, 0] = bad
        with pytest.raises(sb.DomainError if np.isnan(bad) else sb.SignalBoxError):
            sb.Correlation(p)


def test_table_is_read_only():
    corr = sb.pr_box()
    with pytest.raises(ValueError):
        corr.p[0, 0, 0, 0] = 0.9


def test_non_numeric_input():
    with pytest.raises(sb.DomainError):
        sb.Correlation([[["a", "b"]]])
    # An integer past the float range is refused, not an OverflowError.
    p = np.full((2, 2, 2, 2), 0.25).tolist()
    p[0][1][1][0] = 10**400
    for read in (sb.Correlation, lambda p: correlation.validate_tables([p]),
                 lambda p: sb.from_json_dict({"p": p})):
        with pytest.raises(sb.DomainError, match="int too large to convert to float"):
            read(p)
    with pytest.raises(sb.WeightError, match="int too large to convert to float"):
        sb.mix([10**400, 0.0], [sb.pr_box(), sb.pr_box()])


def test_complex_input_is_refused():
    """A complex table or weight is refused, with no ComplexWarning on the way.

    A cast to float would drop the imaginary part, and the PR box plus
    0.3j would classify as the PR box.  A list holding a complex number
    is refused as a complex ndarray is, and a float32 table still reads.
    """
    pr = sb.pr_box().p
    nested = pr.tolist()
    nested[0][0][0][0] = complex(nested[0][0][0][0], 0.3)
    tables = [sb.pr_box()] * 2
    readers = (sb.Correlation, lambda t: correlation.validate_tables([t]), lambda t: sb.classify_batch([t]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (pr + 0.3j, pr + 0.0j, nested):
            for read in readers:
                with pytest.raises(sb.DomainError, match="complex"):
                    read(bad)
        for bad in (np.array([0.5 + 0.1j, 0.5]), [0.5 + 0j, 0.5], [0.5, 0.5j]):
            with pytest.raises(sb.WeightError, match="complex"):
                sb.mix(bad, tables)
        with pytest.raises(sb.WeightError, match="cannot interpret"):
            sb.mix(["x", 0.5], tables)
        assert sb.Correlation(pr.astype(np.float32)).p.dtype == np.float64


def test_pr_box_correlators():
    pr = sb.pr_box()
    assert pr.expectation(0, 0) == pytest.approx(1.0)
    assert pr.expectation(0, 1) == pytest.approx(1.0)
    assert pr.expectation(1, 0) == pytest.approx(-1.0)
    assert pr.expectation(1, 1) == pytest.approx(1.0)
    assert sb.signed_functional(pr) == pytest.approx(4.0)
    assert sb.functional_value(pr) == pytest.approx(4.0)
    assert sb.disturbance_cost(pr) == pytest.approx(1.0)


_BAD_SETTINGS = (2, -1, 0.0, 1.0, np.float64(1.0), True, False, np.True_, "0", None)


def test_expectation_rejects_bad_setting():
    """Anything but an integer 0 or 1 is a DomainError, never a numpy error."""
    for bad in _BAD_SETTINGS:
        for a, b in ((bad, 0), (0, bad)):
            with pytest.raises(sb.DomainError, match="setting must be 0 or 1"):
                sb.pr_box().expectation(a, b)


def test_marginal_rejects_bad_setting():
    """``marginal`` checks both settings as ``expectation`` does."""
    table = strategy_table("signal_0_anb")
    for bad in _BAD_SETTINGS:
        for side in ("alice", "bob"):
            for own, other in ((bad, 0), (1, bad)):
                with pytest.raises(sb.DomainError, match="setting must be 0 or 1"):
                    sb.marginal(table, side, own, other)


def test_settings_accept_numpy_integers():
    """Integer types index as the plain ``int`` they equal."""
    table = strategy_table("signal_0_anb")
    for a, b in ((np.int64(1), np.int8(0)), (np.uint8(0), np.int32(1))):
        assert table.expectation(a, b) == table.expectation(int(a), int(b))
        for side in ("alice", "bob"):
            got = sb.marginal(table, side, a, b)
            assert got.tobytes() == sb.marginal(table, side, int(a), int(b)).tobytes()


def test_disturbance_cost_clips_at_zero():
    flat = sb.Correlation(np.full((2, 2, 2, 2), 0.25))
    assert sb.functional_value(flat) == pytest.approx(0.0)
    assert sb.disturbance_cost(flat) == 0.0


def test_mix_weight_validation():
    tables = [sb.pr_box(), strategy_table("local_0_0")]
    with pytest.raises(sb.WeightError):
        sb.mix([0.6, 0.6], tables)
    with pytest.raises(sb.WeightError):
        sb.mix([1.2, -0.2], tables)
    with pytest.raises(sb.WeightError):
        sb.mix([1.0], tables)
    with pytest.raises(sb.WeightError):
        sb.mix([], [])
    for bad in ([np.nan, 1.0], [1.0, np.inf], [np.nan, np.nan]):
        with pytest.raises(sb.WeightError, match="non-finite"):
            sb.mix(bad, tables)


def test_mix_is_convex_combination():
    a = sb.pr_box()
    b = strategy_table("local_0_0")
    out = sb.mix([0.25, 0.75], [a, b])
    assert np.allclose(out.p, 0.25 * a.p + 0.75 * b.p)


def test_marginal_of_signaling_strategy():
    # Bob plays a AND (NOT b): at b=0 his outcome tracks alice's setting,
    # at b=1 it is stuck at label 0.
    table = strategy_table("signal_0_anb")
    assert sb.marginal(table, "bob", 0, 0)[0] == pytest.approx(1.0)
    assert sb.marginal(table, "bob", 0, 1)[0] == pytest.approx(0.0)
    assert sb.marginal(table, "bob", 1, 0)[0] == pytest.approx(1.0)
    assert sb.marginal(table, "bob", 1, 1)[0] == pytest.approx(1.0)
    for own in (0, 1):
        for other in (0, 1):
            assert sb.marginal(table, "alice", own, other)[0] == pytest.approx(1.0)


def test_marginal_rejects_bad_side():
    with pytest.raises(sb.DomainError):
        sb.marginal(sb.pr_box(), "carol", 0, 0)


def test_marginals_sum_to_one(rng):
    for _ in range(20):
        table = random_table(rng)
        for side in ("alice", "bob"):
            for own in (0, 1):
                for other in (0, 1):
                    total = float(sb.marginal(table, side, own, other).sum())
                    assert total == pytest.approx(1.0, abs=1e-12)


def test_table_terms_marginals_match_marginal(rng):
    """Each ``_table_terms`` marginal is the bits of ``marginal(...)[0]``, clamped noise included."""
    for k in range(200):
        cells = rng.dirichlet(np.full(4, 0.5), size=4).reshape(2, 2, 2, 2)
        if k % 2:
            # Zero some entries, renormalize, then write rounding noise
            # in [-1e-9, 0) or a negative zero where the zeros were.
            largest = cells == cells.max(axis=(2, 3), keepdims=True)
            hit = (rng.random(cells.shape) < 0.3) & ~largest
            cells[hit] = 0.0
            cells /= cells.sum(axis=(2, 3), keepdims=True)
            noise = -rng.uniform(0.0, 1e-9, size=cells.shape)
            noise[rng.random(cells.shape) < 0.3] = -0.0
            cells[hit] = noise[hit]
        table = sb.Correlation(cells)
        _, alice, bob, _, _ = correlation._table_terms(table.p.reshape(16).tolist())
        for a in (0, 1):
            for b in (0, 1):
                want_alice = sb.marginal(table, "alice", a, b)[0]
                want_bob = sb.marginal(table, "bob", b, a)[0]
                assert alice[a][b].hex() == float(want_alice).hex()
                assert bob[a][b].hex() == float(want_bob).hex()


def test_signal_deltas_of_one_bit_strategy():
    deltas = sb.signaling_deltas(strategy_table("signal_0_anb"))
    assert deltas.to_bob_at_b0 == pytest.approx(1.0)
    assert deltas.to_bob_at_b1 == pytest.approx(0.0)
    assert deltas.to_alice_at_a0 == pytest.approx(0.0)
    assert deltas.to_alice_at_a1 == pytest.approx(0.0)
    assert deltas.max == pytest.approx(1.0)
    assert vars(deltas) == {
        "to_bob_at_b0": 1.0, "to_bob_at_b1": 0.0, "to_alice_at_a1": 0.0, "to_alice_at_a0": 0.0,
    }


def test_pr_box_is_nonsignaling():
    assert sb.signaling_deltas(sb.pr_box()).max == pytest.approx(0.0, abs=1e-15)


def test_catalog_size_and_kinds():
    ids = sb.FULL_BASIS
    assert len(ids) == 32
    assert len(set(ids)) == 32
    kinds = [sb.catalog(i).kind for i in ids]
    assert kinds.count(sb.StrategyKind.LOCAL) == 16
    assert kinds.count(sb.StrategyKind.ONE_BIT_VIOLATING) == 8
    assert kinds.count(sb.StrategyKind.ONE_BIT_NONVIOLATING) == 8
    assert ids == sb.LOCAL_IDS + sb.VIOLATING_IDS + sb.NONVIOLATING_IDS


def test_derived_id_lists_match_their_literals():
    """The computed lists, against the literal tuples they replaced."""
    assert sb.NONVIOLATING_IDS == (
        "signal_a_a",
        "signal_a_na",
        "signal_na_a",
        "signal_na_na",
        "signal_b_b",
        "signal_b_nb",
        "signal_nb_b",
        "signal_nb_nb",
    )
    assert sb.VIOLATING_PAIRS == (
        ("signal_0_anb", "signal_1_canb"),
        ("signal_na_cab", "signal_a_ab"),
        ("signal_anb_0", "signal_canb_1"),
        ("signal_nanb_nb", "signal_cnanb_b"),
    )


def test_unknown_strategy_names_the_full_basis():
    """The message prints unquoted, though the class is a KeyError, whose
    str() is the repr of its argument."""
    for lookup in (sb.catalog, correlation.strategy_column):
        with pytest.raises(sb.UnknownStrategyError, match=r"see signalbox\.FULL_BASIS") as caught:
            lookup("signal_q_q")
        assert isinstance(caught.value, KeyError)
        assert str(caught.value).startswith("unknown strategy")


def test_catalog_rejects_unknown_id():
    with pytest.raises(sb.UnknownStrategyError):
        sb.catalog("signal_q_q")


# The rule grammar the catalog was first built from, one function of the
# settings per name, kept here as an independent reference.
_RULE_ORACLE = {
    "0": lambda a, b: 0,
    "1": lambda a, b: 1,
    "a": lambda a, b: a,
    "na": lambda a, b: 1 - a,
    "b": lambda a, b: b,
    "nb": lambda a, b: 1 - b,
    "ab": lambda a, b: a & b,
    "anb": lambda a, b: a & (1 - b),
    "nab": lambda a, b: (1 - a) & b,
    "nanb": lambda a, b: (1 - a) & (1 - b),
    "cab": lambda a, b: 1 - (a & b),
    "canb": lambda a, b: 1 - (a & (1 - b)),
    "cnab": lambda a, b: 1 - ((1 - a) & b),
    "cnanb": lambda a, b: 1 - ((1 - a) & (1 - b)),
}


def _oracle_rule(name):
    fn = _RULE_ORACLE[name]
    return tuple(tuple(fn(a, b) for b in (0, 1)) for a in (0, 1))


def test_rule_names_index_their_truth_tables():
    """Each of the 14 names sits at its rule's 4-bit truth table, labels at
    (a, b) = 00, 01, 10, 11 from the high bit down; parity has no name."""
    assert len(correlation._RULE_NAMES) == 16
    for name in _RULE_ORACLE:
        (r00, r01), (r10, r11) = _oracle_rule(name)
        assert correlation._RULE_NAMES[8 * r00 + 4 * r01 + 2 * r10 + r11] == name
    assert correlation._RULE_NAMES[0b0110] is None and correlation._RULE_NAMES[0b1001] is None


def test_catalog_rules_match_the_rule_oracle():
    """Every id's rules are its two names' oracle rules, as plain ints,
    and the precomputed tables are the oracle's, byte for byte."""
    stack = []
    for ident in sb.FULL_BASIS:
        strategy = sb.catalog(ident)
        x_name, y_name = ident.split("_")[1:]
        assert (strategy.x_rule, strategy.y_rule) == (_oracle_rule(x_name), _oracle_rule(y_name))
        for rule in (strategy.x_rule, strategy.y_rule):
            assert type(rule) is tuple and all(type(row) is tuple for row in rule)
            assert all(type(label) is int for row in rule for label in row)
        p = np.zeros((2, 2, 2, 2))
        for a in (0, 1):
            for b in (0, 1):
                p[a, b, _oracle_rule(x_name)[a][b], _oracle_rule(y_name)[a][b]] = 1.0
        stack.append(p)
    assert correlation._STRATEGY_TABLES.tobytes() == np.stack(stack).tobytes()


def test_strategy_rejects_bad_rules():
    """A rule must be 2x2 tuples of the ints 0 and 1, on either side."""
    good = ((0, 1), (1, 0))
    assert sb.Strategy("x", good, good, sb.StrategyKind.LOCAL).x_rule == good
    for label in (-1, 2, 0.0, 1.0, True, False, "0", None):
        bad = ((label, 0), (0, 0))
        for rules in ((bad, good), (good, bad)):
            message = f"outcome label must be 0 or 1, got {label!r}"
            with pytest.raises(sb.DomainError, match=message):
                sb.Strategy("x", *rules, sb.StrategyKind.LOCAL)
    shapes = (
        0,
        ((0, 0),),
        ((0, 0), (0, 0), (0, 0)),
        ((0, 0, 0), (0, 0)),
        ((0, 0), 0),
        [[0, 0], [0, 0]],
        [(0, 0), (0, 0)],
        ([0, 0], [0, 0]),
    )
    for shape in shapes:
        with pytest.raises(sb.DomainError, match="strategy rule must be a 2x2 tuple"):
            sb.Strategy("x", good, shape, sb.StrategyKind.LOCAL)


def test_strategy_tables_are_deterministic():
    for ident in sb.FULL_BASIS:
        p = strategy_table(ident).p
        # one unit cell per setting pair
        assert np.array_equal(np.sort(p.reshape(4, 4), axis=1)[:, :3], np.zeros((4, 3)))
        assert np.allclose(p.reshape(4, 4).max(axis=1), 1.0)


def test_local_strategies_do_not_signal():
    for ident in sb.LOCAL_IDS:
        assert sb.signaling_deltas(strategy_table(ident)).max == 0.0


def test_functional_signs_by_kind():
    for ident in sb.PLUS_LOCAL_IDS:
        assert sb.signed_functional(strategy_table(ident)) == pytest.approx(2.0)
    minus = set(sb.LOCAL_IDS) - set(sb.PLUS_LOCAL_IDS)
    for ident in minus:
        assert sb.signed_functional(strategy_table(ident)) == pytest.approx(-2.0)
    for ident in sb.VIOLATING_IDS:
        assert sb.signed_functional(strategy_table(ident)) == pytest.approx(4.0)
    for ident in sb.NONVIOLATING_IDS:
        assert sb.functional_value(strategy_table(ident)) <= 2.0 + 1e-12


def test_violating_pairs_average_to_pr_box():
    # pr_box is built from the first pair, so the parity rule of its
    # docstring is the independent reference here.
    parity = np.zeros((2, 2, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            for x in (0, 1):
                for y in (0, 1):
                    if (x ^ y) == (a & (1 - b)):
                        parity[a, b, x, y] = 0.5
    assert sb.pr_box().p.tobytes() == parity.tobytes()
    for first, second in sb.VIOLATING_PAIRS:
        avg = sb.mix([0.5, 0.5], [strategy_table(first), strategy_table(second)])
        assert avg.p.tobytes() == parity.tobytes()


def test_local_mixtures_respect_the_classical_ceiling(rng):
    """Random local mixtures stay at functional <= 2 with zero shifts."""
    for _ in range(60):
        table, _ = dirichlet_mixture(rng, sb.LOCAL_IDS, concentration=0.3)
        assert sb.functional_value(table) <= 2.0 + 1e-12
        assert sb.signaling_deltas(table).max <= 1e-12


def test_json_round_trip(tmp_path):
    table = sb.pr_box()
    payload = sb.to_json_dict(table)
    back = sb.from_json_dict(payload)
    assert np.array_equal(back.p, table.p)

    path = tmp_path / "table.json"
    sb.save_correlation(table, path)
    loaded = sb.load_correlation(path)
    assert np.array_equal(loaded.p, table.p)

    # deterministic serialization: saving again reproduces the bytes
    text = path.read_text()
    sb.save_correlation(loaded, path)
    assert path.read_text() == text
    assert text.endswith("\n")
    assert json.loads(text)["p"][0][0][0][0] == pytest.approx(0.5)


def test_from_json_dict_rejects_bad_payloads():
    with pytest.raises(sb.DomainError):
        sb.from_json_dict(["not", "a", "dict"])
    with pytest.raises(sb.DomainError):
        sb.from_json_dict({"q": []})
    with pytest.raises(sb.DomainError):
        sb.from_json_dict({"p": [[0.5]]})
    ones = sb.catalog("local_0_0").as_correlation().p
    assert sb.from_json_dict({"p": ones.astype(int).tolist()}).p.tobytes() == ones.tobytes()
    table = sb.to_json_dict(sb.pr_box())["p"]
    for leaf in ("0.5", True, False):
        table[0][1][1][1] = leaf
        with pytest.raises(sb.DomainError, match="must be a JSON number"):
            sb.from_json_dict({"p": table})
    # A regular table of floats skips the walk over its nodes; every other
    # payload must read as the walk followed by Correlation reads it: the
    # same bytes, -0.0 kept, or the same error class and message.
    base = sb.to_json_dict(sb.pr_box())["p"]
    signed = json.loads(json.dumps(base))
    signed[0][0][0][1] = signed[1][1][1][0] = -0.0
    local = sb.to_json_dict(sb.catalog("local_0_0").as_correlation())["p"]

    def put(path, leaf, table=base):
        table = json.loads(json.dumps(table))
        node = table
        for index in path[:-1]:
            node = node[index]
        node[path[-1]] = leaf
        return table

    zeros = np.zeros(correlation.TABLE_SHAPE, int).tolist()
    cases = [base, signed, put((0, 0, 0, 0), 1, local), zeros]
    for depth in range(4):
        for leaf in (True, False, "0.25", "", None, {}, {"a": 0.5}, [], 0.25):
            cases.append(put((1, 0, 1, 0)[: depth + 1], leaf))
    cases += [
        None, "", True, base[:1], base + base[:1], put((0, 1, 1), [0.5, 0.0, 0.0]),
        base[0], [base, base], put((0, 0, 0, 0), [0.5]),
        [[[[0.5] * 4] * 2, ""], base[1]],
    ]
    for table in cases:
        assert _outcome(sb.from_json_dict, {"p": table}) == _outcome(_walk_then_read, table)
    assert np.signbit(sb.from_json_dict({"p": signed}).p).sum() == 2


def _walk_then_read(table):
    """The reader before its float-table fast path: refuse any string or
    bool reached through lists, then validate."""
    pending = [table]
    while pending:
        node = pending.pop()
        if isinstance(node, list):
            pending.extend(reversed(node))
        elif isinstance(node, (str, bool)):
            raise sb.DomainError(f"table entry must be a JSON number, got {json.dumps(node)}")
    return sb.Correlation(table)


def _outcome(read, payload):
    """The parsed table's bytes, or the error's class and message."""
    try:
        return read(payload).p.tobytes()
    except sb.SignalBoxError as exc:
        return type(exc), str(exc)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "junk.json"
    for data in (b"{not json", b"\xff\xfe{}", b"[" * 100000):
        path.write_bytes(data)
        with pytest.raises(sb.DomainError):
            sb.load_correlation(path)


def test_error_hierarchy():
    assert issubclass(sb.NormalizationError, sb.SignalBoxError)
    assert issubclass(sb.NormalizationError, ValueError)
    assert issubclass(sb.UnknownStrategyError, KeyError)
    assert issubclass(sb.NoCrossoverError, ArithmeticError)
    assert issubclass(sb.InfeasibleError, sb.SignalBoxError)
