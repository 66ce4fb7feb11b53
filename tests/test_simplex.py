"""Dense two-phase simplex solver, checked against scipy on random programs."""

import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

import signalbox as sb
from signalbox import correlation, simplex, simulate
from conftest import (
    random_quantum_instance,
    random_table,
    sub_cost_mixture,
    super_cost_mixture,
)


def test_single_variable():
    res = sb.solve_lp(np.array([3.0]), np.array([[2.0]]), np.array([4.0]))
    assert res.x[0] == pytest.approx(2.0)
    assert res.objective == pytest.approx(6.0)


def test_small_known_program():
    # min x1 + x2 with x1 + 2 x2 = 1: put everything on the cheap column
    res = sb.solve_lp(
        np.array([1.0, 1.0]), np.array([[1.0, 2.0]]), np.array([1.0])
    )
    assert res.objective == pytest.approx(0.5)
    assert np.allclose(res.x, [0.0, 0.5])


def test_negative_rhs_is_handled():
    # -x1 = -3 has the solution x1 = 3 after the sign flip
    res = sb.solve_lp(np.array([1.0]), np.array([[-1.0]]), np.array([-3.0]))
    assert res.x[0] == pytest.approx(3.0)


def test_shape_validation():
    with pytest.raises(sb.DomainError):
        sb.solve_lp(np.ones(2), np.ones((2, 3)), np.ones(2))
    with pytest.raises(sb.DomainError):
        sb.solve_lp(np.ones(3), np.ones((2, 3)), np.ones(3))
    with pytest.raises(sb.DomainError):
        sb.solve_lp(np.ones(3), np.ones(3), np.ones(1))


def test_complex_program_is_refused():
    """A complex c, A or b is a DomainError, with no ComplexWarning on the way."""
    c, a, b = [1.0, 2.0], [[1.0, 1.0]], [1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (
            (np.array(c) + 1e-3j, a, b),
            (c, [[1.0, 1.0 + 0j]], b),
            (c, a, np.array([1.0 + 0.5j])),
        ):
            with pytest.raises(sb.DomainError, match="complex"):
                sb.solve_lp(*bad)
        with pytest.raises(sb.DomainError, match="cannot interpret"):
            sb.solve_lp(c, [["x", 1.0]], b)
        assert sb.solve_lp(c, a, b).objective == 1.0


def test_redundant_rows_are_dropped():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = sb.solve_lp(np.array([1.0, 2.0]), a, b)
    assert res.objective == pytest.approx(1.0)
    assert np.allclose(a @ res.x, b, atol=1e-10)


def test_inconsistent_rows_raise():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(sb.InfeasibleError):
        sb.solve_lp(np.array([1.0, 1.0]), a, np.array([1.0, 2.0]))


def test_infeasible_program_raises():
    # x1 + x2 = -1 has no nonnegative solution
    with pytest.raises(sb.InfeasibleError):
        sb.solve_lp(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([-1.0]))


def test_unbounded_program_raises():
    # min -x1 with x1 - x2 = 1: x2 free to grow
    with pytest.raises(sb.UnboundedError):
        sb.solve_lp(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0]))


def test_beale_cycling_example():
    """Bland's rule terminates on the classic cycling program."""
    a = np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0, 0.0, 0.0, 0.0])
    res = sb.solve_lp(c, a, b)
    assert res.objective == pytest.approx(-0.05, abs=1e-12)


def test_optimality_certificates(rng):
    """Nonnegative reduced costs and a feasible point at every optimum."""
    for _ in range(30):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, n))
        a = rng.normal(size=(m, n))
        x_star = rng.random(n)
        b = a @ x_star
        c = rng.random(n)  # nonnegative costs keep the program bounded
        res = sb.solve_lp(c, a, b)
        assert np.all(res.x >= 0.0)
        assert np.linalg.norm(a @ res.x - b, np.inf) <= 1e-8
        assert res.reduced_costs.min() >= -1e-9
        assert res.iterations >= 0
        assert res.objective <= float(c @ x_star) + 1e-9


def test_matches_scipy_on_random_programs(rng):
    agreed = 0
    for _ in range(40):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(2, n))
        a = rng.normal(size=(m, n))
        b = a @ rng.random(n)
        c = rng.normal(size=n)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if ref.status == 3:
            with pytest.raises(sb.UnboundedError):
                sb.solve_lp(c, a, b)
            continue
        assert ref.status == 0
        res = sb.solve_lp(c, a, b)
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        agreed += 1
    assert agreed >= 20  # bounded cases dominate these draws


def test_matches_scipy_on_strategy_membership(rng):
    """The production use case: strategy-basis membership programs."""
    ids = sb.FULL_BASIS
    cols = np.stack([sb.catalog(i).as_correlation().p.ravel() for i in ids], axis=1)
    a = np.vstack([cols, np.ones((1, len(ids)))])
    cost = np.array(
        [0.0 if sb.catalog(i).kind is sb.StrategyKind.LOCAL else 1.0 for i in ids]
    )
    for _ in range(25):
        w = rng.dirichlet(np.full(len(ids), 0.2))
        rhs = np.concatenate([(cols @ w), [1.0]])
        ref = linprog(cost, A_eq=a, b_eq=rhs, bounds=(0, None), method="highs")
        assert ref.status == 0
        res = sb.solve_lp(cost, a, rhs)
        assert res.objective == pytest.approx(ref.fun, abs=1e-8)


@pytest.mark.parametrize(
    "c, a, b, name",
    [
        ([1.0, 1.0], [[1.0, np.inf]], [1.0], "A"),
        ([1.0, 1.0], [[1.0, 1.0]], [np.nan], "b"),
        ([np.nan, 1.0], [[1.0, 1.0]], [1.0], "c"),
        # Both A and b are non-finite: the checks run c, then A, then b.
        ([1.0, 1.0], [[np.nan, 1.0]], [-np.inf], "A"),
        # The prepared catalog program skips only its own A's and c's checks.
        ("catalog", "catalog", [np.nan] + [0.0] * 16, "b"),
        ([np.inf] + [0.0] * 31, "catalog", [np.nan] * 17, "c"),
    ],
    ids=[
        "inf-in-A", "nan-in-b", "nan-in-c", "nan-in-A-and-inf-in-b",
        "nan-in-b-of-the-prepared-program", "inf-in-c-beside-the-prepared-matrix",
    ],
)
def test_non_finite_program_is_rejected(monkeypatch, c, a, b, name):
    """A NaN or infinity raises DomainError, naming the first bad array, before any elimination."""
    simulate._solver()  # prepares the catalog program
    catalog = {"c": correlation.STRATEGY_COSTS, "A": simulate._CATALOG_CONSTRAINTS}

    def no_elimination(*args):
        raise AssertionError("elimination ran on non-finite input")

    monkeypatch.setattr(simplex, "_cached_program", no_elimination)
    monkeypatch.setattr(simplex._Program, "check", no_elimination)
    c, a = (catalog[k] if v == "catalog" else np.array(v) for k, v in (("c", c), ("A", a)))
    with pytest.raises(sb.DomainError, match=f"^{name} has a non-finite entry$"):
        sb.solve_lp(c, a, np.array(b))


def _rows_eliminated_together(a, b, tol):
    """Reference: eliminate [A | b] in one piece, returning the kept rows."""
    m = a.shape[0]
    work = np.hstack([a, b.reshape(-1, 1)]).astype(float)
    order = list(range(m))
    rank = 0
    for col in range(a.shape[1]):
        if rank >= m:
            break
        piv = rank + int(np.argmax(np.abs(work[rank:, col])))
        if abs(work[piv, col]) <= tol:
            continue
        if piv != rank:
            work[[rank, piv]] = work[[piv, rank]]
            order[rank], order[piv] = order[piv], order[rank]
        factors = work[rank + 1 :, col] / work[rank, col]
        work[rank + 1 :] -= np.outer(factors, work[rank])
        rank += 1
    for i in range(rank, m):
        if abs(work[i, -1]) > 1e-9:
            raise sb.InfeasibleError(
                f"equality system is inconsistent (residual {work[i, -1]:.3e})"
            )
    return sorted(order[:rank])


def _outcome(fn):
    try:
        return list(fn())
    except sb.InfeasibleError as exc:
        return str(exc)


def _checked_rows(a, b):
    """The rows A's program keeps, once its consistency check passes b."""
    program = simplex._cached_program(a.shape, a.tobytes())
    program.check(b)
    return program.keep


def test_replayed_elimination_matches_joint_elimination(rng):
    """Rows kept and inconsistency residuals are those of [A | b] itself."""
    simplex._cached_program.cache_clear()
    for _ in range(60):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 3))
        a = rng.normal(size=(m, n))
        if m > 1:
            a[-1] = a[0] * rng.normal()
        for b in (a @ rng.random(n), rng.normal(size=m), a @ rng.random(n) + 1e-7):
            got = _outcome(lambda: _checked_rows(a, b))
            want = _outcome(lambda: _rows_eliminated_together(a, b, 1e-10))
            assert got == want


def test_cached_elimination_is_bitwise_transparent(rng):
    """Cold and warm solves on one matrix agree to the last bit."""
    ids = sb.FULL_BASIS
    a = np.vstack([correlation.STRATEGY_MATRIX, np.ones((1, len(ids)))])
    rhs = np.concatenate([correlation.STRATEGY_MATRIX @ rng.dirichlet(np.ones(32)), [1.0]])
    simplex._cached_program.cache_clear()
    cold = sb.solve_lp(correlation.STRATEGY_COSTS, a, rhs)
    assert simplex._cached_program.cache_info().currsize == 1
    warm = sb.solve_lp(correlation.STRATEGY_COSTS, a, rhs)
    assert simplex._cached_program.cache_info().hits >= 1
    assert cold.x.tobytes() == warm.x.tobytes()
    assert float(cold.objective).hex() == float(warm.objective).hex()
    assert cold.reduced_costs.tobytes() == warm.reduced_costs.tobytes()
    assert cold.iterations == warm.iterations
    # an inconsistent right-hand side on the cached matrix still fails early
    bad = rhs.copy()
    bad[-1] = 2.0
    with pytest.raises(sb.InfeasibleError, match="equality system is inconsistent"):
        sb.solve_lp(correlation.STRATEGY_COSTS, a, bad)


def test_elimination_cache_stays_bounded(rng):
    size = simplex._cached_program.cache_info().maxsize
    for _ in range(size + 5):
        a = rng.normal(size=(2, 3))
        sb.solve_lp(np.ones(3), a, a @ rng.random(3))
    assert simplex._cached_program.cache_info().currsize == size


def test_masked_pivot_matches_row_loop(rng):
    """The one-shot pivot update, cost row included, equals a row-by-row loop."""
    for _ in range(40):
        m, width = int(rng.integers(1, 7)), int(rng.integers(2, 9))
        tableau = rng.normal(size=(m + 1, width))
        tableau[rng.random((m + 1, width)) < 0.3] = 0.0
        tableau[rng.random((m + 1, width)) < 0.1] = -0.0
        leave, enter = int(rng.integers(m)), int(rng.integers(width - 1))
        tableau[leave, enter] = 1.0 + rng.random()
        ref = tableau.copy()
        ref[leave] /= ref[leave, enter]
        column = ref[:, enter].copy()
        for i in range(m + 1):
            if i != leave and column[i] != 0.0:
                ref[i] -= column[i] * ref[leave]
        basis = list(range(m))
        simplex._pivot(tableau, basis, leave, enter)
        assert tableau.tobytes() == ref.tobytes()
        assert basis[leave] == enter


# The solve_lp body that the cached phase-1 template replaced, kept as the
# oracle solve_lp has to match bit for bit: an uncached elimination whose
# replay applies every factor, zero or not, a fresh [A | I | b] tableau per
# solve with its reduced costs in a separate array, phase-2 reduced costs
# rebuilt one row at a time, and the pivot loop as it stood then.
def _chain_pivot(tableau, cost_row, basis, leave, enter):
    row = tableau[leave]
    row /= row[enter]
    column = tableau[:, enter]
    touched = column != 0.0
    touched[leave] = False
    np.subtract(
        tableau, np.multiply.outer(column, row), out=tableau, where=touched[:, None]
    )
    cost_row -= cost_row[enter] * row
    basis[leave] = enter


def _chain_run_simplex(tableau, cost_row, basis, ncols):
    iterations = 0
    while True:
        eligible = cost_row[:ncols] < -1e-10
        enter = int(eligible.argmax())
        if not eligible[enter]:
            return iterations
        leave = -1
        best = np.inf
        rows = zip(tableau[:, enter].tolist(), tableau[:, -1].tolist())
        for i, (coef, rhs) in enumerate(rows):
            if coef > 1e-10:
                ratio = rhs / coef
                if ratio < best - 1e-12:
                    best, leave = ratio, i
                elif ratio <= best + 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            raise sb.UnboundedError("objective is unbounded below on the feasible set")
        _chain_pivot(tableau, cost_row, basis, leave, enter)
        iterations += 1
        if iterations > 100000:
            raise sb.ConsistencyError("simplex failed to terminate (cycling guard hit)")


def _chain_independent_rows(a, b, tol):
    work = a.copy()
    m = a.shape[0]
    order = list(range(m))
    steps = []
    rank = 0
    for col in range(a.shape[1]):
        if rank >= m:
            break
        piv = rank + int(np.argmax(np.abs(work[rank:, col])))
        if abs(work[piv, col]) <= tol:
            continue
        if piv != rank:
            work[[rank, piv]] = work[[piv, rank]]
            order[rank], order[piv] = order[piv], order[rank]
        factors = work[rank + 1 :, col] / work[rank, col]
        work[rank + 1 :] -= np.outer(factors, work[rank])
        steps.append((piv, tuple(factors.tolist())))
        rank += 1
    keep = np.array(sorted(order[:rank]), dtype=np.intp)
    beta = b.tolist()
    for rank, (piv, factors) in enumerate(steps):
        if piv != rank:
            beta[rank], beta[piv] = beta[piv], beta[rank]
        top = beta[rank]
        for i, factor in enumerate(factors, rank + 1):
            beta[i] -= factor * top
    for i in range(len(keep), len(beta)):
        if abs(beta[i]) > 1e-9:
            raise sb.InfeasibleError(
                f"equality system is inconsistent (residual {beta[i]:.3e})"
            )
    return keep


def _chain_solve_lp(c, a, b, ejections=None):
    """The replaced solver; appends each artificial-ejection pivot to ``ejections``."""
    c, a, b = (np.asarray(v, dtype=float) for v in (c, a, b))
    n = a.shape[1]
    keep = _chain_independent_rows(a, b, 1e-10)
    full_b = b
    a = a[keep].copy()
    b = b[keep].copy()
    m = len(keep)
    if m == 0:
        if np.all(c >= 0.0):
            return sb.SimplexResult(np.zeros(n), 0.0, c.copy(), 0, np.zeros(len(full_b)))
        raise sb.UnboundedError("no constraints remain and the objective decreases")
    flip = b < 0.0
    a[flip] *= -1.0
    b[flip] *= -1.0
    tableau = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    basis = [n + i for i in range(m)]
    cost_row = np.zeros(n + m + 1)
    cost_row[:n] = -a.sum(axis=0)
    cost_row[-1] = -b.sum()
    iterations = _chain_run_simplex(tableau, cost_row, basis, n + m)
    if -cost_row[-1] > 1e-9:
        raise sb.InfeasibleError(
            f"no nonnegative solution: phase-1 optimum {-cost_row[-1]:.3e} > 0"
        )
    for i in range(m):
        if basis[i] >= n:
            eligible = np.flatnonzero(np.abs(tableau[i, :n]) > 1e-10)
            if eligible.size == 0:
                raise sb.ConsistencyError(
                    "redundant row survived rank reduction; cannot eject artificial"
                )
            _chain_pivot(tableau, cost_row, basis, i, int(eligible[0]))
            if ejections is not None:
                ejections.append(i)
            iterations += 1
    # The artificial columns stay, barred from entering: a pivot updates
    # each column on its own, and their costs give the dual.
    cost_row = np.zeros(n + m + 1)
    cost_row[:n] = c
    for i in range(m):
        cost_row -= c[basis[i]] * tableau[i]
    iterations += _chain_run_simplex(tableau, cost_row, basis, n)
    x = np.zeros(n)
    for i in range(m):
        x[basis[i]] = tableau[i, -1]
    x[x < 0.0] = 0.0
    dual = np.zeros(len(full_b))
    dual[keep] = np.where(flip, cost_row[n:-1], -cost_row[n:-1])
    return sb.SimplexResult(x, float(c @ x), cost_row[:n].copy(), iterations, dual)


def _lp_key(solve, c, a, b):
    """A solve's outcome: every float as hex, or the exception class and message."""
    try:
        res = solve(c, a, b)
    except sb.SignalBoxError as exc:
        return type(exc), str(exc)
    return (
        res.x.tobytes(),
        res.objective.hex(),
        res.reduced_costs.tobytes(),
        res.iterations,
        res.dual.tobytes(),
    )


def _hot_path_programs(rng):
    """Catalog programs of every table family, then small random programs."""
    a = np.vstack([correlation.STRATEGY_MATRIX, np.ones((1, 32))])
    tables = [sub_cost_mixture(rng)[0] for _ in range(40)]
    tables += [super_cost_mixture(rng, toward)[0] for toward in ("bob", "alice") * 15]
    qubits = (random_quantum_instance(rng) for _ in range(40))
    tables += [sb.sequential_correlation(state, *obs) for state, obs in qubits]
    tables += [random_table(rng) for _ in range(30)]
    for corr in tables:
        yield correlation.STRATEGY_COSTS, a, np.concatenate([corr.p.ravel(), [1.0]])
    for k in range(400):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 3))
        a = rng.normal(size=(m, n))
        a[rng.random((m, n)) < 0.2] = 0.0
        a[rng.random((m, n)) < 0.1] = -0.0
        if m > 1 and k % 3 == 0:
            a[-1] = a[0] * rng.normal()  # a redundant row
        x = rng.random(n) * (rng.random(n) < 0.6)
        b = (a @ x, rng.normal(size=m), -np.abs(a @ x), np.where(a @ x == 0.0, -0.0, a @ x))[k % 4]
        c = rng.random(n) if k % 2 else rng.normal(size=n)
        yield c, a, b


def test_lp_hot_path_is_bit_identical_to_the_fresh_tableau_chain(rng):
    """solve_lp against the replaced chain, same bits or same error: cold,
    then recording its memo, then walking it, the walk's own unbounded and
    phase-1 infeasible exits included."""
    programs = list(_hot_path_programs(rng))
    outcomes = {"InfeasibleError": 0, "UnboundedError": 0, "solved": 0, "ejecting": 0}
    assert any((b < 0.0).any() for _, _, b in programs)
    assert any(np.signbit(a[a == 0.0]).any() for _, a, _ in programs)
    for c, a, b in programs:
        ejections = []
        want = _lp_key(lambda *lp: _chain_solve_lp(*lp, ejections), c, a, b)
        outcomes["ejecting"] += bool(ejections)
        simplex._cached_program.cache_clear()
        cold = _lp_key(sb.solve_lp, c, a, b)
        warm = _lp_key(sb.solve_lp, c, a, b)
        walked = _lp_key(sb.solve_lp, c, a, b)
        assert simplex._cached_program.cache_info().hits >= 2
        assert cold == warm == walked == want
        kind = want[0].__name__ if isinstance(want[0], type) else "solved"
        outcomes[kind] += 1
    # Each family is reached: optima, infeasible tables, unbounded programs,
    # and programs that eject an artificial, where the solver's pivots may
    # leave its cost row stale.
    assert min(outcomes.values()) >= 20, outcomes


def _catalog_right_hand_sides(rng):
    """Right-hand sides of the catalog program: every table family, -0.0 entries, b < 0."""
    tables = [sub_cost_mixture(rng)[0] for _ in range(20)]
    tables += [super_cost_mixture(rng, toward)[0] for toward in ("bob", "alice") * 5]
    for w in rng.dirichlet(np.full(32, 0.3), size=20):
        tables.append(sb.Correlation((correlation.STRATEGY_MATRIX @ w).reshape(2, 2, 2, 2)))
    qubits = (random_quantum_instance(rng) for _ in range(20))
    tables += [sb.sequential_correlation(state, *obs) for state, obs in qubits]
    tables += [random_table(rng) for _ in range(20)]
    for corr in tables:
        yield corr._entries + (1.0,)
    for ident in sb.FULL_BASIS:  # single strategies: zeros everywhere, written as -0.0
        b = np.append(sb.catalog(ident).as_correlation().p.ravel(), 1.0)
        yield np.where(b == 0.0, -0.0, b)
    for corr in tables[::4]:  # every row flipped, or a few: infeasible or inconsistent
        b = np.append(corr.p.ravel(), 1.0)
        yield -b
        yield np.where(rng.random(17) < 0.2, -b, b)


def test_prepared_catalog_program_matches_the_bytes_keyed_path(rng):
    """The prepared catalog matrix gives the bits, or the error, of a writable copy."""
    prepared = simulate._solver()._PROGRAMS[id(simulate._CATALOG_CONSTRAINTS)][0]
    assert prepared is simulate._CATALOG_CONSTRAINTS
    copy = np.array(prepared)
    costs = (correlation.STRATEGY_COSTS, np.array(correlation.STRATEGY_COSTS), rng.normal(size=32))
    programs = [(c, b) for b in _catalog_right_hand_sides(rng) for c in costs]
    cache = simplex._cached_program.cache_info()
    got = [_lp_key(sb.solve_lp, c, prepared, b) for c, b in programs]
    assert simplex._cached_program.cache_info() == cache  # never hashed into the LRU cache
    assert got == [_lp_key(sb.solve_lp, c, copy, b) for c, b in programs]
    messages = [key[1] for key in got if isinstance(key[0], type)]
    assert len(got) - len(messages) >= 150
    assert sum(m.startswith("equality system is inconsistent") for m in messages) >= 20
    assert sum(m.startswith("no nonnegative solution") for m in messages) >= 20
    with pytest.raises(sb.DomainError, match="prepared program"):
        simplex._prepare(copy, correlation.STRATEGY_COSTS)  # writable


def test_catalog_lps_leave_the_elimination_cache_alone(rng):
    """lp_min_cost's default program is prepared once; no solve hashes it into the LRU cache."""
    sb.lp_min_cost(sb.pr_box())
    cache = simplex._cached_program.cache_info()
    for _ in range(30):
        try:
            sb.lp_min_cost(random_table(rng))
        except sb.InfeasibleError:
            pass
        sb.lp_min_cost(sub_cost_mixture(rng)[0])
    assert simplex._cached_program.cache_info() == cache


def _tree_size(node):
    return 1 + sum(_tree_size(child) for child in node.children.values())


def _dyadic_tables(rng, n):
    """Mixtures of eight catalog strategies, 1/8 each: many ratio-test ties."""
    for _ in range(n):
        picks = rng.choice(32, size=8)
        yield sb.Correlation(correlation.STRATEGY_MATRIX[:, picks].sum(axis=1).reshape(2, 2, 2, 2) / 8.0)


def test_warm_memo_solves_are_bit_identical_to_cold_solves(rng, fresh_program, monkeypatch):
    """Solves that walk the memo, while it fills and once filled,
    give the bits or the error of a solve that never reads it."""
    prepared = simulate._CATALOG_CONSTRAINTS
    copy = np.array(prepared)
    tables = [sb.pr_box(), *_dyadic_tables(rng, 60)]
    right_hand_sides = [t._entries + (1.0,) for t in tables] + list(_catalog_right_hand_sides(rng))
    own_costs = rng.random(32)
    programs = [(c, np.array(b)) for b in right_hand_sides for c in (correlation.STRATEGY_COSTS, own_costs)]
    cold = [_lp_key(sb.solve_lp, c, copy, b) for c, b in programs]

    # Count the walk's ratio tests that tie within 1e-12: those of a solve
    # given no tableau, until it replays one to leave the tree.
    walking, ties = [False], [0]
    solve, replay = simplex._Program.solve, simplex._Program.replay
    leaving_row = simplex._leaving_row

    def walk(program, c, values, tableau=None, flip=None):
        walking[0] = tableau is None
        try:
            return solve(program, c, values, tableau, flip)
        finally:
            walking[0] = False

    def replayed(program, *args):
        walking[0] = False
        return replay(program, *args)

    def counted(column, values, basis):
        column = list(column)  # (row, entry) pairs
        ratios = [values[i] / c for i, c in column if c > 1e-10]
        ties[0] += walking[0] and sum(r <= min(ratios) + 1e-12 for r in ratios) > 1
        return leaving_row(column, values, basis)

    monkeypatch.setattr(simplex._Program, "solve", walk)
    monkeypatch.setattr(simplex._Program, "replay", replayed)
    monkeypatch.setattr(simplex, "_leaving_row", counted)
    filling = [_lp_key(sb.solve_lp, c, prepared, b) for c, b in programs]
    nodes = fresh_program.nodes
    warm = [_lp_key(sb.solve_lp, c, prepared, b) for c, b in programs]
    assert filling == cold and warm == cold
    assert fresh_program.nodes == nodes == _tree_size(fresh_program.root) > 50
    assert ties[0] >= 100
    kinds = {key[0].__name__ if isinstance(key[0], type) else "solved" for key in cold}
    assert kinds == {"solved", "InfeasibleError"}


def _priced(table, basis=None):
    """lp_min_cost's outcome: weights, cost and residual as hex, or the error message."""
    try:
        d = sb.lp_min_cost(table, basis)
    except sb.InfeasibleError as exc:
        return str(exc)
    return sorted((k, v.hex()) for k, v in d.weights.items()), d.cost.hex(), d.residual.hex()


def test_flipped_rows_never_walk_the_memo(rng, fresh_program, monkeypatch):
    """A right-hand side with a negative kept row copies the template, on the
    prepared matrix, a copy of it, a custom basis or rows negated in A and b
    alike, with the chain's bits or error."""
    tables = [sub_cost_mixture(rng)[0] for _ in range(10)] + list(_dyadic_tables(rng, 10))
    tables += [random_table(rng) for _ in range(10)]
    for t in tables:  # fill the catalog's memo first
        _priced(t)

    solve = simplex._Program.solve

    def flipped(program, c, values, tableau=None, flip=None):
        if tableau is None or flip is None:
            raise AssertionError("the memo was walked")
        return solve(program, c, values, tableau, flip)

    monkeypatch.setattr(simplex._Program, "solve", flipped)
    nodes = fresh_program.nodes
    costs, prepared = correlation.STRATEGY_COSTS, simulate._CATALOG_CONSTRAINTS
    columns = [correlation.strategy_column(i) for i in sb.LOCAL_IDS + sb.VIOLATING_IDS]
    keep = fresh_program.keep
    outcomes = []
    for t in tables:
        b = np.append(t.p.ravel(), 1.0)
        one_negated = b.copy()
        one_negated[rng.choice(keep[b[keep] > 0.0])] *= -1.0
        signs = np.where(rng.random(17) < 0.3, -1.0, 1.0)
        x = rng.dirichlet(np.ones(32))
        x[rng.integers(32)] -= 2.0  # table entries of -1 or less, consistent
        programs = [
            (costs, prepared, one_negated),
            (costs, np.array(prepared), one_negated),
            (costs[columns], prepared[:, columns], one_negated),
            (costs, prepared * signs[:, None], b * signs),
            (costs, prepared, prepared @ x),
        ]
        for c, a, rhs in programs:
            kept = simplex._cached_program(a.shape, a.tobytes()).keep
            assert (rhs[kept] < 0.0).any()
            key = _lp_key(sb.solve_lp, c, a, rhs)
            assert key == _lp_key(_chain_solve_lp, c, a, rhs)
            outcomes.append(key[1].split(" (")[0].split(":")[0] if isinstance(key[0], type) else "solved")
    assert fresh_program.nodes == nodes
    counts = {kind: outcomes.count(kind) for kind in set(outcomes)}
    assert counts.keys() == {"solved", "equality system is inconsistent", "no nonnegative solution"}
    assert min(counts.values()) >= 15, counts


def test_custom_bases_walk_their_own_memo(rng, fresh_program, monkeypatch):
    """lp_min_cost on a 24-column basis, and on one with repeated ids, walks
    that basis's own memo: filling and filled, each solve has the chain's bits or error."""
    solve_lp, solves = simplex.solve_lp, [0]

    def checked(c, a, b):
        assert _lp_key(solve_lp, c, a, b) == _lp_key(_chain_solve_lp, c, a, b)
        solves[0] += 1
        return solve_lp(c, a, b)

    monkeypatch.setattr(simplex, "solve_lp", checked)
    tables = [sb.pr_box(), *_dyadic_tables(rng, 40)]
    tables += [sub_cost_mixture(rng)[0] for _ in range(20)] + [random_table(rng) for _ in range(10)]
    simplex._cached_program.cache_clear()
    for basis in (sb.LOCAL_IDS + sb.VIOLATING_IDS, sb.FULL_BASIS + sb.VIOLATING_IDS[:3]):
        a = simulate._CATALOG_CONSTRAINTS[:, [correlation.strategy_column(i) for i in basis]]
        filling = [_priced(t, basis) for t in tables]
        program = simplex._cached_program(a.shape, a.tobytes())
        nodes = program.nodes
        assert [_priced(t, basis) for t in tables] == filling
        assert program.nodes == nodes == _tree_size(program.root) > 20
        solved = sum(not isinstance(key, str) for key in filling)
        assert 20 <= solved < len(tables)
    assert solves[0] == 4 * len(tables)
    assert fresh_program.nodes == 1  # the catalog's memo is not walked


def test_degenerate_programs_keep_their_outcomes():
    """No column, no row or an all-zero A: the empty optimum, the origin, or
    the error, on a cold program and a warm one, as the chain gives them."""
    z = np.zeros
    programs = [
        (z(0), z((1, 0)), z(1)),  # the empty optimum
        (z(0), z((1, 0)), np.ones(1)),  # 0 = 1
        (np.array([1.0, 0.0, 2.0]), z((0, 3)), z(0)),  # the origin
        (np.array([1.0, -1.0]), z((2, 2)), z(2)),  # unbounded
    ]
    simplex._cached_program.cache_clear()
    cold = [_lp_key(sb.solve_lp, *lp) for lp in programs]
    assert cold == [_lp_key(sb.solve_lp, *lp) for lp in programs]
    assert cold == [_lp_key(_chain_solve_lp, *lp) for lp in programs]
    assert cold[0] == (b"", (0.0).hex(), b"", 0, z(1).tobytes())
    assert cold[1] == (sb.InfeasibleError, "equality system is inconsistent (residual 1.000e+00)")
    assert cold[2] == (z(3).tobytes(), (0.0).hex(), np.array([1.0, 0.0, 2.0]).tobytes(), 0, b"")
    assert cold[3] == (sb.UnboundedError, "no constraints remain and the objective decreases")


def test_opening_memo_stays_bounded(rng, fresh_program, monkeypatch):
    """Full-support mixtures fill the memo under its node cap; a lower cap
    stops it there with every bit kept, and preparing A again starts a fresh tree."""
    for w in rng.dirichlet(np.full(32, 0.3), size=5000):
        sb.lp_min_cost(sb.Correlation((correlation.STRATEGY_MATRIX @ w).reshape(2, 2, 2, 2)))
    assert 1 < fresh_program.nodes == _tree_size(fresh_program.root) <= simplex._MEMO_NODES

    monkeypatch.setattr(simplex, "_MEMO_NODES", 40)
    prepared = simulate._CATALOG_CONSTRAINTS
    simplex._prepare(prepared, correlation.STRATEGY_COSTS)
    program = simplex._PROGRAMS[id(prepared)][2]
    assert program is not fresh_program and program.nodes == _tree_size(program.root) == 1
    copy = np.array(prepared)
    weights = rng.dirichlet(np.full(32, 0.3), size=200)
    right_hand_sides = [np.append(correlation.STRATEGY_MATRIX @ w, 1.0) for w in weights]
    for b in right_hand_sides:
        key = _lp_key(sb.solve_lp, correlation.STRATEGY_COSTS, prepared, b)
        assert key == _lp_key(sb.solve_lp, correlation.STRATEGY_COSTS, copy, b)
    assert program.nodes == _tree_size(program.root) == 40
    # At the cap a solve walks as far as the tree goes and loops on, recording nothing.
    for b in right_hand_sides[:50]:
        key = _lp_key(sb.solve_lp, correlation.STRATEGY_COSTS, prepared, b)
        assert key == _lp_key(_chain_solve_lp, correlation.STRATEGY_COSTS, copy, b)
    assert program.nodes == _tree_size(program.root) == 40

    # Below a cap of 3 tableaux, walks that leave the tree replay from deeper
    # up the path: every bit is kept, and the tree keeps 3 tableaux.
    monkeypatch.setattr(simplex, "_MEMO_NODES", 10**5)
    monkeypatch.setattr(simplex, "_MEMO_TABLEAUX", 3)
    simplex._prepare(prepared, correlation.STRATEGY_COSTS)
    program = simplex._PROGRAMS[id(prepared)][2]
    for b in right_hand_sides + right_hand_sides[:50]:
        key = _lp_key(sb.solve_lp, correlation.STRATEGY_COSTS, prepared, b)
        assert key == _lp_key(_chain_solve_lp, correlation.STRATEGY_COSTS, copy, b)
    assert program.tableaux == _tree_tableaux(program.root) == 3
    assert 500 < program.nodes == _tree_size(program.root)


def test_full_memo_interns_nothing(rng, fresh_program, monkeypatch):
    """At the node cap, solves with fresh costs keep the chain's bits and
    leave the intern table as it was: no cost key, no ejected column."""
    monkeypatch.setattr(simplex, "_MEMO_NODES", 300)
    prepared, costs = simulate._CATALOG_CONSTRAINTS, correlation.STRATEGY_COSTS

    def mixture():  # a few strategies: many solves eject an artificial
        picks = rng.choice(32, size=int(rng.integers(1, 4)), replace=False)
        return np.append(correlation.STRATEGY_MATRIX[:, picks] @ rng.dirichlet(np.ones(len(picks))), 1.0)

    for _ in range(40):
        sb.solve_lp(costs, prepared, mixture())
    assert fresh_program.nodes == 300
    interned = len(fresh_program.interned)
    for _ in range(500):
        c, b = rng.random(32), mixture()
        assert _lp_key(sb.solve_lp, c, prepared, b) == _lp_key(_chain_solve_lp, c, prepared, b)
    assert fresh_program.nodes == 300 and len(fresh_program.interned) == interned


def _tree_tableaux(node):
    below = sum(_tree_tableaux(child) for child in node.children.values())
    return (node.tableau is not None) + below


def _ejecting_right_hand_sides(rng):
    """Catalog right-hand sides whose solve ejects an artificial: mixtures of a few strategies."""
    found = []
    while len(found) < 10:
        picks = rng.choice(32, size=int(rng.integers(1, 4)), replace=False)
        weights = rng.dirichlet(np.ones(len(picks)))
        b = np.append(correlation.STRATEGY_MATRIX[:, picks] @ weights, 1.0)
        ejections = []
        _chain_solve_lp(correlation.STRATEGY_COSTS, simulate._CATALOG_CONSTRAINTS, b, ejections)
        if ejections:
            found.append(b)
    return found


def test_repeat_solves_walk_the_whole_memo(rng, fresh_program, monkeypatch):
    """A second solve of the same program is the chain's, hex for hex; with
    no row negated it walks the whole memo and makes no tableau pivot."""
    pivots, pivot = [0], simplex._pivot

    def counted(*args):
        pivots[0] += 1
        return pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counted)
    prepared, costs = simulate._CATALOG_CONSTRAINTS, correlation.STRATEGY_COSTS
    qubits = (random_quantum_instance(rng) for _ in range(40))
    tables = (sb.sequential_correlation(s, *obs) for s, obs in qubits)
    outside = [t._entries + (1.0,) for t in tables]
    ejecting = _ejecting_right_hand_sides(rng)
    own_costs = rng.random(32)
    right_hand_sides = [*_catalog_right_hand_sides(rng), *outside, *ejecting]
    programs = [(costs, np.array(b)) for b in right_hand_sides]
    programs += [(own_costs, b) for _, b in programs[:40]]
    columns = [correlation.strategy_column(i) for i in sb.LOCAL_IDS + sb.VIOLATING_IDS]
    basis_programs = [(costs[columns], prepared[:, columns], b) for _, b in programs[:40]]
    kinds = []
    for c, b in programs:
        want = _lp_key(_chain_solve_lp, c, prepared, b)
        first = _lp_key(sb.solve_lp, c, prepared, b)
        pivots[0] = 0
        second = _lp_key(sb.solve_lp, c, prepared, b)
        assert first == second == want
        walked = not (b[fresh_program.keep] < 0.0).any()
        assert pivots[0] == 0 or not walked
        raised = isinstance(want[0], type)
        kinds.append(want[1].split(":")[0].split(" (")[0] if raised else "solved")
    assert kinds.count("no nonnegative solution") >= 40 and kinds.count("solved") >= 150
    assert all(isinstance(_lp_key(sb.solve_lp, costs, prepared, b)[0], bytes) for b in ejecting)
    # A custom basis: a cached program records nothing on its first solve,
    # so a matrix solved once builds no tree; it records from its second.
    simplex._cached_program.cache_clear()
    c, a, b = basis_programs[0]
    program = simplex._cached_program(a.shape, a.tobytes())
    sb.solve_lp(c, a, b)
    assert program.nodes == _tree_size(program.root) == 1
    for c, a, b in basis_programs * 3:
        assert _lp_key(sb.solve_lp, c, a, b) == _lp_key(_chain_solve_lp, c, a, b)
    assert program.nodes == _tree_size(program.root) > 20
    pivots[0] = 0
    for lp in basis_programs:
        _lp_key(sb.solve_lp, *lp)
    assert pivots[0] == 0


def test_dual_certifies_catalog_prices(rng, fresh_program):
    """y is feasible for the dual, prices b at the objective, and is the same
    array whether the solve walked the memo or ran the loop."""
    prepared, costs = simulate._CATALOG_CONSTRAINTS, correlation.STRATEGY_COSTS
    copy = np.array(prepared)
    keep = fresh_program.keep
    tables = [sub_cost_mixture(rng)[0] for _ in range(40)] + list(_dyadic_tables(rng, 40))
    for w in rng.dirichlet(np.full(32, 0.3), size=80):
        tables.append(sb.Correlation((correlation.STRATEGY_MATRIX @ w).reshape(2, 2, 2, 2)))
    for t in tables:
        b = np.append(t.p.ravel(), 1.0)
        simplex._cached_program.cache_clear()
        looped = sb.solve_lp(costs, copy, b)  # a cold cached program: the loop
        sb.solve_lp(costs, prepared, b)
        walked = sb.solve_lp(costs, prepared, b)
        assert walked.dual.tobytes() == looped.dual.tobytes()
        y = walked.dual
        assert y.shape == (17,)
        assert not y.flags.writeable and not walked.reduced_costs.flags.writeable
        assert (y[np.setdiff1d(np.arange(17), keep)] == 0.0).all()
        assert (prepared[keep].T @ y[keep] - costs).max() <= 1e-12
        assert abs(y[keep] @ b[keep] - walked.objective) <= 1e-12
