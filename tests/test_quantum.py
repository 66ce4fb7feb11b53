"""Sequential qubit measurements, the angle sweep and the information bounds."""

import itertools
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import signalbox as sb
from signalbox import quantum
from conftest import random_bloch_vector, random_observable, random_quantum_instance, random_state

MU = math.log2(5.0) - 2.0
ROOT2 = math.sqrt(2.0)


def test_observable_requires_unit_vector():
    with pytest.raises(sb.DomainError):
        sb.Observable(np.array([0.0, 0.0, 2.0]))
    with pytest.raises(sb.DomainError):
        sb.Observable(np.array([0.0, 0.0]))


def test_theta_geometry_observables_at_z_and_x():
    """At theta = pi/4, b0 sits at angle 0 (the z-axis) and b1 at pi/2 (the x-axis)."""
    _, _, _, z, x = sb.theta_geometry(math.pi / 4.0)
    assert np.allclose(z.matrix, sb.PAULI_Z)
    assert np.allclose(x.matrix, sb.PAULI_X, atol=1e-15)


def test_observable_matrix_is_involutory(rng):
    for _ in range(30):
        obs = random_observable(rng)
        m = obs.matrix
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m, sb.IDENTITY, atol=1e-12)


def test_projectors_resolve_identity(rng):
    for _ in range(30):
        obs = random_observable(rng)
        plus, minus = obs.projector(0), obs.projector(1)
        assert np.allclose(plus @ plus, plus, atol=1e-12)
        assert np.allclose(minus @ minus, minus, atol=1e-12)
        assert np.allclose(plus + minus, sb.IDENTITY, atol=1e-12)
        assert np.allclose(plus @ minus, 0.0, atol=1e-12)
        assert np.allclose(obs.matrix, plus - minus, atol=1e-12)


def test_projector_labels_follow_the_outcome_label_rule():
    """Labels are the integers 0 and 1, as in a strategy rule: bools, floats
    and other integers raise, numpy integers are read as ints."""
    obs = sb.Observable(np.array([0.0, 0.0, 1.0]))
    for label in (True, False, 1.0, 0.0, 2, -1, "1", None):
        with pytest.raises(sb.DomainError, match="outcome label must be 0 or 1"):
            obs.projector(label)
    for label in (0, 1):
        assert obs.projector(np.int64(label)).tobytes() == obs.projector(label).tobytes()


def test_state_validation():
    with pytest.raises(sb.NormalizationError):
        sb.QubitState(np.array([[0.6, 0.0], [0.0, 0.6]]))  # trace 1.2
    with pytest.raises(sb.DomainError):
        sb.QubitState(np.array([[0.5, 0.3], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(sb.DomainError):
        sb.QubitState(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative weight
    with pytest.raises(sb.DomainError):
        sb.QubitState.from_bloch(np.array([0.0, 0.0, 1.5]))
    for bad in ("x", [[0.5, 0.0], [0.0]], {"a": 1}):
        with pytest.raises(sb.DomainError, match="cannot interpret input as a numeric array"):
            sb.QubitState(bad)
    # Complex entries are a density matrix's own; only non-numbers are refused.
    state = sb.QubitState([[0.5, -0.5j], [0.5j, 0.5]])
    assert state.bloch_vector.tolist() == [0.0, 1.0, 0.0]


def test_state_rejects_non_finite_entries():
    with pytest.raises(sb.DomainError):
        sb.QubitState(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_bloch_state_rejects_non_finite_entries():
    for bad in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]):
        with pytest.raises(sb.DomainError, match="Bloch vector has a non-finite entry"):
            sb.QubitState.from_bloch(np.array(bad))


def test_state_positivity_boundary(rng):
    """rho's lower eigenvalue (1 - |r|)/2 may reach -1e-10 and no further."""
    paulis = (sb.PAULI_X, sb.PAULI_Y, sb.PAULI_Z)
    for _ in range(10):
        n = random_observable(rng).n
        for low, accepted in ((-0.9e-10, True), (-1.1e-10, False)):
            r = n * (1.0 - 2.0 * low)
            m = 0.5 * (sb.IDENTITY + sum(c * p for c, p in zip(r, paulis)))
            if accepted:
                assert sb.QubitState(m).bloch_vector == pytest.approx(r, abs=1e-15)
            else:
                with pytest.raises(sb.DomainError, match="negative eigenvalue"):
                    sb.QubitState(m)


def test_observable_rejects_non_finite_entries():
    with pytest.raises(sb.DomainError):
        sb.Observable(np.array([np.nan, 0.0, 0.0]))


def test_complex_directions_and_bloch_vectors_are_refused():
    """A complex entry is a DomainError, with no ComplexWarning on the way."""
    bad = (np.array([0.0, 0.0, 1.0 + 0.0j]), np.array([1e-3j, 0.0, 1.0]), [0.0, 0.0, 1.0 + 0.5j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vec in bad:
            with pytest.raises(sb.DomainError, match="complex"):
                sb.Observable(vec)
            with pytest.raises(sb.DomainError, match="complex"):
                sb.QubitState.from_bloch(vec)
        for vec in (["x", 0.0, 1.0], [[0.0], 0.0, 1.0]):
            with pytest.raises(sb.DomainError, match="cannot interpret"):
                sb.Observable(vec)
            with pytest.raises(sb.DomainError, match="cannot interpret"):
                sb.QubitState.from_bloch(vec)


def test_bloch_round_trip(rng):
    for _ in range(30):
        r = random_bloch_vector(rng)
        state = sb.QubitState.from_bloch(r)
        assert np.allclose(state.bloch_vector, r, atol=1e-12)
        assert not state.bloch_vector.flags.writeable
        assert np.allclose(sb.QubitState(state.rho).bloch_vector, r, atol=1e-12)
    assert np.allclose(sb.QubitState.maximally_mixed().bloch_vector, 0.0)


def test_bloch_state_passes_the_density_matrix_checks(rng):
    """``QubitState(from_bloch(r).rho)`` is accepted, keeps rho and reads back r within 2e-16.

    So ``from_bloch`` may skip those checks: r runs up to radius 1 + 1e-12,
    the edge of the unit-ball check, and includes the poles and axes.
    """
    vectors = [np.eye(3)[k] * s for k in range(3) for s in (1.0, -1.0, 1.0 + 1e-12)]
    for k in range(4000):
        v = rng.normal(size=3)
        radius = (rng.random() ** (1.0 / 3.0), 1.0, 1.0 + 1e-12 * rng.random(), 1.0 - 1e-15)[k % 4]
        vectors.append(v / np.linalg.norm(v) * radius)
    for r in vectors:
        if np.linalg.norm(r) > 1.0 + 1e-12:
            continue
        built = sb.QubitState.from_bloch(r)
        read = sb.QubitState(built.rho)
        assert read.rho.tobytes() == built.rho.tobytes()
        assert not built.rho.flags.writeable
        assert np.abs(read.bloch_vector - r).max() <= 2e-16
        assert built.bloch_vector.tobytes() == (0.0 + r).tobytes()


def _trace_bloch_vector(state):
    """(Tr X rho, Tr Y rho, Tr Z rho) by matrix products, the form the entry read replaced."""
    return np.array([float(np.trace(p @ state.rho).real) for p in (sb.PAULI_X, sb.PAULI_Y, sb.PAULI_Z)])


def test_bloch_vector_matches_the_trace_form(rng):
    """Read off rho's entries, the Bloch vector has the traces' bits, signed zeros included.

    Every state is built as ``QubitState(rho)``, the read path.  Matrices:
    those of random mixed and pure states, of every axis state with +/-0.0
    components, raw ones with +/-0.0 and 1e-13 entries in every slot, and
    those of the post-measurement states of all of these.  A state built
    by ``from_bloch(r)`` keeps ``0.0 + r`` instead, hex for hex.
    """
    vectors = [random_bloch_vector(rng) for _ in range(300)]
    vectors += [random_observable(rng).n for _ in range(300)]
    vectors += [
        np.array(vec)
        for vec in itertools.product([0.0, -0.0, 1.0, -1.0, 0.5], repeat=3)
        if np.linalg.norm(vec) <= 1.0
    ]
    states = []
    for r in vectors:
        state = sb.QubitState.from_bloch(r)
        assert [v.hex() for v in state.bloch_vector.tolist()] == [(0.0 + v).hex() for v in r.tolist()]
        states.append(sb.QubitState(state.rho))
    off, diagonal_im = [0.0, -0.0, 0.3, -1e-13], [0.0, -0.0, 1e-13]
    for d0, d1 in ((0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (0.5, 0.5)):
        for r01, i01, r10, i10 in itertools.product(off, repeat=4):
            for i00, i11 in itertools.product(diagonal_im, repeat=2):
                m = np.array([[complex(d0, i00), complex(r01, i01)], [complex(r10, i10), complex(d1, i11)]])
                try:
                    states.append(sb.QubitState(m))
                except sb.SignalBoxError:
                    pass
    observables = [sb.Observable(np.array(v)) for v in ([1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0])]
    states += [sb.QubitState(sb.post_measurement_state(s, obs).rho) for s in states[::7] for obs in observables]
    assert len(states) > 5000
    for state in states:
        assert state.bloch_vector.tobytes() == _trace_bloch_vector(state).tobytes(), state.rho


def test_route_agreement(rng):
    """Projector update and the expanded Bloch formula give one table."""
    for _ in range(200):
        state, obs = random_quantum_instance(rng)
        direct = sb.projector_update_table(state, *obs)
        expanded = sb.expanded_formula_table(state, *obs)
        assert np.max(np.abs(direct - expanded)) <= 1e-10
        table = sb.sequential_correlation(state, *obs)
        assert np.max(np.abs(table.p - direct)) <= 1e-9


def _projector_tables_reference(r, a, b):
    """The projector route as it stood: (n, ...) layout, operators by tensordot."""
    paulis = np.stack([sb.PAULI_X, sb.PAULI_Y, sb.PAULI_Z])
    signs = np.array([1.0, -1.0])[:, None, None]

    def sigma_dot(v):
        return np.tensordot(v, paulis, axes=(-1, 0))

    rho = 0.5 * (sb.IDENTITY + sigma_dot(r))
    alice = 0.5 * (sb.IDENTITY + signs * sigma_dot(a)[:, :, None])
    bob = 0.5 * (sb.IDENTITY + signs * sigma_dot(b)[:, :, None])
    return np.einsum("nbyij,naxjk,nkl,naxli->nabxy", bob, alice, rho, alice).real


def test_projector_route_matches_the_tensordot_einsum(rng):
    """The n-innermost projector einsum against the (n, ...) one, hex for hex.

    Random states and directions with y components, axis-aligned and
    zero vectors and -0.0 entries, in batches of 1 to 2000; the checked
    tables are the reference's, clipped at 0, in C order.
    """
    axes = np.array(
        [v for v in itertools.product([0.0, -0.0, 1.0, -1.0], repeat=3) if np.sum(np.abs(v)) == 1.0]
    )

    def directions(n):
        v = rng.normal(size=(n, 2, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        aligned = rng.random((n, 2)) < 0.3
        v[aligned] = axes[rng.integers(0, len(axes), aligned.sum())]
        return v

    for n in (1, 2, 3, 7, 13, 61, 2000):
        r = rng.normal(size=(n, 3))
        r *= rng.uniform(0.0, 1.0, (n, 1)) / np.linalg.norm(r, axis=1, keepdims=True)
        r[rng.random(n) < 0.2] = axes[0] * rng.choice([0.0, -0.0, 1.0, -1.0, 0.5])
        r[rng.random(n) < 0.1] = -0.0
        r[rng.random(n) < 0.1] = 0.0
        a, b = directions(n), directions(n)
        want = _projector_tables_reference(r, a, b)
        got = quantum._projector_tables(r, a, b)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        checked = quantum._checked_tables(r, a, b)
        assert checked.flags.c_contiguous
        assert checked.tobytes() == np.clip(want, 0.0, None).tobytes()


def test_correlators_are_state_independent(rng):
    """E(a, b) equals the dot product of the two directions."""
    for _ in range(50):
        state, obs = random_quantum_instance(rng)
        other = random_state(rng)
        t1 = sb.sequential_correlation(state, *obs)
        t2 = sb.sequential_correlation(other, *obs)
        a_dirs = [obs[0].n, obs[1].n]
        b_dirs = [obs[2].n, obs[3].n]
        for a in (0, 1):
            for b in (0, 1):
                want = float(np.dot(a_dirs[a], b_dirs[b]))
                assert t1.expectation(a, b) == pytest.approx(want, abs=1e-10)
                assert t2.expectation(a, b) == pytest.approx(want, abs=1e-10)


def test_first_party_cannot_receive(rng):
    """Alice measures first, so her marginals ignore bob's setting."""
    for _ in range(100):
        state, obs = random_quantum_instance(rng)
        table = sb.sequential_correlation(state, *obs)
        deltas = sb.signaling_deltas(table)
        assert deltas.to_alice_at_a0 <= 1e-12
        assert deltas.to_alice_at_a1 <= 1e-12


def test_forward_shift_is_at_most_half(rng):
    for _ in range(100):
        state, obs = random_quantum_instance(rng)
        table = sb.sequential_correlation(state, *obs)
        assert sb.signal_strength(table) <= 0.5 + 1e-12


def _matrix_eigenvalues(m):
    """Eigenvalues of a Hermitian 2x2 matrix by the quadratic formula."""
    t = (m[0, 0] + m[1, 1]).real
    d = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    root = math.sqrt(max(0.0, 0.25 * t * t - d))
    return 0.5 * t - root, 0.5 * t + root


def _matrix_entropy(m):
    """Entropy in bits from the eigenvalues of a density matrix, clamped to [0, 1]."""
    lams = [min(1.0, max(0.0, lam)) for lam in _matrix_eigenvalues(m)]
    return -sum(lam * math.log2(lam) for lam in lams if lam > 0.0)


def _matrix_holevo(alpha, s0, s1):
    """Holevo quantity of {alpha: s0, 1-alpha: s1} from density-matrix eigenvalues."""
    blend = alpha * s0.rho + (1.0 - alpha) * s1.rho
    return _matrix_entropy(blend) - alpha * _matrix_entropy(s0.rho) - (1.0 - alpha) * _matrix_entropy(s1.rho)


def test_post_measurement_state_projects_bloch(rng):
    """The unread update keeps only the component along the measured axis.

    Its density matrix is (rho + A rho A)/2 with A = n.sigma.
    """
    for _ in range(30):
        r = random_bloch_vector(rng)
        obs = random_observable(rng)
        state = sb.QubitState.from_bloch(r)
        post = sb.post_measurement_state(state, obs)
        want = obs.n * float(np.dot(obs.n, r))
        assert np.allclose(post.bloch_vector, want, atol=1e-12)
        a = obs.matrix
        assert np.allclose(post.rho, 0.5 * (state.rho + a @ state.rho @ a), atol=1e-12)


def test_post_measurement_fixes_eigenstates():
    z = sb.Observable(np.array([0.0, 0.0, 1.0]))
    up = sb.QubitState.from_bloch(np.array([0.0, 0.0, 1.0]))
    post = sb.post_measurement_state(up, z)
    assert np.allclose(post.rho, up.rho, atol=1e-14)


def test_trace_distance_properties(rng):
    up = sb.QubitState.from_bloch(np.array([0.0, 0.0, 1.0]))
    down = sb.QubitState.from_bloch(np.array([0.0, 0.0, -1.0]))
    assert sb.trace_distance(up, down) == pytest.approx(1.0)
    assert sb.trace_distance(up, up) == pytest.approx(0.0, abs=1e-12)
    for _ in range(30):
        r0, r1 = random_bloch_vector(rng), random_bloch_vector(rng)
        s0, s1 = sb.QubitState.from_bloch(r0), sb.QubitState.from_bloch(r1)
        want = 0.5 * sum(map(abs, _matrix_eigenvalues(s0.rho - s1.rho)))
        assert sb.trace_distance(s0, s1) == pytest.approx(want, abs=1e-12)
        assert sb.trace_distance(s1, s0) == pytest.approx(want, abs=1e-12)


def test_von_neumann_entropy_values(rng):
    pure = sb.QubitState.from_bloch(np.array([0.0, 1.0, 0.0]))
    assert sb.von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert sb.von_neumann_entropy(sb.QubitState.maximally_mixed()) == pytest.approx(1.0)
    for _ in range(20):
        r = random_bloch_vector(rng)
        state = sb.QubitState.from_bloch(r)
        radius = float(np.linalg.norm(r))
        want = sb.binary_entropy((1.0 + radius) / 2.0)
        assert sb.von_neumann_entropy(state) == pytest.approx(want, abs=1e-12)


def test_holevo_basics(rng):
    state = random_state(rng)
    assert sb.holevo(0.3, state, state) == pytest.approx(0.0, abs=1e-12)
    for _ in range(20):
        s0, s1 = random_state(rng), random_state(rng)
        alpha = float(rng.random())
        value = sb.holevo(alpha, s0, s1)
        assert -1e-12 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(_matrix_holevo(alpha, s0, s1), abs=1e-12)
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(sb.DomainError):
            sb.holevo(bad, s0, s1)


def _decimal_entropy(nu):
    """Entropy in bits of a qubit with squared Bloch radius ``nu``, a Decimal.

    Runs at the caller's decimal precision and keeps the package's
    convention that a squared radius within 4 ulps of 1 is a pure state.
    """
    if nu >= 1 - Decimal(4.0 * np.finfo(float).eps):
        return Decimal(0)
    radius = nu.sqrt()
    high, low = (1 + radius) / 2, (1 - radius) / 2
    return -(high * high.ln() + low * low.ln()) / Decimal(2).ln()


def _decimal_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _oracle_holevo_max(r0, r1):
    """Maximiser, maximum and curvature of the Holevo weight objective, 50 digits.

    Works on the exact decimal values of the Bloch vectors ``r0`` and
    ``r1``, keeping only the package's convention that a squared radius
    within 4 ulps of 1 is a pure state.  The weight comes from 130
    bisections of the sign of the derivative
    -artanh(R)/(2R ln2) (c1 + 2 alpha c2) - s_gap, which shares no step
    with the float search.  Returns ``(alpha, chi, f'')`` at the optimum.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        ln2 = Decimal(2).ln()
        x0, x1 = ([Decimal(float(v)) for v in r] for r in (r0, r1))
        gap = [a - b for a, b in zip(x0, x1)]
        dot, entropy = _decimal_dot, _decimal_entropy

        def slopes(nu):
            """dE/dnu and d2E/dnu2 in bits."""
            radius = nu.sqrt()
            if radius == 0:
                return -1 / (2 * ln2), -1 / (6 * ln2)
            ratio = ((1 + radius) / (1 - radius)).ln() / (2 * radius)
            return -ratio / (2 * ln2), -(1 / (1 - nu) - ratio) / (4 * nu * ln2)

        c0, c1, c2 = dot(x1, x1), 2 * dot(gap, x1), dot(gap, gap)
        s1 = entropy(c0)
        s_gap = entropy(dot(x0, x0)) - s1
        lo, hi = Decimal(0), Decimal(1)
        for _ in range(130):
            mid = (lo + hi) / 2
            d1, _ = slopes(c0 + mid * (c1 + mid * c2))
            if d1 * (c1 + 2 * mid * c2) - s_gap > 0:
                lo = mid
            else:
                hi = mid
        alpha = (lo + hi) / 2
        nu = c0 + alpha * (c1 + alpha * c2)
        d1, d2 = slopes(nu)
        curv = d2 * (c1 + 2 * alpha * c2) ** 2 + 2 * c2 * d1
        return float(alpha), float(entropy(nu) - s1 - alpha * s_gap), float(curv)


def test_holevo_max_matches_decimal_oracle(rng, monkeypatch):
    """Batched and scalar Holevo maxima against a 50-digit decimal oracle.

    Cases: alice's two post-measurement states of the sweep geometry at
    angles across (0, pi/2), the window ends 0.001 and 1.5697 included;
    random mixed pairs; pure/pure and pure/mixed pairs.  chi is pinned to
    1e-14.  The weight is pinned to 1e-12, or to 1e-15/|f''| where the
    objective is flatter than 1e-3: rounding moves the float objective's
    derivative by about 1e-15, so no float search can place its root
    closer.  Only the sweep's end pairs, two nearly pure states 2e-3
    apart with |f''| about 5e-5, take that wider bound (2e-11).  Every
    batched lane equals the N=1 call bit for bit, and the whole batch
    settles within 8 Newton steps.
    """
    thetas = [0.001, 0.05, 0.3, 0.7, 1.0, 1.0701, 1.2, 1.45, 1.5697]
    thetas += list(rng.uniform(0.001, 1.5697, 11))
    pairs = []
    for theta in thetas:
        state, a0, a1, _, _ = sb.theta_geometry(float(theta))
        pairs.append(tuple(sb.post_measurement_state(state, a).bloch_vector for a in (a0, a1)))
    for _ in range(20):
        pure = random_observable(rng).n
        pairs.append((random_bloch_vector(rng), random_bloch_vector(rng)))
        pairs.append((random_bloch_vector(rng), random_bloch_vector(rng)))
        pairs.append((pure, random_observable(rng).n))
        mixed_pair = (random_bloch_vector(rng), pure)
        pairs.append(mixed_pair if rng.random() < 0.5 else mixed_pair[::-1])
    states = [tuple(sb.QubitState.from_bloch(v) for v in pair) for pair in pairs]
    # The states' own Bloch vectors, 0.0 + v as from_bloch keeps them.
    pairs = [(s0.bloch_vector, s1.bloch_vector) for s0, s1 in states]
    steps = []
    slopes = quantum._entropy_slopes

    def counting(nu):
        steps.append(len(nu))
        return slopes(nu)

    monkeypatch.setattr(quantum, "_entropy_slopes", counting)
    alphas, chis = quantum._holevo_max_batch(*(np.array(side) for side in zip(*pairs)))
    assert len(steps) <= 8
    monkeypatch.undo()
    for (v0, v1), (s0, s1), alpha, chi in zip(pairs, states, alphas, chis):
        assert (alpha.hex(), chi.hex()) == tuple(x.hex() for x in sb.holevo_max(s0, s1))
        want_alpha, want_chi, curv = _oracle_holevo_max(v0, v1)
        assert abs(chi - want_chi) <= 1e-14, (v0, v1, chi, want_chi)
        assert abs(alpha - want_alpha) <= max(1e-12, 1e-15 / abs(curv)), (v0, v1, alpha, want_alpha)


def test_state_helpers_match_decimal_oracle(rng):
    """Entropy, trace distance and Holevo quantity against a 50-digit evaluation.

    Each state's own Bloch vector, exact in Decimal, is the input.  States:
    seeded mixed ones, near-pure ones of radius 1 - 10**-k for k = 1..15,
    pure ones, and alice's two post-measurement states of the sigma
    settings.  All three helpers are within 1e-14.  Where chi > 0,
    ``holevo`` at ``holevo_max``'s weight has ``holevo_max``'s chi, bit for bit.
    """
    vectors = [random_bloch_vector(rng) for _ in range(40)]
    vectors += [random_observable(rng).n * (1.0 - 10.0**-k) for k in range(1, 16)]
    vectors += [random_observable(rng).n for _ in range(15)]
    states = [sb.QubitState.from_bloch(v) for v in vectors]
    state, a0, a1, _, _ = sb.sigma_settings()
    sigma = (sb.post_measurement_state(state, a0), sb.post_measurement_state(state, a1))
    picks = [rng.choice(len(states), 2, replace=False) for _ in range(60)]
    pairs = [sigma] + [(states[i], states[j]) for i, j in picks]
    sigma_alpha = sb.classify(sb.sequential_correlation(*sb.sigma_settings())).alpha_star
    with localcontext() as ctx:
        ctx.prec = 50
        for s in states + list(sigma):
            x = [Decimal(v) for v in s.bloch_vector.tolist()]
            want = float(_decimal_entropy(_decimal_dot(x, x)))
            assert abs(sb.von_neumann_entropy(s) - want) <= 1e-14, (x, want)
        for s0, s1 in pairs:
            x0, x1 = ([Decimal(v) for v in s.bloch_vector.tolist()] for s in (s0, s1))
            gap = [a - b for a, b in zip(x0, x1)]
            tau = float(_decimal_dot(gap, gap).sqrt() / 2)
            assert abs(sb.trace_distance(s0, s1) - tau) <= 1e-14, (x0, x1)
            alpha_star, chi = sb.holevo_max(s0, s1)
            for alpha in (0.0, 1.0, float(rng.random()), alpha_star, sigma_alpha):
                w = Decimal(alpha)
                blend = [w * a + (1 - w) * b for a, b in zip(x0, x1)]
                want = (
                    _decimal_entropy(_decimal_dot(blend, blend))
                    - w * _decimal_entropy(_decimal_dot(x0, x0))
                    - (1 - w) * _decimal_entropy(_decimal_dot(x1, x1))
                )
                assert abs(sb.holevo(alpha, s0, s1) - float(want)) <= 1e-14, (x0, x1, alpha)
            if chi > 0.0:
                assert sb.holevo(alpha_star, s0, s1).hex() == chi.hex()


def test_holevo_max_degenerate_and_symmetric_ensembles(rng):
    """Identical states give (0.5, 0.0); pure pairs sit at the symmetric 1/2.

    Also, chi is never negative: on nearly coincident, nearly pure states
    the objective is flat below its rounding.
    """
    for state in (random_state(rng), sb.QubitState.maximally_mixed(), sb.sigma_settings()[0]):
        assert sb.holevo_max(state, state) == (0.5, 0.0)
    z, x, down = (sb.QubitState.from_bloch(np.array(v)) for v in ([0, 0, 1.0], [1.0, 0, 0], [0, 0, -1.0]))
    alpha, chi = sb.holevo_max(z, x)
    assert alpha == 0.5
    assert chi == pytest.approx(sb.binary_entropy(math.cos(math.pi / 8.0) ** 2), abs=1e-15)
    assert sb.holevo_max(z, down) == (0.5, 1.0)
    for _ in range(50):
        r0, r1 = random_observable(rng).n, random_observable(rng).n
        if np.sum((r0 - r1) ** 2) >= 1e-2:
            alpha, _ = sb.holevo_max(sb.QubitState.from_bloch(r0), sb.QubitState.from_bloch(r1))
            assert abs(alpha - 0.5) <= 1e-13
    # Nearly coincident, nearly pure states, where f' is flat below its
    # rounding: in the first pair for about 4e-6 around its root, and in
    # the second a Newton step lands past the bracket.  Every lane still
    # settles in [0, 1].
    u = random_observable(rng).n * (1.0 - 1e-9)
    r0 = np.array([
        [0.5817696885259709, 0.8064245708085603, -0.10594074338338448],
        [0.6176866152976072, 0.1914334150957955, -0.7627689642787957],
        u,
        u * (1.0 - 1e-12),
    ])
    r1 = np.array([
        [0.5817696886177446, 0.8064245702675821, -0.10594074684921273],
        [0.6176866152975763, 0.19143341509578224, -0.7627689642788231],
        u + 1e-13 * random_observable(rng).n,
        u,
    ])
    alphas, chis = quantum._holevo_max_batch(r0, r1)
    assert np.all((alphas >= 0.0) & (alphas <= 1.0))
    assert np.all(chis >= 0.0)


def _entropy_slopes_reference(nu):
    small = nu < 1e-8
    radius = np.minimum(np.sqrt(np.clip(nu, 1e-8, 1.0)), 1.0 - 2.0**-53)
    ratio = np.where(small, 1.0 + nu / 3.0, np.arctanh(radius) / radius)
    bend = np.where(small, 2.0 / 3.0, (1.0 / (1.0 - radius * radius) - ratio) / (radius * radius))
    return -ratio / (2.0 * math.log(2.0)), -bend / (4.0 * math.log(2.0))


def _holevo_max_batch_reference(r0, r1):
    """The Holevo loop as it stood, with np.errstate and np.clip in the loop."""
    HOLEVO_STEP = quantum.HOLEVO_STEP
    _qubit_entropy = quantum._qubit_entropy
    gap = r0 - r1
    c0 = np.einsum("nk,nk->n", r1, r1)
    c1 = 2.0 * np.einsum("nk,nk->n", gap, r1)
    c2 = np.einsum("nk,nk->n", gap, gap)
    s1 = _qubit_entropy(c0)
    s_gap = _qubit_entropy(np.einsum("nk,nk->n", r0, r0)) - s1
    alpha, lo, hi = np.full(len(c0), 0.5), np.zeros(len(c0)), np.ones(len(c0))
    active = c2 > 0.0
    for _ in range(100):  # bisection alone settles within 45 steps
        if not active.any():
            break
        slope = c1 + 2.0 * alpha * c2
        d1, d2 = _entropy_slopes_reference(c0 + alpha * (c1 + alpha * c2))
        grad = d1 * slope - s_gap
        curv = d2 * slope * slope + 2.0 * c2 * d1
        lo, hi = np.where(grad > 0.0, alpha, lo), np.where(grad < 0.0, alpha, hi)
        with np.errstate(all="ignore"):
            newton = np.clip(alpha - grad / curv, lo, hi)
            settle = np.maximum(HOLEVO_STEP, np.finfo(float).eps * np.abs(slope * (d1 + d2) / curv))
        take = (curv < 0.0) & ((lo < newton) & (newton < hi) | (np.abs(newton - alpha) <= settle))
        step = np.where(active, np.where(take, newton, 0.5 * (lo + hi)), alpha)
        active &= np.abs(step - alpha) > settle
        alpha = step
    else:
        raise sb.ConsistencyError("Holevo weight not settled in 100 steps")
    chi = _qubit_entropy(c0 + alpha * (c1 + alpha * c2)) - s1 - alpha * s_gap
    return alpha, np.maximum(chi, 0.0)


def _post_measurement_pairs(thetas):
    """Alice's two post-measurement Bloch vectors of the sweep geometry, as _theta_batch forms them."""
    alice, _ = quantum._theta_directions(np.asarray(thetas, dtype=float))
    post = np.einsum("nak,nk->na", alice, alice[:, 1])[:, :, None] * alice
    return post[:, 0], post[:, 1]


def test_holevo_loop_matches_the_reference_loop(rng):
    """The hoisted loop against the loop as it stood, hex for hex.

    The sweep windows 0.001..1.5697 (1000 steps) and 0.1..1.5 (10000),
    60 benchmark-like windows of 61 angles, and 5000-pair batches: random
    mixed pairs, coincident pairs, nearly coincident pure pairs, nearly
    pure pairs, pure pairs and pairs of radius 1e-5 (the small-radius
    branch of the slopes).  Every single lane of 300 matches too.
    """
    cases = [
        _post_measurement_pairs(np.linspace(0.001, 1.5697, 1000)),
        _post_measurement_pairs(np.linspace(0.1, 1.5, 10000)),
    ]
    for _ in range(60):
        lo = rng.uniform(0.1, 1.1)
        cases.append(_post_measurement_pairs(np.linspace(lo, lo + rng.uniform(0.2, 0.4), 61)))
    n = 5000
    mixed = [np.array([random_bloch_vector(rng) for _ in range(n)]) for _ in range(2)]
    pure = [np.array([random_observable(rng).n for _ in range(n)]) for _ in range(2)]
    near = pure[0] + rng.normal(scale=1e-9, size=(n, 3)) * (rng.random((n, 1)) < 0.5)
    near /= np.maximum(1.0, np.linalg.norm(near, axis=1, keepdims=True))
    cases += [
        tuple(mixed),
        (mixed[0], mixed[0].copy()),
        (pure[0] * (1.0 - 1e-7), near),
        (pure[0] * (1.0 - rng.uniform(0.0, 1e-12, (n, 1))), pure[0] * (1.0 - rng.uniform(0.0, 1e-6, (n, 1)))),
        tuple(pure),
        (mixed[0] * 1e-5, mixed[1] * 1e-5),
    ]
    cases += [(mixed[0][k : k + 1], mixed[1][k : k + 1]) for k in range(300)]
    for r0, r1 in cases:
        want = _holevo_max_batch_reference(r0, r1)
        got = quantum._holevo_max_batch(r0, r1)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_sigma_settings_saturate_the_channel():
    state, a0, a1, b0, b1 = sb.sigma_settings()
    table = sb.sequential_correlation(state, a0, a1, b0, b1)
    report = sb.signal_info(table)
    assert report.info == pytest.approx(MU, abs=1e-9)
    assert report.alpha_star == pytest.approx(0.6, abs=1e-3)
    assert report.b_star == 0
    assert report.strength == pytest.approx(0.5, abs=1e-12)
    rho0 = sb.post_measurement_state(state, a0)
    rho1 = sb.post_measurement_state(state, a1)
    assert sb.trace_distance(rho0, rho1) == pytest.approx(0.5, abs=1e-12)
    alpha, chi = sb.holevo_max(rho0, rho1)
    assert alpha == pytest.approx(0.6, abs=1e-3)
    assert chi == pytest.approx(MU, abs=1e-9)


def test_signal_corrected_bound_value():
    assert sb.signal_corrected_bound() == pytest.approx(2.0 * (MU + 1.0), abs=1e-9)
    assert sb.signal_corrected_bound() == pytest.approx(2.6438561897747247, abs=1e-9)


def test_tsirelson_box_reaches_the_quantum_maximum():
    table = sb.tsirelson_box()
    assert sb.functional_value(table) == pytest.approx(2.0 * ROOT2, abs=1e-9)
    assert sb.signaling_deltas(table).max <= 1e-12
    assert sb.disturbance_cost(table) == pytest.approx(ROOT2 - 1.0, abs=1e-9)
    for a in (0, 1):
        for b in (0, 1):
            sign = -1.0 if (a, b) == (1, 0) else 1.0
            assert table.expectation(a, b) == pytest.approx(sign * ROOT2 / 2.0, abs=1e-9)


def test_theta_geometry_domain():
    for bad in (0.0, math.pi / 2.0, -0.3, 2.0, math.nan):
        with pytest.raises(sb.DomainError, match="outside"):
            sb.theta_geometry(bad)
    # Only real numbers are angles; a bool is no angle, as for settings.
    for bad in (True, False, np.True_, "1", None, 1.0 + 0.0j, [1.0]):
        with pytest.raises(sb.DomainError, match="sweep angle must be a real number"):
            sb.theta_geometry(bad)
    assert sb.theta_geometry(np.float64(0.7))[1].n.tobytes() == sb.theta_geometry(0.7)[1].n.tobytes()


def test_built_observables_pass_the_direction_checks():
    """``Observable(v)`` accepts every direction the geometries build, with the same bytes.

    So ``theta_geometry`` and ``sigma_settings`` may skip those checks.
    """
    thetas = np.concatenate([np.linspace(1e-4, math.pi / 2.0 - 1e-4, 2001), [0.7, math.pi / 4.0]])
    built = [obs for theta in thetas.tolist() for obs in sb.theta_geometry(theta)[1:]]
    built += sb.sigma_settings()[1:]
    for obs in built:
        checked = sb.Observable(obs.n)
        assert checked.n.tobytes() == obs.n.tobytes()
        assert checked.n.dtype == obs.n.dtype and not obs.n.flags.writeable


def test_theta_geometry_layout():
    state, a0, a1, b0, b1 = sb.theta_geometry(0.7)
    assert np.allclose(b0.n, [0.0, 0.0, 1.0])
    assert np.allclose(a0.n, [math.sin(0.7), 0.0, math.cos(0.7)])
    assert np.allclose(b1.n, [math.sin(1.4), 0.0, math.cos(1.4)])
    assert np.allclose(a1.n, [math.sin(2.1), 0.0, math.cos(2.1)])
    assert np.allclose(state.bloch_vector, a1.n, atol=1e-12)


def test_sweep_functional_matches_closed_form():
    """The geometry gives |3 cos(theta) - cos(3 theta)| for the functional."""
    for theta in np.linspace(0.2, 1.4, 13):
        state, a0, a1, b0, b1 = sb.theta_geometry(float(theta))
        table = sb.sequential_correlation(state, a0, a1, b0, b1)
        want = abs(3.0 * math.cos(theta) - math.cos(3.0 * theta))
        assert sb.functional_value(table) == pytest.approx(want, abs=1e-10)


def test_sweep_rows_and_frozen_values():
    rows = sb.theta_sweep(0.9, 1.2, 61)
    assert len(rows) == 61
    assert rows[0].theta == pytest.approx(0.9)
    assert rows[-1].theta == pytest.approx(1.2)
    assert rows[36].theta == pytest.approx(1.08, abs=1e-12)
    assert rows[36].functional == pytest.approx(2.40914699584505, abs=1e-9)
    assert rows[60].functional == pytest.approx(1.9838316797641689, abs=1e-9)
    row_10 = rows[20]
    assert row_10.theta == pytest.approx(1.0, abs=1e-12)
    assert row_10.restricted_info == pytest.approx(0.2170400654058842, abs=1e-9)
    assert row_10.disturbance == pytest.approx(0.305449707102432, abs=1e-9)
    assert row_10.classical is False
    row_112 = rows[44]
    assert row_112.theta == pytest.approx(1.12, abs=1e-12)
    assert row_112.restricted_info == pytest.approx(0.1831253464467594, abs=1e-9)
    assert row_112.disturbance == pytest.approx(0.14164555725127315, abs=1e-9)
    assert row_112.classical is True
    for row in rows:
        assert row.functional_norm == pytest.approx(row.functional / 2.0)
        assert row.restricted_info <= row.holevo_info + 1e-9


def test_sweep_rows_are_classify_verdicts():
    """Each row's numbers and verdict are those of ``classify`` on its table.

    Every field is compared by ``float.hex``, on a 400-step window, on the
    full-range 1000-step window, and on two seeded random windows.
    """
    rng = np.random.default_rng(1101)
    windows = [(0.05, 1.5, 400), (0.001, 1.5697, 1000)]
    for steps in (61, 333):
        lo = float(rng.uniform(1e-3, 1.2))
        windows.append((lo, float(rng.uniform(lo + 1e-3, 1.5707)), steps))
    for lo, hi, steps in windows:
        rows = sb.theta_sweep(lo, hi, steps)
        thetas = np.linspace(lo, hi, steps)
        tables, chis = quantum._theta_batch(thetas)
        assert len(rows) == steps
        for row, theta, p, chi in zip(rows, thetas.tolist(), tables, chis.tolist()):
            report = sb.classify(sb.Correlation(p))
            assert row.theta.hex() == theta.hex()
            assert row.functional.hex() == report.functional.hex()
            assert row.functional_norm.hex() == (report.functional / 2.0).hex()
            assert row.restricted_info.hex() == report.signal_mutual_info.hex()
            assert row.disturbance.hex() == report.disturbance.hex()
            assert row.holevo_info.hex() == chi.hex()
            assert row.classical is report.classical_by_mutual_info


def test_theta_directions_match_per_observable_vectors():
    """The one-pass direction grid equals four separate ``sin``/``cos`` vectors, hex for hex."""

    def xz(phi):
        return np.stack([np.sin(phi), np.zeros_like(phi), np.cos(phi)], axis=-1)

    rng = np.random.default_rng(2000)
    for _ in range(200):
        lo = float(rng.uniform(1e-4, 1.5))
        thetas = np.linspace(lo, float(rng.uniform(lo, 1.5707)), int(rng.integers(2, 700)))
        b0, a0, b1, a1 = (xz(k * thetas) for k in (0.0, 1.0, 2.0, 3.0))
        alice, bob = quantum._theta_directions(thetas)
        for got, want in ((alice, np.stack([a0, a1], axis=1)), (bob, np.stack([b0, b1], axis=1))):
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def test_sweep_argument_validation(monkeypatch):
    with pytest.raises(sb.DomainError):
        sb.theta_sweep(0.9, 1.2, 1)
    # Step counts must be integers, bools excluded; numpy integers count.
    for bad in (2.5, 61.0, "5", None, True):
        with pytest.raises(sb.DomainError, match="sweep steps must be an integer"):
            sb.theta_sweep(0.9, 1.2, bad)
    assert sb.theta_sweep(0.9, 1.2, np.int64(5)) == sb.theta_sweep(0.9, 1.2, 5)
    with pytest.raises(sb.DomainError, match="sweep range is empty"):
        sb.theta_sweep(1.2, 0.9, 61)
    with pytest.raises(sb.DomainError, match="sweep range is empty"):
        sb.theta_sweep(1.0, 1.0, 10)
    # Each endpoint's type and domain are checked before the range, so a
    # string fails as no angle rather than in the comparison.
    for lo, hi in ((True, 1.2), ("0.9", 1.2), (0.9, None), (0.9, "1.2"), (np.False_, 1.2)):
        with pytest.raises(sb.DomainError, match="sweep angle must be a real number"):
            sb.theta_sweep(lo, hi, 3)
    for lo, hi in ((2.0, 0.5), (0.9, math.nan), (-0.1, 1.2)):
        with pytest.raises(sb.DomainError, match="outside"):
            sb.theta_sweep(lo, hi, 3)

    def no_grid(*args, **kwargs):
        raise AssertionError("the step grid was allocated")

    # The step bound fires before anything of the sweep's size exists.
    monkeypatch.setattr(np, "linspace", no_grid)
    for steps in (quantum.MAX_SWEEP_STEPS + 1, 10**12):
        with pytest.raises(sb.DomainError):
            sb.theta_sweep(0.9, 1.2, steps)


def test_sweep_batch_matches_scalar_routes():
    """Every batched row agrees with the scalar, matrix-based computations.

    Tables equal :func:`sequential_correlation`'s at each angle, byte for
    byte.  The
    Bloch-vector Holevo search matches the maximum of the Holevo quantity
    of alice's two post-measurement states, from their density matrices'
    eigenvalues, over a weight grid, refined around the coarse maximum
    to a spacing of 1e-5.
    """
    rows = sb.theta_sweep(0.3, 1.45, 40)
    tables, _ = quantum._theta_batch(np.array([row.theta for row in rows]))
    coarse = np.linspace(0.0, 1.0, 401)
    for row, batched in zip(rows, tables):
        state, a0, a1, b0, b1 = sb.theta_geometry(row.theta)
        scalar = sb.sequential_correlation(state, a0, a1, b0, b1)
        assert batched.tobytes() == scalar.p.tobytes()
        rho0 = sb.post_measurement_state(state, a0)
        rho1 = sb.post_measurement_state(state, a1)
        best = max(coarse, key=lambda w: _matrix_holevo(float(w), rho0, rho1))
        fine = np.linspace(max(0.0, best - 0.0025), min(1.0, best + 0.0025), 501)
        grid_max = max(_matrix_holevo(float(w), rho0, rho1) for w in fine)
        assert abs(row.holevo_info - grid_max) <= 1e-9, row.theta


def test_sweep_rows_are_the_scalar_api_values():
    """Each sweep row carries the scalar API's numbers at its angle, hex for hex.

    On 1322 rows (the full-range 1000-step window, the default and two
    other fixed windows, and three seeded random ones), the batched table
    is ``sequential_correlation(*theta_geometry(theta))``'s byte for byte,
    ``holevo_info`` is ``holevo_max``'s chi on alice's two
    ``post_measurement_state``s, and ``restricted_info``, ``disturbance``
    and ``classical`` are ``classify``'s.
    """
    rng = np.random.default_rng(1802)
    windows = [(0.001, 1.5697, 1000), (0.9, 1.2, 61), (0.95, 1.0, 61), (0.3, 1.45, 40)]
    for steps in (31, 60, 69):
        lo = float(rng.uniform(1e-3, 1.3))
        windows.append((lo, float(rng.uniform(lo + 1e-3, 1.5707)), steps))
    count = 0
    for lo, hi, steps in windows:
        tables, _ = quantum._theta_batch(np.linspace(lo, hi, steps))
        for row, batched in zip(sb.theta_sweep(lo, hi, steps), tables):
            state, a0, a1, b0, b1 = sb.theta_geometry(row.theta)
            table = sb.sequential_correlation(state, a0, a1, b0, b1)
            assert batched.tobytes() == table.p.tobytes(), row.theta
            post = [sb.post_measurement_state(state, a) for a in (a0, a1)]
            assert row.holevo_info.hex() == sb.holevo_max(*post)[1].hex(), row.theta
            report = sb.classify(table)
            assert row.restricted_info.hex() == report.signal_mutual_info.hex(), row.theta
            assert row.disturbance.hex() == report.disturbance.hex(), row.theta
            assert row.classical is report.classical_by_mutual_info
            count += 1
    assert count == 1322


def test_route_gap_raises_consistency_error(monkeypatch):
    """A closed-form route off by 1e-7 fails the sweep and the scalar call."""
    formula = quantum._formula_tables
    monkeypatch.setattr(quantum, "_formula_tables", lambda r, a, b: formula(r, a, b) + 1e-7)
    with pytest.raises(sb.ConsistencyError):
        sb.theta_sweep(0.9, 1.2, 61)
    state, a0, a1, b0, b1 = sb.theta_geometry(1.0)
    with pytest.raises(sb.ConsistencyError):
        sb.sequential_correlation(state, a0, a1, b0, b1)


def test_sweep_csv_format():
    rows = sb.theta_sweep(0.9, 1.2, 5)
    text = sb.sweep_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "theta,lambda,lambda_norm,S_restricted,c_lambda,chi,classical"
    assert lines[-1] == ""
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0.9"
    assert first[-1] in ("0", "1")
    assert sb.sweep_csv(rows) == text


def test_find_crossover_frozen_value():
    theta = sb.find_crossover(0.9, 1.2)
    assert theta == pytest.approx(1.07010498046875, abs=2e-4)
    below = sb.theta_sweep(0.9, 1.2, 61)[20]
    assert below.classical is False


def test_find_crossover_failure_modes():
    with pytest.raises(sb.NoCrossoverError):
        sb.find_crossover(0.95, 1.0)
    with pytest.raises(sb.NoCrossoverError):
        sb.find_crossover(1.1, 1.1)
    with pytest.raises(sb.NoCrossoverError):
        sb.find_crossover(1.2, 0.9)
    # The angle domain is checked before the bracket, reversed or not.
    for lo, hi in ((math.nan, 1.0), (1.0, math.nan), (2.0, 0.9), (1.2, -0.1), (0.9, math.inf)):
        with pytest.raises(sb.DomainError, match="outside"):
            sb.find_crossover(lo, hi)
    for lo, hi in ((None, 1.2), (True, 1.2), ("0.9", 1.2), (0.9, "1.2"), (0.9, 1.2j)):
        with pytest.raises(sb.DomainError, match="sweep angle must be a real number"):
            sb.find_crossover(lo, hi)


def test_maximally_mixed_sweep_state_is_silent():
    _, a0, a1, b0, b1 = sb.theta_geometry(math.pi / 4.0)
    table = sb.sequential_correlation(sb.QubitState.maximally_mixed(), a0, a1, b0, b1)
    assert sb.signal_strength(table) <= 1e-12
    assert sb.functional_value(table) == pytest.approx(2.0 * ROOT2, abs=1e-9)
    assert np.allclose(table.p, sb.tsirelson_box().p, atol=1e-12)


def _scalar_crossover(theta_min, theta_max):
    """One-point-at-a-time bisection over the N=1 route, as it stood before batching."""

    def gap(theta):
        table = sb.sequential_correlation(*sb.theta_geometry(theta))
        return sb.signal_info(table).info - sb.disturbance_cost(table)

    if not theta_max > theta_min:
        raise sb.NoCrossoverError(
            f"interval [{theta_min}, {theta_max}] does not bracket a sign change"
        )
    lo, hi = theta_min, theta_max
    positive_lo = gap(lo) > 0.0
    if positive_lo == (gap(hi) > 0.0):
        raise sb.NoCrossoverError(
            f"no sign change of info minus cost on [{theta_min}, {theta_max}]"
        )
    while hi - lo > quantum.CROSSOVER_TOL:
        mid = 0.5 * (lo + hi)
        if (gap(mid) > 0.0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except sb.SignalBoxError as exc:
        return type(exc), str(exc)


def test_find_crossover_matches_scalar_bisection():
    """The batched bisection returns the one-point-at-a-time angle, bit for bit.

    Windows of width 1e-3 to 0.6 anywhere in (0, pi/2), a third of them
    straddling the crossover near 1.0701; errors must match in class and
    message, including endpoints at 0 and at or past pi/2.
    """
    rng = np.random.default_rng(20261018)
    windows = []
    for k in range(510):
        width = float(rng.uniform(1e-3, 0.6))
        if k % 3 == 0:
            lo = 1.0701 - width * float(rng.uniform(0.05, 0.95))
        else:
            lo = float(rng.uniform(1e-3, 1.5707 - width))
        windows.append((lo, lo + width))
    windows += [
        (0.0, 1.2),
        (-0.5, 1.2),
        (0.9, math.pi / 2.0),
        (0.9, 2.0),
        (0.0, math.pi / 2.0),
        (1.1, 1.1),
        (1.2, 0.9),
        (0.95, 1.0),
        (1.07, 1.0700001),
        (1, 1.2),
        # The first midpoint is the guess itself, and windows that hug it.
        (quantum._CROSSOVER_GUESS - 0.125, quantum._CROSSOVER_GUESS + 0.125),
        (1.07, 1.0702),
        (quantum._CROSSOVER_GUESS - 5e-14, quantum._CROSSOVER_GUESS + 5e-14),
        (0.001, 1.5697),
    ]
    bracketing = 0
    for lo, hi in windows:
        want = _outcome(_scalar_crossover, lo, hi)
        assert _outcome(sb.find_crossover, lo, hi) == want, (lo, hi)
        bracketing += isinstance(want, str)
    assert 150 <= bracketing <= len(windows) - 150


def test_zero_gap_is_not_a_crossover():
    """Below about 5e-9 the gap rounds to exactly 0.0, which is not positive.

    A window there brackets no sign change, and one reaching past 1.07
    finds the angle where the gap first becomes positive, not its endpoint.
    """
    assert quantum._crossover_gaps([1e-300, 1e-9, 2e-9]) == [0.0, 0.0, 0.0]
    for lo, hi in ((1e-9, 2e-9), (1e-300, 0.5)):
        for finder in (sb.find_crossover, _scalar_crossover):
            with pytest.raises(sb.NoCrossoverError):
                finder(lo, hi)
    theta = sb.find_crossover(1e-9, 1.2)
    assert theta == pytest.approx(1.0701049806, abs=1e-10)
    assert theta.hex() == _scalar_crossover(1e-9, 1.2).hex()


def test_crossover_gaps_match_scalar_route():
    """Batched gaps equal ``info - cost`` of the N=1 route, bit for bit."""
    angles = list(np.random.default_rng(7).uniform(1e-3, 1.57, 300))
    for batch in (angles, angles[:7], angles[:1]):
        want = []
        for theta in batch:
            table = sb.sequential_correlation(*sb.theta_geometry(theta))
            want.append((sb.signal_info(table).info - sb.disturbance_cost(table)).hex())
        assert [gap.hex() for gap in quantum._crossover_gaps(batch)] == want


def test_crossover_gaps_are_classify_batch_gaps(monkeypatch):
    """Batched gaps equal ``signal_mutual_info - disturbance`` of ``classify_batch``.

    The reports are taken on the very route tables the gaps were computed
    from, and compared hex for hex.
    """
    seen = []
    checked = quantum._checked_tables

    def keep(r, a, b):
        seen.append(checked(r, a, b))
        return seen[-1]

    monkeypatch.setattr(quantum, "_checked_tables", keep)
    rng = np.random.default_rng(1150)
    batches = [[0.9, 1.2] + quantum._midpoints(0.9, 1.2, 3), quantum._midpoints(1.06, 1.08, 3)]
    batches.append(list(rng.uniform(1e-3, 1.57, 200)))
    for points in batches:
        gaps = quantum._crossover_gaps(points)
        reports = sb.classify_batch(seen[-1])
        assert [gap.hex() for gap in gaps] == [
            (report.signal_mutual_info - report.disturbance).hex() for report in reports
        ]


def _counting_route_calls(monkeypatch):
    """Patch the route check to record each call's angle count; returns the list."""
    calls = []
    checked = quantum._checked_tables

    def counting(r, a, b):
        calls.append(len(r))
        return checked(r, a, b)

    monkeypatch.setattr(quantum, "_checked_tables", counting)
    return calls


def test_find_crossover_takes_one_route_call(monkeypatch):
    """One route call: the endpoints plus, around the guess, the path to it.

    (0.9, 1.2) takes one call of 14 angles and gives the
    one-point-at-a-time angle, hex for hex.  Bracketing windows like the
    benchmark's (0.2 to 0.4 wide, ends 0.02 or more from the crossover)
    take exactly one call, and windows without the guess one call of
    their 2 endpoints.
    """
    calls = _counting_route_calls(monkeypatch)
    theta = sb.find_crossover(0.9, 1.2)
    assert calls == [14]
    monkeypatch.undo()
    assert theta.hex() == _scalar_crossover(0.9, 1.2).hex()

    calls = _counting_route_calls(monkeypatch)
    rng = np.random.default_rng(1401)
    for _ in range(60):
        width = rng.uniform(0.2, 0.4)
        lo = rng.uniform(1.0701 - width + 0.02, 1.0701 - 0.02)
        calls.clear()
        sb.find_crossover(lo, lo + width)
        assert len(calls) == 1, (lo, width)
    for lo, hi in ((0.95, 1.0), (0.1, 0.5), (1.1, 1.5), (1.0, 1.07)):
        calls.clear()
        with pytest.raises(sb.NoCrossoverError):
            sb.find_crossover(lo, hi)
        assert calls == [2], (lo, hi)


def test_crossover_guess_is_the_gap_sign_change():
    """``_CROSSOVER_GUESS`` is where the computed gap changes sign, its only change.

    A bisection over the N=1 route, one gap at a time, run until its
    midpoint is an endpoint, ends within 1e-12 of the guess; over 2001
    angles across (0, pi/2) the batched gap changes sign once, around it.
    """

    def gap(theta):
        table = sb.sequential_correlation(*sb.theta_geometry(theta))
        return sb.signal_info(table).info - sb.disturbance_cost(table)

    lo, hi = 1.06, 1.08
    g_lo = gap(lo)
    assert g_lo < 0.0 < gap(hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if (gap(mid) > 0.0) == (g_lo > 0.0):
            lo = mid
        else:
            hi = mid
    assert abs(lo - quantum._CROSSOVER_GUESS) <= 1e-12
    assert abs(hi - quantum._CROSSOVER_GUESS) <= 1e-12

    thetas = np.linspace(1e-3, math.pi / 2.0 - 1e-3, 2001)
    positive = np.array(quantum._crossover_gaps(thetas)) > 0.0
    changes = np.flatnonzero(positive[1:] != positive[:-1])
    assert len(changes) == 1
    assert thetas[changes[0]] < quantum._CROSSOVER_GUESS < thetas[changes[0] + 1]


@pytest.mark.parametrize("guess", [1.15, 0.95])
def test_find_crossover_survives_a_wrong_guess(monkeypatch, guess):
    """A wrong guess costs route calls, never the answer.

    The walk leaves the guessed path, takes the 7 midpoints of three
    levels a call from there, and still returns the one-point-at-a-time
    angle, hex for hex.
    """
    windows = ((0.9, 1.2), (1.0, 1.5))
    want = [_scalar_crossover(lo, hi).hex() for lo, hi in windows]
    monkeypatch.setattr(quantum, "_CROSSOVER_GUESS", guess)
    calls = _counting_route_calls(monkeypatch)
    for (lo, hi), angle in zip(windows, want):
        calls.clear()
        assert sb.find_crossover(lo, hi).hex() == angle
        assert len(calls) > 1 and set(calls[1:]) == {7}, calls


def test_find_crossover_route_check_runs(monkeypatch):
    """Every batched gap still goes through the 1e-8 route check."""
    formula = quantum._formula_tables
    monkeypatch.setattr(quantum, "_formula_tables", lambda r, a, b: formula(r, a, b) + 1e-7)
    with pytest.raises(sb.ConsistencyError):
        sb.find_crossover(0.9, 1.2)
