"""Sequential qubit measurements and the angle-sweep analysis.

One qubit is measured twice in a row.  Alice measures first with one of
two +/-1 observables, bob second with one of two others.  Because
alice's measurement updates the state, the joint table she and bob
generate can signal from her setting to his marginal, and that signal is
what the rest of the package prices.

Tables come from two independent routes, cross-checked on every call:
an explicit project-then-measure computation with 2x2 matrices, and a
closed-form expression on Bloch vectors alone.  Both are kernels over a
batch of N instances given as Bloch vectors, as are the unread update
r -> (n.r) n and the Holevo weight search, one bracketed Newton
iteration over all ensembles (a qubit with Bloch vector r has entropy
h((1 + |r|)/2)).  The scalar functions and state helpers are their N=1
case, and the angle sweep runs all its angles as one batch, so a sweep
row holds the scalar helpers' values at its angle, bit for bit; a state
built by ``from_bloch`` keeps the vector it was given.  The crossover
bisection batches its path towards the gap's known sign change into one
route call.  Matrices appear only in the projector route and in a
state's ``rho``.  Observables are +/-1 valued (label l means value
(-1)**l); entropies are in bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .correlation import (
    _INPUT_SLACK, Correlation, _check_bit, _check_real, _frozen_record, _numeric_array,
    validate_tables,
)
from .errors import ConsistencyError, DomainError, NoCrossoverError, NormalizationError
from .signaling import signal_info
from .simulate import _verdict, _verdict_rows

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

_EIG_FLOOR = -1e-10
_ROUTE_TOL = 1e-8
_EPS = np.finfo(float).eps
_PURE_GAP = 4.0 * _EPS

# Newton step on the Holevo weight at which a lane stops.
HOLEVO_STEP = 1e-13
# Width at which the crossover bisection stops.
CROSSOVER_TOL = 1e-4
# Largest sweep; one batch holds a (steps, 2, 2, 2, 2) table array.
MAX_SWEEP_STEPS = 100_000

# Outcome value (-1)**label for labels 0 and 1, and the products u v of two.
_SIGNS = np.array([1.0, -1.0])
_SIGN_PRODUCTS = np.outer(_SIGNS, _SIGNS)
# Rows (outcome s, i, j): the coefficients of the Bloch components in
# 0.5 s (v.sigma)[i, j], and the 0.5 I[i, j] added to them.  Each entry is
# one product by +/-0.5 plus that constant, and halving commutes with
# rounding, so it has the bits of 0.5 (I + s v.sigma) summed as matrices;
# the added constant turns every -0.0 into 0.0, as I + ... does.  Plain
# Python arithmetic builds them, so importing the module runs no complex
# numpy loop.
_HALF_SIGMA = np.array(
    [
        [0.5 * s * pauli[i][j] for pauli in (PAULI_X.tolist(), PAULI_Y.tolist(), PAULI_Z.tolist())]
        for s in (1.0, -1.0)
        for i in (0, 1)
        for j in (0, 1)
    ]
)
_HALF_IDENTITY = np.array([[0.5], [0.0], [0.0], [0.5]] * 2, dtype=complex)


@dataclass(frozen=True, eq=False)
class Observable:
    """A +/-1 observable n.sigma given by its unit Bloch direction."""

    n: np.ndarray

    def __post_init__(self) -> None:
        vec = _numeric_array(self.n)
        if vec.shape != (3,):
            raise DomainError(f"Bloch direction must be a 3-vector, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise DomainError("Bloch direction has a non-finite entry")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > _INPUT_SLACK:
            raise DomainError(f"Bloch direction has norm {norm}, expected 1")
        vec.setflags(write=False)
        object.__setattr__(self, "n", vec)

    @classmethod
    def _built(cls, n) -> "Observable":
        """``Observable(n)`` for a unit direction this module built, without the checks."""
        vec = np.array(n, dtype=float)
        vec.setflags(write=False)
        observable = object.__new__(cls)
        observable.__dict__.update(n=vec)
        return observable

    @property
    def matrix(self) -> np.ndarray:
        return self.n[0] * PAULI_X + self.n[1] * PAULI_Y + self.n[2] * PAULI_Z

    def projector(self, label: int) -> np.ndarray:
        """Projector onto the outcome with value (-1)**label."""
        return 0.5 * (IDENTITY + (-1.0) ** _check_bit(label, "outcome label") * self.matrix)


@dataclass(frozen=True, eq=False)
class QubitState:
    """Validated 2x2 density matrix; its eigenvalues are (trace +/- |r|)/2."""

    rho: np.ndarray

    def __post_init__(self) -> None:
        try:
            m = np.array(self.rho, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"cannot interpret input as a numeric array: {exc}") from exc
        if m.shape != (2, 2):
            raise DomainError(f"density matrix must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("density matrix has a non-finite entry")
        if np.abs(m - m.conj().T).max() > _INPUT_SLACK:
            raise DomainError("density matrix is not Hermitian")
        (m00, m01), (m10, m11) = m.tolist()
        trace = m00.real + m11.real
        if abs(trace - 1.0) > _INPUT_SLACK:
            raise NormalizationError(f"density matrix has trace {trace}, expected 1")
        # Adding 0.0 turns -0.0 into 0.0, as the traces Tr(sigma_k rho) do.
        x = 0.0 + (m10.real + m01.real)
        y = 0.0 + (m10.imag - m01.imag)
        z = 0.0 + (m00.real - m11.real)
        low = 0.5 * (trace - math.sqrt(x * x + y * y + z * z))
        if low < _EIG_FLOOR:
            raise DomainError(f"density matrix has negative eigenvalue {low}")
        r = np.array([x, y, z])
        m.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "rho", m)
        object.__setattr__(self, "_bloch", r)

    @classmethod
    def from_bloch(cls, r) -> "QubitState":
        """The state with Bloch vector ``0.0 + r``, kept as given rather than read back off rho."""
        vec = 0.0 + _numeric_array(r)
        if vec.shape != (3,):
            raise DomainError(f"Bloch vector must be a 3-vector, got shape {vec.shape}")
        if not all(map(math.isfinite, vec.tolist())):
            raise DomainError("Bloch vector has a non-finite entry")
        if float(np.linalg.norm(vec)) > 1.0 + _INPUT_SLACK:
            raise DomainError("Bloch vector lies outside the unit ball")
        # A vector that passes these checks gives a rho that QubitState(rho) accepts.
        rho = 0.5 * (IDENTITY + vec[0] * PAULI_X + vec[1] * PAULI_Y + vec[2] * PAULI_Z)
        rho.setflags(write=False)
        vec.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(rho=rho, _bloch=vec)
        return state

    @classmethod
    def maximally_mixed(cls) -> "QubitState":
        return cls(0.5 * IDENTITY)

    @property
    def bloch_vector(self) -> np.ndarray:
        """Read-only (Tr X rho, Tr Y rho, Tr Z rho); as given if built by ``from_bloch``."""
        return self._bloch


def _projector_tables(r: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`projector_update_table` for N instances at once.

    ``r`` (N, 3) holds the states' Bloch vectors, ``a`` and ``b``
    (N, 2, 3) alice's and bob's two unit directions; the result has
    shape (N, 2, 2, 2, 2), a transposed view of the einsum's output.
    All five operators 0.5 (I + s v.sigma) come from one product of the
    Bloch components with ``_HALF_SIGMA``, and the einsum runs with the
    instance axis innermost.
    """
    # (5, 3, N): alice's two directions, bob's two, then the state.
    components = np.concatenate([a, b, r[:, None]], axis=1).transpose(1, 2, 0)
    ops = _HALF_SIGMA @ components
    ops += _HALF_IDENTITY
    ops = ops.reshape(5, 2, 2, 2, -1)
    alice, bob, rho = ops[:2], ops[2:4], ops[4, 0]
    tables = np.einsum("byijn,axjkn,kln,axlin->abxyn", bob, alice, rho, alice).real
    return tables.transpose(4, 0, 1, 2, 3)


def _formula_tables(r: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`expanded_formula_table` for N instances at once.

    Shapes as in :func:`_projector_tables`, with which it shares no code.
    """
    a_r = np.einsum("nak,nk->na", a, r)[:, :, None, None, None]
    a_b = np.einsum("nak,nbk->nab", a, b)[:, :, :, None, None]
    # Axes (n, a, b, x, y): alice's factor 1 + u a.r, bob's 1 + u v a.b.
    return 0.25 * (1.0 + a_r * _SIGNS[:, None]) * (1.0 + a_b * _SIGN_PRODUCTS)


def _checked_tables(r: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Projector-route tables of N instances, each checked by the closed form.

    Raises :class:`~signalbox.errors.ConsistencyError` when the routes
    disagree entrywise by more than 1e-8 on any instance; otherwise the
    projector tables, clipped at 0, are returned in C order.
    """
    direct = _projector_tables(r, a, b)
    gap = float(np.abs(direct - _formula_tables(r, a, b)).max())
    if gap > _ROUTE_TOL:
        raise ConsistencyError(
            f"projector and closed-form tables disagree by {gap}"
        )
    return np.maximum(direct, 0.0, order="C")


def _single(rho: QubitState, a0, a1, b0, b1):
    """One state and four observables as the N=1 batch of Bloch vectors."""
    return (
        rho.bloch_vector[None],
        np.stack([a0.n, a1.n])[None],
        np.stack([b0.n, b1.n])[None],
    )


def projector_update_table(rho: QubitState, a0, a1, b0, b1) -> np.ndarray:
    """Joint table by the explicit two-step measurement computation.

    Entry [a][b][x][y] is Tr(B_y A_x rho A_x) with A, B the outcome
    projectors of alice's and bob's chosen observables.  Alice always
    measures first; her projector sandwiches the state.
    """
    return _projector_tables(*_single(rho, a0, a1, b0, b1))[0]


def expanded_formula_table(rho: QubitState, a0, a1, b0, b1) -> np.ndarray:
    """Joint table by the closed-form expression, Bloch vectors only.

    With r the state's Bloch vector and unit directions a, b, the entry
    at outcome values u = (-1)**x, v = (-1)**y is the factored Born rule

        1/4 (1 + u a.r) (1 + u v a.b)

    alice's outcome u has probability (1 + u a.r)/2 and leaves the pure
    state with Bloch vector u a, which bob's outcome v then finds with
    probability (1 + v (u a).b)/2.  Expanding the sandwiched product
    a b a = 2(a.b) a - b gives the same entries: its b.r terms cancel.
    No matrix arithmetic is involved.  Sharing no code with
    :func:`projector_update_table` is the point: the two routes check
    each other.
    """
    return _formula_tables(*_single(rho, a0, a1, b0, b1))[0]


def sequential_correlation(rho: QubitState, a0, a1, b0, b1) -> Correlation:
    """Correlation table of the two-step measurement, route-checked.

    Both computation routes run on every call and must agree entrywise
    within 1e-8, else :class:`~signalbox.errors.ConsistencyError` is
    raised.  The projector route's numbers are the ones returned.
    """
    return Correlation(_checked_tables(*_single(rho, a0, a1, b0, b1))[0])


def _unread_update(n: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(n.r) n for directions ``n`` (N, A, 3) of states ``r`` (N, 3): the unread update."""
    return np.einsum("nak,nk->na", n, r)[:, :, None] * n


def post_measurement_state(rho: QubitState, obs: Observable) -> QubitState:
    """State after an unread measurement of ``obs``, both branches kept: r -> (n.r) n."""
    return QubitState.from_bloch(_unread_update(obs.n[None, None], rho.bloch_vector[None])[0, 0])


def trace_distance(r0: QubitState, r1: QubitState) -> float:
    """Half the trace norm of the difference of two states, |r0 - r1|/2."""
    return 0.5 * float(np.linalg.norm(r0.bloch_vector - r1.bloch_vector))


def von_neumann_entropy(rho: QubitState) -> float:
    """Entropy of a qubit state in bits, h((1 + |r|)/2)."""
    return float(_qubit_entropy(np.dot(rho.bloch_vector, rho.bloch_vector)))


def holevo(alpha: float, r0: QubitState, r1: QubitState) -> float:
    """Holevo quantity of the two-state ensemble {alpha: r0, 1-alpha: r1}.

    The objective :func:`holevo_max` maximises: at its weight, its chi.
    """
    if not 0.0 <= _check_real(alpha, "ensemble weight") <= 1.0:
        raise DomainError(f"ensemble weight {alpha} outside [0, 1]")
    terms = _holevo_terms(r0.bloch_vector[None], r1.bloch_vector[None])
    return float(_holevo_objective(alpha, *terms)[0])


def _qubit_entropy(norm_sq: np.ndarray) -> np.ndarray:
    """Entropy in bits of qubit states with squared Bloch radius ``norm_sq``.

    The eigenvalues are (1 +/- |r|)/2, so the entropy is h((1 + |r|)/2);
    0 log 0 counts as 0.
    """
    # A squared radius within a few ulps of 1 is a unit vector's rounding,
    # so the state is pure; kept, that rounding alone would count as an
    # entropy of about 3e-15 bits, since h is steep next to a pure state.
    norm_sq = np.where(norm_sq >= 1.0 - _PURE_GAP, 1.0, np.maximum(norm_sq, 0.0))
    radius = np.sqrt(norm_sq)
    high = 0.5 * (1.0 + radius)
    low = 0.5 * (1.0 - radius)
    # A zero eigenvalue meets log2(tiny), and 0 times that is 0.
    low_log = np.log2(np.maximum(low, np.finfo(float).tiny))
    return -high * np.log2(high) - low * low_log


def _entropy_slopes(nu: np.ndarray):
    """First and second ``nu``-derivatives of the entropy h((1 + R)/2), R = sqrt(nu).

    In bits: -artanh(R)/(2R ln2) and -(1/(1 - R**2) - artanh(R)/R)/(4R**2 ln2);
    below R = 1e-4, where these cancel, artanh(R)/R = 1 + nu/3 and the limit
    -1/(6 ln2) stand in, computed only when some lane needs them.  R is
    clamped below 1, where artanh diverges.
    """
    radius = np.minimum(np.sqrt(np.maximum(np.minimum(nu, 1.0), 1e-8)), 1.0 - 2.0**-53)
    ratio = np.arctanh(radius) / radius
    bend = (1.0 / (1.0 - radius * radius) - ratio) / (radius * radius)
    small = nu < 1e-8
    if np.count_nonzero(small):
        ratio = np.where(small, 1.0 + nu / 3.0, ratio)
        bend = np.where(small, 2.0 / 3.0, bend)
    return -ratio / (2.0 * math.log(2.0)), -bend / (4.0 * math.log(2.0))


def _holevo_terms(r0: np.ndarray, r1: np.ndarray):
    """Terms of the Holevo objective of N ensembles ``r0``, ``r1`` (N, 3).

    The blend r1 + alpha (r0 - r1) has squared radius nu = c0 + alpha (c1
    + alpha c2); s1 is the entropy of r1, s_gap that of r0 less s1.
    """
    gap = r0 - r1
    c0 = np.einsum("nk,nk->n", r1, r1)
    c1 = 2.0 * np.einsum("nk,nk->n", gap, r1)
    c2 = np.einsum("nk,nk->n", gap, gap)
    s1 = _qubit_entropy(c0)
    return c0, c1, c2, s1, _qubit_entropy(np.einsum("nk,nk->n", r0, r0)) - s1


def _holevo_objective(alpha, c0, c1, c2, s1, s_gap):
    """f = E(nu) - s1 - alpha s_gap at weight ``alpha``, E the blend's entropy."""
    return _qubit_entropy(c0 + alpha * (c1 + alpha * c2)) - s1 - alpha * s_gap


def _holevo_max_batch(r0: np.ndarray, r1: np.ndarray):
    """Weight-maximised Holevo quantity of N ensembles of Bloch vectors.

    ``r0`` and ``r1`` (N, 3) are the two states of each ensemble.  The
    objective f = E(nu) - s1 - alpha s_gap of :func:`_holevo_objective`
    needs three dot products (:func:`_holevo_terms`) and no matrices.  f is
    concave with closed-form f' and f'' (see :func:`_entropy_slopes`);
    all N lanes run one safeguarded Newton iteration on f' = 0 from
    alpha = 1/2, the bracket [0, 1] shrunk by the sign of f'.  A step no
    longer than ``HOLEVO_STEP``, or than the rounding of f',
    eps |slope| (|E'| + |E''|), over |f''|, settles the lane; a longer one
    leaving the bracket becomes a bisection.  Identical states give
    alpha = 1/2 and chi = 0.  Returns ``(alpha_star, chi)``, chi >= 0.
    """
    c0, c1, c2, s1, s_gap = terms = _holevo_terms(r0, r1)
    alpha, lo, hi = np.full(len(c0), 0.5), np.zeros(len(c0)), np.ones(len(c0))
    active = c2 > 0.0
    # A zero curvature makes the Newton step inf or NaN, which the bracket
    # test below turns into a bisection step.
    with np.errstate(all="ignore"):
        for _ in range(100):  # bisection alone settles within 45 steps
            if not np.count_nonzero(active):
                break
            slope = c1 + 2.0 * alpha * c2
            d1, d2 = _entropy_slopes(c0 + alpha * (c1 + alpha * c2))
            grad = d1 * slope - s_gap
            curv = d2 * slope * slope + 2.0 * c2 * d1
            lo, hi = np.where(grad > 0.0, alpha, lo), np.where(grad < 0.0, alpha, hi)
            # Clipped to the bracket; a NaN step stays NaN and fails the test below.
            newton = np.minimum(hi, np.maximum(lo, alpha - grad / curv))
            settle = np.maximum(HOLEVO_STEP, _EPS * np.abs(slope * (d1 + d2) / curv))
            take = (curv < 0.0) & ((lo < newton) & (newton < hi) | (np.abs(newton - alpha) <= settle))
            step = np.where(active, np.where(take, newton, 0.5 * (lo + hi)), alpha)
            active &= np.abs(step - alpha) > settle
            alpha = step
        else:
            raise ConsistencyError("Holevo weight not settled in 100 steps")
    return alpha, np.maximum(_holevo_objective(alpha, *terms), 0.0)


def holevo_max(r0: QubitState, r1: QubitState):
    """Holevo quantity maximized over the ensemble weight.

    Returns ``(alpha_star, chi)``, the N=1 case of the Newton search of
    :func:`_holevo_max_batch` on the concave objective.  Identical states
    give ``(0.5, 0.0)``; two pure states give 1/2, their optimum by
    symmetry, up to the rounding of their squared radii.
    """
    alpha, chi = _holevo_max_batch(r0.bloch_vector[None], r1.bloch_vector[None])
    return float(alpha[0]), float(chi[0])


def sigma_settings():
    """The canonical settings that saturate the signal bounds.

    State |0><0|; alice measures z or x, bob measures z for his first
    setting.  Bob's second setting is not pinned down by the saturation
    argument; x is used, which leaves the b=1 channel silent and the
    b=0 channel carrying all the information.
    Returns ``(state, a0, a1, b0, b1)``.
    """
    z = Observable._built((0.0, 0.0, 1.0))
    x = Observable._built((1.0, 0.0, 0.0))
    state = QubitState.from_bloch(np.array([0.0, 0.0, 1.0]))
    return state, z, x, z, x


def theta_geometry(theta: float):
    """Equally spaced xz-plane settings for the angle sweep.

    The four observables sit at angles 0 (b0), theta (a0), 2*theta (b1)
    and 3*theta (a1), so the negatively signed pair (a1, b0) of the
    functional spans 3*theta while the other three pairs span theta,
    giving a functional value |3 cos(theta) - cos(3*theta)|.  That value
    exceeds 2 exactly on (0, theta_f), with theta_f =
    arccos((sqrt(3) - 1)/2) ~ 1.1961, the root of 2c^3 - 3c + 1 = 0 in
    c = cos(theta); at and past theta_f it is at most 2.  Any
    placement where the negative pair spans only theta caps the value
    at 2 near theta = pi/4 and cannot reproduce the known violation.

    The initial state is the +1 eigenstate of the outermost observable
    a1.  Returns ``(state, a0, a1, b0, b1)``.

    Raises :class:`~signalbox.errors.DomainError` for an angle not real
    (bools included) or outside (0, pi/2).
    """
    _check_angles(theta)
    alice, bob = _theta_directions(np.array([theta], dtype=float))
    a0, a1, b0, b1 = map(Observable._built, np.concatenate([alice[0], bob[0]]))
    return QubitState.from_bloch(a1.n), a0, a1, b0, b1


def _check_angles(*thetas) -> None:
    for theta in thetas:
        if not 0.0 < _check_real(theta, "sweep angle") < math.pi / 2.0:
            raise DomainError(f"sweep angle {theta} outside (0, pi/2)")


def tsirelson_box() -> Correlation:
    """Nonsignaling table with functional value 2*sqrt(2).

    Uses the theta = pi/4 observable geometry on the maximally mixed
    state: every marginal is uniform (no signaling in either direction)
    while the correlators keep the full quantum value.
    """
    _, a0, a1, b0, b1 = theta_geometry(math.pi / 4.0)
    return sequential_correlation(QubitState.maximally_mixed(), a0, a1, b0, b1)


def signal_corrected_bound() -> float:
    """Functional ceiling for tables whose signal is fully classical.

    Equals ``2 * (mu + 1)`` where ``mu`` is the information carried by
    the saturating settings of :func:`sigma_settings`, computed on the
    spot rather than hard-coded.  A table beating this bound is
    nonclassical outright; one below it is not settled by this test.
    """
    table = sequential_correlation(*sigma_settings())
    return _corrected_bound(signal_info(table).info)


def _corrected_bound(mu: float) -> float:
    """The functional ceiling ``2 * (mu + 1)`` for a fully classical signal ``mu``."""
    return 2.0 * (mu + 1.0)


@dataclass(frozen=True)
class SweepRow:
    """One angle of the sweep.

    ``restricted_info`` is the channel information with bob limited to
    the two settings the geometry provides; ``holevo_info`` is the
    weight-optimized Holevo quantity of alice's two post-measurement
    states, an upper envelope for any measurement bob could make.
    ``classical`` is the channel-information verdict of
    :func:`signalbox.simulate.classify` on the row's table.
    """

    theta: float
    functional: float
    functional_norm: float
    restricted_info: float
    disturbance: float
    holevo_info: float
    classical: bool


# Angles from the z-axis, in units of theta, of (a0, a1) and (b0, b1).
_GEOMETRY_STEPS = np.array([[1.0, 3.0], [0.0, 2.0]])[:, None, :]


def _theta_directions(thetas: np.ndarray):
    """:func:`theta_geometry`'s alice and bob directions, (N, 2, 3) each, in one pass."""
    angles = thetas[:, None] * _GEOMETRY_STEPS
    directions = np.zeros(angles.shape + (3,))
    directions[..., 0] = np.sin(angles)
    directions[..., 2] = np.cos(angles)
    return directions[0], directions[1]


def _theta_tables(thetas: np.ndarray):
    """Alice's directions (N, 2, 3) and the checked tables; the state is a1's direction."""
    alice, bob = _theta_directions(thetas)
    return alice, _checked_tables(alice[:, 1], alice, bob)


def _theta_batch(thetas: np.ndarray):
    """Route-checked tables and Holevo quantities of the sweep geometry.

    For N angles, lays out :func:`theta_geometry`'s observables as Bloch
    vectors, runs both table routes once over all of them, and maximises
    the Holevo quantity of alice's two post-measurement states in one
    batched search.  Returns ``(tables (N, 2, 2, 2, 2), chi (N,))``.
    """
    alice, tables = _theta_tables(thetas)
    post = _unread_update(alice, alice[:, 1])
    _, chi = _holevo_max_batch(post[:, 0], post[:, 1])
    return tables, chi


def theta_sweep(theta_min: float, theta_max: float, steps: int):
    """Rows of the angle sweep, ascending, endpoints included.

    All angles run as one batch (see :func:`_theta_batch`), and so do
    their verdicts: the tables are validated as ``classify_batch`` does,
    and each row is read off its table's plain verdict row, with no
    report built; ``classical`` is the channel-information verdict.  Raises
    :class:`~signalbox.errors.DomainError` for ``steps`` that is not an
    integer (bools included), fewer than 2 or more than ``MAX_SWEEP_STEPS``
    steps, an endpoint not real or outside (0, pi/2), or an empty range.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise DomainError(f"sweep steps must be an integer, got {steps!r}")
    if steps < 2:
        raise DomainError(f"sweep needs at least 2 steps, got {steps}")
    if steps > MAX_SWEEP_STEPS:
        raise DomainError(f"sweep allows at most {MAX_SWEEP_STEPS} steps, got {steps}")
    _check_angles(theta_min, theta_max)
    if not theta_max > theta_min:
        raise DomainError(
            f"sweep range is empty: [{theta_min}, {theta_max}]"
        )
    thetas = np.linspace(theta_min, theta_max, steps)
    tables, chis = _theta_batch(thetas)
    return [
        _frozen_record(
            SweepRow, (theta, lam, lam / 2.0, info, floor, chi, _verdict(floor, info)[2])
        )
        for theta, (lam, floor, info, *_), chi in zip(
            thetas.tolist(), _verdict_rows(validate_tables(tables)), chis.tolist()
        )
    ]


def sweep_csv(rows) -> str:
    """Render sweep rows as deterministic CSV at 12 significant digits."""
    lines = ["theta,lambda,lambda_norm,S_restricted,c_lambda,chi,classical"]
    for row in rows:
        lines.append(
            "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%d"
            % (
                row.theta,
                row.functional,
                row.functional_norm,
                row.restricted_info,
                row.disturbance,
                row.holevo_info,
                1 if row.classical else 0,
            )
        )
    return "\n".join(lines) + "\n"


def _crossover_gaps(thetas) -> list:
    """``restricted_info - disturbance`` at each angle, in one batch.

    The gap is ``info - floor`` of each table's plain verdict row, the
    ``signal_mutual_info - disturbance`` of ``classify_batch``, and bit
    for bit the gap of ``sequential_correlation(*theta_geometry(t))``.
    Angles must lie in (0, pi/2).
    """
    rows = _verdict_rows(validate_tables(_theta_tables(np.array(thetas, dtype=float))[1]))
    return [info - floor for _, floor, info, *_ in rows]


def _midpoints(lo: float, hi: float, levels: int) -> list:
    """Every bisection midpoint of [lo, hi] over the next ``levels`` levels."""
    if not levels:
        return []
    mid = 0.5 * (lo + hi)
    return [mid] + _midpoints(lo, mid, levels - 1) + _midpoints(mid, hi, levels - 1)


def _bisection_path(lo: float, hi: float, theta: float) -> list:
    """The midpoints a bisection of [lo, hi] meets on its way to ``theta``."""
    path = []
    while hi - lo > CROSSOVER_TOL:
        mid = 0.5 * (lo + hi)
        path.append(mid)
        if theta < mid:
            hi = mid
        else:
            lo = mid
    return path


# Where the sweep geometry's gap changes sign: the low end of the last
# bracket of a bisection that computes one gap at a time over (1.06, 1.08),
# one ulp wide.  Sampled over (0, pi/2), the gap changes sign nowhere else.
_CROSSOVER_GUESS = 1.0701081368277094


def find_crossover(theta_min: float, theta_max: float) -> float:
    """Angle where the restricted information first exceeds the cost.

    Bisects the sign of ``restricted_info - disturbance > 0`` to within
    ``CROSSOVER_TOL``, so the angle returned is where the gap first
    becomes positive; a gap of exactly 0.0, as below about 5e-9 where
    the channel is silent, counts as not positive and is never returned
    as a crossover.  No Holevo quantity is computed.  The gap is a fixed
    function of the angle, with one sign change, at ``_CROSSOVER_GUESS``,
    so one route call takes the endpoints and, when the guess lies
    between them, the midpoints of the path a bisection follows towards
    the guess, which settles a bracketing window in that one call.  Should the walk leave
    that path, as a gap whose sign is rounding noise next to the root or
    a wrong guess would make it, each later call takes the 7 midpoints
    of the three levels below the current bracket.  The guess only picks
    the angles: every sign is read from an exact, route-checked gap, so
    the walk makes the sign decisions, and returns the angle, of a
    bisection that computes one gap at a time.
    Raises :class:`~signalbox.errors.DomainError` for an endpoint not real
    or outside (0, pi/2), NaN included, checked first; then
    :class:`~signalbox.errors.NoCrossoverError` when the interval is
    degenerate or the gap does not change sign across it.
    """
    _check_angles(theta_min, theta_max)
    if not theta_max > theta_min:
        raise NoCrossoverError(
            f"interval [{theta_min}, {theta_max}] does not bracket a sign change"
        )
    lo, hi = theta_min, theta_max
    points = [lo, hi]
    if lo < _CROSSOVER_GUESS < hi:
        points += _bisection_path(lo, hi, _CROSSOVER_GUESS)
    gaps = dict(zip(points, _crossover_gaps(points)))
    positive_lo = gaps[lo] > 0.0
    if positive_lo == (gaps[hi] > 0.0):
        raise NoCrossoverError(
            f"no sign change of info minus cost on [{theta_min}, {theta_max}]"
        )
    while hi - lo > CROSSOVER_TOL:
        mid = 0.5 * (lo + hi)
        if mid not in gaps:
            points = _midpoints(lo, hi, 3)
            gaps.update(zip(points, _crossover_gaps(points)))
        if (gaps[mid] > 0.0) == positive_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
