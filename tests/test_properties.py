"""Properties of the signal-deficit verdict over generated tables, and of its reports."""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import signalbox as sb
from signalbox.correlation import _frozen_record, validate_tables
from signalbox.errors import DomainError, NegativeProbabilityError, NormalizationError
from conftest import NEAR_SILENT

_UNIT = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def unstructured(draw):
    """Any table: one outcome distribution per setting pair."""
    cells = np.array(draw(st.lists(_UNIT, min_size=16, max_size=16))).reshape(4, 4)
    totals = cells.sum(axis=1, keepdims=True)
    cells = np.where(totals > 0.0, cells / np.where(totals > 0.0, totals, 1.0), 0.25)
    return cells.reshape(2, 2, 2, 2)


@st.composite
def catalog_mixture(draw):
    """A convex mixture over the 32 catalog strategies."""
    weights = np.array(draw(st.lists(_UNIT, min_size=32, max_size=32)))
    if weights.sum() == 0.0:
        weights[0] = 1.0
    return sb.mix(weights / weights.sum(), [sb.catalog(i).as_correlation() for i in sb.FULL_BASIS]).p


deterministic = st.sampled_from(sb.FULL_BASIS).map(lambda i: sb.catalog(i).as_correlation().p)
tables = st.one_of(unstructured(), catalog_mixture(), deterministic)


@settings(max_examples=150, deadline=None)
@given(st.lists(tables, min_size=1, max_size=6), st.sampled_from(("mutual_info", "delta")))
@example([NEAR_SILENT], "mutual_info")
def test_verdict_bounds(batch, measure):
    """``0 <= eta <= c_lambda``, ``S <= C``, and capacity never beats the shift."""
    for report in sb.classify_batch(np.array(batch), measure):
        assert 0.0 <= report.eta <= report.disturbance
        assert report.signal <= report.cost
        assert report.signal_mutual_info <= report.signal_delta


_EDGE_ENTRIES = st.sampled_from(
    [
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        -1e-9,
        math.nextafter(-1e-9, 0.0),
        math.nextafter(-1e-9, -math.inf),
        -2e-9,
        1.0 + 1e-9,
        1.0 + 2e-9,
    ]
)
_WRONG_SHAPES = st.sampled_from(
    [(), (0,), (16,), (4, 4), (2, 2, 2), (2, 2, 2, 3), (2, 2, 0, 2), (1, 2, 2, 2, 2), (2, 2, 2, 2, 1)]
)


def _edit_table(table, edits):
    """``table`` with each ``(index, value, balanced)`` edit applied in turn.

    A balanced edit moves the opposite change onto the other outcome of
    the same ``(a, b, x)`` row, so that negativity is reached with the
    normalization kept.  The entries are Python floats, so an edit that
    meets ``-inf + inf`` leaves a silent NaN, which the validators must
    refuse, rather than a numpy warning.
    """
    cells = np.asarray(table, dtype=float).reshape(16).tolist()
    for index, value, balanced in edits:
        partner = index ^ 1
        if balanced and math.isfinite(value):
            cells[partner] += cells[index] - value
        cells[index] = value
    return np.array(cells).reshape(2, 2, 2, 2)


@st.composite
def edited_tables(draw):
    """A normalized table with up to three entries set to edge values."""
    edits = st.lists(st.tuples(st.integers(0, 15), _EDGE_ENTRIES | _UNIT, st.booleans()), max_size=3)
    return _edit_table(draw(unstructured()), draw(edits))


def test_edits_through_infinities_leave_a_nan_without_a_warning():
    """Balancing an edit against an infinite partner gives NaN, quietly.

    Drawn with numpy scalars, this sequence raised "invalid value
    encountered in scalar add" while the table was drawn.
    """
    edits = [(0, -math.inf, False), (1, math.inf, False), (1, 0.5, True)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _edit_table(np.full((2, 2, 2, 2), 0.25), edits)
    assert math.isnan(table[0, 0, 0, 0]) and table[0, 0, 0, 1] == 0.5
    for check in (sb.Correlation, lambda t: validate_tables(t[None])):
        with pytest.raises(DomainError, match="NaN"):
            check(table)


def _validator_outcome(check, data):
    try:
        return "ok", check(data)
    except sb.SignalBoxError as exc:
        return type(exc), str(exc)


def _chain_check_entries(arr):
    """The entry checks as they stood before the flat verdict kernel, verbatim."""
    low = float(arr.min())
    if np.isnan(low):
        raise DomainError("correlation table has a NaN entry")
    if low < -1e-9:
        raise NegativeProbabilityError(
            f"probability entry {low} is negative beyond tolerance"
        )
    arr[arr < 0.0] = 0.0
    sums = arr.sum(axis=(-2, -1))
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > 1e-9:
        raise NormalizationError(
            f"per-setting outcome sums deviate from 1 by {worst}"
        )
    return arr


@settings(max_examples=300, deadline=None)
@given(edited_tables())
def test_batch_and_table_validators_agree(table):
    """``validate_tables(t[None])``, ``Correlation(t)`` and the old checks agree.

    Accepted, all three give the same bytes, entries in ``[-1e-9, 0)``
    clamped and ``-0.0`` kept; rejected, all three raise the same error
    class with the same message.
    """
    batch = _validator_outcome(lambda t: validate_tables(t[None])[0], table)
    single = _validator_outcome(lambda t: sb.Correlation(t).p, table)
    chain = _validator_outcome(lambda t: _chain_check_entries(np.array(t, dtype=float)), table)
    assert batch[0] == single[0] == chain[0]
    if batch[0] == "ok":
        assert batch[1].tobytes() == single[1].tobytes() == chain[1].tobytes()
    else:
        assert batch[1] == single[1] == chain[1]


@settings(max_examples=100, deadline=None)
@given(_WRONG_SHAPES, _EDGE_ENTRIES | _UNIT)
def test_validators_reject_wrong_shapes_alike(shape, fill):
    """Any other shape is a ``DomainError`` for both, before any entry is read.

    The messages differ only in the shape each was handed: a batch names
    its leading axis, a table does not.
    """
    table = np.full(shape, fill)
    batch = _validator_outcome(lambda t: validate_tables(t[None]), table)
    single = _validator_outcome(sb.Correlation, table)
    assert batch[0] is single[0] is sb.DomainError
    assert batch[1].endswith(f"got {(1,) + shape}")
    assert single[1].endswith(f"got {shape}")


@given(st.sampled_from(["x", [[0.5, 0.5], [1.0]], {"p": 1}, [object()]]))
def test_validators_reject_non_numeric_input_alike(data):
    """Input that numpy cannot read as floats is a ``DomainError`` for both."""
    batch = _validator_outcome(lambda d: validate_tables([d]), data)
    single = _validator_outcome(sb.Correlation, data)
    assert batch[0] is single[0] is sb.DomainError


# A table with a -0.0 entry, and one whose entry in [-1e-9, 0) is clamped.
_SIGNED_ZERO = np.where(sb.pr_box().p == 0.0, -0.0, sb.pr_box().p)
_CLAMPED = np.full((2, 2, 2, 2), 0.25)
_CLAMPED[1, 0, 1, 0], _CLAMPED[1, 0, 1, 1] = -5e-10, 0.5 + 5e-10


@settings(max_examples=300, deadline=None)
@given(edited_tables())
@example(_SIGNED_ZERO)
@example(_CLAMPED)
def test_kept_entries_are_the_validated_table(table):
    """``Correlation(t)._entries`` holds the bits of ``p.reshape(16).tolist()``.

    An entry in ``[-1e-9, 0)`` reads ``0.0`` and ``-0.0`` is kept, in both.
    """
    try:
        corr = sb.Correlation(table)
    except sb.SignalBoxError:
        return
    clamped = [0.0 if -1e-9 <= v < 0.0 else v for v in np.asarray(table).reshape(16).tolist()]
    assert type(corr._entries) is tuple
    assert list(map(float.hex, corr._entries)) == list(map(float.hex, corr.p.reshape(16).tolist()))
    assert list(map(float.hex, corr._entries)) == list(map(float.hex, clamped))


def _frozen_record_classes():
    """Every class the package passes to ``_frozen_record``, read off its source."""
    classes = set()
    for info in pkgutil.iter_modules(sb.__path__, "signalbox."):
        module = importlib.import_module(info.name)
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_frozen_record":
                classes.add(getattr(module, node.args[0].id))
    return classes


def test_frozen_record_classes_store_only_their_init_arguments():
    """``_frozen_record`` skips ``__init__``, so it may only build classes whose
    generated ``__init__`` does nothing else: frozen dataclasses with no
    ``__post_init__``, no defaults, and no ``init=False`` or pseudo-fields."""
    classes = _frozen_record_classes()
    assert classes == {sb.ClassificationReport, sb.SweepRow}
    for cls in classes:
        assert cls.__dataclass_params__.frozen
        assert not hasattr(cls, "__post_init__")
        assert list(cls.__dataclass_fields__.values()) == list(dataclasses.fields(cls))
        for field in dataclasses.fields(cls):
            assert field.init
            assert field.default is dataclasses.MISSING
            assert field.default_factory is dataclasses.MISSING


_FIELD_VALUES = {"float": st.floats(), "bool": st.booleans(), "int": st.integers(0, 1), "str": st.text()}


def _records(cls):
    """``cls`` with two tuples of values for its fields, drawn by annotation."""
    values = st.tuples(*(_FIELD_VALUES[field.type] for field in dataclasses.fields(cls)))
    return st.tuples(st.just(cls), values, values)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([sb.ClassificationReport, sb.SweepRow]).flatmap(_records))
def test_frozen_record_is_the_generated_init(drawn):
    """``_frozen_record(cls, v)`` is ``cls(*v)``: equal, with the same hash,
    repr, ``astuple`` and ``replace``, and as frozen."""
    cls, values, others = drawn
    got, want = _frozen_record(cls, values), cls(*values)
    assert type(got) is cls
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    for field, other in zip(dataclasses.fields(cls), others):
        assert dataclasses.replace(got, **{field.name: other}) == dataclasses.replace(
            want, **{field.name: other}
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, field.name, other)
