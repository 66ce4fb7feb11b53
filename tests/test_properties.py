"""Properties of the signal-deficit verdict over generated tables."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import signalbox as sb

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
def test_verdict_bounds(batch, measure):
    """``0 <= eta <= c_lambda``, ``S <= C``, and capacity never beats the shift."""
    for report in sb.classify_batch(np.array(batch), measure):
        assert 0.0 <= report.eta <= report.disturbance
        assert report.signal <= report.cost
        assert report.signal_mutual_info <= report.signal_delta
