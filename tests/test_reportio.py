"""reportio.fmt_float gives the same string, and rejects the same values, as the
version that checked each float with np.isfinite. The fixture byte tests pin
`dumps` and `csv_rows`, which call it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcrb import errors, reportio


# The previous fmt_float, kept as the reference.
def _previous_fmt_float(x):
    x = float(x)
    if not np.isfinite(x):
        raise errors.NonFinite(f"cannot serialize non-finite value {x!r}")
    return "%.17g" % x


def _outcome(fn, x):
    """fn(x), or the type and message of what it raised."""
    try:
        return fn(x)
    except (errors.NonFinite, TypeError) as exc:
        return type(exc), str(exc)


FLOATS = st.floats()   # NaN and ±Inf included
VALUES = st.one_of(
    FLOATS, st.builds(np.float64, FLOATS), st.builds(np.float32, st.floats(width=32)),
    st.integers(-2**70, 2**70), st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.booleans(), st.builds(np.bool_, st.booleans()))


@settings(max_examples=500, deadline=None)
@given(VALUES)
def test_fmt_float_matches_the_previous_check(x):
    assert _outcome(reportio.fmt_float, x) == _outcome(_previous_fmt_float, x)


@pytest.mark.parametrize("x", [
    float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.float32("-inf"),
    np.float64(np.finfo(float).max), 5e-324, -0.0, 1j, 2.0 + 0j, "1.0", None])
def test_fmt_float_keeps_the_previous_verdict(x):
    assert _outcome(reportio.fmt_float, x) == _outcome(_previous_fmt_float, x)
