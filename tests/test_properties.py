"""Hypothesis properties of the Uglov order and the dotted notation."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from test_diagrams import compare_uglov_oracle  # noqa: E402
from uglov.diagrams import (  # noqa: E402
    Bipartition,
    compare_uglov,
    format_bipartition,
    parse_bipartition,
)

MAX_RANK = 20


@st.composite
def bipartitions(draw):
    """Bipartitions of rank at most MAX_RANK."""
    budget, comps = MAX_RANK, []
    for _ in range(2):
        parts = draw(st.lists(st.integers(1, MAX_RANK), max_size=MAX_RANK))
        lam = []
        for x in sorted(parts, reverse=True):
            if x <= budget:
                lam.append(x)
                budget -= x
        comps.append(tuple(lam))
    return Bipartition(*comps)


charges = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@given(bipartitions(), bipartitions(), charges)
def test_compare_uglov_matches_oracle(bp1, bp2, charge):
    assert compare_uglov(bp1, bp2, charge) \
        == compare_uglov_oracle(bp1, bp2, charge)


@given(bipartitions())
def test_parse_format_round_trip(bp):
    assert parse_bipartition(format_bipartition(bp)) == bp
