"""Hypothesis properties of the Uglov order, natures, the signature scan,
the charge-change isomorphism and the dotted notation."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from test_crystal import normal_pair_oracle  # noqa: E402
from test_diagrams import (  # noqa: E402
    compare_uglov_oracle,
    nature_at_oracle,
    nature_kinds,
)
from uglov.crystal import (  # noqa: E402
    CrystalParams,
    good_addable_node,
    is_uglov,
    signature_word,
)
from uglov.diagrams import (  # noqa: E402
    EMPTY,
    Bipartition,
    add_node,
    addable_nodes,
    compare_uglov,
    format_bipartition,
    nature_at,
    parse_bipartition,
    removable_nodes,
    residue,
)
from uglov.isomorphism import psi_to  # noqa: E402

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
# gaps s2 - s1 up to 50 either way: past the bead keys' clamp of k + 1
# contents at every rank up to MAX_RANK, and across it
gapped_charges = st.builds(lambda s1, gap: (s1, s1 + gap),
                           st.integers(-6, 6), st.integers(-50, 50))


@given(bipartitions(), bipartitions(), gapped_charges)
def test_compare_uglov_matches_oracle(bp1, bp2, charge):
    assert compare_uglov(bp1, bp2, charge) \
        == compare_uglov_oracle(bp1, bp2, charge)


@given(bipartitions())
def test_parse_format_round_trip(bp):
    assert parse_bipartition(format_bipartition(bp)) == bp


@given(bipartitions(), charges)
def test_nature_at_matches_oracle(bp, charge):
    n = bp.rank
    lo, hi = min(charge) - n - 4, max(charge) + n + 3
    for c in (1, 2):
        kinds = []
        for j in range(lo, hi + 1):
            entry = nature_at_oracle(bp, charge, j, c)
            assert nature_at(bp, charge, j, c) == entry
            kinds.append(entry.kind)
        assert nature_kinds(bp.component(c), charge[c - 1], lo, hi) \
            == tuple(kinds)


@given(bipartitions(), charges, st.sampled_from([2, 3, 4, None]))
def test_signature_word_matches_oracle(bp, charge, e):
    p = CrystalParams(e, charge)
    sig = signature_word(bp, p)
    nodes = addable_nodes(bp) | removable_nodes(bp)
    assert set(sig) == {residue(g, charge, e) for g in nodes}
    for j, pair in sig.items():
        assert pair == normal_pair_oracle(bp, j, p)


@st.composite
def uglov_instances(draw):
    """(bp, e, s, t): bp is built by good additions along a drawn residue
    word at charge s, so it is Uglov there; t is the swap of s or, for
    finite e, s shifted by e in one component."""
    e = draw(st.sampled_from([2, 3, 4, None]))
    s = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    p = CrystalParams(e, s)
    bp = EMPTY
    for _ in range(draw(st.integers(0, MAX_RANK))):
        # each letter is drawn among the residues with a good addable node
        nodes = {residue(g, s, e): good_addable_node(bp, residue(g, s, e), p)
                 for g in addable_nodes(bp)}
        j = draw(st.sampled_from(sorted(j for j in nodes if nodes[j])))
        bp = add_node(bp, nodes[j])
    moves = [(s[1], s[0])]
    if e is not None:
        moves += [(s[0] + e, s[1]), (s[0], s[1] + e),
                  (s[0] - e, s[1]), (s[0], s[1] - e)]
    return bp, e, s, draw(st.sampled_from(moves))


@given(uglov_instances())
def test_psi_round_trip(instance):
    bp, e, s, t = instance
    image = psi_to(bp, s, t, e)
    assert is_uglov(image, CrystalParams(e, t))
    assert image.rank == bp.rank
    assert psi_to(image, t, s, e) == bp
