"""Unit tests for bipartitions, extended diagrams, natures and orders."""

import itertools
import json
from functools import cmp_to_key

import pytest

from uglov.crystal import CrystalParams, RimTable
from uglov.diagrams import (
    EMPTY,
    Bipartition,
    Node,
    NatureEntry,
    add_node,
    addable_nodes,
    beta_set,
    bead_mask,
    bead_shifts,
    bipartition_to_json,
    boundary_sequence,
    compare_uglov,
    content,
    default_window,
    format_bipartition,
    grow_partition,
    make_partition,
    nature_at,
    nature_core,
    nature_entries,
    nature_table,
    node_key,
    parse_bipartition,
    part,
    partitions_of,
    removable,
    remove_node,
    removable_nodes,
    residue,
    rim,
    with_component,
)

P = parse_bipartition

# nature at content j -> allowed natures at content j+1, same component
NATURE_TRANSITIONS = {
    "A": {"Bh", "R"},
    "R": {"Bv", "A"},
    "Bv": {"Bv", "A"},
    "Bh": {"Bh", "R"},
}


def nature_kinds(lam, s, lo, hi):
    """The nature kinds at contents lo..hi of a component of charge s,
    from nature_entries: its core with the two constant runs around it."""
    if lo > hi:
        return ()
    return tuple(ent.kind for ent in nature_entries(lam, s, 1, lo, hi))


def bipartitions_of(n):
    """Oracle: all bipartitions of rank n, by the size of the first
    component, each size's partitions built once."""
    parts = [list(partitions_of(k)) for k in range(n + 1)]
    return [Bipartition(p1, p2) for k in range(n + 1) for p1 in parts[k]
            for p2 in parts[n - k]]


def uglov_key(bp, charge):
    """Oracle: the node_key values of the row-end vertical-boundary nodes
    of both components, decreasing, 2 * beta_set - c over both merged.

    As tuples, keys compare as the boundary sequences do.  Those sequences
    go on with the virtual column-0 nodes (a, 0, c) below each component's
    last row, which the key leaves out.  They never decide a comparison:
    if the largest node in only one of two sequences were (a, 0, c), both
    sequences would hold rows 1..a-1 of component c above it, and the
    other's row-a node, of content at least that of (a, 0, c), would be
    above it too.
    """
    s1, s2 = charge
    out = [2 * (x - a + s1) - 1 for a, x in enumerate(bp.c1, 1)]
    out += [2 * (x - a + s2) - 2 for a, x in enumerate(bp.c2, 1)]
    out.sort(reverse=True)
    return tuple(out)


def uglov_max(bps, charge):
    """Oracle: the largest of bps in the Uglov order."""
    return max(bps, key=lambda bp: uglov_key(bp, charge))


def compare_lex(bp1, bp2):
    """Lexicographic comparison on the first then second component: the
    Uglov order at asymptotic charges."""
    if bp1 == bp2:
        return 0
    return -1 if (bp1.c1, bp1.c2) < (bp2.c1, bp2.c2) else 1


def _vertical_rows(bp, rows):
    """Row-end nodes (a, lambda^c_a, c) of rows 1..rows, column 0 past
    the last row."""
    return [Node(a, part(bp.component(c), a), c)
            for c in (1, 2) for a in range(1, rows + 1)]


def _boundary_sequence_oracle(bp, charge, window):
    """boundary_sequence content by content: in each component, the
    row-end node of content j, or past the last row the column-0 node
    (s - j, 0), so a window far from the charge costs its width only."""
    lo, hi = window
    nodes = []
    for c in (1, 2):
        lam, s = bp.component(c), charge[c - 1]
        ends = {content(g, charge): g
                for g in (Node(a, x, c) for a, x in enumerate(lam, 1))}
        for j in range(lo, hi + 1):
            if j in ends:
                nodes.append(ends[j])
            elif s - j > len(lam):
                nodes.append(Node(s - j, 0, c))
    return sorted(nodes, key=lambda g: node_key(g, charge), reverse=True)


def nature_at_oracle(bp, charge, j, c):
    """nature_at from the diagram: mark the addable, vertical-boundary and
    horizontal-boundary nodes of content j and require exactly one."""
    lam = bp.component(c)
    d = j - charge[c - 1]  # b - a along the diagonal of content j
    found = {}

    def mark(node, flag):
        found.setdefault(node, set()).add(flag)

    for a in range(1, len(lam) + 2):
        here, above = part(lam, a), part(lam, a - 1) if a > 1 else None
        if (above is None or here < above) and (here + 1) - a == d:
            mark(Node(a, here + 1, c), "add")
    # vertical boundary: one node per row, (a, lam_a, c)
    for a in range(1, len(lam) + 1):
        if lam[a - 1] - a == d:
            mark(Node(a, lam[a - 1], c), "vert")
    if -d > len(lam):
        mark(Node(-d, 0, c), "vert")
    # horizontal boundary: row a holds columns (lam_{a+1}, lam_a]
    for a in range(1, len(lam) + 1):
        b = d + a
        if part(lam, a + 1) < b <= lam[a - 1]:
            mark(Node(a, b, c), "horiz")
    if d >= 1 and d > part(lam, 1):
        mark(Node(0, d, c), "horiz")

    if len(found) != 1:
        raise AssertionError(
            "slot (content=%d, c=%d) of %r has %d candidates: %r"
            % (j, c, bp, len(found), found))
    node, flags = next(iter(found.items()))
    if "add" in flags:
        kind = "A"
    elif flags >= {"vert", "horiz"}:
        kind = "R"
    elif "vert" in flags:
        kind = "Bv"
    else:
        kind = "Bh"
    virtual = kind != "A" and (node.a == 0 or node.b == 0)
    return NatureEntry(kind, node, virtual)


def compare_uglov_oracle(bp1, bp2, charge):
    """The boundary-sequence comparison node by node: both sequences are
    truncated past every shape-dependent row and sorted by the node order
    (content, then component 2 first)."""
    if bp1 == bp2:
        return 0
    n = max(bp1.rank, bp2.rank)
    rows = max(len(bp1.c1), len(bp1.c2), len(bp2.c1), len(bp2.c2),
               abs(charge[0] - charge[1]) + n + 2)
    key = lambda g: (content(g, charge), -g.c)
    seq1 = sorted(_vertical_rows(bp1, rows), key=key, reverse=True)
    seq2 = sorted(_vertical_rows(bp2, rows), key=key, reverse=True)
    for g1, g2 in zip(seq1, seq2):
        if g1 != g2:
            return -1 if key(g1) < key(g2) else 1
    raise AssertionError("equal boundary sequences: %r, %r" % (bp1, bp2))


def is_extended_node(bp, node):
    """node is a node of the extended Young diagram of bp: a node of the
    diagram, a virtual row-0 node or a virtual column-0 node."""
    a, b, c = node
    if c not in (1, 2) or a < 0 or b < 0:
        return False
    lam = bp.component(c)
    if a >= 1 and b >= 1:
        return a <= len(lam) and b <= lam[a - 1]
    if a == 0:
        return b > part(lam, 1)
    if b == 0:
        return a > len(lam)
    return False


def orders_agree_asymptotic(n, charge):
    """With s1 - s2 > n - 1 both orders coincide on rank n."""
    s1, s2 = charge
    if s1 - s2 <= n - 1:
        raise ValueError("requires s1 - s2 > n - 1, got %r" % (charge,))
    bps = bipartitions_of(n)
    return all(compare_uglov(x, y, charge) == compare_lex(x, y)
               for x, y in itertools.combinations(bps, 2))


def bipartition_from_json(obj):
    return Bipartition(make_partition(obj["c1"]), make_partition(obj["c2"]))


def _bipartitions_up_to(n):
    return [bp for k in range(n + 1) for bp in bipartitions_of(k)]


# Reference node primitives, row by row through part() and
# make_partition, to check the one-pass and slicing versions against.

def _removable_nodes_ref(bp):
    out = set()
    for c in (1, 2):
        lam = bp.component(c)
        for a in range(1, len(lam) + 1):
            if lam[a - 1] > part(lam, a + 1):
                out.add(Node(a, lam[a - 1], c))
    return out


def _addable_nodes_ref(bp):
    out = set()
    for c in (1, 2):
        lam = bp.component(c)
        for a in range(1, len(lam) + 2):
            here, above = part(lam, a), part(lam, a - 1) if a > 1 else None
            if above is None or here < above:
                out.add(Node(a, here + 1, c))
    return out


def _add_node_ref(bp, node):
    a, b, c = node
    lam = list(bp.component(c)) + [0]
    if (not 1 <= a <= len(lam)) or lam[a - 1] + 1 != b \
            or (a > 1 and lam[a - 2] < b):
        raise ValueError("node %r not addable to %r" % (node, bp))
    lam[a - 1] += 1
    new = make_partition(lam)
    return Bipartition(new, bp.c2) if c == 1 else Bipartition(bp.c1, new)


def _remove_node_ref(bp, node):
    a, b, c = node
    lam = list(bp.component(c))
    if (not 1 <= a <= len(lam)) or lam[a - 1] != b \
            or part(lam, a + 1) >= b:
        raise ValueError("node %r not removable from %r" % (node, bp))
    lam[a - 1] -= 1
    new = make_partition(lam)
    return Bipartition(new, bp.c2) if c == 1 else Bipartition(bp.c1, new)


def _outcome(fn, bp, node):
    try:
        return fn(bp, node)
    except ValueError:
        return ValueError


def test_make_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        make_partition((1, 2))
    with pytest.raises(ValueError):
        make_partition((-1,))
    assert make_partition((3, 2, 0, 0)) == (3, 2)
    assert make_partition((0,)) == ()
    # a zero before a positive part is not trimmed away
    for parts in ((0, 1), (2, 0, 1), (1, 0, 0, 1)):
        with pytest.raises(ValueError):
            make_partition(parts)
    with pytest.raises(ValueError):
        parse_bipartition("0.1,1")


def test_part_indexing():
    lam = (5, 3, 1)
    assert [part(lam, i) for i in range(1, 6)] == [5, 3, 1, 0, 0]


def test_partition_counts():
    # partition numbers p(0)..p(8)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        assert len(list(partitions_of(n))) == count
    for n in range(6):
        total = sum(len(list(partitions_of(k)))
                    * len(list(partitions_of(n - k))) for k in range(n + 1))
        assert len(bipartitions_of(n)) == total


def test_content_and_residue():
    assert content(Node(2, 3, 1), (0, 1)) == 1
    assert content(Node(5, 1, 2), (0, 2)) == -2
    assert residue(Node(2, 3, 1), (0, 1), 3) == 1
    assert residue(Node(5, 1, 2), (0, 2), 3) == 1
    assert residue(Node(5, 1, 2), (0, 2), None) == -2


def test_is_extended_node():
    bp = P("3.3.1,2.1")
    assert is_extended_node(bp, Node(2, 2, 1))
    assert is_extended_node(bp, Node(0, 4, 1))  # virtual row 0, b > 3
    assert not is_extended_node(bp, Node(0, 2, 1))  # b <= first part
    assert is_extended_node(bp, Node(4, 0, 1))  # virtual column 0, a > 3
    assert not is_extended_node(bp, Node(3, 0, 1))
    assert not is_extended_node(bp, Node(1, 1, 3))


def test_removable_nodes_examples():
    assert removable_nodes(P("3.3.1,2.1")) == {
        Node(2, 3, 1), Node(3, 1, 1), Node(1, 2, 2), Node(2, 1, 2)}
    assert removable_nodes(P("3.1.1,3.2.2.1.1")) == {
        Node(1, 3, 1), Node(3, 1, 1),
        Node(1, 3, 2), Node(3, 2, 2), Node(5, 1, 2)}
    assert removable_nodes(EMPTY) == set()


def test_addable_nodes_examples():
    assert addable_nodes(EMPTY) == {Node(1, 1, 1), Node(1, 1, 2)}
    assert addable_nodes(P("3.3.1,2.1")) == {
        Node(1, 4, 1), Node(3, 2, 1), Node(4, 1, 1),
        Node(1, 3, 2), Node(2, 2, 2), Node(3, 1, 2)}
    assert addable_nodes(P("1,-")) == {
        Node(1, 2, 1), Node(2, 1, 1), Node(1, 1, 2)}


def test_add_remove_round_trip_exhaustive():
    # Oracle: mu covers bp iff the shapes agree except one part larger by 1.
    for n in range(5):
        for bp in bipartitions_of(n):
            for g in addable_nodes(bp):
                mu = add_node(bp, g)
                assert mu.rank == bp.rank + 1
                assert g in removable_nodes(mu)
                assert remove_node(mu, g) == bp
            for g in removable_nodes(bp):
                nu = remove_node(bp, g)
                assert add_node(nu, g) == bp
            covers = {add_node(bp, g) for g in addable_nodes(bp)}
            brute = {mu for mu in bipartitions_of(n + 1)
                     if all(part(mu.component(c), i) >= part(bp.component(c), i)
                            for c in (1, 2) for i in range(1, n + 2))}
            assert covers == brute


def test_add_remove_preconditions():
    bp = P("2.1,-")
    with pytest.raises(ValueError):
        add_node(bp, Node(1, 2, 1))  # column already filled
    with pytest.raises(ValueError):
        add_node(bp, Node(2, 3, 1))  # would break monotonicity
    with pytest.raises(ValueError):
        add_node(EMPTY, Node(1, 1, 3))  # no component 3
    with pytest.raises(ValueError):
        remove_node(bp, Node(1, 1, 1))  # not the row end
    with pytest.raises(ValueError):
        remove_node(bp, Node(1, 1, 2))  # empty component


def test_node_order():
    charge = (0, 1)
    # smaller content first; equal content puts component 2 first
    assert node_key(Node(1, 1, 1), charge) < node_key(Node(1, 2, 1), charge)
    # contents 1 = 1
    assert node_key(Node(1, 1, 2), charge) < node_key(Node(1, 2, 1), charge)


def test_nature_at_examples():
    bp = P("3.3.1,2.1")
    charge = (0, 0)
    ent = nature_at(bp, charge, -1, 1)
    assert (ent.kind, ent.node, ent.virtual) == ("A", Node(3, 2, 1), False)
    ent = nature_at(bp, charge, 1, 2)
    assert (ent.kind, ent.node, ent.virtual) == ("R", Node(1, 2, 2), False)
    ent = nature_at(bp, charge, -4, 1)
    assert (ent.kind, ent.node, ent.virtual) == ("Bv", Node(4, 0, 1), True)


def test_beta_set_examples():
    assert beta_set((3, 3, 1), 0) == [2, 1, -2]
    assert beta_set((6, 1), 1) == [6, 0]
    assert beta_set((), 5) == []


# every bipartition of rank <= 8 at these charges, for contents
# min(s) - n - 4 .. max(s) + n + 3 in both components
NATURE_GRID_CHARGES = [(0, 0), (0, 1), (1, 0), (-2, 3), (5, 0), (0, 2),
                       (2, -1)]


@pytest.mark.parametrize("charge", NATURE_GRID_CHARGES)
def test_nature_at_matches_oracle(charge):
    for bp in _bipartitions_up_to(8):
        n = bp.rank
        for j in range(min(charge) - n - 4, max(charge) + n + 4):
            for c in (1, 2):
                assert (nature_at(bp, charge, j, c)
                        == nature_at_oracle(bp, charge, j, c))


@pytest.mark.parametrize("charge", NATURE_GRID_CHARGES)
def test_nature_kinds_matches_oracle(charge):
    # the full window reaches below every row and above every bead; the
    # other windows start or end at the floor of the beads or the top bead
    for bp in _bipartitions_up_to(8):
        n = bp.rank
        lo, hi = min(charge) - n - 4, max(charge) + n + 3
        for c in (1, 2):
            lam, s = bp.component(c), charge[c - 1]
            kinds = [nature_at_oracle(bp, charge, j, c).kind
                     for j in range(lo, hi + 1)]
            floor, top = s - len(lam), s + part(lam, 1) - 1
            # the core of lam, whatever the charge, placed at its floor
            assert nature_core(lam) == tuple(
                kinds[floor - lo:top + 2 - lo])
            for w_lo, w_hi in ((lo, hi), (lo, floor - 1), (floor, hi),
                               (lo, top), (top + 1, hi), (floor, top)):
                assert (nature_kinds(lam, s, w_lo, w_hi)
                        == tuple(kinds[w_lo - lo:w_hi - lo + 1]))


@pytest.mark.parametrize("charge", [(0, 0), (0, 1), (1, 0), (-2, 3),
                                    (5, 0), (2, -1), (0, 1000), (11, 0)])
def test_boundary_sequence_matches_oracle(charge):
    # the windows 10**9 below and above the charge are the two edges of
    # the virtual rows read: rows from s - hi on, and none at all
    s_lo, s_hi = min(charge), max(charge)
    far = 10 ** 9
    for bp in _bipartitions_up_to(8):
        n = bp.rank
        windows = [(s_lo - n - 1, s_hi + n + 1),  # the default window
                   (s_lo - n - 4, s_lo - n - 2),  # below every row
                   (s_lo - 2, s_hi + 2), (s_hi, s_hi), (s_hi + n + 1,
                                                          s_hi + n + 3),
                   (s_lo - far - 3, s_lo - far + 3),
                   (s_hi + far - 3, s_hi + far + 3)]
        for window in windows:
            assert (boundary_sequence(bp, charge, window)
                    == _boundary_sequence_oracle(bp, charge, window))


@pytest.mark.parametrize("charge", [(0, 0), (0, 1), (-2, 3), (5, 0)])
def test_nature_table_matches_oracle(charge):
    # windows cut inside the diagram start the row count of
    # nature_entries at the beads above hi, not at zero
    s_lo, s_hi = min(charge), max(charge)
    for bp in _bipartitions_up_to(6):
        n = bp.rank
        for lo, hi in (default_window(bp, charge), (s_lo - 1, s_hi + 1),
                       (s_lo, s_lo), (s_lo - n // 2, s_hi),
                       (s_hi, s_hi + n // 2), (s_lo + 1, s_hi + n + 1)):
            assert nature_table(bp, charge, (lo, hi)) == [
                (j, c, nature_at_oracle(bp, charge, j, c))
                for j in range(lo, hi + 1) for c in (2, 1)]


def test_nature_table_empty_bipartition():
    table = nature_table(EMPTY, (0, 0), (-2, 2))
    for j, c, ent in table:
        if j == 0:
            assert ent.kind == "A" and ent.node == Node(1, 1, c)
        elif j < 0:
            assert ent.kind == "Bv" and ent.virtual
        else:
            assert ent.kind == "Bh" and ent.virtual


def test_nature_consistency_exhaustive():
    # A slots are exactly the addable nodes; R slots exactly the removable.
    for n in range(5):
        for bp in bipartitions_of(n):
            for charge in ((0, 0), (0, 1), (-2, 1)):
                seen_a, seen_r = set(), set()
                for j in range(min(charge) - n - 2, max(charge) + n + 3):
                    for c in (1, 2):
                        ent = nature_at(bp, charge, j, c)
                        assert ent.node.c == c
                        assert content(ent.node, charge) == j
                        if ent.kind == "A":
                            seen_a.add(ent.node)
                        elif ent.kind == "R":
                            seen_r.add(ent.node)
                        else:
                            assert is_extended_node(bp, ent.node)
                assert seen_a == addable_nodes(bp)
                assert seen_r == removable_nodes(bp)


def test_nature_transition_table_small():
    for n in range(5):
        for bp in bipartitions_of(n):
            for charge in ((0, 0), (0, 1), (3, 0)):
                lo, hi = min(charge) - n - 2, max(charge) + n + 2
                for c in (1, 2):
                    kinds = [nature_at(bp, charge, j, c).kind
                             for j in range(lo, hi + 1)]
                    for k1, k2 in zip(kinds, kinds[1:]):
                        assert k2 in NATURE_TRANSITIONS[k1]


def test_boundary_sequence_empty():
    seq = boundary_sequence(EMPTY, (0, 0), (-4, -1))
    assert seq == [Node(1, 0, 1), Node(1, 0, 2),
                   Node(2, 0, 1), Node(2, 0, 2),
                   Node(3, 0, 1), Node(3, 0, 2),
                   Node(4, 0, 1), Node(4, 0, 2)]


def test_empty_window_raises():
    # boundary_sequence and nature_table (through nature_entries) each
    # check their window, so both refuse lo > hi
    for read in (nature_table, boundary_sequence):
        with pytest.raises(ValueError, match="empty window"):
            read(P("2.1,1"), (0, 1), (1, 0))


def test_boundary_sequence_leading_entries():
    # Vertical-boundary slots of (6.1,2.2) at (0,1) in decreasing order.
    seq = boundary_sequence(P("6.1,2.2"), (0, 1), (-3, 5))
    assert seq == [Node(1, 6, 1), Node(1, 2, 2), Node(2, 2, 2),
                   Node(2, 1, 1), Node(3, 0, 2), Node(3, 0, 1),
                   Node(4, 0, 2)]


def test_bead_mask_examples():
    # beta-numbers lam_a - a + len(lam), at twice each
    assert bead_mask((3, 3, 1)) == 1 << 10 | 1 << 8 | 1 << 2
    assert bead_mask((6, 1)) == 1 << 14 | 1 << 2
    assert bead_mask(()) == 0


@pytest.mark.parametrize("charge", [(0, 0), (0, 1), (1, 0), (2, -1),
                                    (-3, 4)])
def test_bead_shifts_place_the_masks_on_the_node_keys(charge):
    # Where the gap is within the clamp, k + 1 >= |s1 - s2|, the bits of a
    # bead key at rank k >= bp.rank are bp's uglov_key entries, moved by
    # 2k + 2 and by the charge's smaller entry to 0.
    low, gap = min(charge), abs(charge[0] - charge[1])
    for bp in _bipartitions_up_to(7):
        for k in range(max(bp.rank, gap - 1), 9):
            key = sum(bead_mask(lam) << t - 2 * len(lam)
                      for lam, t in zip(bp, bead_shifts(charge, k)))
            bits = {i for i in range(key.bit_length()) if key >> i & 1}
            assert bits == {x - 2 * low + 2 * k + 2
                            for x in uglov_key(bp, charge)}, (bp, k)


def test_compare_uglov_examples():
    assert compare_uglov(P("6.1,2.2"), P("6.3,2"), (0, 1)) == -1
    assert compare_uglov(P("6.3,2"), P("6.1,2.2"), (0, 1)) == 1
    assert compare_uglov(P("1,1"), P("2,-"), (0, 1)) == -1
    assert compare_uglov(EMPTY, EMPTY, (0, 1)) == 0


def test_node_primitives_match_reference():
    for bp in _bipartitions_up_to(8):
        assert removable_nodes(bp) == _removable_nodes_ref(bp)
        assert addable_nodes(bp) == _addable_nodes_ref(bp)
        # every node near the diagram, valid or not
        rows = max(len(bp.c1), len(bp.c2)) + 2
        cols = max(bp.c1[:1] + bp.c2[:1] + (0,)) + 2
        for node in itertools.product(range(rows + 1), range(cols + 1),
                                      (1, 2)):
            node = Node(*node)
            assert removable(bp, node) == (node in _removable_nodes_ref(bp))
            assert (_outcome(add_node, bp, node)
                    == _outcome(_add_node_ref, bp, node))
            assert (_outcome(remove_node, bp, node)
                    == _outcome(_remove_node_ref, bp, node))


def test_rim_matches_reference():
    # The one-pass kernel against the row-by-row references, at every
    # charge of the signature-scan grid: the same nodes, each with its
    # node_key and content, keys unique, and a child grown from an addable
    # node it lists, as crystal.RimTable.read grows it, is add_node's.
    from test_crystal import SCAN_GRID
    charges = sorted({p.charge for p in SCAN_GRID})
    for bp in _bipartitions_up_to(8):
        for charge in charges:
            entries = rim(bp, charge)
            nodes = {tag: {Node(a, b, c)
                           for _, _, rem, a, b, c in entries if rem == tag}
                     for tag in (False, True)}
            assert nodes[False] == _addable_nodes_ref(bp)
            assert nodes[True] == _removable_nodes_ref(bp)
            assert len(entries) == len(nodes[False]) + len(nodes[True])
            for key, cont, _, a, b, c in entries:
                assert key == node_key(Node(a, b, c), charge)
                assert cont == content(Node(a, b, c), charge)
            assert len({entry[0] for entry in entries}) == len(entries)
        for a, b, c in _addable_nodes_ref(bp):
            grown = grow_partition(bp.component(c), a, b)
            assert (with_component(bp, c, grown)
                    == _add_node_ref(bp, Node(a, b, c)))


@pytest.mark.parametrize("charge", [(0, 0), (0, 1), (1, 0), (0, 2),
                                    (2, -1), (5, 0)])
def test_uglov_key_matches_boundary_sequence_oracle(charge):
    bps = _bipartitions_up_to(8)
    expected = sorted(bps, key=cmp_to_key(
        lambda x, y: compare_uglov_oracle(x, y, charge)))
    assert sorted(bps, key=lambda bp: uglov_key(bp, charge)) == expected
    assert uglov_max(bps, charge) == expected[-1]
    for x, y in zip(expected, expected[1:]):
        assert compare_uglov(x, y, charge) == -1
        assert compare_uglov(y, x, charge) == 1


def test_compare_uglov_total_order():
    bps = bipartitions_of(4)
    charge = (0, 1)
    for x, y in itertools.combinations(bps, 2):
        cxy = compare_uglov(x, y, charge)
        assert cxy in (-1, 1)
        assert compare_uglov(y, x, charge) == -cxy
    for x, y, z in itertools.permutations(bps[:8], 3):
        if (compare_uglov(x, y, charge) < 0
                and compare_uglov(y, z, charge) < 0):
            assert compare_uglov(x, z, charge) < 0


def test_orders_agree_asymptotic():
    assert orders_agree_asymptotic(1, (1, 0))
    assert orders_agree_asymptotic(4, (5, 0))
    assert orders_agree_asymptotic(5, (10, 0))
    with pytest.raises(ValueError):
        orders_agree_asymptotic(4, (3, 0))


def test_compare_lex():
    assert compare_lex(P("2,-"), P("1.1,-")) == 1
    assert compare_lex(P("1,1"), P("2,-")) == -1
    assert compare_lex(EMPTY, EMPTY) == 0


def test_parse_format_round_trip():
    for text in ("6.1,2.2", "-,-", "3.3.1,2.1", "-,1", "10.2,-"):
        assert format_bipartition(parse_bipartition(text)) == text
    with pytest.raises(ValueError):
        parse_bipartition("1.2,3")  # not weakly decreasing
    with pytest.raises(ValueError):
        parse_bipartition("1,2,3")
    for text in ("1_0,2", "+1,2", "\u0661,2", "1. 2,-"):
        with pytest.raises(ValueError, match="ASCII digits"):
            parse_bipartition(text)  # int() reads each of these parts


def test_json_round_trip():
    for n in range(4):
        for bp in bipartitions_of(n):
            assert bipartition_from_json(bipartition_to_json(bp)) == bp


def test_json_text_is_json_dumps():
    # rank 12 gives two-digit parts
    table = RimTable(CrystalParams(3, (0, 1)))
    for n in list(range(7)) + [12]:
        for bp in bipartitions_of(n):
            pair = table.intern(bp.c1), table.intern(bp.c2)
            assert (table.json(pair)
                    == json.dumps(bipartition_to_json(bp), sort_keys=True))
