"""Bipartitions, extended Young diagrams, natures and the two orders.

A partition is stored as a weakly decreasing tuple of positive integers
(trailing zeros trimmed).  A node is a triple (a, b, c) with row a,
column b and component c in {1, 2}; the extended diagram additionally
contains the virtual row-0 nodes (0, b, c) with b > lambda^c_1 and the
virtual column-0 nodes (a, 0, c) with a > len(lambda^c).

The content of (a, b, c) under a charge (s1, s2) is b - a + s_c; the
residue is the content mod e (the content itself when e is None, which
stands for e = infinity throughout the package).

component_rim is the one row reader of addable and removable nodes: one
pass over the rows of a partition in one component at its charge lists
them in increasing node_key, each with its content.  A bipartition's rim
is the merge of its two component rims; keys are odd in component 1 and
even in component 2, so the merge compares keys only.  A walk does not
merge whole rims: crystal.RimTable interns each partition of the walk
once and keeps its component_rim in each component that holds it, with
the partition grown at each addable node (grow_partition, unchecked).
addable_nodes and removable_nodes are set views of rim.  Every child of
a bipartition is with_component(bp, c, lam plus the node); add_node
first looks the node up in addable_nodes, so the rim is its one test of
addability.  removable is the one row test of a removable node, behind
remove_node.

The vertical-boundary node (a, lambda^c_a, c) has content
lambda^c_a - a + s_c, a beta-number of lambda^c; with the virtual
column-0 nodes below the last row these contents are the beads, and
beta_set lists those of the rows.

A component's extended Young diagram is read once, as its core: the
natures at contents s - len(lambda) .. s + lambda_1, from nature_core.
The core depends on lambda alone; the charge places it at its floor
s - len(lambda).  Outside the core a component is constant: a run of
virtual Bv below it and a run of virtual Bh above it.  So a window of
any width is the core plus the two runs.  nature_entries places the
nodes of a window, and nature_table, the extended Young diagram over a
window, holds one nature_entries pass per component.  The sweeps
isomorphism.verify_psi_nature and admissible.propb_checks each read
their cores through one functools.cache of nature_core, so each
partition's core is built once per sweep, whatever its charges, and a
bipartition costs O(rank) contents at any charge.

boundary_sequence lists the beads in the window row by row.  Periods
(admissible.period) are runs of beads.  The Uglov order compares
boundary sequences, so it is the lexicographic order on the merged
beta-set {2 beta - c}, Uglov's level-two to level-one wedge, read from
the top: the integer order of the sets as bits, which bead_mask and
bead_shifts build for crystal.RimTable.bead_keys and compare_uglov.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple


class Node(NamedTuple):
    a: int
    b: int
    c: int


class Bipartition(NamedTuple):
    c1: tuple[int, ...]
    c2: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(self.c1) + sum(self.c2)

    def component(self, c: int) -> tuple[int, ...]:
        return self.c1 if c == 1 else self.c2


EMPTY = Bipartition((), ())

# nature kinds
A, R, BV, BH = "A", "R", "Bv", "Bh"
VERTICAL = (R, BV)  # the kinds of the vertical-boundary nodes


class NatureEntry(NamedTuple):
    kind: str
    node: Node
    virtual: bool


def make_partition(parts) -> tuple[int, ...]:
    """The partition of weakly decreasing nonnegative parts, trailing
    zeros trimmed; a zero before a positive part is an error."""
    parts = tuple(int(p) for p in parts)
    if any(p < 0 for p in parts):
        raise ValueError("negative part in %r" % (parts,))
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("parts not weakly decreasing: %r" % (parts,))
    return parts[:len(parts) - parts.count(0)]


def part(lam: tuple[int, ...], i: int) -> int:
    """i-th part of a partition, 1-based, zero beyond the length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n, each as a decreasing tuple."""
    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    yield from gen(n, n)


# ---------------------------------------------------------------------------
# contents, residues, node membership

def content(node: Node, charge: tuple[int, int]) -> int:
    return node.b - node.a + charge[node.c - 1]


def beta_set(lam: tuple[int, ...], s: int) -> list[int]:
    """The contents lam_a - a + s of the row-end nodes (a, lam_a) of a
    component of charge s, decreasing: its charged beta-set.

    Every content below s - len(lam) is a bead too: the virtual column-0
    nodes (a, 0) with a > len(lam), which the list leaves out.
    """
    return [x - a + s for a, x in enumerate(lam, 1)]


def component_rim(lam: tuple[int, ...], s: int, c: int) -> list[tuple]:
    """Every addable and every removable node of a partition lam in
    component c of charge s, as tuples (node_key, content, removable, a,
    b, c), increasing, from one pass over its rows; the one row reader of
    these nodes.

    Row 1 always takes the addable node (1, lam_1 + 1).  Below it, row a
    has a removable node exactly when lam_a > lam_{a+1} (lam_{a+1} = 0
    past the last row), and then row a + 1 has the addable node
    (a + 1, lam_{a+1} + 1), one content lam_{a+1} - a + s below.  So the
    pass meets the nodes in decreasing content, and the contents, so the
    keys, are distinct.
    """
    top = lam[0] if lam else 0
    out = [(2 * (top + s) - c, top + s, False, 1, top + 1, c)]
    for a, (x, below) in enumerate(zip(lam, lam[1:] + (0,)), 1):
        if x > below:
            cont = x - a + s
            out.append((2 * cont - c, cont, True, a, x, c))
            cont = below - a + s
            out.append((2 * cont - c, cont, False, a + 1, below + 1, c))
    out.reverse()
    return out


def rim(bp: Bipartition, charge: tuple[int, int]) -> list[tuple]:
    """Every addable and every removable node of bp, as tuples
    (node_key, content, removable, a, b, c), increasing: the merge of its
    two component_rim lists.  Keys are odd in component 1 and even in
    component 2, so they are unique and the sort never compares past
    them."""
    s1, s2 = charge
    out = component_rim(bp.c1, s1, 1) + component_rim(bp.c2, s2, 2)
    out.sort()
    return out


def removable_nodes(bp: Bipartition) -> set[Node]:
    return {Node(a, b, c) for _, _, rem, a, b, c in rim(bp, (0, 0)) if rem}


def addable_nodes(bp: Bipartition) -> set[Node]:
    return {Node(a, b, c) for _, _, rem, a, b, c in rim(bp, (0, 0))
            if not rem}


def grow_partition(lam: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """lam plus the node (a, b), which must be addable: no check."""
    return lam[:a - 1] + (b,) + lam[a:]


def with_component(bp: Bipartition, c: int,
                   lam: tuple[int, ...]) -> Bipartition:
    """bp with its component c replaced by lam."""
    return Bipartition(lam, bp.c2) if c == 1 else Bipartition(bp.c1, lam)


def add_node(bp: Bipartition, node: Node) -> Bipartition:
    if node not in addable_nodes(bp):
        raise ValueError("node %r not addable to %r" % (node, bp))
    a, b, c = node
    return with_component(bp, c, grow_partition(bp.component(c), a, b))


def removable(bp: Bipartition, node: Node) -> bool:
    """Whether node is a removable node of bp: one row test."""
    a, b, c = node
    lam = bp.c1 if c == 1 else bp.c2
    return 1 <= a <= len(lam) and lam[a - 1] == b > part(lam, a + 1)


def remove_node(bp: Bipartition, node: Node) -> Bipartition:
    if not removable(bp, node):
        raise ValueError("node %r not removable from %r" % (node, bp))
    a, b, c = node
    lam = bp.c1 if c == 1 else bp.c2
    # b == 1 only in the last row, which then disappears
    return with_component(bp, c, lam[:a - 1] + (b - 1,) + lam[a:] if b > 1
                          else lam[:a - 1])


# ---------------------------------------------------------------------------
# the order on nodes

def node_key(node: Node, charge: tuple[int, int]) -> int:
    """2 * content - c: orders nodes by content, and at equal content
    puts component 2 first."""
    return 2 * content(node, charge) - node.c


# ---------------------------------------------------------------------------
# natures

_KIND = ((BH, R), (A, BV))  # [bead at j - 1][bead at j]


def nature_core(lam: tuple[int, ...]) -> tuple[str, ...]:
    """The core of a component lam: its nature kinds at contents
    s - len(lam) .. s + lam_1 at any charge s, where its rows are.  The
    charge only slides the core along the contents, so its floor
    s - len(lam) places it.

    Below the core every content is a virtual Bv, above it a virtual Bh,
    and each end of the core is the addable node of the first column or
    of the first row.  One increasing pass over the core reads the beads
    at j and j - 1: R when only j is a bead, Bv when both are, A when
    only j - 1 is, Bh when neither is.  Inside the core no node is
    virtual.
    """
    on = [False] * (len(lam) + part(lam, 1) + 1)  # on[j - floor]: a bead?
    for a, x in enumerate(lam, 1):  # the bead x - a + s
        on[x - a + len(lam)] = True
    kinds, below = [], True
    for bead in on:
        kinds.append(_KIND[below][bead])
        below = bead
    return tuple(kinds)


def nature_entries(lam: tuple[int, ...], s: int, c: int, lo: int,
                   hi: int) -> list[NatureEntry]:
    """The addable-or-boundary nodes of contents lo..hi of component c of
    charge s, the one check for an empty window.

    Below the core the node at content j is the virtual column-0 node
    (s - j, 0, c), above it the virtual row-0 node (0, j - s, c).  In the
    core one increasing pass counts the beads at or below each content:
    the node at content j is in row len(lam) minus that count, plus one
    unless it is Bh.
    """
    if lo > hi:
        raise ValueError("empty window %r" % ((lo, hi),))
    floor = s - len(lam)
    core = nature_core(lam)
    out = [NatureEntry(BV, Node(s - j, 0, c), True)
           for j in range(lo, min(hi + 1, floor))]
    rows = len(lam)  # beads above the content read
    for j, kind in enumerate(core, floor):
        rows -= kind in VERTICAL
        if lo <= j <= hi:
            a = rows + (kind != BH)
            out.append(NatureEntry(kind, Node(a, j - s + a, c), False))
    out += [NatureEntry(BH, Node(0, j - s, c), True)
            for j in range(max(lo, floor + len(core)), hi + 1)]
    return out


def nature_at(bp: Bipartition, charge: tuple[int, int], j: int,
              c: int) -> NatureEntry:
    """The unique addable-or-boundary node of content j in component c."""
    return nature_entries(bp.component(c), charge[c - 1], c, j, j)[0]


def default_window(bp: Bipartition, charge) -> tuple[int, int]:
    """Contents min(charge) - n - 1 .. max(charge) + n + 1 at rank n: the
    contents of every node and addable node of bp, one more each side."""
    n = bp.rank
    return (min(charge) - n - 1, max(charge) + n + 1)


def nature_table(bp: Bipartition, charge: tuple[int, int],
                 window: tuple[int, int]) -> list[tuple[int, int, NatureEntry]]:
    """Slots (content, component, entry) listed in increasing node order;
    one nature_entries pass per component."""
    lo, hi = window
    rows = {c: nature_entries(bp.component(c), charge[c - 1], c, lo, hi)
            for c in (1, 2)}
    return [(k, c, rows[c][k - lo]) for k in range(lo, hi + 1)
            for c in (2, 1)]


# ---------------------------------------------------------------------------
# boundary sequence and the order on bipartitions

def boundary_sequence(bp: Bipartition, charge: tuple[int, int],
                      window: tuple[int, int]) -> list[Node]:
    """The beads with content in the window as vertical-boundary nodes,
    in decreasing node_key, read row by row: the row-end nodes
    (a, lam_a, c), then the virtual column-0 nodes (a, 0, c) of the rows
    a > len(lam) whose content s - a is in the window, so a far window
    costs no more than the rows of bp."""
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window %r" % ((lo, hi),))
    out = []
    for c, lam, s in ((1, bp.c1, charge[0]), (2, bp.c2, charge[1])):
        out += [Node(a, x, c) for a, x in enumerate(lam, 1)
                if lo <= x - a + s <= hi]
        out += [Node(a, 0, c)
                for a in range(max(len(lam) + 1, s - hi), s - lo + 1)]
    out.sort(key=lambda g: node_key(g, charge), reverse=True)
    return out


def bead_mask(lam: tuple[int, ...]) -> int:
    """The beta-numbers lam_a - a + len(lam) of lam's rows as the bits at
    twice each: its beads at any charge but the virtual column-0 ones,
    which never decide an order (rows 1..a-1 lie above (a, 0, c) in both)."""
    return sum(1 << 2 * (x - a + len(lam)) for a, x in enumerate(lam, 1))


def bead_shifts(charge: tuple[int, int], k: int) -> tuple[int, int]:
    """(t1, t2): bead_mask(lam) << t_c - 2 * len(lam) sets the node keys of
    lam's rows in component c, plus 2k + 2, at rank k or below; summed over
    both components, such ints compare as the boundary sequences do.  From
    a charge gap of k on, the top bead in only one upper component tops all
    lower ones, so the gap is clamped to k + 1: keys stay under 6k + 2 bits."""
    gap = max(-k - 1, min(k + 1, charge[0] - charge[1]))
    return 2 * max(gap, 0) + 2 * k + 1, 2 * max(-gap, 0) + 2 * k


def compare_uglov(bp1: Bipartition, bp2: Bipartition,
                  charge: tuple[int, int]) -> int:
    """-1, 0 or 1 for the Uglov order: bead keys at the larger rank."""
    shifts = bead_shifts(charge, max(bp1.rank, bp2.rank))
    k1, k2 = (sum(bead_mask(lam) << t - 2 * len(lam)
                  for lam, t in zip(bp, shifts)) for bp in (bp1, bp2))
    return (k1 > k2) - (k1 < k2)


# ---------------------------------------------------------------------------
# text notation and JSON encoding

def parse_bipartition(text: str) -> Bipartition:
    """Parse the dotted notation, e.g. "6.1,2.2" or "-,3.1"; a part is
    ASCII digits alone, not "1_0", "+1" or other digits int() reads."""
    pieces = text.strip().split(",")
    if len(pieces) != 2:
        raise ValueError("expected two comma-separated components: %r" % text)

    def comp(piece):
        piece = piece.strip()
        if piece in ("-", ""):
            return ()
        parts = piece.split(".")
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError("parts must be ASCII digits: %r" % text)
        return make_partition(map(int, parts))

    return Bipartition(comp(pieces[0]), comp(pieces[1]))


def format_bipartition(bp: Bipartition) -> str:
    def comp(lam):
        return ".".join(str(p) for p in lam) if lam else "-"

    return "%s,%s" % (comp(bp.c1), comp(bp.c2))


def bipartition_to_json(bp: Bipartition) -> dict:
    return {"c1": list(bp.c1), "c2": list(bp.c2)}


def render_nature_table(label: str, slots: list) -> str:
    """Aligned text rendering of the slot list from nature_table: Component
    row, Content row and the nature row named label, virtual nodes
    starred."""
    rows = [("Component", [str(c) for (_, c, _) in slots]),
            ("Content", [str(j) for (j, _, _) in slots]),
            (label, [entry.kind + ("*" if entry.virtual else "")
                     for (_, _, entry) in slots])]
    name_w = max(len(name) for name, _ in rows)
    col_w = [max(map(len, col)) for col in zip(*(cells for _, cells in rows))]
    return "\n".join(
        "%s | %s" % (name.ljust(name_w),
                     " ".join(c.rjust(w) for c, w in zip(cells, col_w)))
        for name, cells in rows)
