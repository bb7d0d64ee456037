"""Bipartitions, extended Young diagrams, natures and the two orders.

A partition is stored as a weakly decreasing tuple of positive integers
(trailing zeros trimmed).  A node is a triple (a, b, c) with row a,
column b and component c in {1, 2}; the extended diagram additionally
contains the virtual row-0 nodes (0, b, c) with b > lambda^c_1 and the
virtual column-0 nodes (a, 0, c) with a > len(lambda^c).

The content of (a, b, c) under a charge (s1, s2) is b - a + s_c; the
residue is the content mod e (the content itself when e is None, which
stands for e = infinity throughout the package).

The vertical-boundary node (a, lambda^c_a, c) has content
lambda^c_a - a + s_c, a beta-number of lambda^c.  beta_set lists these
contents for one component; with the tail of beads below its last row it
is the one reading of the boundary.  Natures (nature_kinds, and
nature_at on top of it), boundary sequences and periods
(admissible.has_period) are read from it.  The Uglov order compares
boundary sequences, so it is the lexicographic order on the merged
beta-set {2 beta - c}, Uglov's level-two to level-one wedge, which
uglov_key builds as a decreasing tuple of integers.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional


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


class NatureEntry(NamedTuple):
    kind: str
    node: Node
    virtual: bool


def make_partition(parts) -> tuple[int, ...]:
    parts = tuple(int(p) for p in parts if p != 0)
    if any(p < 0 for p in parts):
        raise ValueError("negative part in %r" % (parts,))
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("parts not weakly decreasing: %r" % (parts,))
    return parts


def part(lam: tuple[int, ...], i: int) -> int:
    """i-th part of a partition, 1-based, zero beyond the length."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def partitions_of(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n, each as a decreasing tuple."""
    if n == 0:
        yield ()
        return

    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    yield from gen(n, n)


def bipartitions_of(n: int) -> list[Bipartition]:
    out = []
    for k in range(n + 1):
        for p1 in partitions_of(k):
            for p2 in partitions_of(n - k):
                out.append(Bipartition(p1, p2))
    return out


# ---------------------------------------------------------------------------
# contents, residues, node membership

def content(node: Node, charge: tuple[int, int]) -> int:
    return node.b - node.a + charge[node.c - 1]


def residue(node: Node, charge: tuple[int, int], e: Optional[int]) -> int:
    cont = content(node, charge)
    return cont if e is None else cont % e


def beta_set(lam: tuple[int, ...], s: int) -> list[int]:
    """The contents lam_a - a + s of the row-end nodes (a, lam_a) of a
    component of charge s, decreasing: its charged beta-set.

    Every content below s - len(lam) is a bead too: the virtual column-0
    nodes (a, 0) with a > len(lam), which the list leaves out.
    """
    return [x - a + s for a, x in enumerate(lam, 1)]


def removable_nodes(bp: Bipartition) -> set[Node]:
    out = set()
    for c, lam in ((1, bp.c1), (2, bp.c2)):
        for a, here in enumerate(lam, 1):
            if a == len(lam) or here > lam[a]:
                out.add(Node(a, here, c))
    return out


def addable_nodes(bp: Bipartition) -> set[Node]:
    out = set()
    for c, lam in ((1, bp.c1), (2, bp.c2)):
        above = None
        for a, here in enumerate(lam, 1):
            if above is None or here < above:
                out.add(Node(a, here + 1, c))
            above = here
        out.add(Node(len(lam) + 1, 1, c))
    return out


def add_node(bp: Bipartition, node: Node) -> Bipartition:
    a, b, c = node
    lam = bp.c1 if c == 1 else bp.c2
    if (not 1 <= a <= len(lam) + 1) or part(lam, a) + 1 != b \
            or (a > 1 and lam[a - 2] < b):
        raise ValueError("node %r not addable to %r" % (node, bp))
    new = lam[:a - 1] + (b,) + lam[a:]
    return Bipartition(new, bp.c2) if c == 1 else Bipartition(bp.c1, new)


def remove_node(bp: Bipartition, node: Node) -> Bipartition:
    a, b, c = node
    lam = bp.c1 if c == 1 else bp.c2
    if (not 1 <= a <= len(lam)) or lam[a - 1] != b \
            or part(lam, a + 1) >= b:
        raise ValueError("node %r not removable from %r" % (node, bp))
    # b == 1 only in the last row, which then disappears
    new = lam[:a - 1] + (b - 1,) + lam[a:] if b > 1 else lam[:a - 1]
    return Bipartition(new, bp.c2) if c == 1 else Bipartition(bp.c1, new)


# ---------------------------------------------------------------------------
# the order on nodes

def node_key(node: Node, charge: tuple[int, int]) -> int:
    """2 * content - c: orders nodes by content, and at equal content
    puts component 2 first."""
    return 2 * content(node, charge) - node.c


def node_less(g1: Node, g2: Node, charge: tuple[int, int]) -> bool:
    k1, k2 = node_key(g1, charge), node_key(g2, charge)
    if k1 == k2 and g1 != g2:
        raise ValueError("incomparable nodes %r, %r" % (g1, g2))
    return k1 < k2


# ---------------------------------------------------------------------------
# natures

def nature_kinds(lam: tuple[int, ...], s: int, lo: int,
                 hi: int) -> tuple[str, ...]:
    """The nature kinds at contents lo..hi of a component of charge s.

    One increasing pass reads the beads at j and j - 1: R when only j is
    a bead, Bv when both are, A when only j - 1 is, Bh when neither is.
    """
    beads = set(beta_set(lam, s))
    floor = s - len(lam)
    kinds = []
    below = lo - 1 < floor or lo - 1 in beads
    for j in range(lo, hi + 1):
        on = j < floor or j in beads
        kinds.append((BV if below else R) if on else (A if below else BH))
        below = on
    return tuple(kinds)


def nature_at(bp: Bipartition, charge: tuple[int, int], j: int,
              c: int) -> NatureEntry:
    """The unique addable-or-boundary node of content j in component c.

    Its kind is nature_kinds at j.  Its row counts the beads above j,
    plus one unless it is Bh.
    """
    s = charge[c - 1]
    lam = bp.component(c)
    kind = nature_kinds(lam, s, j, j)[0]
    floor = s - len(lam)
    a = sum(x > j for x in beta_set(lam, s)) + max(0, floor - 1 - j) \
        + (kind != BH)
    node = Node(a, j - s + a, c)
    return NatureEntry(kind, node, kind != A and (a == 0 or node.b == 0))


def default_window(bp: Bipartition, charge) -> tuple[int, int]:
    """Contents min(charge) - n - 1 .. max(charge) + n + 1 at rank n: the
    contents of every node and addable node of bp, one more each side."""
    n = bp.rank
    return (min(charge) - n - 1, max(charge) + n + 1)


def _window_contents(window: tuple[int, int]) -> range:
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window %r" % (window,))
    return range(lo, hi + 1)


def nature_table(bp: Bipartition, charge: tuple[int, int],
                 window: tuple[int, int]) -> list[tuple[int, int, NatureEntry]]:
    """Slots (content, component, entry) listed in increasing node order."""
    return [(j, c, nature_at(bp, charge, j, c))
            for j in _window_contents(window) for c in (2, 1)]


def residue_slots(bp: Bipartition, charge: tuple[int, int], j: int,
                  e: Optional[int],
                  window: tuple[int, int]) -> list[tuple[int, int, NatureEntry]]:
    """The slots of the nature table whose content has residue j."""
    return [(k, c, nature_at(bp, charge, k, c))
            for k in _window_contents(window)
            if (k == j if e is None else (k - j) % e == 0) for c in (2, 1)]


NATURE_TRANSITIONS = {
    # nature at content j -> allowed natures at content j+1, same component
    A: {BH, R},
    R: {BV, A},
    BV: {BV, A},
    BH: {BH, R},
}


# ---------------------------------------------------------------------------
# boundary sequence and the order on bipartitions

def boundary_sequence(bp: Bipartition, charge: tuple[int, int],
                      window: tuple[int, int]) -> list[Node]:
    """Vertical-boundary nodes with content in the window, decreasing.

    Row a of component c holds the bead x = beta_set(...)[a - 1], or the
    tail bead s_c - a below the last row, at node (a, x - s_c + a, c).
    """
    lo, hi = window
    nodes = []
    for c, s in ((1, charge[0]), (2, charge[1])):
        beads = beta_set(bp.component(c), s)
        beads += range(s - len(beads) - 1, lo - 1, -1)
        nodes += [Node(a, x - s + a, c) for a, x in enumerate(beads, 1)
                  if lo <= x <= hi]
    return sorted(nodes, key=lambda g: node_key(g, charge), reverse=True)


def uglov_key(bp: Bipartition, charge: tuple[int, int]) -> tuple[int, ...]:
    """The node_key values of the row-end vertical-boundary nodes of both
    components, decreasing: 2 * beta_set - c over both components, merged
    (computed inline, as this is the hot key of uglov_max).

    Keys compare as the boundary sequences do.  Those sequences go on
    with the virtual column-0 nodes (a, 0, c) below each component's last
    row, which the key leaves out.  They never decide a comparison: if
    the largest node in only one of two sequences were (a, 0, c), both
    sequences would hold rows 1..a-1 of component c above it, and the
    other's row-a node, of content at least that of (a, 0, c), would be
    above it too.
    """
    s1, s2 = charge
    out = [2 * (x - a + s1) - 1 for a, x in enumerate(bp.c1, 1)]
    out += [2 * (x - a + s2) - 2 for a, x in enumerate(bp.c2, 1)]
    out.sort(reverse=True)
    return tuple(out)


def compare_uglov(bp1: Bipartition, bp2: Bipartition,
                  charge: tuple[int, int]) -> int:
    """-1, 0 or 1 for the boundary-sequence order on bipartitions."""
    k1, k2 = uglov_key(bp1, charge), uglov_key(bp2, charge)
    return (k1 > k2) - (k1 < k2)


def uglov_max(bps, charge: tuple[int, int]) -> Bipartition:
    """The largest of a nonempty collection of bipartitions under
    compare_uglov."""
    return max(bps, key=lambda bp: uglov_key(bp, charge))


def compare_lex(bp1: Bipartition, bp2: Bipartition) -> int:
    """Lexicographic comparison on the first then second component."""
    if bp1 == bp2:
        return 0
    return -1 if (bp1.c1, bp1.c2) < (bp2.c1, bp2.c2) else 1


# ---------------------------------------------------------------------------
# text notation and JSON encoding

def parse_bipartition(text: str) -> Bipartition:
    """Parse the dotted notation, e.g. "6.1,2.2" or "-,3.1"."""
    pieces = text.strip().split(",")
    if len(pieces) != 2:
        raise ValueError("expected two comma-separated components: %r" % text)

    def comp(piece):
        piece = piece.strip()
        if piece in ("-", ""):
            return ()
        return make_partition(int(p) for p in piece.split("."))

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
