"""Bipartitions, extended Young diagrams, natures and the two orders.

A partition is stored as a weakly decreasing tuple of positive integers
(trailing zeros trimmed).  A node is a triple (a, b, c) with row a,
column b and component c in {1, 2}; the extended diagram additionally
contains the virtual row-0 nodes (0, b, c) with b > lambda^c_1 and the
virtual column-0 nodes (a, 0, c) with a > len(lambda^c).

The content of (a, b, c) under a charge (s1, s2) is b - a + s_c; the
residue is the content mod e (the content itself when e is None, which
stands for e = infinity throughout the package).
"""

from __future__ import annotations

import itertools
from functools import cmp_to_key
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


def make_bipartition(c1, c2) -> Bipartition:
    return Bipartition(make_partition(c1), make_partition(c2))


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


def is_extended_node(bp: Bipartition, node: Node) -> bool:
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


def removable_nodes(bp: Bipartition) -> set[Node]:
    out = set()
    for c in (1, 2):
        lam = bp.component(c)
        for a in range(1, len(lam) + 1):
            if lam[a - 1] > part(lam, a + 1):
                out.add(Node(a, lam[a - 1], c))
    return out


def addable_nodes(bp: Bipartition) -> set[Node]:
    out = set()
    for c in (1, 2):
        lam = bp.component(c)
        for a in range(1, len(lam) + 2):
            here, above = part(lam, a), part(lam, a - 1) if a > 1 else None
            if above is None or here < above:
                out.add(Node(a, here + 1, c))
    return out


def add_node(bp: Bipartition, node: Node) -> Bipartition:
    a, b, c = node
    lam = list(bp.component(c)) + [0]
    if (not 1 <= a <= len(lam)) or lam[a - 1] + 1 != b \
            or (a > 1 and lam[a - 2] < b):
        raise ValueError("node %r not addable to %r" % (node, bp))
    lam[a - 1] += 1
    new = make_partition(lam)
    return Bipartition(new, bp.c2) if c == 1 else Bipartition(bp.c1, new)


def remove_node(bp: Bipartition, node: Node) -> Bipartition:
    a, b, c = node
    lam = list(bp.component(c))
    if (not 1 <= a <= len(lam)) or lam[a - 1] != b \
            or part(lam, a + 1) >= b:
        raise ValueError("node %r not removable from %r" % (node, bp))
    lam[a - 1] -= 1
    new = make_partition(lam)
    return Bipartition(new, bp.c2) if c == 1 else Bipartition(bp.c1, new)


# ---------------------------------------------------------------------------
# the order on nodes

def node_key(node: Node, charge: tuple[int, int]) -> tuple[int, int]:
    # equal content: component 2 is the smaller node
    return (content(node, charge), -node.c)


def node_less(g1: Node, g2: Node, charge: tuple[int, int]) -> bool:
    k1, k2 = node_key(g1, charge), node_key(g2, charge)
    if k1 == k2 and g1 != g2:
        raise ValueError("incomparable nodes %r, %r" % (g1, g2))
    return k1 < k2


# ---------------------------------------------------------------------------
# natures

def nature_at(bp: Bipartition, charge: tuple[int, int], j: int,
              c: int) -> NatureEntry:
    """The unique addable-or-boundary node of content j in component c."""
    lam = bp.component(c)
    d = j - charge[c - 1]  # b - a along the diagonal of content j
    found: dict[Node, set[str]] = {}

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
        kind = A
    elif flags >= {"vert", "horiz"}:
        kind = R
    elif "vert" in flags:
        kind = BV
    else:
        kind = BH
    virtual = kind != A and (node.a == 0 or node.b == 0)
    return NatureEntry(kind, node, virtual)


def nature_table(bp: Bipartition, charge: tuple[int, int],
                 window: tuple[int, int]) -> list[tuple[int, int, NatureEntry]]:
    """Slots (content, component, entry) listed in increasing node order."""
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window %r" % (window,))
    out = []
    for j in range(lo, hi + 1):
        for c in (2, 1):
            out.append((j, c, nature_at(bp, charge, j, c)))
    return out


def residue_slots(bp: Bipartition, charge: tuple[int, int], j: int,
                  e: Optional[int],
                  window: tuple[int, int]) -> list[tuple[int, int, NatureEntry]]:
    """The slots of the nature table whose content has residue j."""
    table = nature_table(bp, charge, window)
    if e is None:
        return [s for s in table if s[0] == j]
    return [s for s in table if s[0] % e == j % e]


NATURE_TRANSITIONS = {
    # nature at content j -> allowed natures at content j+1, same component
    A: {BH, R},
    R: {BV, A},
    BV: {BV, A},
    BH: {BH, R},
}


# ---------------------------------------------------------------------------
# boundary sequence and the order on bipartitions

def _vertical_rows(bp: Bipartition, rows: int) -> list[Node]:
    out = []
    for c in (1, 2):
        lam = bp.component(c)
        for a in range(1, rows + 1):
            out.append(Node(a, part(lam, a), c))
    return out


def boundary_sequence(bp: Bipartition, charge: tuple[int, int],
                      window: tuple[int, int]) -> list[Node]:
    """Vertical-boundary nodes with content in the window, decreasing."""
    lo, hi = window
    smax = max(charge)
    rows = max(len(bp.c1), len(bp.c2), smax - lo + 1) + 1
    nodes = [g for g in _vertical_rows(bp, rows)
             if lo <= content(g, charge) <= hi]
    return sorted(nodes, key=lambda g: node_key(g, charge), reverse=True)


def compare_uglov(bp1: Bipartition, bp2: Bipartition,
                  charge: tuple[int, int]) -> int:
    """-1, 0 or 1 for the boundary-sequence order on bipartitions.

    The infinite sequences are truncated once all deeper vertical-boundary
    nodes are the shape-independent virtual column-0 tail; equal row counts
    on both sides keep positions aligned.
    """
    if bp1 == bp2:
        return 0
    n = max(bp1.rank, bp2.rank)
    rows = max(len(bp1.c1), len(bp1.c2), len(bp2.c1), len(bp2.c2),
               abs(charge[0] - charge[1]) + n + 2)
    key = lambda g: node_key(g, charge)
    seq1 = sorted(_vertical_rows(bp1, rows), key=key, reverse=True)
    seq2 = sorted(_vertical_rows(bp2, rows), key=key, reverse=True)
    for g1, g2 in zip(seq1, seq2):
        if g1 != g2:
            return -1 if node_less(g1, g2, charge) else 1
    raise AssertionError("distinct bipartitions with equal boundary "
                         "sequences: %r, %r" % (bp1, bp2))


def uglov_max(bps, charge: tuple[int, int]) -> Bipartition:
    """The largest of a nonempty collection of bipartitions under
    compare_uglov."""
    return max(bps, key=cmp_to_key(
        lambda bp1, bp2: compare_uglov(bp1, bp2, charge)))


def compare_lex(bp1: Bipartition, bp2: Bipartition) -> int:
    """Lexicographic comparison on the first then second component."""
    if bp1 == bp2:
        return 0
    return -1 if (bp1.c1, bp1.c2) < (bp2.c1, bp2.c2) else 1


def orders_agree_asymptotic(n: int, charge: tuple[int, int]) -> bool:
    """Self-test: with s1 - s2 > n - 1 both orders coincide on rank n."""
    s1, s2 = charge
    if s1 - s2 <= n - 1:
        raise ValueError("requires s1 - s2 > n - 1, got %r" % (charge,))
    bps = bipartitions_of(n)
    return all(compare_uglov(x, y, charge) == compare_lex(x, y)
               for x, y in itertools.combinations(bps, 2))


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


def bipartition_from_json(obj: dict) -> Bipartition:
    return make_bipartition(obj["c1"], obj["c2"])


def render_nature_table(tables: dict[str, list], charge_labels=None) -> str:
    """Aligned text rendering: Component row, Content row, one nature row
    per named bipartition.  `tables` maps a label to the slot list from
    nature_table (all over the same window)."""
    labels = list(tables)
    slots = tables[labels[0]]
    header = [("Component", [str(c) for (_, c, _) in slots]),
              ("Content", [str(j) for (j, _, _) in slots])]
    body = []
    for label in labels:
        cells = []
        for (_, _, entry) in tables[label]:
            mark = "*" if entry.virtual else ""
            cells.append(entry.kind + mark)
        body.append((label, cells))
    rows = header + body
    name_w = max(len(name) for name, _ in rows)
    col_w = [max(len(row[1][i]) for row in rows)
             for i in range(len(slots))]
    lines = []
    for name, cells in rows:
        padded = [cells[i].rjust(col_w[i]) for i in range(len(cells))]
        lines.append("%s | %s" % (name.ljust(name_w), " ".join(padded)))
    return "\n".join(lines)
