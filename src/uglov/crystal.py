"""Integral Fock-space operators, good nodes and Uglov/FLOTW membership.

A Fock vector is a dict Bipartition -> nonzero int whose keys all share
one rank.  The crystal parameters bundle e (None for infinity) with the
charge (s1, s2).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .diagrams import (
    EMPTY,
    Bipartition,
    Node,
    add_node,
    addable_nodes,
    node_key,
    part,
    remove_node,
    removable_nodes,
    residue,
    uglov_max,
)


class CrystalParams(NamedTuple):
    e: Optional[int]  # None means e = infinity
    charge: tuple[int, int]


class SigEntry(NamedTuple):
    node: Node
    tag: str  # "A" (addable) or "R" (removable)


def _check_e(e):
    if e is not None and e < 2:
        raise ValueError("e must be >= 2 or None (infinity), got %r" % (e,))


def fock_vector(bp: Bipartition) -> dict[Bipartition, int]:
    return {bp: 1}


def f_action(vec: dict[Bipartition, int], j, p: CrystalParams) -> dict:
    """Linear extension of: sum over mu obtained by adding a j-node."""
    _check_e(p.e)
    out: dict[Bipartition, int] = {}
    for bp, coeff in vec.items():
        for g in addable_nodes(bp):
            if residue(g, p.charge, p.e) == j:
                mu = add_node(bp, g)
                out[mu] = out.get(mu, 0) + coeff
    return {bp: c for bp, c in out.items() if c != 0}


def e_action(vec: dict[Bipartition, int], j, p: CrystalParams) -> dict:
    """Linear extension of: sum over mu obtained by removing a j-node."""
    _check_e(p.e)
    out: dict[Bipartition, int] = {}
    for bp, coeff in vec.items():
        for g in removable_nodes(bp):
            if residue(g, p.charge, p.e) == j:
                mu = remove_node(bp, g)
                out[mu] = out.get(mu, 0) + coeff
    return {bp: c for bp, c in out.items() if c != 0}


def signature_word(bp: Bipartition, j, p: CrystalParams) -> list[SigEntry]:
    """Addable and removable j-nodes read in increasing node order."""
    entries = [SigEntry(g, "A") for g in addable_nodes(bp)
               if residue(g, p.charge, p.e) == j]
    entries += [SigEntry(g, "R") for g in removable_nodes(bp)
                if residue(g, p.charge, p.e) == j]
    return sorted(entries, key=lambda s: node_key(s.node, p.charge))


def reduce_word(word: list[SigEntry]) -> list[SigEntry]:
    """Cancel every removable-immediately-before-addable pair."""
    stack: list[SigEntry] = []
    for entry in word:
        if entry.tag == "A" and stack and stack[-1].tag == "R":
            stack.pop()
        else:
            stack.append(entry)
    tags = "".join(e.tag for e in stack)
    assert tags == "A" * tags.count("A") + "R" * tags.count("R")
    return stack


def normal_addable_nodes(bp, j, p: CrystalParams) -> list[Node]:
    """Addable j-nodes surviving the cancellation, increasing."""
    return [e.node for e in reduce_word(signature_word(bp, j, p))
            if e.tag == "A"]


def normal_removable_nodes(bp, j, p: CrystalParams) -> list[Node]:
    """Removable j-nodes surviving the cancellation, increasing."""
    return [e.node for e in reduce_word(signature_word(bp, j, p))
            if e.tag == "R"]


def good_addable_node(bp, j, p: CrystalParams) -> Optional[Node]:
    """The largest surviving addable j-node, if any."""
    survivors = normal_addable_nodes(bp, j, p)
    return survivors[-1] if survivors else None


def good_removable_node(bp, j, p: CrystalParams) -> Optional[Node]:
    """The smallest surviving removable j-node, if any."""
    survivors = normal_removable_nodes(bp, j, p)
    return survivors[0] if survivors else None


def addable_residues(bp, p: CrystalParams):
    return sorted({residue(g, p.charge, p.e) for g in addable_nodes(bp)})


def removable_residues(bp, p: CrystalParams):
    return sorted({residue(g, p.charge, p.e) for g in removable_nodes(bp)})


# ---------------------------------------------------------------------------
# Uglov bipartitions

def peel_word(bp: Bipartition, p: CrystalParams) -> Optional[list]:
    """Residues of successive good-node removals down to empty, or None.

    Each step removes the good node of the smallest residue that has one.
    The e-operators never leave a crystal component, and the empty
    bipartition is the only highest-weight vertex of its component, so
    this greedy peel reaches empty exactly when bp is Uglov.
    """
    _check_e(p.e)
    out = []
    while bp != EMPTY:
        for j in removable_residues(bp, p):
            g = good_removable_node(bp, j, p)
            if g is not None:
                bp = remove_node(bp, g)
                out.append(j)
                break
        else:
            return None
    return out


def is_uglov(bp: Bipartition, p: CrystalParams) -> bool:
    """Reachable from the empty bipartition by good-node additions."""
    return peel_word(bp, p) is not None


def enumerate_uglov(n: int, p: CrystalParams) -> set[Bipartition]:
    """Breadth-first closure of good-node additions, rank-n layer."""
    return uglov_layers(n, p)[n]


def uglov_layers(n: int, p: CrystalParams) -> list[set[Bipartition]]:
    """Layers 0..n of the crystal component of the empty bipartition."""
    _check_e(p.e)
    layers = [{EMPTY}]
    for _ in range(n):
        nxt = set()
        for bp in layers[-1]:
            for j in addable_residues(bp, p):
                g = good_addable_node(bp, j, p)
                if g is not None:
                    nxt.add(add_node(bp, g))
        layers.append(nxt)
    return layers


def crystal_edges(layers: list[set[Bipartition]], p: CrystalParams):
    """Good-node edges (bp, residue, bp') between consecutive layers."""
    edges = []
    for layer in layers[:-1]:
        for bp in layer:
            for j in addable_residues(bp, p):
                g = good_addable_node(bp, j, p)
                if g is not None:
                    edges.append((bp, j, add_node(bp, g)))
    return edges


# ---------------------------------------------------------------------------
# FLOTW characterization (charge in the fundamental domain)

def in_fundamental_domain(charge, e: int) -> bool:
    s1, s2 = charge
    return 0 <= s1 <= s2 < e


def is_flotw(bp: Bipartition, p: CrystalParams) -> bool:
    """Cyclic dominance inequalities plus the missing-residue condition."""
    e, (s1, s2) = p.e, p.charge
    if e is None or not in_fundamental_domain(p.charge, e):
        raise ValueError("charge %r not in the fundamental domain for e=%r"
                         % (p.charge, e))
    lam1, lam2 = bp.c1, bp.c2
    for i in range(1, max(len(lam1), len(lam2)) + 1):
        if part(lam1, i) < part(lam2, i + s2 - s1):
            return False
        if part(lam2, i) < part(lam1, i + e + s1 - s2):
            return False
    for k in set(lam1) | set(lam2):
        found = set()
        for c, lam in ((1, lam1), (2, lam2)):
            for a in range(1, len(lam) + 1):
                if lam[a - 1] == k:
                    found.add(residue(Node(a, k, c), p.charge, e))
        if len(found) == e:
            return False
    return True


# ---------------------------------------------------------------------------
# monomials in the Chevalley operators

def expand_monomial(word, p: CrystalParams) -> dict[Bipartition, int]:
    """Apply f-operators to the empty bipartition, last residue first."""
    vec = fock_vector(EMPTY)
    for j in reversed(list(word)):
        vec = f_action(vec, j, p)
    return vec


def max_of_monomial(word, p: CrystalParams) -> Bipartition:
    """The order-maximal support element of the monomial expansion."""
    vec = expand_monomial(word, p)
    if not vec:
        raise ValueError("monomial %r vanishes on the empty bipartition"
                         % (list(word),))
    return uglov_max(vec, p.charge)
