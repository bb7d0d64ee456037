"""Integral Fock-space operators, good nodes and Uglov/FLOTW membership.

A Fock vector is a dict Bipartition -> positive int whose keys all share
one rank.  The crystal parameters bundle e (None for infinity) with the
charge (s1, s2).

signature_word is the one place that applies the signature rule: one
scan of a bipartition gives every residue's normal addable and normal
removable nodes, and from them its good nodes.  Greedy peeling, good
additions and the per-residue readers all read that scan.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .diagrams import (
    EMPTY,
    Bipartition,
    Node,
    add_node,
    addable_nodes,
    part,
    remove_node,
    removable_nodes,
    residue,
)


class CrystalParams(NamedTuple):
    e: Optional[int]  # None means e = infinity
    charge: tuple[int, int]


def _check_e(e):
    if e is not None and e < 2:
        raise ValueError("e must be >= 2 or None (infinity), got %r" % (e,))


def f_action(vec: dict[Bipartition, int], j, p: CrystalParams) -> dict:
    """Linear extension of: sum over mu obtained by adding a j-node.
    Coefficients are positive, so no term cancels."""
    _check_e(p.e)
    e, charge = p.e, p.charge
    out: dict[Bipartition, int] = {}
    for bp, coeff in vec.items():
        for g in addable_nodes(bp):
            cont = g.b - g.a + charge[g.c - 1]
            if (cont if e is None else cont % e) == j:
                mu = add_node(bp, g)
                out[mu] = out.get(mu, 0) + coeff
    return out


def signature_word(bp: Bipartition, p: CrystalParams) -> dict:
    """{j: (normal addable j-nodes, normal removable j-nodes)}, each list
    increasing, for every residue j of an addable or removable node.

    All addable and removable nodes are sorted once by node_key (computed
    inline), which is unique per node, so the sort never compares two
    nodes.  Read in that order, an addable node cancels the largest
    uncancelled removable node of its residue if there is one, so each
    reduced j-word reads A...A R...R.
    """
    e, charge = p.e, p.charge
    entries = []
    for tag, nodes in (("A", addable_nodes(bp)), ("R", removable_nodes(bp))):
        for g in nodes:
            cont = g.b - g.a + charge[g.c - 1]
            entries.append((2 * cont - g.c, cont if e is None else cont % e,
                            tag, g))
    entries.sort()
    out: dict = {}
    for _, j, tag, g in entries:
        pair = out.get(j)
        if pair is None:
            pair = out[j] = ([], [])
        if tag == "R":
            pair[1].append(g)
        elif pair[1]:
            pair[1].pop()
        else:
            pair[0].append(g)
    return out


def normal_addable_nodes(bp, j, p: CrystalParams) -> list[Node]:
    """Addable j-nodes surviving the cancellation, increasing."""
    return signature_word(bp, p).get(j, ([], []))[0]


def normal_removable_nodes(bp, j, p: CrystalParams) -> list[Node]:
    """Removable j-nodes surviving the cancellation, increasing."""
    return signature_word(bp, p).get(j, ([], []))[1]


def good_addable_node(bp, j, p: CrystalParams) -> Optional[Node]:
    """The largest surviving addable j-node, if any."""
    survivors = normal_addable_nodes(bp, j, p)
    return survivors[-1] if survivors else None


def good_removable_node(bp, j, p: CrystalParams) -> Optional[Node]:
    """The smallest surviving removable j-node, if any."""
    survivors = normal_removable_nodes(bp, j, p)
    return survivors[0] if survivors else None


def good_additions(bp: Bipartition, p: CrystalParams) -> list:
    """(j, bp plus its good addable j-node) for every residue j that has
    one, in increasing j."""
    return [(j, add_node(bp, adds[-1]))
            for j, (adds, _) in sorted(signature_word(bp, p).items())
            if adds]


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
        sig = signature_word(bp, p)
        j = min((j for j, (_, rems) in sig.items() if rems), default=None)
        if j is None:
            return None
        bp = remove_node(bp, sig[j][1][0])
        out.append(j)
    return out


def is_uglov(bp: Bipartition, p: CrystalParams) -> bool:
    """Reachable from the empty bipartition by good-node additions."""
    return peel_word(bp, p) is not None


def uglov_layers(n: int, p: CrystalParams) -> list[set[Bipartition]]:
    """Layers 0..n of the crystal component of the empty bipartition."""
    _check_e(p.e)
    layers = [{EMPTY}]
    for _ in range(n):
        layers.append({dst for bp in layers[-1]
                       for _, dst in good_additions(bp, p)})
    return layers


def crystal_edges(layers: list[set[Bipartition]], p: CrystalParams):
    """Good-node edges (bp, residue, bp') between consecutive layers."""
    return [(bp, j, dst) for layer in layers[:-1] for bp in layer
            for j, dst in good_additions(bp, p)]


# ---------------------------------------------------------------------------
# FLOTW characterization (charge in the fundamental domain)

def require_fundamental(p: CrystalParams):
    """Raise ValueError unless e is finite and the charge is in the
    fundamental domain."""
    if p.e is None or not 0 <= p.charge[0] <= p.charge[1] < p.e:
        raise ValueError("charge %r not in the fundamental domain for e=%r"
                         % (p.charge, p.e))


def is_flotw(bp: Bipartition, p: CrystalParams) -> bool:
    """Cyclic dominance inequalities plus the missing-residue condition."""
    require_fundamental(p)
    e, (s1, s2) = p.e, p.charge
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
    vec = {EMPTY: 1}
    for j in reversed(list(word)):
        vec = f_action(vec, j, p)
    return vec

