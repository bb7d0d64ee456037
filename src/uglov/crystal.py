"""Integral Fock-space operators, good nodes and Uglov/FLOTW membership.

A Fock vector is a dict Bipartition -> positive int whose keys all share
one rank.  The crystal parameters bundle e (None for infinity) with the
charge (s1, s2).

signature_word is the one place that applies the signature rule: one
sorted diagrams.rim pass over a bipartition gives every residue's normal
addable and normal removable nodes, and from them its good nodes.
Greedy peeling, good additions and the good-node readers all read that
scan.  f_action and good_additions build children with diagrams.grow
from nodes the rim has certified addable.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .diagrams import (
    EMPTY,
    Bipartition,
    Node,
    beta_set,
    grow,
    part,
    remove_node,
    rim,
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
        for _, cont, rem, a, b, c in rim(bp, charge):
            if not rem and (cont if e is None else cont % e) == j:
                mu = grow(bp, a, b, c)
                out[mu] = out.get(mu, 0) + coeff
    return out


def signature_word(bp: Bipartition, p: CrystalParams) -> dict:
    """{j: (normal addable j-nodes, normal removable j-nodes)}, each list
    increasing, for every residue j of an addable or removable node.

    One diagrams.rim pass lists the addable and removable nodes, sorted
    once by node_key, which is unique per node, so the sort never
    compares further.  Read in that order, an addable node cancels the
    largest uncancelled removable node of its residue if there is one,
    so each reduced j-word reads A...A R...R.  No Node is made for an
    addable node that cancels.
    """
    e = p.e
    entries = rim(bp, p.charge)
    entries.sort()
    out: dict = {}
    for _, cont, rem, a, b, c in entries:
        j = cont if e is None else cont % e
        pair = out.get(j)
        if pair is None:
            pair = out[j] = ([], [])
        if rem:
            pair[1].append(Node(a, b, c))
        elif pair[1]:
            pair[1].pop()
        else:
            pair[0].append(Node(a, b, c))
    return out


def good_addable_node(bp, j, p: CrystalParams) -> Optional[Node]:
    """The largest normal addable j-node, if any."""
    adds = signature_word(bp, p).get(j, ([], []))[0]
    return adds[-1] if adds else None


def good_removable_node(bp, j, p: CrystalParams) -> Optional[Node]:
    """The smallest normal removable j-node, if any."""
    rems = signature_word(bp, p).get(j, ([], []))[1]
    return rems[0] if rems else None


def good_additions(bp: Bipartition, p: CrystalParams) -> list:
    """(j, bp plus its good addable j-node) for every residue j that has
    one, in increasing j."""
    return [(j, grow(bp, *adds[-1]))
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


def crystal_edges(n: int, p: CrystalParams):
    """Yield the good-node edges (bp, residue, bp') of the crystal
    component of the empty bipartition up to rank n, in increasing rank
    of bp.

    The walk keeps each layer as it finds it, so every bipartition of
    rank below n is scanned once, as uglov_layers scans it.
    """
    _check_e(p.e)
    layer = {EMPTY}
    for _ in range(n):
        nxt = set()
        for bp in layer:
            for j, dst in good_additions(bp, p):
                nxt.add(dst)
                yield bp, j, dst
        layer = nxt


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
    found: dict[int, set[int]] = {}  # part -> residues of its row ends
    for lam, s in ((lam1, s1), (lam2, s2)):
        for k, x in zip(lam, beta_set(lam, s)):
            found.setdefault(k, set()).add(x % e)
    return all(len(res) < e for res in found.values())


# ---------------------------------------------------------------------------
# monomials in the Chevalley operators

def expand_monomial(word, p: CrystalParams) -> dict[Bipartition, int]:
    """Apply f-operators to the empty bipartition, last residue first."""
    vec = {EMPTY: 1}
    for j in reversed(list(word)):
        vec = f_action(vec, j, p)
    return vec

