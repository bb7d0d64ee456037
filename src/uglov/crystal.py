"""Integral Fock-space operators, good nodes and Uglov/FLOTW membership.

A Fock vector is a dict Bipartition -> positive int whose keys all share
one rank.  The crystal parameters bundle e (None for infinity) with the
charge (s1, s2).

_normal_nodes is the one place that applies the signature rule: one
sorted diagrams.rim pass over a bipartition gives every residue's normal
addable and normal removable nodes as plain (a, b, c) tuples.  Greedy
peeling and good additions read it directly; signature_word is its view
with Node values, for the good-node readers and the class steps of
admissible.  children lists a bipartition's children by residue from one
rim pass, and f_action reads them from a table its caller owns, one per
sweep or monomial, so each bipartition of a sweep is read once.
children and good_additions grow bipartitions with diagrams.grow from
nodes the rim has certified addable.
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


def children(bp: Bipartition, p: CrystalParams) -> dict:
    """{j: the bipartitions bp plus one addable j-node}, for every residue
    j of an addable node, from one diagrams.rim pass."""
    e = p.e
    out: dict = {}
    for _, cont, rem, a, b, c in rim(bp, p.charge):
        if not rem:
            out.setdefault(cont if e is None else cont % e,
                           []).append(grow(bp, a, b, c))
    return out


def f_action(vec: dict[Bipartition, int], j, p: CrystalParams,
             table: dict) -> dict:
    """Linear extension of: sum over mu obtained by adding a j-node.
    Coefficients are positive, so no term cancels.

    table maps a bipartition to its children at p; the caller owns it and
    shares it between the f_action calls of one sweep, so each
    bipartition's children are read once.
    """
    _check_e(p.e)
    out: dict[Bipartition, int] = {}
    for bp, coeff in vec.items():
        row = table.get(bp)
        if row is None:
            row = table[bp] = children(bp, p)
        for mu in row.get(j, ()):
            out[mu] = out.get(mu, 0) + coeff
    return out


def _normal_nodes(bp: Bipartition, p: CrystalParams) -> dict:
    """{j: (normal addable j-nodes, normal removable j-nodes)}, each list
    increasing and each node a plain (a, b, c) tuple, for every residue j
    of an addable or removable node.

    One diagrams.rim pass lists the addable and removable nodes, sorted
    once by node_key, which is unique per node, so the sort never
    compares further.  Read in that order, an addable node cancels the
    largest uncancelled removable node of its residue if there is one,
    so each reduced j-word reads A...A R...R.
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
            pair[1].append((a, b, c))
        elif pair[1]:
            pair[1].pop()
        else:
            pair[0].append((a, b, c))
    return out


def signature_word(bp: Bipartition, p: CrystalParams) -> dict:
    """_normal_nodes with Node values: {j: (normal addable j-nodes, normal
    removable j-nodes)}, each list increasing."""
    return {j: ([Node(*g) for g in adds], [Node(*g) for g in rems])
            for j, (adds, rems) in _normal_nodes(bp, p).items()}


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
            for j, (adds, _) in sorted(_normal_nodes(bp, p).items())
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
        sig = _normal_nodes(bp, p)
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
    vec, table = {EMPTY: 1}, {}
    for j in reversed(list(word)):
        vec = f_action(vec, j, p, table)
    return vec

