"""Integral Fock-space operators, good nodes and Uglov/FLOTW membership.

A Fock vector is a dict Bipartition -> positive int whose keys all share
one rank.  The crystal parameters bundle e (None for infinity) with the
charge (s1, s2).

normal_nodes is the one place that applies the signature rule: read
over the rim of a bipartition, the merge of its two component rims, it
gives every residue's normal addable and normal removable nodes as rim
entries.  Greedy peeling, good additions and the class steps of
admissible read it directly; signature_word is its view with Node
values, for the good-node readers.  uglov_layers and crystal_edges own a
table of component rims (diagrams.component_rims) for the whole walk,
so each component partition is read once, and good_additions builds a
child from the partition the table grew.  children lists a
bipartition's children by residue the same way; f_action's table, one
per sweep or monomial, also holds each bipartition's children, and the
converse sweep keeps one of its own.  Each table reads a component
partition once; admissible's class steps read rim directly.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .diagrams import (
    EMPTY,
    Bipartition,
    Node,
    beta_set,
    component_rims,
    part,
    remove_node,
    rim,
    with_component,
)


class CrystalParams(NamedTuple):
    e: Optional[int]  # None means e = infinity
    charge: tuple[int, int]


def _check_e(e):
    if e is not None and e < 2:
        raise ValueError("e must be >= 2 or None (infinity), got %r" % (e,))


def children(bp: Bipartition, p: CrystalParams, table: dict) -> dict:
    """{j: the bipartitions bp plus one addable j-node}, distinct, for
    every residue j of an addable node, grown from bp's component rims in
    table (diagrams.component_rims), which may also hold f_action's rows:
    a Bipartition key is a 2-tuple, a rim key a 3-tuple (c, s, lam)."""
    e = p.e
    out: dict = {}
    for c, (entries, grown) in zip((1, 2), component_rims(bp, p.charge,
                                                         table)):
        for key, cont, rem, _, _, _ in entries:
            if not rem:
                out.setdefault(cont if e is None else cont % e, []).append(
                    with_component(bp, c, grown[key]))
    return out


def f_action(vec: dict[Bipartition, int], j, p: CrystalParams,
             table: dict) -> dict:
    """Linear extension of: sum over mu obtained by adding a j-node.
    Coefficients are positive, so no term cancels.

    table maps a bipartition to its children at p and, for children, a
    3-tuple (c, s, lam) to a component rim; a Bipartition is a 2-tuple,
    so keys never collide.  The caller owns it and shares it between the
    f_action calls of one sweep: each bipartition and component partition
    is read once.
    """
    _check_e(p.e)
    out: dict[Bipartition, int] = {}
    for bp, coeff in vec.items():
        row = table.get(bp)
        if row is None:
            row = table[bp] = children(bp, p, table)
        for mu in row.get(j, ()):
            out[mu] = out.get(mu, 0) + coeff
    return out


def normal_nodes(entries: list, e: Optional[int]) -> dict:
    """{j: (normal addable j-nodes, normal removable j-nodes)}, each list
    increasing and each node its rim entry, for every residue j of an
    entry of entries, a diagrams.rim.

    Read in increasing node order, an addable node cancels the largest
    uncancelled removable node of its residue if there is one, so each
    reduced j-word reads A...A R...R.
    """
    out: dict = {}
    for entry in entries:
        cont = entry[1]
        j = cont if e is None else cont % e
        pair = out.get(j)
        if pair is None:
            pair = out[j] = ([], [])
        if entry[2]:
            pair[1].append(entry)
        elif pair[1]:
            pair[1].pop()
        else:
            pair[0].append(entry)
    return out


def signature_word(bp: Bipartition, p: CrystalParams) -> dict:
    """normal_nodes with Node values: {j: (normal addable j-nodes, normal
    removable j-nodes)}, each list increasing."""
    return {j: ([Node(*g[3:]) for g in adds], [Node(*g[3:]) for g in rems])
            for j, (adds, rems)
            in normal_nodes(rim(bp, p.charge), p.e).items()}


def good_addable_node(bp, j, p: CrystalParams) -> Optional[Node]:
    """The largest normal addable j-node, if any."""
    adds = signature_word(bp, p).get(j, ([], []))[0]
    return adds[-1] if adds else None


def good_removable_node(bp, j, p: CrystalParams) -> Optional[Node]:
    """The smallest normal removable j-node, if any."""
    rems = signature_word(bp, p).get(j, ([], []))[1]
    return rems[0] if rems else None


def good_additions(bp: Bipartition, p: CrystalParams, table: dict) -> list:
    """(j, bp plus its good addable j-node) for every residue j that has
    one, in increasing j, from the component rims of bp in table (see
    diagrams.component_rims).

    The rim of bp is the merge of its two component rims, and each child
    takes the partition its component rim grew, so the children of a
    walk share the partitions of its table.
    """
    (entries1, grown1), (entries2, grown2) = component_rims(bp, p.charge,
                                                            table)
    entries = entries1 + entries2
    entries.sort()
    sig = normal_nodes(entries, p.e)
    out = []
    for j in sorted(sig):
        adds = sig[j][0]
        if adds:
            key, c = adds[-1][0], adds[-1][5]
            out.append((j, with_component(
                bp, c, grown1[key] if c == 1 else grown2[key])))
    return out


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
        sig = normal_nodes(rim(bp, p.charge), p.e)
        j = min((j for j, (_, rems) in sig.items() if rems), default=None)
        if j is None:
            return None
        bp = remove_node(bp, sig[j][1][0][3:])
        out.append(j)
    return out


def is_uglov(bp: Bipartition, p: CrystalParams) -> bool:
    """Reachable from the empty bipartition by good-node additions."""
    return peel_word(bp, p) is not None


def uglov_layers(n: int, p: CrystalParams) -> list[set[Bipartition]]:
    """Layers 0..n of the crystal component of the empty bipartition.

    One good_additions scan per bipartition of rank below n, through one
    table of component rims for the walk.
    """
    _check_e(p.e)
    layers, table = [{EMPTY}], {}
    for _ in range(n):
        layers.append({dst for bp in layers[-1]
                       for _, dst in good_additions(bp, p, table)})
    return layers


def crystal_edges(n: int, p: CrystalParams):
    """Yield the good-node edges (bp, residue, bp') of the crystal
    component of the empty bipartition up to rank n, in increasing rank
    of bp.

    The walk keeps each layer as it finds it, so every bipartition of
    rank below n is scanned once, as uglov_layers scans it, and one table
    of component rims, so every component partition is read once.
    """
    _check_e(p.e)
    layer, table = {EMPTY}, {}
    for _ in range(n):
        nxt = set()
        for bp in layer:
            for j, dst in good_additions(bp, p, table):
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

