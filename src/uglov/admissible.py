"""Connectedness relations, admissible residue sequences and the
Dipper-James-Murphy verifiers.

A period is a chain of e vertical-boundary nodes of the Young diagram
(virtual nodes excluded, see has_period) whose contents increase by one
and whose components weakly increase; its presence excludes membership
in the crystal component of the empty bipartition.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .crystal import (
    CrystalParams,
    f_action,
    is_flotw,
    is_uglov,
    normal_removable_nodes,
    require_fundamental,
    signature_word,
)
from .diagrams import (
    EMPTY,
    Bipartition,
    Node,
    addable_nodes,
    beta_set,
    bipartition_to_json,
    bipartitions_of,
    default_window,
    node_key,
    node_less,
    part,
    remove_node,
    removable_nodes,
    residue,
    residue_slots,
    uglov_max,
)
from .isomorphism import psi_to, reduce_to_fundamental


def has_period(bp: Bipartition, p: CrystalParams) -> bool:
    """Chain of e non-virtual vertical-boundary nodes, contents increasing
    by one, components weakly increasing."""
    if p.e is None:
        raise ValueError("periods need finite e")
    comps: dict[int, set[int]] = {}  # bead -> components holding it
    for c in (1, 2):
        for x in beta_set(bp.component(c), p.charge[c - 1]):
            comps.setdefault(x, set()).add(c)
    for start in comps:
        lowest = 0  # smallest usable component so far
        ok = True
        for j in range(start, start + p.e):
            choices = [c for c in comps.get(j, ()) if c >= lowest]
            if not choices:
                ok = False
                break
            lowest = min(choices)
        if ok:
            return True
    return False


def one_connected(bp: Bipartition, g1: Node, g2: Node,
                  p: CrystalParams) -> bool:
    """True when removing the larger node g2 creates a period."""
    if p.e is None:
        raise ValueError("(1)-connectedness needs finite e")
    rem = removable_nodes(bp)
    if g1 not in rem or g2 not in rem:
        raise ValueError("both nodes must be removable")
    if residue(g1, p.charge, p.e) != residue(g2, p.charge, p.e):
        raise ValueError("nodes must share one residue")
    if not node_less(g1, g2, p.charge):
        raise ValueError("expected g1 < g2, got %r, %r" % (g1, g2))
    return has_period(remove_node(bp, g2), p)


def two_connected(bp: Bipartition, g1: Node,
                  p: CrystalParams) -> Optional[Node]:
    """The shifted equal-part partner of a removable node, if any."""
    require_fundamental(p)
    e, (s1, s2) = p.e, p.charge
    if g1 not in removable_nodes(bp):
        raise ValueError("%r is not removable from %r" % (g1, bp))
    a, b, c = g1
    if c == 1:
        a2 = a + s2 - s1
        if part(bp.c2, a2) == bp.c1[a - 1] and a2 >= 1:
            return Node(a2, part(bp.c2, a2), 2)
    else:
        a2 = a + e + s1 - s2
        if part(bp.c1, a2) == bp.c2[a - 1] and a2 >= 1:
            return Node(a2, part(bp.c1, a2), 1)
    return None


def max_normal_removable_node(bp: Bipartition,
                              p: CrystalParams) -> Optional[Node]:
    """The largest removable node that survives signature cancellation.

    The maximal removable node itself can be cancelled by a larger
    addable node of the same residue (e.g. (1,1,2) in ((1),(1)) at
    e=3, s=(0,1), where the addable (1,2,1) sits above it); class
    peeling must start from the largest normal node instead, otherwise
    the removed set is not a stretch of normal nodes and the monomial
    expansion of the residue sequence overshoots the bipartition.
    """
    return max((rems[-1] for _, rems in signature_word(bp, p).values()
                if rems),
               key=lambda g: node_key(g, p.charge), default=None)


def removable_class(bp: Bipartition, seed: Node,
                    p: CrystalParams) -> list[Node]:
    """Equivalence class of the maximal normal removable node under the
    transitive closure of (1)- and (2)-connectedness, increasing."""
    require_fundamental(p)
    if seed != max_normal_removable_node(bp, p):
        raise ValueError("seed %r is not the maximal normal removable node"
                         % (seed,))
    j = residue(seed, p.charge, p.e)
    nodes = sorted((g for g in removable_nodes(bp)
                    if residue(g, p.charge, p.e) == j),
                   key=lambda g: node_key(g, p.charge))
    adjacency = {g: set() for g in nodes}
    for g1, g2 in itertools.combinations(nodes, 2):  # g1 < g2 by sort order
        if one_connected(bp, g1, g2, p):
            adjacency[g1].add(g2)
            adjacency[g2].add(g1)
    for g in nodes:
        partner = two_connected(bp, g, p)
        if partner in adjacency:
            adjacency[g].add(partner)
            adjacency[partner].add(g)
    seen, todo = {seed}, [seed]
    while todo:
        for other in adjacency[todo.pop()]:
            if other not in seen:
                seen.add(other)
                todo.append(other)
    return sorted(seen, key=lambda g: node_key(g, p.charge))


def remove_all(bp: Bipartition, nodes) -> Bipartition:
    for g in sorted(nodes, key=lambda g: (g.c, -g.a)):
        bp = remove_node(bp, g)
    return bp


def adm_flotw(bp: Bipartition, p: CrystalParams) -> list:
    """Admissible residue sequence by successive class removals."""
    require_fundamental(p)
    if not is_flotw(bp, p):
        raise ValueError("%r is not FLOTW at %r" % (bp, p))
    segments = []
    while bp != EMPTY:
        seed = max_normal_removable_node(bp, p)
        if seed is None:
            raise AssertionError("no normal removable node on %r" % (bp,))
        j = residue(seed, p.charge, p.e)
        cls = removable_class(bp, seed, p)
        normal = normal_removable_nodes(bp, j, p)
        if cls != normal[len(normal) - len(cls):]:
            raise AssertionError("class %r is not the top normal %r-nodes "
                                 "of %r" % (cls, j, bp))
        segments.append((j, len(cls)))
        bp = remove_all(bp, cls)
        if not is_flotw(bp, p):
            raise AssertionError("class removal left non-FLOTW %r" % (bp,))
    out = []
    for j, r in reversed(segments):
        out.extend([j] * r)
    return out


def adm(bp: Bipartition, p: CrystalParams) -> list:
    """Admissible residue sequence of an arbitrary Uglov bipartition."""
    if p.e is None:
        raise ValueError("admissible sequences need finite e")
    fundamental = reduce_to_fundamental(p.charge, p.e)
    image = psi_to(bp, p.charge, fundamental, p.e)
    return adm_flotw(image, CrystalParams(p.e, fundamental))


# ---------------------------------------------------------------------------
# theorem verifiers

def verify_djm_forward(bp: Bipartition, p: CrystalParams) -> dict:
    """Expand the Adm monomial and check bp is its strict maximum."""
    seq = adm(bp, p)
    vec = {EMPTY: 1}
    for j in seq:  # oldest residue acts first
        vec = f_action(vec, j, p)
    ok = bp in vec and uglov_max(vec, p.charge) == bp
    return {
        "bp": bipartition_to_json(bp),
        "adm": list(seq),
        "expansion": [{"bp": bipartition_to_json(mu), "coeff": coeff}
                      for mu, coeff in sorted(vec.items())],
        "max": bipartition_to_json(bp) if ok else None,
        "pass": ok,
    }


def verify_djm_converse(n: int, p: CrystalParams) -> list[dict]:
    """Every monomial maximum is Uglov: one report per rank 0..n.

    The words are visited depth first by shared suffix: expand_monomial
    applies the last residue first, so prepending one residue to a suffix
    is one f_action on the suffix's vector, and a suffix whose vector
    vanishes is pruned with every word that ends in it.  Each suffix is a
    word of its own rank, so one walk to depth n checks every rank.
    Failures are reported in increasing word order.
    """
    if p.e is None:
        raise ValueError("the converse sweep needs finite e")
    failures = [[] for _ in range(n + 1)]  # by rank
    verdicts = {}  # many words share one maximum

    def visit(suffix, vec):
        best = uglov_max(vec, p.charge)
        if best not in verdicts:
            verdicts[best] = is_uglov(best, p)
        if not verdicts[best]:
            failures[len(suffix)].append({"word": list(suffix),
                                          "max": bipartition_to_json(best)})
        if len(suffix) < n:
            for j in range(p.e):
                nxt = f_action(vec, j, p)
                if nxt:
                    visit((j,) + suffix, nxt)

    visit((), {EMPTY: 1})
    for found in failures:
        found.sort(key=lambda f: f["word"])
    return [{"n": k, "words": p.e ** k, "failures": found,
             "pass": not found} for k, found in enumerate(failures)]


# ---------------------------------------------------------------------------
# row-standard tableaux reformulation

def _row_standard_filling_exists(bp: Bipartition, word, charge, e) -> bool:
    # DP over per-row filled prefixes: a row-standard filling is exactly a
    # left-to-right filling of each row as the numbers increase.
    rows = [(a, c) for c in (1, 2)
            for a in range(1, len(bp.component(c)) + 1)]
    limits = [bp.component(c)[a - 1] for a, c in rows]
    states = {tuple([0] * len(rows))}
    for j in word:
        nxt = set()
        for state in states:
            for i, (a, c) in enumerate(rows):
                b = state[i] + 1
                if b > limits[i]:
                    continue
                if residue(Node(a, b, c), charge, e) != j:
                    continue
                child = list(state)
                child[i] = b
                nxt.add(tuple(child))
        if not nxt:
            return False
        states = nxt
    return any(all(s == lim for s, lim in zip(state, limits))
               for state in states)


def row_standard_shapes(word, p: CrystalParams) -> set[Bipartition]:
    """Shapes admitting a row-standard tableau with this residue word."""
    n = len(word)
    return {bp for bp in bipartitions_of(n)
            if _row_standard_filling_exists(bp, word, p.charge, p.e)}


def verify_djm_corollary(bp: Bipartition, p: CrystalParams) -> dict:
    """Row-standard reformulation: bp dominates every shape of its word."""
    seq = adm(bp, p)
    shapes = row_standard_shapes(seq, p)
    ok = bp in shapes and uglov_max(shapes, p.charge) == bp
    return {
        "bp": bipartition_to_json(bp),
        "adm": list(seq),
        "shapes": [bipartition_to_json(mu) for mu in sorted(shapes)],
        "pass": ok,
    }


# ---------------------------------------------------------------------------
# structural checks on the transported class

def propb_checks(bp: Bipartition, p: CrystalParams) -> dict:
    """Dominance of the smallest transported class node over addable nodes
    and the vertical/horizontal exclusion at its residue."""
    if p.e is None:
        raise ValueError("needs finite e")
    report = {"bp": bipartition_to_json(bp), "pass": True, "failures": []}
    if bp == EMPTY:
        return report
    fp = CrystalParams(p.e, reduce_to_fundamental(p.charge, p.e))
    lam = psi_to(bp, p.charge, fp.charge, p.e)
    seed = max_normal_removable_node(lam, fp)
    cls = removable_class(lam, seed, fp)
    j = residue(seed, fp.charge, fp.e)
    normal_lam = normal_removable_nodes(lam, j, fp)
    normal_mu = normal_removable_nodes(bp, j, p)

    def fail(what):
        report["pass"] = False
        report["failures"].append(what)

    if cls != normal_lam[len(normal_lam) - len(cls):]:
        fail("class is not the top normal nodes at the fundamental charge")
    if len(normal_mu) != len(normal_lam):
        fail("normal-node count not preserved by the isomorphism")
        return report
    eta1 = normal_mu[len(normal_mu) - len(cls)]
    key1 = node_key(eta1, p.charge)
    for g in addable_nodes(bp):
        if residue(g, p.charge, p.e) == j and node_key(g, p.charge) > key1:
            fail("addable %r-node %r greater than eta1 %r" % (j, g, eta1))
    slots = residue_slots(bp, p.charge, j, p.e,
                          default_window(bp, p.charge))
    greater = [entry for (_, _, entry) in slots
               if node_key(entry.node, p.charge) > key1]
    if (any(ent.kind == "Bh" and not ent.virtual for ent in greater)
            and any(ent.kind == "Bv" for ent in greater)):
        fail("both a non-virtual Bh and a Bv %r-node exceed eta1" % (j,))
    return report
