"""Connectedness relations, admissible residue sequences and the
Dipper-James-Murphy verifiers.

A period is a chain of e vertical-boundary nodes of the Young diagram
(virtual nodes excluded, see has_period) whose contents increase by one
and whose components weakly increase; its presence excludes membership
in the crystal component of the empty bipartition.

The forward, corollary and propb sweeps read their bipartitions at the
fundamental charge from one isomorphism.psi_images walk: propb checks
each image's top_class, and adm_walk, feeding forward and corollary,
takes one class_step per image onto the Adm of its remainder.  Each
class step reads its image in one rim pass, in top_class.

The converse sweep walks the distinct supports of monomials rank by
rank, each an int over the bipartitions of its rank in Uglov order.  Its
membership verdicts come from one crystal_edges walk, the child masks of
a support from chunk tables that every support of a rank shares, and
each support's (residue, parent) records are kept by support index.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import or_
from typing import Optional

from .crystal import (
    CrystalParams,
    crystal_edges,
    f_action,
    is_flotw,
    normal_nodes,
    require_fundamental,
    signature_word,
)
from .diagrams import (
    EMPTY,
    Bipartition,
    Node,
    beta_set,
    bipartition_to_json,
    bipartitions_of,
    default_window,
    grow,
    nature_table,
    node_key,
    part,
    remove_node,
    residue,
    rim,
    uglov_key,
    uglov_max,
)
from .isomorphism import psi_images, psi_to, reduce_to_fundamental


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


def _removable(bp: Bipartition, g: Node) -> bool:
    # g is a removable node of bp: one row check, not a rim pass
    a, b, c = g
    lam = bp.component(c)
    return 1 <= a <= len(lam) and lam[a - 1] == b > part(lam, a + 1)


def one_connected(bp: Bipartition, g1: Node, g2: Node,
                  p: CrystalParams) -> bool:
    """True when removing the larger node g2 creates a period."""
    if p.e is None:
        raise ValueError("(1)-connectedness needs finite e")
    if not (_removable(bp, g1) and _removable(bp, g2)):
        raise ValueError("both nodes must be removable")
    if residue(g1, p.charge, p.e) != residue(g2, p.charge, p.e):
        raise ValueError("nodes must share one residue")
    if node_key(g1, p.charge) >= node_key(g2, p.charge):
        raise ValueError("expected g1 < g2, got %r, %r" % (g1, g2))
    return has_period(remove_node(bp, g2), p)


def two_connected(bp: Bipartition, g1: Node,
                  p: CrystalParams) -> Optional[Node]:
    """The shifted equal-part partner of a removable node, if any."""
    require_fundamental(p)
    e, (s1, s2) = p.e, p.charge
    if not _removable(bp, g1):
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


def _connected_class(bp: Bipartition, seed: Node, nodes: list,
                     p: CrystalParams) -> list[Node]:
    # The class of seed among nodes, bp's removable j-nodes, increasing.
    # one_connected(bp, g1, g2, p) is has_period(bp minus g2), blind to g1,
    # so one test per candidate g2 links it to every candidate below or none.
    adjacency = {g: set() for g in nodes}
    for i, g2 in enumerate(nodes[1:], 1):
        if one_connected(bp, nodes[0], g2, p):
            for g1 in nodes[:i]:
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
    return [g for g in nodes if g in seen]


def removable_class(bp: Bipartition, seed: Node,
                    p: CrystalParams) -> list[Node]:
    """Equivalence class of the maximal normal removable node under the
    transitive closure of (1)- and (2)-connectedness, increasing, as
    top_class finds it; ValueError for another seed.  Kept for perfbench."""
    require_fundamental(p)
    try:
        _, cls, normal = top_class(bp, p)
    except AssertionError:  # no normal removable node: no seed is right
        normal = []
    if seed not in normal[-1:]:
        raise ValueError("seed %r is not the maximal normal removable node"
                         % (seed,))
    return cls


def remove_all(bp: Bipartition, nodes) -> Bipartition:
    for g in sorted(nodes, key=lambda g: (g.c, -g.a)):
        bp = remove_node(bp, g)
    return bp


def top_class(bp: Bipartition, p: CrystalParams) -> tuple:
    """(j, class, normal j-nodes) of a nonempty bp at a fundamental charge:
    the class of the maximal normal removable node, of residue j, and the
    normal removable j-nodes, both increasing, from one rim pass.
    AssertionError if bp has no normal removable node."""
    entries = rim(bp, p.charge)
    sig = normal_nodes(entries, p.e)
    # The seed is the largest normal removable node (rim entries start with
    # their node_key), not the largest removable node, which a larger
    # addable node of its residue can cancel (e.g. (1,1,2) in ((1),(1)) at
    # e=3, s=(0,1), below the addable (1,2,1)): the removed set would not be
    # normal nodes, and the monomial of Adm would overshoot the bipartition.
    seed = max((rems[-1] for _, rems in sig.values() if rems), default=None)
    if seed is None:
        raise AssertionError("no normal removable node on %r" % (bp,))
    j = seed[1] % p.e
    nodes = [Node(*g[3:]) for g in entries if g[2] and g[1] % p.e == j]
    cls = _connected_class(bp, Node(*seed[3:]), nodes, p)
    return j, cls, [Node(*g[3:]) for g in sig[j][1]]


def class_step(bp: Bipartition, p: CrystalParams) -> tuple:
    """(j, r, rest): one step of the FLOTW a-sequence recursion
    Adm(bp) = Adm(rest) followed by [j]^r, for a nonempty FLOTW bp at a
    fundamental charge p.

    The top_class of bp has r nodes of residue j, and rest is bp without
    it.  AssertionError if the class is not the top normal j-nodes or
    rest is not FLOTW.
    """
    j, cls, normal = top_class(bp, p)
    if cls != normal[len(normal) - len(cls):]:
        raise AssertionError("class %r is not the top normal %r-nodes "
                             "of %r" % (cls, j, bp))
    rest = remove_all(bp, cls)
    if not is_flotw(rest, p):
        raise AssertionError("class removal left non-FLOTW %r" % (rest,))
    return j, len(cls), rest


def adm_flotw(bp: Bipartition, p: CrystalParams) -> list:
    """Admissible residue sequence by successive class removals."""
    require_fundamental(p)
    if not is_flotw(bp, p):
        raise ValueError("%r is not FLOTW at %r" % (bp, p))
    segments = []
    while bp != EMPTY:
        j, r, bp = class_step(bp, p)
        segments.append((j, r))
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

def adm_walk(n: int, p: CrystalParams):
    """Yield (bp, image, found) for every Uglov bipartition bp of rank
    <= n, in increasing rank: image is its psi_images image at the
    fundamental charge, and found is (Adm(bp), the class_step of image,
    None if empty) or the AssertionError text of the first failing class
    step from image down to empty.  The rest of each step, of lower rank,
    already holds its found: Adm(bp) = Adm(rest) followed by [j]^r.
    """
    if p.e is None:
        raise ValueError("admissible sequences need finite e")
    fp = CrystalParams(p.e, reduce_to_fundamental(p.charge, p.e))
    done = {EMPTY: ([], None)}  # image -> found; psi is a bijection
    for bp, image in psi_images(n, p, fp.charge).items():
        if image != EMPTY:
            try:
                j, r, rest = step = class_step(image, fp)
            except AssertionError as exc:
                done[image] = str(exc)
            else:
                below = done[rest]
                done[image] = (below if isinstance(below, str)
                               else (below[0] + [j] * r, step))
        yield bp, image, done[image]


def verify_djm_forward(n: int, p: CrystalParams):
    """Yield one report per Uglov bipartition bp of rank <= n: bp must be
    the strict Uglov maximum of its Adm monomial.

    Adm comes from adm_walk, and the vector of each image's monomial,
    f-operators applied oldest residue first, is the vector of its rest
    extended by r f_action steps, which share one table of children.  A
    walk error is the "error" field.
    """
    vecs = {EMPTY: {EMPTY: 1}}  # image -> vector of its Adm monomial
    table = {}  # bipartition -> its children at p, read once per sweep
    for bp, image, found in adm_walk(n, p):
        if isinstance(found, str):
            yield {"bp": bipartition_to_json(bp), "pass": False,
                   "error": found}
            continue
        seq, step = found
        if step:
            j, r, rest = step
            vec = vecs[rest]
            for _ in range(r):
                vec = f_action(vec, j, p, table)
            vecs[image] = vec
        vec = vecs[image]
        ok = bp in vec and uglov_max(vec, p.charge) == bp
        yield {
            "bp": bipartition_to_json(bp),
            "adm": seq,
            "expansion": [{"bp": bipartition_to_json(mu), "coeff": coeff}
                          for mu, coeff in sorted(vec.items())],
            "max": bipartition_to_json(bp) if ok else None,
            "pass": ok,
        }


CHUNK = 64  # bits of a support per chunk-table lookup: one "Q" word


class _ChunkTable(dict):
    """The chunk table of one chunk position: a CHUNK-bit chunk value ->
    per residue, the combined child masks of the bipartitions whose bits
    it sets, filled on first lookup.  rows[b] holds the child masks of
    the chunk's bit b, one per residue."""

    def __init__(self, rows, combine):
        super().__init__()
        self.rows, self.combine = rows, combine

    def __missing__(self, value):
        members, bits = [], value
        while bits:
            low = bits & -bits
            members.append(self.rows[low.bit_length() - 1])
            bits ^= low
        entry = self[value] = [reduce(self.combine, column)
                               for column in zip(*members)]
        return entry


def verify_djm_converse(n: int, p: CrystalParams) -> list[dict]:
    """Every monomial maximum is Uglov: one report per rank 0..n.

    Every f_action coefficient is positive, so no term of a monomial's
    expansion cancels: the support of f_j(v) is the union of the
    j-children of the support of v, and the Uglov maximum of a word's
    monomial depends on its support alone.  So the walk goes rank by rank
    over distinct supports, not words.  A word w of rank k+1 is j
    followed by a word of rank k (expand_monomial applies the last
    residue first), and its support is the j-children of that word's
    support; a support records each such (j, parent support index).

    A support of rank k is an int: bit i stands for the i-th bipartition
    of rank k in increasing Uglov order, so its maximum is its top bit.
    The membership verdicts come from one crystal_edges walk up to rank
    n, kept as the set of Uglov bipartitions of each rank.  Each
    bipartition has one child mask per residue of its addable nodes,
    over the indices of rank k+1, from one diagrams.rim pass; the masks
    of rank k are laid out over the residues some bipartition of rank k
    has, never over all e of them.  f_j of a support is the OR of its
    members' j-masks, read CHUNK bits at a time: each chunk position has
    a _ChunkTable, filled lazily and shared by every support of the rank
    (the method of Four Russians).  Once a rank's children are found,
    its records are kept by support index, not by the support's int, so
    the ints of two ranks at most are alive; rank n keeps only each
    support's bit length.  The words of failing supports alone are
    spelled out from the records.  Failures are reported in increasing
    word order.
    """
    if p.e is None:
        raise ValueError("the converse sweep needs finite e")
    e, charge = p.e, p.charge
    uglov = [{EMPTY}] + [set() for _ in range(n)]  # Uglov bps, by rank
    for bp, _, dst in crystal_edges(n, p):
        uglov[bp.rank + 1].add(dst)
    records = []  # by rank, by support index: its (j, parent index)
    spelled = {}  # (rank, support index) -> its words, on demand

    def words(k, i):
        if k == 0:
            return [()]
        if (k, i) not in spelled:
            spelled[k, i] = [(j,) + w for j, parent in records[k][i]
                             for w in words(k - 1, parent)]
        return spelled[k, i]

    reports = []
    supports = {1: []}  # the supports of rank k -> their records
    bps = [EMPTY]  # the bipartitions of rank k, increasing
    for k in range(n + 1):
        records.append(list(supports.values()))
        found = []
        for i, support in enumerate(supports):
            # rank n keeps each support as its bit length, see below
            top = support if k == n else support.bit_length()
            best = bps[top - 1]
            if best not in uglov[k]:
                found += ({"word": list(w), "max": bipartition_to_json(best)}
                          for w in words(k, i))
        found.sort(key=lambda f: f["word"])
        reports.append({"n": k, "words": e ** k, "failures": found,
                        "pass": not found})
        if k == n:
            break
        up = sorted(bipartitions_of(k + 1),
                    key=lambda bp: uglov_key(bp, charge))
        index = {bp: i for i, bp in enumerate(up)}
        children = []  # children[i]: {j: the j-children of bps[i]}
        for bp in bps:
            row = {}
            for _, cont, rem, a, b, c in rim(bp, charge):
                if not rem:
                    j = cont % e
                    row[j] = row.get(j, 0) | 1 << index[grow(bp, a, b, c)]
            children.append(row)
        residues = sorted(set().union(*children))  # at most 4k + 2
        masks = [[row.get(j, 0) for j in residues] for row in children]
        combine = or_
        if k + 1 == n:
            # Rank n needs only each support's maximum, so its supports
            # are kept as their bit lengths: the max of their members'.
            masks = [[mask.bit_length() for mask in row] for row in masks]
            combine = max
        tables = [_ChunkTable(masks[i:i + CHUNK], combine)
                  for i in range(0, len(masks), CHUNK)]
        size = len(tables) * CHUNK // 8  # bytes of a support, as chunks
        nxt = {}
        for i, support in enumerate(supports):
            chunks = memoryview(support.to_bytes(size, sys.byteorder))
            entries = [table[value]
                       for table, value in zip(tables, chunks.cast("Q"))
                       if value]
            for j, column in zip(residues, zip(*entries)):
                child = reduce(combine, column)
                if child:
                    nxt.setdefault(child, []).append((j, i))
        supports = nxt
        bps = up
    return reports


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


def _box_residues(bp: Bipartition, charge, e) -> list:
    # the residues of the boxes of bp, sorted
    out = []
    for lam, s in ((bp.c1, charge[0]), (bp.c2, charge[1])):
        for a, row in enumerate(lam, 1):
            out += range(s + 1 - a, s + 1 - a + row)  # contents of row a
    if e is not None:
        out = [cont % e for cont in out]
    out.sort()
    return out


def row_standard_shapes(word, p: CrystalParams) -> set[Bipartition]:
    """Shapes admitting a row-standard tableau with this residue word.

    Such a tableau puts each letter of the word in a box of that residue,
    so a shape whose box residues differ from the letters as multisets is
    skipped before the row-filling DP.
    """
    letters = sorted(word)
    return {bp for bp in bipartitions_of(len(word))
            if _box_residues(bp, p.charge, p.e) == letters
            and _row_standard_filling_exists(bp, word, p.charge, p.e)}


def verify_djm_corollary(n: int, p: CrystalParams):
    """Yield one report per Uglov bipartition bp of rank <= n, row-standard
    reformulation: bp dominates every shape of its word, Adm from
    adm_walk."""
    for bp, _, found in adm_walk(n, p):
        if isinstance(found, str):
            yield {"bp": bipartition_to_json(bp), "pass": False,
                   "error": found}
            continue
        seq = found[0]
        shapes = row_standard_shapes(seq, p)
        ok = bp in shapes and uglov_max(shapes, p.charge) == bp
        yield {
            "bp": bipartition_to_json(bp),
            "adm": list(seq),
            "shapes": [bipartition_to_json(mu) for mu in sorted(shapes)],
            "pass": ok,
        }


# ---------------------------------------------------------------------------
# structural checks on the transported class

def propb_checks(n: int, p: CrystalParams):
    """Yield one report per Uglov bipartition bp of rank <= n: dominance
    of the smallest transported class node over addable nodes and the
    vertical/horizontal exclusion at its residue.  The class is the
    top_class of bp's psi_images image at the fundamental charge."""
    if p.e is None:
        raise ValueError("needs finite e")
    fp = CrystalParams(p.e, reduce_to_fundamental(p.charge, p.e))
    for bp, image in psi_images(n, p, fp.charge).items():
        failures = [] if bp == EMPTY else _propb_failures(bp, image, p, fp)
        yield {"bp": bipartition_to_json(bp), "pass": not failures,
               "failures": failures}


def _propb_failures(bp: Bipartition, image: Bipartition, p: CrystalParams,
                    fp: CrystalParams) -> list:
    j, cls, normal_lam = top_class(image, fp)
    normal_mu = signature_word(bp, p).get(j, ([], []))[1]
    out = ([] if cls == normal_lam[len(normal_lam) - len(cls):] else
           ["class is not the top normal nodes at the fundamental charge"])
    if len(normal_mu) != len(normal_lam):
        return out + ["normal-node count not preserved by the isomorphism"]
    if len(cls) > len(normal_mu):  # then the class failed: no eta1
        return out
    eta1 = normal_mu[len(normal_mu) - len(cls)]
    key1 = node_key(eta1, p.charge)
    table = nature_table(bp, p.charge, default_window(bp, p.charge))
    greater = [entry for k, _, entry in table
               if (k - j) % p.e == 0 and node_key(entry.node, p.charge) > key1]
    out += ["addable %r-node %r greater than eta1 %r" % (j, ent.node, eta1)
            for ent in greater if ent.kind == "A"]
    if (any(ent.kind == "Bh" and not ent.virtual for ent in greater)
            and any(ent.kind == "Bv" for ent in greater)):
        out.append("both a non-virtual Bh and a Bv %r-node exceed eta1"
                   % (j,))
    return out
