"""Connectedness relations, admissible residue sequences and the
Dipper-James-Murphy verifiers.

Each verifier is a sweep that yields (line, checked, failed) per report:
line is the report as json.dumps(report, sort_keys=True) writes it,
checked the instances it covers (one bipartition, or the e**k words of
a converse rank) and failed how many of those are counterexamples.

A period is a run of e beads of the rows of a bipartition (the contents
of its non-virtual vertical-boundary nodes) at consecutive contents,
whose components weakly increase; its presence excludes membership in
the crystal component of the empty bipartition.

The forward, corollary and propb sweeps each read the pairs of one
isomorphism.image_walk to the fundamental charge: propb checks each
image's top_class, and adm_walk, feeding forward and corollary, takes
one class_step per image onto the Adm of its remainder.  A class is the
run of removable j-nodes around its seed whose neighbours are (1)- or
(2)-connected.  Each class step reads its image in one rim pass, in
top_class; its rest is FLOTW exactly when adm_walk has stepped it
already, and adm_flotw, behind `uglov show BP adm`, asks is_uglov
instead.  The forward sweep keys its Fock vectors by the pairs of the
walk's table at its own charge, and reads each pair's bead key, sort
key and JSON text from the table before its walk.
Propb reads the natures of each bipartition at its own charge from the
cores of its two components (diagrams.nature_core), through one
functools.cache of nature_core per sweep, each core placed at its
floor, so a wide charge gap costs it nothing.

The converse sweep walks the distinct supports of monomials rank by
rank, each an int over the pairs of its rank as RimTable.ranked lists
them, in Uglov order.  Its membership verdicts come from one layer_walk
on that table, its children from the table's children by residue, the
child masks of a support from chunk tables that every support of a rank
shares, and each support's (residue, parent) records by support index;
each rank's line is written as the rank is done.

The corollary sweep lists each rank's shapes in RimTable.ranked's
order, so a word's largest shape is its last.  It fills a shape's rows
in one greedy pass: a letter goes to the waiting row with most boxes.
"""

from __future__ import annotations

import json
import struct
from functools import cache, reduce
from operator import or_
from typing import Callable, Optional

from .crystal import (
    ROOT,
    CrystalParams,
    RimTable,
    f_action,
    is_uglov,
    layer_walk,
    normal_nodes,
    signature_word,
)
from .diagrams import (
    BH,
    BV,
    EMPTY,
    A,
    Bipartition,
    Node,
    beta_set,
    bipartition_to_json,
    nature_at,
    nature_core,
    node_key,
    part,
    removable,
    remove_node,
    residue,
    rim,
)
from .isomorphism import fundamental, image_walk, psi_to, require_fundamental


def has_period(bp: Bipartition, p: CrystalParams) -> bool:
    """Whether bp has a period: beads of its rows at e contents x..x+e-1
    with weakly increasing components, a run of component-1 beads, then
    one of component-2 beads.  From each bead the run stays in component
    1 while it can: a chain that leaves it sooner needs component-2 beads
    at every content this one does."""
    if p.e is None:
        raise ValueError("periods need finite e")
    (s1, s2), e = p.charge, p.e
    beads1, beads2 = set(beta_set(bp.c1, s1)), set(beta_set(bp.c2, s2))
    for x in beads1 | beads2:
        j, end = x, x + e
        while j < end and j in beads1:
            j += 1
        while j < end and j in beads2:
            j += 1
        if j == end:
            return True
    return False


def one_connected(bp: Bipartition, g1: Node, g2: Node,
                  p: CrystalParams) -> bool:
    """True when removing the larger node g2 creates a period."""
    if p.e is None:
        raise ValueError("(1)-connectedness needs finite e")
    if not (removable(bp, g1) and removable(bp, g2)):
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
    if not removable(bp, g1):
        raise ValueError("%r is not removable from %r" % (g1, bp))
    a, b, c = g1
    a2, other = (a + s2 - s1, bp.c2) if c == 1 else (a + e + s1 - s2, bp.c1)
    return Node(a2, b, 3 - c) if part(other, a2) == b else None


def _connected_class(bp: Bipartition, seed: Node, nodes: list,
                     p: CrystalParams) -> list[Node]:
    # The class of seed among nodes, bp's removable j-nodes, increasing, is
    # a run: one_connected(bp, g1, g2, p) is has_period(bp minus g2), blind
    # to g1, so the (1)-links fill the run nodes[0..top], top the highest
    # positive g2, and a (2)-partner in nodes is the node just below: that
    # of (a, b, 1) at content x has content x and node_key one less, that of
    # (a, b, 2) has content x - e, and no j-node has a content between.  So
    # the class is the run of linked neighbours around seed.
    top = next((i for i in range(len(nodes) - 1, 0, -1)
                if one_connected(bp, nodes[0], nodes[i], p)), 0)

    def linked(i):  # nodes[i - 1] and nodes[i]
        return i <= top or two_connected(bp, nodes[i], p) == nodes[i - 1]

    lo = hi = nodes.index(seed)
    while lo > 0 and linked(lo):
        lo -= 1
    while hi + 1 < len(nodes) and linked(hi + 1):
        hi += 1
    return nodes[lo:hi + 1]


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
    it.  AssertionError if the class is not the top normal j-nodes;
    whether rest is FLOTW is for adm_flotw and adm_walk to ask.
    """
    j, cls, normal = top_class(bp, p)
    if cls != normal[len(normal) - len(cls):]:
        raise AssertionError("class %r is not the top normal %r-nodes "
                             "of %r" % (cls, j, bp))
    return j, len(cls), remove_all(bp, cls)


def adm_flotw(bp: Bipartition, p: CrystalParams) -> list:
    """Admissible residue sequence by successive class removals.  At a
    fundamental charge the FLOTW bipartitions are the Uglov ones, so bp
    and each rest are tested in the crystal, with is_uglov:
    AssertionError if a rest is not FLOTW."""
    require_fundamental(p)
    if not is_uglov(bp, p):
        raise ValueError("%r is not FLOTW at %r" % (bp, p))
    out = []
    while bp != EMPTY:
        j, r, bp = class_step(bp, p)
        if not is_uglov(bp, p):
            raise AssertionError("class removal left non-FLOTW %r" % (bp,))
        out[:0] = [j] * r  # Adm(bp) = Adm(rest) followed by [j]^r
    return out


def adm(bp: Bipartition, p: CrystalParams) -> list:
    """Admissible residue sequence of an arbitrary Uglov bipartition."""
    fp = fundamental(p)
    return adm_flotw(psi_to(bp, p.charge, fp.charge, p.e), fp)


# ---------------------------------------------------------------------------
# theorem verifiers

def adm_walk(walk):
    """Yield (pair, image, found) for every pair of walk, an image_walk
    (src, dst, images) to a fundamental charge, in increasing rank: image
    is the pair's image, a Bipartition, and found is (Adm of the pair's
    bipartition, the class_step of image, None if empty) or the
    AssertionError text of the first failing class step from image down
    to empty.  The rest of each step, of lower rank, already holds its
    found: Adm(bp) = Adm(rest) followed by [j]^r.

    The images, in increasing rank, are the FLOTW bipartitions of the
    walk's ranks, so a rest is FLOTW exactly when done holds it: no rest
    is peeled.
    """
    _, dst, images = walk
    done = {EMPTY: ([], None)}  # image -> found; psi is a bijection
    for pair, image in images.items():
        image = dst.bipartition(image)
        if image != EMPTY:
            try:
                j, r, rest = step = class_step(image, dst.p)
            except AssertionError as exc:
                done[image] = str(exc)
            else:
                below = (done.get(rest)
                         or "class removal left non-FLOTW %r" % (rest,))
                done[image] = (below if isinstance(below, str)
                               else (below[0] + [j] * r, step))
        yield pair, image, done[image]


def verify_djm_forward(n: int, p: CrystalParams):
    """Yield (line, 1, failed) for every Uglov bipartition bp of rank
    <= n: failed is 0 when bp is the strict Uglov maximum of its Adm
    monomial, and its report has keys adm, bp, expansion, max and pass,
    or bp, error and pass when the walk fails on bp.

    Adm comes from adm_walk, and the vector of each image's monomial,
    f-operators applied oldest residue first, is the vector of its rest
    extended by r f_action steps over the pairs of the walk's table at
    p, so each component partition's rim at p is read once.  Before the
    walk each pair of rank <= n gets its bead key, for the maximum, its
    sort key and its JSON text, so a line costs no call per term.
    """
    table, _, _ = walk = image_walk(n, p, fundamental(p).charge)  # at p
    vecs = {EMPTY: {ROOT: 1}}  # image -> vector of its Adm monomial
    place = {pair: key for k in range(n + 1)  # its Uglov order, one int
             for pair, key in table.bead_keys(k).items()}
    forms = {pair: table.json(pair) for pair in place}
    heads = {pair: '{"bp": %s, "coeff": ' % forms[pair] for pair in place}
    order = table.order()  # after place has interned every term's pair
    ranks = {pair: order(pair) for pair in place}
    for pair, image, found in adm_walk(walk):
        if isinstance(found, str):
            yield ('{"bp": %s, "error": %s, "pass": false}'
                   % (forms[pair], json.dumps(found)), 1, 1)
            continue
        seq, step = found
        if step:
            j, r, rest = step
            vec = vecs[rest]
            for _ in range(r):
                vec = f_action(vec, j, table)
            vecs[image] = vec
        vec = vecs[image]
        ok = pair in vec and max(vec, key=place.__getitem__) == pair
        terms = ", ".join("%s%d}" % (heads[mu], vec[mu])
                          for mu in sorted(vec, key=ranks.__getitem__))
        yield ('{"adm": [%s], "bp": %s, "expansion": [%s], "max": %s, '
               '"pass": %s}' % (", ".join(map(str, seq)), forms[pair], terms,
                                forms[pair] if ok else "null",
                                "true" if ok else "false"), 1, int(not ok))


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


def verify_djm_converse(n: int, p: CrystalParams):
    """Every monomial maximum is Uglov: yield (line, e**k, failed) per
    rank k = 0..n, failed its failing words, with keys failures, n, pass
    and words.

    Every f_action coefficient is positive, so no term of a monomial's
    expansion cancels: the support of f_j(v) is the union of the
    j-children of the support of v, and the Uglov maximum of a word's
    monomial depends on its support alone.  So the walk goes rank by rank
    over distinct supports, not words.  A word of rank k+1 is a word of
    rank k followed by j, and its support is the j-children of that
    word's support; a support records each such (j, parent support
    index).

    A support of rank k is an int: bit i stands for the i-th pair of
    RimTable.ranked(k), in Uglov order, so its maximum is its top bit.
    Bipartitions are pairs of one RimTable, whose layer_walk up to rank n
    gives the membership verdicts, kept as one set of Uglov pairs.  Each
    bipartition has one child mask per residue of its addable nodes, over
    the indices of rank k+1, from the children of its two components,
    as RimTable.children lists them; the masks of rank k are laid out
    over the residues some bipartition of rank k has, never over all e
    of them.  f_j of a support is the OR of its members' j-masks, read
    CHUNK bits at a time: each chunk position has a _ChunkTable, filled
    lazily and shared by every support of the rank (the method of Four
    Russians).  Once a rank's children are found,
    its records are kept by support index, not by the support's int, so
    the ints of two ranks at most are alive; rank n keeps only each
    support's bit length.  The words of failing supports alone are
    spelled out from the records.  Failures are reported in increasing
    word order.
    """
    if p.e is None:
        raise ValueError("the converse sweep needs finite e")
    rims = RimTable(p)  # the walk's and the child masks'
    uglov = set().union(*layer_walk(n, rims))
    records = []  # by rank, by support index: its (j, parent index)

    @cache
    def words(k, i):  # the words of support i of rank k, on demand
        if k == 0:
            return [()]
        return [w + (j,) for j, parent in records[k][i]
                for w in words(k - 1, parent)]

    supports = {1: []}  # the supports of rank k -> their records
    bps = [ROOT]  # the bipartitions of rank k, increasing, as pairs
    for k in range(n + 1):
        records.append(list(supports.values()))
        found = []
        for i, support in enumerate(supports):
            # rank n keeps each support as its bit length, see below
            top = support if k == n else support.bit_length()
            if bps[top - 1] not in uglov:
                best = rims.bipartition(bps[top - 1])
                found += ({"word": list(w), "max": bipartition_to_json(best)}
                          for w in words(k, i))
        found.sort(key=lambda f: f["word"])
        yield (json.dumps({"n": k, "words": p.e ** k, "failures": found,
                           "pass": not found}, sort_keys=True),
               p.e ** k, len(found))
        if k == n:
            break
        up = rims.ranked(k + 1)
        index = {pair: i for i, pair in enumerate(up)}
        # rows[i]: {j: the mask of the j-children of bps[i]}
        rows = [{} for _ in bps]
        for (i1, i2), row in zip(bps, rows):
            for j, kids in rims.children(1, i1).items():
                for child in kids:
                    row[j] = row.get(j, 0) | 1 << index[child, i2]
            for j, kids in rims.children(2, i2).items():
                for child in kids:
                    row[j] = row.get(j, 0) | 1 << index[i1, child]
        residues = sorted(set().union(*rows))  # at most 4k + 2
        masks = [[row.get(j, 0) for j in residues] for row in rows]
        combine = or_
        if k + 1 == n:
            # Rank n needs only each support's maximum, so its supports
            # are kept as their bit lengths: the max of their members'.
            masks = [[mask.bit_length() for mask in row] for row in masks]
            combine = max
        tables = [_ChunkTable(masks[i:i + CHUNK], combine)
                  for i in range(0, len(masks), CHUNK)]
        size = len(tables) * CHUNK // 8  # bytes of a support, as chunks
        unpack = struct.Struct("<%dQ" % len(tables)).unpack  # low chunk first
        nxt = {}
        for i, support in enumerate(supports):
            entries = [table[value] for table, value
                       in zip(tables, unpack(support.to_bytes(size, "little")))
                       if value]
            for j, column in zip(residues, zip(*entries)):
                child = reduce(combine, column)
                if child:
                    nxt.setdefault(child, []).append((j, i))
        supports = nxt
        bps = up


# ---------------------------------------------------------------------------
# row-standard tableaux reformulation

def _row_standard_filling_exists(bp: Bipartition, word, charge, e) -> bool:
    # A row-standard filling fills each row left to right as the numbers
    # increase, so row a of component c is a chain of consecutive residues
    # from content s_c + 1 - a.  Each letter goes to the row that waits for
    # its residue and has the most boxes left.  Two rows A and B that wait
    # for the same residue need the same residues from then on.  If a
    # filling gives letter t to B, and A has at least as many boxes left,
    # with later letters a_0 < a_1 < ... and B's letters t = b_0 < b_1 <
    # ..., then some filling gives t to A.  At the first i >= 1 with
    # a_(i-1) < b_i, A takes b_0 .. b_(i-1), a_i, ... and B takes
    # a_0 .. a_(i-1), b_i, ...  With no such i, A takes B's whole chain and
    # then its own letters past B's length, and B takes A's first |B|.
    rows = [[s + 1 - a, length]  # the next content and the boxes left
            for lam, s in zip((bp.c1, bp.c2), charge)
            for a, length in enumerate(lam, 1)]
    for j in word:
        waiting = [row for row in rows
                   if row[1] and (row[0] if e is None else row[0] % e) == j]
        if not waiting:
            return False
        row = max(waiting, key=lambda row: row[1])
        row[0] += 1
        row[1] -= 1
    return not any(left for _, left in rows)


def row_standard_shapes(word, p: CrystalParams, bps) -> list[Bipartition]:
    """Shapes admitting a row-standard tableau with this residue word,
    among bps, the bipartitions of rank len(word), in the order of bps."""
    return [bp for bp in bps
            if _row_standard_filling_exists(bp, word, p.charge, p.e)]


def verify_djm_corollary(n: int, p: CrystalParams):
    """Yield (line, 1, failed) per Uglov bipartition bp of rank <= n,
    row-standard reformulation: failed is 0 when bp dominates every shape
    of its word, the last of them in Uglov order, Adm from adm_walk."""
    src, _, _ = walk = image_walk(n, p, fundamental(p).charge)
    ranks = [list(map(src.bipartition, src.ranked(k))) for k in range(n + 1)]
    for pair, _, found in adm_walk(walk):
        bp = src.bipartition(pair)
        if isinstance(found, str):
            yield (json.dumps({"bp": bipartition_to_json(bp), "pass": False,
                               "error": found}, sort_keys=True), 1, 1)
            continue
        seq = found[0]
        shapes = row_standard_shapes(seq, p, ranks[bp.rank])
        ok = shapes[-1:] == [bp]
        yield (json.dumps({"bp": bipartition_to_json(bp), "adm": list(seq),
                           "shapes": [bipartition_to_json(mu)
                                      for mu in sorted(shapes)],
                           "pass": ok}, sort_keys=True), 1, int(not ok))


# ---------------------------------------------------------------------------
# structural checks on the transported class

def propb_checks(n: int, p: CrystalParams):
    """Yield (line, 1, failed) per Uglov bipartition bp of rank <= n,
    failed 1 when its report holds failures: dominance of the smallest
    transported class node over addable nodes and the
    vertical/horizontal exclusion at its residue.  The class is the
    top_class of bp's image_walk image at the fundamental charge; the
    natures of bp come from one cache of nature_core, one core per
    component partition of the sweep."""
    src, dst, images = image_walk(n, p, fundamental(p).charge)
    core = cache(nature_core)
    for pair, image in images.items():
        bp = src.bipartition(pair)
        failures = ([] if bp == EMPTY else _propb_failures(
            bp, dst.bipartition(image), p, dst.p, core))
        yield (json.dumps({"bp": bipartition_to_json(bp),
                           "pass": not failures, "failures": failures},
                          sort_keys=True), 1, int(bool(failures)))


def _propb_failures(bp: Bipartition, image: Bipartition, p: CrystalParams,
                    fp: CrystalParams, core: Callable) -> list:
    """The propb failures of bp, whose image at the fundamental charge is
    image.

    The slots read are those of residue j with node_key above eta1's,
    in default_window.  In component c of charge s they are read from the
    core of bp's component, core(lam) (nature_core or the sweep's cache
    of it), placed at its floor s - len(lam): every addable node and
    every non-virtual Bh lies in the core, and a Bv lies either in the
    core or in the virtual Bv run below it, up to the core's floor.
    Above the core every slot is a virtual Bh, which no question asks
    about.  The window never cuts the Bv run: eta1 is a node of bp, so
    the lowest content above it is inside the window, and a residue-j
    content of the run is found by arithmetic.  So the charge gap costs
    nothing.  An addable slot's node comes from nature_at.
    """
    j, cls, normal_lam = top_class(image, fp)
    # at the fundamental charge bp is its own image
    normal_mu = (normal_lam if p == fp
                 else signature_word(bp, p).get(j, ([], []))[1])
    out = ([] if cls == normal_lam[len(normal_lam) - len(cls):] else
           ["class is not the top normal nodes at the fundamental charge"])
    if len(normal_mu) != len(normal_lam):
        return out + ["normal-node count not preserved by the isomorphism"]
    if len(cls) > len(normal_mu):  # then the class failed: no eta1
        return out
    eta1 = normal_mu[len(normal_mu) - len(cls)]
    key1 = node_key(eta1, p.charge)
    addable, bh, bv = [], False, False
    for c, lam, s in ((1, bp.c1, p.charge[0]), (2, bp.c2, p.charge[1])):
        kinds, floor = core(lam), s - len(lam)
        first = (key1 + c) // 2 + 1  # the lowest content above eta1
        start = max(first, floor)
        for k in range(start + (j - start) % p.e, floor + len(kinds), p.e):
            kind = kinds[k - floor]
            if kind == A:
                addable.append((2 * k - c, nature_at(bp, p.charge, k, c).node))
            bh = bh or kind == BH
            bv = bv or kind == BV
        bv = bv or first + (j - first) % p.e < floor  # in first .. floor - 1
    addable.sort()
    out += ["addable %r-node %r greater than eta1 %r" % (j, node, eta1)
            for _, node in addable]
    if bh and bv:
        out.append("both a non-virtual Bh and a Bv %r-node exceed eta1"
                   % (j,))
    return out
