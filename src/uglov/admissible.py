"""Connectedness relations, admissible residue sequences and the
Dipper-James-Murphy verifiers.

Each verifier is a sweep that yields (line, checked, failed) per report:
line is the report as json.dumps(report, sort_keys=True) writes it,
checked the instances it covers (one bipartition, or the e**k words of
a converse rank) and failed how many of those are counterexamples.

A period is a run of e beads of the rows of a bipartition (the contents
of its non-virtual vertical-boundary nodes) at consecutive contents,
whose components weakly increase; its presence excludes membership in
the crystal component of the empty bipartition.  period tests it on the
beads of the two components.

class_step is the one home of the class rule.  It takes a pair of a
crystal.RimTable at a fundamental charge, reads the pair's two stored
rims through RimTable.read, finds the normal removable nodes in one
bracket scan per residue id, and gives the class of the largest one, its
residue j, the normal j-nodes and the rest: the pair of interned
partitions left after one row decrement per class node.  A class is the
run of removable j-nodes around its seed whose neighbours are (1)- or
(2)-connected: the (1)-link is a period once one bead moves down, the
(2)-link row arithmetic.  Two recursions read it.  adm_walk, feeding
forward and corollary, takes one class step per image of the walk,
keyed by the image pairs, and a rest is FLOTW exactly when adm_walk has
stepped it already; adm_flotw, behind `uglov show BP adm`, interns its
bipartition into a table of its own and asks is_uglov of each rest.
Propb and removable_class read the class step too.  A Bipartition or a
Node is built only for an error text or for a caller that asks for one.

The forward, corollary and propb sweeps each read the pairs of one
isomorphism.image_walk to the fundamental charge.  The forward sweep
keys its Fock vectors by the image pairs, sums them over the pairs of
the walk's table at its own charge, and reads each pair's bead key, sort
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
from typing import Callable

from .crystal import (
    ROOT,
    CrystalParams,
    RimTable,
    f_action,
    is_uglov,
    layer_walk,
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
)
from .isomorphism import fundamental, image_walk, psi_to, require_fundamental


def period(beads1, beads2, e: int) -> bool:
    """Whether the beads of component 1 and of component 2 (each a set
    of contents, or a dict keyed by them) hold a period: beads at e
    contents x..x+e-1 with weakly increasing components, a run of
    component-1 beads, then one of component-2 beads.  From each bead
    the run stays in component 1 while it can: a chain that leaves it
    sooner needs component-2 beads at every content this one does."""
    for x in (*beads1, *beads2):
        j, end = x, x + e
        while j < end and j in beads1:
            j += 1
        while j < end and j in beads2:
            j += 1
        if j == end:
            return True
    return False


def _partner(node: tuple, p: CrystalParams) -> tuple:
    # The (2)-link: the place (a2, b, 3 - c) of the shifted equal-part
    # partner of the removable node (a, b, c), at a fundamental charge.
    a, b, c = node
    (s1, s2), e = p.charge, p.e
    return (a + s2 - s1, b, 2) if c == 1 else (a + e + s1 - s2, b, 1)


def _connected_class(seed: tuple, nodes: list, rows: list,
                     p: CrystalParams) -> list:
    # The class of seed among nodes, a bipartition's removable j-nodes as
    # (a, b, c), increasing, where rows[c - 1] maps each bead of component
    # c (the content of a row's last node) to its row.  Nodes g1 < g2 are
    # (1)-linked when removing g2 leaves a period, which is blind to g1:
    # g2's bead moves one content down, or leaves with its row when b = 1.
    # So the (1)-links fill the run nodes[0..top], top the highest such g2,
    # and a (2)-partner in nodes is the node just below: that of (a, b, 1)
    # at content x has content x and node_key one less, that of (a, b, 2)
    # has content x - e, and no j-node has a content between.  So the class
    # is the run of linked neighbours around seed.
    def moved(i):  # (beads1, beads2) once nodes[i] is removed
        a, b, c = nodes[i]
        x = b - a + p.charge[c - 1]
        out = list(rows)
        out[c - 1] = rows[c - 1].keys() - {x} | ({x - 1} if b > 1 else set())
        return out

    top = next((i for i in range(len(nodes) - 1, 0, -1)
                if period(*moved(i), p.e)), 0)

    def linked(i):  # nodes[i - 1] and nodes[i]
        return i <= top or _partner(nodes[i], p) == nodes[i - 1]

    lo = hi = nodes.index(seed)
    while lo > 0 and linked(lo):
        lo -= 1
    while hi + 1 < len(nodes) and linked(hi + 1):
        hi += 1
    return nodes[lo:hi + 1]


def class_step(table: RimTable, pair: tuple) -> tuple:
    """(j, class, normal, rest) of a nonempty pair of table, a RimTable
    at a fundamental charge: the class of its largest normal removable
    node, of residue j, and its normal removable j-nodes, both increasing,
    each node a plain (a, b, c), and rest the pair left once the class is
    removed, None unless the class is the top normal j-nodes.
    AssertionError if the pair has no normal removable node.

    One pass over the pair's two stored rims, merged, with a stack of
    uncancelled removable nodes per residue id, leaves the normal
    removable nodes.  The seed is the largest normal removable node, not
    the largest removable node, which a larger addable node of its
    residue can cancel (e.g. (1,1,2) in ((1),(1)) at e=3, s=(0,1), below
    the addable (1,2,1)): the removed set would not be normal nodes, and
    the monomial of Adm would overshoot the bipartition.  A removable
    node's key 2x - c gives its component c and content x, and its row
    is the row whose bead is x.  The rest takes one from the row of each
    class node, so it is interned, not peeled.
    """
    (rims1, rims2), read = table.rims, table.read
    i1, i2 = pair
    entries = (rims1[i1] or read(1, i1)) + (rims2[i2] or read(2, i2))
    entries.sort()
    stacks = [[] for _ in table.residues]
    for entry in entries:
        rems = stacks[entry[1]]
        if entry[2] is None:
            rems.append(entry)
        elif rems:
            rems.pop()
    seed = max((rems[-1] for rems in stacks if rems), default=None)
    if seed is None:
        raise AssertionError("no normal removable node on %r"
                             % (table.bipartition(pair),))
    p, rid, parts = table.p, seed[1], table.parts
    (s1, s2), lam1, lam2 = p.charge, parts[i1], parts[i2]
    rows = [{x: a for a, x in enumerate(beta_set(lam1, s1), 1)},
            {x: a for a, x in enumerate(beta_set(lam2, s2), 1)}]
    js = [g for g in entries if g[2] is None and g[1] == rid]
    nodes = []
    for key, _, _ in js:  # (a, b, c) from the key 2x - c and x's row
        c = 2 - (key & 1)
        x = (key + c) >> 1
        a = rows[c - 1][x]
        nodes.append((a, x - p.charge[c - 1] + a, c))
    normal = [nodes[js.index(g)] for g in stacks[rid]]
    cls = _connected_class(normal[-1], nodes, rows, p)
    rest = None
    if cls == normal[len(normal) - len(cls):]:
        left = [list(lam1), list(lam2)]
        for a, b, c in cls:
            left[c - 1][a - 1] = b - 1
        rest = (table.intern(tuple(filter(None, left[0]))),
                table.intern(tuple(filter(None, left[1]))))
    return table.residues[rid], cls, normal, rest


def class_error(table: RimTable, pair: tuple, j, cls: list) -> str:
    """The text of a class step whose class is not the top normal
    j-nodes."""
    return ("class %r is not the top normal %r-nodes of %r"
            % ([Node(*g) for g in cls], j, table.bipartition(pair)))


def _interned(bp: Bipartition, p: CrystalParams) -> tuple:
    """(table, pair): bp as a pair of a new RimTable at p."""
    table = RimTable(p)
    return table, (table.intern(bp.c1), table.intern(bp.c2))


def removable_class(bp: Bipartition, seed: Node,
                    p: CrystalParams) -> list[Node]:
    """Equivalence class of the maximal normal removable node under the
    transitive closure of (1)- and (2)-connectedness, increasing, as
    class_step finds it; ValueError for another seed.  Kept for
    perfbench."""
    require_fundamental(p)
    try:
        _, cls, normal, _ = class_step(*_interned(bp, p))
    except AssertionError:  # no normal removable node: no seed is right
        normal = []
    if seed not in normal[-1:]:
        raise ValueError("seed %r is not the maximal normal removable node"
                         % (seed,))
    return [Node(*g) for g in cls]


def adm_flotw(bp: Bipartition, p: CrystalParams) -> list:
    """Admissible residue sequence by successive class steps,
    Adm(bp) = Adm(rest) followed by [j]^r for a class of r nodes.  At a
    fundamental charge the FLOTW bipartitions are the Uglov ones, so bp
    and each rest are tested in the crystal, with is_uglov:
    AssertionError if a class is not the top normal j-nodes or a rest is
    not FLOTW."""
    require_fundamental(p)
    if not is_uglov(bp, p):
        raise ValueError("%r is not FLOTW at %r" % (bp, p))
    table, pair = _interned(bp, p)
    out = []
    while pair != ROOT:
        j, cls, _, rest = class_step(table, pair)
        if rest is None:
            raise AssertionError(class_error(table, pair, j, cls))
        if not is_uglov(table.bipartition(rest), p):
            raise AssertionError("class removal left non-FLOTW %r"
                                 % (table.bipartition(rest),))
        out[:0] = [j] * len(cls)
        pair = rest
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
    is the pair's image, a pair of dst, and found is (Adm of the pair's
    bipartition, (j, r, rest) of image's class step, None if empty) or
    the AssertionError text of the first failing class step from image
    down to empty.  The rest of each step, a pair of dst of lower rank,
    already holds its found: Adm(bp) = Adm(rest) followed by [j]^r.

    The images, in increasing rank, are the FLOTW bipartitions of the
    walk's ranks, so a rest is FLOTW exactly when done holds it: no rest
    is peeled.
    """
    _, dst, images = walk
    done = {ROOT: ([], None)}  # image -> found; psi is a bijection
    for pair, image in images.items():
        if image != ROOT:
            try:
                j, cls, _, rest = class_step(dst, image)
            except AssertionError as exc:
                done[image] = str(exc)
            else:
                if rest is None:
                    below = class_error(dst, image, j, cls)
                else:
                    below = (done.get(rest)
                             or "class removal left non-FLOTW %r"
                             % (dst.bipartition(rest),))
                done[image] = (below if isinstance(below, str)
                               else (below[0] + [j] * len(cls),
                                     (j, len(cls), rest)))
        yield pair, image, done[image]


def verify_djm_forward(n: int, p: CrystalParams):
    """Yield (line, 1, failed) for every Uglov bipartition bp of rank
    <= n: failed is 0 when bp is the strict Uglov maximum of its Adm
    monomial, and its report has keys adm, bp, expansion, max and pass,
    or bp, error and pass when the walk fails on bp.

    Adm comes from adm_walk, and the vector of each image's monomial,
    f-operators applied oldest residue first, is the vector of its rest
    extended by r f_action steps over the pairs of the walk's table at
    p, so each component partition's rim at p is read once.  The vectors
    are keyed by the images, pairs of the walk's table at the
    fundamental charge, as adm_walk's rests are.  Before the
    walk each pair of rank <= n gets its bead key, for the maximum, its
    sort key and its JSON text, so a line costs no call per term.
    """
    table, _, _ = walk = image_walk(n, p, fundamental(p).charge)  # at p
    vecs = {ROOT: {ROOT: 1}}  # image pair -> its Adm monomial's vector
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
    class_step of bp's image_walk image at the fundamental charge; the
    natures of bp come from one cache of nature_core, one core per
    component partition of the sweep."""
    src, dst, images = image_walk(n, p, fundamental(p).charge)
    core = cache(nature_core)
    for pair, image in images.items():
        bp = src.bipartition(pair)
        failures = ([] if bp == EMPTY else _propb_failures(
            bp, dst, image, p, core))
        yield (json.dumps({"bp": bipartition_to_json(bp),
                           "pass": not failures, "failures": failures},
                          sort_keys=True), 1, int(bool(failures)))


def _propb_failures(bp: Bipartition, dst: RimTable, image: tuple,
                    p: CrystalParams, core: Callable) -> list:
    """The propb failures of bp, whose image at the fundamental charge is
    the pair image of dst, the walk's table there.

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
    j, cls, normal_lam, rest = class_step(dst, image)
    # at the fundamental charge bp is its own image
    normal_mu = (normal_lam if p == dst.p
                 else signature_word(bp, p).get(j, ([], []))[1])
    out = ([] if rest is not None else
           ["class is not the top normal nodes at the fundamental charge"])
    if len(normal_mu) != len(normal_lam):
        return out + ["normal-node count not preserved by the isomorphism"]
    if len(cls) > len(normal_mu):  # then the class failed: no eta1
        return out
    eta1 = Node(*normal_mu[len(normal_mu) - len(cls)])
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
