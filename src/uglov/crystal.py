"""Integral Fock-space operators, good nodes and Uglov membership.

CrystalParams bundles e (None for infinity) with the charge (s1, s2).

A walk reads one RimTable per charge: layer_walk one at its parameters,
isomorphism.image_walk one at each end.  The table interns each
partition as a small int on first sight, one id whichever component
holds it, so a bipartition of the walk is a pair (id1, id2), and each
residue it meets as a small int too.  It reads each interned partition's
rim once per component: its addable and removable nodes with their
residue ids, and for each addable node the id of the grown partition.
good_additions scans a batch of pairs, a whole layer in one call, each
pair from its two stored rims with a list of counters indexed by residue
id, and a child swaps one id.  layer_walk is the one walk of the crystal
component of the empty bipartition, one batch per layer: uglov_layers
lists its layers, top_layer keeps the last for `uglov enumerate`, sorted
by RimTable.order and written from RimTable.json, cli.render_dot scans
each layer below n again for its edges, and isomorphism.image_walk zips
each layer's batch with one batch of its images in a second table.
RimTable.ranked lays out a rank in Uglov order by its bead_keys, for
admissible's sweeps.  Bipartitions are built only where a caller reads
them.  A Fock vector is a dict pair -> positive int over one table, its
keys of one rank: f_action swaps in the child ids of each pair's addable
j-nodes, which RimTable.children lists by residue, and expand_monomial
returns its vector over Bipartitions.  A residue word lists its residues
in the order their nodes are added, so expand_monomial applies word[0]
first.

normal_nodes applies the signature rule over a whole rim (diagrams.rim),
listing every residue's normal addable and normal removable nodes as rim
entries, for the readers of one bipartition: greedy peeling and
signature_word, its view with Node values.  The class steps of
admissible run the same rule on a pair's stored rims, by residue id.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .diagrams import (
    EMPTY,
    Bipartition,
    Node,
    bead_mask,
    bead_shifts,
    component_rim,
    grow_partition,
    partitions_of,
    remove_node,
    rim,
)


class CrystalParams(NamedTuple):
    e: Optional[int]  # None means e = infinity
    charge: tuple[int, int]


def _check_e(e):
    if e is not None and e < 2:
        raise ValueError("e must be >= 2 or None (infinity), got %r" % (e,))


ROOT = (0, 0)  # the empty bipartition in every RimTable


class RimTable:
    """The component partitions of one walk at p, each interned once as
    a small int on first sight, whichever component holds it, and their
    rims, each read once per component.

    parts maps an id to its partition and ids a partition to its id, one
    id space for both components: a partition's text, bead mask and core
    do not depend on its component.  Its rim does, through s_c and the
    key parity c, so rims[c - 1] maps an id to its rim in component c,
    None until read.  A rim lists the addable and removable nodes of the
    partition at charge s_c as (node_key, rid, child), increasing, where
    rid is the id of the node's residue, residues[rid], and child is the
    id of the partition grown at an addable node and None at a removable
    one.  The residues are interned as the rims meet them, rids their
    inverse, so residues holds only the residues met, at any e.
    kids[c - 1] maps an id to its children in component c, None until
    asked for.  The id 0 is the empty partition, so ROOT is the empty
    bipartition.  beads[m] holds each partition of m as (id, bead_mask,
    2 * length), for bead_keys.

    order() ranks the pairs interned so far as their Bipartitions
    compare, text(i) is partition i as JSON text, kept once written, and
    json(pair) joins a pair's, so a listing is sorted and written from
    ids.  ranked(k) lays out rank k in Uglov order.
    """

    def __init__(self, p: CrystalParams):
        _check_e(p.e)
        self.p = p
        self.parts, self.ids, self.texts = [()], {(): 0}, {}
        self.rims = ([None], [None])
        self.kids = ([None], [None])
        self.residues, self.rids, self.beads = [], {}, []

    def intern(self, lam: tuple[int, ...]) -> int:
        i = self.ids.get(lam)
        if i is None:
            i = self.ids[lam] = len(self.parts)
            self.parts.append(lam)
            for store in self.rims + self.kids:
                store.append(None)
        return i

    def rid(self, j) -> int:
        """The id of residue j, interned on first sight."""
        rid = self.rids.get(j)
        if rid is None:
            rid = self.rids[j] = len(self.residues)
            self.residues.append(j)
        return rid

    def read(self, c: int, i: int) -> list:
        """The rim of partition i of component c, read on first call."""
        rims = self.rims[c - 1]
        if rims[i] is None:
            lam, e = self.parts[i], self.p.e
            rims[i] = [(key, self.rid(cont if e is None else cont % e),
                        None if rem else self.intern(grow_partition(
                            lam, a, b)))
                       for key, cont, rem, a, b, _
                       in component_rim(lam, self.p.charge[c - 1], c)]
        return rims[i]

    def children(self, c: int, i: int) -> dict:
        """{j: the ids of partition i of component c grown at each of
        its addable j-nodes, in rim order}, built from its rim on first
        call."""
        kids = self.kids[c - 1]
        if kids[i] is None:
            out, residues = {}, self.residues
            for _, rid, child in self.read(c, i):
                if child is not None:
                    out.setdefault(residues[rid], []).append(child)
            kids[i] = out
        return kids[i]

    def bipartition(self, pair: tuple[int, int]) -> Bipartition:
        return Bipartition(self.parts[pair[0]], self.parts[pair[1]])

    def order(self):
        """A key function pair -> int that orders the pairs interned so
        far as their Bipartitions compare: component 1 first, then
        component 2, each by the rank of its partition among parts,
        sorted."""
        parts = self.parts
        rank = [0] * len(parts)
        for r, i in enumerate(sorted(range(len(parts)),
                                     key=parts.__getitem__)):
            rank[i] = r
        width = len(rank)
        return lambda pair: rank[pair[0]] * width + rank[pair[1]]

    def text(self, i: int) -> str:
        """Partition i as JSON text, json.dumps of its list, written on
        first call."""
        out = self.texts.get(i)
        if out is None:
            out = self.texts[i] = str(list(self.parts[i]))
        return out

    def json(self, pair: tuple[int, int]) -> str:
        """json.dumps(bipartition_to_json(bp)) of pair's bp, by text."""
        return '{"c1": %s, "c2": %s}' % (self.text(pair[0]),
                                         self.text(pair[1]))

    def bead_keys(self, k: int) -> dict:
        """{pair: its bead key} over every bipartition of rank k, interned
        here: its components' bead masks, shifted by diagrams.bead_shifts
        at rank k and ORed, so keys compare in Uglov order."""
        beads = self.beads
        for m in range(len(beads), k + 1):
            beads.append([(self.intern(lam), bead_mask(lam), 2 * len(lam))
                          for lam in partitions_of(m)])
        t1, t2 = bead_shifts(self.p.charge, k)
        return {(i1, i2): mask1 << t1 - d1 | mask2 << t2 - d2
                for m in range(k + 1) for i1, mask1, d1 in beads[m]
                for i2, mask2, d2 in beads[k - m]}

    def ranked(self, k: int) -> list:
        """The pairs of every bipartition of rank k, interned here, in
        increasing Uglov order (bead_keys), so a maximum is listed last."""
        keys = self.bead_keys(k)
        return sorted(keys, key=keys.__getitem__)


def good_additions(pairs, table: RimTable):
    """Yield (pair, good) for each pair of pairs, in order, where good is
    {j: the pair of bp plus its good addable j-node} over every residue
    j that has one, and pair is bp in table.  One call scans a batch,
    such as a whole layer, reading the table's rims once per batch.

    The two stored component rims, merged, are the rim of bp (keys are
    odd in component 1 and even in component 2).  Read in increasing
    node order, an addable j-node is normal exactly when no uncancelled
    removable j-node waits below it, and otherwise cancels one; the good
    one is the last normal one.  So one pass with a counter of waiting
    removable nodes per residue finds every good node, and its child
    swaps one id of the pair.  The counter is a list indexed by residue
    id, over the residues the table has met, so a scan costs the same at
    any e.
    """
    (rims1, rims2), read = table.rims, table.read
    residues = table.residues
    for pair in pairs:
        i1, i2 = pair
        entries = (rims1[i1] or read(1, i1)) + (rims2[i2] or read(2, i2))
        entries.sort()
        waiting, good = [0] * len(residues), {}
        for key, rid, child in entries:
            if child is None:
                waiting[rid] += 1
            elif waiting[rid]:
                waiting[rid] -= 1
            else:
                good[residues[rid]] = (child, i2) if key & 1 else (i1, child)
        yield pair, good


def f_action(vec: dict, j, table: RimTable) -> dict:
    """Linear extension of: sum over mu obtained by adding a j-node, for
    vec a Fock vector over the pairs of table, read from the children of
    each pair's two components.  Coefficients are positive, so no term
    cancels.  The caller shares table between the calls of one sweep, so
    each component partition's rim is read once."""
    kids1, kids2 = table.kids
    out: dict = {}
    for pair, coeff in vec.items():
        i1, i2 = pair
        for child in (kids1[i1] or table.children(1, i1)).get(j, ()):
            kid = (child, i2)
            out[kid] = out.get(kid, 0) + coeff
        for child in (kids2[i2] or table.children(2, i2)).get(j, ()):
            kid = (i1, child)
            out[kid] = out.get(kid, 0) + coeff
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


# ---------------------------------------------------------------------------
# Uglov bipartitions

def peel_word(bp: Bipartition, p: CrystalParams) -> Optional[list]:
    """A good-addition word of bp, its good removals last first, or None.

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
    out.reverse()
    return out


def is_uglov(bp: Bipartition, p: CrystalParams) -> bool:
    """Reachable from the empty bipartition by good-node additions."""
    return peel_word(bp, p) is not None


def layer_walk(n: int, table: RimTable):
    """Yield layers 0..n of the crystal component of the empty
    bipartition, each a set of pairs of table: one good_additions batch
    per layer below n, one scan per bipartition.  Between yields it holds
    one layer, so a caller that keeps only the last holds two."""
    layer = {ROOT}
    yield layer
    for _ in range(n):
        nxt = set()
        for _, good in good_additions(layer, table):
            nxt.update(good.values())
        layer = nxt
        yield layer


def uglov_layers(n: int, p: CrystalParams) -> list[set[Bipartition]]:
    """Layers 0..n of the crystal component of the empty bipartition:
    the layers of one layer_walk."""
    table = RimTable(p)
    return [set(map(table.bipartition, layer))
            for layer in layer_walk(n, table)]


def top_layer(n: int, p: CrystalParams) -> tuple[RimTable, list]:
    """(table, pairs): layer n of the crystal component of the empty
    bipartition, the last layer of one layer_walk on table, which holds
    two layers at a time, as pairs sorted by table.order(), so as their
    Bipartitions compare."""
    table = RimTable(p)
    for layer in layer_walk(n, table):
        pass
    return table, sorted(layer, key=table.order())


# ---------------------------------------------------------------------------
# monomials in the Chevalley operators

def expand_monomial(word, p: CrystalParams) -> dict[Bipartition, int]:
    """Apply f-operators to the empty bipartition, first residue first."""
    vec, table = {ROOT: 1}, RimTable(p)
    for j in word:
        vec = f_action(vec, j, table)
    return {table.bipartition(pair): coeff for pair, coeff in vec.items()}
