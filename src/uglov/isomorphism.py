"""Crystal isomorphisms between Uglov sets at different charges.

The isomorphisms relate charges in one orbit of the extended affine
symmetric group, generated by (s1,s2) -> (s2,s1), (s1+e,s2) and
(s1,s2+e).  Each orbit meets the fundamental domain 0 <= s1 <= s2 < e
once, at the sorted residues mod e: fundamental(p) moves p there, and
require_fundamental(p) checks that p is there, so the domain has this
one definition.  The charge-change bijection is computed by peeling a
bipartition to empty at the start charge (recording the residues of the
good nodes removed) and rebuilding along its good-addition word at the
end charge; being a crystal isomorphism fixing the empty
bipartition, this is forced to agree with the map itself.

A sweep over a whole crystal component needs no peeling: image_walk
walks the component in two RimTables, one per charge, one good_additions
batch per layer at each in lockstep, and maps each pair to its image
pair; at its own charge, where the isomorphism is the identity, it is
one layer_walk with no image scanned.  The image sweeps read its pairs:
admissible's forward, corollary and propb sweeps to the fundamental
charge, and verify_psi_nature to the swapped one.  That sweep reads each
partition of each table once, by id, whichever component holds it, into
a slot holding its JSON text, its core (diagrams.nature_core, through
one functools.cache shared by both tables) and its length, and joins
each line from the stored texts; a floor s_c - len(lam) is where a core
starts, and psi_nature_check takes the four cores and floors.  Below the
core a component is a run of virtual Bv, above it a run of virtual Bh.
Only the cores and one content of the gap between the cores at s1 and
those at s2 are compared, so the check costs O(rank) at any charge.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Optional

from .crystal import (
    ROOT,
    CrystalParams,
    RimTable,
    good_addable_node,
    good_additions,
    layer_walk,
    peel_word,
)
from .diagrams import (
    BH,
    BV,
    EMPTY,
    Bipartition,
    add_node,
    nature_core,
)


def reduce_to_fundamental(charge, e: Optional[int]) -> tuple[int, int]:
    """The fundamental-domain member of the orbit of charge; at e = None
    (no translations) the orbit is the charge and its swap."""
    if e is None:
        return tuple(sorted(charge))
    s1, s2 = charge
    return tuple(sorted((s1 % e, s2 % e)))


def fundamental(p: CrystalParams) -> CrystalParams:
    """p at the fundamental member of its orbit, where Adm is read."""
    if p.e is None:
        raise ValueError("admissible sequences need finite e")
    return CrystalParams(p.e, reduce_to_fundamental(p.charge, p.e))


def require_fundamental(p: CrystalParams):
    """Raise ValueError unless e is finite and the charge fundamental."""
    if p.e is None or tuple(p.charge) != reduce_to_fundamental(p.charge, p.e):
        raise ValueError("charge %r not in the fundamental domain for e=%r"
                         % (p.charge, p.e))


def require_same_orbit(c1, c2, e: Optional[int]):
    """Raise ValueError unless the two charges are in one orbit."""
    if reduce_to_fundamental(c1, e) != reduce_to_fundamental(c2, e):
        raise ValueError("charges %r and %r are not in one orbit" % (c1, c2))


# ---------------------------------------------------------------------------
# peel / rebuild

def peel_residues(bp: Bipartition, p: CrystalParams) -> list:
    """The peel_word of bp, which must be Uglov.

    Several residues may admit a removal and peel_word takes the
    smallest; any valid choice rebuilds to the same image since the
    isomorphism commutes with the crystal operators.
    """
    word = peel_word(bp, p)
    if word is None:
        raise ValueError("%r is not Uglov at charge %r" % (bp, p.charge))
    return word


def rebuild_from_residues(word, p: CrystalParams) -> Bipartition:
    """Good additions along word from empty; ValueError if one is missing."""
    bp = EMPTY
    for j in word:
        g = good_addable_node(bp, j, p)
        if g is None:
            raise ValueError("no good addable %r-node on %r" % (j, bp))
        bp = add_node(bp, g)
    return bp


def psi_to(bp: Bipartition, charge_from, charge_to,
           e: Optional[int]) -> Bipartition:
    """Image of bp under the crystal isomorphism between the two charges."""
    require_same_orbit(charge_from, charge_to, e)
    word = peel_residues(bp, CrystalParams(e, tuple(charge_from)))
    return rebuild_from_residues(word, CrystalParams(e, tuple(charge_to)))


def image_walk(n: int, p_from: CrystalParams, charge_to):
    """(src, dst, images): src a RimTable at p_from, dst one at charge_to
    and images {pair: its image pair} for every Uglov bipartition of rank
    <= n at p_from, as a pair of src, in increasing rank.

    The isomorphism fixes the empty bipartition and commutes with the
    crystal operators, so along each good edge (bp, j, kid) the image of
    kid is the image of bp plus its good j-node at charge_to.  Each layer
    is one good_additions batch at p_from, zipped in lockstep with one
    batch of its images at charge_to: one scan per bipartition below
    rank n at each charge.  At its own charge the isomorphism is the
    identity over one layer_walk, dst is src, and no image is scanned.
    """
    require_same_orbit(p_from.charge, charge_to, p_from.e)
    p_to = CrystalParams(p_from.e, tuple(charge_to))
    src = RimTable(p_from)
    if p_to == p_from:
        return src, src, {pair: pair for layer in layer_walk(n, src)
                          for pair in layer}
    dst = RimTable(p_to)
    images = {ROOT: ROOT}
    layer = [ROOT]
    for _ in range(n):
        nxt = []
        for (_, good), (image, kids) in zip(
                good_additions(layer, src),
                good_additions([images[pair] for pair in layer], dst)):
            for j, kid in good.items():
                if kid in images:
                    continue
                if j not in kids:
                    raise ValueError("no good addable %r-node on %r"
                                     % (j, dst.bipartition(image)))
                images[kid] = kids[j]
                nxt.append(kid)
        layer = nxt
    return src, dst, images


# ---------------------------------------------------------------------------
# checks on the sigma1 bijection

# Nature pairs (component 2, component 1) at one content, and the pairs
# they may become under the component-swap bijection.
SIGMA1_NATURE_MAP = {
    ("R", "R"): {("R", "R")},
    ("A", "R"): {("A", "R")},
    ("Bv", "R"): {("R", "Bv"), ("Bv", "R")},
    ("Bh", "R"): {("Bh", "R")},
    ("R", "A"): {("R", "A"), ("Bh", "Bv")},
    ("A", "A"): {("A", "A")},
    ("Bv", "A"): {("Bv", "A"), ("A", "Bv")},
    ("Bh", "A"): {("Bh", "A")},
    ("R", "Bh"): {("R", "Bh"), ("Bh", "R")},
    ("A", "Bh"): {("A", "Bh"), ("Bh", "A")},
    ("Bv", "Bh"): {("R", "A"), ("Bv", "Bh"), ("Bh", "Bv")},
    ("Bh", "Bh"): {("Bh", "Bh")},
    ("R", "Bv"): {("R", "Bv")},
    ("A", "Bv"): {("A", "Bv")},
    ("Bv", "Bv"): {("Bv", "Bv")},
    ("Bh", "Bv"): {("Bh", "Bv")},
}


# The (component 2, component 1) pairs before and after, flattened into
# one set of 4-tuples: a content passes when its tuple is in it.
SIGMA1_NATURE_PAIRS = frozenset(before + after
                                for before, afters in SIGMA1_NATURE_MAP.items()
                                for after in afters)


def psi_nature_check(k1, f1, k2, f2, m1, g1, m2, g2) -> bool:
    """Per-content nature pairs of bp at charge (s1, s2), s1 <= s2, and
    of its image at (s2, s1) must transform along the sigma1 table.

    Each component is given as its core (diagrams.nature_core) and its
    floor s - len(lam), where its core starts; it ends below floor +
    len(core): k1, f1 for bp's component 1 at s1 and k2, f2 for its
    component 2 at s2, m1, g1 for the image's component 1 at s2 and
    m2, g2 for its component 2 at s1.  The table maps the pairs at the
    charge with s1 <= s2 to those at its swap, so for a bp whose charge
    has s1 > s2 the caller passes its image as bp, and bp as the image.

    Below its core a component is all Bv, above it all Bh, and (Bv, Bv)
    and (Bh, Bh) map to themselves, so only the contents of the cores
    count.  The core of a component of charge s holds s, so the two
    cores at s1 make one interval and the two at s2 >= s1 another.  In a
    gap between the two intervals every component is constant, so the
    cores at s2 move down by d until the gap is one content: the check
    reads O(rank) contents at any charge.
    """
    t1, u2, t2, u1 = f1 + len(k1), g2 + len(m2), f2 + len(k2), g1 + len(m1)
    d = max(min(f2, g1) - max(t1, u2) - 1, 0)
    lo, hi = min(f1, g2, f2, g1), max(t1, u2, t2 - d, u1 - d)
    return SIGMA1_NATURE_PAIRS.issuperset(zip(
        (BV,) * (f2 - d - lo) + k2 + (BH,) * (hi - t2 + d),
        (BV,) * (f1 - lo) + k1 + (BH,) * (hi - t1),
        (BV,) * (g2 - lo) + m2 + (BH,) * (hi - u2),
        (BV,) * (g1 - d - lo) + m1 + (BH,) * (hi - u1 + d)))


def _slots(table: RimTable, core: Callable):
    """(slots, fill): one slot per partition id of table, None until
    fill(i) stores (its JSON text, table.text(i); its core; its length)
    there and returns it."""
    parts = table.parts
    slots = [None] * len(parts)

    def fill(i):
        lam = parts[i]
        slots[i] = slot = (table.text(i), core(lam), len(lam))
        return slot

    return slots, fill


def verify_psi_nature(n: int, p: CrystalParams):
    """Yield (line, 1, failed) per Uglov bipartition bp of rank <= n at
    p: failed is 0 when bp and its image_walk image at the swapped charge
    pass psi_nature_check, and line is json.dumps(report, sort_keys=True)
    of its report, with keys bp, image and pass.

    Each table's partition is read once, by id, into a slot holding its
    JSON text, its core and its length, whichever component holds it,
    and a component's floor is s_c minus that length; one cache of
    nature_core serves both tables, so each distinct partition's core is
    built once.
    """
    src, dst, images = image_walk(n, p, p.charge[::-1])
    core = cache(nature_core)
    a, read_a = _slots(src, core)
    b, read_b = (a, read_a) if dst is src else _slots(dst, core)
    (s1, s2), swapped = p.charge, p.charge[0] > p.charge[1]
    for (i1, i2), (j1, j2) in images.items():
        t1, k1, l1 = a[i1] or read_a(i1)
        t2, k2, l2 = a[i2] or read_a(i2)
        u1, m1, h1 = b[j1] or read_b(j1)
        u2, m2, h2 = b[j2] or read_b(j2)
        f1, f2, g1, g2 = s1 - l1, s2 - l2, s2 - h1, s1 - h2
        if swapped:
            ok = psi_nature_check(m1, g1, m2, g2, k1, f1, k2, f2)
        else:
            ok = psi_nature_check(k1, f1, k2, f2, m1, g1, m2, g2)
        yield ('{"bp": {"c1": %s, "c2": %s}, '
               '"image": {"c1": %s, "c2": %s}, "pass": %s}'
               % (t1, t2, u1, u2, "true" if ok else "false"), 1, int(not ok))
