"""Crystal isomorphisms between Uglov sets at different charges.

The isomorphisms relate charges in one orbit of the extended affine
symmetric group, generated by (s1,s2) -> (s2,s1), (s1+e,s2) and
(s1,s2+e).  Each orbit meets the fundamental domain 0 <= s1 <= s2 < e
once, at the sorted residues mod e.  The charge-change bijection is
computed by peeling a bipartition to empty at the start charge
(recording the residues of the good nodes removed) and rebuilding along
the reversed residue word at the end charge; being a crystal
isomorphism fixing the empty bipartition, this is forced to agree with
the map itself.

A sweep over a whole crystal component needs no peeling: psi_images
walks the good edges of the component once and adds one good node per
image; at its own charge, where the isomorphism is the identity, it
lists the component's uglov_layers.  It feeds four sweeps:
verify_psi_nature checks its images against the sigma1 nature table,
and at the fundamental charge propb reads their classes and
admissible.adm_walk the Adm of the forward and corollary sweeps.

psi_nature_check reads each component as its core (diagrams.nature_core)
through a reader that its sweep owns, one functools.cache of nature_core:
the swap moves each partition between the two charges, and its core is
built once.  Below the core a component is a run of virtual Bv, above
it a run of virtual Bh.  Only the cores and one content of the gap
between the cores at s1 and those at s2 are compared, so the check
costs O(rank) at any charge.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Optional

from .crystal import (
    ROOT,
    CrystalParams,
    RimTable,
    edge_walk,
    good_addable_node,
    good_additions,
    peel_word,
    uglov_layers,
)
from .diagrams import (
    BH,
    BV,
    EMPTY,
    Bipartition,
    add_node,
    bipartition_json_text,
    nature_core,
)


def reduce_to_fundamental(charge, e: Optional[int]) -> tuple[int, int]:
    """The fundamental-domain member of the orbit of charge; at e = None
    (no translations) the orbit is the charge and its swap."""
    if e is None:
        return tuple(sorted(charge))
    s1, s2 = charge
    return tuple(sorted((s1 % e, s2 % e)))


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
    p_to = CrystalParams(e, tuple(charge_to))
    return rebuild_from_residues(reversed(word), p_to)


def psi_images(n: int, p_from: CrystalParams, charge_to) -> dict:
    """{bp: psi_to(bp, p_from.charge, charge_to, p_from.e)} for every
    Uglov bipartition bp of rank <= n at p_from, in increasing rank.

    The isomorphism fixes the empty bipartition and commutes with the
    crystal operators, so along each good edge (bp, j, dst) the image of
    dst is the image of bp plus its good j-node at charge_to.  The walk
    runs on pairs of two RimTables, one per charge.  The edges of one bp
    arrive together, and the good additions of its image are read once,
    in a good_additions batch of one, when the first of them reaches a
    new dst: at most one scan per image.  At its own charge the
    isomorphism is the identity, read from uglov_layers with no image
    scanned.
    """
    require_same_orbit(p_from.charge, charge_to, p_from.e)
    p_to = CrystalParams(p_from.e, tuple(charge_to))
    if p_to == p_from:
        return {bp: bp for layer in uglov_layers(n, p_from) for bp in layer}
    src, dst = RimTable(p_from), RimTable(p_to)
    images = {ROOT: ROOT}  # pair of src -> pair of dst
    last = kids = None
    for pair, j, kid in edge_walk(n, src):
        if kid in images:
            continue
        if pair != last:
            last, (_, kids) = pair, next(good_additions((images[pair],), dst))
        if j not in kids:
            raise ValueError("no good addable %r-node on %r"
                             % (j, dst.bipartition(images[pair])))
        images[kid] = kids[j]
    return {src.bipartition(pair): dst.bipartition(image)
            for pair, image in images.items()}


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


def psi_nature_check(bp: Bipartition, image: Bipartition, charge,
                     core: Callable) -> bool:
    """Per-content nature pairs of bp at charge (s1, s2) and of its image
    at (s2, s1) must transform along the sigma1 table.

    The table maps the pairs at the charge (s1, s2) with s1 <= s2 to those
    at its swap, so when s1 > s2 it maps the image's pairs to bp's.

    The four components are read through core, nature_core or the
    sweep's cache of it, each placed at its floor s - len(lam) and ending
    below floor + len(core).  Below its core a component is all Bv,
    above it all Bh, and (Bv, Bv) and (Bh, Bh) map to themselves, so
    only the contents of the cores count.  The core of a component of
    charge s holds s, so the two cores at s1 make one interval and the
    two at s2 >= s1 another.  In a gap between the two intervals every
    component is constant, so the cores at s2 move down by d until the
    gap is one content: the check reads O(rank) contents at any charge.
    """
    s1, s2 = charge
    if s1 > s2:
        bp, image, s1, s2 = image, bp, s2, s1
    k1, m2, k2, m1 = (core(bp.c1), core(image.c2), core(bp.c2),
                      core(image.c1))
    f1, g2 = s1 - len(bp.c1), s1 - len(image.c2)  # the floors
    f2, g1 = s2 - len(bp.c2), s2 - len(image.c1)
    t1, u2, t2, u1 = f1 + len(k1), g2 + len(m2), f2 + len(k2), g1 + len(m1)
    d = max(min(f2, g1) - max(t1, u2) - 1, 0)
    lo, hi = min(f1, g2, f2, g1), max(t1, u2, t2 - d, u1 - d)
    return SIGMA1_NATURE_PAIRS.issuperset(zip(
        (BV,) * (f2 - d - lo) + k2 + (BH,) * (hi - t2 + d),
        (BV,) * (f1 - lo) + k1 + (BH,) * (hi - t1),
        (BV,) * (g2 - lo) + m2 + (BH,) * (hi - u2),
        (BV,) * (g1 - d - lo) + m1 + (BH,) * (hi - u1 + d)))


def verify_psi_nature(n: int, p: CrystalParams):
    """Yield (line, ok) per Uglov bipartition bp of rank <= n at p, where
    ok is the psi_nature_check of bp and its psi_images image at the
    swapped charge, through one cache of nature_core (one core per
    partition of the sweep), and line its report as json.dumps(report,
    sort_keys=True) writes it, with keys bp, image and pass, joined from
    the bipartitions' JSON texts."""
    core = cache(nature_core)
    for bp, image in psi_images(n, p, p.charge[::-1]).items():
        ok = psi_nature_check(bp, image, p.charge, core)
        yield ('{"bp": %s, "image": %s, "pass": %s}'
               % (bipartition_json_text(bp), bipartition_json_text(image),
                  "true" if ok else "false"), ok)
