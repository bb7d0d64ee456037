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
image.  It feeds four sweeps: verify_psi_nature checks its images
against the sigma1 nature table (one diagrams.nature_kinds pass per
component), and at the fundamental charge propb reads their classes and
admissible.adm_walk the Adm of the forward and corollary sweeps.
"""

from __future__ import annotations

from typing import Optional

from .crystal import (
    CrystalParams,
    crystal_edges,
    good_addable_node,
    good_additions,
    peel_word,
)
from .diagrams import (
    EMPTY,
    Bipartition,
    add_node,
    bipartition_to_json,
    default_window,
    nature_kinds,
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
    dst is the image of bp plus its good j-node at charge_to.  The edges
    of one bp arrive together, and the good additions of its image are
    read once, when the first of them reaches a new dst: at most one
    signature scan per image, through one table of component rims at
    charge_to for the walk.  At its own charge the isomorphism is the
    identity, and no image is scanned.
    """
    require_same_orbit(p_from.charge, charge_to, p_from.e)
    p_to = CrystalParams(p_from.e, tuple(charge_to))
    images = {EMPTY: EMPTY}
    if p_to == p_from:
        for _, _, dst in crystal_edges(n, p_from):
            images[dst] = dst
        return images
    last = kids = None
    table = {}  # component rims at charge_to, read once per walk
    for bp, j, dst in crystal_edges(n, p_from):
        if dst in images:
            continue
        if bp != last:
            last, kids = bp, dict(good_additions(images[bp], p_to, table))
        if j not in kids:
            raise ValueError("no good addable %r-node on %r"
                             % (j, images[bp]))
        images[dst] = kids[j]
    return images


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


def psi_nature_check(bp: Bipartition, image: Bipartition, charge) -> bool:
    """Per-content nature pairs of bp at charge (s1, s2) and of its image
    at (s2, s1) must transform along the sigma1 table.

    The table maps the pairs at the charge (s1, s2) with s1 <= s2 to those
    at its swap, so when s1 > s2 it maps the image's pairs to bp's.
    """
    s1, s2 = charge
    lo, hi = default_window(bp, charge)
    before = zip(nature_kinds(bp.c2, s2, lo, hi),
                 nature_kinds(bp.c1, s1, lo, hi))
    after = zip(nature_kinds(image.c2, s1, lo, hi),
                nature_kinds(image.c1, s2, lo, hi))
    if s1 > s2:
        before, after = after, before
    return all(a in SIGMA1_NATURE_MAP[b] for b, a in zip(before, after))


def verify_psi_nature(n: int, p: CrystalParams):
    """Yield one psi_nature_check report per Uglov bipartition of rank
    <= n at p, with its psi_images image at the swapped charge."""
    for bp, image in psi_images(n, p, p.charge[::-1]).items():
        yield {"bp": bipartition_to_json(bp),
               "image": bipartition_to_json(image),
               "pass": psi_nature_check(bp, image, p.charge)}


def psi_e_independence_check(bp: Bipartition, charge_from,
                             e: int) -> Optional[bool]:
    """The single-sigma1 map agrees with its e=infinity version.

    Returns None (not applicable) when bp is not Uglov for one of the
    two parameter values.
    """
    s1, s2 = charge_from
    if s1 > s2:
        raise ValueError("requires s1 <= s2, got %r" % (charge_from,))
    images = []
    for e_or_inf in (e, None):
        word = peel_word(bp, CrystalParams(e_or_inf, (s1, s2)))
        if word is None:
            return None
        images.append(rebuild_from_residues(reversed(word),
                                            CrystalParams(e_or_inf, (s2, s1))))
    return images[0] == images[1]
