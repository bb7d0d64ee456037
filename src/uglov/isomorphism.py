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
"""

from __future__ import annotations

from typing import Optional

from .crystal import (
    CrystalParams,
    add_node,
    good_addable_node,
    is_uglov,
    peel_word,
)
from .diagrams import EMPTY, Bipartition, nature_at


def reduce_to_fundamental(charge, e: int) -> tuple[int, int]:
    """The fundamental-domain member of the orbit of charge."""
    s1, s2 = charge
    return tuple(sorted((s1 % e, s2 % e)))


def same_orbit(c1, c2, e: int) -> bool:
    return reduce_to_fundamental(c1, e) == reduce_to_fundamental(c2, e)


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
    if e is not None and not same_orbit(charge_from, charge_to, e):
        raise ValueError("charges %r and %r are not in one orbit"
                         % (charge_from, charge_to))
    word = peel_residues(bp, CrystalParams(e, tuple(charge_from)))
    p_to = CrystalParams(e, tuple(charge_to))
    return rebuild_from_residues(reversed(word), p_to)


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


def psi_nature_check(bp: Bipartition, image: Bipartition, charge_from,
                     charge_to, p: CrystalParams) -> bool:
    """Per-content nature pairs must transform along the sigma1 table."""
    if tuple(charge_to) != (charge_from[1], charge_from[0]):
        raise ValueError("charge_to must be sigma1 . charge_from")
    n = max(bp.rank, image.rank)
    lo = min(*charge_from, *charge_to) - n - 1
    hi = max(*charge_from, *charge_to) + n + 1
    for j in range(lo, hi + 1):
        before = (nature_at(bp, charge_from, j, 2).kind,
                  nature_at(bp, charge_from, j, 1).kind)
        after = (nature_at(image, charge_to, j, 2).kind,
                 nature_at(image, charge_to, j, 1).kind)
        if after not in SIGMA1_NATURE_MAP[before]:
            return False
    return True


def psi_e_independence_check(bp: Bipartition, charge_from,
                             e: int) -> Optional[bool]:
    """The single-sigma1 map agrees with its e=infinity version.

    Returns None (not applicable) when bp is not Uglov for one of the
    two parameter values.
    """
    s1, s2 = charge_from
    if s1 > s2:
        raise ValueError("requires s1 <= s2, got %r" % (charge_from,))
    charge_to = (s2, s1)
    if not (is_uglov(bp, CrystalParams(e, tuple(charge_from)))
            and is_uglov(bp, CrystalParams(None, tuple(charge_from)))):
        return None
    return (psi_to(bp, charge_from, charge_to, e)
            == psi_to(bp, charge_from, charge_to, None))
