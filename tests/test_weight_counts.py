"""An independent count oracle for the crystal walk: weight multiplicities
by Freudenthal's formula.

The crystal component of the empty bipartition at charge (s1, s2) is
B(Lambda) for Lambda = Lambda_{s1 mod e} + Lambda_{s2 mod e} (Jimbo,
Misra, Miwa and Okado 1991; Uglov 2000).  A bipartition with c_i boxes
of residue i has weight Lambda - sum c_i alpha_i, so the number of Uglov
bipartitions of each residue content is the multiplicity of that weight
in V(Lambda).  Freudenthal's formula computes it from the affine Cartan
matrix of type A_{e-1}^(1) and the root multiplicities alone (Kac,
Infinite-dimensional Lie algebras, ch. 11), with no crystal code and no
membership test.

Weights Lambda - beta are written as beta, an e-tuple of nonnegative
integers in the basis alpha_0, ..., alpha_{e-1}.  With the normalised
form, (alpha_i | alpha_j) is the Cartan matrix, (Lambda_i | alpha_j) is
1 when i = j and 0 otherwise, and (rho | alpha_i) = 1.  The positive
roots are delta-shifts m delta + chi_I of the proper cyclic intervals I
of Z/e (real, multiplicity 1) and the m delta for m >= 1 (imaginary,
multiplicity e - 1), delta being (1, ..., 1).
"""

from collections import Counter
from itertools import product

import pytest

from uglov.crystal import CrystalParams, uglov_layers


def positive_roots(e: int, height: int) -> list:
    """(root, multiplicity) for the positive roots of height <= height."""
    out = []
    for m in range(height // e + 1):
        for start in range(e):
            for length in range(1, e):
                if m * e + length <= height:
                    root = [m] * e
                    for i in range(start, start + length):
                        root[i % e] += 1
                    out.append((tuple(root), 1))
        if m:
            out.append(((m,) * e, e - 1))
    return out


def weight_multiplicities(e: int, charge, n: int) -> dict:
    """{beta: multiplicity of Lambda - beta in V(Lambda)} over the beta of
    height <= n with a nonzero multiplicity, by Freudenthal's formula

        (|Lambda + rho|^2 - |mu + rho|^2) mult(mu)
            = 2 sum_{alpha > 0} mult(alpha)
                sum_{k >= 1} (mu + k alpha | alpha) mult(mu + k alpha)

    at mu = Lambda - beta, in increasing height.  The left factor is
    2 (Lambda | beta) + 2 ht(beta) - (beta | beta); it is positive at
    every weight of V(Lambda) but Lambda, so where it is not, mu is no
    weight.
    """
    level = [0] * e
    for s in charge:
        level[s % e] += 1

    def form(x, y):  # (x | y) for x, y in the root lattice
        return sum(2 * x[i] * y[i] - x[i] * y[(i + 1) % e]
                   - x[(i + 1) % e] * y[i] for i in range(e))

    roots = [(root, mult, sum(l * r for l, r in zip(level, root)),
              form(root, root)) for root, mult in positive_roots(e, n)]
    mults = {(0,) * e: 1}
    for height in range(1, n + 1):
        for beta in product(range(height + 1), repeat=e):
            if sum(beta) != height:
                continue
            left = (2 * sum(l * b for l, b in zip(level, beta))
                    + 2 * height - form(beta, beta))
            if left <= 0:
                continue
            right = 0
            for root, mult, lam_root, root_root in roots:
                beta_root = form(beta, root)
                rest, k = beta, 0
                while True:
                    rest = tuple(b - r for b, r in zip(rest, root))
                    k += 1
                    if min(rest) < 0:
                        break
                    right += (mult * (lam_root - beta_root + k * root_root)
                              * mults.get(rest, 0))
            value, remainder = divmod(2 * right, left)
            assert remainder == 0, (beta, 2 * right, left)
            if value:
                mults[beta] = value
    return mults


def residue_content(bp, e: int, charge) -> tuple:
    """The number of boxes of each residue of bp."""
    out = [0] * e
    for lam, s in ((bp.c1, charge[0]), (bp.c2, charge[1])):
        for a, row in enumerate(lam, 1):
            for b in range(1, row + 1):
                out[(b - a + s) % e] += 1
    return tuple(out)


# rank per e, so that each e takes about a second
RANKS = {2: 10, 3: 10, 4: 9, 5: 8}


def charges(e: int) -> list:
    """Every gap s2 - s1 with |s1 - s2| <= 3e from s1 = 0, the cells
    that caught a mutation of the signature rule, and (0, 1000)."""
    return ([(0, gap) for gap in range(-3 * e, 3 * e + 1)]
            + [(11, 0), (5, -2), (0, 1000)])


def test_weight_multiplicities_small_cases():
    # V(Lambda_0 + Lambda_1) of affine sl_2: the weights below Lambda by
    # alpha_0, alpha_1, alpha_0 + alpha_1 have multiplicities 1, 1, 2.
    mults = weight_multiplicities(2, (0, 1), 2)
    assert {beta: m for beta, m in mults.items() if sum(beta) <= 2} == {
        (0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2}
    # V(2 Lambda_0) of affine sl_3: the alpha_0-string down from Lambda
    # has two more weights, and alpha_1 or alpha_2 follows alpha_0 once.
    assert weight_multiplicities(3, (0, 0), 2) == {
        (0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1, (1, 1, 0): 1,
        (1, 0, 1): 1}


@pytest.mark.parametrize("e", sorted(RANKS))
def test_uglov_counts_match_weight_multiplicities(e):
    n = RANKS[e]
    oracle = {}  # Lambda depends on the charge only through its residues
    for charge in charges(e):
        key = tuple(sorted(s % e for s in charge))
        if key not in oracle:
            oracle[key] = weight_multiplicities(e, key, n)
        layers = uglov_layers(n, CrystalParams(e, charge))
        counts = Counter(residue_content(bp, e, charge)
                         for layer in layers for bp in layer)
        assert counts == oracle[key], (e, charge)
