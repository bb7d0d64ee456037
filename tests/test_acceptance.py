"""Acceptance suite.

One test per criterion; each prints a single pass/fail line.  Two
expectations are provably unattainable and are marked strict-xfail with
the analysis inline (details in the project decisions ledger):

* the exact published value of the admissible sequence of (6.1,2.2): its
  residue multiset does not match the residue multiset of the diagram,
  so no sequence of residue operators can realize it;
* the "rebuild by good nodes along the admissible sequence" law: class
  removals take the largest normal nodes while good removals take the
  smallest, so the sequence is not a good-addition word.
"""

import itertools

import pytest

from uglov.admissible import (
    adm,
    adm_flotw,
    propb_checks,
    removable_class,
    verify_djm_converse,
    verify_djm_forward,
)
from uglov.crystal import (
    CrystalParams,
    good_addable_node,
    good_removable_node,
    is_uglov,
    signature_word,
    uglov_layers,
)
from uglov.diagrams import (
    EMPTY,
    Bipartition,
    Node,
    add_node,
    compare_uglov,
    nature_at,
    nature_table,
    parse_bipartition,
    remove_node,
)
from uglov.isomorphism import psi_to

from test_admissible import (
    forward_reports,
    one_connected,
    remove_all,
    top_class,
)
from test_crystal import is_flotw
from test_diagrams import (
    NATURE_TRANSITIONS,
    bipartitions_of,
    compare_lex,
    residue,
)
from test_isomorphism import nature_check, psi_e_independence_check

P = parse_bipartition
CHARGES = ((0, 0), (0, 1), (0, 2), (1, 0), (3, 0), (-2, 1))


def report(name, ok):
    print("criterion %s: %s" % (name, "PASS" if ok else "FAIL"))
    assert ok


def all_uglov_up_to(n, p):
    return [bp for layer in uglov_layers(n, p) for bp in sorted(layer)]


def test_criterion_1a_nature_tables_and_order():
    charge, window = (0, 1), (-3, 6)
    expected = {
        "6.1,2.2": ["Bv", "Bv", "Bv", "A", "A", "R", "Bh", "A", "R", "Bh",
                    "Bv", "Bh", "A", "Bh", "Bh", "Bh", "Bh", "R", "Bh", "A"],
        "6.3,2": ["Bv", "Bv", "Bv", "A", "Bv", "Bh", "A", "Bh", "Bh", "R",
                  "R", "A", "A", "Bh", "Bh", "Bh", "Bh", "R", "Bh", "A"],
    }
    ok = True
    for text, kinds in expected.items():
        table = nature_table(P(text), charge, window)
        ok = ok and [ent.kind for (_, _, ent) in table] == kinds
        ok = ok and [(j, c) for (j, c, _) in table] == [
            (j, c) for j in range(-3, 7) for c in (2, 1)]
    ok = ok and compare_uglov(P("6.1,2.2"), P("6.3,2"), charge) == -1
    report("1a", ok)


def test_criterion_1b_residue_two_slots():
    bp, charge, e = P("3.3.1,2.1"), (0, 1), 3
    finite = {Node(1, 3, 1): ("Bv", False), Node(3, 2, 1): ("A", False),
              Node(1, 2, 2): ("R", False), Node(3, 1, 2): ("A", False)}
    ok = True
    for j in range(-10, 9):
        for c in (1, 2):
            ent = nature_at(bp, charge, j, c)
            if residue(ent.node, charge, e) != 2:
                continue
            a, b, _ = ent.node
            if ent.node in finite:
                ok = ok and (ent.kind, ent.virtual) == finite[ent.node]
            elif a == 0:  # virtual rows (0,5+3k,1) and (0,4+3k,2)
                base = 5 if c == 1 else 4
                ok = ok and (b - base) % 3 == 0 and b >= base
                ok = ok and ent.kind == "Bh" and ent.virtual
            elif b == 0:  # virtual columns (4+3k,0,1) and (5+3k,0,2)
                base = 4 if c == 1 else 5
                ok = ok and (a - base) % 3 == 0 and a >= base
                ok = ok and ent.kind == "Bv" and ent.virtual
            else:
                ok = False
    # the four finite nodes really occur inside the window
    seen = {nature_at(bp, charge, j, c).node
            for j in range(-10, 9) for c in (1, 2)}
    ok = ok and set(finite) <= seen
    report("1b", ok)


def test_criterion_1c_psi_images_of_6122():
    bp, charge, e = P("6.1,2.2"), (0, 1), 3
    ok = True
    for k in range(-3, 4):
        image = psi_to(bp, charge, (1 + 3 * k, 0), e)
        if k >= 0:
            ok = ok and image == P("5.2.1,3")
        elif k == -1:
            ok = ok and image == P("2.2,6.1")
        else:
            ok = ok and image == P("2.1,6.1.1")
    for k in range(-3, 4):
        if k == 1:
            continue  # no published value for the target (0,4)
        image = psi_to(bp, charge, (0, 1 + 3 * k), e)
        if k > 1:
            ok = ok and image == P("3,5.2.1")
        elif k == 0:
            ok = ok and image == bp
        elif k < 0:
            ok = ok and image == P("6.1.1,2.1")
    report("1c", ok)


def test_criterion_1d_psi_transports_connectivity():
    e = 3
    src, dst = P("3.2.2.1.1,3.3.1"), P("3.3.2.2.1.1,3.1")
    ok = psi_to(src, (0, 1), (1, 0), e) == dst
    p_src, p_dst = CrystalParams(e, (0, 1)), CrystalParams(e, (1, 0))
    ok = ok and one_connected(src, Node(3, 2, 1), Node(1, 3, 1), p_src)
    ok = ok and one_connected(src, Node(5, 1, 1), Node(3, 2, 1), p_src)
    ok = ok and one_connected(src, Node(3, 2, 1), Node(2, 3, 2), p_src)
    ok = ok and one_connected(dst, Node(4, 2, 1), Node(2, 3, 1), p_dst)
    ok = ok and one_connected(dst, Node(6, 1, 1), Node(4, 2, 1), p_dst)
    ok = ok and one_connected(dst, Node(4, 2, 1), Node(1, 3, 2), p_dst)
    report("1d", ok)


@pytest.mark.xfail(strict=True, reason=(
    "published sequence 1,0,2,2,1,1,2,0,1,1,2 has residue multiset "
    "{0:2, 1:5, 2:4} while the diagram of (6.1,2.2) at e=3, s=(0,1) has "
    "{0:3, 1:4, 2:4}; every admissible sequence permutes the diagram's "
    "multiset, so the printed value is unreachable (decisions ledger)"))
def test_criterion_1e_published_adm_value():
    got = adm(P("6.1,2.2"), CrystalParams(3, (0, 1)))
    ok = got == [1, 0, 2, 2, 1, 1, 2, 0, 1, 1, 2]
    report("1e (published admissible sequence)", ok)


def test_criterion_1e_corrected_adm_value():
    # One residue differs from the published sequence; this value has the
    # diagram's residue multiset, is constant on the isomorphism class and
    # satisfies the maximality theorem (see verify_djm_forward below).
    seq = [1, 0, 0, 2, 2, 1, 1, 2, 0, 1, 2]
    ok = adm(P("6.1,2.2"), CrystalParams(3, (0, 1))) == seq
    ok = ok and adm(P("5.2.1,3"), CrystalParams(3, (1, 0))) == seq
    ok = ok and forward_reports(11, CrystalParams(3, (0, 1)))[
        P("6.1,2.2")]["pass"]
    report("1e (corrected admissible sequence)", ok)


def test_criterion_1e_flotw_class():
    cls = removable_class(P("3.1.1,3.2.2.1.1"), Node(1, 3, 2),
                          CrystalParams(3, (0, 2)))
    ok = cls == [Node(5, 1, 2), Node(3, 1, 1), Node(3, 2, 2), Node(1, 3, 2)]
    report("1e (removal class)", ok)


def test_criterion_2_forward_sweep():
    checked, ok = 0, True
    for e in (2, 3):
        for charge in CHARGES:
            p = CrystalParams(e, charge)
            for _, instances, failed in verify_djm_forward(7, p):
                checked += instances
                ok = ok and not failed
    ok = ok and checked > 0
    report("2 (forward sweep, %d instances)" % checked, ok)


def test_criterion_3_converse_sweep():
    ok = True
    for e, nmax in ((2, 5), (3, 4)):
        for charge in ((0, 0), (0, 1)):
            p = CrystalParams(e, charge)
            ok = ok and not any(failed for _, _, failed
                                in verify_djm_converse(nmax, p))
    report("3 (converse sweep)", ok)


def test_criterion_4_flotw_equals_uglov():
    ok = True
    for e in (2, 3, 4):
        for s1 in range(e):
            for s2 in range(s1, e):
                p = CrystalParams(e, (s1, s2))
                for n in range(8):
                    for bp in bipartitions_of(n):
                        ok = ok and is_flotw(bp, p) == is_uglov(bp, p)
    report("4 (FLOTW = crystal membership)", ok)


def test_criterion_5_orders_agree_asymptotically():
    ok = True
    for n in range(7):
        for charge in ((n, 0), (n + 2, 0), (n + 1, 1)):
            assert charge[0] - charge[1] > n - 1
            bps = bipartitions_of(n)
            for x, y in itertools.combinations(bps, 2):
                ok = ok and (compare_uglov(x, y, charge)
                             == compare_lex(x, y))
    report("5 (asymptotic order agreement)", ok)


def test_criterion_6_isomorphism_suite():
    ok = True
    for e in (2, 3):
        c_from, c_to = (0, 1), (1, 0)
        tau_target = (1, e)
        p_from, p_to = CrystalParams(e, c_from), CrystalParams(e, c_to)
        far = (1, 2) if e == 2 else (-2, 3)
        for n in range(7):
            src = uglov_layers(n, p_from)[n]
            images = set()
            for bp in src:
                image = psi_to(bp, c_from, c_to, e)
                images.add(image)
                # inverse round trip
                ok = ok and psi_to(image, c_to, c_from, e) == bp
                # functoriality through a third charge
                step = psi_to(bp, c_from, far, e)
                ok = ok and psi_to(step, far, c_to, e) == image
                # tau shortcut is the component swap
                ok = ok and (psi_to(bp, c_from, tau_target, e)
                             == Bipartition(bp.c2, bp.c1))
                sig_bp = signature_word(bp, p_from)
                sig_image = signature_word(image, p_to)
                # commutation with good-node addition
                for j in range(e):
                    g = good_addable_node(bp, j, p_from)
                    h = good_addable_node(image, j, p_to)
                    ok = ok and (g is None) == (h is None)
                    if g is not None:
                        ok = ok and (psi_to(add_node(bp, g), c_from, c_to, e)
                                     == add_node(image, h))
                    # normal-node count preservation
                    ok = ok and (
                        list(map(len, sig_bp.get(j, ([], []))))
                        == list(map(len, sig_image.get(j, ([], [])))))
                # sigma1 nature-table conformance
                ok = ok and nature_check(bp, image, c_from)
                # e-independence of the sigma1 map
                verdict = psi_e_independence_check(bp, c_from, e)
                ok = ok and verdict is not False
            # bijectivity onto the target enumeration
            ok = ok and images == uglov_layers(n, p_to)[n]
    report("6 (isomorphism suite)", ok)


def _transition_conformance(bp, charge, n):
    lo, hi = min(charge) - n - 2, max(charge) + n + 2
    for c in (1, 2):
        kinds = [nature_at(bp, charge, j, c).kind for j in range(lo, hi + 1)]
        for k1, k2 in zip(kinds, kinds[1:]):
            if k2 not in NATURE_TRANSITIONS[k1]:
                return False
    return True


def _deep_tail_stable(bp, charge, n):
    lo, hi = min(charge) - n - 1, max(charge) + n + 1
    for c in (1, 2):
        for j in range(lo - 3, lo):
            ent = nature_at(bp, charge, j, c)
            if ent.kind != "Bv" or not ent.virtual:
                return False
        for j in range(hi + 1, hi + 4):
            ent = nature_at(bp, charge, j, c)
            if ent.kind != "Bh" or not ent.virtual:
                return False
    return True


def test_criterion_7_structural_suites():
    ok = True
    for charge in CHARGES:
        for n in range(7):
            for bp in bipartitions_of(n):
                ok = ok and _transition_conformance(bp, charge, n)
                ok = ok and _deep_tail_stable(bp, charge, n)
    for e in (2, 3):
        for charge in CHARGES:
            p = CrystalParams(e, charge)
            # good-node round trips on all shapes
            for n in range(7):
                for bp in bipartitions_of(n):
                    for j in range(e):
                        g = good_removable_node(bp, j, p)
                        if g is not None:
                            ok = ok and good_addable_node(
                                remove_node(bp, g), j, p) == g
                        g = good_addable_node(bp, j, p)
                        if g is not None:
                            ok = ok and good_removable_node(
                                add_node(bp, g), j, p) == g
            # recursion law of the admissible sequence and propb
            ok = ok and not any(failed for _, _, failed
                                in propb_checks(6, p))
        for s1 in range(e):
            for s2 in range(s1, e):
                fp = CrystalParams(e, (s1, s2))
                for bp in all_uglov_up_to(6, fp):
                    if bp == EMPTY:
                        continue
                    seed = top_class(bp, fp)[2][-1]
                    cls = removable_class(bp, seed, fp)
                    child = remove_all(bp, cls)
                    j = residue(seed, fp.charge, fp.e)
                    # adm_flotw itself asserts the class and FLOTW laws;
                    # check the recursion shape on top.
                    ok = ok and (adm_flotw(bp, fp)
                                 == adm_flotw(child, fp) + [j] * len(cls))
    report("7 (structural suites)", ok)


@pytest.mark.xfail(strict=True, reason=(
    "class removal takes the largest normal nodes, good removal the "
    "smallest, so the admissible sequence is not a good-addition "
    "word; e.g. rebuilding along Adm((6.1,2.2)) by good additions ends at "
    "(3.1.1,3.2.1) (decisions ledger)"))
def test_criterion_7_adm_rebuild_by_good_nodes():
    ok = True
    for e in (2, 3):
        p = CrystalParams(e, (0, 1))
        for bp in all_uglov_up_to(6, p):
            rebuilt = EMPTY
            for j in adm(bp, p):
                g = good_addable_node(rebuilt, j, p)
                if g is None:
                    ok = False
                    break
                rebuilt = add_node(rebuilt, g)
            ok = ok and rebuilt == bp
    report("7 (rebuild by good nodes)", ok)
