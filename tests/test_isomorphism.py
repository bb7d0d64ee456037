"""Unit tests for charge reduction and the charge-change bijections."""

import pytest

from uglov import crystal, isomorphism
from uglov.crystal import (
    CrystalParams,
    good_addable_node,
    good_additions,
    signature_word,
    uglov_layers,
)
from uglov.diagrams import Bipartition, add_node, parse_bipartition
from uglov.isomorphism import (
    peel_residues,
    psi_e_independence_check,
    psi_images,
    psi_nature_check,
    psi_to,
    rebuild_from_residues,
    reduce_to_fundamental,
    require_same_orbit,
)
from test_crystal import (
    component_keys,
    count_component_reads,
    count_rim_passes,
    forbid_validating_primitives,
)

P = parse_bipartition


def test_reduce_to_fundamental():
    assert reduce_to_fundamental((1, 0), 3) == (0, 1)
    assert reduce_to_fundamental((7, -2), 3) == (1, 1)
    assert reduce_to_fundamental((0, 1), 3) == (0, 1)
    assert reduce_to_fundamental((5, 5), 3) == (2, 2)
    assert reduce_to_fundamental((-1, 4), 3) == (1, 2)
    assert reduce_to_fundamental((2, -7), 3) == (2, 2)
    assert reduce_to_fundamental((0, 0), 3) == (0, 0)
    # e = infinity: no translations, only the swap
    assert reduce_to_fundamental((1, 0), None) == (0, 1)
    assert reduce_to_fundamental((7, -2), None) == (-2, 7)


def test_same_orbit():
    # two charges share an orbit when they reduce to one fundamental charge
    for c1, c2, e, same in (((0, 1), (1, 0), 3, True),
                            ((0, 1), (1, 3), 3, True),
                            ((0, 1), (-2, 0), 3, True),
                            ((0, 1), (0, 0), 3, False),
                            ((0, 1), (1, 0), None, True),
                            ((0, 1), (0, 3), None, False)):
        assert (reduce_to_fundamental(c1, e)
                == reduce_to_fundamental(c2, e)) == same
    require_same_orbit((0, 1), (-2, 0), 3)
    with pytest.raises(ValueError, match="not in one orbit"):
        require_same_orbit((0, 1), (0, 3), None)


def test_peel_rebuild_identity():
    p = CrystalParams(3, (0, 1))
    for n in range(6):
        for bp in uglov_layers(n, p)[n]:
            word = peel_residues(bp, p)
            assert len(word) == n
            assert rebuild_from_residues(reversed(word), p) == bp
    # the empty bipartition has addable 0- and 1-nodes only
    with pytest.raises(ValueError, match=r"^no good addable 2-node on "
                       r"Bipartition\(c1=\(\), c2=\(\)\)$"):
        rebuild_from_residues([2], p)


def test_peel_rejects_non_member():
    p = CrystalParams(3, (0, 0))
    with pytest.raises(ValueError, match="not Uglov"):
        peel_residues(P("1.1.1,-"), p)


def test_psi_identity_and_errors():
    assert psi_to(P("6.1,2.2"), (0, 1), (0, 1), 3) == P("6.1,2.2")
    with pytest.raises(ValueError):
        psi_to(P("1,-"), (0, 1), (0, 0), 3)  # charges in different orbits
    with pytest.raises(ValueError):
        psi_to(P("1.1.1,-"), (0, 0), (3, 0), 3)  # not Uglov at the source
    with pytest.raises(ValueError, match="not in one orbit"):
        psi_to(P("1,-"), (0, 1), (0, 3), None)  # no translations at e = inf


def test_psi_bijective_between_charges():
    for e, c_from, c_to in ((3, (0, 1), (1, 0)), (3, (0, 1), (1, 3)),
                            (None, (0, 1), (1, 0))):
        p_from, p_to = CrystalParams(e, c_from), CrystalParams(e, c_to)
        for n in range(6):
            src, dst = uglov_layers(n, p_from)[n], uglov_layers(n, p_to)[n]
            images = {psi_to(bp, c_from, c_to, e) for bp in src}
            assert images == dst
            for bp in src:
                image = psi_to(bp, c_from, c_to, e)
                assert psi_to(image, c_to, c_from, e) == bp


def test_psi_functorial():
    e = 3
    charges = ((0, 1), (1, 0), (1, 3), (-2, 0))
    p0 = CrystalParams(e, charges[0])
    for n in range(5):
        for bp in uglov_layers(n, p0)[n]:
            for c1 in charges:
                x = psi_to(bp, charges[0], c1, e)
                for c2 in charges:
                    assert (psi_to(x, c1, c2, e)
                            == psi_to(bp, charges[0], c2, e))


def test_tau_shortcut_is_component_swap():
    for e in (2, 3):
        charge = (0, 1)
        target = (charge[1], charge[0] + e)
        p = CrystalParams(e, charge)
        for n in range(6):
            for bp in uglov_layers(n, p)[n]:
                assert (psi_to(bp, charge, target, e)
                        == Bipartition(bp.c2, bp.c1))


def test_psi_commutes_with_crystal_operators():
    e, c_from, c_to = 3, (0, 1), (1, 0)
    p_from, p_to = CrystalParams(e, c_from), CrystalParams(e, c_to)
    for n in range(5):
        for bp in uglov_layers(n, p_from)[n]:
            image = psi_to(bp, c_from, c_to, e)
            for j in range(e):
                g = good_addable_node(bp, j, p_from)
                h = good_addable_node(image, j, p_to)
                assert (g is None) == (h is None)
                if g is not None:
                    assert (psi_to(add_node(bp, g), c_from, c_to, e)
                            == add_node(image, h))


def test_psi_preserves_normal_node_counts():
    e, c_from, c_to = 3, (0, 1), (-2, 0)
    p_from, p_to = CrystalParams(e, c_from), CrystalParams(e, c_to)
    for n in range(5):
        for bp in uglov_layers(n, p_from)[n]:
            image = psi_to(bp, c_from, c_to, e)
            sig_bp = signature_word(bp, p_from)
            sig_image = signature_word(image, p_to)
            for j in range(e):
                adds, rems = sig_bp.get(j, ([], []))
                image_adds, image_rems = sig_image.get(j, ([], []))
                assert len(rems) == len(image_rems)
                assert len(adds) == len(image_adds)


def test_sigma1_nature_map():
    # with s1 > s2 the table is read from the image back to bp
    for e, c_from in ((2, (0, 1)), (3, (0, 1)), (5, (3, -2)), (2, (2, -1)),
                      (3, (1, 0)), (3, (4, 0)), (4, (2, 0)), (4, (5, -2)),
                      (3, (12, 0))):
        c_to = (c_from[1], c_from[0])
        p = CrystalParams(e, c_from)
        for n in range(5):
            for bp in uglov_layers(n, p)[n]:
                image = psi_to(bp, c_from, c_to, e)
                assert psi_nature_check(bp, image, c_from)


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_psi_images_match_psi_to(e):
    for c_from in ((0, 1), (1, 0), (0, 0), (2, -1), (5, -2)):
        c_to = (c_from[1], c_from[0])
        layers = uglov_layers(8, CrystalParams(e, c_from))
        images = psi_images(8, CrystalParams(e, c_from), c_to)
        assert set(images) == set().union(*layers)
        ranks = [bp.rank for bp in images]
        assert ranks == sorted(ranks)
        for bp, image in images.items():
            assert image == psi_to(bp, c_from, c_to, e)
    with pytest.raises(ValueError, match="not in one orbit"):
        psi_images(0, CrystalParams(e, (0, 1)), (0, 0))


@pytest.mark.parametrize("c_from, c_to", [((0, 1), (1, 0)),
                                          ((11, 0), (0, 2))])
def test_psi_images_scan_each_image_once(monkeypatch, c_from, c_to):
    # The good additions of an image are read in one scan at c_to, at
    # most once per image, through one table at c_to that reads each
    # (component, partition) of the scanned images once, as the
    # crystal_edges walk at c_from reads those of its sources, with no
    # other pass over a whole bipartition's rim at either charge; the
    # images grow without validation.
    p = CrystalParams(3, c_from)
    expected = psi_images(9, p, c_to)
    scans = []

    def counted(bp, p, table):
        if p.charge == c_to:
            scans.append(bp)
        return good_additions(bp, p, table)

    monkeypatch.setattr(isomorphism, "good_additions", counted)
    passes = count_rim_passes(monkeypatch)
    reads = count_component_reads(monkeypatch)
    forbid_validating_primitives(monkeypatch)
    assert psi_images(9, p, c_to) == expected
    assert passes == []
    assert len(scans) == len(set(scans))
    assert set(scans) <= set(expected.values())
    assert {image.rank for image in scans} == set(range(9))
    assert len(reads) == len(set(reads))
    sources = {bp for bp in expected if bp.rank < 9}
    assert set(reads) == (component_keys(sources, c_from)
                          | component_keys(scans, c_to))


def test_psi_images_needs_the_good_child(monkeypatch):
    # An image without the good j-node of its edge is a ValueError.
    monkeypatch.setattr(isomorphism, "good_additions",
                        lambda bp, p, table: [])
    with pytest.raises(ValueError, match="no good addable 0-node"):
        psi_images(1, CrystalParams(3, (0, 1)), (1, 0))


def test_e_independence_of_sigma1():
    p = CrystalParams(3, (0, 1))
    seen_applicable = False
    for n in range(5):
        for bp in uglov_layers(n, p)[n]:
            verdict = psi_e_independence_check(bp, (0, 1), 3)
            if verdict is not None:
                seen_applicable = True
                assert verdict
    assert seen_applicable
    with pytest.raises(ValueError):
        psi_e_independence_check(P("1,-"), (1, 0), 3)


def test_e_independence_peels_once_per_e(monkeypatch):
    calls, peel = [], crystal.peel_word

    def counting(bp, p):
        calls.append(p.e)
        return peel(bp, p)

    monkeypatch.setattr(crystal, "peel_word", counting)
    monkeypatch.setattr(isomorphism, "peel_word", counting)
    p = CrystalParams(3, (0, 1))
    for n in range(5):
        for bp in uglov_layers(n, p)[n]:
            calls.clear()
            psi_e_independence_check(bp, (0, 1), 3)
            assert calls == [3, None]
