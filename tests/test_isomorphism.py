"""Unit tests for charge reduction and the charge-change bijections."""

from functools import cache

import pytest

from uglov import crystal, isomorphism
from uglov.crystal import (
    CrystalParams,
    good_addable_node,
    good_additions,
    signature_word,
    uglov_layers,
)
from uglov.diagrams import (
    Bipartition,
    add_node,
    default_window,
    nature_core,
    parse_bipartition,
)
from uglov.isomorphism import (
    SIGMA1_NATURE_MAP,
    fundamental,
    image_walk,
    peel_residues,
    psi_nature_check,
    psi_to,
    rebuild_from_residues,
    reduce_to_fundamental,
    require_same_orbit,
    verify_psi_nature,
)
from test_crystal import (
    component_keys,
    count_component_reads,
    count_rim_passes,
    counting_scan,
    forbid_validating_primitives,
)
import test_diagrams
from test_diagrams import bipartitions_of

P = parse_bipartition

# the oracle's window reader, memoized: each component's window at a
# charge is read once, not once per pair
nature_kinds = cache(test_diagrams.nature_kinds)


def psi_e_independence_check(bp, charge_from, e):
    """The single-sigma1 map agrees with its e=infinity version.

    Returns None (not applicable) when bp is not Uglov for one of the
    two parameter values.
    """
    s1, s2 = charge_from
    if s1 > s2:
        raise ValueError("requires s1 <= s2, got %r" % (charge_from,))
    images = []
    for e_or_inf in (e, None):
        word = crystal.peel_word(bp, CrystalParams(e_or_inf, (s1, s2)))
        if word is None:
            return None
        images.append(rebuild_from_residues(
            word, CrystalParams(e_or_inf, (s2, s1))))
    return images[0] == images[1]


def test_fundamental():
    # p at the fundamental member of its orbit, where Adm is read
    assert fundamental(CrystalParams(3, (7, -2))) == CrystalParams(3, (1, 1))
    assert fundamental(CrystalParams(4, (1, 3))) == CrystalParams(4, (1, 3))
    with pytest.raises(ValueError, match="admissible sequences need finite"):
        fundamental(CrystalParams(None, (0, 1)))


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
    # peel_word lists a good-addition word, first node first, so the
    # rebuild along it at its own charge gives bp back.
    for p in (CrystalParams(3, (0, 1)), CrystalParams(2, (5, -2)),
              CrystalParams(None, (0, 2))):
        for n in range(6):
            for bp in uglov_layers(n, p)[n]:
                word = peel_residues(bp, p)
                assert len(word) == n and word == crystal.peel_word(bp, p)
                assert rebuild_from_residues(word, p) == bp
    # the empty bipartition has addable 0- and 1-nodes only
    with pytest.raises(ValueError, match=r"^no good addable 2-node on "
                       r"Bipartition\(c1=\(\), c2=\(\)\)$"):
        rebuild_from_residues([2], CrystalParams(3, (0, 1)))


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


def nature_check(bp, image, charge, core=nature_core):
    """psi_nature_check of bp at charge and image at its swap, each
    component read as its core (through core) and its floor; when
    s1 > s2 the image is passed as bp."""
    s1, s2 = charge
    if s1 > s2:
        bp, image, s1, s2 = image, bp, s2, s1
    return psi_nature_check(
        core(bp.c1), s1 - len(bp.c1), core(bp.c2), s2 - len(bp.c2),
        core(image.c1), s2 - len(image.c1), core(image.c2),
        s1 - len(image.c2))


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
                assert nature_check(bp, image, c_from)


def psi_nature_check_oracle(bp, image, charge):
    """psi_nature_check over a default_window that holds the nodes of
    both bipartitions, so every content outside it pairs Bv with Bv or Bh
    with Bh."""
    s1, s2 = charge
    lo, hi = default_window(max(bp, image, key=lambda mu: mu.rank), charge)
    before = zip(nature_kinds(bp.c2, s2, lo, hi),
                 nature_kinds(bp.c1, s1, lo, hi))
    after = zip(nature_kinds(image.c2, s1, lo, hi),
                nature_kinds(image.c1, s2, lo, hi))
    if s1 > s2:
        before, after = after, before
    return all(a in SIGMA1_NATURE_MAP[b] for b, a in zip(before, after))


def test_psi_nature_check_matches_default_window_oracle():
    # The check reads only the contents of the four component cores and
    # one content of each gap between them; on every pair of
    # bipartitions of rank <= 4, images or not, it agrees with the check
    # over a window that holds them both, also where the gap between the
    # charges is wide.
    bps = [bp for n in range(5) for bp in bipartitions_of(n)]
    verdicts = set()
    for charge in ((0, 1), (1, 0), (0, 0), (2, -1), (0, 5), (-3, 4),
                   (0, 1000), (1000, 0), (-50, 3)):
        core = cache(nature_core)
        for bp in bps:
            for image in bps:
                ok = nature_check(bp, image, charge, core)
                assert ok == psi_nature_check_oracle(bp, image, charge), (
                    bp, image, charge)
                verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("e", [2, 3, 4, 5])
def test_psi_images_match_psi_to(e):
    for c_from in ((0, 1), (1, 0), (0, 0), (2, -1), (5, -2)):
        c_to = (c_from[1], c_from[0])
        layers = uglov_layers(8, CrystalParams(e, c_from))
        src, dst, pairs = image_walk(8, CrystalParams(e, c_from), c_to)
        assert (src.p, dst.p) == (CrystalParams(e, c_from),
                                  CrystalParams(e, c_to))
        images = {src.bipartition(pair): dst.bipartition(image)
                  for pair, image in pairs.items()}
        assert set(images) == set().union(*layers)
        ranks = [bp.rank for bp in images]
        assert ranks == sorted(ranks)
        for bp, image in images.items():
            assert image == psi_to(bp, c_from, c_to, e)
    with pytest.raises(ValueError, match="not in one orbit"):
        image_walk(0, CrystalParams(e, (0, 1)), (0, 0))


@pytest.mark.parametrize("c_from, c_to", [((0, 1), (1, 0)),
                                          ((11, 0), (0, 2))])
def test_psi_images_scan_each_image_once(monkeypatch, c_from, c_to):
    # The good additions of an image are read in one scan at c_to, at
    # most once per image, through one table at c_to that reads each
    # (component, partition) of the scanned images once, as the
    # walk at c_from reads those of its sources, with no
    # other pass over a whole bipartition's rim at either charge; the
    # images grow without validation.
    p = CrystalParams(3, c_from)

    def images():
        src, dst, pairs = image_walk(9, p, c_to)
        return {src.bipartition(pair): dst.bipartition(image)
                for pair, image in pairs.items()}

    expected = images()
    scans = []
    monkeypatch.setattr(isomorphism, "good_additions",
                        counting_scan(scans, c_to))
    passes = count_rim_passes(monkeypatch)
    reads = count_component_reads(monkeypatch)
    forbid_validating_primitives(monkeypatch)
    assert images() == expected
    assert passes == []
    assert len(scans) == len(set(scans))
    assert set(scans) <= set(expected.values())
    assert {image.rank for image in scans} == set(range(9))
    assert len(reads) == len(set(reads))
    sources = {bp for bp in expected if bp.rank < 9}
    assert set(reads) == (component_keys(sources, c_from)
                          | component_keys(scans, c_to))


def test_psi_images_needs_the_good_child(monkeypatch):
    # An image without the good j-node of its edge is a ValueError: the
    # scan at the target charge finds no good node, while the scan at the
    # source charge, in lockstep with it, finds the edges.
    def scan(pairs, table):
        for pair, good in good_additions(pairs, table):
            yield pair, {} if table.p.charge == (1, 0) else good

    monkeypatch.setattr(isomorphism, "good_additions", scan)
    with pytest.raises(ValueError, match="no good addable 0-node"):
        image_walk(1, CrystalParams(3, (0, 1)), (1, 0))


@pytest.mark.parametrize("charge", [(0, 1), (1, 0), (0, 0)])
def test_verify_psi_nature_reads_each_partition_once_by_id(monkeypatch,
                                                           charge):
    # The sweep builds no Bipartition and no bipartition text: each line
    # is joined from the texts of its four slots, one slot per (table,
    # partition id) whichever component holds it, and each slot is
    # filled once, with one lookup of the sweep's core cache.  At its own
    # swap, s = (0, 0), dst is src and the two share one slot list.
    p = CrystalParams(3, charge)
    expected = list(verify_psi_nature(11, p))
    walks, lookups, lists = [], [], []
    real_walk, real_slots = isomorphism.image_walk, isomorphism._slots

    def recorded_walk(*args):
        walks.append(real_walk(*args))
        return walks[-1]

    def recorded_slots(table, core):
        slots, fill = real_slots(table, core)
        lists.append((table, slots))
        return slots, fill

    def counted_cache(reader):
        cached = cache(reader)

        def lookup(lam):
            lookups.append(lam)
            return cached(lam)
        return lookup

    def forbidden(*args):
        raise AssertionError("bipartition built from %r" % (args,))

    monkeypatch.setattr(isomorphism, "image_walk", recorded_walk)
    monkeypatch.setattr(isomorphism, "_slots", recorded_slots)
    monkeypatch.setattr(isomorphism, "cache", counted_cache)
    monkeypatch.setattr(crystal.RimTable, "bipartition", forbidden)
    monkeypatch.setattr(crystal.RimTable, "json", forbidden)
    assert list(verify_psi_nature(11, p)) == expected
    (src, dst, images), = walks
    assert (dst is src) == (charge == (0, 0))
    assert [table for table, _ in lists] == list(dict.fromkeys((src, dst)))
    slots = ({(src, i) for pair in images for i in pair}
             | {(dst, j) for image in images.values() for j in image})
    assert {(table, i) for table, filled in lists
            for i, slot in enumerate(filled) if slot} == slots
    assert sorted(lookups) == sorted(table.parts[i] for table, i in slots)


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
    p = CrystalParams(3, (0, 1))
    for n in range(5):
        for bp in uglov_layers(n, p)[n]:
            calls.clear()
            psi_e_independence_check(bp, (0, 1), 3)
            assert calls == [3, None]
