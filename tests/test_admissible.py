"""Unit tests for connectedness, admissible sequences and the verifiers."""

import itertools

import pytest

from uglov.admissible import (
    adm,
    adm_flotw,
    has_period,
    max_normal_removable_node,
    one_connected,
    propb_checks,
    remove_all,
    removable_class,
    row_standard_shapes,
    two_connected,
    verify_djm_converse,
    verify_djm_corollary,
    verify_djm_forward,
)
from uglov import admissible
from uglov.crystal import (
    CrystalParams,
    expand_monomial,
    is_uglov,
    uglov_layers,
)
from uglov.diagrams import (
    EMPTY,
    Node,
    bipartition_to_json,
    bipartitions_of,
    content,
    node_key,
    parse_bipartition,
    remove_node,
    removable_nodes,
    uglov_max,
)

P = parse_bipartition
P01 = CrystalParams(3, (0, 1))
P02 = CrystalParams(3, (0, 2))


def test_has_period_examples():
    bp = remove_node(P("3.2.2.1.1,3.3.1"), Node(3, 2, 1))
    assert has_period(bp, P01)
    assert not has_period(P("3.2.2.1.1,3.3.1"), P01)
    assert not has_period(EMPTY, P01)
    with pytest.raises(ValueError):
        has_period(EMPTY, CrystalParams(None, (0, 1)))


def _has_period_oracle(bp, p):
    # Reference: contents of the row-end Nodes, then the same chain search.
    comps = {}
    for c in (1, 2):
        lam = bp.component(c)
        for a in range(1, len(lam) + 1):
            g = Node(a, lam[a - 1], c)
            comps.setdefault(content(g, p.charge), set()).add(c)
    for start in comps:
        lowest, ok = 0, True
        for j in range(start, start + p.e):
            choices = [c for c in comps.get(j, ()) if c >= lowest]
            if not choices:
                ok = False
                break
            lowest = min(choices)
        if ok:
            return True
    return False


def test_has_period_matches_oracle():
    bps = [bp for n in range(9) for bp in bipartitions_of(n)]
    periodic = 0
    for e in (2, 3, 4):
        for charge in ((0, 0), (0, 1), (1, 0), (2, -1)):
            p = CrystalParams(e, charge)
            for bp in bps:
                verdict = has_period(bp, p)
                assert verdict == _has_period_oracle(bp, p)
                periodic += verdict
    assert 0 < periodic < 12 * len(bps)


def test_no_uglov_bipartition_has_period():
    for e in (2, 3):
        for s1 in range(e):
            for s2 in range(s1, e):
                p = CrystalParams(e, (s1, s2))
                for n in range(6):
                    for bp in uglov_layers(n, p)[n]:
                        assert not has_period(bp, p)


def test_one_connected_examples():
    bp = P("3.2.2.1.1,3.3.1")
    assert one_connected(bp, Node(3, 2, 1), Node(1, 3, 1), P01)
    assert one_connected(bp, Node(5, 1, 1), Node(3, 2, 1), P01)
    assert one_connected(bp, Node(3, 2, 1), Node(2, 3, 2), P01)


def test_one_connected_preconditions():
    bp = P("3.2.2.1.1,3.3.1")
    with pytest.raises(ValueError):
        one_connected(bp, Node(1, 3, 1), Node(3, 2, 1), P01)  # wrong order
    with pytest.raises(ValueError):
        one_connected(bp, Node(1, 1, 1), Node(1, 3, 1), P01)  # not removable
    with pytest.raises(ValueError):
        # residues differ: (2,2,1) has residue 0, (1,3,1) residue 2
        one_connected(bp, Node(2, 2, 1), Node(1, 3, 1), P01)


def test_two_connected_examples():
    bp = P("3.1.1,3.2.2.1.1")
    assert two_connected(bp, Node(1, 3, 1), P02) is None
    assert two_connected(bp, Node(5, 1, 2), P02) is None
    assert two_connected(bp, Node(3, 1, 1), P02) == Node(5, 1, 2)
    # zero shift: equal components pair row for row
    sym = P("2.1,2.1")
    assert two_connected(sym, Node(1, 2, 1),
                         CrystalParams(3, (0, 0))) == Node(1, 2, 2)
    with pytest.raises(ValueError):
        two_connected(bp, Node(1, 1, 1), P02)


def test_max_normal_vs_max_removable():
    # The largest removable node of ((1),(1)) is cancelled by a larger
    # addable node of the same residue, so the normal maximum differs.
    bp = P("1,1")
    assert (max(removable_nodes(bp), key=lambda g: node_key(g, P01.charge))
            == Node(1, 1, 2))
    assert max_normal_removable_node(bp, P01) == Node(1, 1, 1)
    assert max_normal_removable_node(EMPTY, P01) is None


def test_removable_class_example():
    bp = P("3.1.1,3.2.2.1.1")
    cls = removable_class(bp, Node(1, 3, 2), P02)
    assert cls == [Node(5, 1, 2), Node(3, 1, 1), Node(3, 2, 2), Node(1, 3, 2)]
    from uglov.crystal import is_flotw
    child = remove_all(bp, cls)
    assert child.rank == bp.rank - 4
    assert is_flotw(child, P02)


def test_removable_class_trivial_and_errors():
    assert removable_class(P("1,-"), Node(1, 1, 1), P01) == [Node(1, 1, 1)]
    with pytest.raises(ValueError):
        removable_class(P("3.1.1,3.2.2.1.1"), Node(3, 2, 2), P02)
    with pytest.raises(ValueError):
        removable_class(P("1,-"), Node(1, 1, 1), CrystalParams(3, (1, 0)))


def test_adm_flotw_examples():
    assert adm_flotw(EMPTY, P01) == []
    assert adm_flotw(P("1,-"), P01) == [0]
    assert adm_flotw(P("6.1,2.2"), P01) == [1, 0, 0, 2, 2, 1, 1, 2, 0, 1, 2]
    with pytest.raises(ValueError):
        adm_flotw(P("1.1.1,-"), CrystalParams(3, (0, 0)))


def test_adm_constant_on_isomorphism_classes():
    seq = [1, 0, 0, 2, 2, 1, 1, 2, 0, 1, 2]
    assert adm(P("6.1,2.2"), P01) == seq
    assert adm(P("5.2.1,3"), CrystalParams(3, (1, 0))) == seq
    assert adm(P("2.2,6.1"), CrystalParams(3, (-2, 0))) == seq


def test_adm_errors():
    with pytest.raises(ValueError):
        adm(P("1,-"), CrystalParams(None, (0, 1)))
    with pytest.raises(ValueError):
        adm(P("1.1.1,-"), CrystalParams(3, (0, 0)))


def test_adm_residue_multiset_matches_diagram():
    # Adm permutes the residue multiset of the diagram: each operator in
    # the rebuilt monomial adds exactly one node of its residue.
    for n in range(6):
        for bp in uglov_layers(n, P01)[n]:
            seq = adm(bp, P01)
            diagram = sorted(
                (b - a + P01.charge[c - 1]) % 3
                for c in (1, 2)
                for a, row in enumerate(bp.component(c), start=1)
                for b in range(1, row + 1))
            assert sorted(seq) == diagram


def test_adm_word_reaches_bp_as_monomial_maximum():
    # reversed(Adm) read as a monomial applies the oldest residue first.
    bp = P("6.1,2.2")
    vec = expand_monomial(list(reversed(adm(bp, P01))), P01)
    assert uglov_max(vec, P01.charge) == bp


def test_verify_djm_forward_examples():
    assert verify_djm_forward(EMPTY, P01)["pass"]
    report = verify_djm_forward(P("6.1,2.2"), P01)
    assert report["pass"]
    assert report["max"] == {"c1": [6, 1], "c2": [2, 2]}


def test_verify_djm_forward_small_grid():
    for e in (2, 3):
        for charge in ((0, 0), (0, 1), (1, 0), (-2, 1)):
            p = CrystalParams(e, charge)
            for n in range(5):
                for bp in uglov_layers(n, p)[n]:
                    assert verify_djm_forward(bp, p)["pass"]


def test_verify_djm_converse_small():
    p = CrystalParams(2, (0, 1))
    reports = verify_djm_converse(3, p)
    assert [r["n"] for r in reports] == [0, 1, 2, 3]
    for n, report in enumerate(reports):
        assert report == _converse_brute(n, p, is_uglov)
        assert report["pass"]
        assert report["words"] == 2 ** n
    with pytest.raises(ValueError):
        verify_djm_converse(2, CrystalParams(None, (0, 1)))


def _converse_brute(n, p, member):
    # Reference: expand every word on its own, in itertools.product order.
    failures = []
    for word in itertools.product(range(p.e), repeat=n):
        vec = expand_monomial(word, p)
        if vec:
            best = uglov_max(vec, p.charge)
            if not member(best, p):
                failures.append({"word": list(word),
                                 "max": bipartition_to_json(best)})
    return {"n": n, "words": p.e ** n, "failures": failures,
            "pass": not failures}


CONVERSE_GRID = [CrystalParams(e, charge) for e in (2, 3, 4)
                 for charge in ((0, 0), (0, 1), (1, 0), (2, -1))]


@pytest.mark.parametrize("p", CONVERSE_GRID, ids=str)
def test_verify_djm_converse_matches_brute_force(p, monkeypatch):
    assert verify_djm_converse(5, p) == [_converse_brute(n, p, is_uglov)
                                         for n in range(6)]

    def member(bp, p):  # forces failures, to check their order
        return bp.c1[:1] != (1,) and is_uglov(bp, p)

    monkeypatch.setattr(admissible, "is_uglov", member)
    reports = verify_djm_converse(5, p)
    assert reports == [_converse_brute(n, p, member) for n in range(6)]
    assert sum(len(r["failures"]) for r in reports) > 1


def _row_standard_shapes_brute(word, p):
    # Oracle: try every assignment of 1..n to the boxes of each shape.
    # Row-standard means each box is placed after its left neighbor.
    from uglov.diagrams import Node as _N, residue as _res
    shapes = set()
    for bp in bipartitions_of(len(word)):
        boxes = [(a, b, c) for c in (1, 2)
                 for a, row in enumerate(bp.component(c), start=1)
                 for b in range(1, row + 1)]
        for filling in itertools.permutations(boxes):
            seen = set()
            ok = True
            for (a, b, c), j in zip(filling, word):
                if b > 1 and (a, b - 1, c) not in seen:
                    ok = False
                    break
                if _res(_N(a, b, c), p.charge, p.e) != j:
                    ok = False
                    break
                seen.add((a, b, c))
            if ok:
                shapes.add(bp)
                break
    return shapes


def test_row_standard_shapes_examples():
    assert row_standard_shapes([0], P01) == {P("1,-")}
    p = CrystalParams(2, (0, 0))
    for word in itertools.product(range(2), repeat=2):
        assert (row_standard_shapes(list(word), p)
                == _row_standard_shapes_brute(list(word), p))


def test_verify_djm_corollary_small():
    for n in range(5):
        for bp in uglov_layers(n, P01)[n]:
            assert verify_djm_corollary(bp, P01)["pass"]


def test_propb_checks_small():
    for e in (2, 3):
        for charge in ((0, 1), (1, 0)):
            p = CrystalParams(e, charge)
            for n in range(5):
                for bp in uglov_layers(n, p)[n]:
                    report = propb_checks(bp, p)
                    assert report["pass"], report["failures"]
