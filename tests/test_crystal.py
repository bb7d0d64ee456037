"""Unit tests for Fock-space operators, good nodes and Uglov membership."""

import itertools

import pytest

from uglov.crystal import (
    CrystalParams,
    addable_residues,
    crystal_edges,
    e_action,
    enumerate_uglov,
    expand_monomial,
    f_action,
    fock_vector,
    good_addable_node,
    good_removable_node,
    in_fundamental_domain,
    is_flotw,
    is_uglov,
    max_of_monomial,
    normal_addable_nodes,
    normal_removable_nodes,
    reduce_word,
    removable_residues,
    signature_word,
    uglov_layers,
)
from uglov.diagrams import (
    EMPTY,
    Node,
    add_node,
    bipartitions_of,
    parse_bipartition,
    remove_node,
)

P = parse_bipartition
P01 = CrystalParams(3, (0, 1))


def test_params_validation():
    with pytest.raises(ValueError):
        f_action(fock_vector(EMPTY), 0, CrystalParams(1, (0, 0)))


def test_f_action_examples():
    assert f_action(fock_vector(EMPTY), 0, P01) == {P("1,-"): 1}
    assert f_action(fock_vector(EMPTY), 1, P01) == {P("-,1"): 1}
    assert f_action(fock_vector(EMPTY), 2, P01) == {}
    both = f_action(fock_vector(EMPTY), 0, CrystalParams(2, (0, 0)))
    assert both == {P("1,-"): 1, P("-,1"): 1}


def test_e_f_adjoint_counts():
    # <e_j f_j bp, bp> counts the addable j-nodes of bp.
    for n in range(4):
        for bp in bipartitions_of(n):
            for j in range(3):
                vec = e_action(f_action(fock_vector(bp), j, P01), j, P01)
                count = len([g for g in signature_word(bp, j, P01)
                             if g.tag == "A"])
                assert vec.get(bp, 0) == count


def test_signature_word_example():
    p = CrystalParams(3, (0, 2))
    word = signature_word(P("3.1.1,3.2.2.1.1"), 1, p)
    removables = [ent.node for ent in word if ent.tag == "R"]
    assert removables == [Node(5, 1, 2), Node(3, 1, 1),
                          Node(3, 2, 2), Node(1, 3, 2)]
    keys = [(ent.node.b - ent.node.a + p.charge[ent.node.c - 1],
             -ent.node.c) for ent in word]
    assert keys == sorted(keys)


def _reduce_by_scanning(tags):
    # Oracle: repeatedly delete an adjacent "RA" pair anywhere in the word.
    tags = list(tags)
    changed = True
    while changed:
        changed = False
        for i in range(len(tags) - 1):
            if tags[i] == "R" and tags[i + 1] == "A":
                del tags[i:i + 2]
                changed = True
                break
    return tags


def test_reduce_word_against_scanning_oracle():
    for n in range(5):
        for bp in bipartitions_of(n):
            for charge in ((0, 1), (0, 0), (-2, 1)):
                p = CrystalParams(3, charge)
                for j in range(3):
                    word = signature_word(bp, j, p)
                    got = [ent.tag for ent in reduce_word(word)]
                    assert got == _reduce_by_scanning(ent.tag for ent in word)


def test_good_node_examples():
    assert good_addable_node(EMPTY, 0, P01) == Node(1, 1, 1)
    assert good_addable_node(EMPTY, 1, P01) == Node(1, 1, 2)
    assert good_addable_node(EMPTY, 2, P01) is None
    assert good_removable_node(P("1,-"), 0, P01) == Node(1, 1, 1)
    assert good_removable_node(P("1,-"), 1, P01) is None


def test_good_node_round_trip():
    for e in (2, 3, 4):
        for charge in ((0, 1), (0, 0), (3, 0)):
            p = CrystalParams(e, charge)
            for n in range(5):
                for bp in bipartitions_of(n):
                    for j in range(e):
                        g = good_addable_node(bp, j, p)
                        if g is not None:
                            assert good_removable_node(
                                add_node(bp, g), j, p) == g
                        g = good_removable_node(bp, j, p)
                        if g is not None:
                            assert good_addable_node(
                                remove_node(bp, g), j, p) == g


def test_normal_nodes_are_subsets():
    for n in range(5):
        for bp in bipartitions_of(n):
            for j in range(3):
                add = normal_addable_nodes(bp, j, P01)
                rem = normal_removable_nodes(bp, j, P01)
                word = signature_word(bp, j, P01)
                assert set(add) <= {e.node for e in word if e.tag == "A"}
                assert set(rem) <= {e.node for e in word if e.tag == "R"}


def test_residue_sets():
    assert addable_residues(EMPTY, P01) == [0, 1]
    assert removable_residues(P("3.3.1,2.1"), P01) == [0, 1, 2]


def test_enumerate_uglov_small():
    assert enumerate_uglov(0, P01) == {EMPTY}
    assert enumerate_uglov(1, P01) == {P("1,-"), P("-,1")}
    assert P("6.1,2.2") in enumerate_uglov(11, P01)


def test_is_uglov_matches_enumeration():
    for e in (2, 3, 4, None):
        for charge in ((0, 0), (0, 1), (1, 0), (0, 2), (2, -1)):
            p = CrystalParams(e, charge)
            for n, layer in enumerate(uglov_layers(6, p)):
                assert layer == {bp for bp in bipartitions_of(n)
                                 if is_uglov(bp, p)}, (e, charge, n)


def test_uglov_layers_nested_by_edges():
    p = CrystalParams(2, (0, 0))
    layers = uglov_layers(4, p)
    edges = crystal_edges(layers, p)
    assert {dst for _, _, dst in edges} == set().union(*layers[1:])
    for src, j, dst in edges:
        assert src.rank + 1 == dst.rank
        assert dst in layers[dst.rank]
        assert good_addable_node(src, j, p) is not None


def test_fundamental_domain():
    assert in_fundamental_domain((0, 1), 3)
    assert not in_fundamental_domain((1, 0), 3)
    assert not in_fundamental_domain((0, 3), 3)


def test_is_flotw_examples():
    assert not is_flotw(P("1.1.1,-"), CrystalParams(3, (0, 0)))
    assert is_flotw(P("3.2.2.1.1,3.3.1"), P01)
    assert is_flotw(EMPTY, P01)
    with pytest.raises(ValueError):
        is_flotw(EMPTY, CrystalParams(3, (1, 0)))
    with pytest.raises(ValueError):
        is_flotw(EMPTY, CrystalParams(None, (0, 1)))


def test_flotw_equals_uglov_small():
    for e in (2, 3):
        for s1 in range(e):
            for s2 in range(s1, e):
                p = CrystalParams(e, (s1, s2))
                for n in range(5):
                    for bp in bipartitions_of(n):
                        assert is_flotw(bp, p) == is_uglov(bp, p)


def test_expand_monomial_applies_last_residue_first():
    # word [1, 0]: f_1 f_0 acts on empty, so the 0-node is added first.
    vec = expand_monomial([1, 0], P01)
    assert vec == {P("2,-"): 1, P("1,1"): 1}
    assert expand_monomial([0, 1], P01) == {P("1,1"): 1, P("-,1.1"): 1}


def test_max_of_monomial_examples():
    assert max_of_monomial([0], P01) == P("1,-")
    assert max_of_monomial([1, 0], P01) == P("2,-")
    with pytest.raises(ValueError):
        max_of_monomial([2], P01)


def test_monomial_maxima_are_uglov_small():
    p = CrystalParams(2, (0, 0))
    for n in range(1, 5):
        for word in itertools.product(range(2), repeat=n):
            vec = expand_monomial(word, p)
            if vec:
                assert is_uglov(max_of_monomial(word, p), p)
