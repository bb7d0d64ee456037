"""Unit tests for Fock-space operators, good nodes and Uglov membership."""

import itertools

import pytest

from uglov.admissible import max_normal_removable_node
from uglov.crystal import (
    CrystalParams,
    crystal_edges,
    expand_monomial,
    f_action,
    good_addable_node,
    good_additions,
    good_removable_node,
    is_flotw,
    is_uglov,
    normal_addable_nodes,
    normal_removable_nodes,
    require_fundamental,
    signature_word,
    uglov_layers,
)
from uglov.diagrams import (
    EMPTY,
    Node,
    add_node,
    addable_nodes,
    bipartitions_of,
    node_key,
    parse_bipartition,
    remove_node,
    removable_nodes,
    residue,
    uglov_max,
)

P = parse_bipartition
P01 = CrystalParams(3, (0, 1))

# (e, charge) grid of the exhaustive checks of the signature scan
SCAN_GRID = [CrystalParams(e, charge) for e in (2, 3, 4, 5, None)
             for charge in ((0, 0), (0, 1), (1, 0), (0, 2), (2, -1),
                            (-2, 3), (5, 0))]
SCAN_RANK = 8


def signature_word_oracle(bp, j, p):
    """The addable and removable j-nodes as (node, tag) pairs, tag "A" or
    "R", in increasing node order: the signature j-word before
    cancellation, built one residue at a time."""
    entries = [(g, tag) for tag, nodes in (("A", addable_nodes(bp)),
                                           ("R", removable_nodes(bp)))
               for g in nodes if residue(g, p.charge, p.e) == j]
    return sorted(entries, key=lambda ent: node_key(ent[0], p.charge))


def reduce_word_oracle(word):
    """Cancel every removable-immediately-before-addable pair, as a stack;
    the reduced word reads A...A R...R."""
    stack = []
    for entry in word:
        if entry[1] == "A" and stack and stack[-1][1] == "R":
            stack.pop()
        else:
            stack.append(entry)
    tags = "".join(tag for _, tag in stack)
    assert tags == "A" * tags.count("A") + "R" * tags.count("R")
    return stack


def normal_pair_oracle(bp, j, p):
    """(normal addable, normal removable) j-nodes, each increasing."""
    reduced = reduce_word_oracle(signature_word_oracle(bp, j, p))
    return ([g for g, tag in reduced if tag == "A"],
            [g for g, tag in reduced if tag == "R"])


def scan_cases():
    for p in SCAN_GRID:
        for n in range(SCAN_RANK + 1):
            for bp in bipartitions_of(n):
                yield bp, p


def test_params_validation():
    with pytest.raises(ValueError):
        f_action({EMPTY: 1}, 0, CrystalParams(1, (0, 0)))


def test_f_action_examples():
    assert f_action({EMPTY: 1}, 0, P01) == {P("1,-"): 1}
    assert f_action({EMPTY: 1}, 1, P01) == {P("-,1"): 1}
    assert f_action({EMPTY: 1}, 2, P01) == {}
    both = f_action({EMPTY: 1}, 0, CrystalParams(2, (0, 0)))
    assert both == {P("1,-"): 1, P("-,1"): 1}


def e_action(vec, j, p):
    """Linear extension of: sum over mu obtained by removing a j-node."""
    out = {}
    for bp, coeff in vec.items():
        for g in removable_nodes(bp):
            if residue(g, p.charge, p.e) == j:
                mu = remove_node(bp, g)
                out[mu] = out.get(mu, 0) + coeff
    return {bp: c for bp, c in out.items() if c != 0}


def test_e_f_adjoint_counts():
    # <e_j f_j bp, bp> counts the addable j-nodes of bp.
    for n in range(4):
        for bp in bipartitions_of(n):
            for j in range(3):
                vec = e_action(f_action({bp: 1}, j, P01), j, P01)
                count = sum(residue(g, P01.charge, P01.e) == j
                            for g in addable_nodes(bp))
                assert vec.get(bp, 0) == count


def test_signature_word_example():
    p = CrystalParams(3, (0, 2))
    sig = signature_word(P("3.1.1,3.2.2.1.1"), p)
    # no addable 1-node, so all four removable 1-nodes are normal,
    # increasing by content and, at equal content, component 2 first
    assert sig[1] == ([], [Node(5, 1, 2), Node(3, 1, 1),
                           Node(3, 2, 2), Node(1, 3, 2)])
    assert sig[0] == ([Node(6, 1, 2), Node(4, 1, 1), Node(4, 2, 2),
                       Node(2, 2, 1), Node(2, 3, 2), Node(1, 4, 1)], [])
    assert sig[2] == ([], [])  # every 2-node cancels
    assert sorted(sig) == [0, 1, 2]


def test_signature_word_matches_oracle():
    # one scan against the per-residue word and stack reduction
    for bp, p in scan_cases():
        sig = signature_word(bp, p)
        nodes = addable_nodes(bp) | removable_nodes(bp)
        assert set(sig) == {residue(g, p.charge, p.e) for g in nodes}
        for j, pair in sig.items():
            assert pair == normal_pair_oracle(bp, j, p), (bp, p, j)


def test_max_normal_removable_node_matches_residue_loop():
    for bp, p in scan_cases():
        if p.e is None:
            continue
        best = None
        for j in range(p.e):
            nodes = normal_pair_oracle(bp, j, p)[1]
            if nodes and (best is None
                          or node_key(nodes[-1], p.charge)
                          > node_key(best, p.charge)):
                best = nodes[-1]
        assert max_normal_removable_node(bp, p) == best, (bp, p)


def test_good_additions_match_residue_loop():
    for bp, p in scan_cases():
        residues = sorted({residue(g, p.charge, p.e)
                           for g in addable_nodes(bp)})
        expected = []
        for j in residues:
            adds = normal_pair_oracle(bp, j, p)[0]
            if adds:
                expected.append((j, add_node(bp, adds[-1])))
        assert good_additions(bp, p) == expected, (bp, p)


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
                sig = signature_word(bp, p)
                for j in range(3):
                    adds, rems = sig.get(j, ([], []))
                    tags = _reduce_by_scanning(
                        tag for _, tag in signature_word_oracle(bp, j, p))
                    assert tags == ["A"] * len(adds) + ["R"] * len(rems)


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
                assert set(add) <= {g for g in addable_nodes(bp)
                                    if residue(g, P01.charge, P01.e) == j}
                assert set(rem) <= {g for g in removable_nodes(bp)
                                    if residue(g, P01.charge, P01.e) == j}


def test_residue_sets():
    # the scan has a key for every residue of an addable or removable node
    assert sorted(signature_word(EMPTY, P01)) == [0, 1]
    sig = signature_word(P("3.3.1,2.1"), P01)
    assert sorted(sig) == [0, 1, 2]
    assert sig[2] == ([Node(3, 1, 2), Node(3, 2, 1)], [Node(1, 2, 2)])


def test_enumerate_uglov_small():
    assert uglov_layers(0, P01)[0] == {EMPTY}
    assert uglov_layers(1, P01)[1] == {P("1,-"), P("-,1")}
    assert P("6.1,2.2") in uglov_layers(11, P01)[11]


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
    require_fundamental(CrystalParams(3, (0, 1)))
    for charge in ((1, 0), (0, 3)):
        with pytest.raises(ValueError, match="fundamental domain"):
            require_fundamental(CrystalParams(3, charge))


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
    assert uglov_max(expand_monomial([0], P01), P01.charge) == P("1,-")
    assert uglov_max(expand_monomial([1, 0], P01), P01.charge) == P("2,-")
    assert expand_monomial([2], P01) == {}


def test_monomial_maxima_are_uglov_small():
    p = CrystalParams(2, (0, 0))
    for n in range(1, 5):
        for word in itertools.product(range(2), repeat=n):
            vec = expand_monomial(word, p)
            # positive coefficients: f_action never drops a cancelled term
            assert all(coeff > 0 for coeff in vec.values())
            if vec:
                assert is_uglov(uglov_max(vec, p.charge), p)
