"""Unit tests for Fock-space operators, good nodes and Uglov membership."""

import itertools
import sys

import pytest

from uglov import admissible, cli, crystal, diagrams, isomorphism
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
    peel_word,
    require_fundamental,
    signature_word,
    uglov_layers,
)
from uglov.diagrams import (
    EMPTY,
    Bipartition,
    Node,
    add_node,
    addable_nodes,
    bipartitions_of,
    component_rim,
    component_rims,
    node_key,
    parse_bipartition,
    partitions_of,
    remove_node,
    removable_nodes,
    residue,
    rim,
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
        f_action({EMPTY: 1}, 0, CrystalParams(1, (0, 0)), {})


def test_f_action_examples():
    assert f_action({EMPTY: 1}, 0, P01, {}) == {P("1,-"): 1}
    assert f_action({EMPTY: 1}, 1, P01, {}) == {P("-,1"): 1}
    assert f_action({EMPTY: 1}, 2, P01, {}) == {}
    both = f_action({EMPTY: 1}, 0, CrystalParams(2, (0, 0)), {})
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
                vec = e_action(f_action({bp: 1}, j, P01, {}), j, P01)
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
    # The class seed: top_class's at a fundamental charge, the test-only
    # oracle's elsewhere (imported here, as test_admissible imports this
    # module).
    from test_admissible import top_normal_oracle

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
        if not 0 <= p.charge[0] <= p.charge[1] < p.e:
            top = top_normal_oracle(signature_word(bp, p), p.charge)
        elif best is None:
            with pytest.raises(AssertionError, match="no normal"):
                admissible.top_class(bp, p)
            continue
        else:
            top = admissible.top_class(bp, p)[2][-1]
        assert top == best, (bp, p)


def test_good_additions_match_residue_loop():
    for bp, p in scan_cases():
        residues = sorted({residue(g, p.charge, p.e)
                           for g in addable_nodes(bp)})
        expected = []
        for j in residues:
            adds = normal_pair_oracle(bp, j, p)[0]
            if adds:
                expected.append((j, add_node(bp, adds[-1])))
        assert good_additions(bp, p, {}) == expected, (bp, p)


def test_children_match_addable_nodes():
    for bp, p in scan_cases():
        expected = {}
        for g in addable_nodes(bp):
            expected.setdefault(residue(g, p.charge, p.e),
                                set()).add(add_node(bp, g))
        got = crystal.children(bp, p)
        assert {j: set(kids) for j, kids in got.items()} == expected, (bp, p)
        assert sum(map(len, got.values())) == len(addable_nodes(bp))


# the grid of the differential check of the component-rim kernel
KERNEL_CHARGES = ((0, 1), (0, 0), (11, 0), (5, -2), (0, 1000))
KERNEL_ES = (2, 3, 4, None)


def whole_rim_oracle(bp, charge):
    """The whole-bipartition row pass the component reader replaced:
    (node_key, content, removable, a, b, c) for every addable and
    removable node, component 1 first, each in row order."""
    out = []
    for c, lam, s in ((1, bp.c1, charge[0]), (2, bp.c2, charge[1])):
        top = lam[0] if lam else 0
        out.append((2 * (top + s) - c, top + s, False, 1, top + 1, c))
        for a, (x, below) in enumerate(zip(lam, lam[1:] + (0,)), 1):
            if x > below:
                cont = x - a + s
                out.append((2 * cont - c, cont, True, a, x, c))
                cont = below - a + s
                out.append((2 * cont - c, cont, False, a + 1, below + 1, c))
    return out


def whole_normal_nodes_oracle(bp, p):
    """The signature loop over one sorted whole_rim_oracle pass:
    {j: (normal addable j-nodes, normal removable j-nodes)} as (a, b, c)
    tuples, each increasing."""
    out = {}
    for _, cont, rem, a, b, c in sorted(whole_rim_oracle(bp, p.charge)):
        j = cont if p.e is None else cont % p.e
        adds, rems = out.setdefault(j, ([], []))
        if rem:
            rems.append((a, b, c))
        elif rems:
            rems.pop()
        else:
            adds.append((a, b, c))
    return out


def test_component_rim_kernel_matches_whole_bipartition_oracle():
    # One table shared by the whole scan: a stale entry, or one keyed
    # without its component or charge, gives some bipartition another's
    # rim.  Equal partitions in the two components at charge (0, 0) and
    # the same partition at five charges share the table.
    table, cases = {}, 0
    for bp in (bp for k in range(SCAN_RANK + 1) for bp in bipartitions_of(k)):
        for charge in KERNEL_CHARGES:
            whole = sorted(whole_rim_oracle(bp, charge))
            assert rim(bp, charge) == whole, (bp, charge)
            rims = component_rims(bp, charge, table)
            assert sorted(rims[0][0] + rims[1][0]) == whole, (bp, charge)
            for entries, grown in rims:
                assert sorted(grown) == [key for key, _, rem, _, _, _
                                         in entries if not rem]
                for key, _, rem, a, b, c in entries:
                    if not rem:
                        assert (grown[key]
                                == add_node(bp, Node(a, b, c)).component(c))
            for e in KERNEL_ES:
                p = CrystalParams(e, charge)
                sig = whole_normal_nodes_oracle(bp, p)
                core = crystal.normal_nodes(rim(bp, charge), e)
                assert {j: ([g[3:] for g in adds], [g[3:] for g in rems])
                        for j, (adds, rems) in core.items()} == sig, (bp, p)
                assert signature_word(bp, p) == {
                    j: ([Node(*g) for g in adds], [Node(*g) for g in rems])
                    for j, (adds, rems) in sig.items()}, (bp, p)
                expected = [(j, add_node(bp, Node(*sig[j][0][-1])))
                            for j in sorted(sig) if sig[j][0]]
                assert good_additions(bp, p, table) == expected, (bp, p)
                assert good_additions(bp, p, {}) == expected, (bp, p)
                kids = {}
                for _, cont, rem, a, b, c in whole_rim_oracle(bp, charge):
                    if not rem:
                        kids.setdefault(cont if e is None else cont % e,
                                        []).append(add_node(bp, Node(a, b, c)))
                assert ({j: sorted(mus) for j, mus in
                         crystal.children(bp, p).items()}
                        == {j: sorted(mus) for j, mus in kids.items()}), (bp, p)
                cases += 1
    assert cases == 434 * len(KERNEL_CHARGES) * len(KERNEL_ES)
    assert set(table) == {(c, charge[c - 1], lam)
                          for k in range(SCAN_RANK + 1)
                          for lam in partitions_of(k)
                          for charge in KERNEL_CHARGES for c in (1, 2)}


def test_component_rim_table_keeps_components_and_charges_apart():
    # Equal partitions in the two components, and the same partition at
    # two charges, are read into distinct entries of one shared table.
    lam, table = (2, 1), {}
    bp = Bipartition(lam, lam)
    for charge in ((0, 0), (0, 1), (1, 0)):
        p = CrystalParams(3, charge)
        assert good_additions(bp, p, table) == good_additions(bp, p, {})
    assert set(table) == {(1, 0, lam), (2, 0, lam), (1, 1, lam), (2, 1, lam)}
    assert table[1, 0, lam] != table[2, 0, lam]
    assert table[1, 0, lam] != table[1, 1, lam]
    # At (0, 0) each content holds a node of each component, component 1
    # the larger: the good 0- and 1-nodes are in component 1, and the
    # two addable 2-nodes cancel the two removable ones below them.
    assert good_additions(bp, CrystalParams(3, (0, 0)), table) == [
        (0, Bipartition((2, 2), lam)),
        (1, Bipartition((2, 1, 1), lam))]


def test_peel_word_matches_oracle_peel():
    # A peel built on signature_word_oracle: the good node of the smallest
    # residue that has one, removed, then the peel of the rest, read off
    # the rest of lower rank.
    peels = {}
    for bp, p in scan_cases():
        if bp == EMPTY:
            peels[p] = {EMPTY: []}
            expected = []
        else:
            residues = sorted({residue(g, p.charge, p.e)
                               for g in removable_nodes(bp)})
            expected = None
            for j in residues:
                rems = normal_pair_oracle(bp, j, p)[1]
                if rems:
                    rest = peels[p][remove_node(bp, rems[0])]
                    expected = None if rest is None else [j] + rest
                    break
            peels[p][bp] = expected
        assert peel_word(bp, p) == expected, (bp, p)
    assert any(p.e is None for p in peels)


@pytest.mark.parametrize("e", [2, 3, 4])
def test_shared_f_action_table_keeps_every_monomial(e):
    # One table shared by every word of length <= 5 at one CrystalParams
    # gives each word's expand_monomial, whose table is its own.
    for charge in ((0, 0), (0, 1), (2, -1), (5, 0)):
        p, table = CrystalParams(e, charge), {}
        for k in range(6):
            for word in itertools.product(range(e), repeat=k):
                vec = {EMPTY: 1}
                for j in reversed(word):
                    vec = f_action(vec, j, p, table)
                assert vec == expand_monomial(word, p), (word, p)
        assert set(table) <= {bp for k in range(5)
                              for bp in bipartitions_of(k)}


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
                add, rem = signature_word(bp, P01).get(j, ([], []))
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
    edges = list(crystal_edges(4, p))
    assert len(edges) == len(set(edges))
    assert {dst for _, _, dst in edges} == set().union(*layers[1:])
    for src, j, dst in edges:
        assert src.rank + 1 == dst.rank
        assert dst in layers[dst.rank]
        assert good_addable_node(src, j, p) is not None


def forbid_validating_primitives(monkeypatch):
    # Every uglov name bound to add_node, addable_nodes or removable_nodes
    # raises from now on.
    def forbidden(*args):
        raise AssertionError("validating primitive called on %r" % (args,))

    for module in (diagrams, crystal, isomorphism, admissible, cli):
        for name in ("add_node", "addable_nodes", "removable_nodes"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)


def count_component_reads(monkeypatch) -> list:
    """Patch diagrams.component_rim to record (c, s, lam) for every read
    that fills an entry of a walk's table (see component_rims); return
    the list of reads."""
    reads = []

    def counted(lam, s, c):
        if sys._getframe(1).f_code.co_name == "_grown_rim":
            reads.append((c, s, lam))
        return component_rim(lam, s, c)

    monkeypatch.setattr(diagrams, "component_rim", counted)
    return reads


def count_rim_passes(monkeypatch) -> list:
    """Patch crystal.rim, the whole-bipartition rim pass of signature_word
    and peel_word, to record (bp, charge) for every pass; return the list
    of passes."""
    passes = []

    def counted(bp, charge):
        passes.append((bp, charge))
        return rim(bp, charge)

    monkeypatch.setattr(crystal, "rim", counted)
    return passes


def component_keys(bps, charge) -> set:
    """The (c, s, lam) of every component of bps at charge."""
    return {(c, charge[c - 1], bp.component(c)) for bp in bps for c in (1, 2)}


@pytest.mark.parametrize("p", [P01, CrystalParams(None, (0, 2))])
def test_uglov_layers_reads_one_rim_per_bipartition(monkeypatch, p):
    # One good_additions scan per Uglov bipartition of rank below n, no
    # other pass over a whole bipartition's rim, and one read per
    # (component, partition) of those bipartitions, through the walk's
    # one table; the children are grown from the component rims:
    # signature_word and good_additions never validate.
    n = 9
    layers = uglov_layers(n, p)
    scans = []

    def counted(bp, p, table):
        scans.append(bp)
        return good_additions(bp, p, table)

    monkeypatch.setattr(crystal, "good_additions", counted)
    passes = count_rim_passes(monkeypatch)
    reads = count_component_reads(monkeypatch)
    forbid_validating_primitives(monkeypatch)
    assert uglov_layers(n, p) == layers
    sources = set().union(*layers[:n])
    assert passes == []
    assert len(scans) == len(set(scans))
    assert set(scans) == sources
    assert len(reads) == len(set(reads))
    assert set(reads) == component_keys(sources, p.charge)
    assert len(reads) < len(scans)


def test_f_action_grows_without_validation(monkeypatch):
    words = list(itertools.product(range(3), repeat=5))
    vectors = [expand_monomial(w, P01) for w in words]
    forbid_validating_primitives(monkeypatch)
    assert [expand_monomial(w, P01) for w in words] == vectors


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
