"""Unit tests for Fock-space operators, good nodes and Uglov membership."""

import itertools
import json
import re
import sys
import tracemalloc

import pytest

from uglov import admissible, cli, crystal, diagrams, isomorphism
from uglov.crystal import (
    ROOT,
    CrystalParams,
    RimTable,
    expand_monomial,
    f_action,
    good_addable_node,
    good_additions,
    good_removable_node,
    is_uglov,
    layer_walk,
    normal_nodes,
    peel_word,
    signature_word,
    uglov_layers,
)
from uglov.diagrams import (
    EMPTY,
    Bipartition,
    Node,
    add_node,
    addable_nodes,
    beta_set,
    bipartition_to_json,
    compare_uglov,
    component_rim,
    grow_partition,
    node_key,
    parse_bipartition,
    part,
    partitions_of,
    remove_node,
    removable_nodes,
    rim,
    with_component,
)
from uglov.isomorphism import require_fundamental
from test_diagrams import bipartitions_of, residue, uglov_key, uglov_max

P = parse_bipartition
P01 = CrystalParams(3, (0, 1))

# (e, charge) grid of the exhaustive checks of the signature scan
SCAN_GRID = [CrystalParams(e, charge) for e in (2, 3, 4, 5, None)
             for charge in ((0, 0), (0, 1), (1, 0), (0, 2), (2, -1),
                            (-2, 3), (5, 0))]
SCAN_RANK = 8


def pair_of(table, bp):
    """bp in table: the ids of its two components, interned."""
    return table.intern(bp.c1), table.intern(bp.c2)


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


def scan(bp, table):
    """good_additions of bp, interned in table, as bipartitions in
    increasing j."""
    (_, good), = good_additions((pair_of(table, bp),), table)
    return [(j, table.bipartition(kid)) for j, kid in sorted(good.items())]


def counting_scan(scans, charge=None):
    """good_additions, appending each bipartition it scans to scans, at
    every charge or only at charge."""
    def counted(pairs, table):
        for pair, good in good_additions(pairs, table):
            if charge in (None, table.p.charge):
                scans.append(table.bipartition(pair))
            yield pair, good
    return counted


def children_oracle(bp, table):
    """{j: the bipartitions bp plus one addable j-node}, for every residue
    j of an addable node, from the rims of bp's components in table: the
    children reader of the Bipartition-keyed f_action_oracle."""
    out = {}
    for c, lam in ((1, bp.c1), (2, bp.c2)):
        for _, rid, child in table.read(c, table.intern(lam)):
            if child is not None:
                out.setdefault(table.residues[rid], []).append(
                    with_component(bp, c, table.parts[child]))
    return out


def f_action_oracle(vec, j, table):
    """The Bipartition-keyed f_action the pair scan replaced: vec is a
    dict Bipartition -> coefficient, and each term's j-children come from
    children_oracle, grown through table."""
    out = {}
    for bp, coeff in vec.items():
        for mu in children_oracle(bp, table).get(j, ()):
            out[mu] = out.get(mu, 0) + coeff
    return out


def f_action_rim_scan(vec, j, table):
    """The pair-keyed f_action that RimTable.children replaced: each
    pair's two stored rims are scanned whole for the addable j-nodes,
    each entry's residue read through table.residues."""
    rims1, rims2 = table.rims
    residues = table.residues
    out = {}
    for pair, coeff in vec.items():
        i1, i2 = pair
        for _, r, child in rims1[i1] or table.read(1, i1):
            if residues[r] == j and child is not None:
                kid = (child, i2)
                out[kid] = out.get(kid, 0) + coeff
        for _, r, child in rims2[i2] or table.read(2, i2):
            if residues[r] == j and child is not None:
                kid = (i1, child)
                out[kid] = out.get(kid, 0) + coeff
    return out


def f_action_bps(vec, j, table):
    """f_action of vec, a dict Bipartition -> coefficient, through the
    pairs of table, read back as Bipartitions."""
    out = f_action({pair_of(table, bp): c for bp, c in vec.items()}, j,
                   table)
    return {table.bipartition(pair): c for pair, c in out.items()}


def good_additions_oracle(bp, p):
    """The normal_nodes-list good additions the counter scan replaced:
    the merged component rims of bp through normal_nodes, and for each
    residue j with a normal addable node, in increasing j, bp plus the
    last of them."""
    s1, s2 = p.charge
    entries = component_rim(bp.c1, s1, 1) + component_rim(bp.c2, s2, 2)
    entries.sort()
    sig = normal_nodes(entries, p.e)
    out = []
    for j in sorted(sig):
        adds = sig[j][0]
        if adds:
            _, _, _, a, b, c = adds[-1]
            out.append((j, with_component(
                bp, c, grow_partition(bp.component(c), a, b))))
    return out


def read_keys(table) -> set:
    """The (c, s, lam) of every partition whose rim table has read."""
    return {(c, table.p.charge[c - 1], table.parts[i])
            for c in (1, 2)
            for i, entries in enumerate(table.rims[c - 1]) if entries}


def test_params_validation():
    with pytest.raises(ValueError):
        f_action({ROOT: 1}, 0, RimTable(CrystalParams(1, (0, 0))))


def test_f_action_examples():
    assert f_action_bps({EMPTY: 1}, 0, RimTable(P01)) == {P("1,-"): 1}
    assert f_action_bps({EMPTY: 1}, 1, RimTable(P01)) == {P("-,1"): 1}
    assert f_action({ROOT: 1}, 2, RimTable(P01)) == {}
    both = f_action_bps({EMPTY: 1}, 0, RimTable(CrystalParams(2, (0, 0))))
    assert both == {P("1,-"): 1, P("-,1"): 1}


def test_f_action_matches_bipartition_oracle():
    # Per rank, one vector over every bipartition with distinct
    # coefficients, so that children shared by two terms add up; every
    # residue of SCAN_GRID (at e = infinity, every residue of a node of
    # the rank and one past them), through one table per CrystalParams
    # shared by the whole scan and a fresh table.
    cases = 0
    for p in SCAN_GRID:
        table = RimTable(p)
        for k in range(SCAN_RANK + 1):
            vec = {bp: i + 1 for i, bp in enumerate(bipartitions_of(k))}
            if p.e is None:
                residues = {residue(g, p.charge, None) for bp in vec
                            for g in addable_nodes(bp) | removable_nodes(bp)}
                residues.add(max(residues) + 1)
            else:
                residues = range(p.e)
            for j in residues:
                expected = f_action_oracle(vec, j, RimTable(p))
                assert f_action_bps(vec, j, table) == expected, (p, k, j)
                assert f_action_bps(vec, j, RimTable(p)) == expected, (
                    p, k, j)
                cases += bool(expected)
    assert cases > len(SCAN_GRID) * SCAN_RANK


def record_f_actions(monkeypatch, module) -> list:
    """Patch module.f_action to record (vec, j, table, its result) for
    every call; return the list of calls."""
    calls = []

    def recorded(vec, j, table):
        out = f_action(vec, j, table)
        calls.append((vec, j, table, out))
        return out

    monkeypatch.setattr(module, "f_action", recorded)
    return calls


@pytest.mark.parametrize("p", [P01, CrystalParams(4, (1, 3))], ids=str)
def test_f_action_matches_rim_scan_on_forward_vectors(monkeypatch, p):
    # Every vector the forward sweep expands to rank 9, through the
    # sweep's own table, gives the vector of the whole-rim scan.
    calls = record_f_actions(monkeypatch, admissible)
    for _ in admissible.verify_djm_forward(9, p):
        pass
    assert len(calls) > 200
    for vec, j, table, out in calls:
        assert out == f_action_rim_scan(vec, j, table), (vec, j)


@pytest.mark.parametrize("charge", [(0, 1), (2, -1), (0, 0)])
def test_f_action_matches_rim_scan_on_monomials_at_e_infinity(monkeypatch,
                                                              charge):
    # expand_monomial's vectors at e = infinity, where a residue is a
    # content: every word of length <= 4 over the residues -3..3.
    p = CrystalParams(None, charge)
    calls = record_f_actions(monkeypatch, crystal)
    for k in range(5):
        for word in itertools.product(range(-3, 4), repeat=k):
            expand_monomial(word, p)
    assert sum(bool(out) for *_, out in calls) > 500
    for vec, j, table, out in calls:
        assert out == f_action_rim_scan(vec, j, table), (vec, j)


def test_children_lists_the_rim_children_by_residue():
    # children(c, i) is the rim's (residue id, child) entries grouped by
    # residue in rim order, built once and kept.
    for p in SCAN_GRID:
        table = RimTable(p)
        for k in range(6):
            for lam in partitions_of(k):
                for c in (1, 2):
                    i = table.intern(lam)
                    expected = {}
                    for _, rid, child in table.read(c, i):
                        if child is not None:
                            expected.setdefault(table.residues[rid],
                                                []).append(child)
                    kids = table.children(c, i)
                    assert kids == expected
                    assert table.children(c, i) is kids
                    assert table.kids[c - 1][i] is kids


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
                vec = e_action(f_action_bps({bp: 1}, j, RimTable(P01)), j,
                               P01)
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
    # The class seed: class_step's at a fundamental charge, through
    # test_admissible's top_class, the test-only oracle's elsewhere
    # (imported here, as test_admissible imports this module).
    from test_admissible import top_class, top_normal_oracle

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
                top_class(bp, p)
            continue
        else:
            top = top_class(bp, p)[2][-1]
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
        assert scan(bp, RimTable(p)) == expected, (bp, p)


def test_children_match_addable_nodes():
    # f_action of one bipartition at each residue of an addable node,
    # and at one residue without (past the largest at e = infinity).
    for bp, p in scan_cases():
        expected = {}
        for g in addable_nodes(bp):
            expected.setdefault(residue(g, p.charge, p.e),
                                {})[add_node(bp, g)] = 1
        residues = range(p.e) if p.e else [*expected, max(expected) + 1]
        got = {j: f_action_bps({bp: 1}, j, RimTable(p)) for j in residues}
        assert {j: kids for j, kids in got.items() if kids} == expected, (
            bp, p)
        assert sum(map(len, got.values())) == len(addable_nodes(bp))


# the grid of the differential check of the component-rim kernel
KERNEL_CHARGES = ((0, 1), (0, 0), (11, 0), (5, -2), (0, 1000))
KERNEL_ES = (2, 3, 4, 10**6, None)


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
    # One table per CrystalParams, shared by the whole scan: a stale rim,
    # or a rim shared between the two components, gives some bipartition
    # another's rim.  Equal partitions in the two components at charge
    # (0, 0) share a table.
    tables, cases = {}, 0
    for bp in (bp for k in range(SCAN_RANK + 1) for bp in bipartitions_of(k)):
        for charge in KERNEL_CHARGES:
            whole = sorted(whole_rim_oracle(bp, charge))
            assert rim(bp, charge) == whole, (bp, charge)
            for e in KERNEL_ES:
                p = CrystalParams(e, charge)
                table = tables.get(p) or tables.setdefault(p, RimTable(p))
                i1, i2 = pair = pair_of(table, bp)
                assert table.bipartition(pair) == bp
                stored = sorted(table.read(1, i1) + table.read(2, i2))
                assert len(stored) == len(whole), (bp, p)
                for (key, rid, child), (key0, cont, rem, a, b, c) in zip(
                        stored, whole):
                    assert (key, table.residues[rid]) == (
                        key0, cont if e is None else cont % e)
                    assert (child is None) == rem
                    if not rem:
                        assert (table.parts[child]
                                == add_node(bp, Node(a, b, c)).component(c))
                sig = whole_normal_nodes_oracle(bp, p)
                core = normal_nodes(rim(bp, charge), e)
                assert {j: ([g[3:] for g in adds], [g[3:] for g in rems])
                        for j, (adds, rems) in core.items()} == sig, (bp, p)
                assert signature_word(bp, p) == {
                    j: ([Node(*g) for g in adds], [Node(*g) for g in rems])
                    for j, (adds, rems) in sig.items()}, (bp, p)
                expected = [(j, add_node(bp, Node(*sig[j][0][-1])))
                            for j in sorted(sig) if sig[j][0]]
                assert scan(bp, table) == expected, (bp, p)
                assert scan(bp, RimTable(p)) == expected, (bp, p)
                kids = {}
                for _, cont, rem, a, b, c in whole_rim_oracle(bp, charge):
                    if not rem:
                        kids.setdefault(cont if e is None else cont % e,
                                        []).append(add_node(bp, Node(a, b, c)))
                kids = {j: sorted(mus) for j, mus in kids.items()}
                for rims in (table, RimTable(p)):  # shared, and fresh
                    got = {j: sorted(f_action_bps({bp: 1}, j, rims))
                           for j in (table.residues[rid]
                                     for _, rid, _ in stored)}
                    assert {j: mus for j, mus in got.items() if mus} == kids, (
                        bp, p)
                cases += 1
    assert cases == 434 * len(KERNEL_CHARGES) * len(KERNEL_ES)
    assert len(tables) == len(KERNEL_CHARGES) * len(KERNEL_ES)
    for p, table in tables.items():  # ids and partitions are inverse
        assert table.ids == {lam: i for i, lam in enumerate(table.parts)}
        assert read_keys(table) == {(c, p.charge[c - 1], lam)
                                    for k in range(SCAN_RANK + 1)
                                    for lam in partitions_of(k)
                                    for c in (1, 2)}


def test_good_additions_match_normal_nodes_oracle():
    # The counter scan against the normal_nodes-list scan it replaced,
    # through one table per CrystalParams shared by every bipartition.
    cases = 0
    for charge in KERNEL_CHARGES:
        for e in KERNEL_ES:
            p = CrystalParams(e, charge)
            table = RimTable(p)
            for k in range(SCAN_RANK + 1):
                for bp in bipartitions_of(k):
                    assert scan(bp, table) == good_additions_oracle(bp, p), (
                        bp, p)
                    cases += 1
    assert cases == 434 * len(KERNEL_CHARGES) * len(KERNEL_ES)


def kernel_tables(n):
    """{p: a RimTable at p} over the KERNEL_CHARGES x KERNEL_ES grid,
    each holding the pairs of one layer_walk to rank n, interned in walk
    order, and then of every bipartition of rank <= SCAN_RANK - 2."""
    tables = {}
    for charge in KERNEL_CHARGES:
        for e in KERNEL_ES:
            p = CrystalParams(e, charge)
            table = tables[p] = RimTable(p)
            for _ in layer_walk(n, table):
                pass
            for k in range(SCAN_RANK - 1):
                for bp in bipartitions_of(k):
                    pair_of(table, bp)
    return tables


def test_order_sorts_pairs_as_bipartitions_compare():
    # Every pair of ids of each table, listed in reverse so that a tie
    # of the key would keep the wrong order: table.order() sorts them as
    # table.bipartition does, each key distinct.
    for p, table in kernel_tables(8).items():
        key = table.order()
        pairs = list(itertools.product(range(len(table.parts)),
                                       repeat=2))[::-1]
        assert len(pairs) > 1000, p
        assert sorted(pairs, key=key) == sorted(pairs,
                                                key=table.bipartition), p
        assert len(set(map(key, pairs))) == len(pairs), p


def test_text_is_the_json_of_each_partition():
    for p, table in kernel_tables(8).items():
        for i, lam in enumerate(table.parts):
            text = table.text(i)
            assert text == json.dumps(list(lam)), (p, lam)
            assert table.text(i) is text  # written once, kept


def test_ranked_lists_each_rank_in_uglov_order():
    # ranked(k) holds the pairs of every bipartition of rank k, as
    # uglov_key sorts them at the table's charge, each strictly below the
    # next under compare_uglov, so a maximum is the last of its members.
    for p, table in kernel_tables(8).items():
        for k in range(8):
            ranked = table.ranked(k)
            assert ranked == [pair_of(table, bp) for bp in sorted(
                bipartitions_of(k), key=lambda bp: uglov_key(bp, p.charge))]
            bps = list(map(table.bipartition, ranked))
            assert all(compare_uglov(x, y, p.charge) == -1
                       for x, y in zip(bps, bps[1:])), (p, k)


@pytest.mark.parametrize("e", [2, 3, None])
def test_ranked_matches_the_oracle_order_at_the_clamp(e):
    # bead_keys clamp the charge gap to k + 1 contents at rank k, so the
    # gaps k - 3 .. k + 3 either way cross the clamp, and at a gap of
    # 100000 the keys stay as wide as near it: each rank is laid out as
    # uglov_key sorts it, at charges on both sides of the clamp.
    for k in range(11):
        charges = [(0, d) for d in range(k - 3, k + 4)]
        charges += [(d, 0) for d in range(k - 3, k + 4)]
        charges += [(-50, 3), (0, 100000), (100000, 0)]
        for charge in charges:
            table = RimTable(CrystalParams(e, charge))
            assert table.ranked(k) == [pair_of(table, bp) for bp in sorted(
                bipartitions_of(k), key=lambda bp: uglov_key(bp, charge))], (
                    charge, k)
            if 100000 in charge:
                assert all(key.bit_length() <= 8 * k + 8
                           for key in table.bead_keys(k).values()), (
                               charge, k)


def test_json_is_the_json_of_each_bipartition():
    for p, table in kernel_tables(8).items():
        for k in range(8):
            for pair in table.ranked(k):
                bp = table.bipartition(pair)
                assert (table.json(pair)
                        == json.dumps(bipartition_to_json(bp))), (p, bp)


def test_residue_ids_hold_only_the_residues_met():
    # After a rank-12 walk the table has interned the residues its rims
    # met, rids their inverse: as many at e = 10**6 as at e = infinity,
    # where the walk is the same, and at most e at finite e.
    for charge in KERNEL_CHARGES:
        met = {}
        for e in KERNEL_ES:
            table = RimTable(CrystalParams(e, charge))
            for _ in layer_walk(12, table):
                pass
            assert table.rids == {j: rid for rid, j
                                  in enumerate(table.residues)}
            assert table.residues
            met[e] = len(table.residues)
            if e is not None:
                assert met[e] <= e, (charge, e)
        assert met[10**6] == met[None], charge


def test_top_layer_is_the_last_layer(monkeypatch):
    # enumerate's layer: the last of one layer_walk, each bipartition
    # once, without uglov_layers.
    expected = {p: uglov_layers(9, p)[9]
                for p in (P01, CrystalParams(None, (0, 2)))}

    def forbidden(*args):
        raise AssertionError("uglov_layers called")

    monkeypatch.setattr(crystal, "uglov_layers", forbidden)
    for p, layer in expected.items():
        table, pairs = crystal.top_layer(9, p)
        top = list(map(table.bipartition, pairs))
        assert len(top) == len(set(top))
        assert set(top) == layer
        assert top == sorted(layer)  # in table.order(), as enumerate lists


def test_enumerate_walk_scans_each_pair_once_in_one_batch_per_layer(
        monkeypatch):
    # The walk of the enumerate benchmark, e=3, s=(0,1) at rank 19, scans
    # each Uglov bipartition of rank below 19 once, 5,304 in all, in one
    # good_additions batch per layer.
    scans, batches = [], []
    counted = counting_scan(scans)

    def batched(pairs, table):
        batches.append(len(pairs))
        return counted(pairs, table)

    monkeypatch.setattr(crystal, "good_additions", batched)
    _, top = crystal.top_layer(19, P01)
    assert len(scans) == len(set(scans)) == sum(batches) == 5304
    assert len(batches) == 19
    assert len(top) == 1782


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_huge_e_walk_holds_no_more_than_infinite_e():
    # Below rank e the residues are the contents mod e and the walk is
    # the one at e = infinity: the scan's counters hold only the
    # residues met, so e = 10**6 costs what e = None does.  The first
    # walk of a process also allocates for itself, so one runs before.
    crystal.top_layer(12, CrystalParams(None, (0, 1)))
    peaks = {e: traced_peak(crystal.top_layer, 12, CrystalParams(e, (0, 1)))
             for e in (None, 10**6)}
    assert peaks[10**6] <= 2 * peaks[None]


def test_component_rim_table_keeps_components_and_charges_apart():
    # Equal partitions in the two components of one table take one id
    # but keep two rims, and the same partition at two charges is read
    # into two tables, each its own.
    lam = (2, 1)
    bp = Bipartition(lam, lam)
    rims = {}
    for charge in ((0, 0), (0, 1), (1, 0)):
        p = CrystalParams(3, charge)
        table = RimTable(p)
        assert scan(bp, table) == good_additions_oracle(bp, p)
        assert pair_of(table, bp) == (1, 1)
        rims[charge] = (table.read(1, 1), table.read(2, 1))
        assert read_keys(table) == {(1, charge[0], lam), (2, charge[1], lam)}
    assert rims[0, 0][0] != rims[0, 0][1]
    assert rims[0, 0][0] != rims[1, 0][0]
    # At (0, 0) each content holds a node of each component, component 1
    # the larger: the good 0- and 1-nodes are in component 1, and the
    # two addable 2-nodes cancel the two removable ones below them.
    assert scan(bp, RimTable(CrystalParams(3, (0, 0)))) == [
        (0, Bipartition((2, 2), lam)),
        (1, Bipartition((2, 1, 1), lam))]


def test_one_id_per_partition_whichever_component_holds_it():
    # After a walk, and after bead_keys, ids and parts are inverse over
    # one id space, every per-component store is indexed by it, and
    # (lam, lam) interns as (i, i); bead_keys(0..8) interns each
    # partition of rank <= 8 once.
    walked, _ = crystal.top_layer(12, CrystalParams(3, (0, 0)))
    keyed = RimTable(P01)
    for k in range(9):
        keyed.bead_keys(k)
    assert len(keyed.parts) == sum(len(list(partitions_of(k)))
                                   for k in range(9))
    for table in (walked, keyed):
        assert table.ids == {lam: i for i, lam in enumerate(table.parts)}
        assert all(len(store) == len(table.parts)
                   for store in table.rims + table.kids)
        for i, lam in enumerate(table.parts):
            assert pair_of(table, Bipartition(lam, lam)) == (i, i)


def test_sweeps_intern_each_partition_once():
    # enumerate's walk to rank 30 at e=3, s=(0,1) interns its 3,265
    # distinct partitions once each, whichever component meets them, and
    # forward's table at e=4, s=(1,3) to rank 12 the 272 partitions of
    # rank <= 12.
    table, _ = crystal.top_layer(30, P01)
    assert len(table.parts) == len(table.ids) == 3265
    p = CrystalParams(4, (1, 3))
    src, dst, _ = isomorphism.image_walk(12, p, p.charge)
    for k in range(13):
        src.bead_keys(k)
    assert dst is src
    assert len(src.parts) == len(src.ids) == sum(
        len(list(partitions_of(k))) for k in range(13)) == 272


def test_layer_walk_lists_uglov_layers():
    # uglov_layers lists the one layer walk; the walk's first layer is
    # the empty bipartition, ROOT in every table.
    for p in (P01, CrystalParams(None, (0, 2)), CrystalParams(2, (5, -2))):
        table = RimTable(p)
        assert table.bipartition(ROOT) == EMPTY
        walked = [set(map(table.bipartition, layer))
                  for layer in layer_walk(7, table)]
        assert walked == uglov_layers(7, p)


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
                    expected = None if rest is None else rest + [j]
                    break
            peels[p][bp] = expected
        assert peel_word(bp, p) == expected, (bp, p)
    assert any(p.e is None for p in peels)


@pytest.mark.parametrize("e", [2, 3, 4])
def test_shared_f_action_table_keeps_every_monomial(e):
    # One table shared by every word of length <= 5 at one CrystalParams
    # gives each word's expand_monomial, whose table is its own, and it
    # reads the rims of the components of the bipartitions f_action
    # scans, which their children are grown from.
    for charge in ((0, 0), (0, 1), (2, -1), (5, 0)):
        p = CrystalParams(e, charge)
        table, scanned = RimTable(p), set()
        for k in range(6):
            for word in itertools.product(range(e), repeat=k):
                vec = {ROOT: 1}
                for j in word:
                    scanned.update(vec)
                    vec = f_action(vec, j, table)
                assert ({table.bipartition(pair): c
                         for pair, c in vec.items()}
                        == expand_monomial(word, p)), (word, p)
        bps = set(map(table.bipartition, scanned))
        assert bps <= {bp for k in range(5) for bp in bipartitions_of(k)}
        assert read_keys(table) == component_keys(bps, charge)


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
    # The DOT graph's nodes are the layers of uglov_layers, and its edges
    # are good-node additions, each one rank up.
    edge = re.compile(r'  "(.*)" -> "(.*)" \[label="(-?\d+)"\];')
    for p in (CrystalParams(2, (0, 0)), P01, CrystalParams(None, (0, 1))):
        layers = uglov_layers(4, p)
        lines = cli.render_dot(4, p).split("\n")
        assert lines[0] == "digraph crystal {" and lines[-1] == "}"
        nodes, edges = [], []
        for line in lines[1:-1]:
            parts = edge.fullmatch(line)
            if parts:
                src, dst, j = parts.groups()
                edges.append((P(src), int(j), P(dst)))
            else:
                nodes.append(P(re.fullmatch(r'  "(.*)";', line).group(1)))
        assert len(edges) == len(set(edges))
        assert sorted(nodes) == sorted(set().union(*layers))
        assert {dst for _, _, dst in edges} == set().union(*layers[1:])
        for src, j, dst in edges:
            assert src.rank + 1 == dst.rank
            assert dst in layers[dst.rank]
            assert add_node(src, good_addable_node(src, j, p)) == dst


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
    """Patch crystal.component_rim, the row reader of RimTable.read, to
    record (c, s, lam) for every rim a table reads; return the list of
    reads."""
    reads = []

    def counted(lam, s, c):
        reads.append((c, s, lam))
        return component_rim(lam, s, c)

    monkeypatch.setattr(crystal, "component_rim", counted)
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
    # other pass over a whole bipartition's rim, and one rim read per
    # (component, partition) of those bipartitions, through the walk's
    # one table; the children are grown from the component rims:
    # signature_word and good_additions never validate.
    n = 9
    layers = uglov_layers(n, p)
    scans = []
    monkeypatch.setattr(crystal, "good_additions", counting_scan(scans))
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
    # require_fundamental reads the domain through reduce_to_fundamental,
    # and raises exactly where the inequality 0 <= s1 <= s2 < e fails.
    for e in range(2, 7):
        for s1, s2 in itertools.product(range(-2 * e, 2 * e + 1), repeat=2):
            p = CrystalParams(e, (s1, s2))
            if 0 <= s1 <= s2 < e:
                require_fundamental(p)
            else:
                with pytest.raises(ValueError, match=re.escape(
                        "charge (%d, %d) not in the fundamental domain for "
                        "e=%d" % (s1, s2, e))):
                    require_fundamental(p)
    with pytest.raises(ValueError, match=re.escape(
            "charge (0, 1) not in the fundamental domain for e=None")):
        require_fundamental(CrystalParams(None, (0, 1)))


def is_flotw(bp: Bipartition, p: CrystalParams) -> bool:
    """Cyclic dominance inequalities plus the missing-residue condition."""
    require_fundamental(p)
    e, (s1, s2) = p.e, p.charge
    lam1, lam2 = bp.c1, bp.c2
    for i in range(1, max(len(lam1), len(lam2)) + 1):
        if part(lam1, i) < part(lam2, i + s2 - s1):
            return False
        if part(lam2, i) < part(lam1, i + e + s1 - s2):
            return False
    found: dict[int, set[int]] = {}  # part -> residues of its row ends
    for lam, s in ((lam1, s1), (lam2, s2)):
        for k, x in zip(lam, beta_set(lam, s)):
            found.setdefault(k, set()).add(x % e)
    return all(len(res) < e for res in found.values())


def test_is_flotw_examples():
    assert not is_flotw(P("1.1.1,-"), CrystalParams(3, (0, 0)))
    assert is_flotw(P("3.2.2.1.1,3.3.1"), P01)
    assert is_flotw(EMPTY, P01)
    with pytest.raises(ValueError):
        is_flotw(EMPTY, CrystalParams(3, (1, 0)))
    with pytest.raises(ValueError):
        is_flotw(EMPTY, CrystalParams(None, (0, 1)))


def test_flotw_equals_uglov_small():
    # adm_flotw tests FLOTW membership with is_uglov, so it rests on this
    # equality at every fundamental charge.
    for e in (2, 3, 4, 5):
        for s1 in range(e):
            for s2 in range(s1, e):
                p = CrystalParams(e, (s1, s2))
                for n in range(8):
                    for bp in bipartitions_of(n):
                        assert is_flotw(bp, p) == is_uglov(bp, p), (bp, p)


def test_expand_monomial_applies_first_residue_first():
    # word [0, 1]: f_1 f_0 acts on empty, so the 0-node is added first.
    vec = expand_monomial([0, 1], P01)
    assert vec == {P("2,-"): 1, P("1,1"): 1}
    assert expand_monomial([1, 0], P01) == {P("1,1"): 1, P("-,1.1"): 1}


def test_max_of_monomial_examples():
    assert uglov_max(expand_monomial([0], P01), P01.charge) == P("1,-")
    assert (uglov_max(expand_monomial([0, 1], P01), P01.charge)
            == P("2,-"))
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
