"""Unit tests for connectedness, admissible sequences and the verifiers."""

import functools
import itertools
import json
import random
import sys

import pytest

from uglov.admissible import (
    adm,
    adm_flotw,
    adm_walk,
    class_step,
    propb_checks,
    removable_class,
    row_standard_shapes,
    verify_djm_converse,
    verify_djm_corollary,
    verify_djm_forward,
)
from uglov import admissible, crystal, diagrams, isomorphism
from uglov.crystal import (
    CrystalParams,
    RimTable,
    expand_monomial,
    f_action,
    is_uglov,
    signature_word,
    uglov_layers,
)
from uglov.diagrams import (
    EMPTY,
    Bipartition,
    Node,
    addable_nodes,
    beta_set,
    bipartition_to_json,
    content,
    default_window,
    format_bipartition,
    nature_table,
    node_key,
    parse_bipartition,
    part,
    partitions_of,
    removable,
    remove_node,
    removable_nodes,
    rim,
)
from uglov.isomorphism import (
    fundamental,
    image_walk,
    psi_to,
    reduce_to_fundamental,
    require_fundamental,
    verify_psi_nature,
)
from test_crystal import (
    component_keys,
    count_component_reads,
    count_rim_passes,
    counting_scan,
    f_action_oracle,
    forbid_validating_primitives,
    is_flotw,
    read_keys,
)
from test_diagrams import bipartitions_of, residue, uglov_key, uglov_max
from test_isomorphism import psi_nature_check_oracle

P = parse_bipartition
P01 = CrystalParams(3, (0, 1))
P02 = CrystalParams(3, (0, 2))


def has_period(bp, p):
    # Whether bp has a period: admissible.period, the test class_step
    # makes once one bead moves down, on the beads of bp's rows.
    if p.e is None:
        raise ValueError("periods need finite e")
    (s1, s2), e = p.charge, p.e
    return admissible.period(set(beta_set(bp.c1, s1)),
                             set(beta_set(bp.c2, s2)), e)


def one_connected(bp, g1, g2, p):
    # Oracle of the (1)-link: True when removing the larger node g2
    # creates a period.
    if p.e is None:
        raise ValueError("(1)-connectedness needs finite e")
    if not (removable(bp, g1) and removable(bp, g2)):
        raise ValueError("both nodes must be removable")
    if residue(g1, p.charge, p.e) != residue(g2, p.charge, p.e):
        raise ValueError("nodes must share one residue")
    if node_key(g1, p.charge) >= node_key(g2, p.charge):
        raise ValueError("expected g1 < g2, got %r, %r" % (g1, g2))
    return has_period(remove_node(bp, g2), p)


def two_connected(bp, g1, p):
    # Oracle of the (2)-link: the shifted equal-part partner of a
    # removable node, if any.
    require_fundamental(p)
    e, (s1, s2) = p.e, p.charge
    if not removable(bp, g1):
        raise ValueError("%r is not removable from %r" % (g1, bp))
    a, b, c = g1
    a2, other = (a + s2 - s1, bp.c2) if c == 1 else (a + e + s1 - s2, bp.c1)
    return Node(a2, b, 3 - c) if part(other, a2) == b else None


def remove_all(bp, nodes):
    # Oracle of a class step's rest: bp without nodes, one checked
    # removal each.
    for g in sorted(nodes, key=lambda g: (g.c, -g.a)):
        bp = remove_node(bp, g)
    return bp


def top_class(bp, p):
    # The Bipartition entry point of class_step: (j, class, normal
    # j-nodes) of bp, interned into a RimTable at p, as Nodes.
    j, cls, normal, _ = class_step(*admissible._interned(bp, p))
    return j, [Node(*g) for g in cls], [Node(*g) for g in normal]


def test_has_period_examples():
    bp = remove_node(P("3.2.2.1.1,3.3.1"), Node(3, 2, 1))
    assert has_period(bp, P01)
    assert not has_period(P("3.2.2.1.1,3.3.1"), P01)
    assert not has_period(EMPTY, P01)
    with pytest.raises(ValueError):
        has_period(EMPTY, CrystalParams(None, (0, 1)))


def has_period_oracle(bp, p):
    # Reference: contents of the row-end Nodes, then the chain search
    # has_period made before it became a run test, in which each content
    # takes the smallest component that continues the chain.
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


def _cell_charges(e):
    # nine charges per e: fundamental, asymptotic and wide, both signs
    return ((0, 0), (0, 1), (1, 0), (0, e - 1), (0, 4), (11, 0), (5, -2),
            (2, -1), (0, 3 * e))


def test_has_period_matches_oracle():
    # every bipartition of rank <= 8, Uglov or not, at the 27 cells; the
    # oracle finds periods at each e, so the check is not vacuous
    bps = [bp for n in range(9) for bp in bipartitions_of(n)]
    periodic = {}
    for e in (2, 3, 4):
        for charge in _cell_charges(e):
            p = CrystalParams(e, charge)
            for bp in bps:
                verdict = has_period_oracle(bp, p)
                assert has_period(bp, p) == verdict, (bp, p)
                periodic[e] = periodic.get(e, 0) + verdict
    assert periodic == {2: 2810, 3: 1529, 4: 774}


def test_no_uglov_bipartition_has_period():
    # (1)-connectedness reads this exclusion, at fundamental charges and,
    # for an Adm read at the charge itself, away from them: 27 cells up to
    # rank 10/9/8 at e = 2/3/4.
    count = 0
    for e, n in ((2, 10), (3, 9), (4, 8)):
        for charge in _cell_charges(e):
            p = CrystalParams(e, charge)
            for layer in uglov_layers(n, p):
                for bp in layer:
                    assert not has_period(bp, p), (bp, p)
                    count += 1
    assert count == 4977


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


def test_connectedness_rejects_exactly_the_non_removable_nodes():
    # Both relations check their nodes row by row; that check must agree
    # with removable_nodes on every node near each small bipartition.
    for k in range(6):
        for bp in bipartitions_of(k):
            rem = removable_nodes(bp)
            for g in itertools.product(range(7), range(7), (1, 2)):
                g = Node(*g)
                try:
                    two_connected(bp, g, P02)
                except ValueError:
                    assert g not in rem, (bp, g)
                else:
                    assert g in rem, (bp, g)
                with pytest.raises(ValueError, match="expected g1 < g2"
                                   if g in rem else "must be removable"):
                    one_connected(bp, g, g, P01)


def top_normal_oracle(sig: dict, charge):
    # Reference: the class seed from one signature_word scan, the largest
    # of the last normal removable nodes by node_key; None if there is none.
    return max((rems[-1] for _, rems in sig.values() if rems),
               key=lambda g: node_key(g, charge), default=None)


def connected_class_oracle(bp, seed, p):
    # Reference: the class of seed from its own rim pass, with
    # (1)-connectedness tested on every pair of removable nodes of its
    # residue.
    j = residue(seed, p.charge, p.e)
    nodes = [Node(a, b, c)  # increasing, from one rim pass
             for _, cont, rem, a, b, c in rim(bp, p.charge)
             if rem and cont % p.e == j]
    adjacency = {g: set() for g in nodes}
    for g1, g2 in itertools.combinations(nodes, 2):  # g1 < g2: rim order
        if one_connected(bp, g1, g2, p):
            adjacency[g1].add(g2)
            adjacency[g2].add(g1)
    for g in nodes:
        partner = two_connected(bp, g, p)
        if partner in adjacency:
            adjacency[g].add(partner)
            adjacency[partner].add(g)
    seen, todo = {seed}, [seed]
    while todo:
        for other in adjacency[todo.pop()]:
            if other not in seen:
                seen.add(other)
                todo.append(other)
    return [g for g in nodes if g in seen]


def top_class_oracle(bp, p):
    # Reference for top_class: (j, class, normal j-nodes) from the two
    # oracles above and a signature_word scan.
    sig = signature_word(bp, p)
    seed = top_normal_oracle(sig, p.charge)
    j = residue(seed, p.charge, p.e)
    return j, connected_class_oracle(bp, seed, p), sig[j][1]


def test_max_normal_vs_max_removable():
    # The largest removable node of ((1),(1)) is cancelled by a larger
    # addable node of the same residue, so the normal maximum differs.
    bp = P("1,1")
    assert (max(removable_nodes(bp), key=lambda g: node_key(g, P01.charge))
            == Node(1, 1, 2))
    assert top_class(bp, P01)[2][-1] == Node(1, 1, 1)
    top = top_normal_oracle
    assert top(signature_word(bp, P01), P01.charge) == Node(1, 1, 1)
    assert top(signature_word(EMPTY, P01), P01.charge) is None


FUNDAMENTAL = [CrystalParams(e, (s1, s2)) for e in (2, 3, 4)
               for s1 in range(e) for s2 in range(s1, e)]


@pytest.mark.parametrize("fp", FUNDAMENTAL, ids=str)
def test_top_class_matches_pairwise_oracle(fp):
    # One rim pass and one (1)-connectedness test per candidate give the
    # class of the pairwise oracle on every FLOTW bipartition of rank <= 8.
    for layer in uglov_layers(8, fp)[1:]:
        for bp in layer:
            assert top_class(bp, fp) == top_class_oracle(bp, fp)


@pytest.mark.parametrize("e, text", [(3, "3.2.1,3.1"), (2, "4.2,4.1")])
def test_top_class_matches_oracle_where_the_class_fails(e, text):
    # The first bipartitions whose class is not the top normal nodes.
    fp = CrystalParams(e, (0, 0))
    bp = P(text)
    assert top_class(bp, fp) == top_class_oracle(bp, fp)
    assert class_step(*admissible._interned(bp, fp))[3] is None  # no rest
    with pytest.raises(AssertionError, match="is not the top normal"):
        adm_flotw(bp, fp)


RUN_GRID = [(CrystalParams(e, (s1, s2)), n)
            for e, n in ((2, 9), (3, 8), (4, 7), (5, 6))
            for s1 in range(e) for s2 in range(s1, e)]


def removable_runs():
    # (bp, p, nodes) for every bipartition of rank 1..9/8/7/6, Uglov or
    # not, at every fundamental charge of e = 2/3/4/5, and each residue j
    # of its removable nodes: nodes are its removable j-nodes, increasing.
    for p, n in RUN_GRID:
        for k in range(1, n + 1):
            for bp in bipartitions_of(k):
                by = {}
                for _, cont, rem, a, b, c in rim(bp, p.charge):
                    if rem:
                        by.setdefault(cont % p.e, []).append(Node(a, b, c))
                yield from ((bp, p, nodes) for nodes in by.values())


def test_connected_class_is_the_oracle_run():
    # For every seed the run scan of class_step finds the graph search's
    # class, from the row of each bead.  Each neighbour pair of a run is
    # linked through the (1)-block nodes[0..top] or else by two_connected;
    # every mix of the two occurs.
    kinds = {}
    for bp, p, nodes in removable_runs():
        top = max((i for i in range(1, len(nodes))
                   if one_connected(bp, nodes[0], nodes[i], p)), default=0)
        rows = [{x - a + s: a for a, x in enumerate(lam, 1)}
                for lam, s in zip(bp, p.charge)]
        for seed in nodes:
            run = admissible._connected_class(seed, nodes, rows, p)
            assert run == connected_class_oracle(bp, seed, p), (bp, p, seed)
            lo = nodes.index(run[0])
            used = frozenset(1 if i <= top else 2
                             for i in range(lo + 1, lo + len(run)))
            kinds[used] = kinds.get(used, 0) + 1
    assert kinds == {frozenset({1}): 6042, frozenset({2}): 994,
                     frozenset({1, 2}): 21, frozenset(): 14967}


def test_two_connected_partner_is_the_removable_node_just_below():
    # The partner of (a, b, 1) has its content and the next lower
    # node_key; that of (a, b, 2) is e contents lower, and no j-node lies
    # between.  So a removable partner is the j-node just below g.
    partners = 0
    for bp, p, nodes in removable_runs():
        for i, g in enumerate(nodes):
            partner = two_connected(bp, g, p)
            if partner is not None and diagrams.removable(bp, partner):
                assert i > 0 and partner == nodes[i - 1], (bp, p, g)
                partners += 1
    assert partners == 1081


def test_removable_class_example():
    bp = P("3.1.1,3.2.2.1.1")
    cls = removable_class(bp, Node(1, 3, 2), P02)
    assert cls == [Node(5, 1, 2), Node(3, 1, 1), Node(3, 2, 2), Node(1, 3, 2)]
    child = remove_all(bp, cls)
    assert child.rank == bp.rank - 4
    assert is_flotw(child, P02)


def test_removable_class_trivial_and_errors():
    assert removable_class(P("1,-"), Node(1, 1, 1), P01) == [Node(1, 1, 1)]
    with pytest.raises(ValueError):
        removable_class(P("3.1.1,3.2.2.1.1"), Node(3, 2, 2), P02)
    with pytest.raises(ValueError):
        removable_class(EMPTY, Node(1, 1, 1), P01)
    # ((),(1)) at s=(0,0): its one removable node is cancelled, so no seed
    # is the maximal normal removable node
    with pytest.raises(ValueError):
        removable_class(P("-,1"), Node(1, 1, 2), CrystalParams(3, (0, 0)))
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
    # Adm read as a monomial applies its first residue first, and every
    # Uglov bipartition of rank <= n on three fundamental cells is the
    # maximum of its Adm monomial.
    bp = P("6.1,2.2")
    assert uglov_max(expand_monomial(adm(bp, P01), P01), P01.charge) == bp
    checked = 0
    for p, n in ((P01, 8), (CrystalParams(2, (0, 1)), 9),
                 (CrystalParams(4, (1, 3)), 7)):
        for layer in uglov_layers(n, p):
            for bp in layer:
                vec = expand_monomial(adm(bp, p), p)
                assert uglov_max(vec, p.charge) == bp, (bp, p)
                checked += 1
    assert checked == 426


def forward_oracle(bp, p):
    # Reference: one bipartition on its own, sharing no work with any
    # other.  Adm by transport to the fundamental charge and class
    # removals down to empty, then the monomial expanded from the empty
    # bipartition, oldest residue first.
    try:
        seq = adm(bp, p)
    except AssertionError as exc:
        return {"bp": bipartition_to_json(bp), "pass": False,
                "error": str(exc)}
    vec = {EMPTY: 1}
    for j in seq:
        vec = f_action_oracle(vec, j, RimTable(p))
    ok = bp in vec and uglov_max(vec, p.charge) == bp
    return {
        "bp": bipartition_to_json(bp),
        "adm": list(seq),
        "expansion": [{"bp": bipartition_to_json(mu), "coeff": coeff}
                      for mu, coeff in sorted(vec.items())],
        "max": bipartition_to_json(bp) if ok else None,
        "pass": ok,
    }


def checked_lines(triples):
    """The lines of a sweep's (line, checked, failed) triples, in order,
    each triple's counts checked against its line: a converse rank line
    covers its words and fails on each of its failures, any other line
    covers one instance and fails when it does not pass."""
    lines = []
    for line, checked, failed in triples:
        r = json.loads(line)
        if "words" in r:
            assert (checked, failed) == (r["words"], len(r["failures"]))
        else:
            assert (checked, failed) == (1, int(not r["pass"]))
        lines.append(line)
    return lines


def swept_lines(triples):
    """The lines of a sweep's triples, checked, sorted."""
    return sorted(checked_lines(triples))


def passing(triples):
    """Whether every line of a sweep passes, its counts checked."""
    return all(json.loads(line)["pass"] for line in checked_lines(triples))


def forward_lines(n, p):
    """The sweep's report lines up to rank n, sorted."""
    return swept_lines(verify_djm_forward(n, p))


def forward_reports(n, p):
    """The sweep's reports up to rank n, parsed, by bipartition."""
    reports = map(json.loads, forward_lines(n, p))
    return {Bipartition(tuple(r["bp"]["c1"]), tuple(r["bp"]["c2"])): r
            for r in reports}


def test_verify_djm_forward_examples():
    assert forward_reports(0, P01)[EMPTY]["pass"]
    report = forward_reports(11, P01)[P("6.1,2.2")]
    assert report["pass"]
    assert report["max"] == {"c1": [6, 1], "c2": [2, 2]}
    assert report == forward_oracle(P("6.1,2.2"), P01)
    with pytest.raises(ValueError):
        list(verify_djm_forward(2, CrystalParams(None, (0, 1))))


def test_verify_djm_forward_small_grid():
    for e in (2, 3):
        for charge in ((0, 0), (0, 1), (1, 0), (-2, 1)):
            p = CrystalParams(e, charge)
            reports = list(verify_djm_forward(4, p))
            assert len(reports) == sum(map(len, uglov_layers(4, p)))
            assert passing(reports)


FORWARD_GRID = [CrystalParams(e, charge) for e in (2, 3, 4)
                for charge in ((0, 1), (0, 0), (1, 0), (2, -1), (0, 4),
                               (11, 0), (5, -2))]


def assert_lines_are_json_dumps(triples, oracle, n, p):
    """The (line, checked, failed) triples of a sweep up to rank n at p
    are the bytes of json.dumps of the oracle's reports, one per Uglov
    bipartition, and each triple's counts follow its line's "pass"."""
    assert swept_lines(triples) == _oracle_lines(oracle, n, p)


@pytest.mark.parametrize("p", FORWARD_GRID, ids=str)
def test_verify_djm_forward_matches_oracle(p):
    triples = list(verify_djm_forward(7, p))
    assert_lines_are_json_dumps(triples, forward_oracle, 7, p)
    swept = [line for line, _, _ in triples]
    # up to rank 7, only the cells with |s1 - s2| > e at e = 3, 4 fail,
    # with "max": null
    fails = p.e > 2 and abs(p.charge[0] - p.charge[1]) > p.e
    assert any('"pass": false' in x for x in swept) == fails
    assert any('"max": null, "pass": false' in x for x in swept) == fails


def psi_nature_oracle(bp, p):
    # Reference: bp's image by its own peel and rebuild, and the verdict
    # over a window that holds both.
    image = psi_to(bp, p.charge, p.charge[::-1], p.e)
    return {"bp": bipartition_to_json(bp),
            "image": bipartition_to_json(image),
            "pass": psi_nature_check_oracle(bp, image, p.charge)}


@pytest.mark.parametrize("p", [P01, CrystalParams(3, (4, 0)),
                               CrystalParams(2, (2, -1))], ids=str)
def test_verify_psi_nature_matches_oracle(p):
    # Also with s1 > s2, where the table is read from the image back.
    triples = list(verify_psi_nature(7, p))
    assert_lines_are_json_dumps(triples, psi_nature_oracle, 7, p)


def test_verify_psi_nature_writes_a_failing_line(monkeypatch):
    # No sweep of the grid fails, so every check is forced to.
    monkeypatch.setattr(isomorphism, "psi_nature_check", lambda *args: False)
    triples = list(verify_psi_nature(4, P01))
    assert_lines_are_json_dumps(triples, lambda bp, p: {
        **psi_nature_oracle(bp, p), "pass": False}, 4, P01)


def test_verify_djm_forward_error_line_matches_json():
    # The class step of 3.2.1,3.1 fails at e=3, s=(0,0): its line is the
    # bytes of json.dumps of its error report.
    p = CrystalParams(3, (0, 0))
    bp = P("3.2.1,3.1")
    errors = [triple for triple in verify_djm_forward(10, p)
              if '"error": ' in triple[0]]
    report = forward_oracle(bp, p)
    assert set(report) == {"bp", "error", "pass"}
    assert errors == [(json.dumps(report, sort_keys=True), 1, 1)]


def test_forward_reads_children_once_per_bipartition(monkeypatch):
    # The sweep makes no whole-rim pass, neither crystal.rim's nor
    # diagrams.rim's: each nonempty image (249 at rank <= 9) takes one
    # class_step on the walk's table, which the sweep's f_action calls
    # share, and every (component, partition) that table reads is read
    # once.  The Uglov bipartitions below rank 9, which the walk scans, lie
    # among those f_action scans, so the reads are f_action's and those of
    # the class steps of the rank-9 images.
    reports = list(verify_djm_forward(9, P01))
    layers = uglov_layers(9, P01)
    images = set().union(*layers) - {EMPTY}
    sources = set().union(*layers[:9])  # ranks below 9
    assert len(images) == 249
    scanned, tables, steps = set(), [], []
    passes = count_rim_passes(monkeypatch)
    real_step = admissible.class_step

    def counted(vec, j, table):
        scanned.update(vec)
        tables.append(table)
        return f_action(vec, j, table)

    def counted_step(table, pair):
        steps.append((table, pair))
        return real_step(table, pair)

    def forbidden(*args):
        raise AssertionError("whole-rim pass on %r" % (args,))

    monkeypatch.setattr(admissible, "f_action", counted)
    monkeypatch.setattr(admissible, "class_step", counted_step)
    monkeypatch.setattr(diagrams, "rim", forbidden)
    reads = count_component_reads(monkeypatch)
    assert list(verify_djm_forward(9, P01)) == reports
    assert len({id(table) for table in tables}) == 1
    assert {id(table) for table, _ in steps} == {id(tables[0])}
    assert sorted(tables[0].bipartition(pair) for _, pair in steps) == sorted(
        images)
    kids = set(map(tables[0].bipartition, scanned))
    assert {bp.rank for bp in kids} == set(range(9))
    assert passes == []
    kid_reads = component_keys(kids, P01.charge)
    assert component_keys(sources, P01.charge) <= kid_reads
    step_reads = component_keys(layers[9], P01.charge)
    assert not step_reads <= kid_reads
    assert read_keys(tables[0]) == kid_reads | step_reads
    assert len(reads) == len(set(reads))
    assert set(reads) == kid_reads | step_reads


def test_forward_class_steps_build_no_bipartition(monkeypatch):
    # The class steps run on the walk's table, by pair: a passing forward
    # sweep at e=3, s=(0,1), n=9 removes no node with remove_node, makes
    # no whole-rim pass and builds no Bipartition from a RimTable, where
    # its class steps made 424 remove_node calls and one rim pass per
    # image, 249 in all.  Each (component, partition) of the table is
    # still read once, those of the rank-9 images included.
    reports = list(verify_djm_forward(9, P01))
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("remove_node", "rim"):
        wrapper = counted(name, getattr(diagrams, name))
        for module in (diagrams, crystal, isomorphism, admissible):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(RimTable, "bipartition",
                        counted("bipartition", RimTable.bipartition))
    reads = count_component_reads(monkeypatch)
    assert list(verify_djm_forward(9, P01)) == reports
    assert passing(reports) and len(reports) == 250
    assert calls == []
    assert len(reads) == len(set(reads))
    assert set(reads) >= component_keys(uglov_layers(9, P01)[9], P01.charge)


def test_forward_reads_each_rim_at_p_once_off_the_fundamental_domain(
        monkeypatch):
    # At e=4, s=(3,1) the walk's two tables differ: f_action runs on its
    # src table, at p, so no (component, partition) at p is read twice,
    # and the images' rims are read in dst alone: those below rank 9 by
    # the walk's scans, and those of every image by its class step.
    p = CrystalParams(4, (3, 1))
    reports = list(verify_djm_forward(9, p))
    assert passing(reports)
    walks, tables = [], []
    real_walk = admissible.image_walk

    def recorded_walk(*args):
        walks.append(real_walk(*args))
        return walks[-1]

    def counted(vec, j, table):
        tables.append(table)
        return f_action(vec, j, table)

    monkeypatch.setattr(admissible, "image_walk", recorded_walk)
    monkeypatch.setattr(admissible, "f_action", counted)
    reads = count_component_reads(monkeypatch)
    assert list(verify_djm_forward(9, p)) == reports
    (src, dst, images), = walks
    assert dst is not src and dst.p == CrystalParams(4, (1, 3))
    assert tables and all(table is src for table in tables)
    at_p = [(c, s, lam) for c, s, lam in reads if s == p.charge[c - 1]]
    assert len(at_p) == len(set(at_p))
    assert set(at_p) == read_keys(src)
    assert set(reads) - set(at_p) == read_keys(dst)
    scanned = {bp for bp in map(dst.bipartition, images.values())
               if bp.rank < 9}
    stepped = set(map(dst.bipartition, images.values()))
    assert not (component_keys(stepped, dst.p.charge)
                <= component_keys(scanned, dst.p.charge))
    assert read_keys(dst) == component_keys(stepped, dst.p.charge)


def test_forward_reads_each_fact_once(monkeypatch):
    # At rank <= 9 every one of the 734 bipartitions lies in an expansion:
    # the sweep keys each once, from the bead masks of the 97 partitions,
    # each built once in the table, and encodes each once, writing the
    # text of each of the 97 partitions once, whichever component holds
    # it, and tests no rest with is_uglov.  Of the 134 (component,
    # partition) of the bipartitions below rank 9, f_action and the class
    # steps read the 78 the walk has not read in their shared table, each
    # once: a class step reads one of them before f_action would.
    reports = list(verify_djm_forward(9, P01))
    assert sum(len(bipartitions_of(k)) for k in range(10)) == 734
    calls, fills, writes, keyed, masked = {}, [], [], [], []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(admissible, "is_uglov")
    real_json, real_text = RimTable.json, RimTable.text
    real_keys, real_mask = RimTable.bead_keys, crystal.bead_mask

    def counted_keys(table, k):
        out = real_keys(table, k)
        keyed.extend((table, pair) for pair in out)
        return out

    def counted_mask(lam):
        masked.append(lam)
        return real_mask(lam)

    monkeypatch.setattr(RimTable, "bead_keys", counted_keys)
    monkeypatch.setattr(crystal, "bead_mask", counted_mask)

    def counted_json(table, pair):
        calls["json"] = calls.get("json", 0) + 1
        return real_json(table, pair)

    def counted_text(table, i):
        if i not in table.texts:
            writes.append((table, i))
        return real_text(table, i)

    monkeypatch.setattr(RimTable, "json", counted_json)
    monkeypatch.setattr(RimTable, "text", counted_text)
    real_rim = crystal.component_rim

    def counted_rim(lam, s, c):  # under RimTable.read
        caller = sys._getframe(2).f_code.co_name
        if caller == "children":  # under f_action
            caller = sys._getframe(3).f_code.co_name
        fills.append((caller, (c, s, lam)))
        return real_rim(lam, s, c)

    monkeypatch.setattr(crystal, "component_rim", counted_rim)
    assert list(verify_djm_forward(9, P01)) == reports
    assert calls == {"json": 734}  # no is_uglov call
    assert len(keyed) == len(set(keyed)) == 734
    assert len({table for table, _ in keyed}) == 1
    assert len(masked) == len(set(masked)) == sum(
        len(list(partitions_of(k))) for k in range(10))
    assert len(writes) == len(set(writes)) == sum(
        len(list(partitions_of(k))) for k in range(10))
    below = component_keys({bp for k in range(9)
                            for bp in bipartitions_of(k)}, P01.charge)
    assert len(below) == 134
    assert len(fills) == len(set(fills))
    late = [who for who, key in fills
            if key in below and who in ("f_action", "class_step")]
    assert (late.count("f_action"), late.count("class_step")) == (77, 1)


@pytest.mark.parametrize("sweep, n, steps, tests, partners", [
    (verify_djm_forward, 9, 249, 137, 87),
    (propb_checks, 10, 370, 220, 145),
])
def test_class_step_tests_each_candidate_once(monkeypatch, sweep, n, steps,
                                              tests, partners):
    # The (1)-link of g1 < g2 is a period once g2 is removed, blind to g1,
    # so a class with k candidates, the removable j-nodes, takes at most
    # k - 1 period tests; the run asks for a (2)-partner only across the
    # neighbours it widens across.
    reports = list(sweep(n, P01))
    calls, found, twos = [], [], []
    real_one, real_step = admissible.period, admissible.class_step
    real_two = admissible._partner

    def counted_one(*args):
        calls.append(args)
        return real_one(*args)

    def counted_two(*args):
        twos.append(args)
        return real_two(*args)

    def counted_step(table, pair):
        before = len(calls)
        out = real_step(table, pair)
        bp, p = table.bipartition(pair), table.p
        k = sum(residue(g, p.charge, p.e) == out[0]
                for g in removable_nodes(bp))
        found.append((len(calls) - before, k))
        return out

    monkeypatch.setattr(admissible, "period", counted_one)
    monkeypatch.setattr(admissible, "_partner", counted_two)
    monkeypatch.setattr(admissible, "class_step", counted_step)
    assert list(sweep(n, P01)) == reports
    assert len(found) == steps
    assert all(made <= k - 1 for made, k in found)
    assert (len(calls), len(twos)) == (tests, partners)


@pytest.mark.parametrize("p, n", [(P01, 10), (CrystalParams(2, (0, 1)), 11),
                                  (CrystalParams(4, (1, 3)), 9)], ids=str)
def test_propb_reads_one_rim_per_bipartition_at_a_fundamental_charge(
        monkeypatch, p, n):
    # At a fundamental charge each bipartition is its own image, so its
    # normal nodes are its class_step's: one class step per nonempty
    # bipartition, on the walk's one table, no whole-rim pass and no
    # signature_word rescan, and each (component, partition) of the
    # sweep read once in that table.
    reports = list(propb_checks(n, p))
    layers = uglov_layers(n, p)
    bps = set().union(*layers) - {EMPTY}
    steps, passes = [], count_rim_passes(monkeypatch)
    real_step = admissible.class_step

    def counted_step(table, pair):
        steps.append((table, pair))
        return real_step(table, pair)

    def forbidden(*args):
        raise AssertionError("whole-rim pass on %r" % (args,))

    monkeypatch.setattr(admissible, "class_step", counted_step)
    monkeypatch.setattr(diagrams, "rim", forbidden)
    reads = count_component_reads(monkeypatch)
    assert list(propb_checks(n, p)) == reports
    assert passes == []
    assert len({id(table) for table, _ in steps}) == 1
    table = steps[0][0]
    assert sorted(table.bipartition(pair) for _, pair in steps) == sorted(bps)
    assert len(reads) == len(set(reads))
    assert set(reads) == read_keys(table) == component_keys(
        set().union(*layers), p.charge)


def test_forward_reads_no_psi_image_at_a_fundamental_charge(monkeypatch):
    # image_walk at its own charge is the identity: it scans no image, so
    # the sweep's good-addition scans are those of its one layer_walk,
    # one per Uglov bipartition below rank 9.
    reports = list(verify_djm_forward(9, P01))
    images, scans = [], []
    monkeypatch.setattr(isomorphism, "good_additions", counting_scan(images))
    monkeypatch.setattr(crystal, "good_additions", counting_scan(scans))
    assert list(verify_djm_forward(9, P01)) == reports
    assert images == []
    assert len(scans) == len(set(scans))
    assert set(scans) == set().union(*uglov_layers(8, P01))


def test_verify_djm_forward_error_is_inherited():
    # The class step of 3.2.1,3.1 fails at e=3, s=(0,0); 4.2.1,3.1 loses
    # its class to reach it, so it carries the same text.
    p = CrystalParams(3, (0, 0))
    text = ("class [Node(a=2, b=1, c=2), Node(a=1, b=3, c=2), "
            "Node(a=1, b=3, c=1)] is not the top normal 2-nodes of "
            "Bipartition(c1=(3, 2, 1), c2=(3, 1))")
    reports = forward_reports(11, p)
    errors = {bp: r["error"] for bp, r in reports.items() if "error" in r}
    assert errors == {P("3.2.1,3.1"): text, P("4.2.1,3.1"): text}
    for bp in errors:
        assert reports[bp] == forward_oracle(bp, p)
        assert reports[bp]["pass"] is False


def words_by_max(n: int, p: CrystalParams) -> dict:
    """{uglov_max of a nonzero expansion: the residue words of length
    <= n that reach it, increasing}, f_action applied oldest residue
    first, as verify_djm_forward applies an Adm word."""
    out = {}
    todo = [([], {EMPTY: 1})]
    while todo:
        word, vec = todo.pop()
        out.setdefault(uglov_max(vec, p.charge), []).append(word)
        if len(word) < n:
            for j in range(p.e):
                child = f_action_oracle(vec, j, RimTable(p))
                if child:
                    todo.append((word + [j], child))
    for words in out.values():
        words.sort()
    return out


# verify_djm_forward's failing bipartitions on FORWARD_GRID at the ranks of
# test_adm_oracle_matches_forward (6, 5, 4 at e = 2, 3, 4)
ORACLE_FAILURES = {
    CrystalParams(3, (0, 4)): {"3,2"},
    CrystalParams(3, (11, 0)): {"1,3", "2,3"},
    CrystalParams(3, (5, -2)): {"2,3"},
}


@pytest.mark.parametrize("p", FORWARD_GRID, ids=str)
def test_adm_oracle_matches_forward(p):
    # Every monomial maximum is Uglov and every Uglov bipartition is one;
    # the forward sweep fails exactly where Adm is not one of the words
    # whose maximum is the bipartition.
    n = {2: 6, 3: 5, 4: 4}[p.e]
    words = words_by_max(n, p)
    assert set(words) == {bp for layer in uglov_layers(n, p) for bp in layer}
    src, _, _ = walk = image_walk(n, p, fundamental(p).charge)
    missed = set()
    for pair, _, found in adm_walk(walk):
        bp = src.bipartition(pair)
        if isinstance(found, str) or found[0] not in words[bp]:
            missed.add(format_bipartition(bp))
    failing = {format_bipartition(bp)
               for bp, r in forward_reports(n, p).items() if not r["pass"]}
    assert missed == failing == ORACLE_FAILURES.get(p, set())


def test_adm_oracle_pins_a_failure():
    p = CrystalParams(3, (11, 0))
    bp = P("1,3")
    assert words_by_max(4, p)[bp] == [[0, 1, 2, 2]]
    assert adm(bp, p) == [0, 2, 1, 2]


def test_verify_djm_converse_small():
    p = CrystalParams(2, (0, 1))
    triples = list(verify_djm_converse(3, p))
    assert checked_lines(triples) == _dumps(
        _converse_brute(n, p, is_uglov) for n in range(4))
    assert [(json.loads(line)["n"], checked, failed)
            for line, checked, failed in triples] == [
        (n, 2 ** n, 0) for n in range(4)]
    assert passing(triples)
    with pytest.raises(ValueError):
        list(verify_djm_converse(2, CrystalParams(None, (0, 1))))


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


def keep_members(monkeypatch, member):
    # The converse walk reads its membership verdicts from one
    # layer_walk; dropping the non-members from its layers makes their
    # supports fail.
    def walk(n, table):
        for layer in crystal.layer_walk(n, table):
            yield {pair for pair in layer
                   if member(table.bipartition(pair), table.p)}

    monkeypatch.setattr(admissible, "layer_walk", walk)


CONVERSE_GRID = [CrystalParams(e, charge) for e in (2, 3, 4)
                 for charge in ((0, 0), (0, 1), (1, 0), (2, -1))]


@pytest.mark.parametrize("p", CONVERSE_GRID, ids=str)
def test_verify_djm_converse_matches_brute_force(p, monkeypatch):
    assert checked_lines(verify_djm_converse(5, p)) == _dumps(
        _converse_brute(n, p, is_uglov) for n in range(6))

    def member(bp, p):  # forces failures, to check their order
        return bp.c1[:1] != (1,) and is_uglov(bp, p)

    keep_members(monkeypatch, member)
    triples = list(verify_djm_converse(5, p))
    assert checked_lines(triples) == _dumps(
        _converse_brute(n, p, member) for n in range(6))
    assert sum(failed for _, _, failed in triples) > 1


def converse_word_oracle(n, p, member):
    # Reference: the words visited depth first by shared prefix.
    # expand_monomial applies the first residue first, so appending one
    # residue to a prefix is one f_action on the prefix's vector, and a
    # prefix whose vector vanishes is pruned with every word that starts
    # with it.  Every word's maximum takes its own membership verdict.
    failures = [[] for _ in range(n + 1)]  # by rank

    def visit(prefix, vec):
        best = uglov_max(vec, p.charge)
        if not member(best, p):
            failures[len(prefix)].append({"word": list(prefix),
                                          "max": bipartition_to_json(best)})
        if len(prefix) < n:
            for j in range(p.e):
                nxt = f_action_oracle(vec, j, RimTable(p))
                if nxt:
                    visit(prefix + (j,), nxt)

    visit((), {EMPTY: 1})
    for found in failures:
        found.sort(key=lambda f: f["word"])
    return [{"n": k, "words": p.e ** k, "failures": found,
             "pass": not found} for k, found in enumerate(failures)]


def _forced_member(bp, p):
    # forces failures, to check their words and order
    return bp.c1[:1] != (1,) and is_uglov(bp, p)


WALK_GRID = [CrystalParams(e, charge) for e in (2, 3, 4)
             for charge in ((0, 0), (0, 1), (1, 0), (2, -1), (0, 4), (11, 0))]


@pytest.mark.parametrize("p", WALK_GRID, ids=str)
def test_verify_djm_converse_matches_word_oracle(p, monkeypatch):
    assert checked_lines(verify_djm_converse(7, p)) == _dumps(
        converse_word_oracle(7, p, is_uglov))
    keep_members(monkeypatch, _forced_member)
    triples = list(verify_djm_converse(7, p))
    assert checked_lines(triples) == _dumps(
        converse_word_oracle(7, p, _forced_member))
    assert sum(failed for _, _, failed in triples) > 1


def converse_support_oracle(n, p, member):
    # Reference: the walk over distinct supports, each a frozenset of
    # bipartitions.  A support of rank k+1 is the j-children of a support
    # of rank k and records each such (j, parent support); each support
    # takes the maximum of its members' uglov_keys, and the words of
    # failing supports are spelled out from the records.
    children, keys = {}, {}  # bipartition -> its children by residue, key

    def kids(bp):
        if bp not in children:
            children[bp] = [set(f_action_oracle({bp: 1}, j, RimTable(p)))
                            for j in range(p.e)]
        return children[bp]

    def key(bp):
        if bp not in keys:
            keys[bp] = uglov_key(bp, p.charge)
        return keys[bp]

    def words(support):
        if not parents[support]:
            return [()]
        return [w + (j,) for j, parent in parents[support]
                for w in words(parent)]

    parents = {frozenset([EMPTY]): []}
    layer = list(parents)
    reports = []
    for k in range(n + 1):
        found = []
        for support in layer:
            best = max(support, key=key)
            if not member(best, p):
                found += ({"word": list(w), "max": bipartition_to_json(best)}
                          for w in words(support))
        found.sort(key=lambda f: f["word"])
        reports.append({"n": k, "words": p.e ** k, "failures": found,
                        "pass": not found})
        if k == n:
            break
        nxt = {}
        for support in layer:
            rows = [kids(bp) for bp in support]
            for j in range(p.e):
                child = frozenset(mu for row in rows for mu in row[j])
                if child:
                    nxt.setdefault(child, []).append((j, support))
        parents.update(nxt)
        layer = list(nxt)
    return reports


@pytest.mark.parametrize("p", WALK_GRID, ids=str)
def test_verify_djm_converse_matches_support_oracle(p, monkeypatch):
    # two ranks past the word oracle's reach
    assert checked_lines(verify_djm_converse(9, p)) == _dumps(
        converse_support_oracle(9, p, is_uglov))
    keep_members(monkeypatch, _forced_member)
    triples = list(verify_djm_converse(9, p))
    assert checked_lines(triples) == _dumps(
        converse_support_oracle(9, p, _forced_member))
    assert sum(failed for _, _, failed in triples) > 1


def test_converse_takes_verdicts_from_one_layer_walk(monkeypatch):
    # No membership peel: every verdict comes from one layer_walk on the
    # sweep's one table, and no uglov_layers walk runs.
    walks, tables = [], []

    class Counted(RimTable):
        def __init__(self, p):
            super().__init__(p)
            tables.append(self)

    def counted(n, table):
        walks.append((n, table))
        return crystal.layer_walk(n, table)

    def forbidden(*args):
        raise AssertionError("the converse walk peeled or walked again")

    monkeypatch.setattr(admissible, "RimTable", Counted)
    monkeypatch.setattr(admissible, "layer_walk", counted)
    names = {"is_uglov", "peel_word", "uglov_layers"}
    patched = set()
    for module in (diagrams, crystal, isomorphism, admissible):
        for name in names & set(vars(module)):
            monkeypatch.setattr(module, name, forbidden)
            patched.add(name)
    assert patched == names  # each forbidden name exists somewhere
    triples = list(verify_djm_converse(8, P01))
    assert len(tables) == 1
    assert walks == [(8, tables[0])]
    assert [json.loads(line)["n"] for line, _, _ in triples] == list(range(9))
    assert passing(triples)


def test_converse_chunk_table_is_shared(monkeypatch):
    # Supports share the child masks of their chunks: the chunk table
    # answers more than twice as many lookups as it fills.
    lookups, fills = [], []
    table = admissible._ChunkTable
    missing = table.__missing__

    def lookup(self, value):
        lookups.append(value)
        return dict.__getitem__(self, value)  # calls __missing__ on a miss

    def fill(self, value):
        fills.append(value)
        return missing(self, value)

    monkeypatch.setattr(table, "__getitem__", lookup)
    monkeypatch.setattr(table, "__missing__", fill)
    assert passing(verify_djm_converse(12, P01))
    assert len(lookups) > 2 * len(fills) > 0


def test_converse_forced_failures_share_supports():
    # The forced failures include supports reached from several (residue,
    # parent support) pairs, so the walk's spelling of their words is
    # checked across parents, not only along one chain.
    p = CrystalParams(3, (0, 1))
    failures = converse_word_oracle(6, p, _forced_member)[6]["failures"]

    def support(word):
        return frozenset(expand_monomial(word, p))

    parents = {}
    for f in failures:
        word = f["word"]
        parents.setdefault(support(word), set()).add(
            (word[-1], support(word[:-1])))
    assert max(map(len, parents.values())) > 1


def test_converse_lines_do_not_depend_on_byte_order(monkeypatch):
    # A support of rank 9 spans several CHUNK-bit chunks, each looked up
    # in its own position's table, so the chunks must come out low chunk
    # first on a big-endian host as on a little-endian one.
    assert len(bipartitions_of(9)) > 2 * admissible.CHUNK
    expected = checked_lines(verify_djm_converse(10, P01))
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(sys, "byteorder", other)
    assert checked_lines(verify_djm_converse(10, P01)) == expected


def test_converse_reads_children_once_per_bipartition(monkeypatch):
    # The sweep reads the children of the bipartitions it expands from
    # their stored rims, one read per (component, partition) of them:
    # every bipartition of rank below n lies in some support, and its
    # layer_walk reads the same table.  It makes no whole-rim pass of its
    # own and no validating add_node or addable_nodes call.  It keys each
    # bipartition at most once, to order its rank, by RimTable.bead_keys.
    passes, keyed = [], []
    real_keys = RimTable.bead_keys

    def counted_rim(bp, charge):
        passes.append(bp)
        return rim(bp, charge)

    def counted_keys(table, k):
        out = real_keys(table, k)
        keyed.extend(map(table.bipartition, out))
        return out

    for module in (diagrams, crystal):  # admissible imports no rim
        monkeypatch.setattr(module, "rim", counted_rim)
    monkeypatch.setattr(RimTable, "bead_keys", counted_keys)
    reads = count_component_reads(monkeypatch)
    forbid_validating_primitives(monkeypatch)
    list(verify_djm_converse(8, P01))
    assert passes == []
    assert len(reads) == len(set(reads))
    assert set(reads) == component_keys(
        {bp for k in range(8) for bp in bipartitions_of(k)}, P01.charge)
    assert len(keyed) == len(set(keyed))
    assert set(keyed) <= {bp for k in range(9) for bp in bipartitions_of(k)}
    assert len(keyed) == sum(len(bipartitions_of(k)) for k in range(1, 9))


def _row_standard_shapes_brute(word, p):
    # Oracle: try every assignment of 1..n to the boxes of each shape.
    # Row-standard means each box is placed after its left neighbor.
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
                if residue(Node(a, b, c), p.charge, p.e) != j:
                    ok = False
                    break
                seen.add((a, b, c))
            if ok:
                shapes.add(bp)
                break
    return shapes


def test_row_standard_shapes_examples():
    assert row_standard_shapes([0], P01, bipartitions_of(1)) == [P("1,-")]
    p = CrystalParams(2, (0, 0))
    for word in itertools.product(range(2), repeat=2):
        shapes = row_standard_shapes(list(word), p, bipartitions_of(2))
        assert set(shapes) == _row_standard_shapes_brute(list(word), p)
        # the list keeps the order of the candidates, reversed or not
        assert shapes == [bp for bp in bipartitions_of(2) if bp in shapes]
        assert (row_standard_shapes(list(word), p, bipartitions_of(2)[::-1])
                == shapes[::-1])


def row_filling_oracle(bp, word, charge, e):
    # Reference: a DP over per-row filled prefixes.  A row-standard filling
    # is exactly a left-to-right filling of each row as the numbers
    # increase.
    rows = [(a, c) for c in (1, 2)
            for a in range(1, len(bp.component(c)) + 1)]
    limits = [bp.component(c)[a - 1] for a, c in rows]
    states = {tuple([0] * len(rows))}
    for j in word:
        nxt = set()
        for state in states:
            for i, (a, c) in enumerate(rows):
                b = state[i] + 1
                if b > limits[i]:
                    continue
                if residue(Node(a, b, c), charge, e) != j:
                    continue
                child = list(state)
                child[i] = b
                nxt.add(tuple(child))
        if not nxt:
            return False
        states = nxt
    return any(all(s == lim for s, lim in zip(state, limits))
               for state in states)


def _row_standard_shapes_unfiltered(word, p):
    # Oracle: the row-filling DP on every shape of the word's rank.
    return {bp for bp in bipartitions_of(len(word))
            if row_filling_oracle(bp, word, p.charge, p.e)}


def test_row_filling_matches_oracle_exhaustively():
    # Every distinct ordering of each shape's box residues, ranks <= 5.
    words = fillable = 0
    for e, charge in itertools.product(
            (2, 3, 4, None), ((0, 0), (0, 1), (1, 0), (2, -1))):
        for n in range(6):
            for bp in bipartitions_of(n):
                letters = [residue(Node(a, b, c), charge, e)
                           for c in (1, 2)
                           for a, row in enumerate(bp.component(c), 1)
                           for b in range(1, row + 1)]
                for word in set(itertools.permutations(letters)):
                    got = admissible._row_standard_filling_exists(
                        bp, word, charge, e)
                    assert got == row_filling_oracle(bp, word, charge, e)
                    words += 1
                    fillable += got
    assert (words, fillable) == (30151, 14180)


def test_row_filling_prefers_the_longest_waiting_row():
    # At the second letter both rows of each shape wait for residue 0.
    # Taking the shortest waiting row fails on 3.1, and taking the first
    # waiting row fails on 2.2.
    p = CrystalParams(2, (0, 1))
    word = [1, 0, 1, 0]
    for shape in (P("-,3.1"), P("-,2.2")):
        assert row_filling_oracle(shape, word, p.charge, p.e)
        assert shape in row_standard_shapes(word, p, bipartitions_of(4))


def test_row_standard_shapes_match_unfiltered():
    words = []
    for p in (P01, CrystalParams(2, (1, 0))):  # the corollary fails on both
        words += [(list(adm(bp, p)), p)
                  for layer in uglov_layers(7, p) for bp in layer]
    rng = random.Random(20261018)
    for _ in range(200):
        p = CrystalParams(rng.choice((2, 3, 4)),
                          (rng.randint(-3, 3), rng.randint(-3, 3)))
        words.append(([rng.randrange(p.e) for _ in range(rng.randint(0, 6))],
                       p))
    words.append(([2, 2], P01))  # no shape has two boxes of residue 2
    empty = 0
    for word, p in words:
        bps = bipartitions_of(len(word))
        shapes = row_standard_shapes(word, p, bps)
        assert set(shapes) == _row_standard_shapes_unfiltered(word, p)
        assert shapes == [bp for bp in bps if bp in shapes]  # bps' order
        empty += not shapes
    assert 0 < empty < len(words)
    assert row_standard_shapes([2, 2], P01, bipartitions_of(2)) == []


def corollary_oracle(bp, p):
    # Reference: one bipartition on its own, Adm by transport to the
    # fundamental charge and class removals down to empty, then the
    # row-standard shapes of that word.
    try:
        seq = adm(bp, p)
    except AssertionError as exc:
        return {"bp": bipartition_to_json(bp), "pass": False,
                "error": str(exc)}
    shapes = row_standard_shapes(seq, p, bipartitions_of(len(seq)))
    ok = bp in shapes and uglov_max(shapes, p.charge) == bp
    return {
        "bp": bipartition_to_json(bp),
        "adm": list(seq),
        "shapes": [bipartition_to_json(mu) for mu in sorted(shapes)],
        "pass": ok,
    }


def _propb_one(bp, p):
    report = {"bp": bipartition_to_json(bp), "pass": True, "failures": []}
    if bp == EMPTY:
        return report
    fp = CrystalParams(p.e, reduce_to_fundamental(p.charge, p.e))
    lam = psi_to(bp, p.charge, fp.charge, p.e)
    j, cls, normal_lam = top_class_oracle(lam, fp)
    normal_mu = signature_word(bp, p).get(j, ([], []))[1]

    def fail(what):
        report["pass"] = False
        report["failures"].append(what)

    if cls != normal_lam[len(normal_lam) - len(cls):]:
        fail("class is not the top normal nodes at the fundamental charge")
    if len(normal_mu) != len(normal_lam):
        fail("normal-node count not preserved by the isomorphism")
        return report
    if len(cls) > len(normal_mu):  # the class failed, and there is no eta1
        return report
    eta1 = normal_mu[len(normal_mu) - len(cls)]
    key1 = node_key(eta1, p.charge)
    for g in sorted(addable_nodes(bp), key=lambda g: node_key(g, p.charge)):
        if residue(g, p.charge, p.e) == j and node_key(g, p.charge) > key1:
            fail("addable %r-node %r greater than eta1 %r" % (j, g, eta1))
    slots = nature_table(bp, p.charge, default_window(bp, p.charge))
    greater = [entry for (k, _, entry) in slots
               if (k - j) % p.e == 0 and node_key(entry.node, p.charge) > key1]
    if (any(ent.kind == "Bh" and not ent.virtual for ent in greater)
            and any(ent.kind == "Bv" for ent in greater)):
        fail("both a non-virtual Bh and a Bv %r-node exceed eta1" % (j,))
    return report


def propb_oracle(bp, p):
    # Reference: one bipartition on its own, transported with psi_to and
    # its class read from its own signature scan.
    try:
        return _propb_one(bp, p)
    except AssertionError as exc:
        return {"bp": bipartition_to_json(bp), "pass": False,
                "error": str(exc)}


def _dumps(reports):
    return [json.dumps(r, sort_keys=True) for r in reports]


def _lines(reports):
    return sorted(_dumps(reports))


def _oracle_lines(oracle, n, p):
    return _lines(oracle(bp, p) for layer in uglov_layers(n, p)
                  for bp in layer)


@pytest.mark.parametrize("p", WALK_GRID, ids=str)
def test_verify_djm_corollary_matches_oracle(p, monkeypatch):
    assert (swept_lines(verify_djm_corollary(6, p))
            == _oracle_lines(corollary_oracle, 6, p))
    # a class step forced to fail on one image: every bipartition whose
    # chain of class steps passes through it carries its text
    fp = CrystalParams(p.e, reduce_to_fundamental(p.charge, p.e))
    chosen = min(uglov_layers(2, fp)[2])
    real = admissible.class_step

    def forced(table, pair):
        if table.bipartition(pair) == chosen:
            raise AssertionError("forced on %r" % (chosen,))
        return real(table, pair)

    monkeypatch.setattr(admissible, "class_step", forced)
    swept = swept_lines(verify_djm_corollary(6, p))
    assert swept == _oracle_lines(corollary_oracle, 6, p)
    assert sum('"error": "forced on' in x for x in swept) > 1


@pytest.mark.parametrize("sweep, oracle", [
    (forward_lines, forward_oracle),
    (lambda n, p: swept_lines(verify_djm_corollary(n, p)), corollary_oracle),
], ids=["verify_djm_forward-forward_oracle",
        "verify_djm_corollary-corollary_oracle"])
def test_non_flotw_rest_is_an_error(monkeypatch, sweep, oracle):
    # No class step of the sweeps leaves a non-FLOTW rest, so one is
    # forced through class_step, the one home of the class: the class of
    # 1,1.1 at e=3, s=(0,1) becomes its node (1,1,1), which leaves -,1.1.
    # The walk finds that rest among no image and records the text that
    # adm_flotw's is_uglov test raises, and every bipartition whose class
    # steps pass through 1,1.1 inherits it.
    chosen, g = P("1,1.1"), Node(1, 1, 1)
    rest = remove_node(chosen, g)
    assert not is_flotw(rest, P01)
    real = admissible.class_step

    def forced(table, pair):
        if table.bipartition(pair) != chosen:
            return real(table, pair)
        return 0, [g], [g], (table.intern(rest.c1), table.intern(rest.c2))

    monkeypatch.setattr(admissible, "class_step", forced)
    swept = sweep(6, P01)
    assert swept == _oracle_lines(oracle, 6, P01)
    text = ('"error": "class removal left non-FLOTW '
            'Bipartition(c1=(), c2=(1, 1))"')
    assert sum(text in line for line in swept) > 1


@pytest.mark.parametrize("p", WALK_GRID, ids=str)
def test_propb_checks_matches_oracle(p):
    assert (swept_lines(propb_checks(7, p))
            == _oracle_lines(propb_oracle, 7, p))


@pytest.mark.parametrize("e", [2, 3, 4])
@pytest.mark.parametrize("charge", [(0, 1000), (1000, 0), (-50, 3)])
def test_propb_checks_matches_oracle_at_wide_charges(e, charge):
    # The oracle reads a nature table as wide as the charge gap; the
    # sweep reads the two cores and the Bv run below each by arithmetic.
    p = CrystalParams(e, charge)
    assert (swept_lines(propb_checks(6, p))
            == _oracle_lines(propb_oracle, 6, p))


@pytest.mark.parametrize("e, charge, n", [
    (2, (1, 0), 9),  # a non-virtual Bh and a Bv node exceed eta1
    (3, (0, 1), 10),  # the same, on 3.3,2.1.1
    (3, (0, 0), 10),  # the class is not the top normal nodes
    (2, (0, 37), 8),  # an addable node, and at 1,4.3 the Bh/Bv exclusion
])
def test_propb_checks_matches_oracle_where_it_fails(e, charge, n):
    p = CrystalParams(e, charge)
    swept = swept_lines(propb_checks(n, p))
    assert swept == _oracle_lines(propb_oracle, n, p)
    assert any('"pass": false' in x for x in swept)


def count_contents_read(monkeypatch):
    """[contents] read by the nature readers: the length of each core
    built (nature_core), of each core a sweep looks up through the cache
    of nature_core it builds, hits and misses alike, of each window of
    nodes (nature_entries), and the number of contents that
    psi_nature_check compares."""
    read = [0]

    def counted(real):
        def wrapper(*args):
            out = real(*args)
            read[0] += len(out)
            return out
        return wrapper

    def counted_cache(reader):  # the sweep's memo: every lookup counts
        return counted(functools.cache(reader))

    class CountedPairs(frozenset):
        def issuperset(self, contents):
            contents = list(contents)
            read[0] += len(contents)
            return super().issuperset(contents)

    built = counted(diagrams.nature_core)
    for module in (diagrams, admissible, isomorphism):
        monkeypatch.setattr(module, "nature_core", built)
    monkeypatch.setattr(diagrams, "nature_entries",
                        counted(diagrams.nature_entries))
    for module in (admissible, isomorphism):
        monkeypatch.setattr(module, "cache", counted_cache)
    monkeypatch.setattr(isomorphism, "SIGMA1_NATURE_PAIRS",
                        CountedPairs(isomorphism.SIGMA1_NATURE_PAIRS))
    return read


def test_contents_read_per_bipartition_do_not_grow_with_the_charge(
        monkeypatch):
    # The two sweeps read O(rank) contents per bipartition whatever the
    # gap between the charges: the same count at s=(0,10) as at
    # s=(0,100000), and below four cores of rank 5, 11 contents each,
    # with a gap content beside each.
    read = count_contents_read(monkeypatch)
    counts = {}
    for sweep in (verify_psi_nature, propb_checks):
        for charge in ((0, 10), (0, 1000), (0, 100000)):
            read[0] = 0
            reports = list(sweep(5, CrystalParams(3, charge)))
            counts[sweep, charge] = read[0] / len(reports)
        assert (counts[sweep, (0, 10)] == counts[sweep, (0, 1000)]
                == counts[sweep, (0, 100000)])
        assert 0 < counts[sweep, (0, 10)] < 4 * (11 + 1)


@pytest.mark.parametrize("sweep, n, builds", [(verify_psi_nature, 11, 106),
                                              (propb_checks, 10, 58)])
def test_a_sweep_builds_one_core_per_partition(monkeypatch, sweep, n,
                                               builds):
    # A component's core depends on its partition alone, so a sweep
    # builds one per distinct partition it reads, whatever the charges:
    # the component swap of psi-nature reads most partitions at both
    # charges, and propb reads its bipartitions at s1 and at s2.
    built = []
    real = diagrams.nature_core

    def counted(*args):
        built.append(args)
        return real(*args)

    for module in (diagrams, admissible, isomorphism):
        monkeypatch.setattr(module, "nature_core", counted, raising=False)
    list(sweep(n, P01))
    assert len(built) == len(set(built)) == builds


def test_propb_class_longer_than_the_normal_nodes():
    # At e=2, s=(0,0) the class of 4.2,4.1 has three nodes but there are
    # two normal 1-nodes, so there is no eta1 to compare with: the report
    # holds the class failure alone.
    p = CrystalParams(2, (0, 0))
    bp = P("4.2,4.1")
    j, cls, normal = top_class(bp, p)
    assert (j, len(cls), len(normal)) == (1, 3, 2)
    expected = {"bp": bipartition_to_json(bp), "pass": False, "failures": [
        "class is not the top normal nodes at the fundamental charge"]}
    assert [line for line in checked_lines(propb_checks(bp.rank, p))
            if json.loads(line)["bp"] == expected["bp"]] == _lines([expected])
    assert propb_oracle(bp, p) == expected


def test_corollary_and_propb_transport_nothing(monkeypatch):
    # Both sweeps read their images from one image_walk: no
    # bipartition is transported on its own, and no image takes a second
    # class step.
    p = CrystalParams(3, (0, 1))
    psi_calls, steps = [], []
    real_psi, real_step = admissible.psi_to, admissible.class_step

    def counted_psi(*args):
        psi_calls.append(args)
        return real_psi(*args)

    def counted_step(table, pair):
        steps.append((id(table), pair))
        return real_step(table, pair)

    monkeypatch.setattr(admissible, "psi_to", counted_psi)
    monkeypatch.setattr(admissible, "class_step", counted_step)
    size = sum(map(len, uglov_layers(8, p)))
    for sweep in (verify_djm_corollary, propb_checks):
        del psi_calls[:], steps[:]
        assert len(list(sweep(8, p))) == size
        assert psi_calls == []
        assert len(steps) == len(set(steps))


def test_verify_djm_corollary_small():
    reports = list(verify_djm_corollary(4, P01))
    assert len(reports) == sum(map(len, uglov_layers(4, P01)))
    assert passing(reports)
    with pytest.raises(ValueError):
        list(verify_djm_corollary(2, CrystalParams(None, (0, 1))))


def test_propb_checks_small():
    for e in (2, 3):
        for charge in ((0, 1), (1, 0)):
            p = CrystalParams(e, charge)
            reports = list(propb_checks(4, p))
            assert len(reports) == sum(map(len, uglov_layers(4, p)))
            for line in checked_lines(reports):
                assert json.loads(line)["pass"], line
    with pytest.raises(ValueError):
        list(propb_checks(2, CrystalParams(None, (0, 1))))
