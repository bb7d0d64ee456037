"""Unit tests for connectedness, admissible sequences and the verifiers."""

import itertools
import json
import random
import sys

import pytest

from uglov.admissible import (
    adm,
    adm_flotw,
    adm_walk,
    has_period,
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
from uglov import admissible, crystal, isomorphism
from uglov.crystal import (
    CrystalParams,
    children,
    expand_monomial,
    f_action,
    good_additions,
    is_uglov,
    signature_word,
    uglov_layers,
)
from uglov.diagrams import (
    EMPTY,
    Bipartition,
    Node,
    addable_nodes,
    bipartition_to_json,
    bipartitions_of,
    content,
    default_window,
    format_bipartition,
    nature_table,
    node_key,
    parse_bipartition,
    remove_node,
    removable_nodes,
    residue,
    rim,
    uglov_key,
    uglov_max,
)
from uglov.isomorphism import psi_to, reduce_to_fundamental
from test_crystal import (
    component_keys,
    count_component_reads,
    count_rim_passes,
    forbid_validating_primitives,
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
    # (1)-connectedness reads this exclusion, at fundamental charges and,
    # for an Adm read at the charge itself, away from them: 27 cells up to
    # rank 10/9/8 at e = 2/3/4.
    count = 0
    for e, n in ((2, 10), (3, 9), (4, 8)):
        for charge in ((0, 0), (0, 1), (1, 0), (0, e - 1), (0, 4), (11, 0),
                       (5, -2), (2, -1), (0, 3 * e)):
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
    assert admissible.top_class(bp, P01)[2][-1] == Node(1, 1, 1)
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
            assert admissible.top_class(bp, fp) == top_class_oracle(bp, fp)


@pytest.mark.parametrize("e, text", [(3, "3.2.1,3.1"), (2, "4.2,4.1")])
def test_top_class_matches_oracle_where_the_class_fails(e, text):
    # The first bipartitions whose class is not the top normal nodes.
    fp = CrystalParams(e, (0, 0))
    bp = P(text)
    assert admissible.top_class(bp, fp) == top_class_oracle(bp, fp)
    with pytest.raises(AssertionError, match="is not the top normal"):
        admissible.class_step(bp, fp)


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
    # reversed(Adm) read as a monomial applies the oldest residue first.
    bp = P("6.1,2.2")
    vec = expand_monomial(list(reversed(adm(bp, P01))), P01)
    assert uglov_max(vec, P01.charge) == bp


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
        vec = f_action(vec, j, p, {})
    ok = bp in vec and uglov_max(vec, p.charge) == bp
    return {
        "bp": bipartition_to_json(bp),
        "adm": list(seq),
        "expansion": [{"bp": bipartition_to_json(mu), "coeff": coeff}
                      for mu, coeff in sorted(vec.items())],
        "max": bipartition_to_json(bp) if ok else None,
        "pass": ok,
    }


def forward_reports(n, p):
    """The sweep's reports up to rank n, by bipartition."""
    return {Bipartition(tuple(r["bp"]["c1"]), tuple(r["bp"]["c2"])): r
            for r in verify_djm_forward(n, p)}


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
            assert all(r["pass"] for r in reports)


FORWARD_GRID = [CrystalParams(e, charge) for e in (2, 3, 4)
                for charge in ((0, 1), (0, 0), (1, 0), (2, -1), (0, 4),
                               (11, 0), (5, -2))]


@pytest.mark.parametrize("p", FORWARD_GRID, ids=str)
def test_verify_djm_forward_matches_oracle(p):
    def line(report):
        return json.dumps(report, sort_keys=True)

    swept = sorted(map(line, verify_djm_forward(7, p)))
    expected = sorted(line(forward_oracle(bp, p))
                      for layer in uglov_layers(7, p) for bp in layer)
    assert swept == expected
    # up to rank 7, only the cells with |s1 - s2| > e at e = 3, 4 fail
    fails = p.e > 2 and abs(p.charge[0] - p.charge[1]) > p.e
    assert any('"pass": false' in x for x in swept) == fails


def test_forward_reads_children_once_per_bipartition(monkeypatch):
    # Every whole-rim pass of the sweep is top_class's, one per nonempty
    # image (249 at rank <= 9), and none comes from crystal.rim; the
    # sweep's one f_action table reads the children of each bipartition
    # once, and its crystal_edges walk reads each (component, partition)
    # of the Uglov bipartitions below rank 9 once.
    reports = list(verify_djm_forward(9, P01))
    images = set().union(*uglov_layers(9, P01)) - {EMPTY}
    assert len(images) == 249
    kids, readers, passes = [], [], count_rim_passes(monkeypatch)

    def counted(bp, p):
        kids.append(bp)
        return children(bp, p)

    def counted_rim(bp, charge):
        readers.append((sys._getframe(1).f_code.co_name, bp))
        return rim(bp, charge)

    monkeypatch.setattr(crystal, "children", counted)
    monkeypatch.setattr(admissible, "rim", counted_rim)
    reads = count_component_reads(monkeypatch)
    assert list(verify_djm_forward(9, P01)) == reports
    assert len(kids) == len(set(kids))
    assert {bp.rank for bp in kids} == set(range(9))
    assert passes == []
    assert sorted(readers) == sorted(("top_class", bp) for bp in images)
    assert len(reads) == len(set(reads))
    sources = set().union(*uglov_layers(8, P01))
    assert set(reads) == component_keys(sources, P01.charge)


@pytest.mark.parametrize("sweep, n, steps, tests", [
    (verify_djm_forward, 9, 249, 147),
    (propb_checks, 10, 370, 238),
])
def test_class_step_tests_each_candidate_once(monkeypatch, sweep, n, steps,
                                              tests):
    # one_connected(bp, g1, g2, p) never reads g1, so a class with k
    # candidates, the removable j-nodes, takes at most k - 1 tests.
    reports = list(sweep(n, P01))
    calls, found = [], []
    real_one, real_top = admissible.one_connected, admissible.top_class

    def counted_one(*args):
        calls.append(args)
        return real_one(*args)

    def counted_top(bp, p):
        before = len(calls)
        j, cls, normal = real_top(bp, p)
        k = sum(residue(g, p.charge, p.e) == j for g in removable_nodes(bp))
        found.append((len(calls) - before, k))
        return j, cls, normal

    monkeypatch.setattr(admissible, "one_connected", counted_one)
    monkeypatch.setattr(admissible, "top_class", counted_top)
    assert list(sweep(n, P01)) == reports
    assert len(found) == steps
    assert all(made <= k - 1 for made, k in found)
    assert len(calls) == tests


def test_forward_reads_no_psi_image_at_a_fundamental_charge(monkeypatch):
    # psi_images at its own charge is the identity: it scans no image, so
    # the sweep's good-addition scans are those of its crystal_edges walk,
    # one per Uglov bipartition below rank 9.
    reports = list(verify_djm_forward(9, P01))
    images, scans = [], []

    def counted(calls):
        def scan(bp, p, table):
            calls.append(bp)
            return good_additions(bp, p, table)
        return scan

    monkeypatch.setattr(isomorphism, "good_additions", counted(images))
    monkeypatch.setattr(crystal, "good_additions", counted(scans))
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
                child = f_action(vec, j, p, {})
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
    missed = {format_bipartition(bp) for bp, _, found in adm_walk(n, p)
              if isinstance(found, str) or found[0] not in words[bp]}
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


def keep_members(monkeypatch, member):
    # The converse walk reads its membership verdicts from one
    # crystal_edges walk; dropping the edges into non-members makes
    # their supports fail.
    def edges(n, p):
        return ((bp, j, dst) for bp, j, dst in crystal.crystal_edges(n, p)
                if member(dst, p))

    monkeypatch.setattr(admissible, "crystal_edges", edges)


CONVERSE_GRID = [CrystalParams(e, charge) for e in (2, 3, 4)
                 for charge in ((0, 0), (0, 1), (1, 0), (2, -1))]


@pytest.mark.parametrize("p", CONVERSE_GRID, ids=str)
def test_verify_djm_converse_matches_brute_force(p, monkeypatch):
    assert verify_djm_converse(5, p) == [_converse_brute(n, p, is_uglov)
                                         for n in range(6)]

    def member(bp, p):  # forces failures, to check their order
        return bp.c1[:1] != (1,) and is_uglov(bp, p)

    keep_members(monkeypatch, member)
    reports = verify_djm_converse(5, p)
    assert reports == [_converse_brute(n, p, member) for n in range(6)]
    assert sum(len(r["failures"]) for r in reports) > 1


def converse_word_oracle(n, p, member):
    # Reference: the words visited depth first by shared suffix.
    # expand_monomial applies the last residue first, so prepending one
    # residue to a suffix is one f_action on the suffix's vector, and a
    # suffix whose vector vanishes is pruned with every word that ends in
    # it.  Every word's maximum takes its own membership verdict.
    failures = [[] for _ in range(n + 1)]  # by rank

    def visit(suffix, vec):
        best = uglov_max(vec, p.charge)
        if not member(best, p):
            failures[len(suffix)].append({"word": list(suffix),
                                          "max": bipartition_to_json(best)})
        if len(suffix) < n:
            for j in range(p.e):
                nxt = f_action(vec, j, p, {})
                if nxt:
                    visit((j,) + suffix, nxt)

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
    assert verify_djm_converse(7, p) == converse_word_oracle(7, p, is_uglov)
    keep_members(monkeypatch, _forced_member)
    reports = verify_djm_converse(7, p)
    assert reports == converse_word_oracle(7, p, _forced_member)
    assert sum(len(r["failures"]) for r in reports) > 1


def converse_support_oracle(n, p, member):
    # Reference: the walk over distinct supports, each a frozenset of
    # bipartitions.  A support of rank k+1 is the j-children of a support
    # of rank k and records each such (j, parent support); each support
    # takes the maximum of its members' uglov_keys, and the words of
    # failing supports are spelled out from the records.
    children, keys = {}, {}  # bipartition -> its children by residue, key

    def kids(bp):
        if bp not in children:
            children[bp] = [set(f_action({bp: 1}, j, p, {}))
                            for j in range(p.e)]
        return children[bp]

    def key(bp):
        if bp not in keys:
            keys[bp] = uglov_key(bp, p.charge)
        return keys[bp]

    def words(support):
        if not parents[support]:
            return [()]
        return [(j,) + w for j, parent in parents[support]
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
    assert verify_djm_converse(9, p) == converse_support_oracle(9, p,
                                                                 is_uglov)
    keep_members(monkeypatch, _forced_member)
    reports = verify_djm_converse(9, p)
    assert reports == converse_support_oracle(9, p, _forced_member)
    assert sum(len(r["failures"]) for r in reports) > 1


def test_converse_takes_verdicts_from_one_edge_walk(monkeypatch):
    # No membership peel: every verdict comes from one crystal_edges walk.
    walks = []

    def counted(n, p):
        walks.append(n)
        return crystal.crystal_edges(n, p)

    def forbidden(*args):
        raise AssertionError("the converse walk peeled a bipartition")

    monkeypatch.setattr(admissible, "crystal_edges", counted)
    monkeypatch.setattr(crystal, "is_uglov", forbidden)
    monkeypatch.setattr(crystal, "peel_word", forbidden)
    monkeypatch.setattr(admissible, "is_uglov", forbidden, raising=False)
    reports = verify_djm_converse(8, P01)
    assert walks == [8]
    assert [r["n"] for r in reports] == list(range(9))
    assert all(r["pass"] for r in reports)


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
    assert all(r["pass"] for r in verify_djm_converse(12, P01))
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
            (word[0], support(word[1:])))
    assert max(map(len, parents.values())) > 1


def test_converse_reads_children_once_per_bipartition(monkeypatch):
    # The walk reads the rim of each bipartition it expands once: every
    # bipartition of rank below n lies in some support.  It grows the
    # children of the nodes the rim lists, with no validating add_node or
    # addable_nodes.  It keys each bipartition at most once, to order its
    # rank.
    calls, keyed = [], []

    def counted(bp, charge):
        calls.append(bp)
        return rim(bp, charge)

    def counted_key(bp, charge):
        keyed.append(bp)
        return uglov_key(bp, charge)

    monkeypatch.setattr(admissible, "rim", counted)
    monkeypatch.setattr(admissible, "uglov_key", counted_key)
    forbid_validating_primitives(monkeypatch)
    verify_djm_converse(8, P01)
    assert len(calls) == len(set(calls))
    assert set(calls) == {bp for k in range(8) for bp in bipartitions_of(k)}
    assert len(keyed) == len(set(keyed))
    assert set(keyed) <= {bp for k in range(9) for bp in bipartitions_of(k)}


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


def _row_standard_shapes_unfiltered(word, p):
    # Oracle: the row-filling DP on every shape of the word's rank.
    return {bp for bp in bipartitions_of(len(word))
            if admissible._row_standard_filling_exists(bp, word, p.charge,
                                                       p.e)}


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
        shapes = row_standard_shapes(word, p)
        assert shapes == _row_standard_shapes_unfiltered(word, p)
        empty += not shapes
    assert 0 < empty < len(words)
    assert row_standard_shapes([2, 2], P01) == set()


def corollary_oracle(bp, p):
    # Reference: one bipartition on its own, Adm by transport to the
    # fundamental charge and class removals down to empty, then the
    # row-standard shapes of that word.
    try:
        seq = adm(bp, p)
    except AssertionError as exc:
        return {"bp": bipartition_to_json(bp), "pass": False,
                "error": str(exc)}
    shapes = row_standard_shapes(seq, p)
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


def _lines(reports):
    return sorted(json.dumps(r, sort_keys=True) for r in reports)


def _oracle_lines(oracle, n, p):
    return _lines(oracle(bp, p) for layer in uglov_layers(n, p)
                  for bp in layer)


@pytest.mark.parametrize("p", WALK_GRID, ids=str)
def test_verify_djm_corollary_matches_oracle(p, monkeypatch):
    assert (_lines(verify_djm_corollary(6, p))
            == _oracle_lines(corollary_oracle, 6, p))
    # a class step forced to fail on one image: every bipartition whose
    # chain of class steps passes through it carries its text
    fp = CrystalParams(p.e, reduce_to_fundamental(p.charge, p.e))
    chosen = min(uglov_layers(2, fp)[2])
    real = admissible.class_step

    def forced(bp, q):
        if bp == chosen:
            raise AssertionError("forced on %r" % (bp,))
        return real(bp, q)

    monkeypatch.setattr(admissible, "class_step", forced)
    swept = _lines(verify_djm_corollary(6, p))
    assert swept == _oracle_lines(corollary_oracle, 6, p)
    assert sum('"error": "forced on' in x for x in swept) > 1


@pytest.mark.parametrize("p", WALK_GRID, ids=str)
def test_propb_checks_matches_oracle(p):
    assert (_lines(propb_checks(7, p))
            == _oracle_lines(propb_oracle, 7, p))


@pytest.mark.parametrize("e, charge, n", [
    (2, (1, 0), 9),  # a non-virtual Bh and a Bv node exceed eta1
    (3, (0, 1), 10),  # the same, on 3.3,2.1.1
    (3, (0, 0), 10),  # the class is not the top normal nodes
])
def test_propb_checks_matches_oracle_where_it_fails(e, charge, n):
    p = CrystalParams(e, charge)
    swept = _lines(propb_checks(n, p))
    assert swept == _oracle_lines(propb_oracle, n, p)
    assert any('"pass": false' in x for x in swept)


def test_propb_class_longer_than_the_normal_nodes():
    # At e=2, s=(0,0) the class of 4.2,4.1 has three nodes but there are
    # two normal 1-nodes, so there is no eta1 to compare with: the report
    # holds the class failure alone.
    p = CrystalParams(2, (0, 0))
    bp = P("4.2,4.1")
    j, cls, normal = admissible.top_class(bp, p)
    assert (j, len(cls), len(normal)) == (1, 3, 2)
    expected = {"bp": bipartition_to_json(bp), "pass": False, "failures": [
        "class is not the top normal nodes at the fundamental charge"]}
    assert [r for r in propb_checks(bp.rank, p)
            if r["bp"] == expected["bp"]] == [expected]
    assert propb_oracle(bp, p) == expected


def test_corollary_and_propb_transport_nothing(monkeypatch):
    # Both sweeps read their images from one psi_images walk: no
    # bipartition is transported on its own, and no image takes a second
    # class step.
    p = CrystalParams(3, (0, 1))
    psi_calls, steps = [], []
    real_psi, real_step = admissible.psi_to, admissible.class_step

    def counted_psi(*args):
        psi_calls.append(args)
        return real_psi(*args)

    def counted_step(bp, q):
        steps.append(bp)
        return real_step(bp, q)

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
    assert all(r["pass"] for r in reports)
    with pytest.raises(ValueError):
        list(verify_djm_corollary(2, CrystalParams(None, (0, 1))))


def test_propb_checks_small():
    for e in (2, 3):
        for charge in ((0, 1), (1, 0)):
            p = CrystalParams(e, charge)
            reports = list(propb_checks(4, p))
            assert len(reports) == sum(map(len, uglov_layers(4, p)))
            for report in reports:
                assert report["pass"], report["failures"]
    with pytest.raises(ValueError):
        list(propb_checks(2, CrystalParams(None, (0, 1))))
