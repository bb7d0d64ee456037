"""Unit tests for the command-line front end."""

import json

import pytest

from uglov.cli import main, parse_charge, parse_e, parse_window


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_flag_parsers():
    assert parse_e("inf") is None
    assert parse_e("3") == 3
    assert parse_charge("0,1") == (0, 1)
    assert parse_window("-3,6") == (-3, 6)
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_e("1")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_charge("0")


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["1,-", "-,1", "count: 2"] or sorted(
        lines[:-1]) == ["-,1", "1,-"]
    assert lines[-1] == "count: 2"


def test_enumerate_contains_paper_bipartition(capsys):
    code, out, _ = run(capsys, ["enumerate", "--n", "11"])
    assert code == 0
    assert "6.1,2.2" in out.splitlines()


def test_enumerate_matches_membership_filter(capsys):
    from uglov.crystal import CrystalParams, is_uglov
    from uglov.diagrams import bipartitions_of
    code, out, _ = run(capsys, ["--e", "2", "--charge", "0,0",
                                "enumerate", "--n", "4"])
    assert code == 0
    count = int(out.strip().splitlines()[-1].split()[-1])
    p = CrystalParams(2, (0, 0))
    assert count == sum(1 for bp in bipartitions_of(4) if is_uglov(bp, p))


def test_enumerate_json_and_dot(capsys):
    code, out, _ = run(capsys, ["--format", "json", "enumerate", "--n", "1"])
    assert code == 0
    assert json.loads(out) == [{"c1": [], "c2": [1]}, {"c1": [1], "c2": []}]
    code, out, _ = run(capsys, ["--format", "dot", "enumerate", "--n", "2"])
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert '"1,-" -> "2,-"' in out


def test_verify_forward_ok(capsys):
    code, out, _ = run(capsys, ["verify", "--mode", "forward", "--n", "4"])
    assert code == 0
    assert "0 counterexamples" in out


def test_verify_converse_ok(capsys):
    code, out, _ = run(capsys, ["--e", "2", "--charge", "0,1",
                                "verify", "--mode", "converse", "--n", "3"])
    assert code == 0
    assert "0 counterexamples" in out


def test_verify_converse_counts_words(capsys):
    # ranks 0..3 at e = 3: 1 + 3 + 9 + 27 words
    code, out, _ = run(capsys, ["verify", "--mode", "converse", "--n", "3"])
    assert code == 0
    assert out == "checked 40 words, 0 counterexamples\n"


def test_verify_converse_needs_finite_e(capsys):
    code, _, err = run(capsys, ["--e", "inf", "verify",
                                "--mode", "converse", "--n", "2"])
    assert code == 2
    assert "finite" in err


def test_verify_psi_nature_ok(capsys):
    code, out, _ = run(capsys, ["verify", "--mode", "psi-nature",
                                "--n", "3"])
    assert code == 0
    assert "0 counterexamples" in out


def test_verify_psi_nature_first_charge_larger(capsys):
    # the sigma1 table is read from the image back when s1 > s2
    code, out, _ = run(capsys, ["--charge", "1,0", "verify",
                                "--mode", "psi-nature", "--n", "8"])
    assert code == 0
    assert out == "checked 166 instances, 0 counterexamples\n"


def test_verify_forward_internal_error_is_a_counterexample(capsys):
    # adm_flotw's class assertion fails on 3.2.1,3.1 at e=3, s=(0,0)
    code, out, err = run(capsys, ["--charge", "0,0", "verify",
                                  "--mode", "forward", "--n", "10"])
    assert code == 1
    assert "Traceback" not in out + err
    lines = out.splitlines()
    assert lines[0] == "checked 248 instances, 1 counterexamples"
    report = json.loads(lines[1])
    assert report["bp"] == {"c1": [3, 2, 1], "c2": [3, 1]}
    assert report["pass"] is False
    assert "is not the top normal" in report["error"]


def test_verify_propb_with_workers(capsys):
    code, out, _ = run(capsys, ["--workers", "2", "verify",
                                "--mode", "propb", "--n", "3"])
    assert code == 0
    assert "0 counterexamples" in out


def test_show_adm(capsys):
    code, out, _ = run(capsys, ["show", "6.1,2.2", "adm"])
    assert code == 0
    assert out.strip() == "1,0,0,2,2,1,1,2,0,1,2"


def test_show_adm_rejects_non_member(capsys):
    code, _, err = run(capsys, ["--charge", "0,0", "show", "1.1.1,-", "adm"])
    assert code == 2
    assert "not Uglov" in err


def test_show_psi(capsys):
    code, out, _ = run(capsys, ["show", "6.1,2.2", "psi:1,0"])
    assert code == 0
    assert out.strip() == "5.2.1,3"
    code, out, _ = run(capsys, ["show", "6.1,2.2", "psi:-2,0"])
    assert code == 0
    assert out.strip() == "2.2,6.1"


def test_show_psi_rejects_other_orbit(capsys):
    code, _, err = run(capsys, ["show", "1,-", "psi:0,0"])
    assert code == 2
    assert "orbit" in err


def test_show_psi_rejects_translation_at_infinity(capsys):
    # at e = inf the orbit of (0,1) is {(0,1), (1,0)}
    code, out, err = run(capsys, ["--e", "inf", "show", "1,-", "psi:0,3"])
    assert code == 2
    assert out == ""
    assert "not in one orbit" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, ["--e", "inf", "show", "1,-", "psi:1,0"])
    assert code == 0
    assert out.strip() == "-,1"


def test_show_natures_layout(capsys):
    code, out, _ = run(capsys, ["show", "6.1,2.2", "natures",
                                "--window=-3,6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("Component |")
    assert lines[1].startswith("Content")
    row = lines[2].split("|")[1].split()
    assert [cell.rstrip("*") for cell in row] == [
        "Bv", "Bv", "Bv", "A", "A", "R", "Bh", "A", "R", "Bh",
        "Bv", "Bh", "A", "Bh", "Bh", "Bh", "Bh", "R", "Bh", "A"]


def test_show_empty_first_component(capsys):
    # a leading "-" reads as an option, so the empty first component is
    # written as an empty piece, or the operands follow "--"
    code, out, _ = run(capsys, ["show", ",3.1", "natures", "--window=-1,1"])
    assert code == 0
    assert out.splitlines()[2].split("|")[0].strip() == "-,3.1"
    code, _, _ = run(capsys, ["show", "--", "-,-", "adm"])
    assert code == 0


def test_show_boundary(capsys):
    code, out, _ = run(capsys, ["show", "6.1,2.2", "boundary",
                                "--window=-3,5"])
    assert code == 0
    assert out.strip().startswith("(1,6,1) (1,2,2) (2,2,2) (2,1,1)")


def test_show_unknown_rendering(capsys):
    code, _, err = run(capsys, ["show", "1,-", "bogus"])
    assert code == 2
    assert "unknown" in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "-1"],
    ["verify", "--mode", "forward", "--n", "-1"],
    ["--workers", "0", "verify", "--mode", "propb", "--n", "2"],
    ["show", "1,-", "natures", "--window=5,1"],
    ["show", "1,-", "psi:x,1"],
    ["show", "1,-", "psi:1"],
    ["--e", "inf", "verify", "--mode", "forward", "--n", "2"],
    ["--e", "inf", "verify", "--mode", "corollary", "--n", "2"],
    ["--e", "inf", "verify", "--mode", "propb", "--n", "2"],
    ["--e", "inf", "verify", "--mode", "psi-nature", "--n", "2"],
    ["--workers", "2", "verify", "--mode", "converse", "--n", "2"],
    ["--workers", "2", "verify", "--mode", "psi-nature", "--n", "2"],
    ["--format", "dot", "verify", "--mode", "forward", "--n", "2"],
    ["--format", "dot", "show", "1,-", "natures"],
    ["show", "1,-", "adm", "--window=0,1"],
    ["show", "1,-", "psi:1,0", "--window=0,1"],
])
def test_bad_arguments_exit_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_determinism(capsys):
    first = run(capsys, ["--format", "json", "verify",
                         "--mode", "forward", "--n", "3"])
    second = run(capsys, ["--format", "json", "verify",
                          "--mode", "forward", "--n", "3"])
    assert first == second
