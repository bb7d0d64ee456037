"""Unit tests for the command-line front end."""

import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

import uglov
from test_admissible import _forced_member, keep_members
from test_crystal import traced_peak
from uglov import admissible, isomorphism
from uglov.cli import (
    main,
    parse_charge,
    parse_e,
    parse_int,
    parse_rank,
    parse_window,
)


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


@pytest.mark.parametrize("parser, text", [
    (parse_e, "+3"), (parse_e, "1_0"), (parse_e, "\u0663"), (parse_e, " 3"),
    (parse_charge, "1_0,+0"), (parse_charge, "0,\u0661"),
    (parse_charge, "--2,1"), (parse_charge, "0,"),
    (parse_window, "-1_0,2"), (parse_window, "0,+5"),
    (parse_rank, "\u0663"), (parse_rank, "1_0"), (parse_rank, "3 "),
    (parse_rank, ""), (parse_int, "-"),
])
def test_number_parsers_read_ascii_digits_alone(parser, text):
    # One strict reader, as parse_bipartition reads a part: ASCII digits
    # with an optional leading '-', not the other texts int() reads.
    import argparse
    with pytest.raises(argparse.ArgumentTypeError, match="not an integer"):
        parser(text)


def test_number_parsers_keep_negative_numbers():
    assert parse_charge("-2,1") == (-2, 1)
    assert parse_charge("0,-100000") == (0, -100000)
    assert parse_window("-10,-3") == (-10, -3)
    assert parse_e("100000") == 100000
    assert parse_rank("0") == parse_rank("-0") == 0


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
    from test_diagrams import bipartitions_of
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


def test_verify_converse_huge_e(capsys):
    # The child masks span the residues the rim yields, not all e of them.
    e = 10 ** 12
    code, out, _ = run(capsys, ["--e", str(e), "--format", "json", "verify",
                                "--mode", "converse", "--n", "3"])
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in reports] == [0, 1, 2, 3]
    for r in reports:
        assert r["words"] == e ** r["n"]
        assert r["pass"] is True


def peak_kb(args) -> int:
    """The peak resident set, in kB, of a child process that runs the CLI
    on args, stdout discarded; the child must exit 0.  The child reports
    its own peak as VmHWM: Linux carries the parent's peak across exec
    into ru_maxrss, so under pytest that reads the test process's peak."""
    child = ("import sys\n"
             "from uglov.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "with open('/proc/self/status') as status:\n"
             "    print(*[line for line in status\n"
             "            if line.startswith('VmHWM:')], file=sys.stderr)\n"
             "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(uglov.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", child, *args],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    name, peak, unit = done.stderr.split()[-3:]
    assert (name, unit) == ("VmHWM:", "kB")
    return int(peak)


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads the peak resident set from "
                                       "/proc")


@needs_proc
def test_verify_converse_memory_ceiling():
    # One int per support keeps rank 13 at the defaults far below the
    # 115 MB that a frozenset per support took.
    assert peak_kb(["--format", "json", "verify", "--mode", "converse",
                    "--n", "13"]) < 64 * 1024


@needs_proc
def test_enumerate_json_memory_ceiling():
    # The JSON listing is written a chunk of bipartitions at a time, so
    # rank 34 at the defaults stays near the text listing's 31 MB; one
    # dict per bipartition and one string of the whole layer took 49 MB.
    assert peak_kb(["--format", "json", "enumerate", "--n", "34"]) < (
        40 * 1024)


@pytest.mark.parametrize("argv", [
    # output past the stdout buffer: the pipe breaks inside a print
    "--format json verify --mode propb --n 10",
    # one short line: the pipe breaks at the flush after the command
    "show 6.1,2.2 adm",
])
def test_closed_stdout_exits_141_quietly(argv):
    # The reader of stdout is gone before the child writes a byte, so
    # every write meets a broken pipe: the child exits 141 and prints no
    # traceback, and not "Exception ignored" from the flush at exit.
    # The child buffers stdout by default, as a shell pipe does.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(os.path.abspath(uglov.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "uglov.cli", *argv.split()],
            env=dict(env, PYTHONPATH=src), stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


def test_enumerate_json_chunks_join_to_one_list(capsys, monkeypatch):
    # Chunks of 5 over the 17 bipartitions of rank 5 (the last chunk
    # short), and one chunk at ranks 0 and 1, give json.dumps of the
    # whole list, byte for byte.
    from uglov import cli, crystal, diagrams
    p = crystal.CrystalParams(3, (0, 1))
    monkeypatch.setattr(cli, "LISTING_CHUNK", 5)
    for n in (0, 1, 5):
        table, pairs = crystal.top_layer(n, p)
        whole = json.dumps([diagrams.bipartition_to_json(bp) for bp
                            in sorted(map(table.bipartition, pairs))])
        code, out, _ = run(capsys, ["--format", "json", "enumerate",
                                    "--n", str(n)])
        assert code == 0
        assert out == whole + "\n"
    assert len(json.loads(out)) == 17


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


def assert_one_report_protocol(capsys, options, mode, n):
    """The text and JSON runs of one sweep agree: the text header counts
    the JSON lines as instances (converse: their summed words) and the
    failing ones as counterexamples (converse: their summed failing
    words), the text body is the failing JSON lines in order, and both
    runs exit 1 exactly when a line fails.  Returns the header."""
    verify = ["verify", "--mode", mode, "--n", str(n)]
    code, out, _ = run(capsys, options + ["--format", "json"] + verify)
    lines = out.splitlines()
    reports = [json.loads(line) for line in lines]
    failing = [line for line, r in zip(lines, reports) if not r["pass"]]
    if mode == "converse":
        checked = "%d words" % sum(r["words"] for r in reports)
        count = sum(len(r["failures"]) for r in reports)
    else:
        checked, count = "%d instances" % len(lines), len(failing)
    header = "checked %s, %d counterexamples" % (checked, count)
    text_code, text, _ = run(capsys, options + verify)
    assert text.splitlines() == [header] + failing
    assert text_code == code == (1 if failing else 0)
    return header


@pytest.mark.parametrize("options, mode, n, fails", [
    # one passing cell per mode
    ([], "forward", 6, False),
    ([], "converse", 5, False),
    ([], "corollary", 5, False),
    ([], "propb", 6, False),
    ([], "psi-nature", 6, False),
    # the known failing sweeps
    (["--charge", "11,0"], "forward", 4, True),
    ([], "forward", 12, True),
    (["--charge", "0,0"], "forward", 10, True),
    ([], "corollary", 6, True),
    ([], "propb", 10, True),
    (["--e", "4", "--charge", "1,3"], "propb", 13, True),
], ids=lambda x: " ".join(x) or "defaults" if isinstance(x, list) else str(x))
def test_one_report_protocol(capsys, options, mode, n, fails):
    header = assert_one_report_protocol(capsys, options, mode, n)
    assert header.endswith(" 0 counterexamples") != fails


def test_one_report_protocol_on_forced_failures(capsys, monkeypatch):
    # converse and psi-nature have no known failing sweep, so their
    # failures are forced, as in test_admissible.  A failing converse
    # rank line holds several failing words, and the text header counts
    # every one of them over the 40 words of ranks 0..3 at e = 3.
    keep_members(monkeypatch, _forced_member)
    monkeypatch.setattr(isomorphism, "psi_nature_check", lambda *args: False)
    header = assert_one_report_protocol(capsys, [], "converse", 3)
    assert header.startswith("checked 40 words, ")
    assert int(header.split()[-2]) > 3  # more than one word per rank line
    header = assert_one_report_protocol(capsys, [], "psi-nature", 4)
    assert not header.endswith(" 0 counterexamples")


def test_text_mode_keeps_only_the_failing_lines(capsys, monkeypatch):
    # A forced sweep of 2,000 passing lines of about 4 KB and 3 failing
    # ones, each line made as it is yielded: text mode holds the 3
    # failing lines, JSON mode all of them, so text mode's tracemalloc
    # peak stays far below JSON mode's, with the same failing lines.
    def sweep(n, p):
        for i in range(2000):
            if i % 700 == 1:
                yield '{"bp": %d, "pass": false}' % i, 1, 1
            pad = "x" * 4096
            yield '{"bp": %d, "pad": "%s", "pass": true}' % (i, pad), 1, 0

    monkeypatch.setattr(admissible, "verify_djm_forward", sweep)
    header = assert_one_report_protocol(capsys, [], "forward", 1)
    assert header == "checked 2003 instances, 3 counterexamples"
    peaks = {}
    for mode in ("text", "json"):
        peaks[mode] = traced_peak(main, ["--format", mode, "verify",
                                         "--mode", "forward", "--n", "1"])
        assert capsys.readouterr().out.count('"pass": false') == 3
    assert peaks["json"] > 2000 * 4096
    assert peaks["text"] < peaks["json"] // 20


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


def test_show_adm(capsys):
    code, out, _ = run(capsys, ["show", "6.1,2.2", "adm"])
    assert code == 0
    assert out.strip() == "1,0,0,2,2,1,1,2,0,1,2"


def test_show_adm_rejects_non_member(capsys):
    code, _, err = run(capsys, ["--charge", "0,0", "show", "1.1.1,-", "adm"])
    assert code == 2
    assert "not Uglov" in err


def test_show_adm_internal_error_is_a_counterexample(capsys):
    # adm_flotw's class assertion fails on 3.2.1,3.1 at e=3, s=(0,0)
    code, out, err = run(capsys, ["--charge", "0,0", "show", "3.2.1,3.1",
                                  "adm"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: class ")
    assert "is not the top normal 2-nodes" in err
    assert "Traceback" not in err


def test_show_psi(capsys):
    code, out, _ = run(capsys, ["show", "6.1,2.2", "psi:1,0"])
    assert code == 0
    assert out.strip() == "5.2.1,3"
    code, out, _ = run(capsys, ["show", "6.1,2.2", "psi:-2,0"])
    assert code == 0
    assert out.strip() == "2.2,6.1"


def test_negative_charge_is_written_with_equals(capsys):
    # argparse reads "-2,1" after "--charge " as an option of its own
    code, out, _ = run(capsys, ["--charge=-2,1", "show", ",1", "psi:1,-2"])
    assert code == 0
    assert out.strip() == "1,-"
    with pytest.raises(SystemExit) as exc:
        main(["--charge", "-2,1", "show", ",1", "psi:1,-2"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


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
    ["show", "0.1,1", "natures"],
    ["show", "2.0.1,-", "adm"],
    ["show", "1_0,2", "adm"],  # int() reads these parts
    ["show", "+1,2", "adm"],
    ["show", "\u0661,2", "adm"],
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
    ["--workers", "2", "verify", "--mode", "forward", "--n", "2"],
    ["--workers", "2", "verify", "--mode", "corollary", "--n", "2"],
    ["--workers", "2", "verify", "--mode", "propb", "--n", "2"],
    ["--workers", "2", "enumerate", "--n", "2"],
    # int() reads these numbers; the flag parsers do not
    ["--charge", "1_0,+0", "--format", "json", "verify", "--mode", "forward",
     "--n", "\u0663"],
    ["--e", "+3", "enumerate", "--n", "2"],
    ["enumerate", "--n", "1_0"],
    ["--e", "\u0663", "show", "1,-", "natures", "--window=-1,2"],
    ["show", "1,-", "natures", "--window=-1_0,2"],
    ["show", "1,-", "psi:+1,0"],
    ["--workers", "\u0661", "enumerate", "--n", "1"],
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


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.json")


def _readme_examples():
    """The argument lists of the `uglov ...` lines in README.md's sh
    blocks, trailing comments stripped."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    for block in text.split("```sh\n")[1:]:
        for line in block.split("```")[0].splitlines():
            if line.startswith("uglov "):
                yield shlex.split(line, comments=True)[1:]


def test_readme_examples_run(capsys):
    examples = list(_readme_examples())
    assert len(examples) == 12
    for argv in examples:
        code, out, err = run(capsys, argv)
        assert code == 0, (argv, err)
        assert out and "Traceback" not in err


def _benchmark_sweeps():
    with open(WORKLOADS) as fh:
        spec = json.load(fh)
    params = spec["params"]
    for name, wl in sorted(spec["workloads"].items()):
        argv = (["--e", str(params["e"]),
                 "--charge", "%d,%d" % tuple(params["charge"]),
                 "--workers", str(params["workers"]),
                 "--format", params["format"]]
                + wl["args"] + ["--n", str(wl["n"])])
        yield pytest.param(argv, wl["reference"], id=name)


@pytest.mark.parametrize("argv, reference", _benchmark_sweeps())
def test_benchmark_sweeps_match_reference_digests(capsys, argv, reference):
    # The benchmark's sweeps at their own ranks, in process: stdout
    # sha256 and exit code as recorded in perfbench/workloads.json.
    code, out, _ = run(capsys, argv)
    assert code == reference["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == reference["sha256"]
