"""Command-line front end.

Subcommands: enumerate (listing / DOT export), verify (exhaustive sweeps,
exit 1 on any counterexample), show (nature tables, boundary sequences,
admissible sequences, charge-change images).

Bipartitions use the dotted notation on the command line: components are
comma-separated, parts dot-separated, "-" is the empty component, e.g.
"6.1,2.2".  e = infinity is spelled "inf".
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import admissible, crystal, diagrams, isomorphism
from .crystal import CrystalParams
from .diagrams import format_bipartition, parse_bipartition


def parse_int(text: str, least=None, usage="") -> int:
    """ASCII digits after an optional '-', and >= least if least is given."""
    digits = text[text.startswith("-"):]
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError("not an integer: %r" % (text,))
    if least is not None and int(text) < least:
        raise argparse.ArgumentTypeError(usage)
    return int(text)


def parse_e(text: str):
    usage = "e must be >= 2 or 'inf'"
    return None if text == "inf" else parse_int(text, 2, usage)


def parse_charge(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("charge must be 's1,s2'")
    return tuple(map(parse_int, parts))


def parse_window(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window must be 'lo,hi'")
    lo, hi = map(parse_int, parts)
    if lo > hi:
        raise argparse.ArgumentTypeError("window needs lo <= hi")
    return (lo, hi)


def parse_rank(text: str) -> int:
    return parse_int(text, 0, "n must be >= 0")


def parse_rendering(text: str):
    """A rendering name, or the target charge of 'psi:S1,S2'."""
    if text.startswith("psi:"):
        return parse_charge(text[len("psi:"):])
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uglov",
        description="Level-two Fock-space crystal combinatorics.")
    parser.add_argument("--e", type=parse_e, default=3,
                        help="quantum characteristic, >= 2 or 'inf'")
    parser.add_argument("--charge", type=parse_charge, default=(0, 1),
                        metavar="S1,S2",
                        help="write a negative s1 as --charge=-2,1, since "
                             "a leading '-' reads as an option")
    parser.add_argument("--format", choices=("text", "json", "dot"),
                        default="text")
    parser.add_argument("--workers", type=parse_int, choices=(1,), default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate",
                            help="list the crystal component up to rank n")
    p_enum.add_argument("--n", type=parse_rank, required=True)

    p_verify = sub.add_parser("verify", help="run an exhaustive sweep")
    p_verify.add_argument("--mode", required=True, choices=(
        "forward", "converse", "corollary", "propb", "psi-nature"))
    p_verify.add_argument("--n", type=parse_rank, required=True)

    p_show = sub.add_parser("show", help="render data for one bipartition")
    p_show.add_argument("bp", type=parse_bipartition,
                        help="dotted notation, e.g. 6.1,2.2; an empty first "
                             "component is written ,3.1 (or -- -,3.1), "
                             "since a leading '-' reads as an option")
    p_show.add_argument("what", type=parse_rendering,
                        help="natures | boundary | adm | psi:S1,S2")
    p_show.add_argument("--window", type=parse_window, default=None,
                        metavar="LO,HI")
    return parser


def cmd_enumerate(args) -> int:
    p = CrystalParams(args.e, args.charge)
    if args.format == "dot":
        print(render_dot(args.n, p))
        return 0
    table, pairs = crystal.top_layer(args.n, p)
    if args.format == "json":
        print("[", end="")  # json.dumps's bytes, a chunk of texts at a time
        for i in range(0, len(pairs), LISTING_CHUNK):
            chunk = pairs[i:i + LISTING_CHUNK]
            print(", " * (i > 0) + ", ".join(map(table.json, chunk)), end="")
        print("]")
    else:
        for bp in map(table.bipartition, pairs):
            print(format_bipartition(bp))
        print("count: %d" % len(pairs))
    return 0


def render_dot(n: int, p: CrystalParams) -> str:
    """The crystal graph up to rank n in DOT: the nodes are the layers of
    one layer_walk, and the edges of each layer below n come from one
    more good_additions scan of it."""
    table = crystal.RimTable(p)
    layers = list(crystal.layer_walk(n, table))
    bps = {pair: table.bipartition(pair) for layer in layers
           for pair in layer}
    edges = sorted((bps[pair], j, bps[kid]) for layer in layers[:n]
                   for pair, good in crystal.good_additions(layer, table)
                   for j, kid in good.items())
    lines = ["digraph crystal {"]
    for bp in sorted(bps.values()):
        lines.append('  "%s";' % format_bipartition(bp))
    for src, j, dst in edges:
        lines.append('  "%s" -> "%s" [label="%s"];'
                     % (format_bipartition(src), format_bipartition(dst), j))
    lines.append("}")
    return "\n".join(lines)


LISTING_CHUNK = 4096  # bipartitions per print of an enumerate listing


def cmd_verify(args) -> int:
    if args.e is None:
        print("verify needs finite e", file=sys.stderr)
        return 2
    sweeps = {  # built per call, so a rebound sweep function is seen
        "forward": (admissible.verify_djm_forward, "instances"),
        "converse": (admissible.verify_djm_converse, "words"),
        "corollary": (admissible.verify_djm_corollary, "instances"),
        "propb": (admissible.propb_checks, "instances"),
        "psi-nature": (isomorphism.verify_psi_nature, "instances"),
    }
    sweep, unit = sweeps[args.mode]
    # (line, checked, failed) per report; text mode keeps failing lines
    text, kept, checked, failed = args.format == "text", [], 0, 0
    for line, count, bad in sweep(args.n, CrystalParams(args.e, args.charge)):
        checked, failed = checked + count, failed + bad
        if bad or not text:
            kept.append(line)
    kept.sort()  # each line is unique, so this orders the reports
    if text:
        print("checked %d %s, %d counterexamples" % (checked, unit, failed))
    for line in kept:
        print(line)
    return 1 if failed else 0


def cmd_show(args) -> int:
    bp, charge, what = args.bp, args.charge, args.what
    if args.window and (what == "adm" or isinstance(what, tuple)):
        print("--window applies to natures and boundary only", file=sys.stderr)
        return 2
    window = args.window or diagrams.default_window(bp, charge)
    try:
        if what == "natures":
            table = diagrams.nature_table(bp, charge, window)
            data = [{"content": j, "component": c, "kind": ent.kind,
                     "node": list(ent.node), "virtual": ent.virtual}
                    for j, c, ent in table]
            text = diagrams.render_nature_table(format_bipartition(bp),
                                                table)
        elif what == "boundary":
            seq = diagrams.boundary_sequence(bp, charge, window)
            data = seq  # Nodes are tuples: JSON arrays
            text = " ".join("(%d,%d,%d)" % g for g in seq)
        elif what == "adm":
            data = admissible.adm(bp, CrystalParams(args.e, charge))
            text = ",".join(str(j) for j in data)
        elif isinstance(what, tuple):  # psi:S1,S2
            image = isomorphism.psi_to(bp, charge, what, args.e)
            data = diagrams.bipartition_to_json(image)
            text = format_bipartition(image)
        else:
            print("unknown rendering %r" % (what,), file=sys.stderr)
            return 2
    except (ValueError, AssertionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        # an internal inconsistency is a counterexample
        return 1 if isinstance(exc, AssertionError) else 2
    print(json.dumps(data) if args.format == "json" else text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.format == "dot" and args.command != "enumerate":
        print("--format dot applies to enumerate only", file=sys.stderr)
        return 2
    command = {"enumerate": cmd_enumerate, "verify": cmd_verify}.get(
        args.command, cmd_show)
    try:
        code = command(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: what is left goes
        # to os.devnull, so the flush at exit prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
