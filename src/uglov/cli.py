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
import sys
from concurrent.futures import ProcessPoolExecutor

from . import admissible, crystal, diagrams, isomorphism
from .crystal import CrystalParams
from .diagrams import format_bipartition, parse_bipartition


def parse_e(text: str):
    if text == "inf":
        return None
    e = int(text)
    if e < 2:
        raise argparse.ArgumentTypeError("e must be >= 2 or 'inf'")
    return e


def parse_charge(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("charge must be 's1,s2'")
    return (int(parts[0]), int(parts[1]))


def parse_window(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window must be 'lo,hi'")
    lo, hi = int(parts[0]), int(parts[1])
    if lo > hi:
        raise argparse.ArgumentTypeError("window needs lo <= hi")
    return (lo, hi)


def parse_rank(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("n must be >= 0")
    return n


def parse_workers(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return k


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
                        metavar="S1,S2")
    parser.add_argument("--format", choices=("text", "json", "dot"),
                        default="text")
    parser.add_argument("--workers", type=parse_workers, default=1)
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
    layers = crystal.uglov_layers(args.n, p)
    if args.format == "dot":
        print(render_dot(layers, p))
        return 0
    bps = sorted(layers[args.n])
    if args.format == "json":
        print(json.dumps([diagrams.bipartition_to_json(bp) for bp in bps]))
    else:
        for bp in bps:
            print(format_bipartition(bp))
        print("count: %d" % len(bps))
    return 0


def render_dot(layers, p: CrystalParams) -> str:
    lines = ["digraph crystal {"]
    for bp in sorted(set().union(*layers)):
        lines.append('  "%s";' % format_bipartition(bp))
    for src, j, dst in sorted(crystal.crystal_edges(layers, p)):
        lines.append('  "%s" -> "%s" [label="%s"];'
                     % (format_bipartition(src), format_bipartition(dst), j))
    lines.append("}")
    return "\n".join(lines)


# the admissible function each per-bipartition sweep runs
_SWEEPS = {"forward": "verify_djm_forward",
           "corollary": "verify_djm_corollary", "propb": "propb_checks"}


def _sweep_one(task):
    # looked up by name at call time, so a rebinding of the admissible
    # function is seen here too
    name, bp, e, charge = task
    try:
        return getattr(admissible, name)(bp, CrystalParams(e, charge))
    except AssertionError as exc:
        # an internal inconsistency is this bipartition's counterexample,
        # not the end of the sweep
        return {"bp": diagrams.bipartition_to_json(bp), "pass": False,
                "error": str(exc)}


def cmd_verify(args) -> int:
    if args.e is None:
        print("verify needs finite e", file=sys.stderr)
        return 2
    if args.workers > 1 and args.mode not in _SWEEPS:
        print("--workers applies to forward, corollary and propb, "
              "not %s" % args.mode, file=sys.stderr)
        return 2
    p = CrystalParams(args.e, args.charge)
    reports = []
    if args.mode == "converse":
        reports = admissible.verify_djm_converse(args.n, p)
    elif args.mode == "psi-nature":
        images = isomorphism.psi_images(crystal.uglov_layers(args.n, p), p,
                                        args.charge[::-1])
        for bp, image in images.items():
            ok = isomorphism.psi_nature_check(bp, image, args.charge)
            reports.append({"bp": diagrams.bipartition_to_json(bp),
                            "image": diagrams.bipartition_to_json(image),
                            "pass": ok})
    else:
        name = _SWEEPS[args.mode]
        tasks = [(name, bp, args.e, args.charge)
                 for layer in crystal.uglov_layers(args.n, p)
                 for bp in sorted(layer)]
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                reports = list(pool.map(_sweep_one, tasks))
        else:
            reports = [_sweep_one(t) for t in tasks]
    # each report serialized once: its line is also its sort key
    lines = sorted((json.dumps(r, sort_keys=True), r["pass"])
                   for r in reports)
    failed = [line for line, ok in lines if not ok]
    if args.format == "json":
        for line, _ in lines:
            print(line)
    else:
        if args.mode == "converse":  # one report per rank, many words each
            checked = "%d words" % sum(r["words"] for r in reports)
            count = sum(len(r["failures"]) for r in reports)
        else:
            checked, count = "%d instances" % len(reports), len(failed)
        print("checked %s, %d counterexamples" % (checked, count))
        for line in failed:
            print(line)
    return 1 if failed else 0


def cmd_show(args) -> int:
    bp, charge = args.bp, args.charge
    if args.window and (args.what == "adm" or isinstance(args.what, tuple)):
        print("--window applies to natures and boundary only", file=sys.stderr)
        return 2
    window = args.window or diagrams.default_window(bp, charge)
    if args.what == "natures":
        table = diagrams.nature_table(bp, charge, window)
        if args.format == "json":
            print(json.dumps([
                {"content": j, "component": c, "kind": ent.kind,
                 "node": list(ent.node), "virtual": ent.virtual}
                for j, c, ent in table]))
        else:
            print(diagrams.render_nature_table(format_bipartition(bp),
                                               table))
    elif args.what == "boundary":
        seq = diagrams.boundary_sequence(bp, charge, window)
        if args.format == "json":
            print(json.dumps([list(g) for g in seq]))
        else:
            print(" ".join("(%d,%d,%d)" % g for g in seq))
    elif args.what == "adm":
        try:
            seq = admissible.adm(bp, CrystalParams(args.e, charge))
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        if args.format == "json":
            print(json.dumps(seq))
        else:
            print(",".join(str(j) for j in seq))
    elif isinstance(args.what, tuple):  # psi:S1,S2
        try:
            image = isomorphism.psi_to(bp, charge, args.what, args.e)
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        if args.format == "json":
            print(json.dumps(diagrams.bipartition_to_json(image)))
        else:
            print(format_bipartition(image))
    else:
        print("unknown rendering %r" % (args.what,), file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.format == "dot" and args.command != "enumerate":
        print("--format dot applies to enumerate only", file=sys.stderr)
        return 2
    if args.command == "enumerate":
        return cmd_enumerate(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_show(args)


if __name__ == "__main__":
    sys.exit(main())
