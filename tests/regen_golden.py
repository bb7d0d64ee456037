"""Write tests/golden.json: for each argv of GRID, the sha256 of the
stdout and of the stderr of cli.main(argv), run in process, and its exit
code.  tests/test_golden.py replays every entry.

Run it from the repository root after a change that alters an output on
purpose, and list each changed entry, with why, in CHANGES.md:

    PYTHONPATH=src python tests/regen_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib

from test_admissible import _cell_charges
from uglov import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"

MODES = ("forward", "converse", "corollary", "propb", "psi-nature")


def _grid() -> list[str]:
    out = []
    # enumerate and every verify mode in JSON, 27 cells, ranks 7/6/5
    for e, n in ((2, 7), (3, 6), (4, 5)):
        for s1, s2 in _cell_charges(e):
            cell = "--e %d --charge=%d,%d --format json " % (e, s1, s2)
            out.append(cell + "enumerate --n %d" % n)
            out += [cell + "verify --mode %s --n %d" % (mode, n)
                    for mode in MODES]
    out += [
        # the known failures, each exit 1
        "--charge 11,0 --format json verify --mode forward --n 4",
        "--format json verify --mode forward --n 12",
        "--format json verify --mode propb --n 10",
        "--format json verify --mode corollary --n 6",
        "--charge 0,0 show 3.2.1,3.1 adm",
        # deeper forward sweeps, each exit 0
        "--format json verify --mode forward --n 11",
        "--e 4 --charge 1,3 --format json verify --mode forward --n 10",
        # sweeps whose charge is off the fundamental domain, so the walk's
        # two tables differ: forward exit 0, then 1 on two class-step
        # errors on the image 3.2.1,3.1 at the fundamental charge (2,2);
        # propb exit 0; corollary exit 1
        "--e 4 --charge=3,1 --format json verify --mode forward --n 10",
        "--e 3 --charge=2,-1 --format json verify --mode forward --n 11",
        "--e 4 --charge=3,1 --format json verify --mode propb --n 11",
        "--e 3 --charge=1,0 --format json verify --mode corollary --n 8",
        # deeper corollary sweeps: exit 1, 0 and 1
        "--format json verify --mode corollary --n 9",
        "--e 2 --format json verify --mode corollary --n 9",
        "--e 4 --charge 1,3 --format json verify --mode corollary --n 8",
        # deeper converse sweeps, each exit 0, and a corollary sweep off
        # the fundamental domain whose shapes' Uglov maximum is not the
        # bipartition: exit 1
        "--format json verify --mode converse --n 11",
        "--e 4 --charge 1,3 --format json verify --mode converse --n 9",
        "--e 2 --charge=5,-2 --format json verify --mode converse --n 10",
        "--e 2 --charge=5,-2 --format json verify --mode corollary --n 8",
        # deeper propb sweeps: exit 0, then 1 at 4.4,2.1.1.1
        "--e 4 --charge 1,3 --format json verify --mode propb --n 12",
        "--e 4 --charge 1,3 --format json verify --mode propb --n 13",
        # wide charges, where a component's core is far from the other's;
        # the last exits 1 on the Bh/Bv exclusion
        "--charge=0,100000 --format json verify --mode psi-nature --n 6",
        "--charge=100000,0 --format json verify --mode psi-nature --n 6",
        "--charge=0,100000 --format json verify --mode propb --n 3",
        "--charge=100000,0 --format json verify --mode propb --n 3",
        "--e 2 --charge=0,37 --format json verify --mode propb --n 8",
        # the good-node scan at e = infinity, and at an e past the rank,
        # whose listing equals the one at infinity
        "--e inf --format json enumerate --n 12",
        "--e inf --format dot enumerate --n 5",
        "--e 100000 --format json enumerate --n 12",
        # the four benchmark sweeps
        "--format json enumerate --n 19",
        "--format json verify --mode forward --n 9",
        "--format json verify --mode converse --n 7",
        "--format json verify --mode psi-nature --n 11",
        # a listing longer than one cli.LISTING_CHUNK, and a text listing
        # off the fundamental domain
        "--format json enumerate --n 24",
        "--e 2 --charge=5,-2 enumerate --n 9",
        # the README lines, in text and dot
        "enumerate --n 11",
        "--format json enumerate --n 4",
        "--format dot enumerate --n 4",
        "show 6.1,2.2 natures --window=-3,6",
        "show 6.1,2.2 boundary --window=-3,5",
        "show 6.1,2.2 adm",
        "show 6.1,2.2 psi:1,0",
        "verify --mode forward --n 6",
        "--e 2 verify --mode converse --n 4",
        "verify --mode corollary --n 5",
        "verify --mode propb --n 5",
        "verify --mode psi-nature --n 5",
        # per-bipartition words, each exit 0: psi there and back at a far
        # charge, and psi and adm off the fundamental domain, each one
        # peel_word then rebuild_from_residues
        "show 6.1,2.2 psi:1000,0",
        "--charge 1000,0 show 5.2.1,3 psi:0,1",
        "--charge=5,-2 show 6.1,2.2 adm",
        "--e 2 --charge=4,-1 show 3.2,2.1 psi:0,1",
        "--e 2 --charge=4,-1 show 3.2,2.1 adm",
        "--e inf --charge 0,3 show 2.1,1 psi:3,0",
        "--format json --e 4 --charge 9,-1 show 4.2,2.1 adm",
        # failing sweeps in text mode, each exit 1: the header's counts
        # and the failing lines alone
        "--charge 11,0 verify --mode forward --n 4",
        "verify --mode corollary --n 6",
        "verify --mode propb --n 10",
        # exit 2 from the commands themselves, not from argparse, whose
        # messages differ between Python versions
        "--e inf verify --mode forward --n 3",
        "--format dot verify --mode forward --n 3",
        "show 1,- adm --window=0,3",
        "--e inf show 1,- psi:0,3",
    ]
    return list(dict.fromkeys(out))  # at e = 2, (0, e - 1) is (0, 1)


GRID = _grid()


def run(argv: str) -> dict:
    """The sha256 of the stdout and the stderr of cli.main on argv, split
    at spaces, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split(" "))
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


def main():
    golden = {argv: run(argv) for argv in GRID}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print("wrote %d entries to %s" % (len(golden), GOLDEN.name))


if __name__ == "__main__":
    main()
