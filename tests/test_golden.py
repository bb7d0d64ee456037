"""Golden outputs: every argv of regen_golden.GRID, run through cli.main in
process, gives the stdout and stderr digests and the exit code recorded
in tests/golden.json.  A change that alters an output on purpose
regenerates the file with tests/regen_golden.py."""

import json

from regen_golden import GOLDEN, GRID, run


def test_golden_outputs():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(GRID)
    changed = [argv for argv in GRID if run(argv) != golden[argv]]
    assert changed == []
    assert sum(entry["exit"] == 1 for entry in golden.values()) > 5
    assert sum(entry["exit"] == 2 for entry in golden.values()) == 4
