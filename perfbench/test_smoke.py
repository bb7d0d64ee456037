"""Smoke check of the benchmark harness at tiny ranks (n = smoke_n).

Every workload is swept untraced and traced in fresh interpreters; each
sweep must match its recorded stdout digest, exit code and item count, and
the traced sweep must confirm the workload's bypass predictions.  No
timing bound is set.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import pytest

import run

SPEC = run.load_workloads()
WORKLOADS = sorted(SPEC["workloads"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_sweep_matches_reference(name, tmp_path):
    res = run.sweep(SPEC, name, str(tmp_path), smoke=True)
    assert res["problems"] == []
    assert res["items"] == SPEC["workloads"][name]["smoke_reference"]["items"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_sweep_matches_reference_and_bypasses(name, tmp_path):
    res = run.sweep(SPEC, name, str(tmp_path), traced=True, smoke=True)
    assert res["problems"] == []
    spans = res["trace"]["spans"]
    assert res["trace"]["missing"] == []
    assert spans["cli"]["calls"] == 1
    for bypassed in SPEC["workloads"][name]["bypasses"]:
        hit = {k: v["calls"] for k, v in spans.items()
               if k == bypassed or k.startswith(bypassed + ".")}
        assert hit and not any(hit.values()), hit


@pytest.mark.parametrize("kind", sorted(run.PROBES))
def test_probe_runs_cleanly(kind, tmp_path):
    res = run.probe(kind, str(tmp_path))
    assert res["problems"] == []
    assert res["wall_s"] > 0
