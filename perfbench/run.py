#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``uglov`` command line.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

A closed loop with one client: each repetition is one sweep of the real
CLI in a fresh interpreter (``child.py`` calls ``uglov.cli.main`` as the
console script does), so every sweep starts with the empty ``is_uglov``
cache a CLI user gets.  Set-up time, interpreter start until
``uglov.cli`` is imported, is measured by separate probe processes, and
so is ``reference.py``, a fixed program that tracks the shared host's
speed.  The sweeps are exhaustive, so the program only ever receives its
CLI arguments; the seed shuffles the order of the repetitions in each
round (workload sweeps, traced sweeps and probes).

Every sweep's stdout sha256, exit code and item count are checked against
the references in ``workloads.json``, and its stderr must hold no
traceback.  With ``--trace 0`` the result line carries the end-to-end
metrics; with ``--trace 1`` each round runs one untraced and one traced
sweep and the result carries the per-layer metrics.  A results file with
provenance is written to ``perfbench/results/``.  The last stdout line is
the JSON result; the lines before it print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from child import TRACED, span_name

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
MIN_ROUNDS = 3
SWEEPS_PER_ROUND = 2  # untraced rounds: two sweeps of each workload, as
                      # many reference probes, one set-up probe
HARD_LIMIT_S = 150  # a run starts no child after this and kills any still
                    # running, so it exits well within three minutes


def load_workloads(path=os.path.join(HERE, "workloads.json")) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cli_argv(spec: dict, wl: dict, n: int) -> list[str]:
    p = spec["params"]
    return (["--e", str(p["e"]), "--charge", "%d,%d" % tuple(p["charge"]),
             "--workers", str(p["workers"]), "--format", p["format"]]
            + wl["args"] + ["--n", str(n)])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list[str], tmp: str, timeout: float) -> dict:
    """Run one process; return its wall time, rusage, exit code and output.
    A child still running after `timeout` seconds is killed."""
    out_path = os.path.join(tmp, "stdout")
    err_path = os.path.join(tmp, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
            "stdout": stdout, "stderr": stderr}


def count_items(stdout: bytes, rule: str) -> int:
    """Bipartitions (enumerate), instances (one report per line) or words
    (the converse reports' word counts)."""
    text = stdout.decode("utf-8", "replace")
    if rule == "list":
        return len(json.loads(text))
    lines = [line for line in text.splitlines() if line.strip()]
    if rule == "lines":
        return len(lines)
    if rule == "words":
        return sum(json.loads(line)["words"] for line in lines)
    raise ValueError("unknown item rule %r" % (rule,))


def check_output(res: dict, ref: dict, rule: str) -> list[str]:
    """Mismatches against the reference digest, exit code and item count."""
    problems = []
    digest = hashlib.sha256(res["stdout"]).hexdigest()
    if digest != ref["sha256"]:
        problems.append("stdout sha256 %s != %s" % (digest, ref["sha256"]))
    if res["exit"] != ref["exit"]:
        problems.append("exit %d != %d" % (res["exit"], ref["exit"]))
    try:
        items = count_items(res["stdout"], rule)
    except (ValueError, KeyError, TypeError) as exc:
        items = None
        problems.append("unparsable stdout: %s" % (exc,))
    if items is not None and items != ref["items"]:
        problems.append("items %d != %d" % (items, ref["items"]))
    if "Traceback" in res["stderr"]:
        problems.append("traceback on stderr")
    res.update(sha256=digest, items=items)
    return problems


def sweep(spec: dict, name: str, tmp: str, traced=False, smoke=False,
          timeout: float = HARD_LIMIT_S) -> dict:
    """One sweep of workload `name` in a fresh interpreter, checked."""
    wl = spec["workloads"][name]
    n = spec["smoke_n"] if smoke else wl["n"]
    ref = wl["smoke_reference"] if smoke else wl["reference"]
    report_path = os.path.join(tmp, "sweep.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), report_path,
            "1" if traced else "0"] + cli_argv(spec, wl, n)
    res = run_child(argv, tmp, timeout)
    res["problems"] = check_output(res, ref, wl["items"])
    del res["stdout"]
    try:
        with open(report_path) as fh:
            report = json.load(fh)
        os.remove(report_path)
    except (OSError, ValueError) as exc:
        res["problems"].append("no sweep report written: %s" % (exc,))
        return res
    res["sweep_s"] = report.pop("sweep_s")
    if traced:
        res["trace"] = report
    return res


# Short processes: "setup" is timed from spawn until uglov.cli is imported
# and the process exits; "ref", the machine-speed reference, prints the
# time of its own computation.
PROBES = {"setup": [sys.executable, "-c", "import uglov.cli"],
          "ref": [sys.executable, os.path.join(HERE, "reference.py")]}


def probe(kind: str, tmp: str, timeout: float = HARD_LIMIT_S) -> dict:
    res = run_child(PROBES[kind], tmp, timeout)
    res["problems"] = []
    try:
        if kind == "ref":
            res["work_s"] = float(res["stdout"])
    except ValueError:
        res["problems"].append("ref probe printed %r" % (res["stdout"],))
    if res["exit"] != 0 or res["stderr"].strip():
        res["problems"].append("%s probe failed: exit %d, %s"
                               % (kind, res["exit"], res["stderr"].strip()))
    del res["stdout"]
    return res


def measure(spec: dict, names: list[str], seed: int, seconds: float,
            trace: bool, tmp: str) -> dict:
    """Rounds of shuffled repetitions until `seconds` have passed; after
    MIN_ROUNDS whole rounds a run stops at the first repetition that
    would start late."""
    rng = random.Random(seed)
    if trace:
        kinds = [(kind, name) for name in names
                 for kind in ("sweep", "traced")]
    else:
        kinds = ([("sweep", name) for name in names]
                 + [("probe", "ref")]) * SWEEPS_PER_ROUND
        kinds.append(("probe", "setup"))
    samples = {"order": [], "probe": {kind: [] for kind in PROBES},
               "sweep": {name: [] for name in names},
               "traced": {name: [] for name in names}}
    start = time.perf_counter()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        order = list(kinds)
        rng.shuffle(order)
        for kind, name in order:
            now = time.perf_counter()
            left = hard - now
            if left <= 0 or (rounds >= MIN_ROUNDS and now >= deadline):
                return samples
            samples["order"].append([kind, name])
            if kind == "probe":
                samples["probe"][name].append(probe(name, tmp, left))
            else:
                samples[kind][name].append(sweep(
                    spec, name, tmp, traced=(kind == "traced"), timeout=left))
        rounds += 1
    return samples


# ---------------------------------------------------------------------------
# metrics

def end_to_end(wl: dict, sweeps: list[dict], probes: dict):
    """Return (gated metrics, raw figures), each name -> (value, unit).

    Sweep time is the mean over the run, total seconds over sweeps: the
    host's speed jumps between levels for seconds at a time, so sweep times
    form clusters and a median jumps between them from run to run.  The
    speed also drifts (by 30% within ten minutes on a shared 2-vCPU virtual
    machine), which no bound can hold, so the gated times are divided by
    the mean time of the reference program run in the same rounds.  Raw
    seconds are reported beside them.
    """
    ok = [s for s in sweeps if "sweep_s" in s]
    refs = [p["work_s"] for p in probes["ref"] if "work_s" in p]
    if not ok or not refs or not probes["setup"]:
        return {}, {}
    wall_s = statistics.mean(s["sweep_s"] for s in ok)
    ref_s = statistics.mean(refs)
    items = wl["reference"]["items"]
    gated = {
        "wall_per_ref": (wall_s / ref_s, "ratio"),
        "items_per_ref": (items * ref_s / wall_s, "1/ref"),
        "peak_rss_mb": (statistics.median(s["rss_mb"] for s in ok), "MB"),
        "setup_s": (statistics.median(p["wall_s"]
                                      for p in probes["setup"]), "s"),
    }
    raw = {"wall_s": (wall_s, "s"), "items_per_s": (items / wall_s, "1/s"),
           "ref_s": (ref_s, "s")}
    return gated, raw


def trace_problems(traced: list[dict]) -> list[str]:
    """Call counts must repeat exactly between traced sweeps."""
    calls = [{k: v["calls"] for k, v in t["trace"]["spans"].items()}
             for t in traced if "trace" in t]
    if any(c != calls[0] for c in calls[1:]):
        return ["per-layer call counts differ between traced sweeps"]
    return []


def per_layer(sweeps: list[dict], traced: list[dict]) -> dict:
    traced = [t for t in traced if "trace" in t]
    if not traced:
        return {}
    traces = [t["trace"] for t in traced]
    first = traces[0]["spans"]

    def self_s(names):
        return statistics.median(sum(t["spans"][name]["self_s"]
                                     for name in names) for t in traces)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for module, funcs in TRACED.items():
        names = [span_name(module, f) for f in funcs]
        if module != "cli":
            for name in names:
                out[name + ".calls"] = (first[name]["calls"], "count")
                out[name + ".self_s"] = (self_s([name]), "s")
        out[module + ".self_s"] = (self_s(names), "s")
    f_action = first["crystal.f_action"]
    monomial = first["crystal.expand_monomial"]
    cache = traces[0]["is_uglov_cache"]
    traced_s = statistics.median(t["sweep_s"] for t in traced)
    untraced_s = statistics.median(s["sweep_s"] for s in sweeps
                                   if "sweep_s" in s)
    out.update({
        "crystal.f_action.terms": (f_action["size"], "count"),
        "crystal.f_action.terms_per_call": (
            ratio(f_action["size"], f_action["calls"]), "ratio"),
        "converse.nonvanishing_ratio": (
            ratio(monomial["size"], monomial["calls"]), "ratio"),
        "is_uglov.cache_hit_ratio": (
            ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "is_uglov.cache_size": (cache["size"], "count"),
        "traced_wall_s": (traced_s, "s"),
        "tracing_overhead_s": (traced_s - untraced_s, "s"),
    })
    return out


# ---------------------------------------------------------------------------
# provenance

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(spec: dict, names: list[str], args) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {name: {"e": spec["params"]["e"],
                             "charge": spec["params"]["charge"],
                             "n": spec["workloads"][name]["n"],
                             "argv": cli_argv(spec, spec["workloads"][name],
                                              spec["workloads"][name]["n"])}
                      for name in names},
    }


def main(argv=None) -> int:
    spec = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uglov", "cli.py")):
        print("error: %s/uglov/cli.py not found; run from a checkout of "
              "the repository" % SRC, file=sys.stderr)
        return 2
    names = (list(spec["workloads"]) if args.workload == "all"
             else [args.workload])

    prov = provenance(spec, names, args)
    prov["loadavg_before"] = os.getloadavg()
    prov["started_unix"] = time.time()
    os.makedirs(RESULTS, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".tmp-", dir=RESULTS)
    try:
        samples = measure(spec, names, args.seed, args.seconds,
                          bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    prov["loadavg_after"] = os.getloadavg()

    runs = [s for name in names
            for s in samples["sweep"][name] + samples["traced"][name]]
    runs += [p for kind in PROBES for p in samples["probe"][kind]]
    problems = [p for s in runs for p in s["problems"]]
    metrics, lines = {}, []
    for name in names:
        sweeps, traced = samples["sweep"][name], samples["traced"][name]
        if args.trace:
            problems += trace_problems(traced)
            values, raw = per_layer(sweeps, traced), {}
        else:
            values, raw = end_to_end(spec["workloads"][name], sweeps,
                                     samples["probe"])
        mine = sweeps + traced
        bad = sum(1 for s in mine if s["problems"])
        lines.append("%-10s %-36s %d sweeps, %d traced, %d items each, "
                     "%d set-up and %d reference probes"
                     % (name, "samples", len(sweeps), len(traced),
                        spec["workloads"][name]["reference"]["items"],
                        len(samples["probe"]["setup"]),
                        len(samples["probe"]["ref"])))
        lines.append("%-10s %-36s %.6g ratio (%d of %d sweeps failed)"
                     % (name, "error_rate", bad / max(len(mine), 1), bad,
                        len(mine)))
        for metric, (value, unit) in raw.items():
            lines.append("%-10s %-36s %.6g %s (raw, not gated)"
                         % (name, metric, value, unit))
        for metric, (value, unit) in values.items():
            key = metric if len(names) == 1 else "%s.%s" % (name, metric)
            metrics[key] = {"value": value, "unit": unit}
            lines.append("%-10s %-36s %.6g %s" % (name, metric, value, unit))
    failed = sum(1 for s in runs if s["problems"])
    result = {"correct": not problems, "attempted": len(runs),
              "failed": failed, "metrics": metrics}

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(RESULTS, "BENCH_%s_%s_seed%d_trace%d_%d.json"
                        % (stamp, args.workload, args.seed, args.trace,
                           os.getpid()))
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "result": result,
                   "problems": problems, "samples": samples}, fh, indent=1)
    for problem in problems:
        print("FAILED: " + problem, file=sys.stderr)
    print("\n".join(lines))
    print("results: " + os.path.relpath(path, ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
