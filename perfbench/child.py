"""One benchmark sweep: run the uglov CLI in this fresh interpreter, time
its ``main`` and write the timings as JSON.

    PYTHONPATH=src python3 perfbench/child.py OUT.json 0|1 CLI-ARGS...

This is what the ``uglov`` console script does (import ``uglov.cli`` and
call ``main``), plus a clock around the call, so the sweep time excludes
interpreter start-up and imports, which the benchmark reports as set-up
time.  Standard output is exactly the CLI's, so it can be checked against
the reference digest.

With trace flag 1, a timing wrapper is put around each layer's public
functions first.  Each wrapper is bound in every ``uglov`` module
namespace that holds the original function: ``crystal`` and
``admissible`` import their primitives with ``from .diagrams import ...``,
so patching only the defining module would miss most calls.  Spans are
aggregated while the sweep runs rather than kept one by one: for each
traced name the tracer keeps the call count, the total time and the self
time (duration minus the time covered by traced children), and the parent
link of every span is kept as a count per (parent, child) edge.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# Traced public functions per layer module.  The span of ``cli.main`` is
# named plain "cli": its self time is argument parsing, the report sort by
# json.dumps and printing.
TRACED = {
    "diagrams": ("compare_uglov", "addable_nodes", "add_node",
                 "removable_nodes", "remove_node", "nature_at"),
    "crystal": ("f_action", "expand_monomial", "signature_word",
                "good_addable_node", "good_removable_node", "uglov_layers",
                "is_uglov"),
    "isomorphism": ("psi_to", "peel_residues", "rebuild_from_residues",
                    "psi_nature_check"),
    "admissible": ("adm", "adm_flotw", "removable_class",
                   "verify_djm_forward", "verify_djm_converse"),
    "cli": ("main",),
}


def span_name(module: str, func: str) -> str:
    return "cli" if module == "cli" else "%s.%s" % (module, func)


class Tracer:
    """Aggregated spans: stats[name] = [calls, total_s, self_s, size]."""

    def __init__(self):
        self.stack = [[None, 0.0]]  # open spans: [name, time in children]
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple, int] = {}

    def wrap(self, name, fn, size=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                key = (parent[0], name)
                edges[key] = edges.get(key, 0) + 1
            if size is not None:
                stats[3] += size(out)
            return out

        return traced


# Result sizes worth counting: Fock-vector terms produced by f_action and
# monomials that do not vanish.
SIZES = {"crystal.f_action": len,
         "crystal.expand_monomial": lambda vec: 1 if vec else 0}


def install(tracer: Tracer) -> list[str]:
    """Rebind every traced function in every uglov namespace; return the
    names that no longer exist, so a later refactor reports 0 calls
    instead of failing."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "uglov" or name.startswith("uglov.")]
    missing = []
    for module, funcs in TRACED.items():
        home = importlib.import_module("uglov." + module)
        for func in funcs:
            name = span_name(module, func)
            original = getattr(home, func, None)
            if original is None:
                missing.append(name)
                tracer.stats.setdefault(name, [0, 0.0, 0.0, 0])
                continue
            wrapper = tracer.wrap(name, original, SIZES.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
    return missing


def cache_info() -> dict:
    """Hits, misses and size of the process-wide is_uglov cache."""
    from uglov import crystal
    cached = getattr(crystal, "_is_uglov", None)
    if not hasattr(cached, "cache_info"):
        return {"hits": 0, "misses": 0, "size": 0}
    info = cached.cache_info()
    return {"hits": info.hits, "misses": info.misses, "size": info.currsize}


def main(argv: list[str]) -> int:
    out_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    from uglov import cli  # loads every layer module

    report = {}
    if trace:
        tracer = Tracer()
        report["missing"] = install(tracer)
    t0 = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    finally:
        sys.stdout.flush()
    report["sweep_s"] = time.perf_counter() - t0
    if trace:
        report["spans"] = {
            name: {"calls": s[0], "total_s": s[1], "self_s": s[2],
                   "size": s[3]}
            for name, s in tracer.stats.items()}
        report["edges"] = [[parent, child, n] for (parent, child), n
                           in sorted(tracer.edges.items(), key=str)]
        report["is_uglov_cache"] = cache_info()
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
