"""Run one `hyperzeon` CLI invocation with every layer's public entry points wrapped in spans.

Usage: python tracer.py STATS_JSON ARGV...

The wrapping happens from outside the package: each hooked function or method
is replaced, in its module and in every hyperzeon module that imported it by
value, with a wrapper that records a span.  A layer's self time is the time
inside its spans minus the time inside the spans they caused.  Then
`hyperzeon.cli.main(ARGV)` runs and the totals go to STATS_JSON.  A hooked name
that this version of the package lacks is listed as absent and left out.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# span key -> (module, attribute path) of the entry points it covers
HOOKS = {
    "algebra.mul": [("hyperzeon.algebra", "Element.__mul__"), ("hyperzeon.algebra", "Element.__rmul__")],
    "algebra.add": [("hyperzeon.algebra", "Element.__add__"), ("hyperzeon.algebra", "Element.__radd__")],
    "algebra.pow": [("hyperzeon.algebra", "Element.__pow__")],
    "hypergraph.parse": [("hyperzeon.hypergraph", "parse")],
    "walks.build": [
        ("hyperzeon.walks", name)
        for name in ("build_omega", "build_trail_matrix", "build_blocks", "build_bipartite")
    ],
    "walks.self": [("hyperzeon.walks", name) for name in ("k_paths", "k_cycles", "k_trails")],
    "independent_sets.build": [
        ("hyperzeon.independent_sets", name)
        for name in ("independent_set_representation", "weak_representation", "k_independent_representation")
    ],
    "independent_sets.self": [
        ("hyperzeon.independent_sets", name)
        for name in (
            "graph_independent_sets", "graph_cliques", "weak_independent_sets",
            "k_independent_sets", "strong_independent_sets", "pairwise_adjacent_sets",
        )
    ],
    "matchings.build": [("hyperzeon.matchings", "incidence_representation")],
    "matchings.self": [
        ("hyperzeon.matchings", name)
        for name in ("k_matchings", "perfect_matching_count", "spanning_matching_count", "j_intersecting_matchings")
    ],
    "transversals.build": [("hyperzeon.transversals", "transversal_representation")],
    "transversals.self": [("hyperzeon.transversals", name) for name in ("minimum_transversals", "transversal_number")],
    "conjectures.gen": [
        ("hyperzeon.conjectures", name) for name in ("generate_ryser_instance", "generate_union_closed")
    ],
    "conjectures.self": [
        ("hyperzeon.conjectures", name)
        for name in ("check_ryser", "check_frankl", "gamma_element", "run_ryser_trials", "run_frankl_trials")
    ],
    "cli.json": [("json", "dump")],
}
# __pow__ does its work through __mul__ today, so its self time is about 0; a
# __pow__ that multiplies without __mul__ would do kernel work, so its self time
# is charged to algebra.mul (its calls still count as algebra.pow_calls)
TIME_KEY = {"algebra.pow": "algebra.mul"}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0
        self.absent = []
        self._stack = []

    def span(self, key, fn, count=None):
        """fn wrapped in a span of ``key``; ``count(args, result)`` runs outside the span."""
        stack, self_s, counts = self._stack, self.self_s, self.counts
        calls, time_key = key + "_calls", TIME_KEY.get(key, key)

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self_s[time_key] += t1 - t0 - children[0]
            counts[calls] += 1
            if count is not None:
                count(args, result)
            # the parent's child time includes this wrapper's bookkeeping, so it is
            # charged to no layer and shows only in the tracing overhead
            spent = perf_counter() - t0
            if stack:
                stack[-1][0] += spent
            else:
                self.top_s += spent
            return result

        return wrapper

    def _terms(self, result):
        n = len(result.terms)
        if n > self.counts["algebra.peak_terms"]:
            self.counts["algebra.peak_terms"] = n
        return n

    def _count_mul(self, args, result):
        if result is NotImplemented:
            return
        a, b = args
        width = len(b.terms) if isinstance(b, type(a)) else 1
        self.counts["algebra.mul_pairs"] += len(a.terms) * width
        self.counts["algebra.mul_terms"] += self._terms(result)

    def _count_result(self, args, result):
        if result is not NotImplemented:
            self._terms(result)

    def install(self):
        import hyperzeon  # noqa: F401  (loads every submodule the package re-exports)
        import hyperzeon.cli  # noqa: F401

        counters = {"algebra.mul": self._count_mul, "algebra.add": self._count_result, "algebra.pow": self._count_result}
        for key, targets in HOOKS.items():
            for module_name, path in targets:
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}.{path}")
                    continue
                wrapper = self.span(key, original, counters.get(key))
                if key == "cli.json":
                    wrapper = self._measured_dump(wrapper)
                setattr(owner, attr, wrapper)
                _rebind(original, wrapper)

    def _measured_dump(self, dump):
        # json_bytes from the output file's position, not a counting writer that
        # would slow every chunk the encoder writes
        def measured(obj, fp, *args, **kwargs):
            fp.flush()
            start = os.lseek(fp.fileno(), 0, os.SEEK_CUR)
            dump(obj, fp, *args, **kwargs)
            fp.flush()
            self.counts["cli.json_bytes"] += os.lseek(fp.fileno(), 0, os.SEEK_CUR) - start

        return measured

    def stats(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts), "top_s": self.top_s, "absent": self.absent}


def _rebind(original, wrapper):
    """Point names that hyperzeon modules imported by value at the wrapper too."""
    for name, module in list(sys.modules.items()):
        if name == "hyperzeon" or name.startswith("hyperzeon."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from hyperzeon.cli import main as cli_main

    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(tracer.stats()))
    return code


if __name__ == "__main__":
    sys.exit(main())
