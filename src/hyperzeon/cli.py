"""Command-line interface: parse a hypergraph, enumerate structures, report JSON.

One JSON report goes to standard output; all diagnostics go to standard error.
Exit codes: 0 success, 1 usage error, 2 input or contract error (or a failed
internal invariant, reported as "internal error:"), 3 budget exceeded.  Input
comes from --file or standard input, text or JSON format auto-detected.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import hypergraph as hg
from . import oracle
from .conjectures import run_frankl_trials, run_ryser_trials
from .errors import BudgetError, InvariantError, ParseError
from .independent_sets import (
    graph_independent_sets,
    k_independent_sets,
    pairwise_adjacent_sets,
    strong_independent_sets,
    weak_independent_sets,
)
from .matchings import j_intersecting_matchings, k_matchings, perfect_matching_count
from .transversals import minimum_transversals
from .walks import k_cycles, k_paths, k_trails


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for input errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load(args) -> hg.Hypergraph:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return hg.parse(text)


def _walk_records_json(records) -> list[dict]:
    return [
        {"vertices": sorted(r.vertex_set), "edges": sorted(r.edge_set), "count": r.count}
        for r in records
    ]


def _oracle_records_json(counts: dict) -> list[dict]:
    rows = [
        {"vertices": sorted(vs), "edges": sorted(es), "count": c}
        for (vs, es), c in counts.items()
    ]
    rows.sort(key=lambda r: (r["vertices"], r["edges"]))
    return rows


def _sets_json(sets) -> list[list[int]]:
    return [sorted(s) for s in sets]


# -- subcommand handlers -----------------------------------------------------------


def _cmd_paths(args):
    h = _load(args)
    records = k_paths(h, args.src, args.dst, args.k)
    return {"kind": "paths", "from": args.src, "to": args.dst, "k": args.k,
            "records": _walk_records_json(records)}


def _cmd_cycles(args):
    h = _load(args)
    records = k_cycles(h, args.at, args.k)
    return {"kind": "cycles", "at": args.at, "k": args.k,
            "records": _walk_records_json(records)}


def _cmd_trails(args):
    h = _load(args)
    records = k_trails(h, args.src, args.dst, args.k)
    return {"kind": "trails", "from": args.src, "to": args.dst, "k": args.k,
            "records": _walk_records_json(records)}


def _cmd_independent(args):
    h = _load(args)
    mode = args.mode
    report = {"kind": "independent-sets", "mode": mode, "size": args.size}
    if mode == "graph":
        report["sets"] = _sets_json(vs for vs, _ in graph_independent_sets(h, args.size))
    elif mode == "weak":
        isolated = h.isolated_vertices()
        back = {v: v for v in range(1, h.n + 1)}
        if isolated:
            # the representation has no label for an edgeless vertex; strip and
            # report them (each joins any weak independent set freely)
            print(f"warning: stripping isolated vertices {sorted(isolated)}", file=sys.stderr)
            keep = [v for v in range(1, h.n + 1) if v not in isolated]
            relabel = {v: i + 1 for i, v in enumerate(keep)}
            back = {i + 1: v for i, v in enumerate(keep)}
            h = hg.Hypergraph(len(keep), [[relabel[v] for v in e] for e in h.edges])
        by_size = weak_independent_sets(h, args.size)
        report["by_size"] = {
            str(size): _sets_json(frozenset(back[v] for v in s) for s in sets)
            for size, sets in by_size.items()
        }
        report["complete_size"] = args.size
        report["removed_isolated"] = sorted(isolated)
    elif mode == "strong":
        report["sets"] = _sets_json(strong_independent_sets(h, args.size))
    elif mode == "k-independent":
        if args.k is None:
            raise ValueError("--k is required for mode k-independent")
        report["k"] = args.k
        report["sets"] = _sets_json(k_independent_sets(h, args.size, args.k))
    else:  # pairwise-adjacent
        report["sets"] = _sets_json(pairwise_adjacent_sets(h, args.size))
    return report


def _cmd_matchings(args):
    h = _load(args)
    if args.perfect:
        return {"kind": "matchings", "perfect": perfect_matching_count(h)}
    if args.k is None:
        raise ValueError("--k is required unless --perfect is given")
    if args.j is not None:
        return {"kind": "matchings", "j": args.j, "k": args.k,
                "edge_sets": _sets_json(j_intersecting_matchings(h, args.j, args.k))}
    records = k_matchings(h, args.k)
    return {"kind": "matchings", "k": args.k,
            "records": [{"vertices": sorted(vs), "count": c} for vs, c in records]}


def _cmd_transversals(args):
    h = _load(args)
    isolated = sorted(h.isolated_vertices())
    if h.m == 0:
        return {"tau": 0, "transversals": [[]], "removed_isolated": isolated}
    tau, sets = minimum_transversals(h)
    return {"tau": tau, "transversals": _sets_json(sets), "removed_isolated": isolated}


def _cmd_conjecture(args):
    log = args.log or f"{args.which}_violations.ndjson"
    if args.which == "ryser":
        summary = run_ryser_trials(args.trials, args.seed, args.max_n or 12, log)
    else:
        summary = run_frankl_trials(args.trials, args.seed, args.max_n or 8, log)
    summary["seed"] = args.seed
    summary["log"] = log if summary["violations"] else None
    if summary["violations"]:
        print(f"warning: {summary['violations']} violations appended to {log}", file=sys.stderr)
    return summary


def _cmd_oracle(args):
    h = _load(args)
    which = args.oracle_command
    if which == "paths":
        return {"kind": "oracle-paths", "from": args.src, "to": args.dst, "k": args.k,
                "records": _oracle_records_json(oracle.brute_paths(h, args.src, args.dst, args.k))}
    if which == "cycles":
        return {"kind": "oracle-cycles", "at": args.at, "k": args.k,
                "records": _oracle_records_json(oracle.brute_cycles(h, args.at, args.k))}
    if which == "trails":
        return {"kind": "oracle-trails", "from": args.src, "to": args.dst, "k": args.k,
                "records": _oracle_records_json(oracle.brute_trails(h, args.src, args.dst, args.k))}
    if which == "independent-sets":
        sets = oracle.brute_independent(h, args.mode, args.size, args.k)
        return {"kind": "oracle-independent-sets", "mode": args.mode, "size": args.size,
                "sets": _sets_json(sets)}
    if which == "matchings":
        if args.j is not None:
            return {"kind": "oracle-matchings", "j": args.j, "k": args.k,
                    "edge_sets": _sets_json(oracle.brute_j_intersecting(h, args.j, args.k))}
        return {"kind": "oracle-matchings", "k": args.k,
                "edge_sets": _sets_json(oracle.brute_matchings(h, args.k))}
    tau, sets = oracle.brute_transversals(h)
    return {"tau": tau, "transversals": _sets_json(sets)}


# -- parser ------------------------------------------------------------------------


def _add_input_flag(p):
    p.add_argument("--file", help="hypergraph file (text or JSON); default: standard input")


def build_parser() -> _Parser:
    parser = _Parser(prog="hyperzeon", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("paths", help="self-avoiding k-step walks between two vertices")
    _add_input_flag(p)
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_paths)

    p = sub.add_parser("cycles", help="closed k-step walks at a base vertex")
    _add_input_flag(p)
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_cycles)

    p = sub.add_parser("trails", help="edge-distinct k-step walks between two vertices")
    _add_input_flag(p)
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_trails)

    p = sub.add_parser("independent-sets", help="independent vertex sets of several flavors")
    _add_input_flag(p)
    p.add_argument("--mode", required=True,
                   choices=["graph", "weak", "strong", "k-independent", "pairwise-adjacent"])
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--k", type=int, help="intersection cap for mode k-independent")
    p.set_defaults(handler=_cmd_independent)

    p = sub.add_parser("matchings", help="k-matchings, j-intersecting matchings, perfect count")
    _add_input_flag(p)
    p.add_argument("--k", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--perfect", action="store_true")
    p.set_defaults(handler=_cmd_matchings)

    p = sub.add_parser("transversals", help="minimum-cardinality transversals")
    _add_input_flag(p)
    p.add_argument("--prune", action="store_true",
                   help="no effect; accepted only until the benchmark stops passing it")
    p.set_defaults(handler=_cmd_transversals)

    p = sub.add_parser("conjecture", help="randomized conjecture harness")
    p.add_argument("which", choices=["ryser", "frankl"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--log", help="ndjson path for violations")
    p.set_defaults(handler=_cmd_conjecture)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    osub = p.add_subparsers(dest="oracle_command", required=True, parser_class=_Parser)
    for name in ("paths", "trails"):
        q = osub.add_parser(name)
        _add_input_flag(q)
        q.add_argument("--from", dest="src", type=int, required=True)
        q.add_argument("--to", dest="dst", type=int, required=True)
        q.add_argument("--k", type=int, required=True)
        q.set_defaults(handler=_cmd_oracle)
    q = osub.add_parser("cycles")
    _add_input_flag(q)
    q.add_argument("--at", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(handler=_cmd_oracle)
    q = osub.add_parser("independent-sets")
    _add_input_flag(q)
    q.add_argument("--mode", required=True,
                   choices=["graph", "weak", "strong", "k-independent", "pairwise-adjacent"])
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--k", type=int)
    q.set_defaults(handler=_cmd_oracle)
    q = osub.add_parser("matchings")
    _add_input_flag(q)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--j", type=int)
    q.set_defaults(handler=_cmd_oracle)
    q = osub.add_parser("transversals")
    _add_input_flag(q)
    q.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    _write_report(report)
    return 0


def _write_report(report):
    # the indenting encoder writes once per token; with write-through on (as
    # under PYTHONUNBUFFERED) each write would be its own syscall
    out = sys.stdout
    buffered = isinstance(out, io.TextIOWrapper) and out.write_through
    if buffered:
        out.reconfigure(write_through=False)
    try:
        json.dump(report, out, indent=2)
        print(file=out)
    finally:
        if buffered:
            out.reconfigure(write_through=True)  # flushes the report


if __name__ == "__main__":
    sys.exit(main())
