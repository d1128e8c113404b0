"""Command-line interface: parse a hypergraph, enumerate structures, report JSON.

One JSON report goes to standard output; all diagnostics go to standard error.
Exit codes: 0 success, 1 usage error, 2 input or contract error (or a failed
internal invariant, reported as "internal error:", or a standard output closed
before the report was written, reported as "output error:"), 3 budget exceeded.
Input comes from --file or standard input, text or JSON format auto-detected;
input longer than hypergraph.MAX_INPUT_CHARS characters exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import hypergraph as hg
from .errors import BudgetError, InvariantError

# Each handler imports its enumerator module itself, so a process loads only
# the modules its subcommand uses.


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for input errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# characters per read: a buffered text stream sizes its buffer by the count
# asked for, so one read of the whole limit would allocate the limit
_READ_CHARS = 1 << 16


def _read_upto(stream, count: int) -> str:
    """The first ``count`` characters of ``stream``, or all of it if shorter."""
    parts = []
    while count > 0 and (part := stream.read(min(_READ_CHARS, count))):
        parts.append(part)
        count -= len(part)
    return "".join(parts)


def _load(args) -> hg.Hypergraph:
    limit = hg.MAX_INPUT_CHARS
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = _read_upto(fh, limit + 1)
    else:
        text = _read_upto(sys.stdin, limit + 1)
    if len(text) > limit:
        raise BudgetError(f"input is longer than the limit of {limit} characters")
    return hg.parse(text)


# -- report writer -----------------------------------------------------------------

# pieces held before one write: a few hundred records
_CHUNK_PARTS = 2048


class Records:
    """A list of JSON objects that share their keys, held as rows.

    ``fields`` names the keys in order, and each row holds one value per field.
    """

    __slots__ = ("fields", "rows")

    def __init__(self, fields: tuple, rows):
        self.fields = fields
        self.rows = rows


def _write_json(value, out) -> None:
    """Write ``json.dumps(value, indent=2)`` and a newline to ``out``, in chunks.

    ``value`` is built from dicts with str keys, lists, :class:`Records`, str,
    int, float, bool, None and tuples.  A tuple must hold ints only: it is
    written as one joined int list, its items unchecked.  Keys and the other
    scalars go through ``json.dumps``, so escaping is the encoder's own.
    """
    parts: list[str] = []
    _encode(value, "\n", parts, out)
    parts.append("\n")
    out.write("".join(parts))


def _flush_full(parts: list, out) -> None:
    if len(parts) > _CHUNK_PARTS:
        out.write("".join(parts))
        parts.clear()


def _encode(value, nl: str, parts: list, out) -> None:
    """Append the pieces of ``value``; ``nl`` is a newline and the indent it sits at."""
    if type(value) is tuple:
        if value:
            inner = nl + "  "
            parts.append("[" + inner + ("," + inner).join(map(str, value)) + nl + "]")
        else:
            parts.append("[]")
    elif isinstance(value, Records):
        _encode_records(value, nl, parts, out)
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for key, item in value.items():
            parts.append(lead + json.dumps(key) + ": ")
            _encode(item, inner, parts, out)
            lead = "," + inner
        parts.append(nl + "}")
    elif isinstance(value, list):
        if not value:
            parts.append("[]")
            return
        inner = nl + "  "
        lead = "[" + inner
        for item in value:
            parts.append(lead)
            _encode(item, inner, parts, out)
            lead = "," + inner
            _flush_full(parts, out)
        parts.append(nl + "]")
    else:
        parts.append(json.dumps(value))


def _encode_records(records: Records, nl: str, parts: list, out) -> None:
    # every record has the same layout, so its fixed pieces are formatted once
    if not records.rows:
        parts.append("[]")
        return
    obj = nl + "  "
    key = obj + "  "
    heads = ["," + key + json.dumps(name) + ": " for name in records.fields]
    heads[0] = "{" + heads[0][1:]
    open_, sep, close = "[" + key + "  ", "," + key + "  ", key + "]"
    lead, tail = "[" + obj, obj + "}"
    for row in records.rows:
        parts.append(lead)
        for head, v in zip(heads, row):
            parts.append(head)
            if type(v) is int:
                parts.append(str(v))
            elif type(v) is tuple and v:
                parts.append(open_ + sep.join(map(str, v)) + close)
            else:
                _encode(v, key, parts, out)
        parts.append(tail)
        lead = "," + obj
        _flush_full(parts, out)
    parts.append(nl + "]")


# -- subcommand handlers -----------------------------------------------------------

_WALK_FIELDS = ("vertices", "edges", "count")


def _cmd_walks(args):
    """``paths``, ``cycles`` or ``trails`` from the kernel, or from the oracle for a twin."""
    twin = args.command == "oracle"
    kind = args.oracle_command if twin else args.command
    if twin:
        from . import oracle

        enumerator = getattr(oracle, f"brute_{kind}")
    else:
        from . import walks

        enumerator = getattr(walks, f"k_{kind}")
    h = _load(args)
    ends = {"at": args.at} if kind == "cycles" else {"from": args.src, "to": args.dst}
    records = enumerator(h, *ends.values(), args.k)
    return {"kind": f"oracle-{kind}" if twin else kind, **ends, "k": args.k,
            "records": Records(_WALK_FIELDS, records)}


def _cmd_independent(args):
    """``independent-sets`` from the kernel, or from the oracle for a twin."""
    twin = args.command == "oracle"
    mode, size = args.mode, args.size
    if twin:
        from . import oracle

        def sets_of(h):
            return oracle.brute_independent(h, mode, size, args.k)
    else:
        from . import independent_sets as ind

        def sets_of(h):
            if mode == "k-independent":
                return ind.k_independent_sets(h, size, args.k)
            return {"graph": ind.graph_independent_sets, "weak": ind.weak_independent_sets,
                    "strong": ind.strong_independent_sets,
                    "pairwise-adjacent": ind.pairwise_adjacent_sets}[mode](h, size)
    h = _load(args)
    report = {"kind": "oracle-independent-sets" if twin else "independent-sets",
              "mode": mode, "size": size}
    if mode == "k-independent":
        if args.k is None:
            raise ValueError("--k is required for mode k-independent")
        report["k"] = args.k
    if mode != "weak":
        report["sets"] = sets_of(h)
        return report
    isolated = h.isolated_vertices()
    if isolated:
        # the representation has no label for an edgeless vertex; strip and
        # report them (each joins any weak independent set freely)
        print(f"warning: stripping isolated vertices {sorted(isolated)}", file=sys.stderr)
        keep = [v for v in range(1, h.n + 1) if v not in isolated]
        relabel = {v: i + 1 for i, v in enumerate(keep)}
        h = hg.Hypergraph(len(keep), [[relabel[v] for v in e] for e in h.edges])
    sets = sets_of(h)
    if isolated:  # keep is increasing, so each mapped set stays ascending
        sets = [tuple(keep[v - 1] for v in s) for s in sets]
    if twin:  # pinned: the benchmark's weak companion reads the twin's "sets"
        return {**report, "sets": sets}
    report["by_size"] = {str(size): sets} if sets else {}
    report["complete_size"] = size
    report["removed_isolated"] = sorted(isolated)
    return report


def _cmd_matchings(args):
    """``matchings`` from the kernel, or from the oracle for a twin."""
    twin = args.command == "oracle"
    if twin:
        from .oracle import (brute_j_intersecting as j_sets, brute_matchings as k_sets,
                             brute_perfect_matchings as perfect)
    else:
        from .matchings import (j_intersecting_matchings as j_sets, k_matchings as k_sets,
                                perfect_matching_count as perfect)

    h = _load(args)
    kind = "oracle-matchings" if twin else "matchings"
    if args.perfect:
        return {"kind": kind, "perfect": perfect(h)}
    if args.k is None:
        raise ValueError("--k is required unless --perfect is given")
    if args.j is not None:
        return {"kind": kind, "j": args.j, "k": args.k, "edge_sets": j_sets(h, args.j, args.k)}
    if twin:  # pinned: the benchmark's matchings companions read the twin's "edge_sets"
        return {"kind": kind, "k": args.k, "edge_sets": k_sets(h, args.k)}
    return {"kind": kind, "k": args.k,
            "records": Records(("vertices", "count"), k_sets(h, args.k))}


def _cmd_transversals(args):
    """``transversals`` from the kernel, or from the oracle for a twin."""
    if args.command == "oracle":
        from .oracle import brute_transversals as minimum_transversals
    else:
        from .transversals import minimum_transversals

    h = _load(args)
    tau, sets = minimum_transversals(h)
    return {"tau": tau, "transversals": sets, "removed_isolated": sorted(h.isolated_vertices())}


def _cmd_conjecture(args):
    from .conjectures import run_frankl_trials, run_ryser_trials

    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    if args.max_n is not None and args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    log = args.log or f"{args.which}_violations.ndjson"
    run_trials = run_ryser_trials if args.which == "ryser" else run_frankl_trials
    if args.max_n is None:  # the size defaults live in the harness alone
        summary = run_trials(args.trials, args.seed, log_path=log)
    else:
        summary = run_trials(args.trials, args.seed, args.max_n, log)
    summary["seed"] = args.seed
    summary["log"] = log if summary["violations"] else None
    if summary["violations"]:
        print(f"warning: {summary['violations']} violations appended to {log}", file=sys.stderr)
    return summary


# -- parser ------------------------------------------------------------------------

def _add_flags(p, command: str):
    """Declare the flags of enumeration ``command`` on ``p``: the command's parser or its twin's."""
    p.add_argument("--file", help="hypergraph file (text or JSON); default: standard input")
    if command in ("paths", "trails"):
        p.add_argument("--from", dest="src", type=int, required=True)
        p.add_argument("--to", dest="dst", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
    elif command == "cycles":
        p.add_argument("--at", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
    elif command == "independent-sets":
        p.add_argument("--mode", required=True,
                       choices=["graph", "weak", "strong", "k-independent", "pairwise-adjacent"])
        p.add_argument("--size", type=int, required=True)
        p.add_argument("--k", type=int, help="intersection cap for mode k-independent")
    elif command == "matchings":
        p.add_argument("--k", type=int)
        p.add_argument("--j", type=int)
        p.add_argument("--perfect", action="store_true")
    else:  # transversals
        p.add_argument("--prune", action="store_true",
                       help="no effect; accepted only until the benchmark stops passing it")


# each enumeration command: its help line and handler; ``oracle`` has a twin of each
_ENUMERATIONS = {
    "paths": ("self-avoiding k-step walks between two vertices", _cmd_walks),
    "cycles": ("closed k-step walks at a base vertex", _cmd_walks),
    "trails": ("edge-distinct k-step walks between two vertices", _cmd_walks),
    "independent-sets": ("independent vertex sets of several flavors", _cmd_independent),
    "matchings": ("k-matchings, j-intersecting matchings, perfect count", _cmd_matchings),
    "transversals": ("minimum-cardinality transversals", _cmd_transversals),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="hyperzeon", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, (help_, handler) in _ENUMERATIONS.items():
        p = sub.add_parser(name, help=help_)
        _add_flags(p, name)
        p.set_defaults(handler=handler)

    p = sub.add_parser("conjecture", help="randomized conjecture harness")
    p.add_argument("which", choices=["ryser", "frankl"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--log", help="ndjson path for violations")
    p.set_defaults(handler=_cmd_conjecture)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    osub = p.add_subparsers(dest="oracle_command", required=True, parser_class=_Parser)
    for name, (_, handler) in _ENUMERATIONS.items():
        q = osub.add_parser(name)
        _add_flags(q, name)
        q.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    try:
        _write_json(report, sys.stdout)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader has gone; what is still buffered goes to the null device,
        # so the interpreter's final flush cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("output error: standard output closed early", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
