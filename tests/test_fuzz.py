"""Hypothesis fuzzing of the parser and the CLI: every input ends in a documented exit code.

No subprocess or thread is started: ``main()`` runs in this process with
stdin, stdout and stderr swapped for in-memory streams.  Instances are kept
small so that every enumeration finishes quickly, and the value pool reaches
0, negatives and 10**18 for every numeric flag.
"""

import io
import json
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperzeon.cli import main
from hyperzeon.errors import BudgetError, ParseError
from hyperzeon.hypergraph import MAX_SIZE, Hypergraph, parse

NUMBERS = st.one_of(
    st.integers(1, 4), st.integers(-3, 8), st.sampled_from([0, 10**18, -(10**18), 1001])
)
VERTEX_IDS = st.one_of(st.integers(-1, 8), st.sampled_from([10**18, "1", 1.5, None, [2], True]))


@st.composite
def text_hypergraphs(draw):
    """The text format with small sizes, out-of-range ids and stray tokens mixed in."""
    n = draw(NUMBERS)
    edges = draw(st.lists(st.lists(st.integers(-1, 8), max_size=4), max_size=6))
    m = draw(st.one_of(st.just(len(edges)), NUMBERS))
    lines = [f"{n} {m}"] + [" ".join(map(str, e)) for e in edges]
    lines += draw(st.lists(st.sampled_from(["", "x", "1 1", "#", "  "]), max_size=2))
    return "\n".join(lines) + "\n"


@st.composite
def json_hypergraphs(draw):
    n = draw(st.one_of(NUMBERS, st.sampled_from(["4", None, 2.0, False])))
    edges = draw(st.one_of(
        st.lists(st.lists(VERTEX_IDS, max_size=4), max_size=6),
        st.sampled_from([None, {}, "edges", [1, 2]]),
    ))
    return json.dumps({"n": n, "edges": edges})


@st.composite
def nested_json(draw):
    """An edge list nested to any depth, past the JSON decoder's recursion limit too."""
    depth = draw(st.one_of(st.integers(0, 1200), st.sampled_from([10**4, 2 * 10**5])))
    return '{"n": 1, "edges": ' + "[" * depth + "]" * depth + "}"


@st.composite
def valid_hypergraphs(draw):
    """Well-formed small inputs, so that most runs reach an enumerator."""
    n = draw(st.integers(1, 7))
    edges = draw(st.lists(st.sets(st.integers(1, n), min_size=1, max_size=4), max_size=6))
    return f"{n} {len(edges)}\n" + "".join(" ".join(map(str, sorted(e))) + "\n" for e in edges)


TEXTS = st.one_of(st.text(max_size=80), text_hypergraphs(), json_hypergraphs(), nested_json())
STDIN = st.one_of(
    valid_hypergraphs().map(str.encode),
    valid_hypergraphs().map(str.encode),
    TEXTS.map(str.encode),
    st.binary(max_size=80),
)


@st.composite
def argvs(draw):
    """One subcommand other than ``conjecture`` (fuzzed on its own below) with fuzzed flag values."""
    num = lambda: str(draw(NUMBERS))  # noqa: E731
    command = draw(st.sampled_from([
        "paths", "cycles", "trails", "independent-sets", "matchings", "transversals", "oracle",
    ]))
    if command == "oracle":
        return ["oracle"] + draw(argvs().filter(lambda a: a[0] != "oracle"))
    argv = [command]
    if command in ("paths", "trails"):
        argv += ["--from", num(), "--to", num(), "--k", num()]
    elif command == "cycles":
        argv += ["--at", num(), "--k", num()]
    elif command == "independent-sets":
        mode = draw(st.sampled_from(
            ["strong", "k-independent", "weak", "graph", "pairwise-adjacent"]
        ))
        argv += ["--mode", mode, "--size", num()]
        if draw(st.booleans()):
            argv += ["--k", num()]
    elif command == "matchings":
        flags = draw(st.sampled_from([["--k"], ["--k", "--j"], ["--j"], ["--perfect"], []]))
        for flag in flags:
            argv += [flag] if flag == "--perfect" else [flag, num()]
    # now and then a usage error on purpose: an unknown flag or a value that is not an int
    return argv + draw(st.sampled_from([[]] * 21 + [["--bogus"], ["--k", "ten"], ["--k"]]))


def _run(argv, data: bytes):
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def conjecture_argvs(draw):
    """``conjecture`` with trial counts too small to run long and any --max-n."""
    argv = ["conjecture", draw(st.sampled_from(["ryser", "frankl"]))]
    argv += ["--trials", str(draw(st.sampled_from([-(10**18), -3, -1, 0, 1, 2, 3])))]
    argv += ["--seed", str(draw(NUMBERS))]
    if draw(st.booleans()):
        max_n = draw(st.one_of(st.integers(-3, 8), st.sampled_from([10**18, -(10**18)])))
        argv += ["--max-n", str(max_n)]
    return argv


@given(TEXTS)
@settings(max_examples=300, deadline=None)
def test_parse_returns_a_hypergraph_or_a_documented_error(text):
    try:
        h = parse(text)
    except (ParseError, BudgetError):
        return
    assert isinstance(h, Hypergraph)


@given(argvs(), STDIN)
@settings(max_examples=400, deadline=None)
def test_main_exits_with_a_documented_code(argv, data):
    code, out, err = _run(argv, data)
    assert code in (0, 1, 2, 3), (argv, data, code, err)
    if code == 0:
        json.loads(out)
    else:
        assert out == ""


@st.composite
def twin_runs(draw):
    """A hypergraph within the oracle's limits and a command that has an ``oracle`` twin.

    n, m <= 6, weighted toward n >= 3 and m >= 2, with isolated vertices,
    one-vertex edges and edges of more than two vertices all allowed.  The
    edges are distinct, but for one repeated edge a quarter of the time, and
    a quarter of the time one more vertex lies in no edge.  Each optional
    flag the command takes is present or absent at random.  ``matchings``,
    which has the most flag combinations, is drawn three times as often as
    each of the walk commands and ``transversals``, and runs with ``--k``
    alone half the time and ``--perfect`` alone a quarter of the time;
    ``independent-sets``, whose modes refuse or strip isolated vertices, is
    drawn twice as often.  Every int flag is drawn from {-1, 0, 1, 2, 3, n+1},
    with 1..3 weighted up, so that most runs reach an enumerator.
    """
    n = draw(st.one_of(st.integers(3, 6), st.integers(0, 6)))
    m = min(draw(st.one_of(st.integers(2, 6), st.integers(0, 6))), 2**n - 1)
    edges = draw(st.lists(
        st.frozensets(st.integers(1, n), min_size=1, max_size=n), min_size=m, max_size=m, unique=True
    )) if n else []
    if edges and len(edges) < 6 and draw(st.integers(0, 3)) == 0:
        edges.append(draw(st.sampled_from(edges)))
    if n < 6 and draw(st.integers(0, 3)) == 0:
        n += 1  # isolated
    text = f"{n} {len(edges)}\n" + "".join(" ".join(map(str, sorted(e))) + "\n" for e in edges)
    values = st.one_of(st.integers(1, 3), st.sampled_from([-1, 0, 1, 2, 3, n + 1]))
    num = lambda: str(draw(values))  # noqa: E731
    command = draw(st.sampled_from(
        ["matchings", "independent-sets", "transversals", "paths", "cycles", "trails"]
        + ["independent-sets"] + ["matchings"] * 2
    ))
    argv = [command]
    if command in ("paths", "trails"):
        argv += ["--from", num(), "--to", num(), "--k", num()]
    elif command == "cycles":
        argv += ["--at", num(), "--k", num()]
    elif command == "independent-sets":
        mode = draw(st.sampled_from(
            ["strong", "k-independent", "weak", "graph", "pairwise-adjacent"]
        ))
        argv += ["--mode", mode, "--size", num()]
        if draw(st.booleans()):
            argv += ["--k", num()]
    elif command == "matchings":
        # --k alone is the one run that lists matchings
        flags = draw(st.sampled_from([["--k"], ["--k"], ["--perfect"], None])) or [
            flag for flag in ("--k", "--j", "--perfect") if draw(st.booleans())
        ]
        for flag in flags:
            argv += [flag] if flag == "--perfect" else [flag, num()]
    elif command == "transversals" and draw(st.booleans()):
        argv.append("--prune")
    return argv, text.encode()


def _twin_views(data: bytes, fast: dict, brute: dict):
    """A command's report under its twin's ``oracle-`` kind, and the twin's report.

    Two twin shapes stay pinned, because the benchmark's companions read them:
    the weak twin lists its sets as ``sets``, and the ``matchings --k`` twin
    lists the edge ids of each matching as ``edge_sets``.
    """
    fast = {**fast, "kind": "oracle-" + fast["kind"]} if "kind" in fast else fast
    if "by_size" in fast:
        sets = fast["by_size"].get(str(fast["size"]), [])
        fast = {key: fast[key] for key in ("kind", "mode", "size")} | {"sets": sets}
    elif "edge_sets" in brute and "j" not in brute:
        edges = parse(data.decode()).edges
        unions = Counter(
            tuple(sorted(frozenset().union(*(edges[i - 1] for i in s)))) for s in brute["edge_sets"]
        )
        records = [{"vertices": list(vs), "count": c} for vs, c in sorted(unions.items())]
        brute = {"kind": brute["kind"], "k": brute["k"], "records": records}
    return fast, brute


@given(twin_runs())
@settings(max_examples=300, deadline=None)
def test_oracle_twin_exits_as_its_command_does(run):
    argv, data = run
    code, out, err = _run(argv, data)
    twin_code, twin_out, twin_err = _run(["oracle", *argv], data)
    assert code == twin_code, (argv, data, err, twin_err)
    if code == 0:
        fast, brute = _twin_views(data, json.loads(out), json.loads(twin_out))
        assert fast == brute, (argv, data)


@given(conjecture_argvs())
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_conjecture_exits_with_a_documented_code(tmp_path, argv):
    code, out, err = _run(argv + ["--log", str(tmp_path / "violations.ndjson")], b"")
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code == 0:
        assert json.loads(out)["violations"] == 0
    else:
        assert out == ""


@pytest.mark.parametrize("data", [
    "1000000000000000 0\n",
    f"{MAX_SIZE + 1} 0\n",
    "3 1000000000000000\n",
    f"1 {MAX_SIZE + 1}\n",
    '{"n": 1000000000000000, "edges": []}',
    json.dumps({"n": 1, "edges": [[1]] * (MAX_SIZE + 1)}),
])
def test_oversized_input_exits_three(data):
    # each count is rejected before anything is allocated for it
    for argv in (
        ["transversals"],
        ["matchings", "--k", "2"],
        ["paths", "--from", "1", "--to", "2", "--k", "1"],
    ):
        code, out, err = _run(argv, data.encode())
        assert (code, out) == (3, ""), (data, argv, err)
        assert err.startswith("budget exceeded:")
