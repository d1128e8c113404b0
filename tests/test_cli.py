"""End-to-end command behavior: reports, exit codes, input handling."""

import ast
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA, SAMPLE7_TEXT
import hyperzeon
from hyperzeon import cli
from hyperzeon.cli import Records, _write_json, main
from hyperzeon.hypergraph import parse
from hyperzeon.oracle import brute_perfect_matchings

SAMPLE7_PATH = str(DATA / "sample7.hg")
# the source tree a child interpreter imports hyperzeon from
SRC = str(Path(hyperzeon.__file__).resolve().parents[1])


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def random_input_text(seed, n, m) -> str:
    """A text input of m random edges of 2 to 4 of the vertices 1..n."""
    rng = random.Random(seed)
    edges = [rng.sample(range(1, n + 1), rng.randint(2, 4)) for _ in range(m)]
    return f"{n} {m}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)


class TestWalkCommands:
    def test_paths_golden(self, capsys):
        code, report, _ = run(
            capsys, ["paths", "--file", SAMPLE7_PATH, "--from", "3", "--to", "4", "--k", "3"]
        )
        assert code == 0
        assert report["kind"] == "paths"
        assert len(report["records"]) == 5
        assert {"vertices": [3, 4, 5, 6], "edges": [3, 4, 6], "count": 1} in report["records"]

    def test_cycles(self, capsys):
        code, report, _ = run(capsys, ["cycles", "--file", SAMPLE7_PATH, "--at", "1", "--k", "2"])
        assert code == 0
        assert {"vertices": [1, 4], "edges": [2, 3], "count": 2} in report["records"]

    @pytest.mark.parametrize("command", ["paths", "trails"])
    def test_huge_k_is_empty_not_recursion(self, capsys, monkeypatch, command):
        # each row power vanishes after at most n (paths) or m (trails) steps
        monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n1 2\n2 3\n"))
        code, report, _ = run(capsys, [command, "--from", "1", "--to", "2", "--k", "5000"])
        assert code == 0
        assert report["records"] == []

    @pytest.mark.parametrize("argv", [
        ["paths", "--from", "1", "--to", "14"],
        ["cycles", "--at", "1"],
        ["trails", "--from", "1", "--to", "14"],
    ])
    def test_k_past_the_walk_length_limit_is_empty(self, capsys, monkeypatch, argv):
        # 10**18 steps exceed any path, cycle or trail of a 20-vertex, 30-edge input
        monkeypatch.setattr("sys.stdin", io.StringIO(random_input_text(0, 20, 30)))
        code, report, _ = run(capsys, [*argv, "--k", str(10**18)])
        assert code == 0
        assert report["records"] == []

    def test_trails(self, capsys):
        code, report, _ = run(
            capsys, ["trails", "--file", SAMPLE7_PATH, "--from", "3", "--to", "4", "--k", "3"]
        )
        assert code == 0
        assert {"vertices": [3, 4, 5, 6], "edges": [3, 4, 6], "count": 1} in report["records"]


class TestStructureCommands:
    def test_transversals(self, capsys):
        code, report, _ = run(capsys, ["transversals", "--file", SAMPLE7_PATH])
        assert code == 0
        assert report == {"tau": 2, "transversals": [[1, 6]], "removed_isolated": []}

    def test_transversals_prune_same(self, capsys):
        # --prune is accepted and has no effect
        _, plain, _ = run(capsys, ["transversals", "--file", SAMPLE7_PATH])
        _, pruned, _ = run(capsys, ["transversals", "--file", SAMPLE7_PATH, "--prune"])
        assert plain == pruned

    def test_transversals_edgeless(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 0\n"))
        code, report, _ = run(capsys, ["transversals"])
        assert code == 0
        assert report == {"tau": 0, "transversals": [[]], "removed_isolated": [1, 2, 3]}

    def test_matchings_k2(self, capsys):
        code, report, _ = run(capsys, ["matchings", "--file", SAMPLE7_PATH, "--k", "2"])
        assert code == 0
        assert len(report["records"]) == 5
        assert all(r["count"] == 1 for r in report["records"])

    def test_matchings_j_intersecting(self, capsys):
        code, report, _ = run(capsys, ["matchings", "--file", SAMPLE7_PATH, "--k", "2", "--j", "0"])
        assert code == 0
        assert report["edge_sets"] == [[1, 5], [1, 6], [2, 4], [2, 6], [3, 4]]

    def test_matchings_perfect(self, capsys, monkeypatch):
        text = "4 6\n1 2\n3 4\n1 3\n2 4\n1 4\n2 3\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, report, _ = run(capsys, ["matchings", "--perfect"])
        assert code == 0
        assert report == {"kind": "matchings", "perfect": 3}

    def test_matchings_perfect_on_empty(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
        code, report, _ = run(capsys, ["matchings", "--perfect"])
        assert code == 0
        assert report == {"kind": "matchings", "perfect": 1}

    @pytest.mark.parametrize(
        "text", ["3 2\n1 2\n1 2 3\n", "3 1\n1 2\n"], ids=["non-uniform", "indivisible"]
    )
    def test_matchings_perfect_matches_oracle(self, capsys, monkeypatch, text):
        want = brute_perfect_matchings(parse(text))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main(["matchings", "--perfect"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == f'{{\n  "kind": "matchings",\n  "perfect": {want}\n}}\n'
        assert captured.err == ""
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, report, _ = run(capsys, ["oracle", "matchings", "--perfect"])
        assert (code, report["perfect"]) == (0, want)

    def test_weak_independent_sets(self, capsys):
        code, report, _ = run(
            capsys, ["independent-sets", "--file", SAMPLE7_PATH, "--mode", "weak", "--size", "5"]
        )
        assert code == 0
        assert report["by_size"] == {
            "5": [[2, 3, 4, 5, 7]],
        }
        assert report["complete_size"] == 5
        assert report["removed_isolated"] == []

    def test_weak_without_a_set_of_that_size(self, capsys):
        code, report, _ = run(
            capsys, ["independent-sets", "--file", SAMPLE7_PATH, "--mode", "weak", "--size", "6"]
        )
        assert code == 0
        assert report["by_size"] == {}
        assert report["complete_size"] == 6

    def test_weak_strips_isolated(self, capsys, monkeypatch):
        # vertex 2 is isolated; ids in the report refer to the original labels
        monkeypatch.setattr("sys.stdin", io.StringIO("4 2\n1 3\n3 4\n"))
        code, report, err = run(capsys, ["independent-sets", "--mode", "weak", "--size", "2"])
        assert code == 0
        assert "stripping isolated vertices [2]" in err
        assert report["removed_isolated"] == [2]
        assert report["by_size"]["2"] == [[1, 4]]

    def test_strong_mode(self, capsys):
        code, report, _ = run(
            capsys, ["independent-sets", "--file", SAMPLE7_PATH, "--mode", "strong", "--size", "2"]
        )
        assert code == 0
        assert [2, 6] in report["sets"]

    def test_k_independent_requires_k(self, capsys):
        code, _, err = run(
            capsys,
            ["independent-sets", "--file", SAMPLE7_PATH, "--mode", "k-independent", "--size", "2"],
        )
        assert code == 2
        assert "--k is required" in err

    def test_pairwise_adjacent(self, capsys):
        code, report, _ = run(
            capsys,
            ["independent-sets", "--file", SAMPLE7_PATH, "--mode", "pairwise-adjacent", "--size", "3"],
        )
        assert code == 0
        assert [1, 4, 5] in report["sets"]
        assert [4, 5, 6] in report["sets"]


class TestInput:
    def test_stdin_text(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(SAMPLE7_TEXT))
        code, report, _ = run(capsys, ["transversals"])
        assert code == 0
        assert report["tau"] == 2

    def test_stdin_json(self, capsys, monkeypatch):
        payload = json.dumps({"n": 2, "edges": [[1, 2]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, report, _ = run(capsys, ["transversals"])
        assert code == 0
        assert report["tau"] == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["transversals", "--file", "/nonexistent/x.hg"])
        assert code == 2
        assert "input error" in err

    def test_malformed_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n1 x\n"))
        code, _, err = run(capsys, ["transversals"])
        assert code == 2
        assert "input error" in err

    def test_json_nested_too_deeply(self, capsys, monkeypatch):
        depth = 200_000
        payload = '{"n": 1, "edges": ' + "[" * depth + "]" * depth + "}"
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, report, err = run(capsys, ["transversals"])
        assert (code, report) == (2, None)
        assert err.startswith("input error:")

    @pytest.mark.parametrize("vertex", [[2], "2", 2.0, True, None, {"v": 2}])
    def test_json_non_integer_vertex(self, capsys, monkeypatch, vertex):
        payload = json.dumps({"n": 3, "edges": [[1, vertex]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, report, err = run(capsys, ["transversals"])
        assert code == 2
        assert report is None
        assert "input error" in err


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["paths", "--file", SAMPLE7_PATH, "--from", "1", "--k", "2"])
        assert exc.value.code == 1

    def test_contract_violation_is_two(self, capsys):
        code, _, err = run(
            capsys, ["paths", "--file", SAMPLE7_PATH, "--from", "3", "--to", "3", "--k", "2"]
        )
        assert code == 2
        assert "input error" in err

    def test_budget_exceeded_is_three(self, capsys, monkeypatch):
        big = "\n".join(["11 1", "1 2"]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(big))
        code, _, err = run(
            capsys, ["oracle", "paths", "--from", "1", "--to", "2", "--k", "1"]
        )
        assert code == 3
        assert "budget exceeded" in err


class TestInputLimits:
    @pytest.mark.parametrize("use_file", [False, True])
    def test_input_past_the_limit_is_three(self, capsys, monkeypatch, tmp_path, use_file):
        monkeypatch.setattr("hyperzeon.hypergraph.MAX_INPUT_CHARS", 10)
        # 10 characters pass; one more is past the limit
        for text, expected in [("3 1\n1 2 3\n", 0), ("3 1\n1 2 3\n\n", 3)]:
            path = tmp_path / "in.hg"
            path.write_text(text, encoding="utf-8")
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            argv = ["transversals", "--file", str(path)] if use_file else ["transversals"]
            code, _, err = run(capsys, argv)
            assert code == expected
            if expected == 3:
                assert err.startswith("budget exceeded: input is longer than the limit of 10")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero device")
    def test_endless_file_is_three(self):
        done = subprocess.run(
            [sys.executable, "-m", "hyperzeon.cli", "transversals", "--file", "/dev/zero"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert done.returncode == 3
        assert done.stderr.startswith("budget exceeded:")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("use_file", [False, True])
    def test_small_input_reads_into_a_small_buffer(self, capsys, monkeypatch, tmp_path, use_file):
        # a buffered text stream sizes one read(n) by n, so the limit must not be one read
        text = "3 2\n1 2\n2 3\n"
        path = tmp_path / "in.hg"
        path.write_text(text, encoding="utf-8")
        argv = ["paths", "--from", "1", "--to", "3", "--k", "2"]
        if use_file:
            argv += ["--file", str(path)]
        peaks = []
        for _ in range(2):  # the first run loads the modules the command imports
            stdin = io.TextIOWrapper(io.BufferedReader(io.BytesIO(text.encode())), encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stdin)
            tracemalloc.start()
            try:
                code = main(argv)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            assert json.loads(capsys.readouterr().out)["records"]
        assert peaks[1] < 2**20

    @pytest.mark.parametrize("payload", [
        "1 1\n" + "x" * 10**6 + "\n",
        "x" * 10**6 + " 1\n",
        json.dumps({"n": 1, "edges": [["x" * 10**6]]}),
        json.dumps({"n": 1, "edges": [[1, 1] + [1] * 10**5]}),
    ], ids=["text-token", "text-header", "json-value", "json-edge"])
    def test_long_input_is_cut_in_the_error(self, capsys, monkeypatch, payload):
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, report, err = run(capsys, ["transversals"])
        assert (code, report) == (2, None)
        assert err.startswith("input error:")
        assert all(len(line.encode()) < 300 for line in err.splitlines())
        assert "..." in err


class TestOutput:
    ARGV = ["paths", "--file", SAMPLE7_PATH, "--from", "3", "--to", "4", "--k", "3"]

    def test_main_under_redirect_stdout(self):
        # a StringIO stdout has no write-through switch and must still work
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(self.ARGV) == 0
        assert len(json.loads(out.getvalue())["records"]) == 5
        assert out.getvalue().endswith("}\n")

    class CountingRaw(io.BytesIO):
        writes = 0

        def write(self, b):
            self.writes += 1
            return super().write(b)

    def run_write_through(self, argv):
        """Run ``main`` into a write-through text stream; the stream and its counting raw layer."""
        raw = self.CountingRaw()
        out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        with redirect_stdout(out):
            assert main(argv) == 0
        return out, raw

    def test_write_through_stdout_gets_one_write_per_chunk(self):
        text = io.StringIO()
        with redirect_stdout(text):
            main(self.ARGV)
        out, raw = self.run_write_through(self.ARGV)
        assert out.write_through
        assert raw.getvalue().decode() == text.getvalue()
        # one write per chunk of the report, not one per JSON token
        assert raw.writes <= 2

    def test_report_of_several_chunks(self, monkeypatch):
        # K9: 840 paths of 5 steps from 1 to 2, one record each
        text = "9 36\n" + "".join(f"{a} {b}\n" for a, b in combinations(range(1, 10), 2))
        argv = ["paths", "--from", "1", "--to", "2", "--k", "5"]
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        args = cli.build_parser().parse_args(argv)
        report = args.handler(args)
        records = report["records"]
        plain = {**report, "records": [dict(zip(records.fields, row)) for row in records.rows]}
        with monkeypatch.context() as m:
            m.setattr(cli, "_CHUNK_PARTS", float("inf"))  # no chunk is written early
            parts = []
            cli._encode(report, "\n", parts, None)
        pieces = len(parts) + 1  # and the closing newline
        chunks = -(-pieces // cli._CHUNK_PARTS)
        assert chunks > 2

        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        _, raw = self.run_write_through(argv)
        assert raw.getvalue().decode() == json.dumps(plain, indent=2) + "\n"
        assert raw.writes <= chunks + 1

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_gone_before_the_report(self, unbuffered):
        # the pipe's read end is closed before the child starts, so its first write fails
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "hyperzeon.cli", *self.ARGV],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert done.stderr.startswith("output error:")
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr

    def test_reader_gone_during_the_report(self, tmp_path):
        # the reader takes 10 bytes of a 0.4 MB report and closes its end
        path = tmp_path / "in.hg"
        path.write_text(random_input_text(0, 20, 30), encoding="utf-8")
        argv = ["paths", "--file", str(path), "--from", "1", "--to", "14", "--k", "5"]
        child = subprocess.Popen(
            [sys.executable, "-m", "hyperzeon.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
        )
        try:
            assert len(child.stdout.read(10)) == 10
            child.stdout.close()
            err = child.stderr.read().decode()
            assert child.wait(timeout=60) == 2
        finally:
            child.kill()
            child.wait()
            child.stderr.close()
        assert err == "output error: standard output closed early\n"
        assert "Traceback" not in err


# the path 1-2-3 with vertex 4 isolated
PATH4_TEXT = "4 2\n1 2\n2 3\n"


class TestOracleMirror:
    def test_matchings(self, capsys):
        code, report, _ = run(
            capsys, ["oracle", "matchings", "--file", SAMPLE7_PATH, "--k", "2", "--j", "0"]
        )
        assert code == 0
        assert report["edge_sets"] == [[1, 5], [1, 6], [2, 4], [2, 6], [3, 4]]

    def test_transversals(self, capsys):
        code, report, _ = run(capsys, ["oracle", "transversals", "--file", SAMPLE7_PATH])
        assert code == 0
        assert report == {"tau": 2, "transversals": [[1, 6]], "removed_isolated": []}

    def test_paths_agree_with_main(self, capsys):
        _, fast, _ = run(
            capsys, ["paths", "--file", SAMPLE7_PATH, "--from", "3", "--to", "4", "--k", "3"]
        )
        _, brute, _ = run(
            capsys, ["oracle", "paths", "--file", SAMPLE7_PATH, "--from", "3", "--to", "4", "--k", "3"]
        )
        assert fast["records"] == brute["records"]

    @pytest.mark.parametrize("text, argv", [
        ("3 1\n1 2 3\n", ["independent-sets", "--mode", "graph", "--size", "1"]),
        ("2 2\n1 2\n1 2\n", ["matchings", "--k", "1"]),
        (SAMPLE7_TEXT, ["paths", "--from", "1", "--to", "2", "--k", "0"]),
        (SAMPLE7_TEXT, ["trails", "--from", "1", "--to", "2", "--k", "0"]),
        (SAMPLE7_TEXT, ["paths", "--from", "1", "--to", "1", "--k", "2"]),
        (SAMPLE7_TEXT, ["matchings", "--k", "0"]),
        (SAMPLE7_TEXT, ["matchings", "--k", "0", "--j", "0"]),
        (SAMPLE7_TEXT, ["matchings", "--k", "2", "--j", "-1"]),
        (SAMPLE7_TEXT, ["matchings"]),
        (SAMPLE7_TEXT, ["matchings", "--j", "0"]),
        ("2 2\n1 2\n1 2\n", ["matchings", "--perfect"]),
        *((PATH4_TEXT if mode == "graph" else SAMPLE7_TEXT,
           ["independent-sets", "--mode", mode, "--size", "0", "--k", "1"])
          for mode in ("graph", "weak", "strong", "k-independent", "pairwise-adjacent")),
        (PATH4_TEXT, ["independent-sets", "--mode", "strong", "--size", "1"]),
        (PATH4_TEXT, ["independent-sets", "--mode", "k-independent", "--size", "1", "--k", "1"]),
    ], ids=[
        "graph-mode-wide-edge", "matchings-repeated-edge", "paths-k0", "trails-k0",
        "paths-closed", "matchings-k0", "matchings-k0-j0", "matchings-j-1", "matchings-no-k",
        "matchings-j-no-k", "perfect-repeated-edge", "graph-size0",
        "weak-size0", "strong-size0", "k-independent-size0", "pairwise-adjacent-size0",
        "strong-isolated", "k-independent-isolated",
    ])
    def test_rejects_what_the_command_rejects(self, capsys, monkeypatch, text, argv):
        for command in (argv, ["oracle", *argv]):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, report, err = run(capsys, command)
            assert (code, report) == (2, None), command
            assert err.startswith("input error:")


# a 5-cycle with vertex 6 isolated (graph mode gives it a loop)
GRAPH_TEXT = "6 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"
# K4 on 1..4, so the 2-matchings covering 1..4 count 3, plus a pendant edge and an isolated 6
MATCHING_TEXT = "6 7\n1 2\n3 4\n1 3\n2 4\n1 4\n2 3\n4 5\n"


class TestSetsMatchOracle:
    """Each set-valued subcommand prints the sets its ``oracle`` twin prints, in its order."""

    @staticmethod
    def both(capsys, tmp_path, text, argv):
        path = tmp_path / "in.hg"
        path.write_text(text, encoding="utf-8")
        fast = run(capsys, [argv[0], "--file", str(path), *argv[1:]])
        brute = run(capsys, ["oracle", argv[0], "--file", str(path), *argv[1:]])
        assert (fast[0], brute[0]) == (0, 0)
        return fast[1], brute[1]

    @pytest.mark.parametrize("text, argv", [
        (GRAPH_TEXT, ["--mode", "graph", "--size", "3"]),
        (GRAPH_TEXT, ["--mode", "graph", "--size", "2"]),
        (SAMPLE7_TEXT, ["--mode", "strong", "--size", "2"]),
        (SAMPLE7_TEXT, ["--mode", "k-independent", "--size", "4", "--k", "2"]),
        (SAMPLE7_TEXT, ["--mode", "pairwise-adjacent", "--size", "3"]),
        (MATCHING_TEXT, ["--mode", "pairwise-adjacent", "--size", "2"]),
    ], ids=["graph-3", "graph-2", "strong", "k-independent", "pairwise-adjacent", "pairwise-2"])
    def test_independent_sets(self, capsys, tmp_path, text, argv):
        fast, brute = self.both(capsys, tmp_path, text, ["independent-sets", *argv])
        assert fast["sets"]
        assert fast["sets"] == brute["sets"]

    @pytest.mark.parametrize("text, size", [(SAMPLE7_TEXT, 4), (SAMPLE7_TEXT, 5), (GRAPH_TEXT, 2)])
    def test_weak(self, capsys, tmp_path, text, size):
        fast, brute = self.both(
            capsys, tmp_path, text, ["independent-sets", "--mode", "weak", "--size", str(size)]
        )
        assert brute["sets"]
        assert fast["by_size"] == {str(size): brute["sets"]}

    @pytest.mark.parametrize("text", [SAMPLE7_TEXT, MATCHING_TEXT, GRAPH_TEXT])
    def test_j0_matchings(self, capsys, tmp_path, text):
        fast, brute = self.both(capsys, tmp_path, text, ["matchings", "--k", "2", "--j", "0"])
        assert fast["edge_sets"]
        assert fast["edge_sets"] == brute["edge_sets"]

    @pytest.mark.parametrize("text", [SAMPLE7_TEXT, MATCHING_TEXT, GRAPH_TEXT])
    def test_transversals(self, capsys, tmp_path, text):
        fast, brute = self.both(capsys, tmp_path, text, ["transversals"])
        assert fast == brute

    @pytest.mark.parametrize("text", [SAMPLE7_TEXT, MATCHING_TEXT])
    def test_k_matchings(self, capsys, tmp_path, text):
        fast, brute = self.both(capsys, tmp_path, text, ["matchings", "--k", "2"])
        edges = parse(text).edges
        unions = Counter(
            tuple(sorted(set().union(*(edges[i - 1] for i in ids)))) for ids in brute["edge_sets"]
        )
        assert fast["records"] == [
            {"vertices": list(vs), "count": c} for vs, c in sorted(unions.items())
        ]


class TestHarnessCommands:
    def test_conjecture_ryser(self, capsys, tmp_path):
        log = str(tmp_path / "r.ndjson")
        code, report, _ = run(
            capsys,
            ["conjecture", "ryser", "--trials", "5", "--seed", "3", "--max-n", "6", "--log", log],
        )
        assert code == 0
        assert report["kind"] == "ryser"
        assert report["trials"] == 5
        assert report["violations"] == 0
        assert report["log"] is None

    def test_conjecture_frankl(self, capsys, tmp_path):
        log = str(tmp_path / "f.ndjson")
        code, report, _ = run(
            capsys, ["conjecture", "frankl", "--trials", "5", "--seed", "3", "--log", log]
        )
        assert code == 0
        assert report["violations"] == 0

    @pytest.mark.parametrize("argv", [
        ["ryser", "--trials", "-5"],
        ["frankl", "--trials", "-1"],
        ["ryser", "--max-n", "0"],
        ["frankl", "--max-n", "0"],
        ["frankl", "--max-n", "-3"],
    ])
    def test_conjecture_rejects_bad_counts(self, capsys, tmp_path, argv):
        log = str(tmp_path / "v.ndjson")
        code, report, err = run(capsys, ["conjecture", *argv, "--log", log])
        assert (code, report) == (2, None)
        assert err.startswith(f"input error: {argv[1]} must be >= ")

    @pytest.mark.parametrize("which, check, flag", [
        ("ryser", "check_ryser", "bound_ok"),
        ("frankl", "check_frankl", "holds"),
    ])
    @pytest.mark.parametrize("max_n", [None, 4])
    def test_conjecture_draws_as_the_harness_does(
        self, capsys, tmp_path, monkeypatch, which, check, flag, max_n
    ):
        # every trial fails, so the logs record every draw; without --max-n the
        # command draws with the harness's own default size
        from hyperzeon import conjectures

        original = getattr(conjectures, check)
        monkeypatch.setattr(conjectures, check, lambda *a: original(*a)._replace(**{flag: False}))
        log, expected = tmp_path / "cli.ndjson", tmp_path / "lib.ndjson"
        limit = [] if max_n is None else ["--max-n", str(max_n)]
        code, report, _ = run(
            capsys, ["conjecture", which, "--trials", "6", "--seed", "5", *limit, "--log", str(log)]
        )
        run_trials = getattr(conjectures, f"run_{which}_trials")
        run_trials(6, 5, *([] if max_n is None else [max_n]), log_path=str(expected))
        assert (code, report["violations"]) == (0, 6)
        assert log.read_text() == expected.read_text()

    def test_conjecture_ryser_max_n_is_bounded(self, capsys, tmp_path):
        log = tmp_path / "v.ndjson"
        for trials in ("0", "3"):
            argv = ["conjecture", "ryser", "--trials", trials, "--max-n", "21", "--log", str(log)]
            code, report, err = run(capsys, argv)
            assert (code, report) == (3, None)
            assert err.startswith("budget exceeded: ")
        assert not log.exists()
        argv = ["conjecture", "ryser", "--trials", "3", "--max-n", "20", "--log", str(log)]
        code, report, _ = run(capsys, argv)
        assert (code, report["violations"]) == (0, 0)

    def test_conjecture_frankl_max_n_is_bounded(self, capsys, tmp_path, monkeypatch):
        # refused before the first trial, with the flag's value, not a drawn ground size
        from hyperzeon import conjectures

        def no_draw(*args):
            raise AssertionError("a trial ran")

        log = tmp_path / "v.ndjson"
        with monkeypatch.context() as patch:
            patch.setattr(conjectures, "generate_union_closed", no_draw)
            for trials in ("0", "50"):
                argv = ["conjecture", "frankl", "--trials", trials, "--max-n", "2000",
                        "--seed", "1", "--log", str(log)]
                code, report, err = run(capsys, argv)
                assert (code, report) == (3, None)
                assert err.startswith("budget exceeded: ") and "got 2000" in err
        assert not log.exists()
        argv = ["conjecture", "frankl", "--trials", "3", "--max-n", "1000", "--log", str(log)]
        code, report, _ = run(capsys, argv)
        assert (code, report["violations"]) == (0, 0)

    def test_conjecture_zero_trials(self, capsys, tmp_path):
        log = str(tmp_path / "v.ndjson")
        code, report, _ = run(capsys, ["conjecture", "ryser", "--trials", "0", "--log", log])
        assert code == 0
        assert (report["trials"], report["violations"]) == (0, 0)


def plain(value):
    """The report the writer renders, with each Records as the list of dicts it stands for."""
    if isinstance(value, Records):
        return [dict(zip(value.fields, map(plain, row))) for row in value.rows]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


INTS = st.one_of(st.integers(), st.sampled_from([-1, 0, 2**64, 2**64 + 1, -(2**70)]))
INT_TUPLES = st.lists(INTS, max_size=5).map(tuple)
STRINGS = st.one_of(
    st.text(max_size=8),
    st.text(st.sampled_from(['"', "\\", "/", "\n", "\x00", "é", "☃", "\U0001f600", "a"]), max_size=8),
)
SCALARS = st.one_of(st.none(), st.booleans(), INTS, INT_TUPLES, STRINGS)


@st.composite
def records(draw, values):
    fields = draw(st.lists(STRINGS, min_size=1, max_size=3, unique=True))
    rows = draw(st.lists(st.tuples(*[values for _ in fields]), max_size=6))
    return Records(tuple(fields), rows)


REPORTS = st.dictionaries(STRINGS, st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(STRINGS, inner, max_size=4),
        records(inner),
    ),
    max_leaves=24,
), max_size=6)


class _RawSink(io.RawIOBase):
    """A raw binary stream that keeps each write it receives."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(REPORTS)
    @example({"by_size": {}, "complete_size": 3, "removed_isolated": []})
    @example({"records": Records(("vertices", "edges", "count"), [((), (), 1), ((2,), (), 0)])})
    @example({"records": Records(("vertices", "count"), []), "sets": [(), (1, 2)]})
    @example({"tau": 0, "transversals": [[]], "log": 'a"b\\c\u00e9\u2603', "seed": -(2**65)})
    @example({"log": None, "ok": True, "bad": False, "nested": {"a": [{}, [], ()]}})
    def test_bytes_match_the_encoder(self, report):
        out = io.StringIO()
        _write_json(report, out)
        assert out.getvalue() == json.dumps(plain(report), indent=2) + "\n"

    def test_write_through_stream_gets_few_large_writes(self, monkeypatch):
        # K8: 360 five-step paths from 1 to 2, one record each
        pairs = [(u, v) for u in range(1, 9) for v in range(u + 1, 9)]
        text = f"8 {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
        raw = _RawSink()
        out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        monkeypatch.setattr("sys.stdout", out)
        assert main(["paths", "--from", "1", "--to", "2", "--k", "5"]) == 0
        assert out.write_through
        data = b"".join(raw.writes)
        report = json.loads(data)
        assert len(report["records"]) == 360
        assert data == (json.dumps(report, indent=2) + "\n").encode()
        assert len(data) > 8192
        assert len(raw.writes) <= len(data) // 8192 + 2
        # streamed: no single write carries the whole report
        assert max(map(len, raw.writes)) < len(data)


class TestOptimizedInterpreter:
    def test_same_stdout_under_dash_o(self):
        # -W error turns any warning the library raises into a traceback
        commands = [
            ["paths", "--from", "3", "--to", "4", "--k", "3"],
            ["matchings", "--k", "2"],
            ["matchings", "--perfect"],  # sample7 is not uniform
            ["transversals"],
            ["independent-sets", "--mode", "weak", "--size", "5"],
        ]
        for argv in commands:
            outputs = []
            for flags in ([], ["-O"], ["-W", "error"]):
                done = subprocess.run(
                    [sys.executable, *flags, "-m", "hyperzeon.cli", *argv, "--file", SAMPLE7_PATH],
                    capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
                )
                assert done.returncode == 0, done.stderr
                assert b"Traceback" not in done.stderr, (flags, argv)
                outputs.append(done.stdout)
            assert json.loads(outputs[0])
            assert outputs[0] == outputs[1] == outputs[2], argv


def loaded_after(imports: str, watched, then: str = "pass") -> list[str]:
    """The ``watched`` modules a fresh interpreter has loaded after ``import <imports>`` and ``then``."""
    probe = f"import sys, {imports}; {then}; print(*[m for m in {tuple(watched)!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    return done.stdout.split()


class TestImports:
    def test_no_module_loads_dataclasses(self):
        modules = ("cli", "walks", "independent_sets", "matchings", "transversals",
                   "conjectures", "oracle")
        imports = ", ".join(f"hyperzeon.{name}" for name in modules)
        assert loaded_after(imports, ("dataclasses", "inspect", "ast", "dis")) == []

    def test_no_module_loads_fractions(self):
        modules = ("cli", "walks", "independent_sets", "matchings", "transversals", "conjectures")
        imports = ", ".join(f"hyperzeon.{name}" for name in modules)
        assert loaded_after(imports, ("fractions", "decimal")) == []

    def test_cli_import_loads_no_harness_or_oracle(self):
        assert loaded_after("hyperzeon.cli", ("hyperzeon.conjectures", "hyperzeon.oracle")) == []

    @pytest.mark.parametrize("module", ["cli", "walks", "independent_sets", "matchings", "transversals"])
    def test_enumerators_load_no_value_types(self, module):
        # the enumerators run on the packed kernel; Element and the matrix API stay unloaded
        assert loaded_after(f"hyperzeon.{module}", ("hyperzeon.algebra",)) == []

    def test_ryser_trials_load_no_value_types(self):
        then = "assert hyperzeon.conjectures.run_ryser_trials(3, 0)['violations'] == 0"
        assert loaded_after("hyperzeon.conjectures", ("hyperzeon.algebra",), then) == []

    def test_frankl_trials_load_no_walks_or_oracle(self):
        # check_frankl uses Element only; the matrix API imports walks' rows
        # and row loop where it runs
        then = "hyperzeon.conjectures.run_frankl_trials(3, 0)"
        watched = ("hyperzeon.algebra", "hyperzeon.walks", "hyperzeon.oracle")
        assert loaded_after("hyperzeon.conjectures", watched, then) == ["hyperzeon.algebra"]

    def test_kernel_generators_load_the_value_type(self):
        then = "assert str(hyperzeon.kernel.Signature.zeons(2).gen(0)) == 'ζ1'"
        assert loaded_after("hyperzeon.kernel", ("hyperzeon.algebra",), then) == ["hyperzeon.algebra"]

    def test_public_names_resolve(self):
        for name in hyperzeon.__all__:
            assert getattr(hyperzeon, name).__module__.startswith("hyperzeon.")
        assert set(hyperzeon.__all__) <= set(dir(hyperzeon))
        with pytest.raises(AttributeError):
            hyperzeon.no_such_name  # noqa: B018

    def test_readme_counts_the_public_names(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        counts = re.findall(r"lists\s+the\s+(\d+)\s+public\s+names", readme)
        assert counts == [str(len(hyperzeon.__all__))]


def test_readme_quick_start_shows_its_output():
    # each `print(expr)  # text` or `expr  # text` line of README's python
    # blocks shows what it prints or evaluates to; "..." marks a partial view
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    shown = []
    for block in blocks:
        lines, namespace = block.encode().splitlines(), {}
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with redirect_stdout(out):
                if isinstance(stmt, ast.Expr):
                    value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                else:
                    exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].decode().strip()
            if not isinstance(stmt, ast.Expr) or not comment.startswith("#") or "..." in comment:
                continue
            printed = isinstance(stmt.value, ast.Call) and getattr(stmt.value.func, "id", None) == "print"
            text = out.getvalue().rstrip("\n") if printed else repr(value)
            assert text == comment[1:].strip()
            shown.append(text)
    assert {"ν2^2 + 4·ν{1,2}", "ε2 + 16·ε6 - 8·ε{2,6}", "(2, [(1, 6)])"} <= set(shown)
