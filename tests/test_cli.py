"""End-to-end command behavior: reports, exit codes, input handling."""

import io
import json
from contextlib import redirect_stdout

import pytest

from conftest import DATA, SAMPLE7_TEXT
from hyperzeon.cli import main

SAMPLE7_PATH = str(DATA / "sample7.hg")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


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

    def test_weak_independent_sets(self, capsys):
        code, report, _ = run(
            capsys, ["independent-sets", "--file", SAMPLE7_PATH, "--mode", "weak", "--size", "5"]
        )
        assert code == 0
        assert report["by_size"] == {
            "3": [[2, 5, 7], [2, 6, 7]],
            "4": [[2, 3, 5, 7], [2, 4, 5, 7]],
            "5": [[2, 3, 4, 5, 7]],
        }
        assert report["complete_size"] == 5
        assert report["removed_isolated"] == []

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


class TestOutput:
    ARGV = ["paths", "--file", SAMPLE7_PATH, "--from", "3", "--to", "4", "--k", "3"]

    def test_main_under_redirect_stdout(self):
        # a StringIO stdout has no write-through switch and must still work
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(self.ARGV) == 0
        assert len(json.loads(out.getvalue())["records"]) == 5
        assert out.getvalue().endswith("}\n")

    def test_write_through_stdout_is_buffered_and_restored(self):
        class CountingRaw(io.BytesIO):
            writes = 0

            def write(self, b):
                self.writes += 1
                return super().write(b)

        text = io.StringIO()
        with redirect_stdout(text):
            main(self.ARGV)
        raw = CountingRaw()
        out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        with redirect_stdout(out):
            assert main(self.ARGV) == 0
        assert out.write_through
        assert raw.getvalue().decode() == text.getvalue()
        # one write per chunk of the report, not one per JSON token
        assert raw.writes <= 2


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
        assert report == {"tau": 2, "transversals": [[1, 6]]}

    def test_paths_agree_with_main(self, capsys):
        _, fast, _ = run(
            capsys, ["paths", "--file", SAMPLE7_PATH, "--from", "3", "--to", "4", "--k", "3"]
        )
        _, brute, _ = run(
            capsys, ["oracle", "paths", "--file", SAMPLE7_PATH, "--from", "3", "--to", "4", "--k", "3"]
        )
        assert fast["records"] == brute["records"]


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
