"""Algebraic invariants are explicit checks that hold under ``python -O``."""

import ast
import io
from pathlib import Path

import pytest

from hyperzeon.cli import main
from hyperzeon.errors import InvariantError
from hyperzeon.hypergraph import Hypergraph
from hyperzeon.matchings import k_matchings

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperzeon"


def test_no_assert_statements_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_bad_factorial_coefficient_raises_and_exits_two(monkeypatch, capsys):
    h = Hypergraph(4, [{1, 2}, {3, 4}])
    assert k_matchings(h, 2) == [(frozenset({1, 2, 3, 4}), 1)]
    monkeypatch.setattr("hyperzeon.matchings.factorial", lambda k: 7)
    with pytest.raises(InvariantError, match="not divisible"):
        k_matchings(h, 2)
    monkeypatch.setattr("sys.stdin", io.StringIO("4 2\n1 2\n3 4\n"))
    assert main(["matchings", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
