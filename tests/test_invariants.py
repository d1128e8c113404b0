"""Algebraic invariants are explicit checks that hold under ``python -O``."""

import ast
import io
from pathlib import Path

import pytest

from hyperzeon import independent_sets, transversals
from hyperzeon.cli import main
from hyperzeon.errors import InvariantError
from hyperzeon.hypergraph import Hypergraph
from hyperzeon.independent_sets import graph_independent_sets
from hyperzeon.transversals import minimum_transversals

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperzeon"


def test_no_assert_statements_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_mul_into_has_one_call_site_per_product_layer():
    # the public algebra, the walk and matrix products, and the subset levels
    sites = []
    for path in sorted(SRC.glob("*.py")):

        def visit(node, scope):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "mul_into":
                    sites.append(".".join(scope))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = [*scope, node.name]
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    assert sorted(sites) == [
        "algebra.Element.__mul__",
        "algebra.subset_products",
        "walks._row_times_matrix",
    ]


def test_one_function_reads_the_bit_table():
    # Signature.support is the one reader of a key's bit layout: every id an
    # enumerator reports comes through it
    readers = []
    for path in sorted(SRC.glob("*.py")):

        def visit(node, scope):
            if isinstance(node, ast.Attribute) and node.attr == "_bit_gid" and isinstance(node.ctx, ast.Load):
                readers.append(".".join(scope))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = [*scope, node.name]
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    assert sorted(set(readers)) == ["algebra.Signature.support"]


def test_bad_level_coefficient_raises_and_exits_two(monkeypatch, capsys):
    h = Hypergraph(4, [{1, 2}, {3, 4}])
    assert graph_independent_sets(h, 2) == [(1, 3), (1, 4), (2, 3), (2, 4)]
    real = independent_sets.subset_level

    def doubled(signature, factors, k):
        # every subset counted twice, as a k-th power would without its k! division
        return {key: 2 * c for key, c in real(signature, factors, k).items()}

    monkeypatch.setattr(independent_sets, "subset_level", doubled)
    with pytest.raises(InvariantError, match="coefficient 2 at level 2"):
        graph_independent_sets(h, 2)
    monkeypatch.setattr("sys.stdin", io.StringIO("4 2\n1 2\n3 4\n"))
    assert main(["independent-sets", "--mode", "graph", "--size", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


def test_bad_transversal_level_coefficient_raises_and_exits_two(monkeypatch, capsys):
    h = Hypergraph(3, [{1, 2}, {2, 3}])
    assert minimum_transversals(h) == (1, [(2,)])
    real = transversals.subset_products

    def doubled(signature, factors, depth=None):
        for j, level in real(signature, factors, depth):
            yield j, {key: 2 * c for key, c in level.items()}

    monkeypatch.setattr(transversals, "subset_products", doubled)
    with pytest.raises(InvariantError, match="coefficient 2 at level 1"):
        minimum_transversals(h)
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n1 2\n2 3\n"))
    assert main(["transversals"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
