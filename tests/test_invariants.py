"""Algebraic invariants are explicit checks that hold under ``python -O``."""

import ast
import io
from pathlib import Path

import pytest

from hyperzeon import independent_sets, transversals, walks
from hyperzeon.cli import main
from hyperzeon.conjectures import check_frankl
from hyperzeon.errors import InvariantError
from hyperzeon.hypergraph import Hypergraph
from hyperzeon.independent_sets import graph_independent_sets
from hyperzeon.kernel import Signature
from hyperzeon.transversals import minimum_transversals
from hyperzeon.walks import WalkRecord, k_cycles, k_paths, k_trails

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperzeon"


def test_no_assert_statements_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _scoped_nodes():
    """(dotted enclosing scope, node) for every AST node of the package, e.g. ("walks._adjacency", call)."""
    for path in sorted(SRC.glob("*.py")):
        stack = [([path.stem], ast.parse(path.read_text(encoding="utf-8")))]
        while stack:
            scope, node = stack.pop()
            yield ".".join(scope), node
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = [*scope, node.name]
            stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def _called(node) -> str | None:
    """The called name of a call node (``f`` of ``f(...)`` and of ``x.f(...)``), else None."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return None


def test_mul_into_has_one_call_site_per_product_layer():
    # the public algebra, the walk and matrix products, and the subset levels
    sites = [scope for scope, node in _scoped_nodes() if _called(node) == "mul_into"]
    assert sorted(sites) == [
        "algebra.Element.__mul__",
        "kernel.subset_products",
        "walks._row_times_matrix",
    ]


def test_one_function_reads_the_bit_table():
    # Signature.support is the one reader of a key's bit layout: every id an
    # enumerator reports comes through it
    readers = {
        scope
        for scope, node in _scoped_nodes()
        if isinstance(node, ast.Attribute) and node.attr == "_bit_gid" and isinstance(node.ctx, ast.Load)
    }
    assert readers == {"kernel.Signature.support"}


def test_only_kernel_reads_the_signature_layout():
    # part masks and block ranges come from Signature.mask and blocks, so no
    # other module depends on how Signature lays its fields out
    private = {name for name in Signature.__slots__ if name.startswith("_")}
    assert private == {"_shifts", "_bit_gid", "_idem", "_bias", "_guard"}
    readers = {
        scope
        for scope, node in _scoped_nodes()
        if isinstance(node, ast.Attribute) and node.attr in private and isinstance(node.ctx, ast.Load)
        and not scope.startswith("kernel.")
    }
    assert readers == set()


def test_tuple_monomials_are_encoded_only_by_the_element_constructor():
    # any reference to .encode, so an alias such as `encode = sig.encode` counts too
    users = {scope for scope, node in _scoped_nodes() if isinstance(node, ast.Attribute) and node.attr == "encode"}
    assert users == {"algebra.Element.__init__"}


ENUMERATORS = ("walks", "independent_sets", "matchings", "transversals")


def test_enumerators_write_every_key_by_block():
    # Signature.mask(ids, block) is the one block-aware writer: no enumerator
    # adds a block start to an id or makes an id 0-based to build a key
    calls = [
        (scope, node)
        for scope, node in _scoped_nodes()
        if _called(node) == "mask" and scope.split(".")[0] in ENUMERATORS
    ]
    assert {scope.split(".")[0] for scope, _ in calls} == set(ENUMERATORS)
    unblocked = [scope for scope, node in calls if len(node.args) + len(node.keywords) != 2]
    assert unblocked == []


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

    def doubled(signature, factors, depth=None, target=0):
        for j, level in real(signature, factors, depth, target):
            yield j, {key: 2 * c for key, c in level.items()}

    monkeypatch.setattr(transversals, "subset_products", doubled)
    with pytest.raises(InvariantError, match="coefficient 2 at level 1"):
        minimum_transversals(h)
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n1 2\n2 3\n"))
    assert main(["transversals"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


def test_bad_walk_records_raise_and_exit_two(monkeypatch, capsys):
    h = Hypergraph(3, [[1, 2], [2, 3]])
    checks = {
        "path": lambda: k_paths(h, 1, 3, 2),
        "cycle": lambda: k_cycles(h, 1, 2),
        "trail": lambda: k_trails(h, 1, 3, 2),
    }
    for check in checks.values():
        check()
    # one vertex and one edge: too few for a 2-step record of any shape
    monkeypatch.setattr(walks, "_extract_records", lambda sig, entry: [WalkRecord((1,), (1,), 1)])
    for shape, check in checks.items():
        with pytest.raises(InvariantError, match=f"{shape} record"):
            check()
    monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n1 2\n2 3\n"))
    assert main(["paths", "--from", "1", "--to", "3", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: path record")


def test_repeated_index_set_raises():
    sig = Signature.zeons(2) + Signature.idempotents(2, "x")
    x1 = sig.mask((1,), 1)
    distinct = {sig.mask((1,), 0) | x1: 1, sig.mask((2,), 0) | sig.mask((2,), 1): 1}
    assert independent_sets.index_sets(sig, distinct, 1) == [(1,), (2,)]
    # two keys that differ only in their edge labels read the same vertex set
    repeated = {sig.mask((1,), 0) | x1: 1, sig.mask((2,), 0) | x1: 1}
    with pytest.raises(InvariantError, match="appeared twice at level 1"):
        independent_sets.index_sets(sig, repeated, 1)


def test_no_transversal_found_raises(monkeypatch):
    h = Hypergraph(3, [{1, 2}, {2, 3}])

    def empty_levels(signature, factors, depth=None, target=0):
        yield 1, {}

    monkeypatch.setattr(transversals, "subset_products", empty_levels)
    with pytest.raises(InvariantError, match="no transversal found"):
        minimum_transversals(h)


def test_kernel_degree_mismatch_raises_and_exits_two(monkeypatch, capsys, tmp_path):
    h = Hypergraph(3, [{1}, {1, 2}, {1, 2, 3}])
    assert check_frankl(h).holds
    real = Hypergraph.degree

    def off_by_one(self, v):
        # the degree identity no longer agrees with the kernel's count
        return real(self, v) + 1

    monkeypatch.setattr(Hypergraph, "degree", off_by_one)
    with pytest.raises(InvariantError, match="kernel/degree mismatch at vertex 1"):
        check_frankl(h)
    monkeypatch.chdir(tmp_path)
    assert main(["conjecture", "frankl", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: kernel/degree mismatch")
    assert list(tmp_path.iterdir()) == []
