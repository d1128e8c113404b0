"""Empirical checkers for two matching/covering conjectures, stated algebraically.

The first bounds the transversal number of an r-uniform r-partite hypergraph
by (r-1) times the matching number, with both sides read off edge and vertex
blades: the matching number ν is the deepest non-empty level of the subset
products of the incidence element's edge blades (the paper's nilpotency index
of that element, minus one), and the transversal number is the first level of
the subset products of the transversal factors that carries the full edge
blade (equivalently, the first such power of σ, or the minimal grade of the
sum of annihilating blades, :func:`gamma_element`).  The second says a
union-closed family has an element in at least half its sets; per vertex,
multiplying the incidence element by that vertex's generator and taking the
scalar sum counts the edges missing it, so the claim becomes the existence of
a vertex whose product's scalar sum is at most half the family size.  Random
instance generators plus an append-only violation log make the checks
repeatable; the expected violation count is zero.  A failed internal identity
(kernel/degree agreement) raises InvariantError.
"""

from __future__ import annotations

import json
import random
from typing import TYPE_CHECKING, NamedTuple

from .errors import BudgetError, InvariantError
from .hypergraph import MAX_SIZE, Hypergraph, to_json_dict
from .kernel import subset_products
from .matchings import incidence_representation, incidence_terms
from .transversals import transversal_number

if TYPE_CHECKING:
    from .algebra import Element

GAMMA_MAX_N = 20
# Largest max_n of run_ryser_trials: each trial enumerates every matching
# level, and the transversal levels up to tau, which keep only vertex sets that
# can still meet every edge; both grow exponentially with n.
RYSER_MAX_N = 20


def gamma_element(h: Hypergraph) -> Element:
    """Sum of every square-free vertex blade that multiplies the incidence element to zero.

    A blade annihilates it exactly when the blade's vertex set meets every
    edge, so the minimal grade equals the transversal number; that equivalence
    is a tested invariant, and this function stays honest by running the 2^n
    kernel multiplications rather than a hitting-set scan.
    """
    from .algebra import Element, annihilates

    if h.n > GAMMA_MAX_N:
        raise BudgetError(f"gamma scan is 2^n; limited to n <= {GAMMA_MAX_N}, got {h.n}")
    gamma = incidence_representation(h)
    terms = {}
    for bits in range(2**h.n):
        gids = tuple(g for g in range(h.n) if bits >> g & 1)
        if annihilates(gids, gamma):
            terms[gamma.signature.mask([g + 1 for g in gids], 0)] = 1
    return Element.from_packed(gamma.signature, terms)


class RyserReport(NamedTuple):
    r: int
    matching_number: int
    transversal_number: int
    bound_ok: bool


class FranklReport(NamedTuple):
    m: int
    best_vertex: int
    best_count: int
    holds: bool


def check_ryser(h: Hypergraph, r: int, partition) -> RyserReport:
    """Test transversal number <= (r-1) * matching number on an r-uniform r-partite input.

    The matching number is the deepest non-empty level of the subset products
    of the incidence element's edge blades.  The transversal number is the
    first level of the transversal factors' subset products that carries the
    full edge blade (it equals the minimal grade of :func:`gamma_element`).
    """
    if not h.is_r_uniform(r):
        raise ValueError(f"hypergraph is not {r}-uniform")
    if not h.is_r_partite(r, partition):
        raise ValueError(f"partition is not a valid {r}-partition")
    sig, gamma = incidence_terms(h)
    matching = max((j for j, _ in subset_products(sig, gamma)), default=0)
    tau = transversal_number(h)
    return RyserReport(r, matching, tau, tau <= (r - 1) * matching)


def check_frankl(h: Hypergraph) -> FranklReport:
    """Test that some vertex lies in at least half the edges of a union-closed family.

    Every vertex's count is evaluated twice, through the kernel product and
    through the degree identity (edges missing v = m - degree(v)); the two
    routes must agree exactly.
    """
    if not h.is_union_closed():
        raise ValueError("edge family is not closed under unions")
    if h.m == 0:
        raise ValueError("needs at least one edge")
    gamma = incidence_representation(h)
    best_vertex, best_missing = None, None
    for v in range(1, h.n + 1):
        missing = (gamma.signature.gen(v - 1) * gamma).scalar_sum()
        if missing != h.m - h.degree(v):
            raise InvariantError(f"kernel/degree mismatch at vertex {v}")
        if best_missing is None or missing < best_missing:
            best_vertex, best_missing = v, missing
    best_count = h.m - best_missing
    return FranklReport(h.m, best_vertex, best_count, 2 * best_count >= h.m)


# -- instance generators --------------------------------------------------------


def ryser_partition(r: int, part_size: int) -> list[list[int]]:
    """Consecutive blocks of part_size vertices, one block per part."""
    return [
        list(range(p * part_size + 1, (p + 1) * part_size + 1)) for p in range(r)
    ]


def generate_ryser_instance(r: int, part_size: int, edge_count: int, seed) -> Hypergraph:
    """A random r-uniform r-partite hypergraph with distinct edges, one vertex per part.

    Deterministic for a fixed seed; vertices of part p are the p-th block of
    ryser_partition(r, part_size).
    """
    if r < 1 or part_size < 1 or edge_count < 1:
        raise ValueError("r, part_size and edge_count must be >= 1")
    space = part_size**r
    if space > 10**6:
        raise BudgetError(f"edge space {part_size}^{r} too large to sample")
    if edge_count > space:
        raise ValueError(f"cannot pick {edge_count} distinct edges from {space}")
    # draw indices into the edge space in lexicographic order: base-part_size
    # digit p of an index, most significant first, picks the vertex of part p
    edges = [
        [p * part_size + index // part_size ** (r - 1 - p) % part_size + 1 for p in range(r)]
        for index in random.Random(seed).sample(range(space), edge_count)
    ]
    return Hypergraph(r * part_size, edges)


def generate_union_closed(ground_size: int, seed_count: int, seed) -> Hypergraph:
    """Close random seed sets under pairwise unions (fixpoint), deterministically.

    The closure of s seeds has at most 2^s - 1 members (unions of nonempty
    seed subfamilies); MAX_SIZE members is a hard stop for safety.
    """
    if ground_size < 1 or seed_count < 1:
        raise ValueError("ground_size and seed_count must be >= 1")
    if ground_size > MAX_SIZE:
        raise BudgetError(f"ground size {ground_size} exceeds the limit of {MAX_SIZE}")
    rng = random.Random(seed)
    family = set()
    for _ in range(seed_count):
        mask = rng.randrange(1, 2**ground_size)
        family.add(frozenset(v + 1 for v in range(ground_size) if mask >> v & 1))
    new = set(family)
    while new:
        # only a pair with a member added last round can give a new union
        new = {a | b for a in family for b in new} - family
        family |= new
        if len(family) > MAX_SIZE:
            raise BudgetError(f"union closure exceeded {MAX_SIZE} edges")
    edges = sorted(family, key=lambda e: (len(e), sorted(e)))
    return Hypergraph(ground_size, edges)


# -- randomized harness -----------------------------------------------------------


def append_violation(path: str, record: dict):
    """Append one JSON line; violations are persisted, never silently dropped."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _run_trials(kind: str, trials: int, seed, log_path: str | None, trial_of) -> dict:
    """Run ``trials`` seeded trials and log each failure; returns a summary dict.

    ``trial_of(master)`` draws one instance from the master generator and
    checks it, returning ``(ok, draw, h, report)``: ``draw`` maps the draw
    parameters to their values for the violation record.
    """
    master = random.Random(seed)
    violations = 0
    for trial in range(trials):
        ok, draw, h, report = trial_of(master)
        if not ok:
            violations += 1
            if log_path:
                append_violation(
                    log_path,
                    {"kind": kind, "trial": trial, **draw,
                     "hypergraph": to_json_dict(h), "report": report._asdict()},
                )
    return {"kind": kind, "trials": trials, "violations": violations}


def run_ryser_trials(trials: int, seed, max_n: int = 12, log_path: str | None = None) -> dict:
    """Check seeded random instances with r in {2, 3}; returns a summary dict.

    A ``max_n`` above RYSER_MAX_N raises BudgetError before the first trial.
    """
    if max_n > RYSER_MAX_N:
        raise BudgetError(f"ryser trials are limited to max_n <= {RYSER_MAX_N}, got {max_n}")

    def trial_of(master):
        r = master.choice([2, 3])
        part_size = master.randint(1, max(1, max_n // r))
        edge_count = master.randint(1, min(part_size**r, 3 * part_size))
        inst_seed = master.randrange(2**32)
        h = generate_ryser_instance(r, part_size, edge_count, inst_seed)
        report = check_ryser(h, r, ryser_partition(r, part_size))
        return report.bound_ok, {"r": r, "part_size": part_size, "seed": inst_seed}, h, report

    return _run_trials("ryser", trials, seed, log_path, trial_of)


def run_frankl_trials(trials: int, seed, max_ground: int = 8, log_path: str | None = None) -> dict:
    """Check seeded random union-closed families; returns a summary dict.

    A ``max_ground`` above hypergraph.MAX_SIZE raises BudgetError before the
    first trial, as no ground set may exceed it.
    """
    if max_ground > MAX_SIZE:
        raise BudgetError(f"frankl trials are limited to max_ground <= {MAX_SIZE}, got {max_ground}")

    def trial_of(master):
        ground = master.randint(1, max_ground)
        seed_count = master.randint(1, 4)
        inst_seed = master.randrange(2**32)
        h = generate_union_closed(ground, seed_count, inst_seed)
        report = check_frankl(h)
        draw = {"ground": ground, "seed_count": seed_count, "seed": inst_seed}
        return report.holds, draw, h, report

    return _run_trials("frankl", trials, seed, log_path, trial_of)
