"""Seeded instances, the invocations of each workload and the checks on their outputs.

Everything here is stdlib-only and never imports the program: the benchmark
sees hyperzeon only through files it writes and the argv it passes.

Timed instances are random base hypergraphs, drawn once from fixed base seeds,
that the run seed relabels (a vertex permutation and an edge order).  Every
seed therefore gives different input files of the same size and shape, so the
spread between runs measures the machine, not the luck of the draw.  Mapped
back to the base instance's ids, every seed's output must equal the recorded
one (see ``Invocation.canon``).  The ``ryser`` workload has no input file; its
seed picks the harness seed from a pool whose trial mixes cost about the same
(see ``RYSER_SEEDS``).  The small companion instances that are cross-checked
against ``hyperzeon oracle`` are drawn fresh from the run seed, except ryser's,
which are instances the harness itself checks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

# Harness seeds for `conjecture ryser --trials 100` (max-n 12) whose trial mixes
# cost within a few percent of each other.  The harness draws its own instances,
# and over 100 trials its cost varies about 3x between seeds.
RYSER_SEEDS = (3, 6, 31, 50, 57)

# Seeds of the random base instances that every run seed relabels.
BASE_SEEDS = {"walks": 4, "weak": 4, "matchings": 0, "transversals": 1}

# Full sizes give passes of a few seconds each; TINY is for the self-test.
# walks: n, m, (paths k, cycles k, trails k); weak: n, m, size; matchings: n, m, k;
# transversals: n, m; ryser: harness trials.
SIZES = {
    "walks": (20, 30, (5, 4, 4)),
    "weak": (16, 16, 8),
    "matchings": (24, 40, 5),
    "transversals": (16, 24),
    "ryser": 100,
}
TINY = {
    "walks": (8, 10, (3, 3, 3)),
    "weak": (8, 8, 3),
    "matchings": (9, 8, 2),
    "transversals": (8, 8),
    "ryser": 5,
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


# -- instance generation --------------------------------------------------------


def random_hypergraph(rng, n, m, sizes=(2, 4), *, distinct=False, isolate_free=False):
    """m random edges on vertices 1..n, each of a size drawn from ``sizes`` (inclusive).

    ``distinct`` rejects repeated edges (k-matchings exit 2 on them) and
    ``isolate_free`` redraws until every vertex lies in an edge (the weak and
    strong modes exit 2 on isolated vertices).
    """
    while True:
        edges, seen = [], set()
        while len(edges) < m:
            e = frozenset(rng.sample(range(1, n + 1), rng.randint(*sizes)))
            if distinct and e in seen:
                continue
            seen.add(e)
            edges.append(sorted(e))
        if not isolate_free or {v for e in edges for v in e} == set(range(1, n + 1)):
            return n, edges


def relabel(name, n, edges, rng) -> Instance:
    """An isomorphic copy of ``edges``: vertices permuted, edges reordered, with maps back."""
    image = list(range(1, n + 1))
    rng.shuffle(image)
    order = list(range(len(edges)))
    rng.shuffle(order)
    out = [sorted(image[v - 1] for v in edges[i]) for i in order]
    back_v = {image[v - 1]: v for v in range(1, n + 1)}
    back_e = {j + 1: i + 1 for j, i in enumerate(order)}
    return Instance(name, n, out, back_v, back_e)


def ryser_trial_instances(harness_seed, trials, max_n=12):
    """(n, edges) of each instance that `conjecture ryser --seed harness_seed` checks.

    This mirrors the draws of conjectures.run_ryser_trials and
    generate_ryser_instance.  Should the program change its draws, these are
    still r-uniform r-partite instances with distinct edges.
    """
    master = random.Random(harness_seed)
    for _ in range(trials):
        r = master.choice([2, 3])
        part = master.randint(1, max(1, max_n // r))
        count = master.randint(1, min(part**r, 3 * part))
        rng = random.Random(master.randrange(2**32))
        choices = rng.sample(sorted(itertools.product(range(part), repeat=r)), count)
        yield r * part, [[p * part + c + 1 for p, c in enumerate(choice)] for choice in choices]


def _minimum_transversal_count(n, edges) -> int:
    """How many minimum vertex sets meet every edge, by brute force over all 2^n sets."""
    masks = [sum(1 << (v - 1) for v in e) for e in edges]
    by_size = Counter(bin(s).count("1") for s in range(1 << n) if all(s & m for m in masks))
    return by_size[min(by_size)]


def emit(n, edges) -> str:
    """The program's text format: a header `n m`, then one line of vertex ids per edge."""
    return f"{n} {len(edges)}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)


# -- invocations and their checks -------------------------------------------------


@dataclass
class Instance:
    """An input file; ``back_v``/``back_e`` map a relabelled copy's ids to its base instance's."""

    name: str
    n: int
    edges: list
    back_v: dict | None = None
    back_e: dict | None = None

    @property
    def text(self) -> str:
        return emit(self.n, self.edges)

    def base_vertices(self, vs) -> list:
        return sorted(self.back_v[v] for v in vs)

    def base_edges(self, es) -> list:
        return sorted(self.back_e[e] for e in es)


@dataclass
class Invocation:
    """One `hyperzeon` process: its argv (without --file), input and output checks.

    ``check`` returns a list of problems with a parsed report (empty when it
    holds).  ``digest`` maps the raw stdout to the value compared against the
    recorded digest at the default seed.  ``canon`` maps a report to a form
    that does not depend on the seed (base instance ids, sorted); its digest is
    compared against the recorded one at every seed.
    """

    label: str
    argv: list
    instance: Instance | None
    check: Callable[[dict], list]
    digest: Callable[[bytes], str] = sha256
    canon: Callable[[dict], object] = lambda report: report

    def canonical_digest(self, report: dict) -> str:
        return sha256(canonical(self.canon(report)))


@dataclass
class Companion:
    """A small instance run through a subcommand and its `hyperzeon oracle` twin."""

    label: str
    argv: list
    oracle_argv: list
    instance: Instance
    agree: Callable[[dict, dict], bool]


@dataclass
class Workload:
    """Timed invocations, the oracle companions, and the trivial invocation timed as set-up."""

    name: str
    invocations: list
    companions: list
    setup: Invocation

    def instances(self) -> list:
        seen = {}
        for inv in self.invocations + self.companions + [self.setup]:
            if inv.instance is not None:
                seen[inv.instance.name] = inv.instance
        return list(seen.values())


def _problems(cond_msgs):
    return [msg for ok, msg in cond_msgs if not ok]


def _walk_check(kind, k, src, dst):
    def check(report):
        probs = _problems([
            (report.get("kind") == kind, f"kind is {report.get('kind')!r}"),
            (bool(report.get("records")), "no records"),
        ])
        for r in report.get("records", []):
            vs, es = set(r["vertices"]), set(r["edges"])
            if kind == "paths":
                ok = len(vs) == k + 1 and src in vs and dst in vs
            elif kind == "cycles":
                ok = len(vs) == k and src in vs
            else:
                ok = len(es) == k and src in vs
            if not ok or r["count"] < 1:
                probs.append(f"bad {kind} record {r}")
                break
        return probs

    return check


def _weak_digest(stdout: bytes) -> str:
    # only the complete size is covered: smaller by_size entries may be dropped on purpose
    report = json.loads(stdout)
    return sha256(canonical(report["by_size"][str(report["complete_size"])]))


def _weak_check(inst, size):
    edges = [frozenset(e) for e in inst.edges]

    def check(report):
        sets = report.get("by_size", {}).get(str(size))
        if not sets:
            return [f"no weak independent {size}-set"]
        for s in sets:
            s = frozenset(s)
            if len(s) != size or any(e <= s for e in edges):
                return [f"set {sorted(s)} is not a weak independent {size}-set"]
        return []

    return check


def _matchings_check(r, k):
    def check(report):
        if not report.get("records"):
            return ["no records"]
        for rec in report["records"]:
            if len(rec["vertices"]) != r * k or rec["count"] < 1:
                return [f"bad matching record {rec}"]
        return []

    return check


def _transversal_check(inst):
    edges = [frozenset(e) for e in inst.edges]

    def check(report):
        tau = report.get("tau")
        for t in report.get("transversals", []):
            if len(t) != tau or not all(e & set(t) for e in edges):
                return [f"{t} is not a transversal of size tau={tau}"]
        return [] if report.get("transversals") else ["no transversal reported"]

    return check


def _ryser_check(trials):
    def check(report):
        return _problems([
            (report.get("trials") == trials, f"trials {report.get('trials')} != {trials}"),
            (report.get("violations") == 0, f"{report.get('violations')} Ryser violations"),
        ])

    return check


# -- seed-independent forms: every id mapped back to the base instance, sorted ---


def _sorted(items):
    return sorted(items, key=canonical)


def _walk_canon(inst):
    return lambda report: _sorted(
        {"vertices": inst.base_vertices(r["vertices"]), "edges": inst.base_edges(r["edges"]), "count": r["count"]}
        for r in report["records"]
    )


def _weak_canon(inst):
    # like the stdout digest, only the complete size is covered
    return lambda report: _sorted(inst.base_vertices(s) for s in report["by_size"][str(report["complete_size"])])


def _matchings_canon(inst):
    return lambda report: _sorted(
        {"vertices": inst.base_vertices(r["vertices"]), "count": r["count"]} for r in report["records"]
    )


def _transversal_canon(inst):
    return lambda report: {
        "tau": report["tau"],
        "transversals": _sorted(inst.base_vertices(t) for t in report["transversals"]),
        "removed_isolated": inst.base_vertices(report["removed_isolated"]),
    }


# -- agreement with `hyperzeon oracle` ------------------------------------------------


def _same_records(a, b):
    return sorted(map(canonical, a["records"])) == sorted(map(canonical, b["records"]))


def _same_weak(size):
    return lambda a, b: sorted(a["by_size"].get(str(size), [])) == sorted(b["sets"])


def _same_matchings(inst):
    def agree(a, b):
        unions = Counter(
            tuple(sorted(v for i in ids for v in inst.edges[i - 1])) for ids in b["edge_sets"]
        )
        return {tuple(r["vertices"]): r["count"] for r in a["records"]} == dict(unions)

    return agree


def _same_transversals(a, b):
    return a["tau"] == b["tau"] and sorted(a["transversals"]) == sorted(b["transversals"])


def _endpoints(rng, edges):
    """Two distinct vertices of one edge, so paths, cycles and trails exist."""
    e = rng.choice([e for e in edges if len(e) >= 2])
    a, b = rng.sample(e, 2)
    return a, b


def _walk_invocations(src, dst, ks):
    s, d = str(src), str(dst)
    pk, ck, tk = ks
    return [
        ("paths", ["paths", "--from", s, "--to", d, "--k", str(pk)], _walk_check("paths", pk, src, dst)),
        ("cycles", ["cycles", "--at", s, "--k", str(ck)], _walk_check("cycles", ck, src, dst)),
        ("trails", ["trails", "--from", s, "--to", d, "--k", str(tk)], _walk_check("trails", tk, src, dst)),
    ]


def build(name: str, seed: int, sizes=SIZES) -> Workload:
    """The workload ``name`` for run seed ``seed``; same seed, same files and argv."""
    rng = random.Random(f"{name}:{seed}")
    comp_rng = random.Random(f"{name}:companion:{seed}")
    if name == "walks":
        n, m, ks = sizes["walks"]
        base_rng = random.Random(BASE_SEEDS["walks"])
        _, base = random_hypergraph(base_rng, n, m)
        a, b = _endpoints(base_rng, base)
        inst = relabel("walks.hg", n, base, rng)
        image = {v: u for u, v in inst.back_v.items()}
        invs = [
            Invocation(f"{kind} k={argv[-1]}", argv, inst, check, canon=_walk_canon(inst))
            for kind, argv, check in _walk_invocations(image[a], image[b], ks)
        ]
        cn, cedges = random_hypergraph(comp_rng, 8, 10, (2, 3))
        ca, cb = _endpoints(comp_rng, cedges)
        comp = Instance("walks-companion.hg", cn, cedges)
        comps = [
            Companion(f"{kind} k=3", argv, ["oracle"] + argv, comp, _same_records)
            for kind, argv, _ in _walk_invocations(ca, cb, (3, 3, 3))
        ]
        return Workload(name, invs, comps, setup_invocation(seed))
    if name == "powers":
        wn, wm, wsize = sizes["weak"]
        mn, mm, mk = sizes["matchings"]
        tn, tm = sizes["transversals"]
        _, wedges = random_hypergraph(random.Random(BASE_SEEDS["weak"]), wn, wm, isolate_free=True)
        _, medges = random_hypergraph(
            random.Random(BASE_SEEDS["matchings"]), mn, mm, (3, 3), distinct=True
        )
        _, tedges = random_hypergraph(random.Random(BASE_SEEDS["transversals"]), tn, tm)
        weak = relabel("weak.hg", wn, wedges, rng)
        match = relabel("matchings.hg", mn, medges, rng)
        trans = relabel("transversals.hg", tn, tedges, rng)
        weak_argv = ["independent-sets", "--mode", "weak", "--size", str(wsize)]
        invs = [
            Invocation(f"weak size={wsize}", weak_argv, weak, _weak_check(weak, wsize), _weak_digest,
                       _weak_canon(weak)),
            Invocation(f"matchings k={mk}", ["matchings", "--k", str(mk)], match, _matchings_check(3, mk),
                       canon=_matchings_canon(match)),
            Invocation("transversals", ["transversals"], trans, _transversal_check(trans),
                       canon=_transversal_canon(trans)),
        ]
        cw = Instance("weak-companion.hg", *random_hypergraph(comp_rng, 9, 9, isolate_free=True))
        cm = Instance("matchings-companion.hg", *random_hypergraph(comp_rng, 9, 10, (2, 3), distinct=True))
        ct = Instance("transversals-companion.hg", *random_hypergraph(comp_rng, 9, 10))
        weak4 = ["independent-sets", "--mode", "weak", "--size", "4"]
        comps = [
            Companion("weak size=4", weak4, ["oracle"] + weak4, cw, _same_weak(4)),
            Companion("matchings k=2", ["matchings", "--k", "2"], ["oracle", "matchings", "--k", "2"],
                      cm, _same_matchings(cm)),
            Companion("transversals", ["transversals"], ["oracle", "transversals"], ct, _same_transversals),
        ]
        return Workload(name, invs, comps, setup_invocation(seed))
    if name == "ryser":
        trials = sizes["ryser"]
        harness_seed = RYSER_SEEDS[seed % len(RYSER_SEEDS)]
        argv = ["conjecture", "ryser", "--trials", str(trials), "--seed", str(harness_seed)]
        # the harness prints no tau or nu, and its output depends only on the harness
        # seed, so its recorded digest is keyed by it
        invs = [Invocation(f"ryser trials={trials} seed={harness_seed}", argv, None, _ryser_check(trials))]
        # the harness has no oracle twin: cross-check the pruned transversal search
        # and the matchings it times on two instances it checks that the oracle
        # accepts (n, m <= 10), those with the most minimum transversals, where a
        # wrong prune has the most to lose
        drawn = sorted(
            ((n, edges) for n, edges in ryser_trial_instances(harness_seed, trials) if n <= 10 and len(edges) <= 10),
            key=lambda d: (_minimum_transversal_count(*d), len(d[1]), d[0]),
        )
        comps = []
        for i, (n, edges) in enumerate(drawn[-2:]):
            inst = Instance(f"ryser-companion-{i}.hg", n, edges)
            comps += [
                Companion(f"transversals --prune #{i}", ["transversals", "--prune"], ["oracle", "transversals"],
                          inst, _same_transversals),
                Companion(f"matchings k=2 #{i}", ["matchings", "--k", "2"], ["oracle", "matchings", "--k", "2"],
                          inst, _same_matchings(inst)),
            ]
        return Workload(name, invs, comps, setup_invocation(seed))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("walks", "powers", "ryser")


def setup_invocation(seed: int) -> Invocation:
    """`paths --k 1` on a relabelled 3-vertex path: interpreter start, import, argparse and parse."""
    inst = relabel("setup.hg", 3, [[1, 2], [2, 3]], random.Random(f"setup:{seed}"))
    image = {v: u for u, v in inst.back_v.items()}
    a, b = image[1], image[2]
    argv = ["paths", "--from", str(a), "--to", str(b), "--k", "1"]
    return Invocation("setup", argv, inst, _walk_check("paths", 1, a, b), canon=_walk_canon(inst))


def write_instances(workload: Workload, workdir: Path) -> dict:
    """Write every input file and return {file name: sha256 of its bytes}."""
    digests = {}
    for inst in workload.instances():
        data = inst.text.encode()
        (workdir / inst.name).write_bytes(data)
        digests[inst.name] = sha256(data)
    return digests
