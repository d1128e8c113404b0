"""The hyperzeon benchmark: seeded CLI workloads, end-to-end metrics and a per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload walks|powers|ryser|all --seed N --seconds S --trace 0|1

Every invocation is one fresh `python -m hyperzeon.cli` process (the package
keeps lru_caches, so repeating calls inside one process would time cache
hits), started by perfbench/spawner.py one at a time on the files this script
writes under .perfbench_work/.  Each run makes one untimed warm pass,
cross-checks small companion instances against `hyperzeon oracle`, then repeats
timed passes for S seconds, checking every output.  With --trace 0 it reports
end-to-end metrics; with --trace 1 it follows each untraced invocation with the
same invocation under perfbench/tracer.py and reports per-layer metrics.  The
last line of stdout is one JSON object; the exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
TRACER = HERE / "tracer.py"
SPAWNER = HERE / "spawner.py"
CLI = [sys.executable, "-m", "hyperzeon.cli"]

MIN_PASSES = 3
SETUP_PER_PASS = 4
TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER = {
    "algebra.mul_s": "s", "algebra.mul_calls": "count", "algebra.pair_ns": "ns",
    "algebra.mul_pairs": "count", "algebra.mul_terms": "count", "algebra.mul_yield": "ratio",
    "algebra.add_s": "s", "algebra.add_calls": "count", "algebra.pow_calls": "count",
    "algebra.peak_terms": "count",
    "walks.build_s": "s", "walks.self_s": "s",
    "independent_sets.build_s": "s", "independent_sets.self_s": "s",
    "matchings.build_s": "s", "matchings.self_s": "s",
    "transversals.build_s": "s", "transversals.self_s": "s",
    "conjectures.gen_s": "s", "conjectures.self_s": "s",
    "hypergraph.parse_s": "s",
    "cli.json_s": "s", "cli.json_bytes": "bytes", "cli.other_s": "s",
    "trace.overhead_frac": "ratio",
}
# per-layer counts that a traced run must reproduce exactly
COUNTS = (
    "algebra.mul_calls", "algebra.mul_pairs", "algebra.mul_terms", "algebra.add_calls",
    "algebra.pow_calls", "algebra.peak_terms", "cli.json_bytes",
)


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    stdout_sha256: str
    problems: list


class Runner:
    """Runs one process at a time through spawner.py, checks its output and counts failures.

    ``expected`` holds recorded digests by invocation label: under "stdout" the
    sha256 of the raw stdout (default seed only), under "canonical" the digest
    of the seed-independent form (every seed).  Either may be absent.
    """

    def __init__(self, workdir: Path, expected: dict):
        self.workdir = workdir
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.absent: set[str] = set()
        self.spawner = subprocess.Popen(
            [sys.executable, str(SPAWNER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=TIMEOUT_S)

    def spawn(self, cmd: list) -> tuple[dict, bytes, bytes]:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        request = {
            "argv": cmd, "cwd": str(self.workdir), "env": dict(os.environ, PYTHONPATH=str(SRC)),
            "stdout": str(out_path), "stderr": str(err_path), "timeout": TIMEOUT_S,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited")
        return json.loads(reply), out_path.read_bytes(), err_path.read_bytes()

    def run(self, inv: W.Invocation, prefix: list, digest=True) -> tuple[Sample, dict | None]:
        argv = list(inv.argv)
        if inv.instance is not None:
            argv += ["--file", inv.instance.name]
        result, stdout, stderr = self.spawn(prefix + argv)
        problems, report = [], None
        if result["code"] != 0:
            problems.append(f"exit {result['code']}: {stderr.decode(errors='replace').strip()[-300:]}")
        else:
            try:
                report = json.loads(stdout)
            except ValueError:
                problems.append("stdout is not one JSON document")
        if report is not None:
            try:
                problems += inv.check(report)
                if digest:
                    problems += self.compare(inv, stdout, report)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems.append(f"malformed report: {exc!r}")
        self.record(inv.label, problems)
        sample = Sample(result["wall"], result["cpu"], result["maxrss_kib"] / 1024, W.sha256(stdout), problems)
        return sample, report

    def compare(self, inv: W.Invocation, stdout: bytes, report: dict) -> list:
        digests = {"stdout": lambda: inv.digest(stdout), "canonical": lambda: inv.canonical_digest(report)}
        problems = []
        for kind, recorded in self.expected.items():
            want, got = recorded.get(inv.label), digests[kind]()
            if got != want:
                problems.append(f"{kind} digest {got[:16]} != recorded {str(want)[:16]}")
        return problems

    def record(self, label: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def fail(self, label: str, problem: str):
        """A check on an invocation already recorded as attempted."""
        self.failed += 1
        self.problems.append(f"{label}: {problem}")

    def untraced(self, inv) -> Sample:
        return self.run(inv, CLI)[0]

    def traced(self, inv):
        stats_path = self.workdir / "trace.json"
        stats_path.unlink(missing_ok=True)
        sample = self.run(inv, [sys.executable, str(TRACER), str(stats_path)])[0]
        stats = json.loads(stats_path.read_text()) if stats_path.exists() else None
        if stats is None and not sample.problems:
            self.fail(inv.label, "tracer wrote no stats")
        return sample, stats

    def companion(self, comp: W.Companion):
        inv = W.Invocation(comp.label, comp.argv, comp.instance, lambda r: [])
        oracle = W.Invocation(f"oracle {comp.label}", comp.oracle_argv, comp.instance, lambda r: [])
        (_, ours), (_, theirs) = self.run(inv, CLI, digest=False), self.run(oracle, CLI, digest=False)
        if ours is not None and theirs is not None and not comp.agree(ours, theirs):
            self.fail(comp.label, f"disagrees with hyperzeon oracle on {comp.instance.name}")


def _median_sum(samples: dict, field: str) -> float:
    return sum(statistics.median(getattr(s, field) for s in group) for group in samples.values())


def _layer_values(stats: dict, wall: float) -> dict:
    self_s, counts = stats["self_s"], stats["counts"]
    values = {f"{key}_s": self_s.get(key, 0.0) for key in (
        "algebra.mul", "algebra.add", "walks.build", "walks.self",
        "independent_sets.build", "independent_sets.self", "matchings.build", "matchings.self",
        "transversals.build", "transversals.self", "conjectures.gen", "conjectures.self",
        "hypergraph.parse", "cli.json",
    )}
    values.update({name: counts.get(name, 0) for name in COUNTS})
    values["cli.other_s"] = wall - stats["top_s"]
    return values


def _traced(runner: Runner, inv: W.Invocation, untraced: Sample, counts_seen: dict):
    """One traced run of ``inv``: (sample, layer values), or None when it failed a check."""
    sample, stats = runner.traced(inv)
    if sample.problems or stats is None:
        return None
    if sample.stdout_sha256 != untraced.stdout_sha256:
        runner.fail(inv.label, "traced stdout differs from untraced stdout")
        return None
    values = _layer_values(stats, sample.wall)
    counts = {name: values[name] for name in COUNTS}
    if counts_seen.setdefault(inv.label, counts) != counts:
        runner.fail(inv.label, "trace counts changed between passes")
        return None
    runner.absent.update(stats["absent"])
    return sample, values


def measure(workload: W.Workload, seconds: float, trace: bool, runner: Runner) -> dict:
    for inv in workload.invocations + [workload.setup]:  # warm pass: .pyc files and page cache
        runner.untraced(inv)
    for comp in workload.companions:
        runner.companion(comp)

    plain = {inv.label: [] for inv in workload.invocations}
    traced = {inv.label: [] for inv in workload.invocations}
    layer_passes, counts_seen, setup_walls = [], {}, []
    start, passes = time.perf_counter(), 0
    while True:
        pass_start = time.perf_counter()
        layer_pass, traced_ok = {}, 0
        for inv in workload.invocations:
            sample = runner.untraced(inv)
            if not sample.problems:
                plain[inv.label].append(sample)
            if trace and not sample.problems and (got := _traced(runner, inv, sample, counts_seen)):
                traced[inv.label].append(got[0])
                traced_ok += 1
                for name, value in got[1].items():
                    layer_pass[name] = layer_pass.get(name, 0) + value
        for _ in range(0 if trace else SETUP_PER_PASS):
            setup = runner.untraced(workload.setup)
            if not setup.problems:
                setup_walls.append(setup.wall)
        if trace and traced_ok == len(workload.invocations):
            layer_passes.append(layer_pass)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed + (time.perf_counter() - pass_start) > seconds:
            break

    for hook in sorted(runner.absent):
        print(f"absent hook {hook}")
    for inv in workload.invocations:
        walls = " ".join(f"{s.wall:.4f}" for s in plain[inv.label])
        print(f"invocation {inv.label!r}: {len(plain[inv.label])} ok samples, wall s {walls}")
    if setup_walls:
        print(f"setup: {len(setup_walls)} ok samples, wall s " + " ".join(f"{w:.4f}" for w in setup_walls))
    if not all(plain.values()) or (trace and not layer_passes) or (not trace and not setup_walls):
        return {}
    if not trace:
        return {
            "wall_s": _median_sum(plain, "wall"),
            "cpu_s": _median_sum(plain, "cpu"),
            "peak_rss_mb": max(statistics.median(s.rss_mb for s in group) for group in plain.values()),
            "setup_s": statistics.median(setup_walls),
        }
    layers = {name: statistics.median(p[name] for p in layer_passes) for name in layer_passes[0]}
    layers.update({name: layer_passes[0][name] for name in COUNTS})
    mul_pairs = layers["algebra.mul_pairs"]
    layers["algebra.pair_ns"] = layers["algebra.mul_s"] / mul_pairs * 1e9 if mul_pairs else 0.0
    layers["algebra.mul_yield"] = layers["algebra.mul_terms"] / mul_pairs if mul_pairs else 0.0
    plain_wall = _median_sum(plain, "wall")
    layers["trace.overhead_frac"] = (_median_sum(traced, "wall") - plain_wall) / plain_wall
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=W.SIZES, expected=None) -> dict:
    """One run of one workload; returns the result object the last stdout line carries.

    ``expected`` is as in ``Runner``.  Without it, at the full sizes, the
    canonical digests in expected.json apply, and at the default seed its
    stdout and instance digests too.
    """
    workload = W.build(name, seed, sizes)
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    instances = W.write_instances(workload, workdir)
    print(f"workload {name} seed {seed}")
    for file, digest in sorted(instances.items()):
        print(f"instance {file} sha256 {digest}")

    problems = []
    if expected is None and sizes == W.SIZES:
        recorded = json.loads(EXPECTED.read_text())
        expected = {"canonical": recorded["canonical"][name]}
        if seed == recorded["seed"]:
            expected["stdout"] = recorded["stdout"][name]
            for file, digest in instances.items():
                if recorded["instances"].get(file) != digest:
                    problems.append(f"instance {file} differs from the recorded one")
    with Runner(workdir, expected or {}) as runner:
        values = measure(workload, seconds, trace, runner)
    problems += runner.problems
    for p in problems:
        print(f"FAILED {p}")
    units = PER_LAYER if trace else END_TO_END
    correct = not problems and bool(values)
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items() if k in values}
    failed_frac = runner.failed / max(runner.attempted, 1)
    for k, m in metrics.items():
        print(f"metric {name} {k} {m['value']:.6g} {m['unit']}")
    print(f"metric {name} failed_frac {failed_frac:.6g} ratio ({runner.failed}/{runner.attempted})")
    return {"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperzeon" / "cli.py").is_file():
        print(f"hyperzeon sources not found under {SRC}", file=sys.stderr)
        return 2
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
