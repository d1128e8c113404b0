"""Self-test of the benchmark: tiny workloads, metric names and units, and the digest gate.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as W  # noqa: E402


def _tiny(name, trace, expected=None):
    return run.run_workload(name, seed=1, seconds=0.1, trace=trace, sizes=W.TINY, expected=expected)


@pytest.mark.parametrize("name", W.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace):
    result = _tiny(name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_trace_counts_repeat_exactly():
    first, second = _tiny("walks", True), _tiny("walks", True)
    for name in run.COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["algebra.add_calls"]["value"] > 0


@pytest.mark.parametrize("name", W.WORKLOADS)
@pytest.mark.parametrize("kind", ["stdout", "canonical"])
def test_corrupted_digest_fails_the_run(name, kind):
    labels = [inv.label for inv in W.build(name, 1, W.TINY).invocations] + ["setup"]
    result = _tiny(name, False, expected={kind: {label: "0" * 64 for label in labels}})
    assert not result["correct"]
    assert result["failed"] > 0


def test_recorded_digests_cover_every_invocation():
    recorded = json.loads(run.EXPECTED.read_text())
    for name in W.WORKLOADS:
        labels = {inv.label for inv in W.build(name, W.DEFAULT_SEED).invocations} | {"setup"}
        assert set(recorded["stdout"][name]) == labels
        # canonical digests apply at every seed; ryser's are keyed by the harness seed
        every_seed = {inv.label for s in range(len(W.RYSER_SEEDS)) for inv in W.build(name, s).invocations}
        assert set(recorded["canonical"][name]) == every_seed | {"setup"}


def test_relabelled_outputs_map_back_to_the_same_form():
    walk = {"records": [{"vertices": [1, 2, 3], "edges": [1, 2], "count": 2}]}
    forms = set()
    for seed in range(3):
        inv = W.build("walks", seed, W.TINY).invocations[0]
        image = {base: v for v, base in inv.instance.back_v.items()}
        edge_image = {base: e for e, base in inv.instance.back_e.items()}
        report = {"records": [
            {"vertices": sorted(image[v] for v in r["vertices"]),
             "edges": sorted(edge_image[e] for e in r["edges"]), "count": r["count"]}
            for r in walk["records"]
        ]}
        forms.add(inv.canonical_digest(report))
    assert len(forms) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
