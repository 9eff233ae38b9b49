"""Self-checks of the benchmark: smoke runs and determinism of its counts.

    python3 -m pytest -q bench/test_bench.py

Each run is a separate interpreter with a tiny op count (``--ops``), so
the whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("poll", "bulkwalk", "v3_authpriv")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run(workload, seed, trace, ops):
    child = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--ops", str(ops)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def _counts(result):
    """The metrics that count work: exact for a given seed and commit."""
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    return {name: m["value"] for name, m in result["metrics"].items()
            if units[name] == "count"
            or name == "agent.instances_enumerated_per_varbind"}


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload_once(trace):
    result = _run("all", 1, trace, 1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in WORKLOADS:
        got = {name.split(".", 1)[1]: m for name, m in
               result["metrics"].items() if name.startswith(workload + ".")}
        assert {n: m["unit"] for n, m in got.items()} == \
            {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_per_seed(workload):
    first, again, other = (_run(workload, seed, 0, 2) for seed in (7, 7, 8))
    assert first["metrics"]["exchanges_per_op"] == \
        again["metrics"]["exchanges_per_op"] == \
        other["metrics"]["exchanges_per_op"]

    first, again, other = (_counts(_run(workload, seed, 1, 2))
                           for seed in (7, 7, 8))
    assert first == again
    # another seed moves only what the loss pattern moves
    first.pop("transport.retransmits_per_op")
    other.pop("transport.retransmits_per_op")
    assert first == other


def test_layer_map_names_every_per_layer_metric():
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        layers = json.load(f)
    mapped = [m for layer in layers.values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    names = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for layer in layers.values():
        for move in layer["moves"]:
            assert move["metric"] in names
            assert set(move["workloads"]) <= workloads


def test_fails_without_the_source(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, it must fail."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "poll", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert child.returncode != 0
    assert child.stdout == ""
