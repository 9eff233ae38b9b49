"""Checks of the committed benchmark records, BENCH_<n>.json at the repo
root: each holds the parent's and the change's untraced record of every
workload that BENCHMARK.json names, with no failed op on either side and
the same exchange count per op on both."""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    WORKLOADS = [w["name"] for w in json.load(_f)["workloads"]]


@pytest.fixture(params=RECORDS, ids=os.path.basename)
def record(request):
    with open(request.param) as f:
        return json.load(f)


def test_records_are_committed():
    assert RECORDS


def test_both_sides_ran_every_workload(record):
    for side in ("parent", "change"):
        records = record[side]["records"]
        assert set(WORKLOADS) <= set(records), side
        assert record[side]["result"]["failed"] == 0, side
        for workload in WORKLOADS:
            result = records[workload]
            assert result["failed"] == 0, (side, workload)
            assert result["metrics"]["ok_op_ratio"] == 1, (side, workload)


def test_exchanges_per_op_match(record):
    for workload in WORKLOADS:
        assert record["parent"]["records"][workload]["metrics"][
            "exchanges_per_op"] == record["change"]["records"][workload][
            "metrics"]["exchanges_per_op"], workload
