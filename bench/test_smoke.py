"""Tests of the benchmark's own code: span arithmetic, wrapping, the host
speed gauge, and a tiny run of every workload in both modes.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Recorder  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args, timeout=180):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_self_time_subtracts_direct_children():
    rec = Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    leaf = rec.open("leaf")
    rec.close(leaf)
    rec.close(inner)
    rec.close(outer)
    # fix the clock readings so the arithmetic is exact
    for i, (a, b) in enumerate([(0.0, 10.0), (1.0, 7.0), (2.0, 3.0)]):
        rec.start[i], rec.end[i] = a, b
    table = rec.by_root()[outer]
    assert table["outer"] == [1, 10.0, 4.0]
    assert table["inner"] == [1, 6.0, 5.0]
    assert table["leaf"] == [1, 1.0, 1.0]
    assert sum(row[2] for row in table.values()) == 10.0
    assert rec.durations("leaf") == {outer: [1.0]}


def test_patch_records_calls_and_restore_puts_originals_back():
    class Owner:
        @staticmethod
        def double(x):
            return 2 * x

    original = Owner.double
    rec = Recorder()
    seen = []
    rec.patch(Owner, "double", "owner.double", lambda result, args, kwargs, s: seen.append((args, result)))
    table = {"k": 1}
    rec.replace(table, "k", 2)
    assert Owner.double(21) == 42
    assert seen == [((21,), 42)]
    assert [rec.names[i] for i in rec.name] == ["owner.double"]
    rec.restore()
    assert Owner.double is original and table == {"k": 1}


def test_wrapped_exception_closes_its_span():
    rec = Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap(boom, "boom")()
    assert len(rec) == 1 and rec.end[0] >= rec.start[0]
    rec.clear()
    assert len(rec) == 0


def test_gauge_samples_on_its_interval_and_normalizes_each_latency_by_its_neighbours():
    from gauge import NOMINAL_S, Gauge
    from run import local_latency

    g = Gauge(interval=3600.0)
    g.sample()
    g.tick()  # the interval has not passed
    assert len(g.samples) == 1 and g.spent == g.samples[0]
    assert g.slowdown() == pytest.approx(g.samples[0] / NOMINAL_S)

    samples = array("d", [NOMINAL_S, 3 * NOMINAL_S, 2 * NOMINAL_S])
    # the first latency lies between samples 0 and 1 (slowdown 2), the second
    # after the last sample (slowdown 2 as well)
    assert local_latency(array("d", [4.0, 4.0]), array("i", [1, 3]), samples) == pytest.approx([2.0, 2.0])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(REPO, "--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1, proc.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    printed = [line.split()[0] for line in proc.stdout.splitlines()[:-1]]
    assert all(m["name"] in printed for m in expected)
    if not trace:
        assert all(m["value"] > 0 for m in summary["metrics"].values()), summary["metrics"]
        assert "events_per_s" in printed and "ops_failed_share" in printed


def test_inject_queries_follow_the_seed():
    def verdict_record(seed):
        proc = run_bench(REPO, "--workload", "inject", "--seed", str(seed), "--seconds", "0.1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        return json.loads((BENCH / "_out" / f"result-inject-smoke-seed{seed}-trace0.json").read_text())

    first = verdict_record(11)
    assert first["seed"] == 11
    assert verdict_record(11)["queries_sha256"] == first["queries_sha256"]
    assert verdict_record(12)["queries_sha256"] != first["queries_sha256"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "inject", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
