"""Smoke test of the end-to-end benchmark at ``--smoke`` sizes.

Not part of tier-1 (its ``testpaths`` is ``tests/``); run it by path::

    python3 -m pytest --confcutdir=benchmarks/e2e benchmarks/e2e/test_e2e.py

``--confcutdir`` keeps ``benchmarks/conftest.py``, which rewrites
``benchmarks/results.txt`` at session start, out of this session.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
RUN = HERE / "run.py"


def _spec() -> dict:
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _copy_benchmark(root: Path) -> Path:
    """A copy of the benchmark's files under ``root``; its run.py."""
    shutil.copy(REPO / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root / "benchmarks" / "e2e" / "run.py"


def _run(out_dir: Path, *args: str, run: Path = RUN
         ) -> tuple[str, dict, dict]:
    """One smoke invocation: (stdout, last JSON line, --json report)."""
    report_path = out_dir / "report.json"
    proc = subprocess.run(
        [sys.executable, str(run), "--smoke", "--seed", "0",
         "--seconds", "0", "--json", str(report_path), *args],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.stdout, last, json.loads(report_path.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("traced"), "--trace", "1")


def _check_metrics(stdout: str, last: dict, metrics: list[dict]) -> None:
    assert last["correct"] and last["failed"] == 0, stdout
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    workloads = [w["name"] for w in _spec()["workloads"]]
    for workload in workloads:
        for metric in metrics:
            entry = last["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
    for metric in metrics:
        assert any(line.split()[:1] == [metric["name"]]
                   and metric["unit"] in line.split()
                   for line in stdout.splitlines()), metric["name"]
    names = {key.split(".", 1)[1] for key in last["metrics"]}
    assert names == {metric["name"] for metric in metrics}


def test_every_end_to_end_metric_printed_with_unit(untraced):
    stdout, last, _ = untraced
    _check_metrics(stdout, last, _spec()["end_to_end"])


def test_every_layer_metric_printed_with_unit(traced):
    stdout, last, _ = traced
    _check_metrics(stdout, last, _spec()["per_layer"])


def test_counters_identical_across_runs(untraced, traced):
    first, second = untraced[2]["workloads"], traced[2]["workloads"]
    assert first.keys() == second.keys()
    for workload in first:
        assert first[workload]["counters"] == second[workload]["counters"]


def test_corrupted_golden_fails_every_rep(tmp_path):
    run = _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(REPO / "src", target_is_directory=True)
    golden_path = run.parent / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["smoke"]["cold-flat"]["0"] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    _, last, report = _run(tmp_path, "--workload", "cold-flat", run=run)
    assert not last["correct"]
    assert last["failed"] == last["attempted"] >= 1
    assert report["workloads"]["cold-flat"]["failed_ratio"] == 1.0


def test_exits_nonzero_without_sources(tmp_path):
    _copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold-flat",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
