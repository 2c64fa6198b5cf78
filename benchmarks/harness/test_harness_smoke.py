"""Smoke test of the benchmark harness on the tiny preset (5x5 grid, 250 trajectories).

Every workload runs untraced and traced through the command line the
driver uses; every metric BENCHMARK.json names is printed with a finite
value; no operation fails; the named layers account for the traced wall.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent
ROOT = HARNESS.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """All eight (workload, trace) runs, started together: ``{(name, trace): final}``."""
    out = tmp_path_factory.mktemp("harness")
    processes = {
        (workload, trace): subprocess.Popen(
            [sys.executable] + BENCHMARK["command"][1:]
            + ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--preset", "tiny", "--out", str(out)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for workload in WORKLOADS
        for trace in (0, 1)
    }
    finals = {}
    for key, process in processes.items():
        stdout, stderr = process.communicate(timeout=180)
        assert process.returncode == 0, (key, stdout[-2000:], stderr[-2000:])
        finals[key] = json.loads(stdout.splitlines()[-1])
    return out, finals


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_every_metric(runs, trace, section):
    out, finals = runs
    expected = {spec["name"]: spec["unit"] for spec in BENCHMARK[section]}
    for workload in WORKLOADS:
        final = finals[workload, trace]
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
        assert set(final["metrics"]) == set(expected), workload
        for name, entry in final["metrics"].items():
            assert NAME.fullmatch(name)
            assert entry["unit"] == expected[name]
            assert math.isfinite(entry["value"]), (workload, name)
        if trace:
            share = final["metrics"]["bench.layer_sum_share"]["value"]
            assert 0.9 <= share <= 1.1, (workload, share)
            assert (out / f"trace_{workload}.jsonl").stat().st_size > 0
        else:
            assert all(entry["value"] != 0 for entry in final["metrics"].values()), workload


def test_a_set_of_runs_compares_same_with_itself(runs):
    out, _finals = runs
    completed = subprocess.run(
        [sys.executable, str(HARNESS / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, timeout=30,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    verdicts = [line.split()[-2] for line in completed.stdout.splitlines()[1:]]
    assert len(verdicts) == len(WORKLOADS) * len(BENCHMARK["end_to_end"])
    assert set(verdicts) == {"same"}


def test_refuses_to_run_without_the_repository(tmp_path):
    """A directory holding only BENCHMARK.json and the harness: non-zero, no result."""
    (tmp_path / "benchmarks").mkdir()
    for source in HARNESS.glob("*.py"):
        target = tmp_path / "benchmarks" / "harness" / source.name
        target.parent.mkdir(exist_ok=True)
        target.write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, "benchmarks/harness/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
