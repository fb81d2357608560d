"""Fast self-test of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from gen import generate
from workloads import WORKLOADS, tiny

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _contents(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    w = tiny(WORKLOADS[name])
    generate(w, 7, tmp_path / "a")
    generate(w, 7, tmp_path / "b")
    generate(w, 8, tmp_path / "c")
    first = _contents(tmp_path / "a")
    assert set(first) == {"scores.csv", "truth.csv", "split_counts.csv", "hyperparams.csv"}
    assert first == _contents(tmp_path / "b")
    assert first["scores.csv"] != _contents(tmp_path / "c")["scores.csv"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_times_scale_by_the_bracketing_loops():
    nominal = run.CALIBRATION_NOMINAL_S
    result = {
        "setup_s": 0.2,
        "cpu_s": 3.0,
        "calibration_s": [v * nominal for v in (1.0, 3.0, 2.0, 2.0, 2.0, 2.0, 2.0)],
        "commands": [{"seconds": t} for t in (1.0, 0.1, 0.1, 0.1, 0.1)],
    }
    scaled = run.scaled_times(result)
    assert scaled["setup_s"] == pytest.approx(0.2 / 2.0)
    assert scaled["fit_s"] == pytest.approx(1.0 / 2.5)
    assert scaled["reports_s"] == pytest.approx(0.4 / 2.0)
    assert scaled["cpu_s"] == pytest.approx(3.0 * (0.1 + 0.4 + 0.2) / 1.6)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_printed(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = _run(tmp_path, "--workload", "cross_multi", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
