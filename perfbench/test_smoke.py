"""Smoke test of the benchmark runner on the tiny `smoke` workload.

    python -m pytest perfbench/test_smoke.py -q

It is not part of the package's test suite (pytest collects only `tests/`
by default), so it is run by naming the file.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
DROPS = 2


def _run(trace: int, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", str(SEED),
         "--seconds", "60", "--trace", str(trace), "--drops", str(DROPS)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.splitlines()


@pytest.fixture(scope="module")
def runs():
    out = {}
    for trace in (0, 1):
        out[trace] = []
        for _ in range(2):
            proc, lines = _run(trace)
            assert proc.returncode == 0, proc.stderr
            out[trace].append((lines, json.loads(lines[-1])))
    return out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(runs, trace, section):
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    for lines, result in runs[trace]:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for name, unit in declared.items():
            assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                       for line in lines), name


def test_deterministic_counts_repeat(runs):
    (_, a), (_, b) = runs[1]
    for name in ("powerctl.newton_steps", "matching.evaluate_calls"):
        assert a["metrics"][name]["value"] > 0
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]
    (_, a), (_, b) = runs[0]
    assert a["metrics"]["ee_mean_bpj"]["value"] == b["metrics"]["ee_mean_bpj"]["value"]


def test_traced_pass_is_transparent(runs):
    for lines, _ in runs[1]:
        assert "info traced_csv_identical True" in lines
        assert "info misnested_solver_spans 0" in lines


def test_csv_reproduces_harness_seeding(runs, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    from greenran import harness

    cfg = dict(run.WORKLOADS["smoke"], drops=DROPS, base_seed=run.base_seed("smoke", SEED))
    text = harness.emit(harness.run(harness.load_config(cfg)), "csv")
    expected = f"info csv_sha256 {hashlib.sha256(text.encode()).hexdigest()}"
    for trace in (0, 1):
        for lines, _ in runs[trace]:
            assert expected in lines


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
