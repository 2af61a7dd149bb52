"""Smoke test of `tools/interleave.py`: one `smoke` drop, this tree against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _listing(path: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in path.rglob("*")}


def test_tree_against_itself():
    before = _listing(ROOT / "perfbench")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave.py"), "--a", str(ROOT),
         "--b", str(ROOT), "--workload", "smoke", "--seed", "0", "--drops", "1",
         "--passes", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "csv identical True"
    assert lines[-2].startswith("speedup A/B ")
    assert [line.split(" ", 1)[0] for line in lines[:2]] == ["A", "B"]
    assert re.fullmatch(r"B faster on [01] of 1 drops", lines[2])
    ratio = re.fullmatch(r"median per-drop A/B (\d+\.\d{4})", lines[3])
    assert ratio and float(ratio[1]) > 0
    assert len(lines) == 6
    assert "ms per drop (min of 1 passes, 1 drops)" in lines[0]
    assert _listing(ROOT / "perfbench") == before    # imported read-only
