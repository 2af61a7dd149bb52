"""Smoke test of `tools/same_records.py`: this tree against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = ("desk.csv", "modes.csv", "sparse.csv", "scan.csv", "oracle.csv", "sweep.csv",
         "sweep_aggregates.csv", "desk.json", "sweep.json", "sweep_aggregates.json")


def _listing(path: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in path.rglob("*")}


def test_tree_against_itself():
    before = {d: _listing(ROOT / d) for d in ("src", "configs")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_records.py"), "--a", str(ROOT),
         "--b", str(ROOT)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [f"{name} identical" for name in FILES]
    assert {d: _listing(ROOT / d) for d in before} == before    # writes only to a temp dir
