"""Golden regression: re-run the checked-in configs and compare records.

The files under tests/data were produced from the same configs with

    greenran run --config configs/desk.json --out tests/data/desk.csv
    greenran run --config configs/modes.json --out tests/data/modes.csv
    greenran run --config configs/sparse.json --out tests/data/sparse.csv
    greenran run --config configs/scan.json --out tests/data/scan.csv
    greenran run --config configs/oracle.json --out tests/data/oracle.csv
    greenran sweep --config configs/sweep.json --out tests/data/sweep.csv \
        --aggregates-out tests/data/sweep_aggregates.csv

Discrete cells (strings, booleans, integers) must match exactly. Floating
cells, including each entry of the `ee_cdf` list, must match within 1e-6
relative, so a solver change that moves only the last bits passes without
regenerating the files.
"""

import csv
import math
from pathlib import Path

import pytest

from greenran.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
RTOL = 1e-6


def _parse(cell: str):
    """Typed parts of one CSV cell: int, float or str, split on ';'."""
    parts = []
    for part in cell.split(";") if cell else [cell]:
        try:
            parts.append(int(part))
        except ValueError:
            try:
                parts.append(float(part))
            except ValueError:
                parts.append(part)
    return parts


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)
    return type(a) is type(b) and a == b


def assert_records_match(golden: Path, produced: Path):
    with open(golden) as fh:
        want = list(csv.reader(fh))
    with open(produced) as fh:
        got = list(csv.reader(fh))
    assert got[0] == want[0], "column order changed"
    assert len(got) == len(want), "row count changed"
    header = want[0]
    for row, (w, g) in enumerate(zip(want[1:], got[1:]), start=1):
        for name, wc, gc in zip(header, w, g):
            wp, gp = _parse(wc), _parse(gc)
            assert len(wp) == len(gp) and all(map(_same, wp, gp)), \
                f"{golden.name} row {row} column {name}: {gc!r} != {wc!r}"


def test_desk_records_match_golden(tmp_path):
    out = tmp_path / "desk.csv"
    assert main(["run", "--config", str(ROOT / "configs" / "desk.json"),
                 "--out", str(out)]) == 0
    assert_records_match(DATA / "desk.csv", out)


def test_swap_modes_records_match_golden(tmp_path):
    # trimsm with the slmdb, qopc and fipc controllers in the swap loop
    out = tmp_path / "modes.csv"
    assert main(["run", "--config", str(ROOT / "configs" / "modes.json"),
                 "--out", str(out)]) == 0
    assert_records_match(DATA / "modes.csv", out)


def test_sparse_records_match_golden(tmp_path):
    # M=40 with at most 15 served BSs: most tensor links are never filled
    out = tmp_path / "sparse.csv"
    assert main(["run", "--config", str(ROOT / "configs" / "sparse.json"),
                 "--out", str(out)]) == 0
    assert_records_match(DATA / "sparse.csv", out)


def test_scan_records_match_golden(tmp_path):
    # M=22, K=4: each pair of the swap scan holds dozens of QoPC and EIPC moves
    out = tmp_path / "scan.csv"
    assert main(["run", "--config", str(ROOT / "configs" / "scan.json"),
                 "--out", str(out)]) == 0
    assert_records_match(DATA / "scan.csv", out)


def test_oracle_records_match_golden(tmp_path):
    # exhaustive search and shadowed gains, with infeasible drops among the four
    out = tmp_path / "oracle.csv"
    assert main(["run", "--config", str(ROOT / "configs" / "oracle.json"),
                 "--out", str(out)]) == 0
    assert_records_match(DATA / "oracle.csv", out)


def test_sweep_records_and_aggregates_match_golden(tmp_path, capsys):
    out, agg = tmp_path / "sweep.csv", tmp_path / "agg.csv"
    assert main(["sweep", "--config", str(ROOT / "configs" / "sweep.json"),
                 "--out", str(out), "--aggregates-out", str(agg)]) == 0
    assert_records_match(DATA / "sweep.csv", out)
    assert_records_match(DATA / "sweep_aggregates.csv", agg)


@pytest.mark.parametrize("cells", [("0.1", "0.10000001"), ("1;2.5", "1;2.5000001"),
                                   ("trimsm-eipc", "trimsm-eipc")])
def test_comparison_accepts_last_bit_changes(cells):
    a, b = map(_parse, cells)
    assert all(map(_same, a, b))


@pytest.mark.parametrize("cells", [("0.1", "0.1001"), ("3", "4"), ("true", "false"),
                                   ("1.0;2.0", "1.0"), ("2", "2.0")])
def test_comparison_rejects_real_changes(cells):
    a, b = map(_parse, cells)
    assert not (len(a) == len(b) and all(map(_same, a, b)))
