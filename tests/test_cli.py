import json

import pytest

from greenran.cli import main

BASE = {"scenario": {"M": 4, "K": 2, "N": 3, "L": 2, "area_side": 300.0},
        "qos": {"r_min_bps": 10e6},
        "algorithm": "trimsm-eipc",
        "drops": 1, "base_seed": 3}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    return str(path)


class TestCli:
    def test_validate_ok(self, cfg_path, capsys):
        assert main(["validate-config", "--config", cfg_path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": {"M": 4, "nope": 1}}))
        assert main(["validate-config", "--config", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_to_file_deterministic(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_json_to_stdout(self, cfg_path, capsys):
        assert main(["run", "--config", cfg_path, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and rows[0]["algorithm"] == "trimsm-eipc"

    def test_algorithm_and_drops_overrides(self, cfg_path, capsys):
        assert main(["run", "--config", cfg_path, "--algorithm", "llsf,tsap",
                     "--drops", "2", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["algorithm"] for r in rows} == {"llsf", "tsap"}
        assert len(rows) == 4

    @pytest.mark.parametrize("drops", ["0", "-1"])
    def test_nonpositive_drops_override_rejected(self, cfg_path, capsys, drops):
        assert main(["run", "--config", cfg_path, "--drops", drops]) == 1
        captured = capsys.readouterr()
        assert "drops must be >= 1" in captured.err
        assert captured.out == ""

    def test_bad_algorithm_override(self, cfg_path):
        assert main(["run", "--config", cfg_path, "--algorithm", "nope"]) == 1

    def test_sweep_with_aggregates(self, tmp_path):
        cfg = dict(BASE, sweep={"parameter": "K", "values": [2, 3]})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        rec, agg = tmp_path / "r.csv", tmp_path / "a.csv"
        assert main(["sweep", "--config", str(path), "--out", str(rec),
                     "--aggregates-out", str(agg)]) == 0
        assert agg.read_text().count("\n") == 3   # header + 2 sweep rows

    def test_exhaustive_guard_fatal(self, tmp_path):
        cfg = dict(BASE, algorithm="exhaustive",
                   scenario={"M": 9, "K": 2, "N": 3, "L": 2})
        path = tmp_path / "g.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1

    def test_oracle_check(self, capsys):
        assert main(["oracle-check", "--instances", "1"]) == 0
        assert "ratio" in capsys.readouterr().out
