import json
import subprocess
import sys
from pathlib import Path

import pytest

from greenran.cli import main

BASE = {"scenario": {"M": 4, "K": 2, "N": 3, "L": 2, "area_side": 300.0},
        "qos": {"r_min_bps": 10e6},
        "algorithm": "trimsm-eipc",
        "drops": 1, "base_seed": 3}

# configs that `run` rejects, and the error each must fail with: the default
# M*K = 80 and the sweep point M = 9 (M*K = 18) exceed the exhaustive search
# guard, the three power tables fail their affine form, and a negative UE
# circuit power would price the network below zero
REJECTED_AT_RUN = [
    ({"algorithm": ["llsf", "exhaustive"], "drops": 1}, "exhaustive search guard"),
    (dict(BASE, algorithm=["exhaustive"], scenario={"M": 4, "K": 2, "N": 2, "L": 2},
          sweep={"parameter": "M", "values": [4, 9]}), "exhaustive search guard"),
    ({"power": {"bs": {"rf_components": [
        {"name": "x", "p_ref_w": 1, "scaling_exponents": {"Ld": 2}}]}}},
     "load exponent 2 unsupported"),
    ({"power": {"bs": {"rf_components": [], "bbu_components": []}}}, "theta undefined"),
    ({"power": {"system": {"fronthaul_trf_w_per_bps": -1}}},
     "traffic coefficients must be positive"),
    (dict(BASE, sweep={"parameter": "K", "values": [2, 2]}), "sweep.values[1] repeats"),
    (dict(BASE, power={"system": {"ue_circuit_w": -100}}, algorithm=["trimsm-slmdb", "llsf"]),
     "power.system.ue_circuit_w must be >= 0"),
]


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

    def test_repeated_algorithm_override_rejected(self, cfg_path, capsys):
        assert main(["run", "--config", cfg_path, "--algorithm", "llsf,llsf"]) == 1
        captured = capsys.readouterr()
        assert "'llsf' is listed more than once" in captured.err
        assert captured.out == ""

    def test_negative_seed_override_rejected(self, cfg_path, capsys):
        assert main(["run", "--config", cfg_path, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert "base_seed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("algorithm", [",", " , ", ""])
    def test_empty_algorithm_override_rejected(self, cfg_path, capsys, algorithm):
        assert main(["run", "--config", cfg_path, "--algorithm", algorithm]) == 1
        captured = capsys.readouterr()
        assert "at least one selector" in captured.err
        assert captured.out == ""

    def test_empty_algorithm_list_in_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        path.write_text(json.dumps(dict(BASE, algorithm=[])))
        for command in ("run", "validate-config"):
            assert main([command, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert "at least one selector" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("text", [
        '{"scenario": 5}', '{"algorithm": 5}', '{"sweep": {"parameter": "K", "values": 3}}',
        '{"drops": "x"}', '{"drops": 2.7}', '{"qos": {"r_min_bps": "fast"}}',
        '{"scenario": {"M": 4.5, "L": 2}}', '{"qos": {"p_max_w": NaN}}'])
    def test_wrong_typed_config_is_an_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "w.json"
        path.write_text(text)
        for command in ("run", "validate-config"):
            assert main([command, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and "Traceback" not in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("text", ["[]", "0", "false", '""', "null"])
    def test_falsy_non_object_config_is_an_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        for command in ("run", "validate-config"):
            assert main([command, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: config must be an object\n"
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    def test_non_utf8_config_is_an_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "u.json"
        path.write_bytes(b"\xff\xfe{")
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "codec can't decode" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_sweep_json_writes_null_for_no_feasible_drop(self, tmp_path):
        # no drop meets 1 Gbit/s, so the group's EE mean and median are NaN
        cfg = dict(BASE, algorithm="llsf", scenario={"M": 3, "K": 2, "N": 2, "L": 2},
                   qos={"r_min_bps": 1e9}, sweep={"parameter": "K", "values": [2]})
        path = tmp_path / "n.json"
        path.write_text(json.dumps(cfg))
        out = {}
        for fmt in ("json", "csv"):
            rec, agg = tmp_path / f"r.{fmt}", tmp_path / f"a.{fmt}"
            assert main(["sweep", "--config", str(path), "--format", fmt, "--out", str(rec),
                         "--aggregates-out", str(agg)]) == 0
            out[fmt] = rec.read_text(), agg.read_text()

        def strict(name):
            raise ValueError(f"{name} is not JSON")
        records, (row,) = (json.loads(text, parse_constant=strict) for text in out["json"])
        assert records and not any(r["feasible"] for r in records)
        assert row["feasible_drops"] == 0 and row["ee_mean"] is row["ee_median"] is None
        assert ",nan,nan," in out["csv"][1]    # the CSV keeps repr(nan)

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

    @pytest.mark.parametrize("cfg, message", REJECTED_AT_RUN,
                             ids=[f"cfg{i}" for i in range(len(REJECTED_AT_RUN))])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(cfg))
        for command in ("validate-config", "run"):
            assert main([command, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and "Traceback" not in captured.err
            assert message in captured.err and captured.out == ""

    def test_oracle_check(self, capsys):
        assert main(["oracle-check", "--instances", "1"]) == 0
        assert "ratio" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_oracle_check_seed_outside_range_rejected(self, capsys, seed):
        assert main(["oracle-check", "--instances", "1", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "base_seed" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("instances", ["0", "-2"])
    def test_oracle_check_needs_an_instance(self, capsys, instances):
        assert main(["oracle-check", "--instances", instances]) == 1
        captured = capsys.readouterr()
        assert "instances must be >= 1" in captured.err
        assert captured.out == ""


def test_cli_import_loads_no_scipy():
    # importing scipy would cost more than the rest of the package's start-up
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import greenran.cli, greenran.harness; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
