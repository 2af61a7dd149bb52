import json
import re
import tracemalloc
import warnings
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from greenran import (BsPowerConfig, ConfigError, FrameConfig, ScenarioParams,
                      SolverSettings, SystemPowerParams, build_affine_form)
from greenran import harness, matching
from greenran.defaults import table3_defaults
from greenran.harness import aggregate, emit, emit_aggregates, load_config, run, sweep
from reference import read_records

BASE = {"scenario": {"M": 4, "K": 2, "N": 3, "L": 2, "area_side": 300.0},
        "qos": {"r_min_bps": 10e6},
        "algorithm": "trimsm-eipc",
        "drops": 2, "base_seed": 11}


class TestConfig:
    def test_defaults_fill_gaps(self):
        cfg = load_config({})
        assert cfg.frame.tau_c == 190
        assert cfg.scenario.M == 16

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config({"scenari": {"M": 4}})
        with pytest.raises(ConfigError):
            load_config({"scenario": {"M": 4, "bogus": 1}})
        # inner-solver constants are not config keys
        for key in ("inner_tol", "barrier_mu"):
            with pytest.raises(ConfigError, match=f"unknown config key 'solver.{key}'"):
                load_config({"solver": {key: 1.0}})

    @pytest.mark.parametrize("path, cls", [
        (("scenario",), ScenarioParams), (("frame",), FrameConfig),
        (("power", "bs"), BsPowerConfig), (("power", "system"), SystemPowerParams),
        (("solver",), SolverSettings)])
    def test_schema_matches_dataclass(self, path, cls):
        # a field with no default key cannot be set from a config; the scenario
        # seed is not a key, since base_seed XOR d sets it for drop d
        section = table3_defaults()
        for key in path:
            section = section[key]
        assert set(section) == {f.name for f in fields(cls)} - {"seed"}

    @pytest.mark.parametrize("attr, cls", [
        ("scenario", ScenarioParams), ("frame", FrameConfig), ("bs_config", BsPowerConfig),
        ("system", SystemPowerParams), ("settings", SolverSettings)])
    def test_default_sections_keep_dataclass_defaults(self, attr, cls):
        # tests build contexts from FrameConfig(), SystemPowerParams() and
        # SolverSettings(), and must see the values a default run uses
        built = getattr(load_config({}), attr)
        declared = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
        assert declared and {name: getattr(built, name) for name in declared} == declared

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            load_config(dict(BASE, algorithm="magic"))

    def test_empty_algorithm_list_rejected(self):
        # at load time, so no drop is built for a run that emits no record
        with pytest.raises(ConfigError, match="at least one selector"):
            load_config(dict(BASE, algorithm=[]))

    def test_repeated_algorithm_rejected(self):
        # a selector listed twice would run every drop twice and double its aggregates
        with pytest.raises(ConfigError, match="'llsf' is listed more than once"):
            load_config(dict(BASE, algorithm=["llsf", "tsap", "llsf"]))

    def test_pilot_capacity_enforced(self):
        bad = {"scenario": {"M": 4, "K": 12, "N": 3, "L": 2},
               "frame": {"tau_p": 10}}
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_sweep_validation(self):
        with pytest.raises(ConfigError):
            load_config(dict(BASE, sweep={"parameter": "bogus", "values": [1]}))
        with pytest.raises(ConfigError):
            load_config(dict(BASE, sweep={"parameter": "K", "values": []}))

    @pytest.mark.parametrize("bad, key", [
        ({"scenario": 5}, "scenario"),
        ({"algorithm": 5}, "algorithm"),
        ({"sweep": 5}, "sweep"),
        ({"sweep": {"parameter": "K", "values": 3}}, "sweep.values"),
        ({"sweep": {"parameter": "M", "values": [4.5]}}, "sweep.values"),
        ({"drops": "x"}, "drops"),
        ({"drops": 2.7}, "drops"),
        ({"base_seed": "7"}, "base_seed"),
        ({"qos": {"r_min_bps": "fast"}}, "qos.r_min_bps"),
        ({"qos": {"p_max_w": float("nan")}}, "qos.p_max_w"),
        ({"scenario": {"M": 4.5, "L": 2}}, "scenario.M"),
        ({"frame": {"noise_power_w": float("inf")}}, "frame.noise_power_w"),
        ({"power": {"bs": {"rf_components": [5]}}}, "power.bs.rf_components[0]"),
        ({"power": {"bs": {"bbu_components": ["detection"]}}}, "power.bs.bbu_components[0]"),
        ({"power": {"bs": {"rf_components": [{"name": "adc", "p_ref_w": "0.2"}]}}},
         "power.bs.rf_components[0].p_ref_w"),
        ({"power": {"bs": {"bbu_components": [
            {"name": "adc", "p_ref_w": 0.2, "scaling_exponents": {"N": "1"}}]}}},
         "power.bs.bbu_components[0].scaling_exponents.N"),
        ({"power": {"bs": {"ref_values": {"N": "x"}}}}, "power.bs.ref_values.N"),
        ({"power": {"bs": {"act_values": {"B": "x"}}}}, "power.bs.act_values.B"),
        ({"record_timing": "false"}, "record_timing"),
        ({"qos": {"p_max_w": -1.0}}, "p_max_w"),
        ({"solver": {"recp_delta_percent": 0.0}}, "recp_delta_percent"),
        ({"solver": {"recp_delta_percent": 120.0}}, "recp_delta_percent"),
        ({"solver": {"slm_max_iter": 0}}, "slm_max_iter"),
        ({"power": {"bs": {"rf_components": [{"name": "adc"}]}}},
         "power.bs.rf_components[0].p_ref_w"),
        # every sweep point is built and checked at load
        ({"sweep": {"parameter": "r_min_bps", "values": [1e6, -1.0]}}, "sweep.values[1]"),
        ({"sweep": {"parameter": "r_min_bps", "values": [1e12]}}, "sweep.values[0]"),
        ({"sweep": {"parameter": "M", "values": [0]}}, "sweep.values[0]"),
        ({"sweep": {"parameter": "K", "values": [2, 50]}}, "sweep.values[1]"),
        ({"sweep": {"parameter": "L", "values": [20]}}, "sweep.values[0]"),
        ({"sweep": {"parameter": "area_side", "values": [-3.0]}}, "sweep.values[0]"),
        # range errors name their section
        ({"solver": {"slm_max_iter": 0}}, "solver.slm_max_iter must be >= 1"),
        ({"power": {"bs": {"sleep_scale": 2.0}}}, "power.bs.sleep_scale"),
        ({"scenario": {"M": 4, "L": 6}}, "scenario.L"),
        ({"qos": {"r_min_bps": -1.0}}, "qos.r_min_bps"),
        ({"qos": {"r_min_bps": 1e12}}, "qos.r_min_bps"),
        # drop seeds base_seed ^ d must fit a scenario seed
        ({"base_seed": -1}, "base_seed"),
        ({"base_seed": 2**64}, "base_seed"),
    ])
    def test_wrong_typed_values_rejected(self, bad, key):
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # no numpy warning ahead of the error
            with pytest.raises(ConfigError, match=re.escape(key)):
                load_config(dict(BASE, **bad))

    def test_largest_base_seed_accepted(self):
        cfg = load_config(dict(BASE, base_seed=2**64 - 1))
        assert cfg.base_seed == 2**64 - 1
        assert harness._make_context(cfg, cfg.base_seed ^ 1).scenario.seed == 2**64 - 2

    def test_scenario_seed_rejected(self):
        # base_seed XOR d is drop d's seed, so a scenario seed would be ignored
        with pytest.raises(ConfigError, match=r"'scenario\.seed'.*base_seed"):
            load_config(dict(BASE, scenario=dict(BASE["scenario"], seed=12345)))
        assert "seed" not in table3_defaults()["scenario"]

    def test_non_object_config_rejected(self):
        with pytest.raises(ConfigError, match="config must be an object"):
            load_config([1])

    @pytest.mark.parametrize("text", ["[]", "0", "false", '""', "null"])
    def test_falsy_non_object_config_rejected(self, tmp_path, text):
        # a falsy top level is no object either, not the default config
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="config must be an object"):
            load_config(str(path))
        if text != '""':    # a str source is a path
            with pytest.raises(ConfigError, match="config must be an object"):
                load_config(json.loads(text))

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE))
        cfg = load_config(str(path))
        assert cfg.scenario.M == 4
        assert cfg.algorithms == ("trimsm-eipc",)


class TestRun:
    def test_deterministic_records(self):
        cfg = load_config(BASE)
        a = run(cfg)
        b = run(cfg)
        assert a == b

    def test_per_drop_seed_is_base_xor_index(self):
        cfg = load_config(BASE)
        records = run(cfg)
        assert [r.drop_seed for r in records] == [11 ^ 0, 11 ^ 1]

    def test_record_self_consistency(self):
        cfg = load_config(dict(BASE, algorithm=["trimsm-eipc", "llsf"]))
        for r in run(cfg):
            assert r.ee_bits_per_joule == pytest.approx(
                r.sum_rate_bps / r.total_power_w, rel=1e-9)
            parts = (r.ubs_active_power_w + r.ubs_sleep_power_w
                     + r.fronthaul_power_w + r.edge_cloud_power_w + r.ue_power_w)
            assert r.total_power_w == pytest.approx(parts, rel=1e-12)

    def test_shared_tensor_across_algorithms(self):
        # identical drop seed => identical topology-derived quantities
        cfg = load_config(dict(BASE, algorithm=["llsf", "tsap"]))
        ctx1 = harness._make_context(cfg, 11)
        ctx2 = harness._make_context(cfg, 11)
        assert np.array_equal(ctx1.tensor.mu, ctx2.tensor.mu)
        assert np.array_equal(ctx1.corr.beta, ctx2.corr.beta)

    def test_evaluation_count_does_not_depend_on_earlier_algorithms(self, monkeypatch):
        # the desk.json drop of seed 42; each algorithm of a drop starts from an
        # empty cache, so its report counts the same matchings as when it runs alone
        reports, record = [], harness._record
        monkeypatch.setattr(harness, "_record", lambda config, report, algorithm, *args: (
            reports.append((algorithm, report.evaluation_count))
            or record(config, report, algorithm, *args)))

        def counts(*algorithms):
            reports.clear()
            run(load_config({"scenario": {"M": 6, "K": 3, "N": 3, "L": 2, "area_side": 350.0},
                             "qos": {"r_min_bps": 10e6}, "algorithm": list(algorithms),
                             "drops": 1, "base_seed": 42}))
            return dict(reports)

        after_rules = counts("recp", "llsf", "tsap", "trimsm-slmdb")
        assert after_rules["trimsm-slmdb"] == counts("trimsm-slmdb")["trimsm-slmdb"]
        after_qopc = counts("trimsm-qopc", "trimsm-eipc")
        assert after_qopc["trimsm-eipc"] == counts("trimsm-eipc")["trimsm-eipc"]
        assert after_qopc["trimsm-qopc"] == counts("trimsm-qopc")["trimsm-qopc"]

    def test_a_drop_builds_one_form_that_every_solution_holds(self, monkeypatch):
        config = load_config(dict(BASE, algorithm=["trimsm-eipc", "trimsm-qopc", "llsf",
                                                   "nos"]))
        built, build = [], harness.build_affine_form
        monkeypatch.setattr(harness, "build_affine_form",
                            lambda *args: built.append(build(*args)) or built[-1])
        contexts, dispatch = [], harness._dispatch
        monkeypatch.setattr(harness, "_dispatch", lambda algorithm, ctx: (
            contexts.append(ctx) or dispatch(algorithm, ctx)))
        reports, record = [], harness._record
        monkeypatch.setattr(harness, "_record", lambda config, report, *args: (
            reports.append(report) or record(config, report, *args)))
        run(config)
        # run checks the power tables with one form, then each drop builds one
        assert len(built) == 1 + config.drops
        per_drop = len(config.algorithms)
        for d, form in enumerate(built[1:]):
            drop = slice(d * per_drop, (d + 1) * per_drop)
            assert all(ctx.form is form for ctx in contexts[drop])
            assert all(report.power.form is form for report in reports[drop])
            assert all(solution.form is form for ctx in contexts[drop]
                       for cache in ctx._cache.values() for solution in cache.values())

    def test_copy_with_another_form_scores_under_it(self):
        config = load_config(BASE)
        ctx = harness._make_context(config, 11)
        M, K = ctx.scenario.M, ctx.scenario.K
        system = replace(config.system, ue_circuit_w=2.0)
        other = replace(ctx, form=build_affine_form(config.bs_config, system, M, K))
        # K UEs draw 2 W of circuit power each instead of ue_circuit_w, at any count
        extra = K * (2.0 - config.system.ue_circuit_w)
        assert other.form.c0_w == pytest.approx(ctx.form.c0_w + extra, rel=1e-12)
        S = matching.llsf_assoc(ctx.corr, ctx.scenario)
        mine, theirs = matching.evaluate(S, "eipc", ctx), matching.evaluate(S, "eipc", other)
        assert mine.form is ctx.form and theirs.form is other.form
        assert np.array_equal(mine.p, theirs.p) and np.array_equal(mine.rates, theirs.rates)
        total = np.sum(mine.rates)
        assert total / theirs.ee == pytest.approx(total / mine.ee + extra, rel=1e-12)

    def test_massive_mimo_drop_builds_no_full_correlation_array(self):
        # M=128 K=10 N=64: the whole (M, K, N, N) correlation array is 42 MB; a
        # drop of the fixed rules works from the (M, K) gains alone
        cfg = load_config({"scenario": {"M": 128, "K": 10, "N": 64, "L": 3},
                           "algorithm": ["recp", "llsf", "tsap"], "drops": 1,
                           "base_seed": 3})
        run(cfg)    # warm-up
        tracemalloc.start()
        try:
            run(replace(cfg, base_seed=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_exhaustive_guard(self):
        # the guard fails the config at load, before any drop runs
        with pytest.raises(ConfigError, match="exhaustive search guard"):
            load_config(dict(BASE, algorithm="exhaustive",
                             scenario={"M": 6, "K": 3, "N": 3, "L": 2}))

    def test_wall_time_zero_without_timing_flag(self):
        cfg = load_config(BASE)
        assert all(r.wall_time_ms == 0.0 for r in run(cfg))
        cfg_t = load_config(dict(BASE, record_timing=True, drops=1))
        assert any(r.wall_time_ms > 0.0 for r in run(cfg_t))


class TestSweep:
    def test_row_bookkeeping(self):
        cfg = load_config(dict(BASE, drops=3,
                               sweep={"parameter": "K", "values": [2, 4]}))
        records, aggregates = sweep(cfg)
        assert len(records) == 6
        assert len(aggregates) == 2
        assert {row["sweep_value"] for row in aggregates} == {2, 4}
        for row in aggregates:
            assert row["drops"] == 3

    def test_aggregate_of_constant_records(self):
        cfg = load_config(BASE)
        records = run(cfg)
        rows = aggregate([records[0], records[0]])
        assert rows[0]["ee_mean"] == records[0].ee_bits_per_joule
        assert rows[0]["ee_median"] == records[0].ee_bits_per_joule

    def test_infeasible_drops_counted_not_averaged(self):
        cfg = load_config(dict(BASE, qos={"r_min_bps": 500e6}))
        records = run(cfg)
        assert all(not r.feasible for r in records)
        rows = aggregate(records)
        assert rows[0]["infeasible_drops"] == 2
        assert np.isnan(rows[0]["ee_mean"])
        assert rows[0]["ee_cdf"] == ""

    def test_sweeping_m_clamps_l(self):
        cfg = load_config(dict(BASE, sweep={"parameter": "M", "values": [1, 4]}))
        records, aggregates = sweep(cfg)
        assert {r.sweep_value for r in records} == {1.0, 4.0}

    def test_cdf_sorted_ascending(self):
        cfg = load_config(dict(BASE, drops=4))
        rows = aggregate(run(cfg))
        vals = [float(x) for x in rows[0]["ee_cdf"].split(";") if x]
        assert vals == sorted(vals)


class TestEmit:
    def test_empty_records_header_only(self, tmp_path):
        text = emit([], "csv", tmp_path / "empty.csv")
        assert text.splitlines() == [",".join(harness.RECORD_FIELDS)]

    def test_csv_round_trip(self, tmp_path):
        cfg = load_config(BASE)
        records = run(cfg)
        path = tmp_path / "r.csv"
        emit(records, "csv", path)
        back = read_records(str(path))
        assert back == records

    def test_json_round_trip(self, tmp_path):
        cfg = load_config(BASE)
        records = run(cfg)
        text = emit(records, "json")
        rows = json.loads(text)
        assert len(rows) == len(records)
        assert rows[0]["ee_bits_per_joule"] == records[0].ee_bits_per_joule

    def test_csv_memory_stays_near_the_text_size(self):
        # a long run's records are written one row at a time: the peak is the
        # text and its buffer, not one dict per record on top (5x the text)
        rec = run(load_config(dict(BASE, drops=1)))[0]
        records = [replace(rec, drop_index=d, ee_bits_per_joule=d + 0.5) for d in range(3000)]
        tracemalloc.start()
        try:
            text = emit(records, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * len(text)

    def test_byte_identical_for_identical_config(self):
        cfg1 = load_config(BASE)
        cfg2 = load_config(BASE)
        assert emit(run(cfg1), "csv") == emit(run(cfg2), "csv")

    def test_aggregate_emission(self, tmp_path):
        cfg = load_config(BASE)
        rows = aggregate(run(cfg))
        text = emit_aggregates(rows, "csv", tmp_path / "agg.csv")
        assert text.startswith(",".join(harness.AGGREGATE_FIELDS))

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            emit([], "xml")
