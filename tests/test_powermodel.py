from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greenran import (ConfigError, SubComponentSpec, SystemPowerParams,
                      build_affine_form, component_power, network_power, theta,
                      ubs_power)
from greenran.powermodel import BsPowerConfig, edge_cloud_scaling, traffic_power_coefficient
from conftest import active_count, default_bs_config
from reference import affine_form_from_arrays

UNIT_VALUES = {"N": 1, "B": 1, "Q": 1, "Se": 1, "Ld": 1.0, "St": 1}


def simple_cfg(rf=(), bbu=(), **kw):
    defaults = dict(ref_values=dict(UNIT_VALUES), act_values=dict(UNIT_VALUES),
                    sectors=1, loss_ms=0.0, loss_dc=0.0, loss_co=0.0, sleep_scale=0.1)
    defaults.update(kw)
    return BsPowerConfig(rf_components=tuple(rf), bbu_components=tuple(bbu), **defaults)


def direct_network_power(P, rates, S, cfg, params, n_active=None):
    """Step-by-step evaluation of the component power chain (test oracle).

    Walks: per-BS power at an explicit equal load split, sleep power,
    centralization rescale, fronthaul, edge cloud from unscaled powers with
    pooling/stacking then cooling, UE power. Independent of the affine
    reduction code path.
    """
    M, K = S.shape
    active = active_count(S) if n_active is None else n_active
    sleeping = M - active
    agg_load = float(np.sum(rates) / params.r_ref_bps)
    per_bs_load = agg_load / active if active else 0.0

    th = theta(cfg, params)
    kt = params.kappa * th
    p_active_each = ubs_power(cfg, per_bs_load)
    p_idle = ubs_power(cfg, 0.0)

    ubs_active = (1 - kt) * active * p_active_each
    ubs_sleep = (1 - kt) * cfg.sleep_scale * p_idle * sleeping
    fronthaul = active * params.fronthaul_fix_w \
        + M * params.fronthaul_trf_w_per_bps * float(np.sum(rates))
    unscaled = active * p_active_each + sleeping * p_idle
    ec = params.kappa * th * unscaled
    ec *= params.pooling_power / M * np.ceil(M / (params.pooling_capacity
                                                  * params.stacking_gain))
    sco = params.loss_co_ec
    if cfg.loss_co != 0:
        ec *= sco / params.cooling_gain + 1 - sco
    else:
        ec *= sco / ((1 - sco) * params.cooling_gain) + 1
    ue = K * params.ue_circuit_w + params.ue_pa_slope * float(np.sum(P))
    return ubs_active + ubs_sleep + fronthaul + ec + ue


class TestComponentPower:
    def test_reference_point_returns_p_ref(self):
        spec = SubComponentSpec("x", 3.5, {"N": 1, "B": 2})
        assert component_power(spec, UNIT_VALUES, UNIT_VALUES) == 3.5

    def test_sqrt_scaling(self):
        spec = SubComponentSpec("x", 1.0, {"B": 0.5})
        act = dict(UNIT_VALUES, B=4)
        assert component_power(spec, act, UNIT_VALUES) == pytest.approx(2.0)

    def test_zero_load_zeroes_linear_component(self):
        spec = SubComponentSpec("x", 7.0, {"Ld": 1})
        act = dict(UNIT_VALUES, Ld=0.0)
        assert component_power(spec, act, UNIT_VALUES) == 0.0

    def test_nonpositive_reference_rejected(self):
        spec = SubComponentSpec("x", 1.0, {"B": 1})
        with pytest.raises(ConfigError):
            component_power(spec, UNIT_VALUES, dict(UNIT_VALUES, B=0))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            SubComponentSpec("x", 1.0, {"bogus": 1})


class TestUbsPower:
    def test_single_component_no_losses(self):
        cfg = simple_cfg(rf=[SubComponentSpec("a", 10.0, {})])
        assert ubs_power(cfg, 0.0) == 10.0

    def test_loss_divisor(self):
        cfg = simple_cfg(rf=[SubComponentSpec("a", 10.0, {})],
                         loss_ms=0.1, loss_dc=0.05, loss_co=0.0)
        assert cfg.loss_divisor == pytest.approx(0.855)
        assert ubs_power(cfg, 0.0) == pytest.approx(10.0 / 0.855)

    def test_monotone_in_load(self, bs_config):
        loads = np.linspace(0, 2, 15)
        powers = [ubs_power(bs_config, x) for x in loads]
        assert (np.diff(powers) >= 0).all()

    def test_sectors_multiply(self):
        cfg = simple_cfg(rf=[SubComponentSpec("a", 2.0, {})], sectors=3)
        assert ubs_power(cfg, 0.0) == pytest.approx(6.0)


class TestTheta:
    def test_zero_offload_share(self):
        cfg = simple_cfg(rf=[SubComponentSpec("a", 1.0, {})],
                         bbu=[SubComponentSpec("b", 1.0, {})])
        assert theta(cfg, SystemPowerParams(psi_d=0.0)) == 0.0

    def test_bbu_only_full_offload(self):
        cfg = simple_cfg(bbu=[SubComponentSpec("b", 4.0, {})])
        assert theta(cfg, SystemPowerParams(psi_d=1.0)) == pytest.approx(1.0)

    def test_within_unit_interval(self, bs_config, system_params):
        assert 0 <= theta(bs_config, system_params) <= 1


class TestSleepPower:
    # one sleeping BS out of one: the form's ubs_sleep constant is its draw
    def test_zero_scale(self, system_params):
        cfg = simple_cfg(rf=[SubComponentSpec("a", 5.0, {})], sleep_scale=0.0)
        form = build_affine_form(cfg, system_params, 1, 1, 0)
        assert form.parts["ubs_sleep"][0] == 0.0

    def test_below_idle_power(self, bs_config, system_params):
        form = build_affine_form(bs_config, system_params, 1, 1, 0)
        assert form.parts["ubs_sleep"][0] < ubs_power(bs_config, 0.0)


class TestEdgeCloud:
    def test_pooling_stacking_factor(self):
        params = SystemPowerParams(pooling_capacity=5, stacking_gain=2,
                                   pooling_power=2)
        # xi/M * ceil(M / (lambda zeta)) with M=16: (2/16) * ceil(1.6) = 0.25
        factor = params.pooling_power / 16 * np.ceil(16 / 10)
        assert factor == pytest.approx(0.25)
        scale = edge_cloud_scaling(params, 16, loss_co_bs=0.1)
        cool = 0.1 / 2 + 1 - 0.1
        assert scale == pytest.approx(0.25 * cool)

    def test_cooling_penalty_without_bs_cooling(self):
        params = SystemPowerParams(loss_co_ec=0.1, cooling_gain=2.0)
        scale = edge_cloud_scaling(params, 1, loss_co_bs=0.0)
        # 0.1/(0.9*2) + 1 > 1: the stacked BBUs add net cooling cost
        assert scale / (params.pooling_power * np.ceil(1 / 10)) \
            == pytest.approx(0.1 / 1.8 + 1)
        assert scale > params.pooling_power * np.ceil(1 / 10)

    def test_kappa_zero_disables(self, bs_config):
        params = SystemPowerParams(kappa=0.0)
        c, alpha, delta = build_affine_form(bs_config, params, 4, 3, 2).parts["edge_cloud"]
        assert c == 0.0 and (alpha == 0.0).all() and (delta == 0.0).all()


class TestAffineForm:
    def test_lemma_style_reduction_matches_tables(self, bs_config):
        # random loads and associations: table evaluation == fixed + trf * load
        rng = np.random.default_rng(5)
        p_fix = ubs_power(bs_config, 0.0)
        p_trf = traffic_power_coefficient(bs_config)
        for _ in range(100):
            M = int(rng.integers(1, 7))
            active = rng.random(M) < 0.7
            loads = np.where(active, rng.random(M) * 2, 0.0)
            direct = sum(ubs_power(bs_config, x) for x, a in zip(loads, active) if a)
            reduced = active.sum() * p_fix + p_trf * loads[active].sum()
            if active.any():
                assert direct == pytest.approx(reduced, rel=1e-9)

    def test_affine_form_matches_direct_chain(self, bs_config, system_params):
        rng = np.random.default_rng(8)
        for trial in range(30):
            M, K = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            S = rng.random((M, K)) < 0.5
            form = build_affine_form(bs_config, system_params, M, K, active_count(S))
            P = rng.random(K) * 0.1
            rates = rng.random(K) * 60e6 * S.any(axis=0)   # traffic only when served
            direct = direct_network_power(P, rates, S, bs_config, system_params)
            assert form.total(P, rates) == pytest.approx(direct, rel=1e-9)

    def test_zero_curvature_in_rates(self, bs_config, system_params):
        rng = np.random.default_rng(9)
        S = rng.random((5, 3)) < 0.6
        form = build_affine_form(bs_config, system_params, 5, 3, int(S.any(axis=1).sum()))
        P = rng.random(3) * 0.1
        rates = rng.random(3) * 40e6
        h = 1e6
        for k in range(3):
            up, mid, dn = rates.copy(), rates.copy(), rates.copy()
            up[k] += h
            dn[k] -= h
            second = form.total(P, up) - 2 * form.total(P, mid) + form.total(P, dn)
            assert abs(second) <= 1e-9 * abs(form.total(P, mid))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(M=st.integers(1, 130), K=st.integers(1, 12), data=st.data(),
           kappa=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           psi_d=st.floats(0.0, 1.0), sleep_scale=st.floats(0.0, 1.0),
           loss_co=st.sampled_from([0.0, 0.1]), fh_trf=st.floats(0.0, 1e-8),
           pa_slope=st.floats(1.0, 5.0), circuit=st.floats(0.0, 3.0),
           r_ref=st.floats(1e5, 1e9))
    def test_scalar_sums_keep_the_array_bits(self, M, K, data, kappa, psi_d, sleep_scale,
                                             loss_co, fh_trf, pa_slope, circuit, r_ref):
        # the per-UE slopes summed as scalars, in np.sum's order over the
        # categories, give the bits of the per-category arrays summed by np.sum
        cfg = replace(default_bs_config(), sleep_scale=sleep_scale, loss_co=loss_co)
        params = SystemPowerParams(kappa=kappa, psi_d=psi_d, fronthaul_trf_w_per_bps=fh_trf,
                                   ue_pa_slope=pa_slope, ue_circuit_w=circuit,
                                   r_ref_bps=r_ref)
        n_active = data.draw(st.integers(0, M))
        form = build_affine_form(cfg, params, M, K, n_active)
        ref = affine_form_from_arrays(cfg, params, M, K, n_active)

        def bits(x):
            return np.asarray(x, dtype=float).tobytes()
        assert bits(form.c0_w) == bits(ref.c0_w)
        assert bits(form.alpha_per_k) == bits(ref.alpha_per_k)
        assert bits(form.delta_per_k) == bits(ref.delta_per_k)
        assert (form.r_ref_bps, form.n_active) == (ref.r_ref_bps, ref.n_active)
        assert list(form.parts) == list(ref.parts)
        for name, triple in form.parts.items():
            assert [bits(x) for x in triple] == [bits(x) for x in ref.parts[name]], name
            assert [np.shape(x) for x in triple] == [np.shape(x) for x in ref.parts[name]]

    def test_positive_slopes(self, bs_config, system_params):
        form = build_affine_form(bs_config, system_params, 4, 2, 4)
        assert (form.alpha_per_k > 0).all()
        assert (form.delta_per_k >= 1).all()

    def test_all_sleeping_floor(self, bs_config, system_params):
        M, K = 4, 2
        form = build_affine_form(bs_config, system_params, M, K, 0)
        kt = system_params.kappa * theta(bs_config, system_params)
        sleep_total = M * (1 - kt) * bs_config.sleep_scale * ubs_power(bs_config, 0.0)
        ec = kt * edge_cloud_scaling(system_params, M, bs_config.loss_co) \
            * M * ubs_power(bs_config, 0.0)
        expected = sleep_total + K * system_params.ue_circuit_w + ec
        assert form.total(np.zeros(K), np.zeros(K)) == pytest.approx(expected, rel=1e-12)

    def test_fractional_load_exponent_rejected(self, system_params):
        cfg = simple_cfg(bbu=[SubComponentSpec("b", 1.0, {"Ld": 0.5})])
        with pytest.raises(ConfigError):
            build_affine_form(cfg, system_params, 2, 1, 2)

    def test_breakdown_parts_sum_to_total(self, bs_config, system_params):
        rng = np.random.default_rng(10)
        S = rng.random((5, 3)) < 0.5
        form = build_affine_form(bs_config, system_params, 5, 3, int(S.any(axis=1).sum()))
        P = rng.random(3) * 0.1
        rates = rng.random(3) * 40e6
        b = network_power(P, rates, form)
        parts = [b.ubs_active_w, b.ubs_sleep_w, b.fronthaul_w, b.edge_cloud_w, b.ue_w]
        assert all(x >= 0 for x in parts)
        assert sum(parts) == b.total_w
        assert b.total_w == pytest.approx(form.total(P, rates), rel=1e-12)

