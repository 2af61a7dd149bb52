import numpy as np
import pytest

from greenran import FrameConfig, gamma_thresholds, link_coefficients, make_qos
from greenran.powerctl import ReducedProblem, Surrogate
from greenran.rates import rates_from_coeffs
from conftest import active_count, strongest_assoc
from reference import residual


class TestGammaThresholds:
    def test_zero_rate_zero_threshold(self):
        assert gamma_thresholds(np.zeros(3), FrameConfig()).tolist() == [0, 0, 0]

    def test_default_frame_20mbps(self):
        # 2^(190 * 20e6 / (180 * 20e6)) - 1 = 2^(19/18) - 1
        g = gamma_thresholds(np.array([20e6]), FrameConfig())
        assert g[0] == pytest.approx(2 ** (19 / 18) - 1, rel=1e-12)
        assert g[0] == pytest.approx(1.0785, abs=2e-4)

    def test_monotone_in_rate(self):
        g = gamma_thresholds(np.linspace(0, 50e6, 20), FrameConfig())
        assert (np.diff(g) > 0).all()


class TestQosResidual:
    # strongest_assoc serves both UEs, so reduced and full power vectors agree,
    # and it wakes all M = 3 BSs
    def test_zero_gamma_always_satisfied(self, small_ctx):
        lc = link_coefficients(strongest_assoc(small_ctx), small_ctx.tensor)
        qos = make_qos(0.0, 2, small_ctx.frame, 0.1)
        prob = ReducedProblem(lc, small_ctx.frame, small_ctx.form, small_ctx.scenario.M, qos)
        r = residual(prob, np.array([0.05, 0.01]))
        assert (r <= 0).all()

    def test_affine_in_power(self, small_ctx):
        lc = link_coefficients(strongest_assoc(small_ctx), small_ctx.tensor)
        prob = ReducedProblem(lc, small_ctx.frame, small_ctx.form, small_ctx.scenario.M,
                              small_ctx.qos)
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.random(2) * 0.1
            d = rng.random(2) * 0.01
            r0 = residual(prob, p - d)
            r1 = residual(prob, p)
            r2 = residual(prob, p + d)
            assert np.allclose(r2 - 2 * r1 + r0, 0.0, atol=1e-18)

    def test_sign_matches_rate_deficit(self, small_ctx):
        lc = link_coefficients(strongest_assoc(small_ctx), small_ctx.tensor)
        qos = small_ctx.qos
        prob = ReducedProblem(lc, small_ctx.frame, small_ctx.form, small_ctx.scenario.M, qos)
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.random(2) * 0.1
            r = residual(prob, p)
            rates = rates_from_coeffs(p, lc, small_ctx.frame)
            deficit = qos.r_min_bps - rates
            for k in range(2):
                if abs(r[k]) > 1e-18 and abs(deficit[k]) > 1e-3:
                    assert np.sign(r[k]) == np.sign(deficit[k])


class TestTaylorBounds:
    # (Rhat, Rbar) of the surrogate at an anchor inside the power box; strongest_assoc
    # wakes all M = 3 BSs

    def test_equality_at_anchor(self, small_ctx):
        lc = link_coefficients(strongest_assoc(small_ctx), small_ctx.tensor)
        prob = ReducedProblem(lc, small_ctx.frame, small_ctx.form, small_ctx.scenario.M,
                              small_ctx.qos)
        anchor = np.array([0.03, 0.07])
        rates = rates_from_coeffs(anchor, lc, small_ctx.frame)
        hi, lo = Surrogate(prob, anchor).rate_bounds(anchor)
        assert np.allclose(hi, rates, rtol=1e-10)
        assert np.allclose(lo, rates, rtol=1e-10)

    def test_sandwich_everywhere(self, small_ctx):
        lc = link_coefficients(strongest_assoc(small_ctx), small_ctx.tensor)
        prob = ReducedProblem(lc, small_ctx.frame, small_ctx.form, small_ctx.scenario.M,
                              small_ctx.qos)
        rng = np.random.default_rng(2)
        for _ in range(100):
            anchor = rng.random(2) * 0.1
            p = rng.random(2) * 0.1
            rates = rates_from_coeffs(p, lc, small_ctx.frame)
            hi, lo = Surrogate(prob, anchor).rate_bounds(p)
            assert (lo <= rates + 1e-6).all()
            assert (rates <= hi + 1e-6).all()

    def test_upper_bound_gradient_matches_rate_gradient(self, small_ctx):
        # at the anchor the tangent of the concave log reproduces the slope
        lc = link_coefficients(strongest_assoc(small_ctx), small_ctx.tensor)
        prob = ReducedProblem(lc, small_ctx.frame, small_ctx.form, small_ctx.scenario.M,
                              small_ctx.qos)
        anchor = np.array([0.04, 0.06])
        sur = Surrogate(prob, anchor)
        h = 1e-7
        for k in range(2):
            dp = np.zeros(2)
            dp[k] = h
            hi_p, lo_p = sur.rate_bounds(anchor + dp)
            hi_m, lo_m = sur.rate_bounds(anchor - dp)
            r_p = rates_from_coeffs(anchor + dp, lc, small_ctx.frame)
            r_m = rates_from_coeffs(anchor - dp, lc, small_ctx.frame)
            grad_rate = (r_p - r_m) / (2 * h)
            grad_hi = (hi_p - hi_m) / (2 * h)
            grad_lo = (lo_p - lo_m) / (2 * h)
            assert grad_hi[k] == pytest.approx(grad_rate[k], rel=1e-4)
            assert grad_lo[k] == pytest.approx(grad_rate[k], rel=1e-4)


class TestSurrogateEe:
    # the surrogate EE is sum Rbar over P_N at Rhat: `Surrogate.ratio`

    def test_global_lower_bound(self, small_ctx):
        assoc = strongest_assoc(small_ctx)
        lc = link_coefficients(assoc, small_ctx.tensor)
        form, n = small_ctx.form, active_count(assoc)
        prob = ReducedProblem(lc, small_ctx.frame, form, n, small_ctx.qos)
        rng = np.random.default_rng(3)
        for _ in range(200):
            anchor = rng.random(2) * 0.1
            p = rng.random(2) * 0.1
            below = Surrogate(prob, anchor).ratio(p)
            rates = rates_from_coeffs(p, lc, small_ctx.frame)
            true_ee = np.sum(rates) / form.total(p, rates, n)
            assert below <= true_ee * (1 + 1e-12) + 1e-12

    def test_tight_at_anchor(self, small_ctx):
        assoc = strongest_assoc(small_ctx)
        lc = link_coefficients(assoc, small_ctx.tensor)
        form, n = small_ctx.form, active_count(assoc)
        prob = ReducedProblem(lc, small_ctx.frame, form, n, small_ctx.qos)
        p = np.array([0.02, 0.09])
        at = Surrogate(prob, p).ratio(p)
        rates = rates_from_coeffs(p, lc, small_ctx.frame)
        true_ee = np.sum(rates) / form.total(p, rates, n)
        assert at == pytest.approx(true_ee, rel=1e-10)

    def test_gradient_consistency_at_anchor(self, small_ctx):
        # surrogate and true EE share first-order behavior at the anchor
        assoc = strongest_assoc(small_ctx)
        lc = link_coefficients(assoc, small_ctx.tensor)
        form, n = small_ctx.form, active_count(assoc)
        prob = ReducedProblem(lc, small_ctx.frame, form, n, small_ctx.qos)
        anchor = np.array([0.05, 0.04])
        sur = Surrogate(prob, anchor)
        h = 1e-8

        def true_ee(p):
            rates = rates_from_coeffs(p, lc, small_ctx.frame)
            return np.sum(rates) / form.total(p, rates, n)

        for k in range(2):
            dp = np.zeros(2)
            dp[k] = h
            g_true = (true_ee(anchor + dp) - true_ee(anchor - dp)) / (2 * h)
            g_sur = (sur.ratio(anchor + dp) - sur.ratio(anchor - dp)) / (2 * h)
            assert g_sur == pytest.approx(g_true, rel=1e-5)
