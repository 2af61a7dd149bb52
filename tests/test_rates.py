import numpy as np
import pytest

from greenran import FrameConfig, link_coefficients
from greenran.netmodel import build_correlation, generate_topology, ScenarioParams
from greenran.rates import rates_from_coeffs, sinr_from_coeffs
from reference import SecondMoments, _crandn, gain_form, monte_carlo_statistics


def synthetic_tensor(mu, omega):
    return gain_form(SecondMoments(mu=mu, omega=omega))


class TestSinr:
    def test_zero_power_zero_sinr(self, small_ctx):
        assoc = np.ones((3, 2), dtype=bool)
        out = sinr_from_coeffs(np.zeros(2), link_coefficients(assoc, small_ctx.tensor),
                               small_ctx.frame.noise_power_w)
        assert (out == 0).all()

    def test_single_link_closed_form(self):
        # SINR = P mu^2 / (P (omega - mu^2) + sigma^2)
        t = synthetic_tensor([[3.0]], [[[10.0]]])
        assoc = np.ones((1, 1), dtype=bool)
        P, s2 = 0.2, 0.5
        expected = P * 9.0 / (P * (10.0 - 9.0) + s2)
        lc = link_coefficients(assoc, t)
        assert sinr_from_coeffs(np.array([P]), lc, s2)[0] == pytest.approx(expected)

    def test_two_bs_cross_term(self):
        # mu1 = mu2 = 1, omega_kk = 1.5 each: E|IS_kk|^2 = 3 + 2 = 5
        t = synthetic_tensor([[1.0], [1.0]], [[[1.5]], [[1.5]]])
        assoc = np.ones((2, 1), dtype=bool)
        lc = link_coefficients(assoc, t)
        assert lc.interf[0, 0] == pytest.approx(5.0)
        assert lc.ds2[0] == pytest.approx(4.0)
        assert lc.ns[0] == pytest.approx(2.0)

    def test_cross_term_against_sampled_channels(self):
        # empirical E{|sum_m v_m^H h_m|^2} must match the coefficient assembly
        p = ScenarioParams(M=2, K=1, N=3, L=2, area_side=200.0, seed=31)
        frame = FrameConfig()
        corr = build_correlation(generate_topology(p))
        mc, _, _ = monte_carlo_statistics(corr.R, frame, samples=30000, seed=7)
        assoc = np.ones((2, 1), dtype=bool)
        lc = link_coefficients(assoc, gain_form(mc))

        rng = np.random.default_rng(123)
        n_s = 30000
        pt = frame.pilot_power_w * frame.tau_p
        tot = np.zeros(n_s, dtype=complex)
        for m in range(2):
            R = corr.R[m, 0]
            psi = pt * R + frame.noise_power_w * np.eye(3)
            est = np.sqrt(frame.pilot_power_w) * R @ np.linalg.inv(psi)
            chol = np.linalg.cholesky(R)
            h = _crandn(rng, (n_s, 3)) @ chol.T
            y = np.sqrt(frame.pilot_power_w) * frame.tau_p * h \
                + np.sqrt(frame.noise_power_w * frame.tau_p) * _crandn(rng, (n_s, 3))
            h_est = y @ est.T
            dots = np.einsum("si,si->s", h_est.conj(), h)
            norm = np.sum(np.abs(h_est) ** 2, axis=1).mean()
            tot += dots / np.sqrt(norm)
        emp = np.abs(tot) ** 2
        mean = emp.mean()
        se = emp.std() / np.sqrt(n_s)
        assert abs(mean - lc.interf[0, 0]) <= 5 * se + 0.05 * lc.interf[0, 0]

    def test_sinr_monotone_in_own_power(self, small_ctx):
        lc = link_coefficients(np.ones((3, 2), dtype=bool), small_ctx.tensor)
        others = np.array([0.05, 0.02])
        vals = []
        for p0 in np.linspace(1e-4, 0.1, 25):
            P = others.copy()
            P[0] = p0
            vals.append(sinr_from_coeffs(P, lc, small_ctx.frame.noise_power_w)[0])
        assert (np.diff(vals) >= -1e-12).all()

    def test_dropping_a_bs_never_raises_mean_signal(self, small_ctx):
        t = small_ctx.tensor
        full = np.ones((3, 2), dtype=bool)
        ds_full = link_coefficients(full, t).ds2
        for m in range(3):
            S = np.ones((3, 2), dtype=bool)
            S[m, :] = False
            ds = link_coefficients(S, t).ds2
            assert (ds <= ds_full + 1e-30).all()


class TestRate:
    def test_zero_sinr_zero_rate(self, small_ctx):
        assoc = np.zeros((3, 2), dtype=bool)
        lc = link_coefficients(assoc, small_ctx.tensor)
        r = rates_from_coeffs(np.full(2, 0.1), lc, small_ctx.frame)
        assert (r == 0).all()

    def test_prelog_at_unit_sinr(self):
        # SINR = 1 with the default frame: R = (180/190) * 20 MHz
        assoc = np.ones((1, 1), dtype=bool)
        frame = FrameConfig()
        t = synthetic_tensor([[1.0]], [[[1.0]]])          # omega == mu^2: no self-penalty
        P = np.array([frame.noise_power_w])               # SINR = P / sigma2 = 1
        r = rates_from_coeffs(P, link_coefficients(assoc, t), frame)
        assert r[0] == pytest.approx(180 / 190 * 20e6, rel=1e-12)

    def test_rate_linear_in_bandwidth(self):
        t = synthetic_tensor([[2.0]], [[[5.0]]])
        assoc = np.ones((1, 1), dtype=bool)
        f1 = FrameConfig(bandwidth_hz=20e6)
        f2 = FrameConfig(bandwidth_hz=40e6)
        P = np.array([0.05])
        # same SINR only if the noise power is held fixed
        lc = link_coefficients(assoc, t)
        r1 = rates_from_coeffs(P, lc, f1)
        r2 = rates_from_coeffs(P, lc, f2)
        assert r2[0] == pytest.approx(2 * r1[0])
