import numpy as np
import pytest

from greenran import (ConfigError, CorrelationSet, FrameConfig, ScenarioParams,
                      build_correlation, generate_topology, mmse_statistics)
from reference import expand, mmse_reference, monte_carlo_statistics


def scaled_identity_set(betas, N):
    betas = np.asarray(betas, dtype=float)
    return betas[:, :, None, None] * np.eye(N)[None, None] + 0j


def random_psd_set(rng, M, K, N, scale=1e-10):
    R = np.zeros((M, K, N, N), dtype=complex)
    for m in range(M):
        for k in range(K):
            A = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
            R[m, k] = scale * (A @ A.conj().T) / N
    return R


class TestClosedForm:
    def test_scalar_specialization(self):
        # R = beta I: trace Phi = N p tau beta^2 / (p tau beta + sigma^2), in
        # the closed form and in the general-R reference
        beta = 2e-11
        N = 4
        frame = FrameConfig()
        pt = frame.pilot_power_w * frame.tau_p
        tr_phi = N * pt * beta**2 / (pt * beta + frame.noise_power_w)
        for t in (expand(mmse_statistics(CorrelationSet(gain=np.array([[beta]]), N=N), frame)),
                  mmse_reference(scaled_identity_set([[beta]], N), frame)):
            assert t.mu[0, 0] == pytest.approx(np.sqrt(tr_phi), rel=1e-12)
            assert t.omega[0, 0, 0] == pytest.approx(tr_phi + beta, rel=1e-9)

    def test_vanishing_pilot_power(self):
        beta = 2e-11
        corr = CorrelationSet(gain=np.array([[beta]]), N=3)
        strong = expand(mmse_statistics(corr, FrameConfig(pilot_power_w=0.1)))
        weak = expand(mmse_statistics(corr, FrameConfig(pilot_power_w=1e-9)))
        assert weak.mu[0, 0] < 1e-2 * strong.mu[0, 0]
        # the estimate direction becomes random: conditional gain tends to beta
        assert weak.omega[0, 0, 0] == pytest.approx(beta, rel=1e-2)

    def test_second_moment_dominates_squared_mean(self):
        rng = np.random.default_rng(0)
        p = ScenarioParams(M=3, K=3, N=5, L=2, seed=0, shadowing_std_db=8.0)
        corr = build_correlation(generate_topology(p))
        for t in (mmse_reference(random_psd_set(rng, 3, 3, 5), FrameConfig()),
                  expand(mmse_statistics(corr, FrameConfig()))):
            assert (t.omega[:, np.arange(3), np.arange(3)] >= t.mu**2 - 1e-25).all()

    def test_drop_correlation_is_stored_real(self):
        # the drop stores real gains; the reference on their real R takes real
        # LAPACK/BLAS calls and agrees with complex arithmetic on the same R
        p = ScenarioParams(M=3, K=2, N=4, L=2, seed=12, shadowing_std_db=8.0)
        frame = FrameConfig()
        corr = build_correlation(generate_topology(p))
        assert corr.gain.dtype == np.float64
        assert corr.gain.shape == (3, 2)
        R = corr.R
        assert R.dtype == np.float64
        real = mmse_reference(R, frame)
        cplx = mmse_reference(R + 0j, frame)
        np.testing.assert_allclose(real.mu, cplx.mu, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(real.omega, cplx.omega, rtol=1e-12, atol=0.0)

    def test_cross_terms_nonnegative(self):
        rng = np.random.default_rng(1)
        p = ScenarioParams(M=2, K=3, N=4, L=2, seed=1, shadowing_std_db=8.0)
        corr = build_correlation(generate_topology(p))
        for t in (mmse_reference(random_psd_set(rng, 2, 3, 4), FrameConfig()),
                  expand(mmse_statistics(corr, FrameConfig()))):
            assert (t.omega >= 0).all()
            assert (t.mu >= 0).all()


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        p = ScenarioParams(M=2, K=2, N=3, L=2, area_side=300.0, seed=4)
        corr = build_correlation(generate_topology(p))
        a, _, _ = monte_carlo_statistics(corr.R, FrameConfig(), samples=2000, seed=5)
        b, _, _ = monte_carlo_statistics(corr.R, FrameConfig(), samples=2000, seed=5)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.omega, b.omega)

    def test_real_and_complex_storage_give_identical_estimates(self):
        p = ScenarioParams(M=3, K=2, N=4, L=2, seed=12, shadowing_std_db=8.0)
        frame = FrameConfig()
        corr = build_correlation(generate_topology(p))
        real, *real_se = monte_carlo_statistics(corr.R, frame, samples=20000, seed=12)
        cplx, *cplx_se = monte_carlo_statistics(corr.R + 0j, frame, samples=20000, seed=12)
        for name in ("mu", "omega"):
            assert np.array_equal(getattr(real, name), getattr(cplx, name)), name
        for name, a, b in zip(("mu_se", "omega_se"), real_se, cplx_se):
            assert np.array_equal(a, b), name

    def test_chunk_boundary_consistency(self):
        # crossing the internal chunk size must not depend on call pattern
        p = ScenarioParams(M=1, K=2, N=2, L=1, area_side=300.0, seed=9)
        corr = build_correlation(generate_topology(p))
        t, _, _ = monte_carlo_statistics(corr.R, FrameConfig(), samples=20000, seed=1)
        assert np.isfinite(t.mu).all() and np.isfinite(t.omega).all()

    def test_single_sample_degenerate(self):
        p = ScenarioParams(M=1, K=1, N=2, L=1, area_side=300.0, seed=2)
        corr = build_correlation(generate_topology(p))
        t, mu_se, _ = monte_carlo_statistics(corr.R, FrameConfig(), samples=1, seed=0)
        assert t.omega[0, 0, 0] > 0.0    # a live link, where E{||v||^2} = 1 is asserted
        assert mu_se[0, 0] >= 0.0

    def test_rejects_zero_samples(self):
        p = ScenarioParams(M=1, K=1, N=1, L=1, seed=0)
        corr = build_correlation(generate_topology(p))
        with pytest.raises(ConfigError):
            monte_carlo_statistics(corr.R, FrameConfig(), samples=0, seed=0)

    def test_matches_closed_form_identity_correlation(self):
        p = ScenarioParams(M=2, K=2, N=3, L=2, area_side=300.0, seed=12)
        frame = FrameConfig()
        corr = build_correlation(generate_topology(p))
        exact = expand(mmse_statistics(corr, frame))
        mc = monte_carlo_statistics(corr.R, frame, samples=40000, seed=3)
        _assert_within_se(exact, *mc, factor=4.0)

    def test_matches_closed_form_general_psd(self):
        # the general-R reference, which pins the isotropic closed form
        # (test_statistics_batched.py), against the estimator on a dense set
        rng = np.random.default_rng(21)
        R = random_psd_set(rng, 2, 2, 4)
        frame = FrameConfig()
        exact = mmse_reference(R, frame)
        mc = monte_carlo_statistics(R, frame, samples=40000, seed=8)
        _assert_within_se(exact, *mc, factor=4.0)


def _assert_within_se(exact, mc, mu_se, omega_se, factor):
    M, K = exact.mu.shape
    for m in range(M):
        for k in range(K):
            se = max(mu_se[m, k], 1e-30)
            assert abs(exact.mu[m, k] - mc.mu[m, k]) <= factor * se, (m, k)
            for kp in range(K):
                se = max(omega_se[m, k, kp], 1e-30)
                assert abs(exact.omega[m, k, kp] - mc.omega[m, k, kp]) \
                    <= factor * se, (m, k, kp)
