import numpy as np
import pytest

from greenran import (ConfigError, FrameConfig, ScenarioParams, build_correlation,
                      generate_topology)
from greenran.netmodel import _wrap_distance_matrix


class TestWrapDistance:
    # BS 0 at the origin against UEs on the square
    def test_identity(self):
        d = _wrap_distance_matrix(np.zeros((1, 2)), np.zeros((1, 2)), 500.0)
        assert d[0, 0] == 0.0

    def test_wraps_across_the_edge(self):
        d = _wrap_distance_matrix(np.zeros((1, 2)), np.array([[499.0, 0.0]]), 500.0)
        assert d[0, 0] == pytest.approx(1.0)

    def test_farthest_corner(self):
        d = _wrap_distance_matrix(np.zeros((1, 2)), np.array([[250.0, 250.0]]), 500.0)
        assert d[0, 0] == pytest.approx(250.0 * np.sqrt(2.0))

    def test_metric_properties(self):
        rng = np.random.default_rng(3)
        side = 500.0
        pts = rng.uniform(0, side, size=(60, 2))
        d = _wrap_distance_matrix(pts, pts, side)
        assert np.allclose(d, d.T, rtol=1e-12, atol=0.0)
        assert (d <= side / np.sqrt(2.0) + 1e-12).all()
        # d[a, b] <= d[a, c] + d[c, b] over every triple, at index [a, c, b]
        assert (d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-9).all()


class TestTopology:
    def test_same_seed_identical(self):
        p = ScenarioParams(M=5, K=4, N=2, L=2, seed=99)
        t1, t2 = generate_topology(p), generate_topology(p)
        assert np.array_equal(t1.ubs_positions, t2.ubs_positions)
        assert np.array_equal(t1.ue_positions, t2.ue_positions)

    def test_seed_changes_positions(self):
        p1 = ScenarioParams(M=5, K=4, N=2, L=2, seed=1)
        p2 = ScenarioParams(M=5, K=4, N=2, L=2, seed=2)
        assert not np.array_equal(generate_topology(p1).ue_positions,
                                  generate_topology(p2).ue_positions)

    def test_positions_inside_square(self):
        p = ScenarioParams(M=40, K=40, N=1, L=1, area_side=250.0, seed=5)
        t = generate_topology(p)
        for xy in (t.ubs_positions, t.ue_positions):
            assert (xy >= 0).all() and (xy < 250.0).all()

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioParams(M=0, K=1, N=1, L=1)
        with pytest.raises(ConfigError):
            ScenarioParams(M=2, K=1, N=1, L=3)
        with pytest.raises(ConfigError):
            ScenarioParams(M=2, K=0, N=1, L=1)
        with pytest.raises(ConfigError):
            ScenarioParams(M=2, K=1, N=1, L=1, area_side=-5.0)


class TestFrame:
    def test_tau_split(self):
        f = FrameConfig(tau_c=190, tau_p=10)
        assert f.tau_u == 180
        with pytest.raises(ConfigError):
            FrameConfig(tau_c=10, tau_p=10)

    def test_rate_scale(self):
        f = FrameConfig(tau_c=190, tau_p=10, bandwidth_hz=20e6)
        assert f.rate_scale == pytest.approx(180 / 190 * 20e6)


class TestCorrelation:
    def test_pathloss_formula_at_100m(self):
        # gain_dB = -30.5 - 36.7 * log10(100) = -103.9
        p = ScenarioParams(M=1, K=1, N=2, L=1, area_side=400.0, seed=0)
        topo = generate_topology(p)
        topo.ubs_positions[0] = (0.0, 0.0)
        topo.ue_positions[0] = (100.0, 0.0)
        corr = build_correlation(topo)
        assert 10 * np.log10(corr.gain[0, 0]) == pytest.approx(-103.9)
        assert np.allclose(corr.R[0, 0], corr.gain[0, 0] * np.eye(2))

    def test_equal_distance_equal_gain(self):
        p = ScenarioParams(M=2, K=1, N=1, L=1, area_side=400.0, seed=0)
        topo = generate_topology(p)
        topo.ubs_positions[0] = (100.0, 50.0)
        topo.ubs_positions[1] = (300.0, 50.0)
        topo.ue_positions[0] = (200.0, 50.0)
        corr = build_correlation(topo)
        assert corr.gain[0, 0] == pytest.approx(corr.gain[1, 0])

    def test_distance_floor_one_meter(self):
        p = ScenarioParams(M=2, K=1, N=1, L=1, area_side=400.0, seed=0)
        topo = generate_topology(p)
        topo.ubs_positions[0] = (200.0, 200.0)
        topo.ubs_positions[1] = (200.0, 200.5)
        topo.ue_positions[0] = (200.0, 200.0)
        corr = build_correlation(topo)
        assert corr.gain[0, 0] == pytest.approx(corr.gain[1, 0])
        assert 10 * np.log10(corr.gain[0, 0]) == pytest.approx(-30.5)

    def test_shadowing_deterministic_per_seed(self):
        p = ScenarioParams(M=3, K=2, N=2, L=2, seed=11, shadowing_std_db=8.0)
        c1 = build_correlation(generate_topology(p))
        c2 = build_correlation(generate_topology(p))
        assert np.array_equal(c1.gain, c2.gain)

    def test_correlation_matrices_hermitian_psd(self):
        p = ScenarioParams(M=3, K=3, N=4, L=2, seed=2, shadowing_std_db=4.0)
        corr = build_correlation(generate_topology(p))
        for m in range(3):
            for k in range(3):
                R = corr.R[m, k]
                assert np.allclose(R, R.conj().T)
                assert (np.linalg.eigvalsh(R) >= -1e-18).all()
                assert corr.gain[m, k] > 0


def _same_bits(a, b):
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


class TestIsotropicSetBits:
    # The set stores the gains; the whole array must keep the bits of the
    # dense construction R = gain * I.
    @pytest.mark.parametrize("shadowing_db", [0.0, 8.0])
    @pytest.mark.parametrize("N", [1, 2, 5, 8, 64])
    def test_matches_dense_construction(self, N, shadowing_db):
        p = ScenarioParams(M=9, K=7, N=N, L=2, seed=5, shadowing_std_db=shadowing_db)
        topo = generate_topology(p)
        dist = np.maximum(_wrap_distance_matrix(topo.ubs_positions, topo.ue_positions,
                                                p.area_side), 1.0)
        gain_db = -p.pathloss_intercept_db - 10.0 * p.pathloss_exponent * np.log10(dist)
        if shadowing_db > 0:
            gain_db = gain_db + np.random.default_rng([p.seed, 1]).normal(
                0.0, shadowing_db, size=gain_db.shape)
        gain = 10.0 ** (gain_db / 10.0)
        R = gain[:, :, None, None] * np.eye(N)[None, None, :, :]

        corr = build_correlation(topo)
        assert corr.N == N
        assert _same_bits(corr.gain, gain)
        assert _same_bits(corr.R, R)
