"""The closed-form statistics take one solve and one matrix product per BS.

`mmse_statistics` is pinned against a per-link reference, one solve and one
einsum per live link, kept below. The scenarios cover real drop correlations
(with shadowing), random complex PSD sets with all-zero links, and zero and
positive pilot power, so live and dead links mix at one BS. Summation order
differs between the two, so they agree to 1e-12 relative, and exactly where
the reference is 0.

The tensor fills a link on first request; any order of requests must give the
arrays of an eager fill bitwise, and links never requested stay 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greenran import (CorrelationSet, FrameConfig, ScenarioParams, build_correlation,
                      generate_topology, mmse_statistics)


def ref_mmse(corr, frame):
    R = corr.R
    M, K, N, _ = R.shape
    pp_taup = frame.pilot_power_w * frame.tau_p
    mu = np.zeros((M, K))
    omega = np.zeros((M, K, K))
    for m in range(M):
        for k in range(K):
            psi = pp_taup * R[m, k] + frame.noise_power_w * np.eye(N)
            phi = pp_taup * R[m, k] @ np.linalg.solve(psi, R[m, k])
            t = np.trace(phi).real
            if t > 0.0:
                mu[m, k] = np.sqrt(t)
                omega[m, k] = np.einsum("kij,ji->k", R[m], phi).real / t
                omega[m, k, k] += t
    return mu, omega


def assert_matches(got, ref):
    zero = ref == 0.0
    assert np.all(np.abs(got[zero]) <= 1e-30)
    np.testing.assert_allclose(got[~zero], ref[~zero], rtol=1e-12, atol=0.0)


@st.composite
def correlation_sets(draw):
    M = draw(st.integers(1, 6))
    K = draw(st.integers(1, 4))
    N = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        scen = ScenarioParams(M=M, K=K, N=N, L=1, seed=seed,
                              area_side=draw(st.sampled_from((100.0, 500.0, 2000.0))),
                              shadowing_std_db=draw(st.floats(0.0, 8.0)))
        return build_correlation(generate_topology(scen), FrameConfig())
    zero = draw(st.lists(st.booleans(), min_size=M * K, max_size=M * K))
    scale = draw(st.sampled_from((1e-13, 1e-10, 1e-7)))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((M, K, N, N)) + 1j * rng.standard_normal((M, K, N, N))
    R = scale * (A @ A.conj().transpose(0, 1, 3, 2)) / N
    R[np.array(zero).reshape(M, K)] = 0.0
    return CorrelationSet(R=R)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(correlation_sets(), st.sampled_from((0.0, 1e-4, 0.1, 1.0)))
def test_matches_per_link_reference(corr, pilot_power_w):
    frame = FrameConfig(pilot_power_w=pilot_power_w)
    tensor = mmse_statistics(corr, frame)
    mu, omega = ref_mmse(corr, frame)
    assert tensor.mu.dtype == tensor.omega.dtype == np.float64
    assert_matches(tensor.mu, mu)
    assert_matches(tensor.omega, omega)


@st.composite
def drops_with_requests(draw):
    M, K = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    scen = ScenarioParams(M=M, K=K, N=draw(st.integers(1, 6)), L=1,
                          seed=draw(st.integers(0, 2**32 - 1)),
                          area_side=draw(st.sampled_from((100.0, 500.0, 2000.0))),
                          shadowing_std_db=draw(st.floats(0.0, 8.0)))
    # each request is an (M, K) link mask or a (B, M, K) stack of serving matrices
    shapes = st.one_of(st.just((M, K)), st.integers(1, 3).map(lambda B: (B, M, K)))
    requests = [np.array(draw(st.lists(st.booleans(), min_size=int(np.prod(shape)),
                                       max_size=int(np.prod(shape))))).reshape(shape)
                for shape in draw(st.lists(shapes, max_size=6))]
    corr = build_correlation(generate_topology(scen), FrameConfig())
    return corr, requests


@settings(derandomize=True, max_examples=200, deadline=None)
@given(drops_with_requests(), st.sampled_from((0.0, 1e-4, 0.1)))
def test_links_on_request_match_eager_fill(drop, pilot_power_w):
    corr, requests = drop
    frame = FrameConfig(pilot_power_w=pilot_power_w)
    eager = mmse_statistics(corr, frame)
    mu_ref, omega_ref = eager.mu, eager.omega
    lazy = mmse_statistics(corr, frame)
    asked = np.zeros(mu_ref.shape, dtype=bool)
    assert not lazy.ready.any()
    for wanted in requests:
        mu, omega = lazy.links(wanted)
        asked |= wanted.reshape(-1, *asked.shape).any(axis=0)
        ready = lazy.ready
        assert np.array_equal(ready, asked)
        assert np.array_equal(mu[ready], mu_ref[ready])
        assert np.array_equal(omega[ready], omega_ref[ready])
        assert not mu[~ready].any() and not omega[~ready].any()
    # whole-array reads after a partial fill complete it
    assert np.array_equal(lazy.mu, mu_ref) and np.array_equal(lazy.omega, omega_ref)
    assert lazy.ready.all()


@pytest.mark.parametrize("dtype", [float, complex])
def test_links_filled_piecewise_at_benchmark_size(dtype):
    # N=64, K=10 as in the massive-MIMO benchmark, with dense correlations so
    # that every cross trace sums N^2 nonzero terms: BS 0's links arrive over
    # four requests, BS 1's in one, and each must keep an eager fill's bits
    rng = np.random.default_rng(64)
    A = rng.standard_normal((2, 10, 64, 64)).astype(dtype)
    if dtype is complex:
        A += 1j * rng.standard_normal(A.shape)
    corr = CorrelationSet(R=1e-10 * (A @ A.conj().transpose(0, 1, 3, 2)) / 64)
    eager = mmse_statistics(corr, FrameConfig())
    lazy = mmse_statistics(corr, FrameConfig())
    for m, links in ((0, [3]), (0, [0, 7]), (0, [1, 2, 4, 5, 9]), (0, [6, 8]), (1, range(10))):
        wanted = np.zeros((2, 10), dtype=bool)
        wanted[m, links] = True
        lazy.links(wanted)
    assert lazy.ready.all()
    assert np.array_equal(lazy.mu, eager.mu) and np.array_equal(lazy.omega, eager.omega)
