"""`link_coefficients` from the gains against the assembly over the full
second moments.

`greenran.link_coefficients` takes the interference as one product of the live
serving weights with the gains, and each UE's own terms from (M, K) sums.
`reference.omega_link_coefficients` sums the (M, K, K) second moments that
`reference.expand` builds from the same tensor. Every weight is 0 or 1, so each
product is exact, and the two must agree bitwise. Generated cases cover single
serving matrices and stacks of up to 40, serving patterns from sparse to full,
K = 1, dead links (zero pilot power, and live links killed at random) and the
massive-MIMO size M = 128, K = 10, N = 64.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from greenran import (CoefficientTensor, FrameConfig, ScenarioParams, build_correlation,
                      generate_topology, link_coefficients, mmse_statistics)
from reference import expand, omega_link_coefficients


@st.composite
def cases(draw):
    if draw(st.integers(0, 4)) == 0:
        M, K, N = 128, 10, 64
    else:
        M, K, N = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    scen = ScenarioParams(M=M, K=K, N=N, L=1, seed=draw(st.integers(0, 2**32 - 1)),
                          area_side=draw(st.sampled_from((100.0, 500.0, 2000.0))),
                          shadowing_std_db=draw(st.floats(0.0, 8.0)))
    frame = FrameConfig(pilot_power_w=draw(st.sampled_from((0.0, 1e-9, 0.1))))
    t = mmse_statistics(build_correlation(generate_topology(scen)), frame)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dead = rng.random((M, K)) < draw(st.sampled_from((0.0, 0.3)))
    tensor = CoefficientTensor(mu=np.where(dead, 0.0, t.mu), gain=t.gain,
                               live=np.where(dead, 0.0, t.live), own=np.where(dead, 0.0, t.own))
    members = draw(st.sampled_from((None, 1, 2, 7, 40)))
    shape = (M, K) if members is None else (members, M, K)
    return tensor, rng.random(shape) < draw(st.sampled_from((0.05, 0.3, 0.7, 1.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases())
def test_matches_the_second_moment_assembly(case):
    tensor, S = case
    got = link_coefficients(S, tensor)
    ref = omega_link_coefficients(S, expand(tensor))
    for name in ("ds2", "interf", "ns"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def test_dead_link_sees_nothing():
    # BS 0 serves UE 0 over a dead link: UE 1 at BS 0 adds no interference
    tensor = CoefficientTensor(mu=np.array([[0.0, 2.0]]), gain=np.array([[1.0, 3.0]]),
                               live=np.array([[0.0, 1.0]]), own=np.array([[0.0, 7.0]]))
    lc = link_coefficients(np.ones((1, 2), dtype=bool), tensor)
    assert np.array_equal(lc.interf, [[0.0, 0.0], [1.0, 7.0]])
    assert np.array_equal(lc.ds2, [0.0, 4.0]) and np.array_equal(lc.ns, [1.0, 1.0])
    assert np.array_equal(expand(tensor).omega, [[[0.0, 0.0], [1.0, 7.0]]])
