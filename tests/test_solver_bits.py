"""The solver's direct LAPACK calls and hoisted constants keep np.linalg's bits.

`powerctl._lapack` calls the gufuncs behind `np.linalg.solve` and
`np.linalg.inv` without their wrappers; it must return their bits and raise
their LinAlgError on a singular matrix. `slmdb_solve` must return the point,
rates, EE and every diagnostic of `reference.slmdb_reference`, the same solver
written through numpy's wrappers, over problems of 1 to 10 served UEs: with
and without rate targets, with targets out of reach, with an unserved UE that
has a target, and with targets set to the rates at full power, where the
QoS set has no strict interior.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.linalg import LinAlgError, _umath_linalg

from greenran import link_coefficients, make_qos
from greenran.rates import rates_from_coeffs
from greenran.powerctl import _lapack, slmdb_solve
from conftest import active_count, make_context
from reference import slmdb_reference


def systems(rng, k, stack=()):
    """Well-scaled and badly scaled float64 systems (..., k, k) with right-hand sides."""
    a = rng.standard_normal(stack + (k, k)) * 10.0 ** rng.uniform(-6, 6, stack + (k, k))
    a += np.eye(k) * rng.uniform(0.0, 2.0) * np.abs(a).max()
    return a, rng.standard_normal(stack + (k,)), rng.standard_normal(stack + (k, 2))


def same_bits(got, ref):
    return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("k", range(1, 11))
def test_lapack_matches_linalg(k):
    rng = np.random.default_rng(k)
    for stack in ((), (1,), (3,)):
        for _ in range(40):
            a, b, bb = systems(rng, k, stack)
            assert same_bits(_lapack(_umath_linalg.inv, a), np.linalg.inv(a))
            assert same_bits(_lapack(_umath_linalg.solve, a, bb), np.linalg.solve(a, bb))
            if not stack:    # np.linalg.solve takes a vector right-hand side only as 1-D
                assert same_bits(_lapack(_umath_linalg.solve1, a, b), np.linalg.solve(a, b))


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_lapack_singular_raises(k):
    a = np.ones((k, k))
    a[0] = 0.0
    cases = ((_umath_linalg.inv, np.linalg.inv, (a,)),
             (_umath_linalg.inv, np.linalg.inv, (np.stack([np.eye(k), a]),)),
             (_umath_linalg.solve1, np.linalg.solve, (a, np.ones(k))),
             (_umath_linalg.solve, np.linalg.solve, (a, np.ones((k, 2)))))
    for gufunc, wrapper, args in cases:
        with pytest.raises(LinAlgError):
            wrapper(*args)
        with pytest.raises(LinAlgError):
            _lapack(gufunc, *args)
    # the error state is restored: a later invalid operation only warns
    with pytest.warns(RuntimeWarning):
        np.log(-np.ones(1))


@st.composite
def problems(draw):
    M = draw(st.integers(1, 4))
    K = draw(st.integers(1, 10))
    ctx = make_context(M=M, K=K, N=draw(st.integers(1, 3)), L=M,
                       area=draw(st.floats(150.0, 600.0)), seed=draw(st.integers(0, 2**16)),
                       r_min=0.0, shadowing=draw(st.floats(0.0, 8.0)))
    S = np.zeros((M, K), dtype=bool)
    unserved = draw(st.sets(st.integers(0, K - 1), max_size=2))
    for k in set(range(K)) - unserved:
        S[sorted(draw(st.sets(st.integers(0, M - 1), min_size=1, max_size=M))), k] = True
    lc = link_coefficients(S, ctx.tensor)
    target = draw(st.sampled_from(["none", "drawn", "edge", "beyond"]))
    if target == "drawn":
        r_min = draw(st.floats(1e5, 5e8))
    elif target == "none":
        r_min = 0.0
    else:    # the rates at full power, where no strictly feasible power is left
        full = rates_from_coeffs(np.where(lc.served, ctx.qos.p_max_w, 0.0), lc, ctx.frame)
        r_min = full * (1.0 if target == "edge" else 1.5)
    qos = make_qos(r_min, K, ctx.frame, ctx.qos.p_max_w)
    return lc, ctx.frame, ctx.form, active_count(S), qos, ctx.settings


def diagnostics_bits(diag):
    return (diag.slm_iterations, np.array(diag.ee_trace).tobytes(),
            [np.array(trace).tobytes() for trace in diag.pi_traces], diag.newton_steps,
            diag.hit_iteration_cap, diag.lstsq_fallbacks, diag.line_search_exhausted,
            diag.newton_cap_hits, diag.interior_infeasible)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(problems())
def test_slmdb_keeps_the_reference_bits(problem):
    got, ref = slmdb_solve(*problem), slmdb_reference(*problem)
    assert same_bits(got.p, ref.p) and same_bits(got.rates, ref.rates)
    assert np.float64(got.ee).tobytes() == np.float64(ref.ee).tobytes()
    assert (got.feasible, got.shortfall_bps, got.qos_violations) == \
        (ref.feasible, ref.shortfall_bps, ref.qos_violations)
    assert diagnostics_bits(got.diagnostics) == diagnostics_bits(ref.diagnostics)
