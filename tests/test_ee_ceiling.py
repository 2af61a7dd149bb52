"""`powerctl.ee_ceiling` bounds the EE of every result the swap judge can
approve against an incumbent that meets QoS.

Over generated drops (K from 1 to 10, rate targets of 0, reachable and out of
reach, with and without shadowing and no-sleeping) and random serving stacks,
every result of each power mode with zero shortfall must have an EE within
its member's ceiling, taken at the active-BS count the mode scored it at.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from greenran import link_coefficients
from greenran.matching import POWER_MODES, _active_counts, _score
from greenran.powerctl import ee_ceiling
from conftest import make_context


@st.composite
def stacks(draw):
    M = draw(st.integers(1, 6))
    K = draw(st.integers(1, 10))
    ctx = make_context(
        M=M, K=K, N=draw(st.integers(1, K)), L=draw(st.integers(1, M)),
        area=draw(st.floats(150.0, 600.0)), seed=draw(st.integers(0, 2**16)),
        r_min=draw(st.one_of(st.just(0.0), st.floats(1e4, 1e7), st.floats(1e7, 5e7),
                             st.floats(3e8, 3e9))),
        shadowing=draw(st.sampled_from([0.0, 8.0])))
    ctx = replace(ctx, no_sleep=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    return ctx, rng.random((draw(st.integers(1, 3)), M, K)) < density


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stacks())
def test_results_meeting_qos_stay_within_the_ceiling(case):
    ctx, S = case
    ceiling = ee_ceiling(link_coefficients(S, ctx.tensor), ctx.frame, ctx.form,
                         _active_counts(S, ctx), ctx.qos)
    assert ceiling.shape == (len(S),) and (ceiling >= 0).all()
    for mode in POWER_MODES:
        member = _score(S, mode, ctx)
        for b in range(len(S)):
            res = member(b)
            if res.shortfall_bps == 0.0:
                assert res.ee <= ceiling[b], (mode, b)
