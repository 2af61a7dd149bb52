"""One stacked scoring call against scoring each matching alone.

`evaluate` on a stack scores every cache miss among the matchings in one call:
link coefficients, powers, rates and EE are stacked, and QoPC's closed form is
stacked per served set. Every member must come back bitwise the result of
scoring it alone in a fresh cache, in every power mode, under the drop's one
power form at the member's active-BS count (all M under no-sleeping).
Generated drops span M 1-6, K 1-4, valid L and N, shadowing 0-8 dB, power caps
over three decades, per-UE rate targets from none to ones no association
meets, and sleeping allowed or not. Matchings are
any serving matrices, up to 40 in a stack, so members leave UEs unserved
(structurally infeasible under a target), repeat, share a served set, and pass
or fail QoPC's M-matrix certificate. A crafted tensor adds a member whose -W
is singular, which fails a stacked inverse for its whole stack.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from greenran.matching import POWER_MODES, evaluate
from greenran.powerctl import QosSpec, ReducedProblem, _balanced_point
from greenran.rates import link_coefficients
from conftest import active_count, make_context
from reference import SecondMoments, gain_form

R_MIN = (0.0, 1e6, 10e6, 40e6, 200e6)


@st.composite
def drops(draw):
    M = draw(st.integers(1, 6))
    K = draw(st.integers(1, 4))
    ctx = make_context(M=M, K=K, N=draw(st.integers(1, 6)), L=draw(st.integers(1, M)),
                       area=draw(st.sampled_from((200.0, 400.0, 800.0))),
                       seed=draw(st.integers(0, 2**16)),
                       r_min=np.array([draw(st.sampled_from(R_MIN)) for _ in range(K)]),
                       p_max=10.0 ** draw(st.floats(-3.0, 0.5)),
                       shadowing=draw(st.sampled_from((0.0, 8.0))))
    cells = st.lists(st.booleans(), min_size=M * K, max_size=M * K)
    matchings = [np.array(c, dtype=bool).reshape(M, K)
                 for c in draw(st.lists(cells, min_size=1, max_size=8))]
    # BS permutations of a matching share its served set, and so its group in
    # QoPC's stack: up to 40 members over several served sets, as the scan builds
    bases = len(matchings)
    for _ in range(draw(st.integers(0, 32))):
        base = matchings[draw(st.integers(0, bases - 1))]
        matchings.append(base[draw(st.permutations(range(M)))])
    ctx = replace(ctx, no_sleep=draw(st.booleans()))
    return ctx, draw(st.sampled_from(POWER_MODES)), matchings


def assert_same(got, alone):
    assert np.array_equal(got.ee, alone.ee, equal_nan=True)
    assert got.shortfall_bps == alone.shortfall_bps
    assert got.qos_ok == alone.qos_ok
    assert got.qos_violations == alone.qos_violations
    assert np.array_equal(got.p, alone.p, equal_nan=True)
    assert np.array_equal(got.rates, alone.rates, equal_nan=True)
    assert got.feasible == alone.feasible


def assert_stacked_equals_alone(ctx, mode, matchings):
    stacked = replace(ctx)
    together = list(evaluate(np.array(matchings), mode, stacked, np.ones(len(matchings), bool)))
    assert len(together) == len(matchings)
    for S, got in zip(matchings, together):
        alone = replace(ctx)
        one = evaluate(S, mode, alone)
        assert_same(got, one)
        assert got.form is one.form is ctx.form
        n_active = ctx.scenario.M if ctx.no_sleep else int(S.any(axis=1).sum())
        assert got.n_active == one.n_active == n_active


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drops())
def test_stacked_scoring_matches_one_at_a_time(drop):
    assert_stacked_equals_alone(*drop)


def test_singular_member_is_scored_as_alone():
    # both UEs on BS 0, with unit gains and unit SINR targets: W = [[-1, 1], [1, -1]]
    # has the M-matrix sign pattern but -W is singular; the other matchings
    # serve both UEs too, so they share its stack
    mu = np.ones((2, 2))
    omega = np.array([[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]]])
    base = make_context(M=2, K=2, N=2, L=2)
    ctx = replace(base, tensor=gain_form(SecondMoments(mu=mu, omega=omega)),
                  qos=QosSpec(r_min_bps=np.full(2, base.frame.rate_scale),
                              gamma=np.ones(2), p_max_w=0.1))
    singular = np.array([[1, 1], [0, 0]], dtype=bool)
    lc = link_coefficients(singular, ctx.tensor)
    prob = ReducedProblem(lc, ctx.frame, ctx.form, active_count(singular), ctx.qos)
    assert np.array_equal(prob.W, [[-1.0, 1.0], [1.0, -1.0]])
    _, _, certified = _balanced_point(prob.W[None], prob.c[None], prob.rscale[None], prob.pmax)
    assert not certified[0]
    others = [np.array(S, dtype=bool) for S in ([[0, 0], [1, 1]], [[1, 0], [0, 1]],
                                                [[0, 1], [1, 0]], [[1, 1], [1, 1]])]
    for mode in POWER_MODES:
        assert_stacked_equals_alone(ctx, mode, [others[0], singular] + others[1:])
