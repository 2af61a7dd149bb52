"""One stacked scoring call against scoring each matching alone.

`evaluate` on a stack scores every cache miss among the matchings in one call:
link coefficients, powers, rates and EE are stacked, and QoPC's closed form is
stacked per served set. Every member must come back bitwise the result of
scoring it alone in a fresh cache, in every power mode. Generated drops span
M 1-6, K 1-4, valid L and N, shadowing 0-8 dB, power caps over three decades
and per-UE rate targets from none to ones no association meets. Matchings are
any serving matrices, so members leave UEs unserved (structurally infeasible
under a target), repeat, share a served set, and fail QoPC's M-matrix
certificate. A crafted tensor adds a member whose -W is singular, which fails
a stacked inverse for its whole stack.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from greenran.matching import POWER_MODES, evaluate
from greenran.powerctl import QosSpec, ReducedProblem, _balanced_point
from greenran.rates import link_coefficients
from greenran.statistics import CoefficientTensor
from conftest import make_context

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
    # BS permutations of the first matching share its served set, and so its stack
    for _ in range(draw(st.integers(0, 3))):
        matchings.append(matchings[0][draw(st.permutations(range(M)))])
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
    # each member is scored under the one form its context holds for its active count
    stacked = replace(ctx)
    together = list(evaluate(np.array(matchings), mode, stacked, np.ones(len(matchings), bool)))
    assert len(together) == len(matchings)
    for S, got in zip(matchings, together):
        alone = replace(ctx)
        one = evaluate(S, mode, alone)
        assert_same(got, one)
        n_active = int(S.any(axis=1).sum())
        assert got.form is stacked.form_for(n_active) and one.form is alone.form_for(n_active)


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
    ctx = replace(base, tensor=CoefficientTensor(mu=mu, omega=omega),
                  qos=QosSpec(r_min_bps=np.full(2, base.frame.rate_scale),
                              gamma=np.ones(2), p_max_w=0.1))
    singular = np.array([[1, 1], [0, 0]], dtype=bool)
    lc = link_coefficients(singular, ctx.tensor)
    prob = ReducedProblem(lc, ctx.frame, None, ctx.qos)
    assert np.array_equal(prob.W, [[-1.0, 1.0], [1.0, -1.0]])
    _, _, certified = _balanced_point(prob.W[None], prob.c[None], prob.rscale[None], prob.pmax)
    assert not certified[0]
    others = [np.array(S, dtype=bool) for S in ([[0, 0], [1, 1]], [[1, 0], [0, 1]],
                                                [[0, 1], [1, 0]], [[1, 1], [1, 1]])]
    for mode in POWER_MODES:
        assert_stacked_equals_alone(ctx, mode, [others[0], singular] + others[1:])
