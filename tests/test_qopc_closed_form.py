"""The QoPC min-max LP's closed form and homotopy agree with a plain LP solve.

`ReducedProblem.qopc` answers from `_balanced_point` when its M-matrix
certificate holds and from `_least_power_point` otherwise. The reference below
is the min-max LP solved with `linprog` on every problem: the feasibility
verdict must always agree and a certified closed form must land on the LP's
point. An uncertified answer is checked against its own optimality
certificate (a primal point, dual multipliers closing the gap, least-element
structure), which does not depend on HiGHS's tolerances.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from greenran import link_coefficients, make_qos
from greenran.powerctl import (_FEAS_TOL, ReducedProblem, _balanced_point,
                               _least_power_point, _minmax)
from conftest import active_count, make_context
from reference import least_power_point_ix

R_MIN = (0.0, 1e6, 5e6, 15e6, 40e6, 100e6, 300e6)


def closed_form(prob):
    """`_balanced_point` on one problem: (P, s), or None without a certificate."""
    p, s, ok = _balanced_point(prob.W[None], prob.c[None], prob.rscale[None], prob.pmax)
    return (p[0], float(s[0])) if ok[0] else None


def least_power(prob):
    return _least_power_point(prob.W, prob.c, prob.rscale, prob.pmax)


def ref_minmax(prob):
    """(P, s) of min s s.t. (W P + c) / rscale <= s, 0 <= P <= pmax."""
    k = len(prob.idx)
    A = np.hstack([prob.W / prob.rscale[:, None], -np.ones((k, 1))])
    obj = np.zeros(k + 1)
    obj[k] = 1.0
    bounds = [(0.0, prob.pmax)] * k + [(None, None)]
    res = linprog(obj, A_ub=A, b_ub=-prob.c / prob.rscale, bounds=bounds, method="highs")
    assert res.success
    return np.clip(res.x[:k], 0.0, prob.pmax), float(res.x[k])


def dual_value(prob, p):
    """Weak-duality bound g(y) = y.c - pmax sum_i max(0, -(W^T y)_i) <= s*.

    The multipliers y >= 0 (y . rscale = 1) come from P's support A: at a cap
    stop on UE i, y_A = (-W_AA)^-T e_i; otherwise y_j = 1 on the tightest zero
    row j and y_A = (-W_AA)^-T W_jA^T, so (W^T y)_A = 0 in both cases.
    """
    W, k = prob.W, len(prob.c)
    A = np.flatnonzero(p > 0)
    y = np.zeros(k)
    if len(A) and p.max() >= prob.pmax * (1 - 1e-12):
        rhs = (A == np.argmax(p)).astype(float)
    else:
        zero = np.setdiff1d(np.arange(k), A)
        j = zero[np.argmax((W[zero] @ p + prob.c[zero]) / prob.rscale[zero])]
        y[j] = 1.0
        rhs = W[j, A]
    if len(A):
        y[A] = np.linalg.solve(-W[np.ix_(A, A)].T, rhs)
    assert (y >= 0).all()
    y /= y @ prob.rscale
    return float(y @ prob.c - prob.pmax * np.maximum(0.0, -(W.T @ y)).sum())


@st.composite
def problems(draw):
    M = draw(st.integers(1, 6))
    K = draw(st.integers(1, 4))
    ctx = make_context(M=M, K=K, N=draw(st.integers(1, 6)), L=draw(st.integers(1, M)),
                       area=draw(st.sampled_from((200.0, 400.0, 800.0))),
                       seed=draw(st.integers(0, 2**16)),
                       shadowing=draw(st.sampled_from((0.0, 8.0))))
    S = np.array(draw(st.lists(st.lists(st.booleans(), min_size=K, max_size=K),
                               min_size=M, max_size=M)), dtype=bool)
    r_min = [draw(st.sampled_from(R_MIN)) for _ in range(K)]
    p_max = 10.0 ** draw(st.floats(-3.0, 0.5))
    qos = make_qos(r_min, K, ctx.frame, p_max)
    lc = link_coefficients(S, ctx.tensor)
    return ReducedProblem(lc, ctx.frame, ctx.form, active_count(S), qos)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problems())
def test_closed_form_matches_lp(prob):
    p, feasible, s = prob.qopc
    if len(prob.idx) == 0:
        assert feasible == (not prob.structurally_infeasible)
        return
    p_ref, s_ref = ref_minmax(prob)
    assert feasible == (s_ref <= _FEAS_TOL and not prob.structurally_infeasible)
    if closed_form(prob) is not None:
        assert np.abs(p - p_ref).max() <= 1e-9 * prob.pmax
        assert abs(s - s_ref) <= 1e-9
        return
    res = (prob.W @ p + prob.c) / prob.rscale
    assert res.max() <= s + 1e-12
    assert s <= ((prob.W @ p_ref + prob.c) / prob.rscale).max() + 1e-12
    assert s - dual_value(prob, p) <= 1e-12
    assert (p <= p_ref + 1e-9 * prob.pmax).all()
    # least element: the support's rows are tight and -W_AA is a nonsingular
    # M-matrix, so (-W_AA)^-1 >= 0; certified without rounding in an inverse
    # by a Z-matrix Z with Z x > 0 for some x > 0
    A = np.flatnonzero(p > 0)
    assert (np.abs(res[A] - s) <= 1e-12).all()
    Z = -prob.W[np.ix_(A, A)]
    x = np.linalg.solve(Z, prob.rscale[A]) if len(A) else np.zeros(0)
    assert (Z - np.diag(np.diag(Z)) <= 0).all() and (x > 0).all() and (Z @ x > 0).all()


@st.composite
def z_matrix_rows(draw):
    """QoS rows (W, c, rscale, pmax) of k <= 10 UEs with W's M-matrix sign
    pattern, couplings that may vanish, and targets from easy to out of reach."""
    k = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.exponential(size=(k, k)) * (rng.random((k, k)) < draw(st.sampled_from((0.3, 1.0))))
    W[np.arange(k), np.arange(k)] = -rng.exponential(size=k) * draw(st.sampled_from((0.5, k, 4 * k)))
    c = rng.exponential(size=k) * (rng.random(k) < 0.9)
    return W, c, np.abs(c) + np.abs(W) @ np.ones(k) + 1e-3, 10.0 ** draw(st.floats(-2.0, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(z_matrix_rows())
def test_homotopy_keeps_the_bits_of_ix_gathers(rows):
    # a gather that comes out Fortran-ordered changes the products' bits
    p, s = _least_power_point(*rows)
    p_ref, s_ref = least_power_point_ix(*rows)
    assert np.array_equal(p, p_ref) and s == s_ref


def test_certificate_holds_on_reachable_targets():
    # two coupled UEs with modest targets: -W is an M-matrix, the balanced point
    # fits the box, and it is the one point that meets the cap with equality
    ctx = make_context(M=4, K=2, N=2, L=2, area=400.0, seed=0)
    S = np.ones((4, 2), dtype=bool)
    lc = link_coefficients(S, ctx.tensor)
    prob = ReducedProblem(lc, ctx.frame, ctx.form, active_count(S), ctx.qos)
    p, s = closed_form(prob)
    assert s < 0 and np.isclose(p.max(), prob.pmax, rtol=1e-12, atol=0.0)
    p_ref, s_ref = ref_minmax(prob)
    assert np.abs(p - p_ref).max() <= 1e-9 * prob.pmax and abs(s - s_ref) <= 1e-9


def test_uncoupled_tight_row_is_not_certified():
    # row 0 sets s* = -0.5 with P_0 = pmax, but it does not see UE 1, so any
    # P_1 in [0.6, 1] is optimal too: the closed form must defer to the LP
    lp = SimpleNamespace(W=np.array([[-1.0, 0.0], [0.0, -1.0]]), c=np.array([0.5, 0.1]),
                         rscale=np.ones(2), pmax=1.0)
    assert closed_form(lp) is None
    lp.W[0, 1] = 0.01
    p, s = closed_form(lp)
    assert np.allclose(p, [1.0, 0.6], rtol=0, atol=1e-2) and s < 0


def test_uncoupled_rows_give_the_least_point():
    # s falls from 0.5: row 0 turns tight first, row 1 at s = 0.1, and UE 0
    # reaches the cap at s* = -0.5, where P_1 = 0.6 is the least optimal power
    lp = SimpleNamespace(W=-np.eye(2), c=np.array([0.5, 0.1]), rscale=np.ones(2), pmax=1.0)
    p, s = least_power(lp)
    assert np.array_equal(p, [1.0, 0.6]) and s == -0.5


def test_non_m_matrix_stops_the_homotopy():
    # row 1 turns tight at s = 1.4 / 3, but with both UEs free -W is not an
    # M-matrix (det < 0): raising P_1 would raise row 0 faster than it lowers
    # row 1, so s* = 1.4 / 3 with P_1 = 0
    lp = SimpleNamespace(W=np.array([[-1.0, 2.0], [2.0, -1.0]]), c=np.array([0.5, 0.4]),
                         rscale=np.ones(2), pmax=1.0, idx=np.arange(2))
    assert closed_form(lp) is None
    p, s = least_power(lp)
    assert s == pytest.approx(1.4 / 3, rel=1e-15)
    assert np.allclose(p, [0.5 - 1.4 / 3, 0.0], rtol=0, atol=1e-15)
    assert s - dual_value(lp, p) <= 1e-15
    p_ref, s_ref = ref_minmax(lp)
    assert abs(s - s_ref) <= 1e-9


def test_zero_row_stops_at_its_level():
    # a served UE with no rate target and no desired signal (zero pilot power)
    # has an all-zero row: it turns tight at s = 0, where -W_AA is singular
    lp = SimpleNamespace(W=np.array([[-1.0, 0.0], [0.0, 0.0]]), c=np.array([0.5, 0.0]),
                         rscale=np.array([1.0, 1e-300]), pmax=1.0)
    p, s = least_power(lp)
    assert s == 0.0 and np.array_equal(p, [0.5, 0.0])


def test_singular_fallbacks_are_harmless():
    # -W has the M-matrix sign pattern but is singular: `_balanced_point`'s
    # inverse fails, so its per-member retry leaves the member uncertified, and
    # `_least_power_point` stops with a bare `break` where both UEs would turn
    # tight. The answer is still the LP's: s* = 0.35, and P = (0.15, 0) is the
    # least element of the optimal face {P_0 - P_1 = 0.15}.
    lp = SimpleNamespace(W=np.array([[-1.0, 1.0], [1.0, -1.0]]), c=np.array([0.5, 0.2]),
                         rscale=np.ones(2), pmax=10.0, idx=np.arange(2))
    assert closed_form(lp) is None
    p, s, feasible = _minmax(lp.W[None], lp.c[None], lp.rscale[None], lp.pmax, False)
    assert not feasible[0]
    p_ref, s_ref = ref_minmax(lp)
    assert s[0] == pytest.approx(0.35, rel=1e-15) and abs(s[0] - s_ref) <= 1e-9
    assert np.allclose(p[0], [0.15, 0.0], rtol=0, atol=1e-15)
    # least element: P is on the face, and no point of the face has a smaller P_j
    assert (lp.W @ p[0] + lp.c <= s[0] * lp.rscale + 1e-15).all()
    for j in range(2):
        least = linprog(np.eye(2)[j], A_ub=lp.W, b_ub=(s[0] + 1e-12) * lp.rscale - lp.c,
                        bounds=[(0.0, lp.pmax)] * 2, method="highs")
        assert least.success and abs(p[0, j] - least.fun) <= 1e-9

    # a certified member stacked beside it keeps the bits it has alone
    W = np.stack([np.array([[-1.0, 0.2], [0.3, -1.0]]), lp.W])
    c = np.stack([np.array([0.1, 0.2]), lp.c])
    together = _minmax(W, c, np.ones((2, 2)), lp.pmax, False)
    assert closed_form(SimpleNamespace(W=W[0], c=c[0], rscale=np.ones(2), pmax=lp.pmax)) \
        is not None
    for t in range(2):
        alone = _minmax(W[t:t + 1], c[t:t + 1], np.ones((1, 2)), lp.pmax, False)
        for got, ref in zip(together, alone):
            assert np.array_equal(got[t], ref[0])
