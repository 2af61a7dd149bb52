"""The QoPC min-max LP's closed form agrees with a plain LP solve.

`_qopc_on_problem` answers from `_balanced_point` when its M-matrix
certificate holds and from HiGHS otherwise. The reference below is the
min-max LP solved with `linprog` on every problem: the feasibility verdict
must always agree, a certified closed form must land on the LP's point, and
an uncertified problem must give exactly the LP's answer.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from greenran import Association, link_coefficients, make_qos
from greenran.powerctl import ReducedProblem, _balanced_point, _qopc_on_problem
from conftest import make_context

R_MIN = (0.0, 1e6, 5e6, 15e6, 40e6, 100e6, 300e6)


def ref_minmax(prob):
    """(P, s) of min s s.t. (W P + c) / rscale <= s, 0 <= P <= pmax; None on failure."""
    k = len(prob.idx)
    A = np.hstack([prob.W / prob.rscale[:, None], -np.ones((k, 1))])
    obj = np.zeros(k + 1)
    obj[k] = 1.0
    bounds = [(0.0, prob.pmax)] * k + [(None, None)]
    res = linprog(obj, A_ub=A, b_ub=-prob.c / prob.rscale, bounds=bounds, method="highs")
    if not res.success or res.x is None:
        return None
    return np.clip(res.x[:k], 0.0, prob.pmax), float(res.x[k])


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
    lc = link_coefficients(Association(S=S), ctx.tensor)
    return ReducedProblem(lc, ctx.frame, None, qos, ctx.settings)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problems())
def test_closed_form_matches_lp(prob):
    p, feasible, s = _qopc_on_problem(prob)
    if len(prob.idx) == 0:
        assert feasible == (not prob.structurally_infeasible)
        return
    ref = ref_minmax(prob)
    closed = _balanced_point(prob)
    if ref is None:
        assert closed is None
        assert not feasible and s == np.inf and np.array_equal(p, np.zeros(len(prob.idx)))
        return
    p_ref, s_ref = ref
    assert feasible == (s_ref <= prob.settings.feas_tol and not prob.structurally_infeasible)
    if closed is not None:
        assert np.abs(p - p_ref).max() <= 1e-9 * prob.pmax
        assert abs(s - s_ref) <= 1e-9
    else:
        assert np.array_equal(p, p_ref) and s == s_ref


def test_certificate_holds_on_reachable_targets():
    # two coupled UEs with modest targets: -W is an M-matrix, the balanced point
    # fits the box, and it is the one point that meets the cap with equality
    ctx = make_context(M=4, K=2, N=2, L=2, area=400.0, seed=0)
    S = np.ones((4, 2), dtype=bool)
    lc = link_coefficients(Association(S=S), ctx.tensor)
    prob = ReducedProblem(lc, ctx.frame, None, ctx.qos, ctx.settings)
    p, s = _balanced_point(prob)
    assert s < 0 and np.isclose(p.max(), prob.pmax, rtol=1e-12, atol=0.0)
    p_ref, s_ref = ref_minmax(prob)
    assert np.abs(p - p_ref).max() <= 1e-9 * prob.pmax and abs(s - s_ref) <= 1e-9


def test_uncoupled_tight_row_is_not_certified():
    # row 0 sets s* = -0.5 with P_0 = pmax, but it does not see UE 1, so any
    # P_1 in [0.6, 1] is optimal too: the closed form must defer to the LP
    lp = SimpleNamespace(W=np.array([[-1.0, 0.0], [0.0, -1.0]]), c=np.array([0.5, 0.1]),
                         rscale=np.ones(2), pmax=1.0)
    assert _balanced_point(lp) is None
    lp.W[0, 1] = 0.01
    p, s = _balanced_point(lp)
    assert np.allclose(p, [1.0, 0.6], rtol=0, atol=1e-2) and s < 0
