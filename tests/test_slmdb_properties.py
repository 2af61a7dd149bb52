"""Properties of `slmdb` on small generated instances.

Instances span M 1-4, K 1-3, N 1-4, L <= M, shadowing 0-8 dB, and rate targets
from none up to ones no association can meet. A feasible result must improve
on its start, keep its EE trace nondecreasing, respect the power box and the
rate targets, and come back bitwise the same on a re-run. The surrogate ratio
at its anchor must be bitwise the anchor's EE, which the solver hands each
Dinkelbach loop as its start, and the parametric solver must land on the same
point from a cold start and from its own answer.
No solve may end at the Newton step cap, with an exhausted line search, or on a
least-squares Newton step: damped Newton at the one barrier weight must reach
the center from any interior start.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from greenran import link_coefficients
from greenran.powerctl import (QOS_RATE_RTOL, ReducedProblem, SolveDiagnostics,
                               Surrogate, _solve_parametric, slmdb_solve)
from conftest import active_count, make_context


@st.composite
def instances(draw):
    M = draw(st.integers(1, 4))
    K = draw(st.integers(1, 3))
    L = draw(st.integers(1, M))
    ctx = make_context(
        M=M, K=K, N=draw(st.integers(1, 4)), L=L,
        area=draw(st.floats(150.0, 600.0)), seed=draw(st.integers(0, 2**16)),
        r_min=draw(st.one_of(st.just(0.0), st.floats(1e5, 5e8))),
        shadowing=draw(st.floats(0.0, 8.0)))
    S = np.zeros((M, K), dtype=bool)
    for k in range(K):
        S[sorted(draw(st.sets(st.integers(0, M - 1), min_size=1, max_size=L))), k] = True
    return ctx, S


def solve(ctx, assoc):
    return slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, ctx.form,
                       active_count(assoc), ctx.qos, ctx.settings)


def assert_clean(diag):
    assert (diag.newton_cap_hits, diag.line_search_exhausted, diag.lstsq_fallbacks) == (0, 0, 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances())
def test_feasible_slmdb_properties(instance):
    ctx, assoc = instance
    sol = solve(ctx, assoc)
    if not sol.feasible:
        return
    diag = sol.diagnostics
    assert_clean(diag)
    trace = np.asarray(diag.ee_trace)
    assert sol.ee >= trace[0]
    assert (np.diff(trace) >= -1e-9 * trace[:-1]).all()
    pmax = ctx.qos.p_max_w
    assert (sol.p >= 0).all() and (sol.p <= pmax).all()
    assert (sol.rates >= ctx.qos.r_min_bps * (1 - QOS_RATE_RTOL)).all()

    again = solve(ctx, assoc)
    assert np.array_equal(again.p, sol.p) and np.array_equal(again.rates, sol.rates)
    assert again.ee == sol.ee and again.diagnostics == diag

    if diag.interior_infeasible:
        return
    prob = ReducedProblem(link_coefficients(assoc, ctx.tensor), ctx.frame, ctx.form,
                          sol.n_active, ctx.qos)
    sur = Surrogate(prob, sol.p[prob.idx])
    assert sur.ratio(sur.anchor) == sur.ee    # what _dinkelbach starts from
    pi = max(sur.ratio(sur.anchor), 0.0)
    cold_diag, warm_diag = SolveDiagnostics(), SolveDiagnostics()
    cold = _solve_parametric(sur, pi, np.zeros(len(prob.idx)), cold_diag)    # centered QoPC start
    warm = _solve_parametric(sur, pi, cold, warm_diag)
    assert_clean(cold_diag)
    assert_clean(warm_diag)
    assert np.abs(warm - cold).max(initial=0.0) <= 1e-6 * pmax
