from itertools import combinations

import numpy as np
import pytest

from greenran import (ConfigError, CorrelationSet, FrameConfig, eipc,
                      fipc, link_coefficients, make_qos)
from greenran.powerctl import ReducedProblem
from conftest import active_count, make_context, qopc_alone, strongest_assoc
from reference import residual


class TestFipc:
    def test_constant_vector(self):
        qos = make_qos(0.0, 3, FrameConfig(), 0.1)
        assert fipc(3, qos).tolist() == [0.1, 0.1, 0.1]

    def test_independent_of_channel(self):
        qos = make_qos(20e6, 5, FrameConfig(), 0.2)
        assert (fipc(5, qos) == 0.2).all()


@pytest.mark.parametrize("p_max", [float("nan"), float("inf"), 0.0])
def test_qos_spec_rejects_a_nonfinite_cap(p_max):
    with pytest.raises(ConfigError, match="p_max_w"):
        make_qos(20e6, 2, FrameConfig(), p_max)


class TestEipc:
    def test_equal_gains_full_power(self):
        corr = CorrelationSet(gain=np.array([[1e-10, 1e-10]]), N=2)
        assoc = np.ones((1, 2), dtype=bool)
        qos = make_qos(0.0, 2, FrameConfig(), 0.1)
        assert np.allclose(eipc(assoc, corr, qos), [0.1, 0.1])

    def test_inverse_gain_ratio(self):
        # squared serving-gain norms 1 and 4 (up to a common scale)
        corr = CorrelationSet(gain=np.array([[1e-10, 2e-10]]), N=1)
        assoc = np.ones((1, 2), dtype=bool)
        qos = make_qos(0.0, 2, FrameConfig(), 0.1)
        p = eipc(assoc, corr, qos)
        assert p[0] == pytest.approx(0.1)
        assert p[1] == pytest.approx(0.1 / 4)

    def test_weakest_served_ue_gets_cap(self):
        ctx = make_context(M=4, K=3, N=3, L=2, seed=6)
        assoc = strongest_assoc(ctx)
        p = eipc(assoc, ctx.corr, ctx.qos)
        gains = np.where(assoc, ctx.corr.N * ctx.corr.gain, 0.0)
        g2 = (gains**2).sum(axis=0)
        assert p[np.argmin(g2)] == pytest.approx(ctx.qos.p_max_w)
        assert (p <= ctx.qos.p_max_w + 1e-15).all()

    def test_unserved_ue_gets_zero(self):
        corr = CorrelationSet(gain=np.array([[1e-10, 2e-10]]), N=1)
        S = np.array([[True, False]])
        qos = make_qos(0.0, 2, FrameConfig(), 0.1)
        p = eipc(S, corr, qos)
        assert p[1] == 0.0 and p[0] == pytest.approx(0.1)


def feasibility_by_vertex_enumeration(prob):
    """Exact oracle: the bounded polytope {0 <= P <= pmax, r(P) <= 0} is
    nonempty iff one of its candidate vertices satisfies every constraint."""
    k = len(prob.idx)
    planes = [("qos", i) for i in range(k)] + \
             [("lo", i) for i in range(k)] + [("hi", i) for i in range(k)]
    for subset in combinations(planes, k):
        A = np.zeros((k, k))
        b = np.zeros(k)
        for row, (kind, i) in enumerate(subset):
            if kind == "qos":
                A[row] = prob.W[i]
                b[row] = -prob.c[i]
            elif kind == "lo":
                A[row, i] = 1.0
                b[row] = 0.0
            else:
                A[row, i] = 1.0
                b[row] = prob.pmax
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        scale = np.maximum(prob.rscale, 1e-300)
        if ((x >= -1e-9 * prob.pmax).all() and (x <= prob.pmax * (1 + 1e-9)).all()
                and ((prob.W @ x + prob.c) / scale <= 1e-7).all()):
            return True
    return False


class TestQopc:
    def test_zero_gamma_feasible(self):
        ctx = make_context(M=3, K=2, N=3, L=2, seed=4, r_min=0.0)
        assoc = strongest_assoc(ctx)
        p, ok = qopc_alone(assoc, ctx)
        assert ok
        prob = ReducedProblem(link_coefficients(assoc, ctx.tensor), ctx.frame, ctx.form,
                              active_count(assoc), ctx.qos)
        assert (residual(prob, p[prob.idx]) <= 0).all()
        # P = 0 itself satisfies the constraints when gamma = 0
        assert (residual(prob, np.zeros(2)) <= 0).all()

    def test_single_link_analytic_threshold(self):
        # r(P) <= 0  <=>  P >= gamma sigma^2 / ((1+gamma) mu^2 - gamma omega)
        hits = 0
        for trial in range(40):
            ctx = make_context(M=1, K=1, N=4, L=1, area=300.0,
                               seed=500 + trial, r_min=(10 + trial) * 1e6)
            assoc = np.ones((1, 1), dtype=bool)
            lc = link_coefficients(assoc, ctx.tensor)
            gam = ctx.qos.gamma[0]
            denom = (1 + gam) * lc.ds2[0] - gam * lc.interf[0, 0]
            sigma2 = ctx.frame.noise_power_w
            if denom > 0:
                threshold = gam * sigma2 * lc.ns[0] / denom
                analytic = threshold <= ctx.qos.p_max_w
            else:
                analytic = False
            _, ok = qopc_alone(assoc, ctx)
            assert ok == analytic, trial
            hits += analytic
        assert 0 < hits < 40   # the sample contains both verdicts

    def test_verdict_matches_vertex_oracle(self):
        agree_feasible = 0
        agree_infeasible = 0
        for trial in range(30):
            K = 2 + trial % 2
            ctx = make_context(M=4, K=K, N=3, L=2, area=700.0,
                               seed=900 + trial, r_min=30e6)
            assoc = strongest_assoc(ctx)
            lc = link_coefficients(assoc, ctx.tensor)
            p, ok = qopc_alone(assoc, ctx)
            prob = ReducedProblem(lc, ctx.frame, ctx.form, active_count(assoc), ctx.qos)
            oracle = feasibility_by_vertex_enumeration(prob)
            assert ok == oracle, trial
            agree_feasible += ok
            agree_infeasible += not ok
        assert agree_feasible > 0 and agree_infeasible > 0

    def test_returned_point_attains_min_max_residual(self):
        ctx = make_context(M=3, K=2, N=3, L=2, seed=14, r_min=20e6)
        assoc = strongest_assoc(ctx)
        lc = link_coefficients(assoc, ctx.tensor)
        p, ok = qopc_alone(assoc, ctx)
        prob = ReducedProblem(lc, ctx.frame, ctx.form, active_count(assoc), ctx.qos)
        attained = np.max(residual(prob, p[prob.idx]) / prob.rscale)
        # no random candidate does better than the LP optimum
        rng = np.random.default_rng(0)
        for _ in range(500):
            cand = rng.random(2) * 0.1
            val = np.max(residual(prob, cand) / prob.rscale)
            assert val >= attained - 1e-9
