import numpy as np
import pytest

from greenran import InfeasibleError, SolverSettings, link_coefficients
from greenran import powerctl
from greenran.powerctl import (ReducedProblem, SolveDiagnostics, Surrogate, _dinkelbach,
                               _solve_parametric, slmdb_solve)
from conftest import active_count, make_context, qopc_alone, strongest_assoc
from reference import parametric_value, residual


def build_problem(ctx, assoc):
    lc = link_coefficients(assoc, ctx.tensor)
    prob = ReducedProblem(lc, ctx.frame, ctx.form, active_count(assoc), ctx.qos)
    return prob, ctx.form


def pinned_instance():
    """The well-posed M=4, K=2 instance the Newton-budget tests pin."""
    ctx = make_context(M=4, K=2, N=2, L=2, area=400.0, seed=0)
    return ctx, strongest_assoc(ctx)


def pinned_slmdb():
    ctx, assoc = pinned_instance()
    return slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame,
                       ctx.form, active_count(assoc), ctx.qos, ctx.settings)


def cold_solve(sur, pi):
    """`_solve_parametric` from P = 0, on the box boundary, which it replaces by
    the centered QoPC start."""
    return _solve_parametric(sur, pi, np.zeros(len(sur.prob.idx)), SolveDiagnostics())


def dinkelbach_ratio(prob, anchor):
    """The largest surrogate ratio one Dinkelbach run from `anchor` reaches."""
    diag = SolveDiagnostics()
    _dinkelbach(prob, anchor, prob.ee(anchor), diag)
    return max(diag.pi_traces[0])


def grid_best_scalar(prob, form, n=100001):
    g = np.linspace(0.0, prob.pmax, n)[1:]
    af = prob.Af[0, 0] * g + prob.n[0]
    ag = prob.Ag[0, 0] * g + prob.n[0]
    rates = prob.cr * (np.log2(af) - np.log2(ag))
    res = prob.W[0, 0] * g + prob.c[0]
    pn = prob.c0 + form.alpha_per_k[prob.idx[0]] * rates / form.r_ref_bps \
        + form.delta_per_k[prob.idx[0]] * g
    ee = np.where(res <= 0, rates / pn, -np.inf)
    i = int(np.argmax(ee))
    return ee[i], g[i]


class TestParametricSolver:
    def test_matches_scalar_oracle_over_pi(self):
        ctx = make_context(M=2, K=1, N=4, L=2, area=250.0, seed=3)
        assoc = strongest_assoc(ctx)
        prob, form = build_problem(ctx, assoc)
        anchor = np.array([0.06])
        sur = Surrogate(prob, anchor)
        for pi in (0.0, 2e5, 1e6, 5e6):
            p = cold_solve(sur, pi)
            # vectorized surrogate objective over the grid
            g = np.linspace(0.0, 0.1, 200001)[1:]
            af = prob.Af[0, 0] * g + prob.n[0]
            ag = prob.Ag[0, 0] * g + prob.n[0]
            f_hat = sur.f0[0] + sur.vf[0, 0] * (g - anchor[0])
            g_hat = sur.g0[0] + sur.vg[0, 0] * (g - anchor[0])
            r_bar = prob.cr * (np.log2(af) - g_hat)
            r_hat = prob.cr * (f_hat - np.log2(ag))
            pn = prob.c0 + form.alpha_per_k[0] * r_hat / form.r_ref_bps \
                + form.delta_per_k[0] * g
            u = r_bar - pi * pn
            mask = prob.W[0, 0] * g + prob.c[0] <= 0
            u = np.where(mask, u, -np.inf)
            assert p[0] == pytest.approx(g[np.argmax(u)], abs=1e-4 * 0.1)

    def test_feasible_point_returned(self):
        ctx = make_context(M=3, K=2, N=4, L=2, area=300.0, seed=7, r_min=15e6)
        prob, _ = build_problem(ctx, strongest_assoc(ctx))
        sur = Surrogate(prob, np.full(len(prob.idx), 0.05))
        p = cold_solve(sur, 1e5)
        assert (p >= 0).all() and (p <= 0.1).all()
        assert (residual(prob, p) <= 1e-8).all()

    def test_infeasible_region_raises(self):
        ctx = make_context(M=2, K=2, N=3, L=1, area=500.0, seed=0, r_min=200e6)
        prob, _ = build_problem(ctx, strongest_assoc(ctx, per_ue=1))
        sur = Surrogate(prob, np.zeros(len(prob.idx)))
        with pytest.raises(InfeasibleError):
            cold_solve(sur, 0.0)

    def test_warm_round_lands_on_cold_solution(self):
        # a Dinkelbach round starts from the previous round's solution; damped
        # Newton at the one barrier weight must reach the cold solve's maximizer
        for seed in range(5):
            ctx = make_context(M=4, K=2, N=2, L=2, area=400.0, seed=seed)
            prob, _ = build_problem(ctx, strongest_assoc(ctx))
            anchor = np.full(len(prob.idx), 0.05)
            sur = Surrogate(prob, anchor)
            prev = cold_solve(sur, sur.ratio(anchor))
            pi = sur.ratio(prev)
            warm = _solve_parametric(sur, pi, prev, SolveDiagnostics())
            cold = cold_solve(sur, pi)
            assert np.abs(warm - cold).max() <= 1e-6 * prob.pmax

    def test_objective_concavity_along_segments(self):
        ctx = make_context(M=3, K=3, N=4, L=2, area=300.0, seed=5)
        assoc = strongest_assoc(ctx)
        prob, form = build_problem(ctx, assoc)
        sur = Surrogate(prob, np.full(3, 0.05))
        def u(p):
            return parametric_value(sur, 1e6, p)
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.random(3) * 0.1
            b = rng.random(3) * 0.1
            mid = 0.5 * (a + b)
            assert u(mid) >= 0.5 * (u(a) + u(b)) - 1e-9


class TestInteriorPoint:
    def test_strict_interior_before_any_qopc_call(self):
        ctx = make_context(M=3, K=2, N=4, L=2, area=300.0, seed=7, r_min=15e6)
        prob, _ = build_problem(ctx, strongest_assoc(ctx))
        assert "qopc" not in vars(prob)
        p = prob.interior_point()
        assert (p > 0).all() and (p < prob.pmax).all()
        assert prob.margin(p) < 0
        assert (p > 1e-12 * prob.pmax).all() and (p < (1 - 1e-12) * prob.pmax).all()
        assert prob.margin(p) < -1e-12

    def test_empty_polytope_raises(self):
        ctx = make_context(M=2, K=2, N=3, L=1, area=500.0, seed=0, r_min=200e6)
        prob, _ = build_problem(ctx, strongest_assoc(ctx, per_ue=1))
        with pytest.raises(InfeasibleError):
            prob.interior_point()

    def test_single_point_polytope_raises(self):
        # p_max set to the single link's power threshold: the QoS polytope is
        # the one point P = p_max, feasible but without an interior
        ctx = make_context(M=1, K=1, N=4, L=1, area=300.0, seed=500, r_min=10e6)
        assoc = strongest_assoc(ctx, per_ue=1)
        lc = link_coefficients(assoc, ctx.tensor)
        gam = ctx.qos.gamma[0]
        denom = (1 + gam) * lc.ds2[0] - gam * lc.interf[0, 0]
        assert denom > 0
        threshold = gam * ctx.frame.noise_power_w * lc.ns[0] / denom
        qos = powerctl.QosSpec(r_min_bps=ctx.qos.r_min_bps, gamma=ctx.qos.gamma,
                               p_max_w=threshold)
        prob = ReducedProblem(lc, ctx.frame, None, None, qos)
        with pytest.raises(InfeasibleError):
            prob.interior_point()

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(powerctl, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(powerctl, name, counting)
        return calls

    def test_slmdb_solves_one_lp_per_problem(self, monkeypatch):
        # the min-max LP is solved once per ReducedProblem; on this QoS-feasible
        # instance its closed form is certified, so the homotopy never runs
        solves = self.count_calls(monkeypatch, "_balanced_point")
        lps = self.count_calls(monkeypatch, "_least_power_point")
        sol = pinned_slmdb()
        assert sol.feasible and sol.diagnostics.newton_steps > 0
        assert len(solves) == 1
        assert len(lps) == 0

    def test_infeasible_targets_fall_back_to_one_lp(self, monkeypatch):
        ctx = make_context(M=2, K=2, N=3, L=1, area=500.0, seed=0, r_min=200e6)
        assoc = strongest_assoc(ctx, per_ue=1)
        n = active_count(assoc)
        solves = self.count_calls(monkeypatch, "_balanced_point")
        lps = self.count_calls(monkeypatch, "_least_power_point")
        sol = slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, ctx.form, n,
                          ctx.qos, ctx.settings)
        assert not sol.feasible
        assert len(solves) == 1
        assert len(lps) == 1


class TestDinkelbach:
    def test_fixed_point_terminates_immediately(self):
        ctx = make_context(M=2, K=1, N=4, L=2, area=250.0, seed=3)
        assoc = strongest_assoc(ctx)
        st = SolverSettings(slm_tol=1e-9, slm_max_iter=500)
        prob, form = build_problem(ctx, assoc)
        sol = slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, form, prob.n_active,
                          ctx.qos, st)
        # re-anchor at the converged point: the ratio update is a fixed point
        pi_star = dinkelbach_ratio(prob, sol.p[prob.idx])
        assert pi_star == pytest.approx(sol.ee, rel=1e-4)

    def test_scalar_ratio_matches_grid(self):
        ctx = make_context(M=2, K=1, N=4, L=2, area=250.0, seed=9)
        assoc = strongest_assoc(ctx)
        prob, form = build_problem(ctx, assoc)
        anchor = np.array([0.05])
        pi = dinkelbach_ratio(prob, anchor)
        sur = Surrogate(prob, anchor)
        g = np.linspace(1e-7, 0.1, 100001)
        ratios = np.array([sur.ratio(np.array([x])) for x in g[::100]])
        assert pi == pytest.approx(ratios.max(), rel=1e-3)

    def test_pi_traces_nondecreasing(self):
        for seed in range(20):
            ctx = make_context(M=4, K=3, N=4, L=2, area=320.0, seed=seed)
            assoc = strongest_assoc(ctx)
            n = active_count(assoc)
            sol = slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, ctx.form, n,
                              ctx.qos, ctx.settings)
            if not sol.feasible:
                continue
            for trace in sol.diagnostics.pi_traces:
                t = np.asarray(trace)
                assert (np.diff(t) >= -1e-7 * np.abs(t[:-1])).all()


class TestSlmdb:
    def test_monotone_ee_trace(self):
        for seed in range(10):
            ctx = make_context(M=4, K=3, N=4, L=2, area=320.0, seed=100 + seed)
            assoc = strongest_assoc(ctx)
            n = active_count(assoc)
            sol = slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, ctx.form, n,
                              ctx.qos, ctx.settings)
            if not sol.feasible:
                continue
            t = np.asarray(sol.diagnostics.ee_trace)
            assert (np.diff(t) >= -1e-9 * t[:-1]).all()

    def test_stationary_start_single_iteration(self):
        # one SLM round anchored at the optimum ends the loop: its EE does not
        # rise past slm_tol, and it stays at the optimum's EE
        ctx = make_context(M=2, K=1, N=4, L=2, area=250.0, seed=3)
        assoc = strongest_assoc(ctx)
        prob, form = build_problem(ctx, assoc)
        st = SolverSettings(slm_tol=1e-8, slm_max_iter=3000)
        sol = slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, form, prob.n_active,
                          ctx.qos, st)
        anchor = sol.p[prob.idx]
        p = _dinkelbach(prob, anchor, prob.ee(anchor), SolveDiagnostics())
        ee, ee_prev = prob.ee(p), prob.ee(anchor)
        assert (ee - ee_prev) / ee_prev <= ctx.settings.slm_tol
        assert ee == pytest.approx(sol.ee, rel=1e-6)

    def test_scalar_instance_matches_grid(self):
        ctx = make_context(M=1, K=1, N=4, L=1, area=200.0, seed=17)
        assoc = strongest_assoc(ctx, per_ue=1)
        st = SolverSettings(slm_tol=1e-8, slm_max_iter=3000)
        prob, form = build_problem(ctx, assoc)
        sol = slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, form, prob.n_active,
                          ctx.qos, st)
        best, arg = grid_best_scalar(prob, form)
        assert sol.ee == pytest.approx(best, rel=1e-3)

    def test_infeasible_verdict_propagates(self):
        ctx = make_context(M=2, K=2, N=3, L=1, area=500.0, seed=0, r_min=200e6)
        assoc = strongest_assoc(ctx, per_ue=1)
        n = active_count(assoc)
        sol = slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, ctx.form, n,
                          ctx.qos, ctx.settings)
        assert not sol.feasible
        assert np.isfinite(sol.ee)

    def test_respects_box_and_qos(self):
        ctx = make_context(M=4, K=3, N=4, L=2, area=300.0, seed=23, r_min=15e6)
        assoc = strongest_assoc(ctx)
        n = active_count(assoc)
        sol = slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, ctx.form, n,
                          ctx.qos, ctx.settings)
        if sol.feasible:
            assert (sol.p >= 0).all() and (sol.p <= ctx.qos.p_max_w).all()
            assert (sol.rates >= ctx.qos.r_min_bps * (1 - 1e-6)).all()

    def test_newton_budget(self):
        # the log-barrier solver took 598 Newton steps on this instance before
        # centered cold starts and warm rounds at the final barrier weight,
        # and 124 while cold solves still followed the central path; every
        # solve at the one final weight takes 96
        sol = pinned_slmdb()
        assert sol.feasible
        assert sol.diagnostics.slm_iterations == 12
        assert sol.diagnostics.newton_steps <= 96

    def test_no_fallbacks_on_well_posed_instance(self):
        sol = pinned_slmdb()
        diag = sol.diagnostics
        assert sol.feasible and diag.newton_steps > 0
        assert diag.lstsq_fallbacks == 0
        assert diag.line_search_exhausted == 0
        assert diag.newton_cap_hits == 0
        assert not diag.interior_infeasible

    def test_swallowed_interior_failure_is_flagged(self, monkeypatch):
        # the solve starts from the QoPC point and keeps it
        ctx, assoc = pinned_instance()
        start, feasible = qopc_alone(assoc, ctx)
        assert feasible

        def no_interior(*args, **kwargs):
            raise InfeasibleError("no strict interior")

        monkeypatch.setattr(powerctl, "_dinkelbach", no_interior)
        sol = pinned_slmdb()
        assert sol.feasible and sol.diagnostics.interior_infeasible
        assert np.array_equal(sol.p, start)

    def test_unserved_ue_with_target_infeasible(self):
        ctx = make_context(M=2, K=2, N=3, L=1, area=300.0, seed=2, r_min=10e6)
        S = np.zeros((2, 2), dtype=bool)
        S[0, 0] = True   # UE 1 left unserved
        n = active_count(S)
        sol = slmdb_solve(link_coefficients(S, ctx.tensor), ctx.frame, ctx.form, n,
                          ctx.qos, ctx.settings)
        assert not sol.feasible
        assert sol.p[1] == 0.0

    def test_empty_association_returns_at_once(self):
        ctx = make_context(M=2, K=2, N=3, L=1, area=300.0, seed=2, r_min=0.0)
        assoc = np.zeros((2, 2), dtype=bool)
        n = active_count(assoc)
        sol = slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, ctx.form, n,
                          ctx.qos, ctx.settings)
        assert sol.feasible and sol.ee == 0.0
        assert np.array_equal(sol.p, np.zeros(2))
        assert sol.diagnostics.slm_iterations == 0
        assert not sol.diagnostics.hit_iteration_cap


def halving_loop(rz):
    """(trial, scale) of the first halving that keeps every slack positive, as
    the line search found it by testing each scale in turn; None past 60 trials."""
    scale = 1.0
    for trial in range(60):
        if (scale * rz).min() > -1:
            return trial, scale
        scale *= 0.5
    return None


class TestLineSearchStart:
    @staticmethod
    def cases():
        yield np.array([-1.0, 0.3])
        for j in range(64):
            for f in (1.0, 1 - 2.0**-52, 1 + 2.0**-52):
                yield np.array([0.5, -f * 2.0**j, -0.25])
        rng = np.random.default_rng(11)
        yield np.array([-1 + 2.0**-53, 0.0, 7.0])
        yield rng.uniform(-1.0, 5.0, size=9) * (1 - 2.0**-52)
        for _ in range(200):
            yield -np.ldexp(rng.random(5), rng.integers(-3, 64, size=5))
        yield np.array([0.1, np.nan, -3.0])
        yield np.array([np.nan, 0.1])
        yield np.array([-(2.0**60) * 1.5, 0.0])
        yield np.array([-1e300, -2.0])
        yield np.array([-np.inf, 1.0])

    def test_skip_matches_halving_loop(self):
        for rz in self.cases():
            j = powerctl._halvings(float(rz.min()))
            found = halving_loop(rz)
            if found is None:
                assert j >= powerctl._LS_TRIALS, rz
            else:
                assert j == found[0], rz
                assert np.ldexp(1.0, -j) == found[1]
