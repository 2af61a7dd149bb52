import numpy as np
import pytest

from greenran import (InfeasibleError, SolverSettings, build_affine_form,
                      dinkelbach, link_coefficients, slmdb, solve_parametric)
from greenran import powerctl
from greenran.powerctl import ReducedProblem, SolveDiagnostics, _solve_parametric
from conftest import make_context, strongest_assoc


def build_problem(ctx, assoc, settings=None):
    form = build_affine_form(assoc, ctx.bs_config, ctx.system)
    lc = link_coefficients(assoc, ctx.tensor)
    prob = ReducedProblem(lc, ctx.frame, form, ctx.qos, settings or ctx.settings)
    return prob, form


def pinned_slmdb(p0=None):
    """The well-posed M=4, K=2 instance the Newton-budget tests pin."""
    ctx = make_context(M=4, K=2, N=2, L=2, area=400.0, seed=0)
    assoc = strongest_assoc(ctx)
    form = build_affine_form(assoc, ctx.bs_config, ctx.system)
    return slmdb(assoc, ctx.tensor, ctx.frame, form, ctx.qos, ctx.settings, p0=p0)


def grid_best_scalar(prob, form, n=100001):
    g = np.linspace(0.0, prob.pmax, n)[1:]
    af = prob.Af[0, 0] * g + prob.n[0]
    ag = prob.Ag[0, 0] * g + prob.n[0]
    rates = prob.cr * (np.log2(af) - np.log2(ag))
    res = prob.W[0, 0] * g + prob.c[0]
    pn = form.c0_w + form.alpha_per_k[prob.idx[0]] * rates / form.r_ref_bps \
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
        sur = prob.surrogate(anchor)
        for pi in (0.0, 2e5, 1e6, 5e6):
            diag = SolveDiagnostics()
            p = _solve_parametric(sur, pi, ctx.settings, None, diag)
            # vectorized surrogate objective over the grid
            g = np.linspace(0.0, 0.1, 200001)[1:]
            af = prob.Af[0, 0] * g + prob.n[0]
            ag = prob.Ag[0, 0] * g + prob.n[0]
            f_hat = sur.f0[0] + sur.vf[0, 0] * (g - anchor[0])
            g_hat = sur.g0[0] + sur.vg[0, 0] * (g - anchor[0])
            r_bar = prob.cr * (np.log2(af) - g_hat)
            r_hat = prob.cr * (f_hat - np.log2(ag))
            pn = form.c0_w + form.alpha_per_k[0] * r_hat / form.r_ref_bps \
                + form.delta_per_k[0] * g
            u = r_bar - pi * pn
            mask = prob.W[0, 0] * g + prob.c[0] <= 0
            u = np.where(mask, u, -np.inf)
            assert p[0] == pytest.approx(g[np.argmax(u)], abs=1e-4 * 0.1)

    def test_feasible_point_returned(self):
        ctx = make_context(M=3, K=2, N=4, L=2, area=300.0, seed=7, r_min=15e6)
        assoc = strongest_assoc(ctx)
        form = build_affine_form(assoc, ctx.bs_config, ctx.system)
        anchor = np.full(2, 0.05)
        p = solve_parametric(1e5, anchor, assoc, ctx.tensor, ctx.frame, form,
                             ctx.qos, ctx.settings)
        assert (p >= 0).all() and (p <= 0.1).all()
        lc = link_coefficients(assoc, ctx.tensor)
        prob = ReducedProblem(lc, ctx.frame, form, ctx.qos, ctx.settings)
        assert (prob.residual(prob.reduce(p)) <= ctx.settings.inner_tol).all()

    def test_infeasible_region_raises(self):
        ctx = make_context(M=2, K=2, N=3, L=1, area=500.0, seed=0, r_min=200e6)
        assoc = strongest_assoc(ctx, per_ue=1)
        form = build_affine_form(assoc, ctx.bs_config, ctx.system)
        with pytest.raises(InfeasibleError):
            solve_parametric(0.0, np.zeros(2), assoc, ctx.tensor, ctx.frame,
                             form, ctx.qos, ctx.settings)

    def test_warm_round_lands_on_cold_solution(self):
        # a warm Dinkelbach round starts at the final barrier weight from the
        # previous round's solution; it must reach the same maximizer
        for seed in range(5):
            ctx = make_context(M=4, K=2, N=2, L=2, area=400.0, seed=seed)
            prob, _ = build_problem(ctx, strongest_assoc(ctx))
            anchor = np.full(len(prob.idx), 0.05)
            sur = prob.surrogate(anchor)
            prev = _solve_parametric(sur, sur.ratio(anchor), ctx.settings, None,
                                     SolveDiagnostics())
            pi = sur.ratio(prev)
            warm = _solve_parametric(sur, pi, ctx.settings, prev, SolveDiagnostics(),
                                     warm=True)
            cold = _solve_parametric(sur, pi, ctx.settings, None, SolveDiagnostics())
            assert np.abs(warm - cold).max() <= 1e-6 * prob.pmax

    def test_objective_concavity_along_segments(self):
        ctx = make_context(M=3, K=3, N=4, L=2, area=300.0, seed=5)
        assoc = strongest_assoc(ctx)
        prob, form = build_problem(ctx, assoc)
        sur = prob.surrogate(np.full(3, 0.05))
        from greenran.powerctl import _Parametric
        obj = _Parametric(sur, 1e6)
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.random(3) * 0.1
            b = rng.random(3) * 0.1
            mid = 0.5 * (a + b)
            assert obj.value(mid) >= 0.5 * (obj.value(a) + obj.value(b)) - 1e-9


class TestDinkelbach:
    def test_fixed_point_terminates_immediately(self):
        ctx = make_context(M=2, K=1, N=4, L=2, area=250.0, seed=3)
        assoc = strongest_assoc(ctx)
        st = SolverSettings(slm_tol=1e-9, slm_max_iter=500)
        form = build_affine_form(assoc, ctx.bs_config, ctx.system)
        sol = slmdb(assoc, ctx.tensor, ctx.frame, form, ctx.qos, st)
        # re-anchor at the converged point: the ratio update is a fixed point
        p_star, pi_star = dinkelbach(sol.p, assoc, ctx.tensor, ctx.frame, form,
                                     ctx.qos, ctx.settings)
        assert pi_star == pytest.approx(sol.ee, rel=1e-4)

    def test_scalar_ratio_matches_grid(self):
        ctx = make_context(M=2, K=1, N=4, L=2, area=250.0, seed=9)
        assoc = strongest_assoc(ctx)
        prob, form = build_problem(ctx, assoc)
        anchor = np.array([0.05])
        p, pi = dinkelbach(anchor, assoc, ctx.tensor, ctx.frame, form,
                           ctx.qos, ctx.settings)
        sur = prob.surrogate(anchor)
        g = np.linspace(1e-7, 0.1, 100001)
        ratios = np.array([sur.ratio(np.array([x])) for x in g[::100]])
        assert pi == pytest.approx(ratios.max(), rel=1e-3)

    def test_pi_traces_nondecreasing(self):
        for seed in range(20):
            ctx = make_context(M=4, K=3, N=4, L=2, area=320.0, seed=seed)
            assoc = strongest_assoc(ctx)
            form = build_affine_form(assoc, ctx.bs_config, ctx.system)
            sol = slmdb(assoc, ctx.tensor, ctx.frame, form, ctx.qos, ctx.settings)
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
            form = build_affine_form(assoc, ctx.bs_config, ctx.system)
            sol = slmdb(assoc, ctx.tensor, ctx.frame, form, ctx.qos, ctx.settings)
            if not sol.feasible:
                continue
            t = np.asarray(sol.diagnostics.ee_trace)
            assert (np.diff(t) >= -1e-9 * t[:-1]).all()

    def test_stationary_start_single_iteration(self):
        ctx = make_context(M=2, K=1, N=4, L=2, area=250.0, seed=3)
        assoc = strongest_assoc(ctx)
        form = build_affine_form(assoc, ctx.bs_config, ctx.system)
        st = SolverSettings(slm_tol=1e-8, slm_max_iter=3000)
        sol = slmdb(assoc, ctx.tensor, ctx.frame, form, ctx.qos, st)
        again = slmdb(assoc, ctx.tensor, ctx.frame, form, ctx.qos,
                      ctx.settings, p0=sol.p)
        assert again.diagnostics.slm_iterations == 1
        assert again.ee == pytest.approx(sol.ee, rel=1e-6)

    def test_scalar_instance_matches_grid(self):
        ctx = make_context(M=1, K=1, N=4, L=1, area=200.0, seed=17)
        assoc = strongest_assoc(ctx, per_ue=1)
        st = SolverSettings(slm_tol=1e-8, slm_max_iter=3000)
        prob, form = build_problem(ctx, assoc, st)
        sol = slmdb(assoc, ctx.tensor, ctx.frame, form, ctx.qos, st)
        best, arg = grid_best_scalar(prob, form)
        assert sol.ee == pytest.approx(best, rel=1e-3)

    def test_infeasible_verdict_propagates(self):
        ctx = make_context(M=2, K=2, N=3, L=1, area=500.0, seed=0, r_min=200e6)
        assoc = strongest_assoc(ctx, per_ue=1)
        form = build_affine_form(assoc, ctx.bs_config, ctx.system)
        sol = slmdb(assoc, ctx.tensor, ctx.frame, form, ctx.qos, ctx.settings)
        assert not sol.feasible
        assert np.isfinite(sol.ee)

    def test_respects_box_and_qos(self):
        ctx = make_context(M=4, K=3, N=4, L=2, area=300.0, seed=23, r_min=15e6)
        assoc = strongest_assoc(ctx)
        form = build_affine_form(assoc, ctx.bs_config, ctx.system)
        sol = slmdb(assoc, ctx.tensor, ctx.frame, form, ctx.qos, ctx.settings)
        if sol.feasible:
            assert (sol.p >= 0).all() and (sol.p <= ctx.qos.p_max_w).all()
            assert (sol.rates >= ctx.qos.r_min_bps * (1 - 1e-6)).all()

    def test_newton_budget(self):
        # the log-barrier solver before centered cold starts and warm rounds
        # at the final barrier weight took 598 Newton steps on this instance
        sol = pinned_slmdb()
        assert sol.feasible
        assert sol.diagnostics.slm_iterations == 12
        assert sol.diagnostics.newton_steps <= 598 // 2

    def test_no_fallbacks_on_well_posed_instance(self):
        sol = pinned_slmdb()
        diag = sol.diagnostics
        assert sol.feasible and diag.newton_steps > 0
        assert diag.lstsq_fallbacks == 0
        assert diag.line_search_exhausted == 0
        assert diag.newton_cap_hits == 0
        assert not diag.interior_infeasible

    def test_swallowed_interior_failure_is_flagged(self, monkeypatch):
        start = pinned_slmdb().p

        def no_interior(*args, **kwargs):
            raise InfeasibleError("no strict interior")

        monkeypatch.setattr(powerctl, "_dinkelbach", no_interior)
        sol = pinned_slmdb(p0=start)
        assert sol.feasible and sol.diagnostics.interior_infeasible
        assert np.array_equal(sol.p, start)

    def test_unserved_ue_with_target_infeasible(self):
        ctx = make_context(M=2, K=2, N=3, L=1, area=300.0, seed=2, r_min=10e6)
        S = np.zeros((2, 2), dtype=bool)
        S[0, 0] = True   # UE 1 left unserved
        from greenran import Association
        assoc = Association(S=S)
        form = build_affine_form(assoc, ctx.bs_config, ctx.system)
        sol = slmdb(assoc, ctx.tensor, ctx.frame, form, ctx.qos, ctx.settings)
        assert not sol.feasible
        assert sol.p[1] == 0.0
