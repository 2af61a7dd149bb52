import numpy as np
import pytest

from greenran import Association, ConfigError, CorrelationSet, ScenarioParams
from greenran import matching as matching_module
from greenran.matching import (_moved, _pair_moves, _pair_order, evaluate,
                               exhaustive_search, is_swap_blocking, llsf_assoc,
                               nos_assoc, recp_init, trimsm, tsap_assoc,
                               verify_stability)
from conftest import make_context, strongest_assoc


def gains_scenario(betas, L=3, N=5):
    betas = np.asarray(betas, dtype=float)
    M, K = betas.shape
    corr = CorrelationSet(gain=betas, N=1)
    scen = ScenarioParams(M=M, K=K, N=N, L=min(L, M), seed=0)
    return corr, scen


class TestRecpInit:
    def test_cumulative_prefix_rule(self):
        corr, scen = gains_scenario([[0.5], [0.3], [0.15], [0.05]], L=3)
        m = recp_init(corr, scen, 95.0)
        assert m.S[:, 0].tolist() == [True, True, True, False]

    def test_full_share_selects_all_up_to_l(self):
        corr, scen = gains_scenario([[0.4], [0.35], [0.25]], L=3)
        m = recp_init(corr, scen, 100.0)
        assert m.S[:, 0].all()

    def test_l_one_takes_strongest(self):
        corr, scen = gains_scenario([[0.2], [0.7], [0.1]], L=1)
        m = recp_init(corr, scen, 95.0)
        assert m.S[:, 0].tolist() == [False, True, False]

    def test_capacity_skips_full_bs(self):
        # one BS, one antenna: only the first UE can take it
        corr, scen = gains_scenario([[0.9, 0.9]], L=1, N=1)
        m = recp_init(corr, scen, 95.0)
        assert m.S[0].tolist() == [True, False]

    def test_delta_bounds(self):
        corr, scen = gains_scenario([[1.0]])
        with pytest.raises(ConfigError):
            recp_init(corr, scen, 0.0)
        with pytest.raises(ConfigError):
            recp_init(corr, scen, 101.0)


class TestBaselineRules:
    def test_llsf_unique_argmax(self):
        corr, scen = gains_scenario([[0.2], [0.7], [0.1]])
        m = llsf_assoc(corr, scen)
        assert m.S[:, 0].tolist() == [False, True, False]

    def test_llsf_tie_lowest_index(self):
        corr, scen = gains_scenario([[0.5], [0.5]], L=2)
        m = llsf_assoc(corr, scen)
        assert m.S[:, 0].tolist() == [True, False]

    def test_llsf_full_bs_falls_to_next(self):
        corr, scen = gains_scenario([[0.9, 0.8], [0.1, 0.2]], L=2, N=1)
        m = llsf_assoc(corr, scen)
        assert m.S[:, 0].tolist() == [True, False]
        assert m.S[:, 1].tolist() == [False, True]

    def test_tsap_single_dominant(self):
        corr, scen = gains_scenario([[1.0], [0.2], [0.1]])
        m = tsap_assoc(corr, scen)
        assert m.S[:, 0].tolist() == [True, False, False]

    def test_tsap_equal_gains_truncates_to_l(self):
        corr, scen = gains_scenario([[0.3], [0.3], [0.3], [0.3]], L=2)
        m = tsap_assoc(corr, scen)
        assert m.S[:, 0].sum() == 2
        assert m.S[:2, 0].all()

    def test_tsap_boundary_inclusive(self):
        corr, scen = gains_scenario([[1.0], [0.3], [0.29]], L=3)
        m = tsap_assoc(corr, scen)
        assert m.S[:, 0].tolist() == [True, True, False]


class TestMoves:
    def setup_method(self):
        self.ctx = make_context(M=4, K=3, N=2, L=2, seed=1)

    def test_exchange_involution(self):
        S = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
        S1 = _moved(S, (0, 0, 1, 1), self.ctx)
        S2 = _moved(S1, (0, 1, 0, 1), self.ctx)
        assert np.array_equal(S2, S)

    def test_add_respects_caps(self):
        S = np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
        # BS 0 already serves N=2 UEs: add must fail
        assert _moved(S, (2, None, 0, None), self.ctx) is None
        got = _moved(S, (2, None, 1, None), self.ctx)
        assert got[1, 2]

    def test_remove_and_replace(self):
        S = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
        removed = _moved(S, (0, 0, None, None), self.ctx)
        assert not removed[:, 0].any()
        replaced = _moved(S, (0, 0, 3, None), self.ctx)
        assert replaced[3, 0] and not replaced[0, 0]

    def test_constraints_preserved_under_random_moves(self):
        rng = np.random.default_rng(5)
        ctx = self.ctx
        matching = recp_init(ctx.corr, ctx.scenario, 95.0)
        kinds = ["add", "remove", "replace"]
        for _ in range(200):
            kind = kinds[rng.integers(0, 3)]
            i = int(rng.integers(0, 3))
            m = int(rng.integers(0, 4)) if kind != "add" else None
            n = int(rng.integers(0, 4)) if kind != "remove" else None
            got = _moved(matching.S, (i, m, n, None), ctx)
            if got is not None:
                matching = Association(S=got)
            assert (matching.S.sum(axis=0) <= ctx.scenario.L).all()
            assert (matching.S.sum(axis=1) <= ctx.scenario.N).all()
            assert np.array_equal(matching.A, matching.S.any(axis=1))


class TestPreferences:
    def test_self_swap_not_approved(self):
        ctx = make_context(M=3, K=2, N=2, L=2, seed=3)
        matching = strongest_assoc(ctx)
        m = int(np.flatnonzero(matching.S[:, 0])[0])
        out = is_swap_blocking(matching, _moved(matching.S, (0, m, m, 1), ctx), "eipc", ctx)
        assert not out.approved and out.matching is None

    def test_qos_breaking_move_not_approved(self):
        # removing a serving BS under full power saves energy (EE rises) but
        # drops the UE below target: the move must not be approved
        ctx = make_context(M=5, K=3, N=2, L=2, area=400.0, seed=3, r_min=20e6)
        matching = recp_init(ctx.corr, ctx.scenario, 95.0)
        before = evaluate(matching.S, "fipc", ctx)
        assert before.qos_ok
        checked = 0
        for i, j in _pair_order(3):
            for move in _pair_moves(matching.S, i, j):
                swapped = _moved(matching.S, move, ctx)
                if swapped is None:
                    continue
                after = evaluate(swapped, "fipc", ctx)
                if after.ee > before.ee and not after.qos_ok:
                    out = is_swap_blocking(matching, swapped, "fipc", ctx)
                    assert not out.approved
                    checked += 1
        assert checked > 0

    def test_two_ue_toy_agrees_with_direct_comparison(self):
        ctx = make_context(M=2, K=2, N=1, L=1, seed=21)
        S = np.array([[1, 0], [0, 1]], dtype=bool)
        matching = Association(S=S)
        move = (0, 0, 1, 1)
        swapped = _moved(matching.S, move, ctx)
        out = is_swap_blocking(matching, swapped, "slmdb", ctx)
        ev_a = evaluate(matching.S, "slmdb", ctx)
        ev_b = evaluate(swapped, "slmdb", ctx)
        expect = (ev_b.qos_ok and ev_a.qos_ok and ev_b.ee > ev_a.ee) \
            or (ev_b.shortfall_bps < ev_a.shortfall_bps) \
            or (ev_b.shortfall_bps == ev_a.shortfall_bps and ev_b.ee > ev_a.ee)
        assert out.approved == expect
        if expect:
            assert np.array_equal(out.matching.S, swapped)

    def test_evaluation_cached(self):
        ctx = make_context(M=3, K=2, N=2, L=2, seed=5)
        matching = strongest_assoc(ctx)
        first = evaluate(matching.S, "eipc", ctx)
        second = evaluate(matching.S, "eipc", ctx)
        assert first is second

    def test_heuristic_verdicts_surface_infeasibility(self):
        ctx = make_context(M=2, K=2, N=3, L=1, area=500.0, seed=0, r_min=200e6)
        matching = strongest_assoc(ctx, per_ue=1)
        for mode in ("qopc", "fipc", "eipc"):
            res = evaluate(matching.S, mode, ctx)
            assert not res.qos_ok and res.shortfall_bps > 0
            assert not res.feasible, mode

    def test_heuristic_verdicts_pass_on_reachable_targets(self):
        ctx = make_context(M=4, K=2, N=2, L=2, area=400.0, seed=0)
        matching = strongest_assoc(ctx)
        qopc_res = evaluate(matching.S, "qopc", ctx)
        assert qopc_res.qos_ok and qopc_res.feasible
        for mode in ("fipc", "eipc"):
            res = evaluate(matching.S, mode, ctx)
            assert res.feasible == (res.shortfall_bps == 0.0), mode

    def test_slmdb_never_below_fipc(self):
        wins = 0
        for seed in range(6):
            ctx = make_context(M=4, K=2, N=3, L=2, seed=40 + seed)
            matching = strongest_assoc(ctx)
            fi = evaluate(matching.S, "fipc", ctx)
            sl = evaluate(matching.S, "slmdb", ctx)
            if fi.qos_ok:
                assert sl.ee >= fi.ee * (1 - 1e-9)
                wins += 1
        assert wins > 0


class TestTrimsm:
    def test_single_link_terminates_stable(self):
        ctx = make_context(M=1, K=1, N=1, L=1, area=200.0, seed=2)
        rep = trimsm(ctx, "eipc")
        assert rep.stable
        assert not rep.infeasible

    def test_monotone_over_init_with_slmdb_mode(self):
        for seed in (0, 1, 2):
            ctx = make_context(M=4, K=3, N=2, L=2, seed=60 + seed)
            init = recp_init(ctx.corr, ctx.scenario, 95.0)
            base = evaluate(init.S, "slmdb", ctx)
            rep = trimsm(ctx, "slmdb")
            if base.qos_ok:
                assert rep.ee >= base.ee * (1 - 1e-9)

    def test_converged_matching_verifies_stable(self):
        ctx = make_context(M=4, K=3, N=2, L=2, seed=77)
        rep = trimsm(ctx, "eipc")
        assert rep.stable
        assert verify_stability(rep.matching, "eipc", ctx)

    def test_unstable_matching_detected(self):
        ctx = make_context(M=4, K=3, N=2, L=2, seed=77)
        rep = trimsm(ctx, "eipc")
        # any non-converged matching with an approved move must fail the check
        init = recp_init(ctx.corr, ctx.scenario, 95.0)
        if not np.array_equal(init.S, rep.matching.S):
            assert not verify_stability(init, "eipc", ctx)

    @pytest.mark.parametrize("mode", ["slmdb", "fipc", "qopc", "eipc"])
    def test_approval_commits_the_evaluated_matching(self, mode, monkeypatch):
        # a pair's scan builds each candidate once per incumbent and hands that
        # matrix to the judge; an approval commits it, so an Association is
        # built only for the init and each approval, never per scanned move
        built, approvals = [], []
        seen, candidates = set(), []    # of the current pair's scan
        pair_moves, moved = matching_module._pair_moves, matching_module._moved
        scan = matching_module.is_swap_blocking

        class CountedAssociation(Association):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        def counted_pair_moves(*args):
            seen.clear()
            candidates.clear()
            return pair_moves(*args)

        def counted_moved(S, move, ctx):
            key = (S.tobytes(), move)
            assert key not in seen, key
            seen.add(key)
            out = moved(S, move, ctx)
            candidates.append(out)
            return out

        def counted_scan(matching, swapped, *args):
            assert swapped is None or any(swapped is c for c in candidates)
            outcome = scan(matching, swapped, *args)
            if outcome.approved:
                assert outcome.matching.S is swapped
            approvals.append(outcome.approved)
            return outcome

        monkeypatch.setattr(matching_module, "Association", CountedAssociation)
        monkeypatch.setattr(matching_module, "_pair_moves", counted_pair_moves)
        monkeypatch.setattr(matching_module, "_moved", counted_moved)
        monkeypatch.setattr(matching_module, "is_swap_blocking", counted_scan)
        ctx = make_context(M=4, K=3, N=2, L=2, seed=77)
        rep = trimsm(ctx, mode)
        assert rep.swap_count == sum(approvals) > 0
        assert len(built) == 1 + rep.swap_count < len(approvals)

    @pytest.mark.parametrize("mode, count", [("fipc", 91), ("qopc", 82), ("eipc", 83),
                                             ("slmdb", 106)])
    def test_evaluation_count_is_matchings_judged(self, mode, count, monkeypatch):
        # the lookahead scores matchings that no judge asks about once an
        # earlier move is approved; the count is of the judged ones alone
        scored, score = [], matching_module._score
        monkeypatch.setattr(matching_module, "_score",
                            lambda S, *args: scored.append(len(S)) or score(S, *args))
        rep = trimsm(make_context(M=6, K=3, N=3, L=2, seed=13), mode)
        assert rep.evaluation_count == count
        assert sum(scored) > count if mode != "slmdb" else sum(scored) == count

    def test_hybrid_final_refinement_runs_slmdb(self):
        ctx = make_context(M=3, K=2, N=2, L=2, seed=13)
        rep = trimsm(ctx, "fipc")
        assert rep.power.diagnostics.slm_iterations >= 1


class TestNoSleep:
    def test_all_bs_active(self):
        ctx = make_context(M=4, K=3, N=3, L=2, seed=30)
        rep = nos_assoc(ctx)
        assert rep.matching.S.any(axis=1).all()

    def test_structurally_infeasible_when_m_exceeds_kl(self):
        ctx = make_context(M=6, K=2, N=3, L=2, seed=31)   # M > K*L = 4
        rep = nos_assoc(ctx)
        assert rep.infeasible

    def test_never_above_sleeping_variant_much(self):
        # sleeping TriMSM should usually win; direction checked in acceptance
        ctx = make_context(M=5, K=2, N=3, L=2, seed=32)
        sleeping = trimsm(ctx, "eipc")
        nos = nos_assoc(ctx.clone())
        assert np.isfinite(nos.ee) and np.isfinite(sleeping.ee)


class TestExhaustive:
    def test_tiny_instance_picks_feasible_max(self):
        ctx = make_context(M=1, K=1, N=1, L=1, area=200.0, seed=1)
        rep = exhaustive_search(ctx)
        assert not rep.infeasible
        assert rep.matching.S[0, 0]

    def test_guard_rejects_large_instances(self):
        ctx = make_context(M=6, K=3, N=3, L=2, seed=0)
        with pytest.raises(ConfigError):
            exhaustive_search(ctx)

    def test_oracle_dominates_matcher(self):
        ctx = make_context(M=3, K=2, N=2, L=2, area=300.0, seed=9)
        oracle = exhaustive_search(ctx)
        rep = trimsm(ctx, "slmdb")
        assert oracle.ee >= rep.ee * (1 - 1e-9)

    def test_candidate_count_two_by_two(self):
        # M=2, K=2, L=N=2: all 16 binary matrices are admissible
        ctx = make_context(M=2, K=2, N=2, L=2, area=250.0, seed=4)
        rep = exhaustive_search(ctx)
        assert rep.evaluation_count == 16
