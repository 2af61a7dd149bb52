from dataclasses import replace

import numpy as np
import pytest

from greenran import ConfigError, CorrelationSet, PowerSolution, ScenarioParams
from greenran import matching as matching_module
from greenran.matching import (_candidates, _moves, _pair_order, evaluate,
                               exhaustive_search, is_swap_blocking, llsf_assoc,
                               nos_assoc, recp_init, trimsm, tsap_assoc,
                               verify_stability)
from conftest import make_context, strongest_assoc


def candidate(S, move, ctx):
    """The serving matrix after the move (i, m, n, j), None for none, from a
    candidate stack of one; None when the move does not apply."""
    stack, applies = _candidates(S, np.array([[-1 if v is None else v] for v in move]), ctx)
    return stack[0].copy() if applies[0] else None


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
        assert m[:, 0].tolist() == [True, True, True, False]

    def test_full_share_selects_all_up_to_l(self):
        corr, scen = gains_scenario([[0.4], [0.35], [0.25]], L=3)
        m = recp_init(corr, scen, 100.0)
        assert m[:, 0].all()

    def test_l_one_takes_strongest(self):
        corr, scen = gains_scenario([[0.2], [0.7], [0.1]], L=1)
        m = recp_init(corr, scen, 95.0)
        assert m[:, 0].tolist() == [False, True, False]

    def test_capacity_skips_full_bs(self):
        # one BS, one antenna: only the first UE can take it
        corr, scen = gains_scenario([[0.9, 0.9]], L=1, N=1)
        m = recp_init(corr, scen, 95.0)
        assert m[0].tolist() == [True, False]

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
        assert m[:, 0].tolist() == [False, True, False]

    def test_llsf_tie_lowest_index(self):
        corr, scen = gains_scenario([[0.5], [0.5]], L=2)
        m = llsf_assoc(corr, scen)
        assert m[:, 0].tolist() == [True, False]

    def test_llsf_full_bs_falls_to_next(self):
        corr, scen = gains_scenario([[0.9, 0.8], [0.1, 0.2]], L=2, N=1)
        m = llsf_assoc(corr, scen)
        assert m[:, 0].tolist() == [True, False]
        assert m[:, 1].tolist() == [False, True]

    def test_tsap_single_dominant(self):
        corr, scen = gains_scenario([[1.0], [0.2], [0.1]])
        m = tsap_assoc(corr, scen)
        assert m[:, 0].tolist() == [True, False, False]

    def test_tsap_equal_gains_truncates_to_l(self):
        corr, scen = gains_scenario([[0.3], [0.3], [0.3], [0.3]], L=2)
        m = tsap_assoc(corr, scen)
        assert m[:, 0].sum() == 2
        assert m[:2, 0].all()

    def test_tsap_boundary_inclusive(self):
        corr, scen = gains_scenario([[1.0], [0.3], [0.29]], L=3)
        m = tsap_assoc(corr, scen)
        assert m[:, 0].tolist() == [True, True, False]


class TestMoves:
    def setup_method(self):
        self.ctx = make_context(M=4, K=3, N=2, L=2, seed=1)

    def test_exchange_involution(self):
        S = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
        S1 = candidate(S, (0, 0, 1, 1), self.ctx)
        S2 = candidate(S1, (0, 1, 0, 1), self.ctx)
        assert np.array_equal(S2, S)

    def test_add_respects_caps(self):
        S = np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
        # BS 0 already serves N=2 UEs: add must fail
        assert candidate(S, (2, None, 0, None), self.ctx) is None
        got = candidate(S, (2, None, 1, None), self.ctx)
        assert got[1, 2]

    def test_remove_and_replace(self):
        S = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=bool)
        removed = candidate(S, (0, 0, None, None), self.ctx)
        assert not removed[:, 0].any()
        replaced = candidate(S, (0, 0, 3, None), self.ctx)
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
            got = candidate(matching, (i, m, n, None), ctx)
            if got is not None:
                matching = got
            assert (matching.sum(axis=0) <= ctx.scenario.L).all()
            assert (matching.sum(axis=1) <= ctx.scenario.N).all()


class TestPreferences:
    def test_self_swap_not_approved(self):
        ctx = make_context(M=3, K=2, N=2, L=2, seed=3)
        matching = strongest_assoc(ctx)
        m = int(np.flatnonzero(matching[:, 0])[0])
        # UE 1 would enter the slot UE 0 holds: the move does not apply
        assert candidate(matching, (0, m, m, 1), ctx) is None
        assert not is_swap_blocking(evaluate(matching, "eipc", ctx), None).approved

    def test_qos_breaking_move_not_approved(self):
        # removing a serving BS under full power saves energy (EE rises) but
        # drops the UE below target: the move must not be approved
        ctx = make_context(M=5, K=3, N=2, L=2, area=400.0, seed=3, r_min=20e6)
        matching = recp_init(ctx.corr, ctx.scenario, 95.0)
        before = evaluate(matching, "fipc", ctx)
        assert before.qos_ok
        checked = 0
        for i, j in _pair_order(3):
            moves = _moves(matching, i, j)
            if not moves.size:
                continue
            stack, applies = _candidates(matching, moves, ctx)
            for after in evaluate(stack, "fipc", ctx, applies):
                if after is not None and after.ee > before.ee and not after.qos_ok:
                    assert not is_swap_blocking(before, after).approved
                    checked += 1
        assert checked > 0

    def test_two_ue_toy_agrees_with_direct_comparison(self):
        ctx = make_context(M=2, K=2, N=1, L=1, seed=21)
        S = np.array([[1, 0], [0, 1]], dtype=bool)
        move = (0, 0, 1, 1)
        swapped = candidate(S, move, ctx)
        ev_a = evaluate(S, "slmdb", ctx)
        ev_b = evaluate(swapped, "slmdb", ctx)
        out = is_swap_blocking(ev_a, ev_b)
        expect = (ev_b.qos_ok and ev_a.qos_ok and ev_b.ee > ev_a.ee) \
            or (ev_b.shortfall_bps < ev_a.shortfall_bps) \
            or (ev_b.shortfall_bps == ev_a.shortfall_bps and ev_b.ee > ev_a.ee)
        assert out.approved == expect

    def test_evaluation_cached(self):
        ctx = make_context(M=3, K=2, N=2, L=2, seed=5)
        matching = strongest_assoc(ctx)
        first = evaluate(matching, "eipc", ctx)
        second = evaluate(matching, "eipc", ctx)
        assert first is second

    def test_heuristic_verdicts_surface_infeasibility(self):
        ctx = make_context(M=2, K=2, N=3, L=1, area=500.0, seed=0, r_min=200e6)
        matching = strongest_assoc(ctx, per_ue=1)
        for mode in ("qopc", "fipc", "eipc"):
            res = evaluate(matching, mode, ctx)
            assert not res.qos_ok and res.shortfall_bps > 0
            assert not res.feasible, mode

    def test_heuristic_verdicts_pass_on_reachable_targets(self):
        ctx = make_context(M=4, K=2, N=2, L=2, area=400.0, seed=0)
        matching = strongest_assoc(ctx)
        qopc_res = evaluate(matching, "qopc", ctx)
        assert qopc_res.qos_ok and qopc_res.feasible
        for mode in ("fipc", "eipc"):
            res = evaluate(matching, mode, ctx)
            assert res.feasible == (res.shortfall_bps == 0.0), mode

    def test_slmdb_never_below_fipc(self):
        wins = 0
        for seed in range(6):
            ctx = make_context(M=4, K=2, N=3, L=2, seed=40 + seed)
            matching = strongest_assoc(ctx)
            fi = evaluate(matching, "fipc", ctx)
            sl = evaluate(matching, "slmdb", ctx)
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
            base = evaluate(init, "slmdb", ctx)
            rep = trimsm(ctx, "slmdb")
            if base.qos_ok:
                assert rep.ee >= base.ee * (1 - 1e-9)

    def test_converged_matching_verifies_stable(self):
        ctx = make_context(M=4, K=3, N=2, L=2, seed=77)
        rep = trimsm(ctx, "eipc")
        assert rep.stable
        assert verify_stability(rep.S, "eipc", ctx)

    def test_unstable_matching_detected(self):
        ctx = make_context(M=4, K=3, N=2, L=2, seed=77)
        rep = trimsm(ctx, "eipc")
        # any non-converged matching with an approved move must fail the check
        init = recp_init(ctx.corr, ctx.scenario, 95.0)
        if not np.array_equal(init, rep.S):
            assert not verify_stability(init, "eipc", ctx)

    @pytest.mark.parametrize("mode", ["slmdb", "fipc", "qopc", "eipc"])
    def test_approval_commits_the_evaluated_matching(self, mode, monkeypatch):
        # a pair's scan builds its candidates as one stack per incumbent and the
        # judge sees each member's result; an approval commits that member, so
        # the next judge call's incumbent is the very result approved, and the
        # stacks are built from the init and each approved matching alone
        stacks, judged = [], []
        candidates, judge = matching_module._candidates, matching_module.is_swap_blocking

        def counted_candidates(S, moves, ctx):
            stacks.append((tuple(moves[::3, 0]), S.tobytes()))
            return candidates(S, moves, ctx)

        def counted_judge(before, after):
            outcome = judge(before, after)
            judged.append((before, after, outcome.approved))
            return outcome

        monkeypatch.setattr(matching_module, "_candidates", counted_candidates)
        monkeypatch.setattr(matching_module, "is_swap_blocking", counted_judge)
        ctx = make_context(M=4, K=3, N=2, L=2, seed=77)
        rep = trimsm(ctx, mode)
        approved = [after for _, after, ok in judged if ok]
        assert rep.swap_count == len(approved) > 0
        assert len({S for _, S in stacks}) == 1 + rep.swap_count < len(judged)
        for (_, after, ok), (before, _, _) in zip(judged, judged[1:]):
            if ok:
                assert before is after
        assert evaluate(rep.S, mode, ctx) is approved[-1]
        # a pair's stack is rebuilt only for a new incumbent
        for (pair, S), (next_pair, next_S) in zip(stacks, stacks[1:]):
            assert pair != next_pair or S != next_S

    @pytest.mark.parametrize("mode, count", [("fipc", 91), ("qopc", 82), ("eipc", 83),
                                             ("slmdb", 106)])
    def test_evaluation_count_is_matchings_judged(self, mode, count, monkeypatch):
        # a stack's stacked scoring scores members that no judge reaches once
        # an earlier move is approved; the count is of the judged ones alone
        scored, score = [], matching_module._score
        monkeypatch.setattr(matching_module, "_score",
                            lambda S, *args: scored.append(len(S)) or score(S, *args))
        rep = trimsm(make_context(M=6, K=3, N=3, L=2, seed=13), mode)
        assert rep.evaluation_count == count
        assert sum(scored) > count if mode != "slmdb" else sum(scored) == count

    @pytest.mark.parametrize("mode", ["eipc", "qopc"])
    def test_power_solutions_built_only_for_judged_matchings(self, mode, monkeypatch):
        # the stacked scoring scores members that no judge reaches, yet builds a
        # PowerSolution only for each matching judged and the final slmdb one
        built, init = [], PowerSolution.__init__
        monkeypatch.setattr(PowerSolution, "__init__",
                            lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
        rep = trimsm(make_context(M=6, K=3, N=3, L=2, seed=13), mode)
        assert len(built) == rep.evaluation_count == {"eipc": 83, "qopc": 82}[mode]

    def test_hybrid_final_refinement_runs_slmdb(self):
        ctx = make_context(M=3, K=2, N=2, L=2, seed=13)
        rep = trimsm(ctx, "fipc")
        assert rep.power.diagnostics.slm_iterations >= 1


class TestNoSleep:
    def test_all_bs_active(self):
        ctx = make_context(M=4, K=3, N=3, L=2, seed=30)
        rep = nos_assoc(ctx)
        assert rep.S.any(axis=1).all()

    def test_structurally_infeasible_when_m_exceeds_kl(self):
        ctx = make_context(M=6, K=2, N=3, L=2, seed=31)   # M > K*L = 4
        rep = nos_assoc(ctx)
        assert rep.infeasible

    def test_never_above_sleeping_variant_much(self):
        # sleeping TriMSM should usually win; direction checked in acceptance
        ctx = make_context(M=5, K=2, N=3, L=2, seed=32)
        sleeping = trimsm(ctx, "eipc")
        nos = nos_assoc(replace(ctx))
        assert np.isfinite(nos.ee) and np.isfinite(sleeping.ee)


class TestExhaustive:
    def test_tiny_instance_picks_feasible_max(self):
        ctx = make_context(M=1, K=1, N=1, L=1, area=200.0, seed=1)
        rep = exhaustive_search(ctx)
        assert not rep.infeasible
        assert rep.S[0, 0]

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
