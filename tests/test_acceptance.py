"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines as they
complete. Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import time
from dataclasses import replace

import numpy as np

from greenran import (FrameConfig, ScenarioParams, SolverSettings, build_affine_form,
                      build_correlation, generate_topology, link_coefficients,
                      mmse_statistics, ubs_power)
from greenran.harness import emit, load_config, run
from greenran.matching import (evaluate, exhaustive_search, recp_init, trimsm,
                               verify_stability)
from greenran.powerctl import ReducedProblem, Surrogate, slmdb_solve
from greenran.powermodel import traffic_power_coefficient
from greenran.rates import rates_from_coeffs
from conftest import active_count, default_bs_config, make_context, strongest_assoc
from reference import expand, monte_carlo_statistics, residual


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_closed_form_statistics_match_monte_carlo():
    """Closed-form coefficient tensor vs 1e5-sample simulation, 3 SE everywhere."""
    t_start = time.time()
    rng = np.random.default_rng(2024)
    frame = FrameConfig()
    worst = 0.0
    for trial in range(20):
        M = int(rng.integers(1, 4))
        K = int(rng.integers(1, 4))
        N = int(rng.integers(1, 6))
        scen = ScenarioParams(M=M, K=K, N=N, L=M, area_side=400.0,
                              shadowing_std_db=4.0 if trial % 3 == 0 else 0.0,
                              seed=int(rng.integers(0, 2**31)))
        corr = build_correlation(generate_topology(scen))
        exact = expand(mmse_statistics(corr, frame))
        mc, mu_se, omega_se = monte_carlo_statistics(corr.R, frame, samples=100000,
                                                     seed=int(rng.integers(0, 2**31)))
        dev_mu = np.abs(exact.mu - mc.mu) / np.maximum(mu_se, 1e-30)
        dev_om = np.abs(exact.omega - mc.omega) / np.maximum(omega_se, 1e-30)
        worst = max(worst, dev_mu.max(), dev_om.max())
    elapsed = time.time() - t_start
    report("statistics oracle equivalence", worst <= 3.0 and elapsed <= 120.0,
           f"worst deviation {worst:.2f} SE over 20 scenarios in {elapsed:.0f}s")


def test_bs_power_affine_reduction():
    """Component-table BS power equals fixed + traffic-slope form, 1e-9 relative."""
    cfg = default_bs_config()
    p_fix = ubs_power(cfg, 0.0)
    p_trf = traffic_power_coefficient(cfg)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        M = int(rng.integers(1, 9))
        active = rng.random(M) < 0.7
        loads = np.where(active, rng.random(M) * 2.0, 0.0)
        direct = sum(ubs_power(cfg, x) for x, a in zip(loads, active) if a)
        reduced = active.sum() * p_fix + p_trf * loads[active].sum()
        if active.any():
            worst = max(worst, abs(direct - reduced) / max(abs(direct), 1e-30))
    report("BS power affine reduction", worst <= 1e-9,
           f"worst relative error {worst:.2e} over 100 draws")


def test_network_power_zero_curvature():
    """Second differences of total power w.r.t. each rate vanish."""
    cfg = default_bs_config()
    from greenran import SystemPowerParams
    params = SystemPowerParams()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        M, K = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        assoc = rng.random((M, K)) < 0.5
        form, n = build_affine_form(cfg, params, M, K), active_count(assoc)
        P = rng.random(K) * 0.1
        rates = rng.random(K) * 50e6
        base = form.total(P, rates, n)
        h = 1e6
        for k in range(K):
            up, dn = rates.copy(), rates.copy()
            up[k] += h
            dn[k] -= h
            second = form.total(P, up, n) - 2 * base + form.total(P, dn, n)
            worst = max(worst, abs(second) / abs(base))
    report("network power affinity", worst <= 1e-9,
           f"worst |second difference|/|P_N| = {worst:.2e}")


def test_surrogate_is_global_lower_bound():
    """Surrogate EE below true EE on 1000 pairs; tight at the anchor to 1e-10."""
    rng = np.random.default_rng(9)
    violations = 0.0
    worst_anchor_gap = 0.0
    pairs = 0
    for seed in range(10):
        ctx = make_context(M=4, K=3, N=4, L=2, area=350.0, seed=seed)
        assoc = strongest_assoc(ctx)
        form, n = ctx.form, active_count(assoc)
        lc = link_coefficients(assoc, ctx.tensor)
        prob = ReducedProblem(lc, ctx.frame, form, n, ctx.qos)    # every UE is served
        for _ in range(100):
            p = rng.random(3) * 0.1
            anchor = rng.random(3) * 0.1
            below = Surrogate(prob, anchor).ratio(p)
            rates = rates_from_coeffs(p, lc, ctx.frame)
            true_ee = float(np.sum(rates)) / form.total(p, rates, n)
            violations = max(violations, (below - true_ee) / max(true_ee, 1e-30))
            pairs += 1
        anchor = rng.random(3) * 0.1
        at = Surrogate(prob, anchor).ratio(anchor)
        rates = rates_from_coeffs(anchor, lc, ctx.frame)
        true_ee = float(np.sum(rates)) / form.total(anchor, rates, n)
        worst_anchor_gap = max(worst_anchor_gap,
                               abs(at - true_ee) / max(true_ee, 1e-30))
    ok = violations <= 1e-12 and worst_anchor_gap <= 1e-10
    report("surrogate sandwich", ok,
           f"worst overshoot {violations:.1e}, anchor gap {worst_anchor_gap:.1e} "
           f"over {pairs} pairs")


def test_qos_residual_sign_equivalence():
    """sign(residual) == sign(rate deficit) on 1000 random points."""
    rng = np.random.default_rng(10)
    checked = 0
    mismatches = 0
    for seed in range(10):
        ctx = make_context(M=4, K=3, N=4, L=2, area=400.0, seed=50 + seed,
                           r_min=20e6)
        assoc = strongest_assoc(ctx)
        lc = link_coefficients(assoc, ctx.tensor)
        prob = ReducedProblem(lc, ctx.frame, ctx.form, active_count(assoc),
                              ctx.qos)    # every UE is served
        for _ in range(100):
            p = rng.random(3) * 0.1
            r = residual(prob, p)
            rates = rates_from_coeffs(p, lc, ctx.frame)
            deficit = ctx.qos.r_min_bps - rates
            for k in range(3):
                if abs(deficit[k]) < 1.0 or abs(r[k]) < 1e-20:
                    continue
                checked += 1
                if np.sign(r[k]) != np.sign(deficit[k]):
                    mismatches += 1
    report("QoS constraint equivalence", mismatches == 0 and checked >= 1000,
           f"{mismatches} sign mismatches over {checked} comparisons")


def test_single_ue_solver_matches_grid_search():
    """Solver EE within 1e-3 relative of a 1e5-point scalar grid, 50 instances."""
    t_start = time.time()
    st = SolverSettings(slm_tol=1e-8, slm_max_iter=3000)
    worst = 0.0
    for seed in range(50):
        M = 1 + seed % 3
        ctx = make_context(M=M, K=1, N=4, L=M, area=250.0, seed=1000 + seed,
                           r_min=10e6, settings=st)
        assoc = strongest_assoc(ctx, per_ue=M)
        form, n = ctx.form, active_count(assoc)
        sol = slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, form, n, ctx.qos,
                          st)
        prob = ReducedProblem(link_coefficients(assoc, ctx.tensor), ctx.frame,
                              form, n, ctx.qos)
        g = np.linspace(0.0, 0.1, 100001)[1:]
        af = prob.Af[0, 0] * g + prob.n[0]
        ag = prob.Ag[0, 0] * g + prob.n[0]
        rates = prob.cr * (np.log2(af) - np.log2(ag))
        res = prob.W[0, 0] * g + prob.c[0]
        pn = prob.c0 + form.alpha_per_k[0] * rates / form.r_ref_bps \
            + form.delta_per_k[0] * g
        ee = np.where(res <= 0, rates / pn, -np.inf)
        assert sol.feasible
        worst = max(worst, abs(sol.ee - ee.max()) / ee.max())
    elapsed = time.time() - t_start
    report("single-UE optimality vs grid", worst <= 1e-3 and elapsed <= 60.0,
           f"worst relative gap {worst:.2e} over 50 instances in {elapsed:.0f}s")


def test_monotone_solver_traces():
    """EE trace and ratio updates nondecreasing; convergence within 30 rounds."""
    instances = 0
    fast = 0
    worst_ee_dip = 0.0
    worst_pi_dip = 0.0
    for seed in range(100):
        ctx = make_context(M=8, K=4, N=5, L=3, area=500.0, seed=seed, r_min=20e6)
        assoc = strongest_assoc(ctx)
        form, n = ctx.form, active_count(assoc)
        sol = slmdb_solve(link_coefficients(assoc, ctx.tensor), ctx.frame, form, n, ctx.qos,
                          ctx.settings)
        if not sol.feasible:
            continue
        instances += 1
        t = np.asarray(sol.diagnostics.ee_trace)
        if len(t) > 1:
            worst_ee_dip = max(worst_ee_dip,
                               float(np.max(-np.diff(t) / np.abs(t[:-1]))))
        for trace in sol.diagnostics.pi_traces:
            pt = np.asarray(trace)
            if len(pt) > 1:
                worst_pi_dip = max(worst_pi_dip,
                                   float(np.max(-np.diff(pt) / np.abs(pt[:-1]))))
        if (sol.diagnostics.slm_iterations <= 30
                and not sol.diagnostics.hit_iteration_cap):
            fast += 1
    ok = (worst_ee_dip <= 1e-9 and worst_pi_dip <= 1e-7
          and fast >= 0.9 * instances and instances >= 50)
    report("monotone solver traces", ok,
           f"{instances} feasible instances, worst EE dip {worst_ee_dip:.1e}, "
           f"worst ratio dip {worst_pi_dip:.1e}, {fast}/{instances} converged "
           f"within 30 outer rounds")


def test_swap_matching_reaches_stability():
    """Converged matchings are flagged stable and pass the exhaustive stability
    scan; swap budget holds."""
    swaps = []
    stable_count = 0
    for seed in range(50):
        ctx = make_context(M=8, K=4, N=5, L=3, area=500.0, seed=3000 + seed,
                           r_min=20e6)
        rep = trimsm(ctx, "eipc")
        swaps.append(rep.swap_count)
        stable_count += rep.stable and verify_stability(rep.S, "eipc", ctx)
    mean_swaps = float(np.mean(swaps))
    ok = stable_count == 50 and mean_swaps <= 60.0
    report("swap matching stability", ok,
           f"{stable_count}/50 stable, mean approved swaps {mean_swaps:.1f}")


def _oracle_instance(seed: int):
    """One oracle comparison; instances are independent and run in parallel."""
    ctx = make_context(M=4, K=3, N=2, L=2, area=300.0, seed=seed, r_min=10e6)
    oracle = exhaustive_search(ctx)
    rep = trimsm(ctx, "slmdb")          # shares the evaluation cache
    init = recp_init(ctx.corr, ctx.scenario, ctx.settings.recp_delta_percent)
    base = evaluate(init, "slmdb", ctx)
    if oracle.infeasible or rep.infeasible:
        return None
    init_ok = (not base.qos_ok) or rep.ee >= base.ee * (1 - 1e-9)
    return rep.ee / oracle.ee, init_ok


def test_matcher_against_exhaustive_oracle():
    """Matcher never loses to its own initialization; near-oracle at the median."""
    import multiprocessing as mp

    t_start = time.time()
    seeds = [7000 + s for s in range(30)]
    workers = min(len(os_sched_cpus()), 4)
    if workers > 1:
        with mp.get_context("fork").Pool(workers) as pool:
            results = pool.map(_oracle_instance, seeds)
    else:
        results = [_oracle_instance(s) for s in seeds]
    ratios = [r for r, _ in filter(None, results)]
    init_ok = all(ok for _, ok in filter(None, results))
    skipped = sum(r is None for r in results)
    med = float(np.median(ratios))
    elapsed = time.time() - t_start
    ok = init_ok and med >= 0.9 and len(ratios) >= 20 and elapsed <= 600.0
    report("exhaustive oracle gap", ok,
           f"median matcher/oracle EE ratio {med:.4f} "
           f"(min {min(ratios):.4f}, n={len(ratios)}, skipped {skipped}) "
           f"in {elapsed:.0f}s")


def os_sched_cpus():
    import os
    try:
        return os.sched_getaffinity(0)
    except AttributeError:
        return range(os.cpu_count() or 1)


def test_sleeping_beats_always_on():
    """With sleeping allowed, EE at least matches the no-sleeping variant."""
    wins = 0
    pairs = 0
    for seed in range(30):
        ctx = make_context(M=8, K=3, N=5, L=3, area=500.0, seed=4000 + seed,
                           r_min=20e6)
        sleeping = trimsm(ctx, "eipc")
        nos = trimsm(replace(ctx, no_sleep=True), "eipc")
        if sleeping.infeasible or nos.infeasible:
            continue
        pairs += 1
        wins += sleeping.ee >= nos.ee * (1 - 1e-9)
    ok = pairs >= 20 and wins >= 0.9 * pairs
    report("sleeping benefit", ok, f"sleeping wins {wins}/{pairs} feasible pairs")


def test_hybrid_controller_ordering():
    """Full solver in the loop beats the inversion heuristic, within 10 percent."""
    ratios = []
    for seed in range(30):
        ctx = make_context(M=6, K=3, N=5, L=2, area=450.0, seed=5000 + seed,
                           r_min=20e6)
        full = trimsm(ctx, "slmdb")
        heur = trimsm(replace(ctx), "eipc")
        if full.infeasible or heur.infeasible:
            continue
        ratios.append(heur.ee / full.ee)
    med = float(np.median(ratios))
    ok = 0.9 <= med <= 1.0 + 1e-9 and len(ratios) >= 20
    report("hybrid controller ordering", ok,
           f"median heuristic/full EE ratio {med:.4f} over {len(ratios)} instances")


def test_end_to_end_determinism():
    """Identical configs produce byte-identical CSV output."""
    cfg_dict = {"scenario": {"M": 5, "K": 3, "N": 3, "L": 2, "area_side": 350.0},
                "qos": {"r_min_bps": 10e6},
                "algorithm": ["trimsm-eipc", "llsf", "nos"],
                "drops": 3, "base_seed": 99}
    text1 = emit(run(load_config(cfg_dict)), "csv")
    text2 = emit(run(load_config(dict(cfg_dict))), "csv")
    report("end-to-end determinism", text1 == text2,
           f"{len(text1)} bytes, identical={text1 == text2}")
