"""Properties of `trimsm` on small generated drops, for every power mode.

Drops span M 1-5, K 1-3, N 1-4, L <= M, shadowing 0 or 8 dB, and rate targets
from none up to ones no association can meet. The final matching must respect
the per-UE cap L and the per-BS cap N, and must be lexicographically no worse
in (rate shortfall, EE) than the received-power init, both scored in the scan's
own mode. A run on a fresh context of the same drop must give the same matching
and EE, the record's power parts must sum to its total power, and every number
in the record and the power solution must be finite. The record's QoS violation
count and active-BS count are the final solution's, a feasible record violates
no target, and a zero count goes with a zero shortfall. On drops with M*K <= 6 the
exhaustive oracle, which enumerates every matching within the caps, bounds the
slmdb matcher: feasible with EE no lower when the matcher is feasible, else with
a rate shortfall no larger.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from greenran import harness
from greenran.matching import POWER_MODES, evaluate, exhaustive_search, recp_init, trimsm
from conftest import active_count


@st.composite
def drops(draw, max_links=15):
    M = draw(st.integers(1, 5))
    return harness.load_config({
        "scenario": {"M": M, "K": draw(st.integers(1, min(3, max_links // M))),
                     "N": draw(st.integers(1, 4)),
                     "L": draw(st.integers(1, M)), "area_side": draw(st.floats(150.0, 600.0)),
                     "shadowing_std_db": draw(st.sampled_from([0.0, 8.0]))},
        "qos": {"r_min_bps": draw(st.one_of(st.just(0.0), st.floats(1e5, 5e8)))},
        "algorithm": [f"trimsm-{mode}" for mode in POWER_MODES],
        "drops": 1, "base_seed": draw(st.integers(0, 2**16))})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drops())
def test_trimsm_drop_properties(config):
    seed, scen = config.base_seed, config.scenario
    for mode in POWER_MODES:
        ctx = harness._make_context(config, seed)
        rep = trimsm(ctx, mode)
        S = rep.S
        assert (S.sum(axis=0) <= scen.L).all() and (S.sum(axis=1) <= scen.N).all()

        init = recp_init(ctx.corr, ctx.scenario, ctx.settings.recp_delta_percent)
        start, end = evaluate(init, mode, ctx), evaluate(S, mode, ctx)
        assert (end.shortfall_bps, -end.ee) <= (start.shortfall_bps, -start.ee), mode

        again = trimsm(harness._make_context(config, seed), mode)
        assert np.array_equal(again.S, S) and again.ee == rep.ee, mode

        r = harness._record(config, rep, f"trimsm-{mode}", 0, seed, 0.0, 0.0)
        parts = (r.ubs_active_power_w + r.ubs_sleep_power_w + r.fronthaul_power_w
                 + r.edge_cloud_power_w + r.ue_power_w)
        assert parts == r.total_power_w, mode
        numeric = [v for v in vars(r).values() if isinstance(v, (int, float))]
        assert np.isfinite(numeric).all(), mode
        assert all(np.isfinite(x).all() for x in (rep.power.p, rep.power.rates, rep.power.ee)), mode

        assert r.qos_violation_count == rep.power.qos_violations, mode
        assert not r.feasible or r.qos_violation_count == 0, mode
        assert (r.qos_violation_count == 0) == (rep.power.shortfall_bps == 0.0), mode
        assert r.active_ubs_count == rep.power.n_active == active_count(rep.S), mode


def test_nos_record_counts_every_bs_active():
    # K * L = 4 < M, so the no-sleeping matching leaves BSs unserved, yet its
    # power form, and so its record, keeps all M BSs on
    config = harness.load_config({"scenario": {"M": 8, "K": 2, "N": 2, "L": 2},
                                  "algorithm": ["nos", "trimsm-eipc"], "base_seed": 5})
    nos, swap = harness.run(config)
    assert nos.active_ubs_count == config.scenario.M
    assert swap.active_ubs_count < config.scenario.M


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drops(max_links=6))
def test_exhaustive_oracle_bounds_matcher(config):
    # the oracle scores the matcher's matching too, through the same cache, so
    # the comparison is exact
    ctx = harness._make_context(config, config.base_seed)
    mine = evaluate(trimsm(ctx, "slmdb").S, "slmdb", ctx)
    best = evaluate(exhaustive_search(ctx).S, "slmdb", ctx)
    if mine.qos_ok:
        assert best.qos_ok and best.ee >= mine.ee
    else:
        assert best.shortfall_bps <= mine.shortfall_bps
