"""The swap scan's candidate stacks against the earlier kind-tagged moves, and
the whole scan against the scan one move at a time.

The earlier `SwapMove` generator and its four-branch move application
(`ref_apply_move`) are kept below as the reference. Over generated small
matchings, every pair of `_pair_order` must give the same moves in the same
order from `_moves`, and each member of the `_candidates` stack must equal the
reference's matching for its move, or be masked where the reference gives
None: on the matching at the start of the pair, and on each stack the scan
rebuilds from the remaining moves after a commit.

On generated small drops, in every power mode and with and without
no-sleeping, `trimsm` must judge the same results in the same order as
`reference.move_by_move_trimsm`, which builds and scores each candidate alone
when its turn comes, and end with the same matching and counts.
"""

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from greenran import ConfigError, ScenarioParams, harness
from greenran import matching as matching_module
from greenran.matching import POWER_MODES, _candidates, _moves, _pair_order, trimsm
from reference import move_by_move_trimsm


@dataclass(frozen=True)
class SwapMove:
    kind: str
    ue_i: int
    bs_m: int | None = None
    ue_j: int | None = None
    bs_n: int | None = None


def within_caps(S, L, N) -> bool:
    return (S.sum(axis=0) <= L).all() and (S.sum(axis=1) <= N).all()


def ref_apply_move(S, move, ctx):
    M, K = S.shape
    L, N = ctx.scenario.L, ctx.scenario.N
    i = move.ue_i
    if not 0 <= i < K:
        raise ConfigError("ue_i out of range")
    new = S.copy()
    if move.kind == "exchange":
        j, m, n = move.ue_j, move.bs_m, move.bs_n
        if j is None or m is None or n is None:
            raise ConfigError("exchange requires both UEs and both BSs")
        if not (0 <= j < K and 0 <= m < M and 0 <= n < M) or i == j:
            raise ConfigError("exchange indices out of range")
        if not (S[m, i] and S[n, j]) or S[n, i] or S[m, j]:
            return None
        new[m, i] = False
        new[n, i] = True
        new[n, j] = False
        new[m, j] = True
    elif move.kind == "add":
        n = move.bs_n
        if n is None or move.bs_m is not None or move.ue_j is not None:
            raise ConfigError("add takes only the entering BS")
        if not 0 <= n < M:
            raise ConfigError("bs_n out of range")
        if S[n, i] or S[:, i].sum() >= L or S[n].sum() >= N:
            return None
        new[n, i] = True
    elif move.kind == "remove":
        m = move.bs_m
        if m is None or move.bs_n is not None or move.ue_j is not None:
            raise ConfigError("remove takes only the leaving BS")
        if not 0 <= m < M:
            raise ConfigError("bs_m out of range")
        if not S[m, i]:
            return None
        new[m, i] = False
    elif move.kind == "replace":
        m, n = move.bs_m, move.bs_n
        if m is None or n is None or move.ue_j is not None:
            raise ConfigError("replace takes a leaving and an entering BS")
        if not (0 <= m < M and 0 <= n < M):
            raise ConfigError("replace indices out of range")
        if not S[m, i] or S[n, i] or S[n].sum() >= N:
            return None
        new[m, i] = False
        new[n, i] = True
    else:
        raise ConfigError(f"unknown move kind {move.kind!r}")

    if ctx.no_sleep and S.any(axis=1)[~new.any(axis=1)].any():
        return None
    if np.array_equal(new, S):
        return None
    assert within_caps(new, L, N)
    return new


def ref_pair_moves(S, i, j):
    M = S.shape[0]
    if j is None:
        for n in range(M):
            if not S[n, i]:
                yield SwapMove(kind="add", ue_i=i, bs_n=n)
        for m in np.flatnonzero(S[:, i]):
            yield SwapMove(kind="remove", ue_i=i, bs_m=int(m))
        for m in np.flatnonzero(S[:, i]):
            for n in range(M):
                if not S[n, i]:
                    yield SwapMove(kind="replace", ue_i=i, bs_m=int(m), bs_n=n)
    else:
        for m in np.flatnonzero(S[:, i]):
            for n in np.flatnonzero(S[:, j]):
                if not S[n, i] and not S[m, j]:
                    yield SwapMove(kind="exchange", ue_i=i, bs_m=int(m),
                                   ue_j=j, bs_n=int(n))


def as_tuple(move: SwapMove) -> tuple:
    """The move as `_moves` gives it: (i, m, n, j) with -1 for none."""
    return tuple(-1 if v is None else v for v in (move.ue_i, move.bs_m, move.bs_n, move.ue_j))


def same(got, want) -> bool:
    """Serving matrix `got` (or None) against the reference's."""
    if got is None or want is None:
        return got is None and want is None
    return np.array_equal(got, want)


@st.composite
def scans(draw):
    M = draw(st.integers(1, 6))
    K = draw(st.integers(1, 4))
    N = draw(st.integers(1, 5))
    L = draw(st.integers(1, M))
    S = np.array(draw(st.lists(st.booleans(), min_size=M * K, max_size=M * K)),
                 dtype=bool).reshape(M, K)
    for k in range(K):                  # trim to the caps, lowest indices kept
        S[np.flatnonzero(S[:, k])[L:], k] = False
    for m in range(M):
        S[m, np.flatnonzero(S[m])[N:]] = False
    ctx = SimpleNamespace(scenario=ScenarioParams(M=M, K=K, N=N, L=L),
                          no_sleep=draw(st.booleans()))
    assert within_caps(S, L, N)
    return S, ctx, draw(st.integers(0, 2**16))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scans())
def test_tuple_moves_match_kind_moves(case):
    matching, ctx, seed = case
    rng = np.random.default_rng(seed)
    for i, j in _pair_order(ctx.scenario.K):
        start = matching
        moves = _moves(start, i, j)
        ref_moves = list(ref_pair_moves(start, i, j))
        assert [tuple(mv) for mv in moves.T.tolist()] == [as_tuple(mv) for mv in ref_moves]
        if not ref_moves:
            continue
        stack, applies = _candidates(start, moves, ctx)
        for member, ok, ref in zip(stack, applies, ref_moves):
            assert same(member if ok else None, ref_apply_move(start, ref, ctx))
        first = 0    # the move the current stack starts at
        for t, ref in enumerate(ref_moves):
            got = stack[t - first] if applies[t - first] else None
            assert same(got, ref_apply_move(matching, ref, ctx))
            if got is not None and rng.random() < 0.4:
                matching, first = got.copy(), t + 1    # as if approved
                if first < len(ref_moves):    # the scan rebuilds the rest from it
                    stack, applies = _candidates(matching, moves[:, first:], ctx)


@st.composite
def drops(draw):
    M = draw(st.integers(1, 5))
    config = harness.load_config({
        "scenario": {"M": M, "K": draw(st.integers(1, 3)), "N": draw(st.integers(1, 4)),
                     "L": draw(st.integers(1, M)), "area_side": draw(st.floats(150.0, 600.0)),
                     "shadowing_std_db": draw(st.sampled_from([0.0, 8.0]))},
        "qos": {"r_min_bps": draw(st.one_of(st.just(0.0), st.floats(1e5, 5e8)))},
        "drops": 1, "base_seed": draw(st.integers(0, 2**16))})
    return config, draw(st.booleans())


def judged_run(scan, config, no_sleep, mode):
    """`scan`'s report on a fresh context of the drop, and every judge call's
    incumbent and candidate (shortfall, EE) in float hex with its verdict."""
    ctx = replace(harness._make_context(config, config.base_seed), no_sleep=no_sleep)
    calls, judge = [], matching_module.is_swap_blocking

    def logged(before, after):
        outcome = judge(before, after)
        calls.append(tuple(None if r is None else (r.shortfall_bps.hex(), r.ee.hex())
                           for r in (before, after)) + (outcome.approved,))
        return outcome

    matching_module.is_swap_blocking = logged
    try:
        return scan(ctx, mode), calls
    finally:
        matching_module.is_swap_blocking = judge


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drops())
def test_array_scan_matches_move_by_move_scan(drop):
    config, no_sleep = drop
    for mode in POWER_MODES:
        rep, calls = judged_run(trimsm, config, no_sleep, mode)
        ref, ref_calls = judged_run(move_by_move_trimsm, config, no_sleep, mode)
        assert calls == ref_calls, mode    # approvals in order, and the judge's call count
        assert (rep.swap_count, rep.evaluation_count, rep.stable, rep.infeasible) == (
            ref.swap_count, ref.evaluation_count, ref.stable, ref.infeasible), mode
        assert np.array_equal(rep.S, ref.S) and rep.ee == ref.ee, mode
