"""UE association and BS sleeping via many-to-many swap matching.

A matching is the binary serving matrix under the per-UE cap L and per-BS cap
N; BSs with no UE sleep. Starting from a received-power initialization, the
swap phase repeatedly scans candidate moves and commits every move that all
affected players weakly prefer with one strict improvement. A move is the
tuple (i, m, n, j): UE i leaves BS m and enters BS n (-1 when that side has no
BS), and when j is set UE j moves from n to m. So add is (i, -1, n, -1),
remove (i, m, -1, -1), replace (i, m, n, -1) and exchange (i, m, n, j).
Because every player shares the network-wide objective, a move is approved
exactly when it keeps QoS satisfied and strictly raises EE; from a
QoS-violating state the preference is lexicographic (total rate shortfall
first, EE second) so the scan can climb back into the feasible region.
Termination follows from strict lexicographic improvement over a finite
matching space.

Power inside the scan comes from one of the controllers (slmdb, fipc, qopc,
eipc); any heuristic mode gets a final slmdb refinement once the matching has
converged. Every scored matching is one `PowerSolution`: it carries the
drop's power form and the active-BS count it was scored at (all M under
no-sleeping, which only this module reads) and its QoS shortfall and
violation count, so a report's final solution is all a record needs.

A pair's moves are int arrays (i, m, n, j). Once per incumbent (when the
pair's scan starts, and after each approval) its remaining moves become one
stack of candidate matrices built by index flips, with the mask of the moves
that apply taken from the incumbent's row and column counts. `evaluate` scores
the stack's cache misses in one stacked call, bitwise as if one by one: link
coefficients, the controller, rates and every member's network power take a
fixed number of array calls per stack, whatever its size (QoPC adds a few for
each further served set, and for each member its closed form leaves
uncertified). A member's `PowerSolution`, which holds views of the stack's
rows, is built and cached only when the judge reaches it. The judge compares
the incumbent's result with one member's; the first member approved is
committed. slmdb solves each member when it is reached.
"""

from dataclasses import dataclass, field, replace
from itertools import combinations, product

import numpy as np

from .netmodel import ConfigError, CorrelationSet, FrameConfig, ScenarioParams
from .powerctl import (PowerSolution, QosSpec, SolveDiagnostics, SolverSettings, eipc,
                       fipc, qopc_solve, qos_deficits, slmdb_solve)
# build_affine_form is not called here; perfbench/tracer.py patches it by this name
from .powermodel import AffinePowerForm, build_affine_form
from .rates import link_coefficients, rates_from_coeffs
from .statistics import CoefficientTensor

POWER_MODES = ("slmdb", "fipc", "qopc", "eipc")
_MAX_SWEEPS = 200        # swap sweeps before the scan gives up unconverged
_NO_SOLVE = SolveDiagnostics()    # shared by the cached closed-form results; never written


@dataclass
class EvaluationContext:
    """Everything needed to score a matching, the drop's power form and the
    per-mode result cache. `dataclasses.replace` gives a copy with an empty
    result cache that shares the form."""
    scenario: ScenarioParams
    frame: FrameConfig
    corr: CorrelationSet
    tensor: CoefficientTensor
    form: AffinePowerForm
    qos: QosSpec
    settings: SolverSettings
    no_sleep: bool = False
    _cache: dict = field(default_factory=dict, init=False, repr=False)


@dataclass(frozen=True)
class PreferenceOutcome:
    approved: bool


@dataclass(frozen=True)
class SolutionReport:
    S: np.ndarray                # the final serving matrix (M, K)
    power: PowerSolution         # the final matching, scored by slmdb
    swap_count: int
    evaluation_count: int
    stable: bool
    infeasible: bool

    @property
    def ee(self) -> float:
        return self.power.ee


# ---------------------------------------------------------------------------
# Association rules
# ---------------------------------------------------------------------------

def _greedy_assoc(corr: CorrelationSet, scenario: ScenarioParams,
                  floor: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Capacity-respecting greedy selection, UEs in index order.

    Each UE walks the BSs by descending gain (ties to the lowest index),
    skipping BSs that already serve N UEs. It stops before a gain below
    floor[k], and after L BSs or once the cumulative gain reaches target[k].
    """
    beta = corr.beta
    M, K = beta.shape
    S = np.zeros((M, K), dtype=bool)
    bs_load = np.zeros(M, dtype=int)
    for k in range(K):
        cum = 0.0
        taken = 0
        for m in np.lexsort((np.arange(M), -beta[:, k])):
            if beta[m, k] < floor[k]:
                break
            if bs_load[m] >= scenario.N:
                continue
            S[m, k] = True
            bs_load[m] += 1
            cum += beta[m, k]
            taken += 1
            if cum >= target[k] * (1 - 1e-12) or taken >= scenario.L:
                break
    return S


def recp_init(corr: CorrelationSet, scenario: ScenarioParams,
              delta_percent: float) -> np.ndarray:
    """Received-power prefix selection: the minimal prefix whose cumulative
    gain reaches delta% of the UE's total, truncated to L."""
    if not 0 < delta_percent <= 100:
        raise ConfigError("delta_percent must lie in (0, 100]")
    beta = corr.beta    # per-column sums: beta.sum(axis=0) rounds differently
    totals = np.array([beta[:, k].sum() for k in range(beta.shape[1])])
    return _greedy_assoc(corr, scenario, np.zeros(beta.shape[1]),
                         delta_percent / 100.0 * totals)


def llsf_assoc(corr: CorrelationSet, scenario: ScenarioParams) -> np.ndarray:
    """Single strongest-gain BS per UE, ties to the lowest index."""
    K = corr.beta.shape[1]
    return _greedy_assoc(corr, scenario, np.zeros(K), np.zeros(K))


def tsap_assoc(corr: CorrelationSet, scenario: ScenarioParams) -> np.ndarray:
    """Neighborhood selection: every BS within 30% of the UE's best gain
    (inclusive), strongest L kept, capacity respected."""
    K = corr.beta.shape[1]
    return _greedy_assoc(corr, scenario, 0.3 * corr.beta.max(axis=0), np.full(K, np.inf))


# ---------------------------------------------------------------------------
# Evaluation with caching
# ---------------------------------------------------------------------------

def evaluate(S: np.ndarray, power_mode: str, ctx: EvaluationContext, applies=None):
    """Score the matching with serving matrix S (M, K): run the selected
    controller, compute rates and EE, and cache the result per mode. A stack S
    (B, M, K), with the mask `applies` of the members to score, gives a
    generator of their results in order, None where a member does not apply.
    The closed-form controllers score every cache miss now, in one stacked call
    and bitwise as if one by one; slmdb solves a member when it is reached. A
    result is built and cached only when it is reached, so the cache, and
    evaluation_count, hold only the matchings asked for."""
    if power_mode not in POWER_MODES:
        raise ConfigError(f"unknown power mode {power_mode!r}")
    mode_cache = ctx._cache.setdefault(power_mode, {})
    if S.ndim == 3:
        if power_mode == "slmdb":
            return (evaluate(s, power_mode, ctx) if ok else None for s, ok in zip(S, applies))
        # a member's key is its slice of the stack's bytes, S[b].tobytes()
        buf, size = S.tobytes(), S.itemsize * S.shape[1] * S.shape[2]
        keys = [buf[b * size:(b + 1) * size] if ok else None
                for b, ok in enumerate(applies.tolist())]
        misses = [b for b, key in enumerate(keys) if key is not None and key not in mode_cache]
        member = _score(S[misses], power_mode, ctx) if misses else None
        row = dict(zip(misses, range(len(misses))))    # a miss's index among those scored
        return (None if key is None else mode_cache.get(key)
                or mode_cache.setdefault(key, member(row[b])) for b, key in enumerate(keys))
    key = S.tobytes()
    if key not in mode_cache:
        mode_cache[key] = _score(S[None], power_mode, ctx)(0)
    return mode_cache[key]


def _score(S: np.ndarray, power_mode: str, ctx: EvaluationContext):
    """Scores of the serving matrices stacked (B, M, K), as a function of the
    member index that gives the member's PowerSolution. The closed-form modes
    take a fixed number of array calls per stack: the network power of every
    member is one call, with the constant c0 of each member's active-BS count
    (the traffic and PA slopes do not depend on it)."""
    qos, form = ctx.qos, ctx.form
    B, M, K = S.shape
    load = S.reshape(B * M, K) @ np.ones(K)    # UEs per BS: one product, not B * M short sums
    counts = [M] * B if ctx.no_sleep else (load.reshape(B, M) > 0).sum(axis=1).tolist()
    if power_mode == "slmdb":    # solved one by one, so nothing is stacked
        return [slmdb_solve(link_coefficients(s, ctx.tensor), ctx.frame, form, n, qos,
                            ctx.settings) for s, n in zip(S, counts)].__getitem__
    lc = link_coefficients(S, ctx.tensor)
    verdict = None
    if power_mode == "fipc":
        p = np.broadcast_to(fipc(ctx.scenario.K, qos), lc.ns.shape)
    elif power_mode == "eipc":
        p = eipc(S, ctx.corr, qos)
    else:
        p, verdict = qopc_solve(lc, ctx.frame, qos)
    rates = rates_from_coeffs(p, lc, ctx.frame)
    ee = np.sum(rates, axis=1) / form.total(p, rates, counts)
    deficits = qos_deficits(rates, qos)
    ee, shortfall = ee.tolist(), np.sum(deficits, axis=1).tolist()
    violations = np.count_nonzero(deficits, axis=1).tolist()
    # feasible is the QoPC LP's own verdict, else the rate check
    feasible = [short == 0.0 for short in shortfall] if verdict is None else verdict.tolist()

    def member(b: int) -> PowerSolution:    # row views: a cached result shares the stack's rows
        return PowerSolution(p=p[b], ee=ee[b], rates=rates[b], diagnostics=_NO_SOLVE,
                             feasible=feasible[b], form=form, n_active=counts[b],
                             shortfall_bps=shortfall[b], qos_violations=violations[b])
    return member


def _eval_count(ctx: EvaluationContext, power_mode: str) -> int:
    return len(ctx._cache.get(power_mode, {}))


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------

def _moves(S: np.ndarray, i: int, j: int | None) -> np.ndarray:
    """Candidate moves for the ordered pair (UE i, UE j) against S, as the int
    rows (i, m, n, j) of a (4, T) array with -1 for none: with j None every add,
    then remove, then replace; else every exchange."""
    col = S[:, i]
    if j is None:
        free, held = np.flatnonzero(~col), np.flatnonzero(col)
        F, H = len(free), len(held)
        moves = np.full((4, F + H + H * F), -1)
        moves[2, :F] = free
        moves[1, F:F + H] = held
        moves[1, F + H:] = held.repeat(F)    # replaces: each held BS to each free one
        moves[2, F + H:].reshape(H, F)[:] = free
    else:
        other = S[:, j]
        m, n = np.nonzero((col & ~other)[:, None] & (other & ~col))
        moves = np.full((4, len(m)), j)
        moves[1], moves[2] = m, n
    moves[0] = i
    return moves


def _candidates(S: np.ndarray, moves: np.ndarray, ctx: EvaluationContext):
    """The serving matrices after each of one pair's moves (i, m, n, j) from S,
    stacked (T, M, K), and the mask of the moves that apply; a member that
    does not apply is undefined.

    The vacated slots must be held and the entered slots free. A move without
    j that enters n must leave UE i within L and BS n within N; an exchange
    keeps every count. No move may put a serving BS to sleep under no_sleep.
    """
    (i, j), m, n = moves[::3, 0], moves[1], moves[2]    # a pair's moves share i and j
    M = len(S)
    pad = np.zeros((M + 1, S.shape[1]), dtype=bool)    # row M serves no UE and takes
    pad[:M] = S                                        # the -1 of a missing m or n
    col, stack, b = pad[:, i], np.repeat(pad[None], len(m), axis=0), np.arange(len(m))
    if j < 0:
        alone, per_bs = m < 0, pad.sum(axis=1)
        applies = (col[m] | alone) & ~col[n] & ((n < 0) | (
            (np.count_nonzero(col) + alone <= ctx.scenario.L) & (per_bs[n] < ctx.scenario.N)))
        if ctx.no_sleep:    # the move must not take a BS's one UE
            applies &= alone | (per_bs[m] > 1)
    else:
        other = pad[:, j]
        applies = col[m] & other[n] & ~col[n] & ~other[m]
        stack[b, n, j] = False
        stack[b, m, j] = True
    stack[b, m, i] = False
    stack[b, n, i] = True
    return stack[:, :M], applies


def _pair_order(K: int):
    return ((i, j) for i in range(K) for j in [*range(K), None] if j != i)


_APPROVED, _REJECTED = PreferenceOutcome(approved=True), PreferenceOutcome(approved=False)


def is_swap_blocking(before: PowerSolution, after: PowerSolution | None) -> PreferenceOutcome:
    """Approve the candidate scored `after` (None: the move does not apply)
    over the incumbent scored `before` iff it strictly improves (shortfall, EE)
    lexicographically.

    With QoS currently met that reduces to: QoS stays met and EE strictly
    increases (the shared-preference reading of a blocking pair).
    """
    if after is not None and (after.shortfall_bps < before.shortfall_bps
                              or (after.shortfall_bps == before.shortfall_bps
                                  and after.ee > before.ee)):
        return _APPROVED
    return _REJECTED


def _scan(S: np.ndarray, moves: np.ndarray, power_mode: str, ctx: EvaluationContext):
    """Judge the candidates of `moves` from the incumbent S in order, up to the
    first approved one: (moves judged, the approved serving matrix or None)."""
    stack, applies = _candidates(S, moves, ctx)
    before = evaluate(S, power_mode, ctx)
    for b, after in enumerate(evaluate(stack, power_mode, ctx, applies)):
        if is_swap_blocking(before, after).approved:
            return b + 1, stack[b].copy()
    return moves.shape[1], None


def verify_stability(S: np.ndarray, power_mode: str, ctx: EvaluationContext) -> bool:
    """True iff no candidate move is approved from the serving matrix S."""
    pairs = (_moves(S, i, j) for i, j in _pair_order(S.shape[1]))
    return all(_scan(S, moves, power_mode, ctx)[1] is None for moves in pairs if moves.size)


# ---------------------------------------------------------------------------
# The full matching algorithm and the oracle
# ---------------------------------------------------------------------------

def trimsm(ctx: EvaluationContext, power_mode: str = "slmdb") -> SolutionReport:
    """Initialization + swap phase + (for heuristic modes) final slmdb pass."""
    S = recp_init(ctx.corr, ctx.scenario, ctx.settings.recp_delta_percent)
    structural_gap = False
    if ctx.no_sleep:
        S, structural_gap = _repair_empty_bs(S, ctx)

    swap_count = 0
    converged = False
    for _ in range(_MAX_SWEEPS):
        swaps_before = swap_count
        for i, j in _pair_order(ctx.scenario.K):
            moves = _moves(S, i, j)
            while moves.size:    # one stack per incumbent: rebuilt after an approval
                judged, approved = _scan(S, moves, power_mode, ctx)
                moves = moves[:, judged:]
                if approved is not None:
                    S = approved
                    swap_count += 1
        if swap_count == swaps_before:
            converged = True
            break

    # a sweep that approves nothing has scanned every move from this matching
    final = evaluate(S, "slmdb", ctx)
    return SolutionReport(
        S=S, power=final, swap_count=swap_count,
        evaluation_count=_eval_count(ctx, power_mode) + (_eval_count(ctx, "slmdb")
                                                         if power_mode != "slmdb" else 0),
        stable=converged, infeasible=(not final.qos_ok) or structural_gap)


def nos_assoc(ctx: EvaluationContext) -> SolutionReport:
    """No-sleeping variant: every BS must keep at least one UE; A is all ones."""
    return trimsm(replace(ctx, no_sleep=True), "eipc")


def _repair_empty_bs(S: np.ndarray, ctx: EvaluationContext):
    """Give every empty BS a UE when capacity allows; returns (S, gap)."""
    S = S.copy()
    beta = ctx.corr.beta
    M, K = S.shape
    L = ctx.scenario.L
    for m in range(M):
        if S[m].any():
            continue
        order = np.lexsort((np.arange(K), -beta[m]))
        placed = False
        for k in order:
            if S[:, k].sum() < L:
                S[m, k] = True
                placed = True
                break
        if not placed:
            for k in order:
                serving = np.flatnonzero(S[:, k])
                removable = [m2 for m2 in serving if S[m2].sum() >= 2]
                if removable:
                    weakest = min(removable, key=lambda m2: (beta[m2, k], -m2))
                    S[weakest, k] = False
                    S[m, k] = True
                    placed = True
                    break
    return S, bool((~S.any(axis=1)).any())


def check_exhaustive_size(scenario: ScenarioParams) -> None:
    """The exhaustive oracle's guard: it enumerates only scenarios with M*K <= 16."""
    if scenario.M * scenario.K > 16:
        raise ConfigError(f"exhaustive search guard: M*K = {scenario.M * scenario.K} exceeds 16")


def exhaustive_search(ctx: EvaluationContext) -> SolutionReport:
    """Enumerate every admissible matching and keep the best feasible one.

    Ties break toward fewer active BSs, then the lexicographically smallest
    matrix. Guarded to M*K <= 16.
    """
    check_exhaustive_size(ctx.scenario)
    M, K, L, Ncap = ctx.scenario.M, ctx.scenario.K, ctx.scenario.L, ctx.scenario.N
    choices = [c for size in range(L + 1) for c in combinations(range(M), size)]

    best = None          # (rank, S, result); feasible matchings rank first
    for subsets in product(choices, repeat=K):
        S = np.zeros((M, K), dtype=bool)
        for k, subset in enumerate(subsets):
            S[list(subset), k] = True
        if (S.sum(axis=1) > Ncap).any():
            continue
        res = evaluate(S, "slmdb", ctx)
        rank = ((0, -res.ee, np.count_nonzero(S.any(axis=1)), S.tobytes()) if res.qos_ok
                else (1, res.shortfall_bps, -res.ee, S.tobytes()))
        if best is None or rank < best[0]:
            best = (rank, S, res)

    rank, chosen, res = best
    return SolutionReport(S=chosen, power=res, swap_count=0,
                          evaluation_count=_eval_count(ctx, "slmdb"), stable=True,
                          infeasible=rank[0] == 1)
