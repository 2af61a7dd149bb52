"""UE association and BS sleeping via many-to-many swap matching.

A matching is the binary serving matrix under the per-UE cap L and per-BS cap
N; BSs with no UE sleep. Starting from a received-power initialization, the
swap phase repeatedly scans candidate moves and commits every move that all
affected players weakly prefer with one strict improvement. A move is the
tuple (i, m, n, j): UE i leaves BS m and enters BS n (None when that side has
no BS), and when j is set UE j moves from n to m. So add is (i, None, n, None),
remove (i, m, None, None), replace (i, m, n, None) and exchange (i, m, n, j).
Because every player shares the network-wide objective, a move is approved
exactly when it keeps QoS satisfied and strictly raises EE; from a
QoS-violating state the preference is lexicographic (total rate shortfall
first, EE second) so the scan can climb back into the feasible region.
Termination follows from strict lexicographic improvement over a finite
matching space.

Power inside the scan comes from one of the controllers (slmdb, fipc, qopc,
eipc); any heuristic mode gets a final slmdb refinement once the matching has
converged. Every scored matching is one `PowerSolution`: it carries the power
form it was scored under (all M BSs active under no-sleeping, which only this
module reads) and its QoS shortfall and violation count, so a report's final
solution is all a record needs.

A pair's scan builds the candidate serving matrices of its remaining moves
once per incumbent: when it starts, and again after each approval. The judge
compares the incumbent with one candidate matrix and never sees the move. An
evaluation is a pure function of S, so the scan looks ahead: `evaluate` scores
the whole candidate list in one stacked call, bitwise as if one by one, and the
judge then takes the same list in order. slmdb, which gains nothing from
stacking, builds and judges one candidate at a time.
"""

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .netmodel import ConfigError, CorrelationSet, FrameConfig, ScenarioParams
from .powerctl import (PowerSolution, QosSpec, SolveDiagnostics, SolverSettings, eipc,
                       fipc, qopc_solve, qos_deficits, slmdb_solve)
from .powermodel import (AffinePowerForm, BsPowerConfig, SystemPowerParams,
                         build_affine_form)
from .rates import Association, link_coefficients, rates_from_coeffs
from .statistics import CoefficientTensor

POWER_MODES = ("slmdb", "fipc", "qopc", "eipc")
_MAX_SWEEPS = 200        # swap sweeps before the scan gives up unconverged
_NO_SOLVE = SolveDiagnostics()    # shared by the cached closed-form results; never written


@dataclass
class EvaluationContext:
    """Everything needed to score a matching, plus the per-mode result cache."""
    scenario: ScenarioParams
    frame: FrameConfig
    corr: CorrelationSet
    tensor: CoefficientTensor
    bs_config: BsPowerConfig
    system: SystemPowerParams
    qos: QosSpec
    settings: SolverSettings
    no_sleep: bool = False
    _cache: dict = field(default_factory=dict, repr=False)
    _ahead: dict = field(default_factory=dict, repr=False)    # per mode, see evaluate
    _forms: dict = field(default_factory=dict, repr=False)

    def clone(self, **overrides) -> "EvaluationContext":
        kw = dict(scenario=self.scenario, frame=self.frame, corr=self.corr,
                  tensor=self.tensor, bs_config=self.bs_config, system=self.system,
                  qos=self.qos, settings=self.settings, no_sleep=self.no_sleep)
        kw.update(overrides)
        return EvaluationContext(**kw)

    def form_for(self, active_count: int) -> AffinePowerForm:
        n_active = self.scenario.M if self.no_sleep else active_count
        if n_active not in self._forms:
            self._forms[n_active] = build_affine_form(
                self.bs_config, self.system, self.scenario.M, self.scenario.K, n_active)
        return self._forms[n_active]


@dataclass(frozen=True)
class PreferenceOutcome:
    approved: bool
    matching: Association | None = None    # the matching after an approved move


@dataclass(frozen=True)
class SolutionReport:
    matching: Association
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
                  floor: np.ndarray, target: np.ndarray) -> Association:
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
    return Association(S=S, max_per_ue=scenario.L, max_per_bs=scenario.N)


def recp_init(corr: CorrelationSet, scenario: ScenarioParams,
              delta_percent: float) -> Association:
    """Received-power prefix selection: the minimal prefix whose cumulative
    gain reaches delta% of the UE's total, truncated to L."""
    if not 0 < delta_percent <= 100:
        raise ConfigError("delta_percent must lie in (0, 100]")
    beta = corr.beta    # per-column sums: beta.sum(axis=0) rounds differently
    totals = np.array([beta[:, k].sum() for k in range(beta.shape[1])])
    return _greedy_assoc(corr, scenario, np.zeros(beta.shape[1]),
                         delta_percent / 100.0 * totals)


def llsf_assoc(corr: CorrelationSet, scenario: ScenarioParams) -> Association:
    """Single strongest-gain BS per UE, ties to the lowest index."""
    K = corr.beta.shape[1]
    return _greedy_assoc(corr, scenario, np.zeros(K), np.zeros(K))


def tsap_assoc(corr: CorrelationSet, scenario: ScenarioParams) -> Association:
    """Neighborhood selection: every BS within 30% of the UE's best gain
    (inclusive), strongest L kept, capacity respected."""
    K = corr.beta.shape[1]
    return _greedy_assoc(corr, scenario, 0.3 * corr.beta.max(axis=0), np.full(K, np.inf))


# ---------------------------------------------------------------------------
# Evaluation with caching
# ---------------------------------------------------------------------------

def evaluate(S, power_mode: str, ctx: EvaluationContext):
    """Score the matching with serving matrix S: run the selected controller,
    compute rates and EE. A list of serving matrices (the swap scan's lookahead)
    gives a list of results, every cache miss among them scored in one stacked
    call. They wait outside the cache until their matching is asked for alone,
    and the next list drops the rest, so the cache, and evaluation_count, hold
    only the matchings asked for alone."""
    if power_mode not in POWER_MODES:
        raise ConfigError(f"unknown power mode {power_mode!r}")
    mode_cache = ctx._cache.setdefault(power_mode, {})
    if isinstance(S, list):
        keys = [s.tobytes() for s in S]
        misses = {key: s for key, s in zip(keys, S) if key not in mode_cache}
        ctx._ahead[power_mode] = ahead = dict(zip(misses, _score(
            np.array([*misses.values()]), power_mode, ctx) if misses else []))
        return [mode_cache.get(key) or ahead[key] for key in keys]
    key = S.tobytes()
    if key not in mode_cache:
        held = ctx._ahead.get(power_mode, {}).pop(key, None)
        mode_cache[key] = held or _score(S[None], power_mode, ctx)[0]
    return mode_cache[key]


def _score(S: np.ndarray, power_mode: str, ctx: EvaluationContext) -> list:
    """PowerSolutions of the serving matrices stacked (B, M, K), one per member."""
    qos = ctx.qos
    active = S.any(axis=2).sum(axis=1)
    forms = [ctx.form_for(n) for n in active.tolist()]
    if power_mode == "slmdb":    # solved one by one, so nothing is stacked
        return [slmdb_solve(link_coefficients(s, ctx.tensor), ctx.frame, form, qos,
                            ctx.settings) for s, form in zip(S, forms)]
    lc = link_coefficients(S, ctx.tensor)
    verdict = None
    if power_mode == "fipc":
        p = np.broadcast_to(fipc(ctx.scenario.K, qos), lc.ns.shape)
    elif power_mode == "eipc":
        p = eipc(S, ctx.corr, qos)
    else:
        p, verdict = qopc_solve(lc, ctx.frame, qos)
    rates = rates_from_coeffs(p, lc, ctx.frame)
    ee = np.sum(rates, axis=1)
    for n in set(active.tolist()):    # one power form per active count
        rows = np.flatnonzero(active == n)
        ee[rows] /= forms[rows[0]].total(p[rows], rates[rows])
    deficits = qos_deficits(rates, qos)
    shortfall = np.sum(deficits, axis=1).tolist()
    violations = np.count_nonzero(deficits, axis=1).tolist()
    # feasible is the QoPC LP's own verdict, else the rate check; rows are copied
    # so that a cached result does not keep the stack alive
    return [PowerSolution(p=p[b].copy(), ee=e, rates=rates[b].copy(), diagnostics=_NO_SOLVE,
                          feasible=short == 0.0 if verdict is None else bool(verdict[b]),
                          form=forms[b], shortfall_bps=short, qos_violations=v)
            for b, (e, short, v) in enumerate(zip(ee.tolist(), shortfall, violations))]


def _eval_count(ctx: EvaluationContext, power_mode: str) -> int:
    return len(ctx._cache.get(power_mode, {}))


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------

def _moved(S: np.ndarray, move: tuple, ctx: EvaluationContext) -> np.ndarray | None:
    """Serving matrix after the move (i, m, n, j), or None when it does not apply.

    The vacated slots must be held and the entered slots free. A move without
    j that enters n must leave UE i within L and BS n within N; an exchange
    keeps every count. No move may put a serving BS to sleep under no_sleep.
    """
    i, m, n, j = move
    leave = [] if m is None else [(m, i)]
    enter = [] if n is None else [(n, i)]
    if j is not None:
        leave.append((n, j))
        enter.append((m, j))
    if not all(S[c] for c in leave) or any(S[c] for c in enter):
        return None
    new = S.copy()
    for c in leave:
        new[c] = False
    for c in enter:
        new[c] = True
    if j is None and n is not None and (np.count_nonzero(new[:, i]) > ctx.scenario.L
                                        or np.count_nonzero(new[n]) > ctx.scenario.N):
        return None
    if ctx.no_sleep and S.any(axis=1)[~new.any(axis=1)].any():
        return None    # move would put a serving BS to sleep
    return new


def _pair_moves(S: np.ndarray, i: int, j: int | None):
    """Candidate moves for the ordered pair (UE i, UE j) against the current S:
    with j None every add, then remove, then replace; else every exchange."""
    M = S.shape[0]
    held = [int(m) for m in np.flatnonzero(S[:, i])]
    if j is None:
        free = [n for n in range(M) if not S[n, i]]
        yield from ((i, None, n, None) for n in free)
        yield from ((i, m, None, None) for m in held)
        yield from ((i, m, n, None) for m in held for n in free)
    else:
        for m in held:
            for n in np.flatnonzero(S[:, j]):
                if not S[n, i] and not S[m, j]:
                    yield i, m, int(n), j


def _pair_order(K: int):
    for i in range(K):
        for j in list(range(K)) + [None]:
            if j == i:
                continue
            yield i, j


def is_swap_blocking(matching: Association, swapped: np.ndarray | None, power_mode: str,
                     ctx: EvaluationContext) -> PreferenceOutcome:
    """Approve the candidate serving matrix `swapped` (None: the move does not
    apply) iff it strictly improves (shortfall, EE) lexicographically.

    With QoS currently met that reduces to: QoS stays met and EE strictly
    increases (the shared-preference reading of a blocking pair).
    """
    before = evaluate(matching.S, power_mode, ctx)
    if swapped is None:
        return PreferenceOutcome(approved=False)
    after = evaluate(swapped, power_mode, ctx)
    if (after.shortfall_bps < before.shortfall_bps
            or (after.shortfall_bps == before.shortfall_bps and after.ee > before.ee)):
        return PreferenceOutcome(approved=True, matching=Association(S=swapped))
    return PreferenceOutcome(approved=False)


def verify_stability(matching: Association, power_mode: str,
                     ctx: EvaluationContext) -> bool:
    """True iff no candidate move is approved from this matching."""
    K = matching.S.shape[1]
    for i, j in _pair_order(K):
        for move in _pair_moves(matching.S, i, j):
            if is_swap_blocking(matching, _moved(matching.S, move, ctx), power_mode,
                                ctx).approved:
                return False
    return True


# ---------------------------------------------------------------------------
# The full matching algorithm and the oracle
# ---------------------------------------------------------------------------

def trimsm(ctx: EvaluationContext, power_mode: str = "slmdb") -> SolutionReport:
    """Initialization + swap phase + (for heuristic modes) final slmdb pass."""
    matching = recp_init(ctx.corr, ctx.scenario, ctx.settings.recp_delta_percent)
    structural_gap = False
    if ctx.no_sleep:
        matching, structural_gap = _repair_empty_bs(matching, ctx)

    swap_count = 0
    converged = False
    for _ in range(_MAX_SWEEPS):
        swaps_before = swap_count
        for i, j in _pair_order(ctx.scenario.K):
            moves = list(_pair_moves(matching.S, i, j))
            t = 0
            while t < len(moves):    # one pass per incumbent: restart after an approval
                candidates = (_moved(matching.S, move, ctx) for move in moves[t:])
                if power_mode != "slmdb":    # slmdb builds each candidate as it is judged
                    candidates = list(candidates)
                    evaluate([S for S in candidates if S is not None], power_mode, ctx)
                for swapped in candidates:
                    t += 1
                    outcome = is_swap_blocking(matching, swapped, power_mode, ctx)
                    if outcome.approved:
                        matching = outcome.matching
                        swap_count += 1
                        break
        if swap_count == swaps_before:
            converged = True
            break

    # a sweep that approves nothing has scanned every move from this matching
    final = evaluate(matching.S, "slmdb", ctx)
    return SolutionReport(
        matching=matching, power=final, swap_count=swap_count,
        evaluation_count=_eval_count(ctx, power_mode) + (_eval_count(ctx, "slmdb")
                                                         if power_mode != "slmdb" else 0),
        stable=converged, infeasible=(not final.qos_ok) or structural_gap)


def nos_assoc(ctx: EvaluationContext) -> SolutionReport:
    """No-sleeping variant: every BS must keep at least one UE; A is all ones."""
    no_sleep_ctx = ctx if ctx.no_sleep else ctx.clone(no_sleep=True)
    return trimsm(no_sleep_ctx, "eipc")


def _repair_empty_bs(matching: Association, ctx: EvaluationContext):
    """Give every empty BS a UE when capacity allows; returns (matching, gap)."""
    S = matching.S.copy()
    beta = ctx.corr.beta
    M, K = S.shape
    L, Ncap = ctx.scenario.L, ctx.scenario.N
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
    gap = bool((~S.any(axis=1)).any())
    return Association(S=S, max_per_ue=L, max_per_bs=Ncap), gap


def exhaustive_search(ctx: EvaluationContext) -> SolutionReport:
    """Enumerate every admissible matching and keep the best feasible one.

    Ties break toward fewer active BSs, then the lexicographically smallest
    matrix. Guarded to M*K <= 16.
    """
    M, K = ctx.scenario.M, ctx.scenario.K
    if M * K > 16:
        raise ConfigError(f"exhaustive search guard: M*K = {M * K} exceeds 16")
    L, Ncap = ctx.scenario.L, ctx.scenario.N
    choices = [c for size in range(L + 1) for c in combinations(range(M), size)]

    best = None          # (rank, matching, result); feasible matchings rank first
    for subsets in product(choices, repeat=K):
        S = np.zeros((M, K), dtype=bool)
        for k, subset in enumerate(subsets):
            S[list(subset), k] = True
        if (S.sum(axis=1) > Ncap).any():
            continue
        matching = Association(S=S, max_per_ue=L, max_per_bs=Ncap)
        res = evaluate(matching.S, "slmdb", ctx)
        rank = ((0, -res.ee, matching.active_count, S.tobytes()) if res.qos_ok
                else (1, res.shortfall_bps, -res.ee, S.tobytes()))
        if best is None or rank < best[0]:
            best = (rank, matching, res)

    rank, chosen, res = best
    return SolutionReport(matching=chosen, power=res, swap_count=0,
                          evaluation_count=_eval_count(ctx, "slmdb"), stable=True,
                          infeasible=rank[0] == 1)
