"""Power control for a fixed association.

The energy-efficiency objective sum_k R_k / P_N is a nonconvex fraction of P.
The solver iterates two nested loops:

  outer (surrogate refresh): at the anchor P0, each rate is sandwiched by a
    concave lower bound Rbar (rate with its convex log replaced by its tangent)
    and a convex upper bound Rhat; substituting them into numerator/denominator
    gives a concave-convex fractional lower bound of EE, tight at P0.

  inner (Dinkelbach): the fractional surrogate is maximized by root-finding on
    F(pi) = max_P sum Rbar - pi * P_N(P, Rhat); each parametric problem is a
    smooth concave maximization over the box intersected with the linearized
    QoS constraints r_k(P) <= 0, solved with a log-barrier Newton method.

Every log argument of the barrier (rate logs, box and normalized QoS slacks)
is affine in P and is stacked once per problem as z = B P + b, so a Newton step
costs a fixed handful of array calls; its k x k system is one direct call of
the LAPACK gufunc behind np.linalg.solve (`_lapack`), with np.linalg's bits.
Every solve runs damped Newton at one barrier weight, whose duality-gap proxy
sits below the target both in rate-scale units and relative to the spectral
efficiency: the center at a fixed weight is unique and damped Newton reaches
it from any interior start (Boyd & Vandenberghe, Convex Optimization, 2004,
9.6 and 11.3), so no central path is followed. A start with every slack
positive, such as the SLM anchor or the previous Dinkelbach round's solution,
is used as it is; any other solve starts from the QoPC LP's min-max point
moved halfway toward the box center.

The true EE of the iterates is nondecreasing because the surrogate is a global
lower bound with equality at the anchor; only the inner solve's tolerance can
lose EE, so the outer loop stops at the first round that does not raise it.
Low-complexity controllers: fixed max power, a QoS feasibility LP (min-max
residual), and statistical channel inversion.

The min-max LP has the uplink power-control structure of Foschini & Miljanic
(IEEE TVT 1993) and Yates (IEEE JSAC 1995): a UE's QoS residual falls with its
own power and rises with everyone else's. When -W is an M-matrix and the
balanced point fits the box, that point is the LP's unique optimum and costs
one k x k inverse (`_balanced_point`). Otherwise (targets out of reach, or a
binding UE that sees no interference from some other UE) a homotopy in s finds
the optimal face's least element in at most k + 1 small solves.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

from .netmodel import ConfigError, FrameConfig
from .powermodel import AffinePowerForm
from .rates import LinkCoefficients

_LN2 = np.log(2.0)
_INV_LN2 = 1.0 / _LN2
# the reductions behind ndarray.min/max/sum and np.sum, without their wrappers;
# the solver's 1-D and 2-D products use ndarray.dot, which makes the BLAS calls
# that `@` makes on them (the same bits) with less dispatch
_min, _max, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce

QOS_RATE_RTOL = 1e-6     # rate slack, relative to the target, before a UE misses QoS
_FEAS_TOL = 1e-9         # normalized QoS residual accepted as feasible


class InfeasibleError(RuntimeError):
    """The QoS polytope is empty (or has no usable interior)."""


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


# the error state np.linalg enters around its LAPACK gufuncs: a singular matrix
# flags `invalid`, which raises, and nothing else warns
_LINALG_ERRSTATE = _make_extobj(call=_singular, invalid="call", over="ignore",
                                divide="ignore", under="ignore")


def _lapack(gufunc, *args):
    """One of the float64 LAPACK gufuncs behind np.linalg (`_umath_linalg.solve1`
    for `solve` with a vector, `.solve` with a matrix, `.inv`) called directly,
    under the error state np.linalg sets: the same bits and the same
    LinAlgError on a singular matrix, without the wrapper's checks and casts."""
    token = _extobj_contextvar.set(_LINALG_ERRSTATE)
    try:
        return gufunc(*args)
    finally:
        _extobj_contextvar.reset(token)


@dataclass(frozen=True)
class QosSpec:
    r_min_bps: np.ndarray        # per-UE minimum rates
    gamma: np.ndarray            # per-UE SINR thresholds implied by r_min
    p_max_w: float

    def __post_init__(self):
        if not 0 < self.p_max_w < np.inf:
            raise ConfigError("p_max_w must be positive and finite")
        if not (np.asarray(self.gamma) >= 0).all() or not np.isfinite(self.gamma).all():
            raise ConfigError("r_min_bps must give finite, nonnegative SINR thresholds")


def gamma_thresholds(r_min_bps: np.ndarray, frame: FrameConfig) -> np.ndarray:
    """SINR threshold equivalent to each minimum rate: 2^(tau_c R / (tau_u B)) - 1."""
    r = np.asarray(r_min_bps, dtype=float)
    with np.errstate(over="ignore"):    # an overflow gives inf, which QosSpec rejects
        return 2.0 ** (frame.tau_c * r / (frame.tau_u * frame.bandwidth_hz)) - 1.0


def make_qos(r_min_bps, K: int, frame: FrameConfig, p_max_w: float) -> QosSpec:
    r = np.broadcast_to(np.asarray(r_min_bps, dtype=float), (K,)).copy()
    return QosSpec(r_min_bps=r, gamma=gamma_thresholds(r, frame), p_max_w=p_max_w)


def qos_deficits(rates: np.ndarray, qos: QosSpec) -> np.ndarray:
    """Per-UE rate deficit below the target, rates (..., K): 0 where the rate
    meets it to within QOS_RATE_RTOL, else the shortfall past that slack."""
    return np.maximum(0.0, qos.r_min_bps - rates - QOS_RATE_RTOL * qos.r_min_bps)


@dataclass(frozen=True)
class SolverSettings:
    slm_tol: float = 1e-3            # relative EE improvement threshold
    slm_max_iter: int = 100
    recp_delta_percent: float = 95.0     # RECP init: share of each UE's total gain

    def __post_init__(self):
        if self.slm_tol <= 0:
            raise ConfigError("slm_tol must be positive")
        if self.slm_max_iter < 1:
            raise ConfigError("slm_max_iter must be >= 1")
        if not 0 < self.recp_delta_percent <= 100:
            raise ConfigError("recp_delta_percent must lie in (0, 100]")


@dataclass(slots=True)
class SolveDiagnostics:
    slm_iterations: int = 0
    ee_trace: list = field(default_factory=list)    # start, then each SLM round
    pi_traces: list = field(default_factory=list)   # each Dinkelbach run's ratios
    newton_steps: int = 0            # Newton systems solved
    hit_iteration_cap: bool = False
    lstsq_fallbacks: int = 0         # singular Newton systems solved by least squares
    line_search_exhausted: int = 0   # solves ended with no admissible step
    newton_cap_hits: int = 0         # solves ended at the Newton step cap
    interior_infeasible: bool = False    # no strict interior ended the SLM loop early

    @property
    def dinkelbach_iterations(self) -> list:
        """Ratio values each Dinkelbach run held, its start included."""
        return [len(trace) for trace in self.pi_traces]


@dataclass(frozen=True, slots=True)
class PowerSolution:
    """A matching scored under one controller: powers, rates, EE and QoS verdict."""
    p: np.ndarray
    ee: float
    rates: np.ndarray
    feasible: bool               # the controller's verdict (QoPC LP, slmdb) or the rate check
    diagnostics: SolveDiagnostics
    form: AffinePowerForm        # the network-power form the EE was taken under
    n_active: int                # BSs counted as active in it (all M under no-sleeping)
    shortfall_bps: float         # sum of the per-UE qos_deficits
    qos_violations: int          # UEs with a nonzero deficit

    @property
    def qos_ok(self) -> bool:
        return self.shortfall_bps == 0.0 and self.feasible


# ---------------------------------------------------------------------------
# Reduced problem over served UEs
# ---------------------------------------------------------------------------

def _qos_rows(Af, D, n, gamma, pmax):
    """QoS residuals r = W P + c (<= 0: target met) and scales, (W, c, rscale)."""
    diag = np.arange(len(gamma))
    W = gamma[:, None] * Af
    W[..., diag, diag] -= (1.0 + gamma) * D
    c = gamma * n
    return W, c, np.maximum(np.abs(c) + np.abs(W) @ np.full(len(gamma), pmax), 1e-300)


def _unserved_target(qos: QosSpec, served: np.ndarray) -> bool:
    """Whether a UE with a rate target has no serving set (infeasible at any P)."""
    return bool((qos.r_min_bps[~served] > 0).any())


class ReducedProblem:
    """Fixed-association power problem restricted to UEs with a serving set.

    Unserved UEs keep zero power and zero rate; they still contribute circuit
    power through the affine form's constant at `n_active` BSs.
    """

    def __init__(self, lc: LinkCoefficients, frame: FrameConfig, form: AffinePowerForm,
                 n_active: int, qos: QosSpec):
        self.form = form
        self.n_active = n_active
        self.qos = qos
        self.K = len(lc.ns)
        self.served = lc.served
        s = np.flatnonzero(self.served)
        self.idx = s
        self.cr = frame.rate_scale
        self.pmax = qos.p_max_w
        # with every UE served the arrays are read in place: a C-ordered interf
        # has the bits of the gathered copy
        self.all_served = len(s) == self.K
        sel = slice(None) if self.all_served else s

        self.Af = (np.ascontiguousarray(lc.interf) if self.all_served
                   else lc.interf[np.ix_(s, s)])
        self.D = lc.ds2[sel]
        self.Ag = self.Af - np.diag(self.D)
        self.n = frame.noise_power_w * lc.ns[sel]
        self.gamma = qos.gamma[sel]
        self.alpha = form.alpha_per_k[sel]
        self.delta = form.delta_per_k[sel]
        self.c0, self.r_ref = float(form.c0_w[n_active]), form.r_ref_bps

        self.W, self.c, self.rscale = _qos_rows(self.Af, self.D, self.n, self.gamma,
                                                self.pmax)
        self.qrows = np.flatnonzero(self.gamma > 0)   # gamma = 0 rows are implied by P >= 0

        self.structurally_infeasible = (not self.all_served
                                        and _unserved_target(qos, self.served))

    # -- plain evaluations ---------------------------------------------------

    def expand(self, p_red: np.ndarray) -> np.ndarray:
        if self.all_served:
            return p_red
        p = np.zeros(self.K)
        p[self.idx] = p_red
        return p

    def rates(self, p: np.ndarray) -> np.ndarray:
        af = self.Af.dot(p) + self.n
        ag = self.Ag.dot(p) + self.n
        return self.cr * (np.log2(af) - np.log2(ag))

    def power_total(self, p: np.ndarray, rates: np.ndarray) -> float:
        return float(self.c0 + self.alpha.dot(rates / self.r_ref) + self.delta.dot(p))

    def interior_point(self) -> np.ndarray:
        """Strictly feasible start: the QoPC LP point clipped eps inside the box, else
        pmax/2 when no UE has a rate target; raises InfeasibleError otherwise."""
        p, _, s = self.qopc
        eps = 1e-9 * self.pmax
        p = p.clip(eps, self.pmax - eps)
        if s < -1e-9 and self.margin(p) < 0:
            return p
        if len(self.qrows) == 0:
            return np.full(len(self.idx), 0.5 * self.pmax)
        raise InfeasibleError("QoS constraints leave no strictly feasible power")

    def margin(self, p: np.ndarray) -> float:
        """Largest normalized QoS residual over rows with a rate target, or -inf."""
        rows = self.qrows
        if len(rows) == 0:
            return -np.inf
        return float(_max((self.W[rows].dot(p) + self.c[rows]) / self.rscale[rows]))

    def solution(self, p_red: np.ndarray, rates_red: np.ndarray, feasible: bool,
                 diag: SolveDiagnostics) -> PowerSolution:
        """EE and QoS deficits at the reduced powers `p_red` and their rates,
        network power from the form over full vectors."""
        p = self.expand(p_red)
        rates = self.expand(rates_red)
        ee = float(_sum(rates)) / self.form.total(p, rates, self.n_active)
        deficits = qos_deficits(rates, self.qos)
        return PowerSolution(p=p, ee=ee, rates=rates, feasible=feasible,
                             diagnostics=diag, form=self.form, n_active=self.n_active,
                             shortfall_bps=float(_sum(deficits)),
                             qos_violations=int(np.count_nonzero(deficits)))

    @cached_property
    def qopc(self) -> tuple[np.ndarray, bool, float]:
        """`_minmax` on this problem, solved once: (reduced P, feasible,
        normalized optimal residual)."""
        p, s, feasible = _minmax(self.W[None], self.c[None], self.rscale[None], self.pmax,
                                 self.structurally_infeasible)
        return p[0], bool(feasible[0]), float(s[0])

    @cached_property
    def barrier_stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """(B, B.T, b, m) with z = B P + b stacking every barrier log argument:
        af, ag, then the m barrier terms, the box slacks P and pmax - P and the
        normalized QoS slacks."""
        k, rows = len(self.idx), self.qrows
        B = np.concatenate([self.Af, self.Ag, np.eye(k), -np.eye(k),
                            -self.W[rows] / self.rscale[rows, None]])
        b = np.concatenate([self.n, self.n, np.zeros(k), np.full(k, self.pmax),
                            -self.c[rows] / self.rscale[rows]])
        return B, B.T, b, len(b) - 2 * k


class Surrogate:
    """An SLM iterate: the point `anchor`, its true rates and EE, and the
    tangents there of the two concave logs, which make the surrogate EE a lower
    bound of the true EE, tight at the anchor. One set of logs gives all three."""

    def __init__(self, prob: ReducedProblem, anchor: np.ndarray):
        if not (_min(anchor) >= -1e-12 and _max(anchor) <= prob.pmax + 1e-12):
            raise ConfigError("anchor must lie inside the power box")
        self.prob = prob
        self.anchor = anchor
        self.f_den = prob.Af.dot(anchor) + prob.n
        self.g_den = prob.Ag.dot(anchor) + prob.n
        if _min(self.f_den) <= 0 or _min(self.g_den) <= 0:
            raise ConfigError("anchor produces a nonpositive log argument")
        self.f0 = np.log2(self.f_den)
        self.g0 = np.log2(self.g_den)
        self.rates = prob.cr * (self.f0 - self.g0)
        self.ee = float(_sum(self.rates)) / prob.power_total(anchor, self.rates)
        self.vf = prob.Af / (_LN2 * self.f_den[:, None])
        self.vg = prob.Ag / (_LN2 * self.g_den[:, None])
        self.neg_vg_sum = -_sum(self.vg, axis=0)    # the parametric q's anchor term

    def rate_bounds(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(upper Rhat, lower Rbar); both equal the true rates at the anchor."""
        prob = self.prob
        dp = p - self.anchor
        f_hat = self.f0 + self.vf.dot(dp)
        g_hat = self.g0 + self.vg.dot(dp)
        af = prob.Af.dot(p) + prob.n
        ag = prob.Ag.dot(p) + prob.n
        r_hat = prob.cr * (f_hat - np.log2(ag))
        r_bar = prob.cr * (np.log2(af) - g_hat)
        return r_hat, r_bar

    def fraction(self, p: np.ndarray) -> tuple[float, float]:
        """(sum Rbar, P_N at Rhat): numerator and denominator of the surrogate EE."""
        r_hat, r_bar = self.rate_bounds(p)
        return float(_sum(r_bar)), self.prob.power_total(p, r_hat)

    def ratio(self, p: np.ndarray) -> float:
        num, den = self.fraction(p)
        return num / den


# ---------------------------------------------------------------------------
# Inner parametric solver: log-barrier Newton
# ---------------------------------------------------------------------------

_NEWTON_MAX_ITER = 200
_NEWTON_TOL = 1e-6       # half the Newton decrement that ends a solve
_INNER_TOL = 1e-8        # duality-gap proxy, in rate-scale units and relative to SE
_LS_TRIALS = 60          # step halvings before a line search gives up


def _center(p: np.ndarray, B: np.ndarray, b: np.ndarray, pmax: float) -> np.ndarray:
    """Move p toward the box center, halfway to where that ray leaves
    {B P + b > 0} and at most to the center: every slack keeps half its value."""
    d = 0.5 * pmax - p
    dz = B.dot(d)
    shrink = dz < 0
    if not shrink.any():
        return p
    s = min(1.0, 0.5 * float(_min((B.dot(p) + b)[shrink] / -dz[shrink])))
    return p + s * d


def _halvings(rz_min: float) -> int:
    """Halvings of a unit step before rz_min * 2^-j > -1, i.e. before every slack
    stays positive: the binary exponent of -rz_min, exact since each scale is a
    power of two. A NaN or infinite rz_min admits no step and spends the budget."""
    return 0 if rz_min > -1 else math.frexp(-rz_min)[1] if rz_min > -math.inf else _LS_TRIALS


def _solve_parametric(sur: Surrogate, pi: float, start: np.ndarray,
                      diag: SolveDiagnostics) -> np.ndarray:
    """Maximize u(P) = [sum Rbar - pi * P_N(P, Rhat)] / rate_scale, a concave
    function, over the box and the QoS rows:

        u(P) = sum_k log2(af_k) + sum_k c2_k log2(ag_k) + q . P + u0

    Only the weights c2 and q move the maximizer. The solve starts at `start`
    when every slack is positive there, else at the centered QoPC point."""
    prob = sur.prob
    k = len(prob.idx)
    c2 = pi * prob.alpha / prob.r_ref
    q = sur.neg_vg_sum - c2.dot(sur.vf) - (pi / prob.cr) * prob.delta
    B, BT, b, m = prob.barrier_stack
    p = start
    z = B.dot(p) + b
    if not _min(z) > 0:
        p = _center(prob.interior_point(), B, b, prob.pmax)
        z = B.dot(p) + b

    # barrier = w . log z + t q . P at the one weight t whose duality-gap proxy
    # m / t sits well below the target in rate-scale units and, since the gap
    # over the spectral efficiency SE = sum log2(af / ag) bounds the relative EE
    # loss, relative to the start's SE: the objective's log2 terms carry weight
    # t / ln 2, the box and QoS barrier terms weight 1
    se = float(_sum(np.log2(z[:k] / z[k:2 * k])))
    t = m / (0.1 * _INNER_TOL * min(1.0, se))
    w = np.empty(len(b))
    w[:k] = t * _INV_LN2
    w[k:2 * k] = t * (c2 / _LN2)
    w[2 * k:] = 1.0
    tq = t * q
    for _ in range(_NEWTON_MAX_ITER):
        wz = w / z
        grad = BT.dot(wz) + tq
        neg_hess = (BT * (wz / z)).dot(B)
        try:
            step = _lapack(_umath_linalg.solve1, neg_hess, grad)
        except LinAlgError:
            diag.lstsq_fallbacks += 1
            step = np.linalg.lstsq(neg_hess, grad, rcond=None)[0]
        dec = float(grad.dot(step))
        diag.newton_steps += 1
        if dec / 2 <= _NEWTON_TOL:
            break
        # line search on the barrier's change, w.log1p(scale dz/z) + scale t q.step
        # (the barrier value is too large to resolve the Armijo gain), from the
        # first halving that keeps every slack positive
        dz = B.dot(step)
        rz = dz / z
        qs = float(tq.dot(step))
        j = _halvings(float(_min(rz)))
        scale = math.ldexp(1.0, -j)
        for _ in range(j, _LS_TRIALS):
            full = scale == 1.0    # a product by 1 is exact, so a full step skips it
            gain = w.dot(np.log1p(rz if full else scale * rz)) + scale * qs
            if gain > 0.25 * scale * dec:
                p, z = (p + step, z + dz) if full else (p + scale * step, z + scale * dz)
                break
            scale *= 0.5
        else:
            diag.line_search_exhausted += 1
            break
    else:
        diag.newton_cap_hits += 1
    return p.clip(0.0, prob.pmax)


# ---------------------------------------------------------------------------
# Dinkelbach + successive lower-bound maximization
# ---------------------------------------------------------------------------

_DINKELBACH_TOL = 1e-6   # |F(pi)| threshold, relative to the sum rate
_DINKELBACH_MAX_ITER = 50
_STALL_ROUNDS = 3        # non-increasing ratio updates that end the rounds


def _dinkelbach(sur: Surrogate, diag: SolveDiagnostics) -> np.ndarray:
    """Maximize the fractional surrogate of the iterate `sur`, starting from its
    ratio at the anchor, which is the anchor's EE `sur.ee`. The first
    parametric solve starts at the anchor. Returns the maximizer; the ratio
    values, nondecreasing up to solver noise, go to `diag.pi_traces`."""
    pi = max(sur.ee, 0.0)
    pi_trace = [pi]
    p = sur.anchor
    stall = 0
    for _ in range(_DINKELBACH_MAX_ITER):
        p = _solve_parametric(sur, pi, p, diag)
        num, den = sur.fraction(p)
        f_val = num - pi * den
        if abs(f_val) <= _DINKELBACH_TOL * max(sur.prob.cr, abs(num)):
            break
        pi_new = num / den
        pi_trace.append(pi_new)    # raw ratio updates; nondecreasing up to solver noise
        if pi_new <= pi * (1 + 1e-15):
            stall += 1
            if stall >= _STALL_ROUNDS:
                break
        else:
            stall = 0
        pi = max(pi, pi_new)
    else:
        diag.hit_iteration_cap = True
    diag.pi_traces.append(pi_trace)
    return p


def slmdb_solve(lc: LinkCoefficients, frame: FrameConfig, form: AffinePowerForm,
                n_active: int, qos: QosSpec, settings: SolverSettings) -> PowerSolution:
    """Full successive lower-bound maximization on precomputed link coefficients,
    started from the QoPC LP's point, with `n_active` BSs counted as active."""
    prob = ReducedProblem(lc, frame, form, n_active, qos)
    diag = SolveDiagnostics()

    p_red, feasible, _ = prob.qopc
    if not feasible or len(prob.idx) == 0:
        # nothing to optimize: no served UE (the EE stays 0), or no feasible power
        return prob.solution(p_red, prob.rates(p_red), feasible, diag)

    sur = Surrogate(prob, p_red)
    diag.ee_trace.append(sur.ee)
    try:
        for n in range(1, settings.slm_max_iter + 1):
            diag.slm_iterations = n
            cand = Surrogate(prob, _dinkelbach(sur, diag))
            diag.ee_trace.append(cand.ee)
            if not cand.ee > sur.ee:
                # the surrogate is tight at the anchor, so only the inner
                # solve's tolerance can lose EE: no ascent left, keep the anchor
                break
            improvement = (cand.ee - sur.ee) / sur.ee if sur.ee > 0 else np.inf
            sur = cand
            if improvement <= settings.slm_tol:
                break
        else:
            diag.hit_iteration_cap = True
    except InfeasibleError:
        # feasible set has no strict interior (a single point, typically):
        # the feasible start is already the solution
        diag.interior_infeasible = True

    return prob.solution(sur.anchor, sur.rates, True, diag)


# ---------------------------------------------------------------------------
# Low-complexity controllers
# ---------------------------------------------------------------------------

def fipc(K: int, qos: QosSpec) -> np.ndarray:
    """Every UE transmits at the power cap."""
    return np.full(K, qos.p_max_w)


def _balanced_point(W, c, rscale, pmax):
    """Closed-form optima (P, s) of min-max LPs stacked (B, k, k), and the mask
    of members whose certificate holds; the other members' rows are undefined.

    With the QoS rows tight, W P + c = s rscale gives P = a - s b for
    a = (-W)^-1 c and b = (-W)^-1 rscale; the smallest s that fits the cap is
    s* = max_j (a_j - pmax) / b_j. If -W is an M-matrix (off-diagonal W >= 0,
    diag W < 0, (-W)^-1 >= 0 elementwise), every feasible (P, s) has
    P >= a - s b, so s < s* would push P_j* above pmax: with P* = a - s* b >= 0
    the point is optimal. It is the unique optimum when k = 1 or row j* couples
    to every other UE (W[j*, i] > 0): any other optimal P >= P* with
    P_j* = pmax would break row j*.
    """
    B, k = c.shape
    eye = np.eye(k, dtype=bool)
    ok = np.logical_and.reduce((W < 0) == eye, axis=(1, 2))
    certified = np.count_nonzero(ok)
    if not certified:
        return np.zeros((B, k)), np.zeros(B), ok
    neg = -W if certified == B else np.where(ok[:, None, None], -W, eye)    # uncertified: I
    try:
        inv = _lapack(_umath_linalg.inv, neg)
    except LinAlgError:    # one singular member fails the whole stack
        inv = np.zeros_like(neg)
        for t in range(B):
            try:
                inv[t] = _lapack(_umath_linalg.inv, neg[t])
            except LinAlgError:
                ok[t] = False
    ok[np.logical_or.reduce(inv < 0, axis=(1, 2))] = False
    a = (inv @ c[..., None])[..., 0]
    b = (inv @ rscale[..., None])[..., 0]
    b[~ok] = 1.0    # keeps the uncertified members' ratios finite
    ratios = (a - pmax) / b
    j = ratios.argmax(axis=1)
    rows = np.arange(B)
    s = ratios[rows, j]
    p = a - s[:, None] * b
    # row j* couples to every UE
    ok[np.logical_or.reduce((p < 0) | (W[rows, j] == 0), axis=1)] = False
    return p, s, ok


def _least_power_point(W, c, r, pmax) -> tuple[np.ndarray, float]:
    """Least element (P, s) of the min-max LP's optimal face, by a homotopy in s.

    Off-diagonal W >= 0 makes {0 <= P <= pmax : W P + c <= s rscale} closed under
    componentwise min; its least element L(s), the Yates least-power point, is
    piecewise affine and nonincreasing in s. From L = 0 at s = max_j c_j / rscale_j,
    s falls with the free set A's rows tight: L_A = a - s b, a = (-W_AA)^-1 c_A,
    b = (-W_AA)^-1 rscale_A; rows turning tight at P_j = 0 join A. s* is where a
    free UE reaches pmax, or where no P >= 0 fits below s: the grown -W_AA is not
    a nonsingular M-matrix (b not > 0), which covers a tight row with W_jj >= 0.
    """
    free = np.zeros(len(c), dtype=bool)
    a = b = np.zeros(0)
    s = np.inf
    for _ in range(len(c) + 1):    # each pass adds a row or stops; full A stops
        out = ~free
        Wo = W[:, free][out]    # columns first, so the gather is C-ordered as ix_'s is
        rows = np.minimum((Wo @ a + c[out]) / (Wo @ b + r[out]), s)
        s_row = _max(rows, initial=-np.inf)
        s_cap = _max((a - pmax) / b, initial=-np.inf)
        if s_cap >= s_row:
            s = min(s, float(s_cap))
            break
        s = float(s_row)
        grown = free.copy()
        grown[out] = rows == s_row
        try:
            ab = _lapack(_umath_linalg.solve, -W[:, grown][grown],
                         np.stack([c[grown], r[grown]], 1))
        except LinAlgError:
            break
        if (ab[:, 1] <= 0).any():
            break
        free, a, b = grown, ab[:, 0], ab[:, 1]
    p = np.zeros(len(c))
    p[free] = a - s * b
    return p, s


def _minmax(W, c, rscale, pmax, blocked: bool):
    """Min-max LPs, min s over 0 <= P <= pmax with (W P + c) / rscale <= s,
    stacked (B, k, k) over one served set: P clipped to the box, s and verdicts,
    all of which `blocked` (an unserved UE has a target) fails. `_balanced_point`
    where its certificate holds, else `_least_power_point` one by one."""
    B, k = c.shape
    if k == 0:
        return np.zeros((B, 0)), np.full(B, -np.inf), np.full(B, not blocked)
    p, s, ok = _balanced_point(W, c, rscale, pmax)
    for t in np.flatnonzero(~ok):
        p[t], s[t] = _least_power_point(W[t], c[t], rscale[t], pmax)
    return p.clip(0.0, pmax), s, (s <= _FEAS_TOL) & (not blocked)


def qopc_solve(lc: LinkCoefficients, frame: FrameConfig, qos: QosSpec):
    """Min-max QoS residual LP; feasible iff the optimum is (numerically) <= 0.

    Unserved UEs get zero power; a positive rate target on an unserved UE makes
    the verdict infeasible regardless of the LP outcome. The coefficients are
    stacked (B, ...), and so are the results (B, K) powers and (B,) verdicts,
    with one `_minmax` call per served set. A stack that serves every UE in
    every member, nearly every stack the swap scan builds, is one served set
    and is solved as it stands; any other is grouped by a code per row.
    """
    served = lc.ns > 0
    noise = frame.noise_power_w * lc.ns
    if served.all():
        p, _, feasible = _minmax(*_qos_rows(lc.interf, lc.ds2, noise, qos.gamma, qos.p_max_w),
                                 qos.p_max_w, False)
        return p, feasible
    p, feasible = np.zeros(lc.ns.shape), np.zeros(len(lc.ns), dtype=bool)
    packed = np.packbits(served, axis=1)
    codes = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]    # the served set's bits
    for code in dict.fromkeys(codes.tolist()):
        rows = np.flatnonzero(codes == np.void(code))
        s = np.flatnonzero(served[rows[0]])
        W, c, rscale = _qos_rows(lc.interf[np.ix_(rows, s, s)], lc.ds2[np.ix_(rows, s)],
                                 noise[np.ix_(rows, s)], qos.gamma[s], qos.p_max_w)
        p_red, _, feasible[rows] = _minmax(W, c, rscale, qos.p_max_w,
                                           _unserved_target(qos, served[rows[0]]))
        p[np.ix_(rows, s)] = p_red
    return p, feasible


def eipc(S: np.ndarray, corr, qos: QosSpec) -> np.ndarray:
    """Statistical channel inversion.

    Per-UE gain vector over its serving BSs (trace of the link correlation);
    power scales with the inverse squared norm so the weakest served UE gets
    the cap. Unserved UEs get zero. S is a serving matrix (M, K), or a stack of
    them (B, M, K) giving (B, K).
    """
    gains = np.where(S, corr.N * corr.gain, 0.0)
    g2 = np.sum(gains**2, axis=-2)
    served = g2 > 0
    weakest = np.min(g2, axis=-1, keepdims=True, where=served, initial=np.inf)
    p = np.divide(weakest, g2, out=np.zeros(g2.shape), where=served)
    p *= qos.p_max_w    # unserved UEs stay at zero
    return p
