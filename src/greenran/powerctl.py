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
is affine in P and is stacked as z = B P + b, so a Newton step costs a fixed
handful of array calls. Cold solves start halfway toward the box center; warm
Dinkelbach rounds start at the previous solution and the final barrier weight.

The true EE of the iterates is nondecreasing because the surrogate is a global
lower bound with equality at the anchor. Low-complexity controllers: fixed max
power, a QoS feasibility LP (min-max residual), and statistical channel
inversion.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .netmodel import ConfigError, FrameConfig
from .powermodel import AffinePowerForm
from .rates import Association, LinkCoefficients, link_coefficients
from .statistics import CoefficientTensor

_LN2 = np.log(2.0)


class InfeasibleError(RuntimeError):
    """The QoS polytope is empty (or has no usable interior)."""


@dataclass(frozen=True)
class QosSpec:
    r_min_bps: np.ndarray        # per-UE minimum rates
    gamma: np.ndarray            # per-UE SINR thresholds implied by r_min
    p_max_w: float

    def __post_init__(self):
        if self.p_max_w <= 0:
            raise ConfigError("p_max_w must be positive")
        if (np.asarray(self.gamma) < 0).any():
            raise ConfigError("SINR thresholds must be nonnegative")


def gamma_thresholds(r_min_bps: np.ndarray, frame: FrameConfig) -> np.ndarray:
    """SINR threshold equivalent to each minimum rate: 2^(tau_c R / (tau_u B)) - 1."""
    r = np.asarray(r_min_bps, dtype=float)
    return 2.0 ** (frame.tau_c * r / (frame.tau_u * frame.bandwidth_hz)) - 1.0


def make_qos(r_min_bps, K: int, frame: FrameConfig, p_max_w: float) -> QosSpec:
    r = np.broadcast_to(np.asarray(r_min_bps, dtype=float), (K,)).copy()
    return QosSpec(r_min_bps=r, gamma=gamma_thresholds(r, frame), p_max_w=p_max_w)


@dataclass(frozen=True)
class SolverSettings:
    slm_tol: float = 1e-3            # relative EE improvement threshold
    slm_max_iter: int = 100
    dinkelbach_tol: float = 1e-6     # |F(pi)| threshold, relative to the sum rate
    dinkelbach_max_iter: int = 50
    newton_max_iter: int = 200
    inner_tol: float = 1e-8          # duality-gap proxy, in rate-scale units
    barrier_t0: float = 1.0
    barrier_mu: float = 30.0
    feas_tol: float = 1e-9           # normalized QoS residual accepted as feasible
    qos_rate_rtol: float = 1e-6      # rate slack when flagging QoS violations
    recp_delta_percent: float = 95.0
    max_sweeps: int = 200
    stall_rounds: int = 3

    def __post_init__(self):
        for name in ("slm_tol", "dinkelbach_tol", "inner_tol", "feas_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass
class SolveDiagnostics:
    slm_iterations: int = 0
    ee_trace: list = field(default_factory=list)
    dinkelbach_iterations: list = field(default_factory=list)
    pi_traces: list = field(default_factory=list)
    newton_steps: int = 0            # Newton systems solved
    hit_iteration_cap: bool = False
    lstsq_fallbacks: int = 0         # singular Newton systems solved by least squares
    line_search_exhausted: int = 0   # Newton stages ended with no admissible step
    newton_cap_hits: int = 0         # barrier stages ended at newton_max_iter
    interior_infeasible: bool = False    # no strict interior ended the SLM loop early


@dataclass(frozen=True)
class PowerSolution:
    p: np.ndarray
    ee: float
    rates: np.ndarray
    feasible: bool
    diagnostics: SolveDiagnostics


# ---------------------------------------------------------------------------
# Reduced problem over served UEs
# ---------------------------------------------------------------------------

def _unit_form(lc: LinkCoefficients) -> AffinePowerForm:
    """Placeholder affine form for controllers that never touch network power."""
    K = len(lc.ns)
    return AffinePowerForm(c0_w=1.0, alpha_per_k=np.ones(K), delta_per_k=np.ones(K),
                           r_ref_bps=1.0)


class ReducedProblem:
    """Fixed-association power problem restricted to UEs with a serving set.

    Unserved UEs keep zero power and zero rate; they still contribute circuit
    power through the affine form's constant.
    """

    def __init__(self, lc: LinkCoefficients, frame: FrameConfig,
                 form: AffinePowerForm | None, qos: QosSpec,
                 settings: SolverSettings):
        if form is None:
            form = _unit_form(lc)    # feasibility-only use: power form untouched
        self.frame = frame
        self.form = form
        self.qos = qos
        self.settings = settings
        self.K = len(lc.ns)
        self.served = lc.served.copy()
        s = np.flatnonzero(self.served)
        self.idx = s
        self.cr = frame.rate_scale
        self.pmax = qos.p_max_w

        self.Af = lc.interf[np.ix_(s, s)].copy()
        self.D = lc.ds2[s].copy()
        self.Ag = self.Af - np.diag(self.D)
        self.n = frame.noise_power_w * lc.ns[s]
        self.gamma = qos.gamma[s].copy()
        self.alpha = form.alpha_per_k[s].copy()
        self.delta = form.delta_per_k[s].copy()

        # affine QoS residuals r = W P + c  (<= 0 means the rate target is met)
        self.W = self.gamma[:, None] * self.Af - np.diag((1.0 + self.gamma) * self.D)
        self.c = self.gamma * self.n
        self.rscale = np.abs(self.c) + np.abs(self.W) @ np.full(len(s), self.pmax)
        self.rscale = np.maximum(self.rscale, 1e-300)
        self.qrows = np.flatnonzero(self.gamma > 0)   # gamma = 0 rows are implied by P >= 0

        # UEs with a rate target but no serving set make the problem infeasible
        self.structurally_infeasible = bool((qos.r_min_bps[~self.served] > 0).any())
        self._interior = None

    # -- plain evaluations ---------------------------------------------------

    def expand(self, p_red: np.ndarray) -> np.ndarray:
        p = np.zeros(self.K)
        p[self.idx] = p_red
        return p

    def reduce(self, p_full: np.ndarray) -> np.ndarray:
        return np.asarray(p_full, dtype=float)[self.idx]

    def rates(self, p: np.ndarray) -> np.ndarray:
        af = self.Af @ p + self.n
        ag = self.Ag @ p + self.n
        return self.cr * (np.log2(af) - np.log2(ag))

    def power_total(self, p: np.ndarray, rates: np.ndarray) -> float:
        return float(self.form.c0_w + self.alpha @ (rates / self.form.r_ref_bps)
                     + self.delta @ p)

    def power_total_full(self, p_full: np.ndarray, rates_full: np.ndarray) -> float:
        return self.form.total(p_full, rates_full)

    def interior_point(self) -> np.ndarray:
        """Strictly feasible point, computed once and cached."""
        if self._interior is None:
            self._interior = _interior_start(self)
        return self._interior

    def ee(self, p: np.ndarray) -> float:
        r = self.rates(p)
        return float(np.sum(r)) / self.power_total(p, r)

    def residual(self, p: np.ndarray) -> np.ndarray:
        return self.W @ p + self.c

    def box_feasible(self, p: np.ndarray, tol: float = 0.0) -> bool:
        return bool((p >= -tol).all() and (p <= self.pmax + tol).all())

    # -- surrogate at an anchor ----------------------------------------------

    def surrogate(self, anchor: np.ndarray) -> "Surrogate":
        return Surrogate(self, np.asarray(anchor, dtype=float))


class Surrogate:
    """Tangent data of the two concave logs at the anchor point."""

    def __init__(self, prob: ReducedProblem, anchor: np.ndarray):
        if not prob.box_feasible(anchor, tol=1e-12):
            raise ConfigError("anchor must lie inside the power box")
        self.prob = prob
        self.anchor = anchor
        self.f_den = prob.Af @ anchor + prob.n
        self.g_den = prob.Ag @ anchor + prob.n
        if (self.f_den <= 0).any() or (self.g_den <= 0).any():
            raise ConfigError("anchor produces a nonpositive log argument")
        self.f0 = np.log2(self.f_den)
        self.g0 = np.log2(self.g_den)
        self.vf = prob.Af / (_LN2 * self.f_den[:, None])
        self.vg = prob.Ag / (_LN2 * self.g_den[:, None])

    def rate_bounds(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(upper Rhat, lower Rbar); both equal the true rates at the anchor."""
        prob = self.prob
        dp = p - self.anchor
        f_hat = self.f0 + self.vf @ dp
        g_hat = self.g0 + self.vg @ dp
        af = prob.Af @ p + prob.n
        ag = prob.Ag @ p + prob.n
        r_hat = prob.cr * (f_hat - np.log2(ag))
        r_bar = prob.cr * (np.log2(af) - g_hat)
        return r_hat, r_bar

    def numerator(self, p: np.ndarray) -> float:
        _, r_bar = self.rate_bounds(p)
        return float(np.sum(r_bar))

    def denominator(self, p: np.ndarray) -> float:
        r_hat, _ = self.rate_bounds(p)
        return self.prob.power_total(p, r_hat)

    def ratio(self, p: np.ndarray) -> float:
        return self.numerator(p) / self.denominator(p)


# ---------------------------------------------------------------------------
# Inner parametric solver: log-barrier Newton
# ---------------------------------------------------------------------------

class _Parametric:
    """u(P) = [sum Rbar - pi * P_N(P, Rhat)] / rate_scale, a concave function:

        u(P) = sum_k log2(af_k) + sum_k c2_k log2(ag_k) + q . P + u0
    """

    def __init__(self, sur: Surrogate, pi: float):
        prob = sur.prob
        self.prob = prob
        self.c2 = pi * prob.alpha / prob.form.r_ref_bps
        self.q = (-sur.vg.sum(axis=0) - self.c2 @ sur.vf - (pi / prob.cr) * prob.delta)
        self.u0 = (-float(np.sum(sur.g0 - sur.vg @ sur.anchor))
                   - float(self.c2 @ (sur.f0 - sur.vf @ sur.anchor))
                   - pi * prob.form.c0_w / prob.cr)

    def value(self, p: np.ndarray) -> float:
        prob = self.prob
        af = prob.Af @ p + prob.n
        ag = prob.Ag @ p + prob.n
        return float(np.sum(np.log2(af)) + self.c2 @ np.log2(ag)
                     + self.q @ p + self.u0)


def _interior_start(prob: ReducedProblem) -> np.ndarray:
    """Strictly feasible point via a max-margin LP; raises when there is none.

    The margin applies to the normalized QoS rows only; strict box interiority
    comes from hard eps-shrunk variable bounds, which LP solvers honor exactly.
    """
    k = len(prob.idx)
    if k == 0:
        return np.zeros(0)
    eps = 1e-9 * prob.pmax
    rows = prob.qrows
    if len(rows) == 0:
        return np.full(k, 0.5 * prob.pmax)
    Wn = prob.W[rows] / prob.rscale[rows, None]
    cn = prob.c[rows] / prob.rscale[rows]
    # variables (P, t): maximize the uniform QoS margin t
    A = np.hstack([Wn, np.ones((len(rows), 1))])
    obj = np.zeros(k + 1)
    obj[k] = -1.0
    bounds = [(eps, prob.pmax - eps)] * k + [(None, 1.0)]
    res = linprog(obj, A_ub=A, b_ub=-cn, bounds=bounds, method="highs")
    if not res.success or res.x is None or res.x[k] <= 1e-9:
        raise InfeasibleError("QoS constraints leave no strictly feasible power")
    p = np.clip(res.x[:k], eps, prob.pmax - eps)
    if ((prob.W[rows] @ p + prob.c[rows]) / prob.rscale[rows] >= 0).any():
        raise InfeasibleError("QoS margin too thin for a strict interior point")
    return p


def _strictly_feasible(prob: ReducedProblem, p: np.ndarray, margin: float = 1e-9) -> bool:
    if not ((p > margin * prob.pmax).all() and (p < (1 - margin) * prob.pmax).all()):
        return False
    rows = prob.qrows
    if len(rows) == 0:
        return True
    r = prob.residual(p)[rows] / prob.rscale[rows]
    return bool((r < -margin).all())


def _center(p: np.ndarray, B: np.ndarray, b: np.ndarray, pmax: float) -> np.ndarray:
    """Move p toward the box center, halfway to where that ray leaves
    {B P + b > 0} and at most to the center: every slack keeps half its value."""
    d = 0.5 * pmax - p
    dz = B @ d
    shrink = dz < 0
    if not shrink.any():
        return p
    s = min(1.0, 0.5 * float(np.min((B @ p + b)[shrink] / -dz[shrink])))
    return p + s * d


def _solve_parametric(sur: Surrogate, pi: float, settings: SolverSettings,
                      start: np.ndarray | None, diag: SolveDiagnostics,
                      warm: bool = False) -> np.ndarray:
    prob = sur.prob
    k = len(prob.idx)
    if k == 0:
        return np.zeros(0)
    obj = _Parametric(sur, pi)
    p = None
    if start is not None:
        if _strictly_feasible(prob, start):
            p = start.copy()
        else:
            # previous solutions hug the boundary; nudging toward the cached
            # interior point restores strict feasibility (constraints affine)
            blend = 0.99 * start + 0.01 * prob.interior_point()
            if _strictly_feasible(prob, blend, margin=1e-12):
                p = blend
    if p is None:
        p = prob.interior_point().copy()
        warm = False

    # every log argument is affine in P: z = B P + b stacks af, ag, the box
    # slacks P and pmax - P, and the normalized QoS slacks
    rows = prob.qrows
    B = np.vstack([prob.Af, prob.Ag, np.eye(k), -np.eye(k),
                   -prob.W[rows] / prob.rscale[rows, None]])
    b = np.concatenate([prob.n, prob.n, np.zeros(k), np.full(k, prob.pmax),
                        -prob.c[rows] / prob.rscale[rows]])
    # barrier = w . log z + t q . P: the objective's log2 terms carry weight
    # t / ln 2, the box and QoS barrier terms weight 1
    m = 2 * k + len(rows)    # barrier terms
    w_obj = np.concatenate([np.ones(k), obj.c2, np.zeros(m)]) / _LN2
    w_box = np.concatenate([np.zeros(2 * k), np.ones(m)])

    # final barrier weight: duality-gap proxy m/t well below the target; warm
    # rounds start next to the previous center and go straight to it
    t_final = m / (0.1 * settings.inner_tol)
    if not warm:
        p = _center(p, B, b, prob.pmax)
    t = t_final if warm else min(settings.barrier_t0, t_final)

    while True:
        last_stage = t >= t_final * 0.999
        tol = 1e-6 if last_stage else 1e-2
        w = t * w_obj + w_box
        tq = t * obj.q
        z = B @ p + b
        for _ in range(settings.newton_max_iter):
            wz = w / z
            grad = B.T @ wz + tq
            neg_hess = (B.T * (wz / z)) @ B
            try:
                step = np.linalg.solve(neg_hess, grad)
            except np.linalg.LinAlgError:
                diag.lstsq_fallbacks += 1
                step = np.linalg.lstsq(neg_hess, grad, rcond=None)[0]
            dec = float(grad @ step)
            diag.newton_steps += 1
            if dec / 2 <= tol:
                break
            # line search on the barrier's change, w.log1p(scale dz/z) + scale t q.step:
            # at t_final the barrier value is too large to resolve the Armijo gain
            dz = B @ step
            rz = dz / z
            qs = float(tq @ step)
            scale = 1.0
            for _ in range(60):
                if (scale * rz).min() > -1:
                    gain = w @ np.log1p(scale * rz) + scale * qs
                    if gain > 0.25 * scale * dec:
                        p, z = p + scale * step, z + scale * dz
                        break
                scale *= 0.5
            else:
                diag.line_search_exhausted += 1
                break
        else:
            diag.newton_cap_hits += 1
        if last_stage:
            break
        t = min(t * settings.barrier_mu, t_final)
    return np.clip(p, 0.0, prob.pmax)


# ---------------------------------------------------------------------------
# Dinkelbach + successive lower-bound maximization
# ---------------------------------------------------------------------------

def _dinkelbach(prob: ReducedProblem, anchor: np.ndarray, settings: SolverSettings,
                diag: SolveDiagnostics, start: np.ndarray | None = None):
    """Maximize the fractional surrogate anchored at `anchor`.

    Returns (p, pi_star, pi_trace); pi is the surrogate ratio and is
    nondecreasing along the iterations.
    """
    sur = prob.surrogate(anchor)
    pi = max(sur.ratio(anchor), 0.0)
    pi_trace = [pi]
    p = start if start is not None else anchor
    is_warm = start is not None
    best_p = anchor
    stall = 0
    for _ in range(settings.dinkelbach_max_iter):
        p = _solve_parametric(sur, pi, settings, p, diag, warm=is_warm)
        is_warm = True
        num = sur.numerator(p)
        den = sur.denominator(p)
        f_val = num - pi * den
        best_p = p
        if abs(f_val) <= settings.dinkelbach_tol * max(prob.cr, abs(num)):
            break
        pi_new = num / den
        pi_trace.append(pi_new)    # raw ratio updates; nondecreasing up to solver noise
        if pi_new <= pi * (1 + 1e-15):
            stall += 1
            if stall >= settings.stall_rounds:
                break
        else:
            stall = 0
        pi = max(pi, pi_new)
    else:
        diag.hit_iteration_cap = True
    diag.dinkelbach_iterations.append(len(pi_trace))
    diag.pi_traces.append(pi_trace)
    return best_p, pi, pi_trace


def slmdb_solve(lc: LinkCoefficients, frame: FrameConfig, form: AffinePowerForm,
                qos: QosSpec, settings: SolverSettings,
                p0: np.ndarray | None = None) -> PowerSolution:
    """Full successive lower-bound maximization on precomputed link coefficients."""
    prob = ReducedProblem(lc, frame, form, qos, settings)
    diag = SolveDiagnostics()

    if p0 is None:
        p_red0, feasible, _ = _qopc_on_problem(prob)
        p_start = prob.expand(p_red0)
    else:
        p_start = np.asarray(p0, dtype=float)
        res = prob.residual(prob.reduce(p_start))
        feasible = (bool((res / prob.rscale <= settings.feas_tol).all())
                    and prob.box_feasible(p_start, tol=1e-12))
    if prob.structurally_infeasible:
        feasible = False
    if not feasible:
        rates = _full_rates(prob, p_start)
        return PowerSolution(p=p_start, ee=_safe_ee(prob, p_start), rates=rates,
                             feasible=False, diagnostics=diag)

    p_red = prob.reduce(p_start)
    ee_prev = prob.ee(p_red) if len(p_red) else 0.0
    diag.ee_trace.append(ee_prev)
    best_p, best_ee = p_red, ee_prev
    warm = None
    try:
        for n in range(1, settings.slm_max_iter + 1):
            diag.slm_iterations = n
            p_red, _, _ = _dinkelbach(prob, p_red, settings, diag, start=warm)
            warm = p_red
            ee = prob.ee(p_red) if len(p_red) else 0.0
            diag.ee_trace.append(ee)
            if ee > best_ee:
                best_ee, best_p = ee, p_red
            improvement = (ee - ee_prev) / ee_prev if ee_prev > 0 else np.inf
            ee_prev = ee
            if improvement <= settings.slm_tol:
                break
        else:
            diag.hit_iteration_cap = True
    except InfeasibleError:
        # feasible set has no strict interior (a single point, typically):
        # the feasible start is already the solution
        diag.interior_infeasible = True

    p_full = prob.expand(best_p)
    rates = _full_rates(prob, p_full)
    ee = float(np.sum(rates)) / prob.power_total_full(p_full, rates)
    return PowerSolution(p=p_full, ee=ee, rates=rates, feasible=True, diagnostics=diag)


def _full_rates(prob: ReducedProblem, p_full: np.ndarray) -> np.ndarray:
    rates = np.zeros(prob.K)
    if len(prob.idx):
        rates[prob.idx] = prob.rates(prob.reduce(p_full))
    return rates


def _safe_ee(prob: ReducedProblem, p_full: np.ndarray) -> float:
    rates = _full_rates(prob, p_full)
    return float(np.sum(rates)) / prob.power_total_full(p_full, rates)


# ---------------------------------------------------------------------------
# Low-complexity controllers
# ---------------------------------------------------------------------------

def fipc(K: int, qos: QosSpec) -> np.ndarray:
    """Every UE transmits at the power cap."""
    return np.full(K, qos.p_max_w)


def _qopc_on_problem(prob: ReducedProblem) -> tuple[np.ndarray, bool, float]:
    """Min-max QoS residual LP on a built problem; returns (reduced P, feasible,
    normalized optimal residual)."""
    k = len(prob.idx)
    settings = prob.settings
    if k == 0:
        return np.zeros(0), not prob.structurally_infeasible, -np.inf
    Wn = prob.W / prob.rscale[:, None]
    cn = prob.c / prob.rscale
    A = np.hstack([Wn, -np.ones((k, 1))])
    obj = np.zeros(k + 1)
    obj[k] = 1.0
    bounds = [(0.0, prob.pmax)] * k + [(None, None)]
    res = linprog(obj, A_ub=A, b_ub=-cn, bounds=bounds, method="highs")
    if not res.success or res.x is None:
        return np.zeros(k), False, np.inf
    p = np.clip(res.x[:k], 0.0, prob.pmax)
    s_norm = float(res.x[k])
    feasible = s_norm <= settings.feas_tol and not prob.structurally_infeasible
    # a clearly-interior min-max point doubles as the barrier start: clipping
    # into the box moves the (normalized, affine) residuals only marginally
    if feasible and s_norm < -1e-6:
        eps = 1e-9 * prob.pmax
        hint = np.clip(p, eps, prob.pmax - eps)
        rows = prob.qrows
        if len(rows) == 0 or ((prob.W[rows] @ hint + prob.c[rows])
                              / prob.rscale[rows] < 0).all():
            prob._interior = hint
    return p, feasible, s_norm


def qopc_solve(lc: LinkCoefficients, frame: FrameConfig, qos: QosSpec,
               settings: SolverSettings) -> tuple[np.ndarray, bool]:
    """Min-max QoS residual LP; feasible iff the optimum is (numerically) <= 0.

    Unserved UEs get zero power; a positive rate target on an unserved UE makes
    the verdict infeasible regardless of the LP outcome.
    """
    prob = ReducedProblem(lc, frame, _unit_form(lc), qos, settings)
    p_red, feasible, _ = _qopc_on_problem(prob)
    return prob.expand(p_red), feasible


def eipc(assoc: Association, corr, qos: QosSpec) -> np.ndarray:
    """Statistical channel inversion.

    Per-UE gain vector over its serving BSs (trace of the link correlation);
    power scales with the inverse squared norm so the weakest served UE gets
    the cap. Unserved UEs get zero.
    """
    S = assoc.S
    n_ant = corr.R.shape[-1]
    gains = np.where(S, n_ant * corr.beta, 0.0)
    g2 = np.sum(gains**2, axis=0)
    served = g2 > 0
    p = np.zeros(S.shape[1])
    if served.any():
        p[served] = np.min(g2[served]) / g2[served] * qos.p_max_w
    return p


# ---------------------------------------------------------------------------
# Public wrappers on (assoc, tensor) inputs
# ---------------------------------------------------------------------------

def qos_residual(P, assoc: Association, tensor: CoefficientTensor,
                 frame: FrameConfig, qos: QosSpec) -> np.ndarray:
    """Affine residuals r(P); r_k <= 0 iff UE k meets its rate target."""
    lc = link_coefficients(assoc, tensor)
    P = np.asarray(P, dtype=float)
    interf_tot = lc.interf @ P
    return (qos.gamma * (interf_tot + frame.noise_power_w * lc.ns)
            - (1.0 + qos.gamma) * P * lc.ds2)


def taylor_bounds(P, anchor, assoc: Association, tensor: CoefficientTensor,
                  frame: FrameConfig) -> tuple[np.ndarray, np.ndarray]:
    """(Rhat, Rbar) rate bounds at P for the expansion point `anchor`.

    Entries for unserved UEs are zero.
    """
    lc = link_coefficients(assoc, tensor)
    qos = QosSpec(r_min_bps=np.zeros(len(lc.ns)), gamma=np.zeros(len(lc.ns)),
                  p_max_w=max(np.max(np.asarray(P)), np.max(np.asarray(anchor)), 1.0))
    prob = ReducedProblem(lc, frame, _unit_form(lc), qos, SolverSettings())
    sur = prob.surrogate(prob.reduce(anchor))
    r_hat = np.zeros(prob.K)
    r_bar = np.zeros(prob.K)
    hi, lo = sur.rate_bounds(prob.reduce(P))
    r_hat[prob.idx] = hi
    r_bar[prob.idx] = lo
    return r_hat, r_bar


def surrogate_ee(P, anchor, assoc: Association, tensor: CoefficientTensor,
                 frame: FrameConfig, form: AffinePowerForm, qos: QosSpec) -> float:
    """Lower-bound EE estimate: sum Rbar over P_N evaluated at Rhat."""
    lc = link_coefficients(assoc, tensor)
    prob = ReducedProblem(lc, frame, form, qos, SolverSettings())
    sur = prob.surrogate(prob.reduce(anchor))
    p_red = prob.reduce(P)
    num = sur.numerator(p_red)
    r_hat, _ = sur.rate_bounds(p_red)
    den = prob.power_total_full(np.asarray(P, dtype=float), _expand_at(prob, r_hat))
    return num / den


def _expand_at(prob: ReducedProblem, vals: np.ndarray) -> np.ndarray:
    out = np.zeros(prob.K)
    out[prob.idx] = vals
    return out


def solve_parametric(pi: float, anchor, assoc: Association, tensor: CoefficientTensor,
                     frame: FrameConfig, form: AffinePowerForm, qos: QosSpec,
                     settings: SolverSettings) -> np.ndarray:
    lc = link_coefficients(assoc, tensor)
    prob = ReducedProblem(lc, frame, form, qos, settings)
    diag = SolveDiagnostics()
    sur = prob.surrogate(prob.reduce(anchor))
    return prob.expand(_solve_parametric(sur, pi, settings, None, diag))


def dinkelbach(anchor, assoc: Association, tensor: CoefficientTensor,
               frame: FrameConfig, form: AffinePowerForm, qos: QosSpec,
               settings: SolverSettings) -> tuple[np.ndarray, float]:
    lc = link_coefficients(assoc, tensor)
    prob = ReducedProblem(lc, frame, form, qos, settings)
    diag = SolveDiagnostics()
    p, pi, _ = _dinkelbach(prob, prob.reduce(anchor), settings, diag)
    return prob.expand(p), pi


def slmdb(assoc: Association, tensor: CoefficientTensor, frame: FrameConfig,
          form: AffinePowerForm, qos: QosSpec, settings: SolverSettings,
          p0: np.ndarray | None = None) -> PowerSolution:
    lc = link_coefficients(assoc, tensor)
    return slmdb_solve(lc, frame, form, qos, settings, p0=p0)


def qopc(assoc: Association, tensor: CoefficientTensor, frame: FrameConfig,
         qos: QosSpec, settings: SolverSettings) -> tuple[np.ndarray, bool]:
    lc = link_coefficients(assoc, tensor)
    return qopc_solve(lc, frame, qos, settings)
