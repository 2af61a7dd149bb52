"""Code that only the tests run: the general-R statistics and their Monte Carlo
estimate, which `greenran.mmse_statistics` gives in closed form for R = g * I
(the validation oracles), the expansion of the closed form's per-link arrays
into the (M, K, K) second moments and the link coefficients assembled from
those, QoPC's homotopy with the gathers that set its bits, the value of a
parametric subproblem, the QoS residual of a reduced
power problem, the swap scan one move at a time, which `greenran.matching`
runs on stacks of candidates, a loader for emitted CSV records, and two
constructions whose bits the program keeps with fewer calls: the affine power
form from per-UE arrays and the slmdb solver through np.linalg's wrappers."""

import csv
import math
from dataclasses import dataclass, fields
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from greenran import CoefficientTensor, ConfigError, FrameConfig
from greenran import matching
from greenran.harness import ResultRecord
from greenran.powerctl import (_DINKELBACH_MAX_ITER, _DINKELBACH_TOL, _FEAS_TOL, _INNER_TOL,
                               _LN2, _LS_TRIALS, _NEWTON_MAX_ITER, _NEWTON_TOL, _STALL_ROUNDS,
                               InfeasibleError, PowerSolution, SolveDiagnostics, _halvings,
                               _qos_rows, _unserved_target, qos_deficits)
from greenran.powermodel import (edge_cloud_scaling, theta, traffic_power_coefficient,
                                 ubs_power)
from greenran.rates import LinkCoefficients

# Samples per accumulation chunk. Chunk seeds are derived per chunk index, so
# the merged estimate is independent of how chunks are distributed to workers.
_CHUNK = 16384


@dataclass(frozen=True)
class SecondMoments:
    """Statistics of any correlation set: mu (M, K) >= 0 and omega (M, K, K)
    >= 0, omega[m, k, k'] = E{|v_mk^H h_mk'|^2}."""
    mu: np.ndarray
    omega: np.ndarray


def expand(tensor: CoefficientTensor) -> SecondMoments:
    """The second moments that a closed-form tensor stands for: the gain row
    g[m, :] on a live link (m, k), zeros on a dead one, and own[m, k] on the
    diagonal."""
    omega = np.where(tensor.live[:, :, None] > 0, tensor.gain[:, None, :], 0.0)
    K = omega.shape[1]
    omega[:, np.arange(K), np.arange(K)] = tensor.own
    return SecondMoments(mu=tensor.mu, omega=omega)


def gain_form(moments: SecondMoments) -> CoefficientTensor:
    """The tensor whose `expand` is `moments` exactly. A link is live where
    mu > 0, and every live link of a BS must see the same second moment of each
    other UE, which always holds for K = 1."""
    mu, omega = np.asarray(moments.mu, dtype=float), np.asarray(moments.omega, dtype=float)
    M, K = mu.shape
    live = mu > 0
    gain = np.zeros((M, K))
    for m in range(M):
        for j in range(K):
            other = [k for k in range(K) if k != j and live[m, k]]
            if other:
                gain[m, j] = omega[m, other[0], j]
    tensor = CoefficientTensor(mu=mu, gain=gain, live=live.astype(float),
                               own=omega[:, np.arange(K), np.arange(K)].copy())
    if not np.array_equal(expand(tensor).omega, omega):
        raise ValueError("omega has no gain form")
    return tensor


def omega_link_coefficients(S: np.ndarray, moments: SecondMoments) -> LinkCoefficients:
    """Link coefficients of a serving matrix (M, K), or stacked (..., M, K), as
    sums over the full (M, K, K) second moments: the assembly that
    `greenran.link_coefficients` takes from the gains."""
    Sf = S.astype(float)
    mu_eff = np.einsum("...mk,mk->...k", Sf, moments.mu)
    sum_mu2 = np.einsum("...mk,mk->...k", Sf, moments.mu**2)
    interf = np.einsum("...mk,mkj->...kj", Sf, moments.omega)
    ds2 = mu_eff**2
    diag = np.arange(S.shape[-1])
    interf[..., diag, diag] += ds2 - sum_mu2
    return LinkCoefficients(ds2=ds2, interf=interf, ns=Sf.sum(axis=-2))


def mmse_reference(R: np.ndarray, frame: FrameConfig) -> SecondMoments:
    """The statistics of `greenran.statistics` for any correlation set R
    (M, K, N, N) of Hermitian PSD matrices, real or complex: one solve for
    Phi and one einsum for the cross traces tr(R_k' Phi) per link."""
    M, K, N, _ = R.shape
    pp_taup = frame.pilot_power_w * frame.tau_p
    mu = np.zeros((M, K))
    omega = np.zeros((M, K, K))
    for m in range(M):
        for k in range(K):
            psi = pp_taup * R[m, k] + frame.noise_power_w * np.eye(N)
            phi = pp_taup * R[m, k] @ np.linalg.solve(psi, R[m, k])
            t = np.trace(phi).real
            if t > 0.0:    # a vanishing estimate (zero pilot power) leaves 0
                mu[m, k] = np.sqrt(t)
                omega[m, k] = np.einsum("kij,ji->k", R[m], phi).real / t
                omega[m, k, k] += t
    return SecondMoments(mu=mu, omega=omega)


def monte_carlo_statistics(
    R: np.ndarray,
    frame: FrameConfig,
    samples: int,
    seed: int,
) -> tuple[SecondMoments, np.ndarray, np.ndarray]:
    """Sample-average second moments of the correlation set R (M, K, N, N),
    with the standard errors (mu_se (M, K), omega_se (M, K, K)) of its mu and
    omega.

    Draws channel realizations, forms MMSE estimates from noisy pilot
    observations, and combines with the empirically normalized MR combiner.
    Deterministic for a fixed seed regardless of chunking.
    """
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    M, K, N, _ = R.shape
    pp = frame.pilot_power_w
    tau_p = frame.tau_p
    sigma2 = frame.noise_power_w

    # Per-link Cholesky factors of R and the estimator map
    # h_est = sqrt(pp) * R Psi^{-1} y_despread, in R's dtype (the channel and
    # noise draws are complex either way).
    chol = np.zeros((M, K, N, N), dtype=np.result_type(R, 1.0))
    est = np.zeros_like(chol)
    eye = np.eye(N)
    for m in range(M):
        for k in range(K):
            chol[m, k] = _psd_cholesky(R[m, k])
            psi = pp * tau_p * R[m, k] + sigma2 * eye
            est[m, k] = np.sqrt(pp) * R[m, k] @ np.linalg.inv(psi)

    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)

    sum_dot = np.zeros((M, K, K), dtype=complex)     # v-unnormalized c = h_est^H h_k'
    sum_re2 = np.zeros((M, K, K))                    # Re(c)^2, for SE of mu
    sum_abs2 = np.zeros((M, K, K))                   # |c|^2
    sum_abs4 = np.zeros((M, K, K))                   # |c|^4, for SE of omega
    sum_nrm = np.zeros((M, K))                       # ||h_est||^2
    sum_nrm2 = np.zeros((M, K))                      # ||h_est||^4, for the normalizer SE

    done = 0
    for c in range(n_chunks):
        n = min(_CHUNK, samples - done)
        done += n
        rng = np.random.default_rng(seeds[c])
        for m in range(M):
            z = _crandn(rng, (n, K, N))
            h = np.einsum("kij,skj->ski", chol[m], z)
            noise = np.sqrt(sigma2 * tau_p) * _crandn(rng, (n, K, N))
            y = np.sqrt(pp) * tau_p * h + noise
            for k in range(K):
                h_est = y[:, k, :] @ est[m, k].T
                dots = np.einsum("si,ski->sk", h_est.conj(), h)
                a2 = np.abs(dots) ** 2
                nrm2 = np.sum(np.abs(h_est) ** 2, axis=1)
                sum_dot[m, k] += dots.sum(axis=0)
                sum_re2[m, k] += (dots.real**2).sum(axis=0)
                sum_abs2[m, k] += a2.sum(axis=0)
                sum_abs4[m, k] += (a2**2).sum(axis=0)
                sum_nrm[m, k] += float(nrm2.sum())
                sum_nrm2[m, k] += float((nrm2**2).sum())

    nrm = sum_nrm / samples                           # empirical E{||h_est||^2}
    nrm_safe = np.where(nrm > 0, nrm, 1.0)
    var_nrm = np.maximum(sum_nrm2 / samples - nrm**2, 0.0)
    rel_nrm2 = var_nrm / samples / nrm_safe**2        # squared relative SE of the normalizer

    mean_re = sum_dot.real / samples
    var_re = np.maximum(sum_re2 / samples - mean_re**2, 0.0)
    omega = sum_abs2 / samples / nrm_safe[:, :, None]
    mean_abs2 = sum_abs2 / samples
    var_abs2 = np.maximum(sum_abs4 / samples - mean_abs2**2, 0.0)
    # Delta method: the estimates divide by the (noisy) empirical normalizer,
    # which adds omega^2 * relSE(nrm)^2 (resp. a quarter of that for mu) to the
    # variance, neglecting the covariance between numerator and normalizer.
    omega_se = np.sqrt(var_abs2 / samples / nrm_safe[:, :, None] ** 2
                       + omega**2 * rel_nrm2[:, :, None])
    mu = np.einsum("mkk->mk", mean_re) / np.sqrt(nrm_safe)
    mu_se = np.sqrt(np.einsum("mkk->mk", var_re) / samples / nrm_safe
                    + 0.25 * mu**2 * rel_nrm2)
    # E{||v||^2} = 1 on every live link, which `link_coefficients` assumes
    # when it takes E{NS_k} as the serving count
    live = nrm > 0
    assert np.allclose(sum_nrm[live] / samples / nrm[live], 1.0, rtol=1e-12, atol=0.0)
    return SecondMoments(mu=mu, omega=omega), mu_se, omega_se


def _psd_cholesky(mat: np.ndarray) -> np.ndarray:
    """Cholesky factor with an eigenvalue fallback for semidefinite inputs."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(mat)
        w = np.maximum(w.real, 0.0)
        return v * np.sqrt(w)[None, :]


def _crandn(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def least_power_point_ix(W, c, r, pmax) -> tuple[np.ndarray, float]:
    """`powerctl._least_power_point` with `np.ix_` gathers, whose C-ordered
    submatrices set the bits that QoPC's records carry."""
    free = np.zeros(len(c), dtype=bool)
    a = b = np.zeros(0)
    s = np.inf
    for _ in range(len(c) + 1):
        Wo = W[np.ix_(~free, free)]
        rows = np.minimum((Wo @ a + c[~free]) / (Wo @ b + r[~free]), s)
        s_row = rows.max(initial=-np.inf)
        s_cap = ((a - pmax) / b).max(initial=-np.inf)
        if s_cap >= s_row:
            s = min(s, float(s_cap))
            break
        s = float(s_row)
        grown = free.copy()
        grown[~free] = rows == s_row
        try:
            ab = np.linalg.solve(-W[np.ix_(grown, grown)], np.stack([c[grown], r[grown]], 1))
        except np.linalg.LinAlgError:
            break
        if (ab[:, 1] <= 0).any():
            break
        free, a, b = grown, ab[:, 0], ab[:, 1]
    p = np.zeros(len(c))
    p[free] = a - s * b
    return p, s


def parametric_value(sur, pi: float, p: np.ndarray) -> float:
    """u(P) = [sum Rbar - pi * P_N(P, Rhat)] / rate_scale, the objective that
    `powerctl._solve_parametric(sur, pi, ...)` maximizes, at the powers p:
    sum_k log2(af_k) + sum_k c2_k log2(ag_k) + q . P + u0."""
    prob = sur.prob
    c2 = pi * prob.alpha / prob.form.r_ref_bps
    q = -sur.vg.sum(axis=0) - c2 @ sur.vf - (pi / prob.cr) * prob.delta
    u0 = (-float(np.sum(sur.g0 - sur.vg @ sur.anchor))
          - float(c2 @ (sur.f0 - sur.vf @ sur.anchor))
          - pi * prob.c0 / prob.cr)
    af = prob.Af @ p + prob.n
    ag = prob.Ag @ p + prob.n
    return float(np.sum(np.log2(af)) + c2 @ np.log2(ag) + q @ p + u0)


def residual(prob, p: np.ndarray) -> np.ndarray:
    """QoS residuals W p + c of a `powerctl.ReducedProblem` (<= 0: target met)."""
    return prob.W @ p + prob.c


def moved(S: np.ndarray, move: tuple, ctx) -> np.ndarray | None:
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


def pair_moves(S: np.ndarray, i: int, j: int | None):
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


def move_by_move_trimsm(ctx, power_mode: str) -> matching.SolutionReport:
    """`matching.trimsm` judging one move at a time: each candidate is built by
    `moved` from the incumbent when its turn comes, scored alone through
    `matching.evaluate` and judged by `matching.is_swap_blocking`, so the
    cache holds exactly the matchings judged."""
    m = matching
    S = m.recp_init(ctx.corr, ctx.scenario, ctx.settings.recp_delta_percent)
    gap = False
    if ctx.no_sleep:
        S, gap = m._repair_empty_bs(S, ctx)
    swap_count, converged = 0, False
    for _ in range(m._MAX_SWEEPS):
        swaps_before = swap_count
        for i, j in m._pair_order(ctx.scenario.K):
            for move in list(pair_moves(S, i, j)):
                swapped = moved(S, move, ctx)
                before = m.evaluate(S, power_mode, ctx)
                after = None if swapped is None else m.evaluate(swapped, power_mode, ctx)
                if m.is_swap_blocking(before, after).approved:
                    S = swapped
                    swap_count += 1
        if swap_count == swaps_before:
            converged = True
            break
    final = m.evaluate(S, "slmdb", ctx)
    count = m._eval_count(ctx, power_mode)
    return m.SolutionReport(
        S=S, power=final, swap_count=swap_count,
        evaluation_count=count + (m._eval_count(ctx, "slmdb") if power_mode != "slmdb" else 0),
        stable=converged, infeasible=(not final.qos_ok) or gap)


def read_records(path: str) -> list:
    """Round-trip loader for emitted CSV record files."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            kwargs = {}
            for f in fields(ResultRecord):
                raw = row[f.name]
                tname = f.type if isinstance(f.type, str) else f.type.__name__
                if tname == "bool":
                    kwargs[f.name] = raw == "true"
                elif tname == "int":
                    kwargs[f.name] = int(raw)
                elif tname == "float":
                    kwargs[f.name] = float(raw)
                else:
                    kwargs[f.name] = raw
            out.append(ResultRecord(**kwargs))
    return out


def affine_form_from_arrays(cfg, params, M: int, K: int, n_active: int) -> SimpleNamespace:
    """The entry at `n_active` BSs of `greenran.build_affine_form`, with every
    category's slopes built as length-K arrays and summed by np.sum over the
    categories: the construction whose bits the scalar sums and the constant
    tables keep. Its fields are the form's, with scalar constants."""
    n_sleep = M - n_active
    p_fix = ubs_power(cfg, 0.0)
    p_trf = traffic_power_coefficient(cfg)
    kt = params.kappa * theta(cfg, params)
    ec = kt * edge_cloud_scaling(params, M, cfg.loss_co)
    rref = params.r_ref_bps
    parts = {
        "ubs_active": ((1.0 - kt) * n_active * p_fix,
                       np.full(K, (1.0 - kt) * p_trf), np.zeros(K)),
        "ubs_sleep": ((1.0 - kt) * cfg.sleep_scale * p_fix * n_sleep,
                      np.zeros(K), np.zeros(K)),
        "fronthaul": (n_active * params.fronthaul_fix_w,
                      np.full(K, M * params.fronthaul_trf_w_per_bps * rref), np.zeros(K)),
        "edge_cloud": (ec * M * p_fix, np.full(K, ec * p_trf), np.zeros(K)),
        "ue": (K * params.ue_circuit_w, np.zeros(K), np.full(K, params.ue_pa_slope)),
    }
    c0 = sum(c for c, _, _ in parts.values())
    alpha = np.sum([a for _, a, _ in parts.values()], axis=0)
    delta = np.sum([d for _, _, d in parts.values()], axis=0)
    if (alpha <= 0).any():
        raise ConfigError("traffic coefficients must be positive")
    return SimpleNamespace(c0_w=float(c0), alpha_per_k=alpha, delta_per_k=delta,
                           r_ref_bps=rref, parts=parts)


# ---------------------------------------------------------------------------
# slmdb through np.linalg's wrappers: `greenran.powerctl.slmdb_solve` keeps
# these bits with direct LAPACK calls and constants hoisted out of its loops
# ---------------------------------------------------------------------------


def _balanced_point(W, c, rscale, pmax):
    B, k = c.shape
    eye = np.eye(k, dtype=bool)
    ok = ((W < 0) == eye).all(axis=(1, 2))
    certified = np.count_nonzero(ok)
    if not certified:
        return np.zeros((B, k)), np.zeros(B), ok
    neg = -W if certified == B else np.where(ok[:, None, None], -W, eye)
    try:
        inv = np.linalg.inv(neg)
    except np.linalg.LinAlgError:
        inv = np.zeros_like(neg)
        for t in range(B):
            try:
                inv[t] = np.linalg.inv(neg[t])
            except np.linalg.LinAlgError:
                ok[t] = False
    ok[(inv < 0).any(axis=(1, 2))] = False
    a = (inv @ c[..., None])[..., 0]
    b = (inv @ rscale[..., None])[..., 0]
    b[~ok] = 1.0
    ratios = (a - pmax) / b
    j = ratios.argmax(axis=1)
    rows = np.arange(B)
    s = ratios[rows, j]
    p = a - s[:, None] * b
    ok[((p < 0) | (W[rows, j] == 0)).any(axis=1)] = False
    return p, s, ok


def minmax_reference(W, c, rscale, pmax, blocked: bool):
    """`powerctl._minmax` through np.linalg.inv and np.linalg.solve."""
    B, k = c.shape
    if k == 0:
        return np.zeros((B, 0)), np.full(B, -np.inf), np.full(B, not blocked)
    p, s, ok = _balanced_point(W, c, rscale, pmax)
    for t in np.flatnonzero(~ok):
        p[t], s[t] = least_power_point_ix(W[t], c[t], rscale[t], pmax)
    return np.clip(p, 0.0, pmax), s, (s <= _FEAS_TOL) & (not blocked)


class _Problem:
    def __init__(self, lc, frame, form, n_active, qos):
        self.form = form
        self.n_active = n_active
        self.qos = qos
        self.K = len(lc.ns)
        self.served = lc.served
        s = np.flatnonzero(self.served)
        self.idx = s
        self.cr = frame.rate_scale
        self.pmax = qos.p_max_w
        self.Af = lc.interf[np.ix_(s, s)]
        self.D = lc.ds2[s]
        self.Ag = self.Af - np.diag(self.D)
        self.n = frame.noise_power_w * lc.ns[s]
        self.gamma = qos.gamma[s]
        self.alpha = form.alpha_per_k[s]
        self.delta = form.delta_per_k[s]
        self.W, self.c, self.rscale = _qos_rows(self.Af, self.D, self.n, self.gamma,
                                                self.pmax)
        self.qrows = np.flatnonzero(self.gamma > 0)
        self.structurally_infeasible = _unserved_target(qos, self.served)

    def expand(self, p_red):
        p = np.zeros(self.K)
        p[self.idx] = p_red
        return p

    def rates(self, p):
        af = self.Af @ p + self.n
        ag = self.Ag @ p + self.n
        return self.cr * (np.log2(af) - np.log2(ag))

    def power_total(self, p, rates):
        return float(self.form.c0_w[self.n_active] + self.alpha @ (rates / self.form.r_ref_bps)
                     + self.delta @ p)

    def interior_point(self):
        p, _, s = self.qopc
        eps = 1e-9 * self.pmax
        p = np.clip(p, eps, self.pmax - eps)
        if s < -1e-9 and self.margin(p) < 0:
            return p
        if len(self.qrows) == 0:
            return np.full(len(self.idx), 0.5 * self.pmax)
        raise InfeasibleError("QoS constraints leave no strictly feasible power")

    def ee(self, p):
        r = self.rates(p)
        return float(np.sum(r)) / self.power_total(p, r)

    def margin(self, p):
        rows = self.qrows
        if len(rows) == 0:
            return -np.inf
        return float(np.max((self.W[rows] @ p + self.c[rows]) / self.rscale[rows]))

    def solution(self, p_red, feasible, diag):
        p = self.expand(p_red)
        rates = self.expand(self.rates(p_red))
        ee = float(np.sum(rates)) / self.form.total(p, rates, self.n_active)
        deficits = qos_deficits(rates, self.qos)
        return PowerSolution(p=p, ee=ee, rates=rates, feasible=feasible,
                             diagnostics=diag, form=self.form, n_active=self.n_active,
                             shortfall_bps=float(np.sum(deficits)),
                             qos_violations=int(np.count_nonzero(deficits)))

    @cached_property
    def qopc(self):
        p, s, feasible = minmax_reference(self.W[None], self.c[None], self.rscale[None],
                                          self.pmax, self.structurally_infeasible)
        return p[0], bool(feasible[0]), float(s[0])

    @cached_property
    def barrier_stack(self):
        k, rows = len(self.idx), self.qrows
        B = np.vstack([self.Af, self.Ag, np.eye(k), -np.eye(k),
                       -self.W[rows] / self.rscale[rows, None]])
        b = np.concatenate([self.n, self.n, np.zeros(k), np.full(k, self.pmax),
                            -self.c[rows] / self.rscale[rows]])
        return B, b


class _Surrogate:
    def __init__(self, prob, anchor):
        if not ((anchor >= -1e-12).all() and (anchor <= prob.pmax + 1e-12).all()):
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

    def fraction(self, p):
        prob = self.prob
        dp = p - self.anchor
        f_hat = self.f0 + self.vf @ dp
        g_hat = self.g0 + self.vg @ dp
        af = prob.Af @ p + prob.n
        ag = prob.Ag @ p + prob.n
        r_hat = prob.cr * (f_hat - np.log2(ag))
        r_bar = prob.cr * (np.log2(af) - g_hat)
        return float(np.sum(r_bar)), prob.power_total(p, r_hat)


def _center(p, B, b, pmax):
    d = 0.5 * pmax - p
    dz = B @ d
    shrink = dz < 0
    if not shrink.any():
        return p
    s = min(1.0, 0.5 * float(np.min((B @ p + b)[shrink] / -dz[shrink])))
    return p + s * d


def _solve_parametric(sur, pi, start, diag):
    prob = sur.prob
    k = len(prob.idx)
    c2 = pi * prob.alpha / prob.form.r_ref_bps
    q = -sur.vg.sum(axis=0) - c2 @ sur.vf - (pi / prob.cr) * prob.delta
    B, b = prob.barrier_stack
    BT = B.T
    p = start
    z = B @ p + b
    if not (z > 0).all():
        p = _center(prob.interior_point(), B, b, prob.pmax)
        z = B @ p + b
    m = len(b) - 2 * k
    se = float(np.sum(np.log2(z[:k] / z[k:2 * k])))
    t = m / (0.1 * _INNER_TOL * min(1.0, se))
    w = t * (np.concatenate([np.ones(k), c2, np.zeros(m)]) / _LN2)
    w[2 * k:] = 1.0
    tq = t * q
    for _ in range(_NEWTON_MAX_ITER):
        wz = w / z
        grad = BT @ wz + tq
        neg_hess = (BT * (wz / z)) @ B
        try:
            step = np.linalg.solve(neg_hess, grad)
        except np.linalg.LinAlgError:
            diag.lstsq_fallbacks += 1
            step = np.linalg.lstsq(neg_hess, grad, rcond=None)[0]
        dec = float(grad @ step)
        diag.newton_steps += 1
        if dec / 2 <= _NEWTON_TOL:
            break
        dz = B @ step
        rz = dz / z
        qs = float(tq @ step)
        j = _halvings(float(rz.min()))
        scale = math.ldexp(1.0, -j)
        for _ in range(j, _LS_TRIALS):
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
    return np.clip(p, 0.0, prob.pmax)


def _dinkelbach(prob, anchor, anchor_ee, diag):
    sur = _Surrogate(prob, anchor)
    pi = max(anchor_ee, 0.0)
    pi_trace = [pi]
    p = anchor
    stall = 0
    for _ in range(_DINKELBACH_MAX_ITER):
        p = _solve_parametric(sur, pi, p, diag)
        num, den = sur.fraction(p)
        f_val = num - pi * den
        if abs(f_val) <= _DINKELBACH_TOL * max(prob.cr, abs(num)):
            break
        pi_new = num / den
        pi_trace.append(pi_new)
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


def slmdb_reference(lc, frame, form, n_active, qos, settings) -> PowerSolution:
    """`greenran.powerctl.slmdb_solve` with every k x k system through
    np.linalg.solve / np.linalg.inv and every sum, minimum and clip through
    numpy's wrappers."""
    prob = _Problem(lc, frame, form, n_active, qos)
    diag = SolveDiagnostics()
    p_red, feasible, _ = prob.qopc
    if not feasible or len(prob.idx) == 0:
        return prob.solution(p_red, feasible, diag)
    ee_prev = prob.ee(p_red)
    diag.ee_trace.append(ee_prev)
    try:
        for n in range(1, settings.slm_max_iter + 1):
            diag.slm_iterations = n
            p_new = _dinkelbach(prob, p_red, ee_prev, diag)
            ee = prob.ee(p_new)
            diag.ee_trace.append(ee)
            if not ee > ee_prev:
                break
            improvement = (ee - ee_prev) / ee_prev if ee_prev > 0 else np.inf
            p_red, ee_prev = p_new, ee
            if improvement <= settings.slm_tol:
                break
        else:
            diag.hit_iteration_cap = True
    except InfeasibleError:
        diag.interior_infeasible = True
    return prob.solution(p_red, True, diag)
