"""Code that only the tests run: the general-R statistics and their Monte Carlo
estimate, which `greenran.mmse_statistics` gives in closed form for R = g * I
(the validation oracles), the value of a parametric subproblem, the QoS
residual of a reduced power problem, the swap scan one move at a time, which
`greenran.matching` runs on stacks of candidates, and a loader for emitted CSV
records."""

import csv
from dataclasses import fields

import numpy as np

from greenran import CoefficientTensor, ConfigError, FrameConfig
from greenran import matching
from greenran.harness import ResultRecord
from greenran.powerctl import _Parametric

# Samples per accumulation chunk. Chunk seeds are derived per chunk index, so
# the merged estimate is independent of how chunks are distributed to workers.
_CHUNK = 16384


def mmse_reference(R: np.ndarray, frame: FrameConfig) -> CoefficientTensor:
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
    return CoefficientTensor(mu=mu, omega=omega)


def monte_carlo_statistics(
    R: np.ndarray,
    frame: FrameConfig,
    samples: int,
    seed: int,
) -> tuple[CoefficientTensor, np.ndarray, np.ndarray]:
    """Sample-average coefficient tensor of the correlation set R (M, K, N, N),
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
    return CoefficientTensor(mu=mu, omega=omega), mu_se, omega_se


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


def parametric_value(sur, pi: float, p: np.ndarray) -> float:
    """u(P) of the parametric subproblem `powerctl._Parametric(sur, pi)` at the
    powers p, with its constant u0."""
    prob, obj = sur.prob, _Parametric(sur, pi)
    u0 = (-float(np.sum(sur.g0 - sur.vg @ sur.anchor))
          - float(obj.c2 @ (sur.f0 - sur.vf @ sur.anchor))
          - pi * prob.form.c0_w / prob.cr)
    af = prob.Af @ p + prob.n
    ag = prob.Ag @ p + prob.n
    return float(np.sum(np.log2(af)) + obj.c2 @ np.log2(ag) + obj.q @ p + u0)


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
