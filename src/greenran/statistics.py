"""Ergodic expectations of the combined uplink signal under MMSE estimation + MR combining.

For every link the MMSE channel estimate has covariance
Phi = p_p * tau_p * R (p_p * tau_p * R + sigma^2 I)^{-1} R, and with the
normalized maximum-ratio combiner v = h_est / sqrt(E{||h_est||^2}):

    mu       = E{v^H h}          = sqrt(tr Phi)
    omega_kk = E{|v^H h_k|^2}    = tr Phi + tr(R_k Phi) / tr Phi
    omega_kk'= E{|v^H h_k'|^2}   = tr(R_k' Phi) / tr Phi      (k' != k, orthogonal pilots)
    E{||v||^2} = 1

The closed form is exact; `monte_carlo_statistics` re-estimates the same
quantities from sampled pilots/channels and is the validation oracle. The
closed form computes a BS's rows on first use, so a sleeping BS costs nothing.
"""

import numpy as np

from .netmodel import ConfigError, CorrelationSet, FrameConfig

# Samples per accumulation chunk. Chunk seeds are derived per chunk index, so
# the merged estimate is independent of how chunks are distributed to workers.
_CHUNK = 16384


class CoefficientTensor:
    """mu (M, K) >= 0; omega (M, K, K) >= 0, omega[m, k, k'] = E{|v_mk^H h_mk'|^2};
    noise_coeff (M, K) = E{||v||^2}, 1 under the normalized combiner; mu_se and
    omega_se are standard errors (Monte Carlo only). Given `fill_row`, row m
    (mu[m], omega[m]) stays 0 until `rows` first asks for it and calls fill_row(m);
    `ready` marks filled rows. Whole-array reads of `mu`/`omega` fill every row."""

    def __init__(self, mu, omega, noise_coeff, mu_se=None, omega_se=None, fill_row=None):
        self._mu, self._omega, self.noise_coeff = mu, omega, noise_coeff
        self.mu_se, self.omega_se, self.fill_row = mu_se, omega_se, fill_row
        self.ready = np.full(len(mu), fill_row is None)    # full arrays start ready
        self._all_ready = fill_row is None

    mu = property(lambda self: self.rows(~self.ready)[0])
    omega = property(lambda self: self.rows(~self.ready)[1])

    def rows(self, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mu, omega) with every row in the (M,) bool mask `wanted` filled."""
        if not self._all_ready:
            if wanted.ndim > 1:    # serving matrices (..., M, K): the rows they use
                wanted = wanted.reshape(-1, *wanted.shape[-2:]).any(axis=(0, 2))
            for m in np.flatnonzero(wanted & ~self.ready):
                self.fill_row(m)
                self.ready[m] = True
            self._all_ready = bool(self.ready.all())
        return self._mu, self._omega


def mmse_statistics(corr: CorrelationSet, frame: FrameConfig) -> CoefficientTensor:
    """Closed-form coefficient tensor for all M x K links, filled per BS on first use.

    Runs in R's dtype: a real set takes real LAPACK/BLAS calls, a complex one
    complex calls, on the same lines. Per BS, one batched solve gives every
    Phi_k and one matrix product every cross trace tr(R_k' Phi_k), using
    tr(A B) = sum_ij A_ij (B^T)_ij.
    """
    R = corr.R
    M, K, N, _ = R.shape
    pp_taup = frame.pilot_power_w * frame.tau_p
    sigma2 = frame.noise_power_w

    mu = np.zeros((M, K))
    omega = np.zeros((M, K, K))
    eye = np.eye(N)
    # batched over one BS's K links; over M too would hold (M, K, N, N) temporaries
    def fill_row(m):
        psi = pp_taup * R[m] + sigma2 * eye
        phi = pp_taup * R[m] @ np.linalg.solve(psi, R[m])
        t = np.trace(phi, axis1=1, axis2=2).real
        live = np.flatnonzero(t > 0.0)   # vanishing estimate (zero pilot power): mu = omega = 0
        mu[m, live] = np.sqrt(t[live])
        phi_t = phi[live].transpose(0, 2, 1).reshape(len(live), N * N)
        cross = (phi_t @ R[m].reshape(K, N * N).T).real     # cross[i, k'] = tr(R_k' Phi_live[i])
        omega[m, live] = cross / t[live, None]
        omega[m, live, live] += t[live]
    return CoefficientTensor(mu=mu, omega=omega, noise_coeff=np.ones((M, K)),
                             fill_row=fill_row)


def monte_carlo_statistics(
    corr: CorrelationSet,
    frame: FrameConfig,
    samples: int,
    seed: int,
) -> CoefficientTensor:
    """Sample-average coefficient tensor with standard errors.

    Draws channel realizations, forms MMSE estimates from noisy pilot
    observations, and combines with the empirically normalized MR combiner.
    Deterministic for a fixed seed regardless of chunking.
    """
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    R = corr.R
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
    noise_coeff = np.where(nrm > 0, 1.0, 0.0)         # ||v||^2 == 1 by the empirical normalizer
    return CoefficientTensor(mu=mu, omega=omega, noise_coeff=noise_coeff,
                             mu_se=mu_se, omega_se=omega_se)


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
