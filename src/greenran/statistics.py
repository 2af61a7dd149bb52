"""Ergodic expectations of the combined uplink signal under MMSE estimation + MR combining.

For every link the MMSE channel estimate has covariance
Phi = p_p * tau_p * R (p_p * tau_p * R + sigma^2 I)^{-1} R, and with the
normalized maximum-ratio combiner v = h_est / sqrt(E{||h_est||^2}):

    mu       = E{v^H h}          = sqrt(tr Phi)
    omega_kk = E{|v^H h_k|^2}    = tr Phi + tr(R_k Phi) / tr Phi
    omega_kk'= E{|v^H h_k'|^2}   = tr(R_k' Phi) / tr Phi      (k' != k, orthogonal pilots)
    E{||v||^2} = 1

The closed form is exact (tests/reference.py re-estimates the same quantities
from sampled pilots and channels). It computes a link's entries the first time
a matching that serves the link asks for them, so a link no matching serves,
and a sleeping BS, cost nothing. A fill reads only its BS's correlation block,
built into one buffer that the fills share: no (M, K, N, N) array is built.
"""

import numpy as np

from .netmodel import CorrelationSet, FrameConfig


class CoefficientTensor:
    """mu (M, K) >= 0; omega (M, K, K) >= 0, omega[m, k, k'] = E{|v_mk^H h_mk'|^2};
    noise_coeff (M, K) = E{||v||^2}, 1 under the normalized combiner. Given
    `fill`, link (m, k)'s entries mu[m, k] and omega[m, k] stay 0 until `links`
    first asks for them; fill(m, need) fills BS m's links in the (K,) bool mask
    `need`, and the (M, K) mask `ready` marks filled links. Whole-array reads of
    `mu`/`omega` fill every link."""

    def __init__(self, mu, omega, noise_coeff, fill=None):
        self._mu, self._omega, self.noise_coeff, self.fill = mu, omega, noise_coeff, fill
        self.ready = np.full(mu.shape, fill is None)    # full arrays start ready
        self._all_ready = fill is None

    mu = property(lambda self: self.links(~self.ready)[0])
    omega = property(lambda self: self.links(~self.ready)[1])

    def links(self, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(mu, omega) with every link filled that `wanted` sets: an (M, K) bool
        mask, or serving matrices stacked (..., M, K)."""
        if not self._all_ready:
            need = wanted.reshape(-1, *self.ready.shape).any(axis=0) & ~self.ready
            for m in np.flatnonzero(need.any(axis=1)):
                self.fill(m, need[m])
            self.ready |= need
            self._all_ready = bool(self.ready.all())
        return self._mu, self._omega


def mmse_statistics(corr: CorrelationSet, frame: FrameConfig) -> CoefficientTensor:
    """Closed-form coefficient tensor for all M x K links, filled per link on first use.

    Runs in the set's dtype: a real set takes real LAPACK/BLAS calls, a complex
    one complex calls, on the same lines. Per BS, the fill asks the set for the
    BS's correlation block, then one batched solve gives the requested links'
    Phi_k and one matrix product their cross traces tr(R_k' Phi_k), using
    tr(A B) = sum_ij A_ij (B^T)_ij.
    """
    (M, K), N = corr.beta.shape, corr.N
    pp_taup = frame.pilot_power_w * frame.tau_p
    sigma2 = frame.noise_power_w

    mu = np.zeros((M, K))
    omega = np.zeros((M, K, K))
    eye = np.eye(N)
    block = np.empty((K, N, N), corr.dtype)    # rewritten per fill: a new one faults anew
    # batched over one BS's links; over M too would hold (M, K, N, N) temporaries
    def fill(m, need):
        Rm = corr.block(m, out=block)
        ks = np.flatnonzero(need)
        Rk = Rm[ks]
        psi = pp_taup * Rk + sigma2 * eye
        phi = pp_taup * Rk @ np.linalg.solve(psi, Rk)
        t = np.trace(phi, axis1=1, axis2=2).real
        live = t > 0.0    # vanishing estimate (zero pilot power): mu = omega = 0
        ks, t = ks[live], t[live]
        mu[m, ks] = np.sqrt(t)
        # The product keeps its (K, N^2) shape, with zero rows for the links not
        # filled here: BLAS may sum a row differently in a smaller product, and
        # this way a link's bits do not depend on which links share its fill.
        phi_t = np.zeros((K, N * N), dtype=phi.dtype)
        phi_t[ks] = phi[live].transpose(0, 2, 1).reshape(len(ks), N * N)
        cross = (phi_t @ Rm.reshape(K, N * N).T).real    # cross[k, k'] = tr(R_k' Phi_k)
        omega[m, ks] = cross[ks] / t[:, None]
        omega[m, ks, ks] += t
    return CoefficientTensor(mu=mu, omega=omega, noise_coeff=np.ones((M, K)), fill=fill)
