"""Ergodic expectations of the combined uplink signal under MMSE estimation + MR combining.

For every link the MMSE channel estimate has covariance
Phi = p_p * tau_p * R (p_p * tau_p * R + sigma^2 I)^{-1} R, and with the
normalized maximum-ratio combiner v = h_est / sqrt(E{||h_est||^2}):

    mu       = E{v^H h}          = sqrt(tr Phi)
    omega_kk = E{|v^H h_k|^2}    = tr Phi + tr(R_k Phi) / tr Phi
    omega_kk'= E{|v^H h_k'|^2}   = tr(R_k' Phi) / tr Phi      (k' != k, orthogonal pilots)
    E{||v||^2} = 1

The drop model is isotropic, R[m, k] = g[m, k] * I_N, the uncorrelated case of
the MR bound in Bjornson, Hoydis & Sanguinetti, Massive MIMO Networks (2017),
Sec. 4.2. Then Phi = phi * I_N with phi = a g^2 / (a g + sigma^2), a = p_p tau_p,
and every trace is a scalar: tr Phi = N phi and tr(R_k' Phi) / tr Phi = g_k'.
The whole tensor is O(M K^2) elementwise work. tests/reference.py keeps the
general-R formulas and a Monte Carlo estimate that the closed form is checked
against.
"""

from dataclasses import dataclass

import numpy as np

from .netmodel import CorrelationSet, FrameConfig


@dataclass(frozen=True)
class CoefficientTensor:
    """mu (M, K) >= 0; omega (M, K, K) >= 0, omega[m, k, k'] = E{|v_mk^H h_mk'|^2};
    noise_coeff (M, K) = E{||v||^2}, 1 under the normalized combiner."""
    mu: np.ndarray
    omega: np.ndarray
    noise_coeff: np.ndarray


def mmse_statistics(corr: CorrelationSet, frame: FrameConfig) -> CoefficientTensor:
    """Closed-form coefficient tensor for all M x K links of an isotropic set.

    A link whose estimate vanishes (tr Phi == 0: zero pilot power, or underflow)
    has mu = omega = 0.
    """
    g = corr.gain
    ag = frame.pilot_power_w * frame.tau_p * g
    # grouped as the general formula's solve and product evaluate it on a
    # diagonal R, so the two agree to the last bits
    t = corr.N * (ag * (g * (1.0 / (ag + frame.noise_power_w))))    # tr Phi
    omega = np.where(t[:, :, None] > 0.0, g[:, None, :], 0.0)
    K = g.shape[1]
    omega[:, np.arange(K), np.arange(K)] += t
    return CoefficientTensor(mu=np.sqrt(t), omega=omega, noise_coeff=np.ones(g.shape))
