"""Ergodic expectations of the combined uplink signal under MMSE estimation + MR combining.

For every link the MMSE channel estimate has covariance
Phi = p_p * tau_p * R (p_p * tau_p * R + sigma^2 I)^{-1} R, and with the
normalized maximum-ratio combiner v = h_est / sqrt(E{||h_est||^2}):

    mu       = E{v^H h}          = sqrt(tr Phi)
    E{|v^H h_k|^2}               = tr Phi + tr(R_k Phi) / tr Phi
    E{|v^H h_k'|^2}              = tr(R_k' Phi) / tr Phi      (k' != k, orthogonal pilots)
    E{||v||^2} = 1

The drop model is isotropic, R[m, k] = g[m, k] * I_N, the uncorrelated case of
the MR bound in Bjornson, Hoydis & Sanguinetti, Massive MIMO Networks (2017),
Sec. 4.2. Then Phi = phi * I_N with phi = a g^2 / (a g + sigma^2), a = p_p tau_p,
and every trace is a scalar: tr Phi = N phi and tr(R_k' Phi) / tr Phi = g_k'.
So the second moment that UE k' leaves in the combiner of link (m, k) is the
gain g[m, k'] whatever k is, and every statistic is an (M, K) array, O(M K)
elementwise work. tests/reference.py keeps the general-R formulas, a Monte
Carlo estimate, and the expansion of these arrays into the (M, K, K) tensor of
second moments that both are compared on.
"""

from dataclasses import dataclass

import numpy as np

from .netmodel import CorrelationSet, FrameConfig


@dataclass(frozen=True)
class CoefficientTensor:
    """Per-link statistics, each (M, K):

    mu    E{v_mk^H h_mk} = sqrt(tr Phi) >= 0
    gain  g[m, k'], the second moment E{|v_mk^H h_mk'|^2} of UE k' != k in
          the combiner of any live link (m, k)
    live  1.0 where tr Phi > 0, else 0.0: a dead link's combiner is zero, so
          it sees nothing
    own   E{|v_mk^H h_mk|^2} = g[m, k] + tr Phi on a live link, else 0

    E{||v||^2} = 1 needs no entry: `link_coefficients` counts serving BSs.
    """
    mu: np.ndarray
    gain: np.ndarray
    live: np.ndarray
    own: np.ndarray


def mmse_statistics(corr: CorrelationSet, frame: FrameConfig) -> CoefficientTensor:
    """Closed-form statistics of all M x K links of an isotropic set.

    A link whose estimate vanishes (tr Phi == 0: zero pilot power, or underflow)
    is dead, with mu = own = 0.
    """
    g = corr.gain
    ag = frame.pilot_power_w * frame.tau_p * g
    # grouped as the general formula's solve and product evaluate it on a
    # diagonal R, so the two agree to the last bits
    t = corr.N * (ag * (g * (1.0 / (ag + frame.noise_power_w))))    # tr Phi
    live = t > 0.0
    return CoefficientTensor(mu=np.sqrt(t), gain=g, live=live.astype(float),
                             own=np.where(live, g, 0.0) + t)
