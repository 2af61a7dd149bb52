"""Effective SINR and the ergodic uplink rate of a serving matrix.

A matching is its binary serving matrix S (M, K): S[m, k] is set when BS m
serves UE k, and a BS whose row is empty sleeps.

The rate uses only channel statistics (use-and-then-forget style lower bound):

    SINR_k = P_k |E{DS_k}|^2 /
             (sum_k' P_k' E{|IS_kk'|^2} - P_k |E{DS_k}|^2 + sigma^2 E{NS_k})
    R_k    = (tau_u / tau_c) * B * log2(1 + SINR_k)

with the expectations assembled from the per-link coefficient tensor. Signals
combined across serving BSs add coherently in the mean (mu terms) while the
per-BS second moments add directly; BS-to-BS cross terms survive only for the
UE's own signal. A live link's combiner sees every other UE k' with its gain
g[m, k'], so the interference of a serving matrix is one product of its live
entries with the gains. The normalized combiner has E{||v||^2} = 1 on every
link, so E{NS_k} is the number of BSs serving UE k.
"""

from dataclasses import dataclass

import numpy as np

from .netmodel import FrameConfig
from .statistics import CoefficientTensor


@dataclass(frozen=True)
class LinkCoefficients:
    """SINR building blocks for a fixed association.

    ds2[k]           |E{DS_k}|^2
    interf[k, k']    E{|IS_kk'|^2} (diagonal includes the cross-BS mu products)
    ns[k]            E{NS_k}, the number of BSs serving UE k
    """
    ds2: np.ndarray
    interf: np.ndarray
    ns: np.ndarray

    @property
    def served(self) -> np.ndarray:
        return self.ns > 0


def link_coefficients(S: np.ndarray, tensor: CoefficientTensor) -> LinkCoefficients:
    """Coefficients of a serving matrix (M, K), or stacked over them (..., M, K).
    With 0/1 weights every product is exact, and each sum runs over the
    serving BSs in BS order."""
    K = S.shape[-1]
    Sf = S.astype(float)
    mu_eff = np.einsum("...mk,mk->...k", Sf, tensor.mu)
    sum_mu2 = np.einsum("...mk,mk->...k", Sf, tensor.mu**2)
    interf = (Sf * tensor.live).swapaxes(-1, -2) @ tensor.gain
    ds2 = mu_eff**2
    # own-signal cross terms over distinct serving BSs: (sum mu)^2 - sum mu^2
    own = np.einsum("...mk,mk->...k", Sf, tensor.own) + (ds2 - sum_mu2)
    interf.reshape(-1, K * K)[:, ::K + 1] = own.reshape(-1, K)
    return LinkCoefficients(ds2=ds2, interf=interf, ns=Sf.sum(axis=-2))


def sinr_from_coeffs(P: np.ndarray, lc: LinkCoefficients, noise_power_w: float) -> np.ndarray:
    signal = P * lc.ds2
    denom = (lc.interf @ P[..., None])[..., 0] - signal + noise_power_w * lc.ns
    return np.divide(signal, denom, out=np.zeros_like(signal), where=denom > 0)


def rates_from_coeffs(P: np.ndarray, lc: LinkCoefficients, frame: FrameConfig) -> np.ndarray:
    """Per-UE rates in bit/s; zero for UEs with an empty serving set."""
    return frame.rate_scale * np.log2(1.0 + sinr_from_coeffs(P, lc, frame.noise_power_w))
