"""Association matrix, effective SINR, and the ergodic uplink rate.

The rate uses only channel statistics (use-and-then-forget style lower bound):

    SINR_k = P_k |E{DS_k}|^2 /
             (sum_k' P_k' E{|IS_kk'|^2} - P_k |E{DS_k}|^2 + sigma^2 E{NS_k})
    R_k    = (tau_u / tau_c) * B * log2(1 + SINR_k)

with the expectations assembled from the per-link coefficient tensor. Signals
combined across serving BSs add coherently in the mean (mu terms) while the
per-BS second moments add directly; BS-to-BS cross terms survive only for the
UE's own signal.
"""

from dataclasses import dataclass, field

import numpy as np

from .netmodel import ConfigError, FrameConfig
from .statistics import CoefficientTensor


@dataclass(frozen=True)
class Association:
    """Binary serving matrix S (M x K) with the derived BS activity vector A."""
    S: np.ndarray
    A: np.ndarray = field(init=False)
    max_per_ue: int | None = None    # L cap, validated when given
    max_per_bs: int | None = None    # N cap, validated when given

    def __post_init__(self):
        S = np.asarray(self.S, dtype=bool)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "A", S.any(axis=1))
        if self.max_per_ue is not None and (S.sum(axis=0) > self.max_per_ue).any():
            raise ConfigError(f"a UE exceeds the per-UE cap L={self.max_per_ue}")
        if self.max_per_bs is not None and (S.sum(axis=1) > self.max_per_bs).any():
            raise ConfigError(f"a BS exceeds the per-BS cap N={self.max_per_bs}")

    @property
    def active_count(self) -> int:
        return int(self.A.sum())


@dataclass(frozen=True)
class LinkCoefficients:
    """SINR building blocks for a fixed association.

    ds2[k]           |E{DS_k}|^2
    interf[k, k']    E{|IS_kk'|^2} (diagonal includes the cross-BS mu products)
    ns[k]            E{NS_k}; zero exactly when UE k has no serving BS
    """
    ds2: np.ndarray
    interf: np.ndarray
    ns: np.ndarray

    @property
    def served(self) -> np.ndarray:
        return self.ns > 0


def link_coefficients(S: np.ndarray, tensor: CoefficientTensor) -> LinkCoefficients:
    """Coefficients of a serving matrix (M, K), or stacked over them (..., M, K)."""
    Sf = S.astype(float)
    mu_eff = np.einsum("...mk,mk->...k", Sf, tensor.mu)
    sum_mu2 = np.einsum("...mk,mk->...k", Sf, tensor.mu**2)
    interf = np.einsum("...mk,mkj->...kj", Sf, tensor.omega)
    ds2 = mu_eff**2
    # own-signal cross terms over distinct serving BSs: (sum mu)^2 - sum mu^2
    diag = np.arange(S.shape[-1])
    interf[..., diag, diag] += ds2 - sum_mu2
    ns = np.einsum("...mk,mk->...k", Sf, tensor.noise_coeff)
    return LinkCoefficients(ds2=ds2, interf=interf, ns=ns)


def sinr_from_coeffs(P: np.ndarray, lc: LinkCoefficients, noise_power_w: float) -> np.ndarray:
    signal = P * lc.ds2
    denom = (lc.interf @ P[..., None])[..., 0] - signal + noise_power_w * lc.ns
    out = np.zeros_like(signal)
    ok = denom > 0
    out[ok] = signal[ok] / denom[ok]
    return out


def rates_from_coeffs(P: np.ndarray, lc: LinkCoefficients, frame: FrameConfig) -> np.ndarray:
    """Per-UE rates in bit/s; zero for UEs with an empty serving set."""
    return frame.rate_scale * np.log2(1.0 + sinr_from_coeffs(P, lc, frame.noise_power_w))
