"""Network drops: uplink-BS/UE geometry and the links' large-scale gains.

Positions are drawn uniformly on a square with wrap-around (torus) distances,
so there are no boundary effects. Each link's spatial correlation is isotropic,
R = g * I_N, with log-distance path loss and optional log-normal shadowing in
g, so a drop stores only the (M, K) gains. All gains are stored linear; dB
enters only at the config boundary.
"""

from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Raised when scenario or frame parameters violate their invariants."""


@dataclass(frozen=True)
class ScenarioParams:
    M: int                       # number of uplink BSs
    K: int                       # number of UEs
    N: int                       # antennas per uplink BS
    L: int                       # max uplink BSs serving one UE
    area_side: float = 500.0     # m
    pathloss_intercept_db: float = 30.5
    pathloss_exponent: float = 3.67
    shadowing_std_db: float = 0.0   # 0 disables shadowing
    seed: int = 0

    def __post_init__(self):
        if self.M < 1 or self.K < 1 or self.N < 1:
            raise ConfigError(f"M, K, N must be >= 1 (got M={self.M}, K={self.K}, N={self.N})")
        if not 1 <= self.L <= self.M:
            raise ConfigError(f"L must satisfy 1 <= L <= M (got L={self.L}, M={self.M})")
        if self.area_side <= 0:
            raise ConfigError(f"area_side must be positive (got {self.area_side})")
        for name in ("pathloss_exponent", "shadowing_std_db"):    # 0 is legal for both
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0 (got {getattr(self, name)})")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class FrameConfig:
    tau_c: int = 190             # symbols per coherence block
    tau_p: int = 10              # pilot symbols
    bandwidth_hz: float = 20e6
    noise_power_w: float = 10 ** (-94 / 10) * 1e-3   # -94 dBm
    pilot_power_w: float = 0.1

    def __post_init__(self):
        if not 0 < self.tau_p < self.tau_c:
            raise ConfigError(f"need 0 < tau_p < tau_c (got tau_p={self.tau_p}, tau_c={self.tau_c})")
        if self.bandwidth_hz <= 0 or self.noise_power_w <= 0:
            raise ConfigError("bandwidth_hz and noise_power_w must be positive")
        if self.pilot_power_w < 0:
            raise ConfigError("pilot_power_w must be nonnegative")

    @property
    def tau_u(self) -> int:
        return self.tau_c - self.tau_p

    @property
    def rate_scale(self) -> float:
        """Pre-log factor (tau_u / tau_c) * B of the uplink rate, bit/s."""
        return self.tau_u / self.tau_c * self.bandwidth_hz


@dataclass(frozen=True)
class Topology:
    ubs_positions: np.ndarray    # (M, 2) m
    ue_positions: np.ndarray     # (K, 2) m
    params: ScenarioParams


@dataclass(frozen=True)
class CorrelationSet:
    """Isotropic spatial correlation R[m, k] = gain[m, k] * I_N of every link.

    Stores the (M, K) linear gains, each also trace(R[m, k])/N, and N. `R`
    builds the whole (M, K, N, N) array on each read.
    """
    gain: np.ndarray             # (M, K) linear
    N: int                       # antennas per uplink BS

    @property
    def R(self) -> np.ndarray:
        """All blocks (M, K, N, N), built anew."""
        return self.gain[:, :, None, None] * np.eye(self.N)


def _wrap_distance_matrix(ubs_xy: np.ndarray, ue_xy: np.ndarray, side: float) -> np.ndarray:
    """Torus distances (M, K) from each BS to each UE on [0, side)^2."""
    d = np.abs(ubs_xy[:, None, :] - ue_xy[None, :, :])
    d = np.minimum(d, side - d)
    return np.hypot(d[..., 0], d[..., 1])


def generate_topology(params: ScenarioParams) -> Topology:
    """Drop M uplink BSs and K UEs i.i.d. uniform on the square (seeded)."""
    rng = np.random.default_rng([params.seed, 0])
    ubs = rng.uniform(0.0, params.area_side, size=(params.M, 2))
    ue = rng.uniform(0.0, params.area_side, size=(params.K, 2))
    return Topology(ubs_positions=ubs, ue_positions=ue, params=params)


def build_correlation(topology: Topology) -> CorrelationSet:
    """Isotropic correlation gain * I_N from log-distance path loss.

    gain * I_N is real symmetric PSD, hence Hermitian PSD; the set stores the
    float64 gains.
    gain_dB = -intercept - 10 * exponent * log10(d) + shadowing, with the wrap
    distance floored at 1 m. Shadowing draws are seeded from the scenario seed,
    so an identical scenario reproduces the identical set.
    """
    p = topology.params
    dist = _wrap_distance_matrix(topology.ubs_positions, topology.ue_positions, p.area_side)
    dist = np.maximum(dist, 1.0)
    gain_db = -p.pathloss_intercept_db - 10.0 * p.pathloss_exponent * np.log10(dist)
    if p.shadowing_std_db > 0:
        rng = np.random.default_rng([p.seed, 1])
        gain_db = gain_db + rng.normal(0.0, p.shadowing_std_db, size=gain_db.shape)
    return CorrelationSet(gain=10.0 ** (gain_db / 10.0), N=p.N)
