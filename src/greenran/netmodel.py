"""Network drops: uplink-BS/UE geometry and spatial-correlation channel statistics.

Positions are drawn uniformly on a square with wrap-around (torus) distances,
so there are no boundary effects. Each link gets an N x N spatial correlation
matrix; the default model is beta * I_N with log-distance path loss and
optional log-normal shadowing, stored as its (M, K) gains: a BS's (K, N, N)
block is built when the statistics ask for it, and the whole (M, K, N, N)
array only when read. Any dense real or complex set is accepted too. All gains
are stored linear; dB enters only at the config boundary.
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


class CorrelationSet:
    """Per-link spatial correlation matrices and their large-scale gains.

    R[m, k] is N x N Hermitian PSD (linear power gain), real or complex, and
    beta[m, k] = trace(R[m, k])/N. A set is dense, CorrelationSet(R=R) with R
    (M, K, N, N), or isotropic, CorrelationSet(gain=g, N=N) for
    R[m, k] = g[m, k] * I_N, which stores only g. Either way block(m) gives
    BS m's (K, N, N) block, and `R` the whole array (an isotropic set builds it
    on each read). The statistics follow the blocks' dtype, so a real set runs
    in real arithmetic.
    """

    def __init__(self, R: np.ndarray | None = None, *, gain: np.ndarray | None = None,
                 N: int | None = None):
        if (R is None) == (gain is None):
            raise ValueError("give either R, or gain and N")
        self._dense, self._gain = R, gain
        if R is not None:
            self.N, self.dtype = R.shape[-1], R.dtype
            trace = np.einsum("mknn->mk", R).real
        else:
            self.N, self.dtype, self._eye = N, gain.dtype, np.eye(N)
            # summed over a stride-0 view, as over the strided diagonal of gain * I,
            # so beta is trace(gain * I)/N to the bit (a contiguous copy is not)
            trace = np.einsum("mkn->mk", np.broadcast_to(gain[:, :, None], (*gain.shape, N)))
        self.beta = trace / self.N

    def block(self, m: int, out: np.ndarray | None = None) -> np.ndarray:
        """BS m's blocks R[m] (K, N, N): a new array, or `out` rewritten."""
        if self._dense is None:
            return np.multiply(self._gain[m, :, None, None], self._eye, out=out)
        return np.positive(self._dense[m], out=out)    # a copy, bit for bit

    @property
    def R(self) -> np.ndarray:
        """All blocks (M, K, N, N): the stored array of a dense set, else a new one."""
        return self._gain[:, :, None, None] * self._eye if self._dense is None else self._dense


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


def build_correlation(topology: Topology, frame: FrameConfig) -> CorrelationSet:
    """Isotropic correlation beta * I_N from log-distance path loss.

    beta * I_N is real symmetric PSD, hence Hermitian PSD; the set stores the
    float64 gains and builds a BS's blocks in real arithmetic when asked.
    beta_dB = -intercept - 10 * exponent * log10(d) + shadowing, with the wrap
    distance floored at 1 m. Shadowing draws are seeded from the scenario seed,
    so an identical scenario reproduces the identical set.
    """
    p = topology.params
    dist = _wrap_distance_matrix(topology.ubs_positions, topology.ue_positions, p.area_side)
    dist = np.maximum(dist, 1.0)
    beta_db = -p.pathloss_intercept_db - 10.0 * p.pathloss_exponent * np.log10(dist)
    if p.shadowing_std_db > 0:
        rng = np.random.default_rng([p.seed, 1])
        beta_db = beta_db + rng.normal(0.0, p.shadowing_std_db, size=beta_db.shape)
    return CorrelationSet(gain=10.0 ** (beta_db / 10.0), N=p.N)
