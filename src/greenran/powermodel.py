"""Holistic uplink power model: BSs, fronthaul, edge cloud, UEs.

Per-BS power is a table of sub-components whose draw scales from reference
values as p_ref * prod (x_act / x_ref)^s over x in {N, B, Q, Se, Ld, St},
divided by supply/cooling loss factors and multiplied by the sector count.
Because every load exponent is 0 or 1, the whole network power collapses to

    P_N = c0(A) + sum_k alpha_k * R_k / R_ref + sum_k delta_k * P_k

which is what the fractional-programming power controller consumes. The
constant absorbs fixed BS power of active BSs, sleep power, fixed fronthaul
and edge-cloud shares, and UE circuit power; alpha bundles every
traffic-proportional term and delta is the UE PA slope.
"""

from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .netmodel import ConfigError

SCALING_PARAMS = ("N", "B", "Q", "Se", "Ld", "St")


@dataclass(frozen=True)
class SubComponentSpec:
    name: str
    p_ref_w: float
    scaling_exponents: dict = field(default_factory=dict)   # param -> exponent; missing = 0

    def __post_init__(self):
        if self.p_ref_w < 0:
            raise ConfigError(f"component {self.name}: p_ref_w must be >= 0")
        for x, s in self.scaling_exponents.items():
            if x not in SCALING_PARAMS:
                raise ConfigError(f"component {self.name}: unknown scaling parameter {x!r}")
            if not np.isfinite(s):
                raise ConfigError(f"component {self.name}: exponent for {x} must be finite")


@dataclass(frozen=True)
class BsPowerConfig:
    rf_components: tuple
    bbu_components: tuple
    ref_values: dict             # {N, B, Q, Se, Ld, St} -> reference value
    act_values: dict             # actual operating values (Ld acts as full-load value)
    sectors: int = 1
    loss_ms: float = 0.1         # AC-DC main supply loss
    loss_dc: float = 0.05        # DC-DC supply loss
    loss_co: float = 0.0         # BS cooling loss
    sleep_scale: float = 0.1     # sleep power as a fraction of idle power

    def __post_init__(self):
        for name in ("loss_ms", "loss_dc", "loss_co"):
            v = getattr(self, name)
            if not 0 <= v < 1:
                raise ConfigError(f"{name} must lie in [0, 1)")
        if not 0 <= self.sleep_scale <= 1:
            raise ConfigError("sleep_scale must lie in [0, 1]")
        if self.sectors < 1:
            raise ConfigError("sectors must be >= 1")
        for x in SCALING_PARAMS:
            if x not in self.ref_values or x not in self.act_values:
                raise ConfigError(f"ref/act values must cover {x}")
            if self.ref_values[x] <= 0:
                raise ConfigError(f"reference value for {x} must be positive")

    @property
    def loss_divisor(self) -> float:
        return (1 - self.loss_ms) * (1 - self.loss_dc) * (1 - self.loss_co)


@dataclass(frozen=True)
class SystemPowerParams:
    fronthaul_fix_w: float = 0.825
    fronthaul_trf_w_per_bps: float = 0.25e-9     # 0.25 W/Gbps
    kappa: float = 1.0           # centralization level; 0 disables the edge cloud
    psi_d: float = 0.8           # BBU share offloaded to the edge cloud
    stacking_gain: float = 2.0   # zeta
    pooling_capacity: float = 5.0  # lambda
    pooling_power: float = 2.0   # xi
    cooling_gain: float = 2.0    # rho
    loss_co_ec: float = 0.1      # edge-cloud cooling loss
    ue_circuit_w: float = 1.31
    ue_pa_slope: float = 2.6     # >= 1
    r_ref_bps: float = 40e6      # per-UE reference rate

    def __post_init__(self):
        if not 0 <= self.kappa <= 1:
            raise ConfigError("kappa must lie in [0, 1]")
        if not 0 <= self.psi_d <= 1:
            raise ConfigError("psi_d must lie in [0, 1]")
        if self.ue_pa_slope < 1:
            raise ConfigError("ue_pa_slope must be >= 1")
        if self.r_ref_bps <= 0:
            raise ConfigError("r_ref_bps must be positive")
        if self.stacking_gain <= 0 or self.pooling_capacity <= 0 or self.cooling_gain <= 0:
            raise ConfigError("stacking/pooling/cooling gains must be positive")
        if not 0 <= self.loss_co_ec < 1:
            raise ConfigError("loss_co_ec must lie in [0, 1)")


@dataclass(frozen=True)
class AffinePowerForm:
    """P_N = c0(A) + sum_k alpha_k R_k / R_ref + sum_k delta_k P_k (fixed S).

    Only the constant depends on the active-BS count A (all M under
    no-sleeping): `c0_w` and each part's constant are (M + 1,) tables indexed
    by it."""
    c0_w: np.ndarray
    alpha_per_k: np.ndarray
    delta_per_k: np.ndarray
    r_ref_bps: float
    # per-category (constant table, per-rate-unit, per-watt) triples for the breakdown
    parts: dict = field(default_factory=dict, repr=False)

    def total(self, P: np.ndarray, rates: np.ndarray, n_active):
        """P_N in watts, one per row of P and rates stacked (B, K), with the
        active-BS count of each row in `n_active` (B,); each row times a column
        is one dot product, as alpha @ x is for a single row."""
        x = np.asarray(rates)[..., None, :] / self.r_ref_bps
        c0 = self.c0_w[n_active][..., None, None]
        total = (c0 + x @ self.alpha_per_k[:, None]
                 + np.asarray(P)[..., None, :] @ self.delta_per_k[:, None])[..., 0, 0]
        return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class PowerBreakdown:
    ubs_active_w: float
    ubs_sleep_w: float
    fronthaul_w: float
    edge_cloud_w: float
    ue_w: float
    total_w: float


def component_power(spec: SubComponentSpec, act: dict, ref: dict) -> float:
    """p_ref scaled by (act/ref)^exponent over the parameters the spec names."""
    p = spec.p_ref_w
    for x, s in spec.scaling_exponents.items():
        if s == 0:
            continue
        if ref[x] <= 0:
            raise ConfigError(f"reference value for {x} must be positive")
        p *= (act[x] / ref[x]) ** s
    return p


def ubs_power(cfg: BsPowerConfig, load_fraction: float) -> float:
    """Per-BS power at the given load fraction (1.0 = the configured full load)."""
    if load_fraction < 0:
        raise ConfigError("load_fraction must be >= 0")
    act = dict(cfg.act_values)
    act["Ld"] = load_fraction * cfg.ref_values["Ld"]
    total = 0.0
    for spec in tuple(cfg.rf_components) + tuple(cfg.bbu_components):
        total += component_power(spec, act, cfg.ref_values)
    return cfg.sectors * total / cfg.loss_divisor


def theta(cfg: BsPowerConfig, params: SystemPowerParams) -> float:
    """Edge-cloud power share: offloaded BBU power over total BS power.

    Evaluated at the actual operating point. Sector counts and loss divisors
    appear in both numerator and denominator, and homogeneous BSs make the
    ratio independent of M, so it reduces to psi_d * BBU / (RF + BBU).
    """
    act = dict(cfg.act_values)
    bbu = sum(component_power(s, act, cfg.ref_values) for s in cfg.bbu_components)
    rf = sum(component_power(s, act, cfg.ref_values) for s in cfg.rf_components)
    if rf + bbu <= 0:
        raise ConfigError("total BS power is zero; theta undefined")
    return params.psi_d * bbu / (rf + bbu)


def edge_cloud_scaling(params: SystemPowerParams, M: int, loss_co_bs: float) -> float:
    """Pooling/stacking factor times the cooling correction."""
    pool = params.pooling_power / M * np.ceil(M / (params.pooling_capacity * params.stacking_gain))
    sco = params.loss_co_ec
    if loss_co_bs != 0:
        cool = sco / params.cooling_gain + 1.0 - sco
    else:
        # BSs had no active cooling, so the stacked BBUs add cooling on top
        cool = sco / ((1.0 - sco) * params.cooling_gain) + 1.0
    return float(pool * cool)


def _validate_load_exponents(cfg: BsPowerConfig) -> None:
    for spec in tuple(cfg.rf_components) + tuple(cfg.bbu_components):
        s = spec.scaling_exponents.get("Ld", 0)
        if s not in (0, 1):
            raise ConfigError(
                f"component {spec.name}: load exponent {s} unsupported by the affine "
                "reduction; only 0 or 1 is allowed")


def traffic_power_coefficient(cfg: BsPowerConfig) -> float:
    """Watts per unit of aggregate load (sum_k R_k / R_ref) in one BS table."""
    _validate_load_exponents(cfg)
    return ubs_power(cfg, 1.0) - ubs_power(cfg, 0.0)


def build_affine_form(cfg: BsPowerConfig, params: SystemPowerParams, M: int,
                      K: int) -> AffinePowerForm:
    """Collapse the component model into the affine network-power form of M BSs
    serving K UEs, with its constants tabulated over 0..M active BSs.

    Traffic is attributed per UE as R_k / R_ref; the aggregate over active BSs
    matches the per-BS load definition, so the collapse is exact whenever all
    load exponents are 0 or 1 (validated).
    """
    n_active = np.arange(M + 1.0)

    _validate_load_exponents(cfg)
    p_fix = ubs_power(cfg, 0.0)
    p_trf = ubs_power(cfg, 1.0) - p_fix    # traffic_power_coefficient, one table walk fewer
    kt = params.kappa * theta(cfg, params)
    ec = kt * edge_cloud_scaling(params, M, cfg.loss_co)
    rref = params.r_ref_bps

    # (constant, per-rate-unit, per-watt) of each category; the constants are
    # tables over the active count, the slopes the same for every UE
    scalars = {
        "ubs_active": ((1.0 - kt) * n_active * p_fix, (1.0 - kt) * p_trf, 0.0),
        "ubs_sleep": ((1.0 - kt) * cfg.sleep_scale * p_fix * (M - n_active), 0.0, 0.0),
        # the traffic term sums over every BS as modeled, sleepers included
        "fronthaul": (n_active * params.fronthaul_fix_w,
                      M * params.fronthaul_trf_w_per_bps * rref, 0.0),
        "edge_cloud": (ec * M * p_fix, ec * p_trf, 0.0),
        "ue": (K * params.ue_circuit_w, 0.0, params.ue_pa_slope),
    }
    # one row per category, in category order
    consts = np.empty((len(scalars), M + 1))
    slopes = np.empty((len(scalars), 2, K))
    for row, (c, a, d) in enumerate(scalars.values()):
        consts[row], slopes[row, 0], slopes[row, 1] = c, a, d
    # the constants and slopes added in category order from the first on, as
    # np.sum over the categories' arrays (axis 0) adds them
    _, alphas, deltas = zip(*scalars.values())
    alpha, delta = reduce(add, alphas), reduce(add, deltas)
    if K and alpha <= 0:
        raise ConfigError("traffic coefficients must be positive; check the component "
                          "table and the fronthaul traffic slope")
    parts = dict(zip(scalars, zip(consts, slopes[:, 0], slopes[:, 1])))
    return AffinePowerForm(c0_w=np.add.reduce(consts), alpha_per_k=np.full(K, alpha),
                           delta_per_k=np.full(K, delta), r_ref_bps=rref, parts=parts)


def network_power(P: np.ndarray, rates: np.ndarray, form: AffinePowerForm,
                  n_active: int) -> PowerBreakdown:
    P = np.asarray(P, dtype=float)
    rates = np.asarray(rates, dtype=float)
    vals = {}
    for name, (c, a, d) in form.parts.items():
        vals[name] = float(c[n_active] + a @ (rates / form.r_ref_bps) + d @ P)
    total = sum(vals.values())
    return PowerBreakdown(ubs_active_w=vals["ubs_active"], ubs_sleep_w=vals["ubs_sleep"],
                          fronthaul_w=vals["fronthaul"], edge_cloud_w=vals["edge_cloud"],
                          ue_w=vals["ue"], total_w=total)
