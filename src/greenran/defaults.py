"""Bundled default configuration.

`table3_defaults()` returns the standard simulation parameter set used across
the test suite and CLI: frame/noise/pilot numbers, QoS targets, loss factors,
sleeping and centralization factors, fronthaul and UE coefficients.

The per-component BS tables shipped here are illustrative placeholders with
plausible magnitudes; they are NOT calibrated against any measured hardware.
Every quantitative check in the test suite is invariance- or equivalence-based
and never pins these watt values.
"""

import copy

# Sub-component tables: name, reference power (W), scaling exponents over
# {N, B, Q, Se, Ld, St}. Load exponents must be 0/1 for the affine reduction.
_RF_COMPONENTS = [
    {"name": "freq_synthesis", "p_ref_w": 0.38, "scaling_exponents": {}},
    {"name": "clock_generation", "p_ref_w": 0.45, "scaling_exponents": {}},
    {"name": "rx_rf_chain", "p_ref_w": 0.60, "scaling_exponents": {"N": 1}},
    {"name": "adc", "p_ref_w": 0.22, "scaling_exponents": {"N": 1, "B": 1, "Q": 1}},
]

_BBU_COMPONENTS = [
    {"name": "platform_control", "p_ref_w": 1.50, "scaling_exponents": {}},
    {"name": "filtering", "p_ref_w": 0.80, "scaling_exponents": {"N": 1, "B": 1}},
    {"name": "ofdm_processing", "p_ref_w": 1.10, "scaling_exponents": {"N": 1, "B": 1}},
    {"name": "detection", "p_ref_w": 0.95,
     "scaling_exponents": {"N": 1, "B": 1, "St": 1, "Ld": 1}},
    {"name": "decoding", "p_ref_w": 1.30,
     "scaling_exponents": {"B": 1, "Se": 1, "Ld": 1}},
]

_DEFAULTS = {
    "scenario": {
        "M": 16,
        "K": 5,
        "N": 5,
        "L": 3,
        "area_side": 500.0,
        "pathloss_intercept_db": 30.5,
        "pathloss_exponent": 3.67,
        "shadowing_std_db": 0.0,
        "seed": 0,
    },
    "frame": {
        "tau_c": 190,
        "tau_p": 10,
        "bandwidth_hz": 20e6,
        "noise_power_w": 10 ** (-94 / 10) * 1e-3,    # -94 dBm
        "pilot_power_w": 0.1,                         # 100 mW
    },
    "power": {
        "bs": {
            "rf_components": _RF_COMPONENTS,
            "bbu_components": _BBU_COMPONENTS,
            "ref_values": {"N": 1, "B": 20e6, "Q": 24, "Se": 6, "Ld": 1.0, "St": 1},
            "act_values": {"N": 5, "B": 20e6, "Q": 24, "Se": 6, "Ld": 1.0, "St": 1},
            "sectors": 1,
            "loss_ms": 0.1,
            "loss_dc": 0.05,
            "loss_co": 0.0,
            "sleep_scale": 0.1,
        },
        "system": {
            "fronthaul_fix_w": 0.825,
            "fronthaul_trf_w_per_bps": 0.25e-9,       # 0.25 W/Gbps
            "kappa": 1.0,
            "psi_d": 0.8,
            "stacking_gain": 2.0,
            "pooling_capacity": 5.0,
            "pooling_power": 2.0,
            "cooling_gain": 2.0,
            "loss_co_ec": 0.1,
            "ue_circuit_w": 1.31,
            "ue_pa_slope": 2.6,
            "r_ref_bps": 40e6,
        },
    },
    "qos": {
        "r_min_bps": 20e6,
        "p_max_w": 0.1,
    },
    "solver": {
        "slm_tol": 1e-3,
        "slm_max_iter": 100,
        "recp_delta_percent": 95.0,
    },
    "algorithm": "trimsm-eipc",
    "drops": 1,
    "base_seed": 0,
    "record_timing": False,
}


def table3_defaults() -> dict:
    """Deep copy of the bundled default run configuration."""
    return copy.deepcopy(_DEFAULTS)
