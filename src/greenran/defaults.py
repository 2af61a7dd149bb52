"""Bundled default configuration.

`table3_defaults()` returns the standard simulation parameter set used across
the test suite and CLI. The sections backed by a parameter dataclass (scenario,
frame, power.bs, power.system, solver) take every value that dataclass declares
a default for from the dataclass itself; only the fields it leaves required,
the QoS targets and the run keys are stated here.

The per-component BS tables shipped here are illustrative placeholders with
plausible magnitudes; they are NOT calibrated against any measured hardware.
Every quantitative check in the test suite is invariance- or equivalence-based
and never pins these watt values.
"""

import copy
from dataclasses import MISSING, fields

from .netmodel import FrameConfig, ScenarioParams
from .powerctl import SolverSettings
from .powermodel import BsPowerConfig, SystemPowerParams

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


def _section(cls, **required) -> dict:
    """The config section of dataclass `cls`, in field order: `required` gives
    the fields without a declared default, the rest keep theirs."""
    return {f.name: required[f.name] if f.default is MISSING else f.default
            for f in fields(cls)}


_DEFAULTS = {
    "scenario": _section(ScenarioParams, M=16, K=5, N=5, L=3),
    "frame": _section(FrameConfig),
    "power": {
        "bs": _section(
            BsPowerConfig, rf_components=_RF_COMPONENTS, bbu_components=_BBU_COMPONENTS,
            ref_values={"N": 1, "B": 20e6, "Q": 24, "Se": 6, "Ld": 1.0, "St": 1},
            act_values={"N": 5, "B": 20e6, "Q": 24, "Se": 6, "Ld": 1.0, "St": 1}),
        "system": _section(SystemPowerParams),
    },
    "qos": {
        "r_min_bps": 20e6,
        "p_max_w": 0.1,
    },
    "solver": _section(SolverSettings),
    "algorithm": "trimsm-eipc",
    "drops": 1,
    "base_seed": 0,
    "record_timing": False,
}


def table3_defaults() -> dict:
    """Deep copy of the bundled default run configuration."""
    return copy.deepcopy(_DEFAULTS)
