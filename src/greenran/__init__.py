"""Uplink energy-efficiency simulator and optimizer for a decoupled RAN.

Network drops, ergodic rate statistics, a holistic power model, fractional-
programming power control, and swap-matching association with BS sleeping.
"""

from .netmodel import (ConfigError, CorrelationSet, FrameConfig, ScenarioParams,
                       Topology, build_correlation, generate_topology)
from .powerctl import (InfeasibleError, PowerSolution, QosSpec, SolverSettings, eipc,
                       fipc, gamma_thresholds, make_qos, slmdb)
from .powermodel import (AffinePowerForm, BsPowerConfig, PowerBreakdown,
                         SubComponentSpec, SystemPowerParams, build_affine_form,
                         component_power, network_power, theta, ubs_power)
from .rates import Association, link_coefficients
from .statistics import CoefficientTensor, mmse_statistics

__version__ = "0.1.0"
