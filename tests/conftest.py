import numpy as np
import pytest

from greenran import (BsPowerConfig, FrameConfig, ScenarioParams,
                      SolverSettings, SubComponentSpec, SystemPowerParams,
                      build_affine_form, build_correlation, generate_topology,
                      make_qos, mmse_statistics)
from greenran.defaults import table3_defaults
from greenran.matching import EvaluationContext
from greenran.powerctl import qopc_solve
from greenran.rates import link_coefficients


def default_bs_config() -> BsPowerConfig:
    d = table3_defaults()["power"]["bs"]
    return BsPowerConfig(
        rf_components=tuple(SubComponentSpec(**c) for c in d["rf_components"]),
        bbu_components=tuple(SubComponentSpec(**c) for c in d["bbu_components"]),
        ref_values=d["ref_values"], act_values=d["act_values"],
        sectors=d["sectors"], loss_ms=d["loss_ms"], loss_dc=d["loss_dc"],
        loss_co=d["loss_co"], sleep_scale=d["sleep_scale"])


def make_context(M=4, K=3, N=3, L=2, area=350.0, seed=0, r_min=10e6,
                 p_max=0.1, settings=None, shadowing=0.0) -> EvaluationContext:
    scen = ScenarioParams(M=M, K=K, N=N, L=L, area_side=area,
                          shadowing_std_db=shadowing, seed=seed)
    frame = FrameConfig()
    corr = build_correlation(generate_topology(scen))
    tensor = mmse_statistics(corr, frame)
    qos = make_qos(r_min, K, frame, p_max)
    return EvaluationContext(
        scenario=scen, frame=frame, corr=corr, tensor=tensor,
        form=build_affine_form(default_bs_config(), SystemPowerParams(), M, K), qos=qos,
        settings=settings or SolverSettings())


def active_count(S) -> int:
    """BSs awake under the serving matrix S: those serving a UE."""
    return np.count_nonzero(S.any(axis=1))


def qopc_alone(S, ctx) -> tuple[np.ndarray, bool]:
    """`qopc_solve` on the one serving matrix S, as a stack of one: (powers, verdict)."""
    p, ok = qopc_solve(link_coefficients(S[None], ctx.tensor), ctx.frame, ctx.qos)
    return p[0], bool(ok[0])


def strongest_assoc(ctx, per_ue=None) -> np.ndarray:
    """Each UE takes its strongest BSs up to L (ignores the per-BS cap)."""
    gain = ctx.corr.gain
    M, K = gain.shape
    per_ue = per_ue or ctx.scenario.L
    S = np.zeros((M, K), dtype=bool)
    for k in range(K):
        S[np.argsort(-gain[:, k])[:per_ue], k] = True
    return S


@pytest.fixture
def small_ctx():
    return make_context(M=3, K=2, N=4, L=2, area=300.0, seed=7)


@pytest.fixture
def bs_config():
    return default_bs_config()


@pytest.fixture
def system_params():
    return SystemPowerParams()
