"""Experiment runner: config ingestion, seeded drops, dispatch, persistence.

A run config is a JSON document whose sections mirror the parameter
dataclasses field-for-field (dB fields suffixed _db, watts _w). Each drop d
derives its scenario seed as base_seed XOR d, generates a topology, builds the
coefficient tensor once, and hands the identical tensor to every requested
algorithm, so cross-algorithm comparisons are paired. Each algorithm starts
from an empty evaluation cache, so its counts do not depend on which ran
before it. Each drop builds one power form, which its algorithms share. Each
record is written from the algorithm's `SolutionReport` alone: its final
`PowerSolution` carries the power form, the active-BS count and the QoS
violation count.
Records are emitted in a fixed column order; identical configs produce
byte-identical files (wall-clock timing is recorded only when `record_timing`
is set, and is zero otherwise).
"""

import csv
import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .defaults import table3_defaults
from .matching import (EvaluationContext, SolutionReport, check_exhaustive_size, evaluate,
                       exhaustive_search, llsf_assoc, nos_assoc, recp_init, trimsm,
                       tsap_assoc)
from .netmodel import (ConfigError, FrameConfig, ScenarioParams, build_correlation,
                       generate_topology)
from .powerctl import SolverSettings, make_qos
from .powermodel import (BsPowerConfig, SubComponentSpec, SystemPowerParams,
                         build_affine_form, network_power)

ALGORITHMS = ("trimsm-slmdb", "trimsm-fipc", "trimsm-qopc", "trimsm-eipc",
              "recp", "llsf", "tsap", "nos", "exhaustive")

SWEEPABLE = ("M", "K", "N", "L", "area_side", "r_min_bps")

AGGREGATE_FIELDS = (
    "sweep_parameter", "sweep_value", "algorithm", "drops", "feasible_drops",
    "infeasible_drops", "ee_mean", "ee_median", "active_ubs_mean",
    "qos_violation_pct", "swap_count_mean", "ee_cdf",
)


@dataclass(frozen=True)
class ResultRecord:
    sweep_parameter: str
    sweep_value: float
    drop_index: int
    drop_seed: int
    algorithm: str
    feasible: bool
    ee_bits_per_joule: float
    sum_rate_bps: float
    total_power_w: float
    ubs_active_power_w: float
    ubs_sleep_power_w: float
    fronthaul_power_w: float
    edge_cloud_power_w: float
    ue_power_w: float
    active_ubs_count: int
    ue_count: int
    qos_violation_count: int
    swap_count: int
    slm_iterations: int
    wall_time_ms: float


RECORD_FIELDS = tuple(f.name for f in fields(ResultRecord))


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioParams
    frame: FrameConfig
    bs_config: BsPowerConfig
    system: SystemPowerParams
    r_min_bps: float
    p_max_w: float
    settings: SolverSettings
    algorithms: tuple
    drops: int
    base_seed: int
    record_timing: bool = False
    sweep_parameter: str | None = None
    sweep_values: tuple = ()


def _merge(base: dict, overrides: dict, path: str = "") -> dict:
    if not isinstance(overrides, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    out = dict(base)
    for key, val in overrides.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            hint = "; drop d takes the seed base_seed XOR d" if where == "scenario.seed" else ""
            raise ConfigError(f"unknown config key {where!r}{hint}")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = val
    return out


def _number(value, where: str, kind=float):
    """`value` if it is a finite JSON number (an integer for kind int), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, kind if kind is int else (int, float)) \
            or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite {kind.__name__}, not {value!r}")
    return value


@contextmanager
def _section(name: str, keys=()):
    """Prefix a ConfigError raised inside with its config path: `name.` when
    the message starts with one of `keys`, else `name: `."""
    try:
        yield
    except ConfigError as exc:
        msg = str(exc)
        sep = "." if msg.split(" ", 1)[0] in keys else ": "
        raise ConfigError(f"{name}{sep}{msg}") from None


def _build_dataclass(cls, section, name: str):
    """`cls(**section)` once its keys, required fields and numbers check out."""
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    allowed = {f.name for f in fields(cls)}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    for f in fields(cls):
        where = f"{name}.{f.name}"
        if f.name not in section:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where} is missing")
        elif f.type in (int, float):
            _number(section[f.name], where, f.type)
        elif f.type is dict:
            if not isinstance(section[f.name], dict):
                raise ConfigError(f"{where} must be an object")
            for key, value in section[f.name].items():
                _number(value, f"{where}.{key}")
    with _section(name, allowed):
        return cls(**section)


def load_config(source) -> RunConfig:
    """Parse a config dict or JSON file path, filling gaps from the defaults."""
    if isinstance(source, (str, bytes)):
        with open(source, encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = source
    merged = _merge(dict(table3_defaults(), sweep=None), raw)    # rejects a non-object
    sweep_section = merged.pop("sweep")

    scenario = _build_dataclass(ScenarioParams, merged["scenario"], "scenario")
    frame = _build_dataclass(FrameConfig, merged["frame"], "frame")
    bs_raw = dict(merged["power"]["bs"])
    for key in ("rf_components", "bbu_components"):
        where = f"power.bs.{key}"
        if not isinstance(bs_raw[key], list):
            raise ConfigError(f"{where} must be a list")
        bs_raw[key] = tuple(_build_dataclass(SubComponentSpec, c, f"{where}[{i}]")
                            for i, c in enumerate(bs_raw[key]))
    bs_config = _build_dataclass(BsPowerConfig, bs_raw, "power.bs")
    system = _build_dataclass(SystemPowerParams, merged["power"]["system"], "power.system")
    settings = _build_dataclass(SolverSettings, merged["solver"], "solver")

    algorithms = merged["algorithm"]
    if isinstance(algorithms, str):
        algorithms = [algorithms]
    _check_algorithms(algorithms)

    r_min_bps = float(_number(merged["qos"]["r_min_bps"], "qos.r_min_bps"))
    p_max_w = float(_number(merged["qos"]["p_max_w"], "qos.p_max_w"))
    timing = merged["record_timing"]
    if not isinstance(timing, bool):
        raise ConfigError(f"record_timing must be true or false, not {timing!r}")
    drops = _number(merged["drops"], "drops", int)
    if drops < 1:
        raise ConfigError("drops must be >= 1")
    base_seed = _number(merged["base_seed"], "base_seed", int)
    if not 0 <= base_seed < 2**64:    # drop seeds base_seed ^ d must stay seeds
        raise ConfigError("base_seed must lie in [0, 2**64)")

    sweep_parameter = None
    sweep_values = ()
    if sweep_section:
        if not isinstance(sweep_section, dict):
            raise ConfigError("sweep must be an object")
        sweep_parameter = sweep_section.get("parameter")
        if sweep_parameter not in SWEEPABLE:
            raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}")
        sweep_values = sweep_section.get("values")
        if not isinstance(sweep_values, list) or not sweep_values:
            raise ConfigError("sweep.values must be a nonempty list")
        kind = float if sweep_parameter in ("area_side", "r_min_bps") else int
        sweep_values = tuple(_number(v, f"sweep.values[{i}]", kind)
                             for i, v in enumerate(sweep_values))

    config = RunConfig(
        scenario=scenario, frame=frame, bs_config=bs_config, system=system,
        r_min_bps=r_min_bps, p_max_w=p_max_w,
        settings=settings, algorithms=tuple(algorithms), drops=drops,
        base_seed=base_seed,
        record_timing=timing,
        sweep_parameter=sweep_parameter, sweep_values=sweep_values)
    _check_point(config)
    for i, value in enumerate(sweep_values):
        with _section(f"sweep.values[{i}]"):
            _check_point(_apply_sweep(config, value))
    return config


def _apply_sweep(config: RunConfig, value) -> RunConfig:
    param = config.sweep_parameter
    if param == "r_min_bps":
        return replace(config, r_min_bps=float(value))
    scen = config.scenario
    kwargs = {param: type(getattr(scen, param))(value)}
    if param == "M" and scen.L > value:
        kwargs["L"] = int(value)
    return replace(config, scenario=replace(scen, **kwargs))


def _check_algorithms(algorithms) -> None:
    if not algorithms or not isinstance(algorithms, (list, tuple)):
        raise ConfigError("algorithm must name at least one selector")
    for i, alg in enumerate(algorithms):
        if alg not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")
        if alg in algorithms[:i]:    # its records would count every drop twice
            raise ConfigError(f"algorithm {alg!r} is listed more than once")


def _check_point(point: RunConfig) -> None:
    """What a run of one parameter point rejects before its first drop: the
    pilots, the exhaustive search guard, the QoS targets and the power tables."""
    scen, frame = point.scenario, point.frame
    if scen.K > frame.tau_p:
        raise ConfigError(
            f"K={scen.K} exceeds tau_p={frame.tau_p}; orthogonal pilots need K <= tau_p")
    if "exhaustive" in point.algorithms:
        check_exhaustive_size(scen)
    with _section("qos", ("r_min_bps", "p_max_w")):
        make_qos(point.r_min_bps, scen.K, frame, point.p_max_w)    # QosSpec checks the values
    with _section("power"):    # the checks of the tables that a drop's power form makes
        build_affine_form(point.bs_config, point.system, scen.M, scen.K)


def _make_context(config: RunConfig, drop_seed: int) -> EvaluationContext:
    scen = replace(config.scenario, seed=drop_seed)
    topo = generate_topology(scen)
    corr = build_correlation(topo, config.frame)
    from .statistics import mmse_statistics
    tensor = mmse_statistics(corr, config.frame)
    qos = make_qos(config.r_min_bps, scen.K, config.frame, config.p_max_w)
    form = build_affine_form(config.bs_config, config.system, scen.M, scen.K)
    return EvaluationContext(scenario=scen, frame=config.frame, corr=corr, tensor=tensor,
                             form=form, qos=qos, settings=config.settings)


def _dispatch(algorithm: str, ctx: EvaluationContext) -> SolutionReport:
    if algorithm.startswith("trimsm-"):
        return trimsm(ctx, algorithm.split("-", 1)[1])
    if algorithm == "nos":
        return nos_assoc(ctx)
    if algorithm == "exhaustive":
        return exhaustive_search(ctx)
    if algorithm == "recp":
        S = recp_init(ctx.corr, ctx.scenario, ctx.settings.recp_delta_percent)
    elif algorithm == "llsf":
        S = llsf_assoc(ctx.corr, ctx.scenario)
    elif algorithm == "tsap":
        S = tsap_assoc(ctx.corr, ctx.scenario)
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    ev = evaluate(S, "slmdb", ctx)
    return SolutionReport(S=S, power=ev, swap_count=0, evaluation_count=1,
                          stable=False, infeasible=not ev.qos_ok)


def _record(config: RunConfig, report: SolutionReport, algorithm: str, drop_index: int,
            drop_seed: int, sweep_value: float, wall_ms: float) -> ResultRecord:
    """One record, written from the report's final scored matching alone."""
    power = report.power
    breakdown = network_power(power.p, power.rates, power.form, power.n_active)
    sum_rate = float(np.sum(power.rates))
    return ResultRecord(
        sweep_parameter=config.sweep_parameter or "",
        sweep_value=float(sweep_value) if config.sweep_parameter else 0.0,
        drop_index=drop_index, drop_seed=drop_seed, algorithm=algorithm,
        feasible=not report.infeasible,
        ee_bits_per_joule=sum_rate / breakdown.total_w,
        sum_rate_bps=sum_rate, total_power_w=breakdown.total_w,
        ubs_active_power_w=breakdown.ubs_active_w,
        ubs_sleep_power_w=breakdown.ubs_sleep_w,
        fronthaul_power_w=breakdown.fronthaul_w,
        edge_cloud_power_w=breakdown.edge_cloud_w, ue_power_w=breakdown.ue_w,
        active_ubs_count=power.n_active, ue_count=config.scenario.K,
        qos_violation_count=power.qos_violations,
        swap_count=report.swap_count,
        slm_iterations=power.diagnostics.slm_iterations,
        wall_time_ms=wall_ms if config.record_timing else 0.0)


def run(config: RunConfig, sweep_value: float = 0.0) -> list:
    """Execute all drops and algorithms for one parameter point."""
    _check_point(config)
    records = []
    for d in range(config.drops):
        drop_seed = config.base_seed ^ d
        ctx = _make_context(config, drop_seed)
        for algorithm in config.algorithms:
            t0 = time.perf_counter()
            report = _dispatch(algorithm, replace(ctx))    # a cache of its own
            wall_ms = (time.perf_counter() - t0) * 1e3
            records.append(_record(config, report, algorithm, d, drop_seed, sweep_value,
                                   wall_ms))
    return records


def sweep(config: RunConfig) -> tuple[list, list]:
    """Run every sweep point; returns (records, aggregate rows)."""
    if not config.sweep_parameter:
        raise ConfigError("config has no sweep section")
    records = []
    for value in config.sweep_values:
        point = _apply_sweep(config, value)
        records.extend(run(point, sweep_value=value))
    return records, aggregate(records)


def aggregate(records: list) -> list:
    """Per (sweep value, algorithm): EE statistics over feasible drops, the
    sorted EE list (CDF support), activity and violation summaries."""
    groups = {}    # in first-seen order
    for r in records:
        groups.setdefault((r.sweep_value, r.algorithm), []).append(r)
    rows = []
    for (value, algorithm), group in groups.items():
        feasible = [r for r in group if r.feasible]
        ees = sorted(r.ee_bits_per_joule for r in feasible)
        total_ues = sum(r.ue_count for r in group)
        violations = sum(r.qos_violation_count for r in group)
        rows.append({
            "sweep_parameter": group[0].sweep_parameter,
            "sweep_value": value,
            "algorithm": algorithm,
            "drops": len(group),
            "feasible_drops": len(feasible),
            "infeasible_drops": len(group) - len(feasible),
            "ee_mean": float(np.mean(ees)) if ees else float("nan"),
            "ee_median": float(np.median(ees)) if ees else float("nan"),
            "active_ubs_mean": float(np.mean([r.active_ubs_count for r in group])),
            "qos_violation_pct": 100.0 * violations / total_ues if total_ues else 0.0,
            "swap_count_mean": float(np.mean([r.swap_count for r in group])),
            "ee_cdf": ";".join(repr(e) for e in ees),
        })
    return rows


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(records: list, fmt: str, path=None) -> str:
    """Serialize run records (csv or json); returns the text, optionally saved."""
    # one row at a time: a list of row dicts would double a long run's peak memory
    rows = ({name: getattr(r, name) for name in RECORD_FIELDS} for r in records)
    return _emit_rows(rows, RECORD_FIELDS, fmt, path)


def emit_aggregates(rows: list, fmt: str, path=None) -> str:
    return _emit_rows(rows, AGGREGATE_FIELDS, fmt, path)


def _emit_rows(rows, header, fmt: str, path) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(row[name]) for name in header])
        text = buf.getvalue()
    elif fmt == "json":
        # JSON (RFC 8259) has no NaN or infinity: a non-finite float is null
        rows = [{name: None if isinstance(v, float) and not math.isfinite(v) else v
                 for name, v in row.items()} for row in rows]
        text = json.dumps(rows, indent=2, allow_nan=False) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text

