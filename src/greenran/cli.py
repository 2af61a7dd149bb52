"""Command-line front end: run, sweep, oracle-check, validate-config.

Every command reads its config through `_load`. `run`, `sweep` and
`oracle-check` are each one `harness.run` and a fold over its records.
"""

import argparse
import json
import sys
from dataclasses import replace

from . import harness
from .netmodel import ConfigError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="greenran",
        description="Uplink RAN energy-efficiency simulator and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run all drops of every parameter point")
    _common_args(p_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and aggregate")
    _common_args(p_sweep)
    p_sweep.add_argument("--aggregates-out", help="optional aggregate table path")

    p_val = sub.add_parser("validate-config", help="check a config against the schema")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(drops=None, algorithm=None, seed=None)

    p_oracle = sub.add_parser("oracle-check",
                              help="compare the swap matcher against exhaustive search "
                                   "on tiny instances")
    p_oracle.add_argument("--config")
    p_oracle.add_argument("--instances", type=int, default=3)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(drops=None, algorithm=None)

    args = parser.parse_args(argv)
    try:
        return _run_command(args)
    except (ConfigError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _common_args(p):
    p.add_argument("--config", help="JSON config path (defaults fill the gaps)")
    p.add_argument("--algorithm", help="comma-separated selectors overriding the config")
    p.add_argument("--drops", type=int)
    p.add_argument("--seed", type=int, help="base seed override")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _load(args, raw=None) -> harness.RunConfig:
    """The config file, else `raw` or the defaults, with the command-line
    overrides merged in before `load_config` checks it."""
    raw = {} if raw is None else raw
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    if not isinstance(raw, dict):    # dict() below would take [] for {}
        raise ConfigError("config must be an object")
    overrides = {"drops": args.drops, "base_seed": args.seed}
    if args.algorithm is not None:
        overrides["algorithm"] = [a.strip() for a in args.algorithm.split(",") if a.strip()]
    raw = dict(raw, **{key: v for key, v in overrides.items() if v is not None})
    return harness.load_config(raw)


def _run_command(args) -> int:
    if args.command == "oracle-check":
        return _oracle_check(args)
    config = _load(args)
    if args.command == "validate-config":
        print("config ok")
        return 0
    if args.command == "run":
        outputs = [(harness.emit, harness.run(config), args.out)]
    else:
        records, aggregates = harness.sweep(config)
        outputs = [(harness.emit, records, args.out),
                   (harness.emit_aggregates, aggregates, args.aggregates_out)]
    for emit, rows, path in outputs:
        text = emit(rows, args.format, path)
        if path is None:
            print(text, end="")
    return 0


def _oracle_check(args) -> int:
    """Tiny-instance comparison: the swap matcher must stay within the oracle."""
    config = _load(args, {"scenario": {"M": 3, "K": 2, "N": 2, "L": 2, "area_side": 300.0},
                          "qos": {"r_min_bps": 10e6}})
    if args.instances < 1:
        raise ConfigError("instances must be >= 1")
    records = harness.run(replace(config, algorithms=("exhaustive", "trimsm-slmdb"),
                                  drops=args.instances, sweep_parameter=None,
                                  sweep_values=()))
    worst = 1.0
    failures = 0
    for i, (oracle, matcher) in enumerate(zip(records[::2], records[1::2])):
        if not oracle.feasible and not matcher.feasible:
            print(f"instance {i}: infeasible (both)")
            continue
        oracle_ee, matcher_ee = oracle.ee_bits_per_joule, matcher.ee_bits_per_joule
        ratio = matcher_ee / oracle_ee if oracle_ee > 0 else float("nan")
        worst = min(worst, ratio)
        ok = oracle_ee >= matcher_ee * (1 - 1e-9)
        failures += 0 if ok else 1
        print(f"instance {i}: matcher={matcher_ee:.1f} oracle={oracle_ee:.1f} "
              f"ratio={ratio:.4f} {'ok' if ok else 'ORACLE BELOW MATCHER'}")
    print(f"worst ratio: {worst:.4f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
