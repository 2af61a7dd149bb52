"""Command-line front end: run, sweep, oracle-check, validate-config."""

import argparse
import json
import sys

from . import harness
from .matching import exhaustive_search, trimsm
from .netmodel import ConfigError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="greenran",
        description="Uplink RAN energy-efficiency simulator and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run all drops for one parameter point")
    _common_args(p_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and aggregate")
    _common_args(p_sweep)
    p_sweep.add_argument("--aggregates-out", help="optional aggregate table path")

    p_val = sub.add_parser("validate-config", help="check a config against the schema")
    p_val.add_argument("--config", required=True)

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
    if not isinstance(raw, dict):    # a str would be taken for a path
        raise ConfigError("config must be an object")
    overrides = {"drops": args.drops, "base_seed": args.seed}
    if args.algorithm is not None:
        overrides["algorithm"] = [a.strip() for a in args.algorithm.split(",") if a.strip()]
    raw = dict(raw, **{key: v for key, v in overrides.items() if v is not None})
    return harness.load_config(raw)


def _run_command(args) -> int:
    if args.command == "validate-config":
        harness.load_config(args.config)
        print("config ok")
        return 0

    if args.command == "oracle-check":
        return _oracle_check(args)

    config = _load(args)
    if args.command == "run":
        records = harness.run(config)
        text = harness.emit(records, args.format, args.out)
        if args.out is None:
            print(text, end="")
        return 0

    if args.command == "sweep":
        records, aggregates = harness.sweep(config)
        text = harness.emit(records, args.format, args.out)
        if args.out is None:
            print(text, end="")
        agg_text = harness.emit_aggregates(aggregates, args.format,
                                           getattr(args, "aggregates_out", None))
        if getattr(args, "aggregates_out", None) is None:
            print(agg_text, end="")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def _oracle_check(args) -> int:
    """Tiny-instance comparison: the swap matcher must stay within the oracle."""
    config = _load(args, {"scenario": {"M": 3, "K": 2, "N": 2, "L": 2, "area_side": 300.0},
                          "qos": {"r_min_bps": 10e6}})
    if args.instances < 1:
        raise ConfigError("instances must be >= 1")
    worst = 1.0
    failures = 0
    for i in range(args.instances):
        ctx = harness._make_context(config, config.base_seed ^ i)
        oracle = exhaustive_search(ctx)
        matcher = trimsm(ctx, "slmdb")
        if oracle.infeasible and matcher.infeasible:
            print(f"instance {i}: infeasible (both)")
            continue
        ratio = matcher.ee / oracle.ee if oracle.ee > 0 else float("nan")
        worst = min(worst, ratio)
        ok = oracle.ee >= matcher.ee * (1 - 1e-9)
        failures += 0 if ok else 1
        print(f"instance {i}: matcher={matcher.ee:.1f} oracle={oracle.ee:.1f} "
              f"ratio={ratio:.4f} {'ok' if ok else 'ORACLE BELOW MATCHER'}")
    print(f"worst ratio: {worst:.4f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
