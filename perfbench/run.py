"""greenran benchmark: closed-loop network drops through the public harness API.

    python3 perfbench/run.py --workload swap-fullsolver --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One process runs one workload: drop after drop, each through
`harness.load_config` + `harness.run` with `drops=1, base_seed=base ^ d`, which
reproduces the harness's own seeding for drop `d` of a run seeded `base`
(`base` is derived from `--seed` and the workload name). Every output record
is checked. `--workload all` runs each workload in its own child process, so
peak memory and set-up time stay per workload.

`--trace 0` reports the end-to-end metrics. `--trace 1` first runs drops
untraced, then the same drops again with every layer wrapped by
`tracer.Tracer`, checks that both passes emit byte-identical CSV and that
every solver span nests under an evaluation span, and reports the per-layer
metrics. Informational lines come first; the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

BLAS is pinned to one thread. The benchmark reads `src/` and writes only under
`perfbench/out/` of the checkout it lives in.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Every workload is a config overlay on the bundled defaults. Drop sizes are
# chosen so that one run holds enough drops for its medians to be steady
# across seeds; see README.md for why each workload exists.
WORKLOADS = {
    # the full slmdb solver inside the swap loop: ~98% of wall in slmdb_solve
    "swap-fullsolver": {
        "scenario": {"M": 4, "K": 2, "N": 2, "L": 2, "area_side": 400.0},
        "algorithm": ["trimsm-slmdb"],
    },
    # swap scan with the QoPC LP and EIPC in the loop; slmdb only refines
    "swap-heuristic": {
        "scenario": {"M": 22, "K": 4},
        "algorithm": ["trimsm-eipc", "trimsm-qopc"],
    },
    # fixed association rules on a large array: netmodel + statistics dominate
    "drops-massive-mimo": {
        "scenario": {"M": 128, "K": 10, "N": 64, "L": 3},
        "algorithm": ["recp", "llsf", "tsap"],
    },
    # tiny scenario touching every controller, for the smoke test and warm-up
    "smoke": {
        "scenario": {"M": 3, "K": 2, "N": 2, "L": 2, "area_side": 400.0},
        "algorithm": ["trimsm-slmdb", "trimsm-qopc", "trimsm-eipc", "trimsm-fipc",
                      "llsf"],
    },
}
MEASURED = ("swap-fullsolver", "swap-heuristic", "drops-massive-mimo")

SETUP_REPEATS = 5
SETUP_CODE = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
              "from greenran import harness; harness.load_config(json.loads(sys.argv[2]))")
# share of --seconds spent on the untraced pass of a traced run; the traced
# pass repeats the same drops
UNTRACED_SHARE = 0.4
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
POWER_PARTS = ("ubs_active_power_w", "ubs_sleep_power_w", "fronthaul_power_w",
               "edge_cloud_power_w", "ue_power_w")


def base_seed(workload: str, seed: int) -> int:
    """Scenario seed base for a run; drop d uses base ^ d (d < 2**16).

    Hashing keeps the drop sets of nearby --seed values disjoint, which
    `seed ^ d` alone would not.
    """
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFF0000


def check_record(rec, scenario) -> list:
    """Problems with one output record; empty when it passes."""
    problems = []
    numeric = {k: v for k, v in vars(rec).items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)}
    bad = [k for k, v in numeric.items() if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite {bad}")
    parts = sum(getattr(rec, p) for p in POWER_PARTS)
    if not math.isclose(parts, rec.total_power_w, rel_tol=1e-9):
        problems.append(f"power parts sum {parts!r} != total {rec.total_power_w!r}")
    if rec.total_power_w <= 0 or not math.isclose(
            rec.ee_bits_per_joule, rec.sum_rate_bps / rec.total_power_w, rel_tol=1e-12):
        problems.append("ee_bits_per_joule != sum_rate_bps / total_power_w")
    if rec.feasible and rec.qos_violation_count != 0:
        problems.append("feasible record with QoS violations")
    if not 0 <= rec.active_ubs_count <= scenario.M:
        problems.append(f"active_ubs_count {rec.active_ubs_count} outside [0, M]")
    if rec.ue_count != scenario.K:
        problems.append(f"ue_count {rec.ue_count} != K")
    return problems


@dataclass
class Pass:
    """Results of running a sequence of drops."""
    records: list = field(default_factory=list)
    drop_s: list = field(default_factory=list)
    attempted: int = 0      # solves, one per (drop, algorithm)
    failed: int = 0
    wall_s: float = 0.0


def run_drops(harness, workload: str, seed: int, deadline: float | None = None,
              drops: int | None = None, tracer=None) -> Pass:
    """Closed loop: the next drop starts when the previous one is checked.

    Runs exactly `drops` drops, or else until the next drop would likely end
    past `deadline` (always at least one).
    """
    cfg = WORKLOADS[workload]
    n_alg = len(cfg["algorithm"])
    base = base_seed(workload, seed)
    result = Pass()
    t_start = time.perf_counter()
    d = 0
    while True:
        if drops is not None:
            if d >= drops:
                break
        elif d and time.perf_counter() + statistics.median(result.drop_s) > deadline:
            break
        config = harness.load_config(dict(cfg, drops=1, base_seed=base ^ d))
        if tracer is not None:
            tracer.drop = d
        result.attempted += n_alg
        t0 = time.perf_counter()
        try:
            records = harness.run(config)
        except Exception:
            traceback.print_exc()
            records = None
        result.drop_s.append(time.perf_counter() - t0)
        if records is None:
            result.failed += n_alg
        else:
            for rec in records:
                problems = check_record(rec, config.scenario)
                if problems:
                    print(f"drop {d} {rec.algorithm}: {'; '.join(problems)}",
                          file=sys.stderr)
                    result.failed += 1
                result.records.append(replace(rec, drop_index=d))
        d += 1
    result.wall_s = time.perf_counter() - t_start
    return result


def tail(samples: list) -> tuple:
    """(percentile, value): the highest ladder percentile with >= 10 samples
    beyond it (nearest rank), or None when there are fewer than 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def measure_setup(workload: str) -> float:
    """Median wall time of a fresh interpreter importing greenran and loading
    the workload's config."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC),
           json.dumps(WORKLOADS[workload])]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy
    loc = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "src_loc": loc,
    }


def emit_csv(harness, records, path) -> str:
    text = harness.emit(records, "csv")
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def end_to_end(harness, args) -> tuple:
    t_start = time.perf_counter()
    setup_s = measure_setup(args.workload)
    run_drops(harness, "smoke", 0, drops=1)     # warm lazy imports and solver caches
    p = run_drops(harness, args.workload, args.seed,
                  deadline=t_start + args.seconds, drops=args.drops)
    sha = emit_csv(harness, p.records, OUT / f"{args.workload}-seed{args.seed}.csv")
    feasible = [r.ee_bits_per_joule for r in p.records if r.feasible]
    metrics = {
        "setup_s": (setup_s, "s"),
        "drops_per_s": (len(p.drop_s) / p.wall_s, "1/s"),
        "ee_mean_bpj": (statistics.fmean(feasible) if feasible else math.nan, "bit/J"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    q = tail(p.drop_s)
    info = {
        "drops": len(p.drop_s),
        "drop_s_p50": f"{statistics.median(p.drop_s)!r} s",
        "drop_s_tail": (f"p{q[0]:g} = {q[1]!r} s" if q else "n/a")
                       + f" over {len(p.drop_s)} drops",
        "infeasible_frac": (len(p.records) - len(feasible)) / len(p.records)
                           if p.records else math.nan,
        "error_frac": p.failed / p.attempted,
        "csv_sha256": sha,
    }
    return metrics, info, p.attempted, p.failed, p.failed == 0


DOMINANCE = {
    "swap-fullsolver": ("powerctl.slmdb_share >= 0.90",
                        lambda m: m["powerctl.slmdb_share"] >= 0.90),
    "swap-heuristic": ("powerctl.qopc_share + matching.self_share >= 0.5 "
                       "and powerctl.slmdb_share < 0.05",
                       lambda m: m["powerctl.qopc_share"] + m["matching.self_share"] >= 0.5
                       and m["powerctl.slmdb_share"] < 0.05),
    "drops-massive-mimo": ("netmodel.self_share + statistics.self_share >= 0.5",
                           lambda m: m["netmodel.self_share"]
                           + m["statistics.self_share"] >= 0.5),
}


def per_layer(harness, matching, stats_module, args) -> tuple:
    from tracer import Tracer, layer_metrics    # perfbench/ is sys.path[0]

    t_start = time.perf_counter()
    run_drops(harness, "smoke", 0, drops=1)
    plain = run_drops(harness, args.workload, args.seed,
                      deadline=t_start + UNTRACED_SHARE * args.seconds, drops=args.drops)
    plain_sha = emit_csv(harness, plain.records,
                         OUT / f"{args.workload}-seed{args.seed}.csv")
    tracer = Tracer()
    tracer.install(harness, matching, stats_module)
    try:
        traced = run_drops(harness, args.workload, args.seed,
                           drops=len(plain.drop_s), tracer=tracer)
        tracer.drop = -1
        traced_sha = emit_csv(harness, traced.records,
                              OUT / f"{args.workload}-seed{args.seed}-traced.csv")
    finally:
        tracer.restore()
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.csv")

    n = len(traced.drop_s)
    metrics = layer_metrics(tracer, n)
    overhead = statistics.median(traced.drop_s) - statistics.median(plain.drop_s)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / statistics.median(plain.drop_s), "frac")
    metrics["trace.drops"] = (n, "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    misnested = tracer.misnested()
    identical = plain_sha == traced_sha
    info = {
        "drops": n,
        "csv_sha256": plain_sha,
        "traced_csv_identical": identical,
        "misnested_solver_spans": misnested,
    }
    if args.workload in DOMINANCE:
        rule, holds = DOMINANCE[args.workload]
        values = {k: v for k, (v, _) in metrics.items()}
        info["dominant_layer"] = f"{'PASS' if holds(values) else 'FAIL'}: {rule}"
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return metrics, info, attempted, failed, failed == 0 and identical and not misnested


def run_all(args) -> int:
    """Each measured workload in its own child process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in MEASURED:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.drops is not None:
            cmd += ["--drops", str(args.drops)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              stdin=subprocess.DEVNULL)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def import_greenran():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "greenran" / "__init__.py").is_file():
        raise SystemExit(f"greenran sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import greenran
    if Path(greenran.__file__).resolve().parent != (SRC / "greenran").resolve():
        raise SystemExit(f"imported greenran from {greenran.__file__}, not {SRC}")
    from greenran import harness, matching
    from greenran import statistics as stats_module
    return harness, matching, stats_module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--drops", type=int, default=None,
                        help="run exactly this many drops instead of filling --seconds")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.drops is not None and args.drops < 1):
        parser.error("--seconds must be positive and --drops at least 1")
    for var in BLAS_VARS:      # before the first numpy import
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)

    harness, matching, stats_module = import_greenran()
    OUT.mkdir(exist_ok=True)
    print("provenance " + json.dumps(provenance()))
    if args.trace:
        metrics, info, attempted, failed, correct = per_layer(
            harness, matching, stats_module, args)
    else:
        metrics, info, attempted, failed, correct = end_to_end(harness, args)
    print(f"workload {args.workload} seed {args.seed} "
          f"base_seed {base_seed(args.workload, args.seed)}")
    for name, value in info.items():
        print(f"info {name} {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
