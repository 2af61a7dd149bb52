"""In-process interleaved A/B timer of two greenran source trees.

    python3 tools/interleave.py --a ../parent --b . --workload swap-heuristic \
        --seed 5 --seed 9 --drops 40 --passes 3

Each side's `src/greenran` is copied into a temporary directory under a
package name of its own (`greenran_a`, `greenran_b`), so both trees load in one
interpreter. The drops are the benchmark's own: drop d of `--seed s` is
`perfbench/run.py`'s config overlay of the workload with `drops=1` and
`base_seed = base_seed(workload, s) ^ d`. Each pass runs every drop once on
each side, in an order that alternates from drop to drop and from pass to
pass, and times it with `time.process_time`, so both trees see the same host
state. A drop's time is its minimum over the passes; the tool prints each
side's mean of those minima per drop, on how many drops B's minimum is the
smaller, the median of the per-drop ratios A / B, the ratio of the means
A / B, and whether the two trees emit byte-identical CSV for the same drops.

`perfbench/run.py` is imported read-only for `WORKLOADS` and `base_seed`; no
bytecode or output is written under `perfbench/`. BLAS is pinned to one
thread, as in the benchmark.
"""

import argparse
import hashlib
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_perfbench():
    """`perfbench/run.py` of this checkout as a module, without writing bytecode."""
    spec = importlib.util.spec_from_file_location("_perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def load_tree(root: Path, name: str, into: Path):
    """The `harness` module of the tree at `root`, imported as package `name`."""
    src = root / "src" / "greenran"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"no greenran sources under {root}")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.harness")


def drop_configs(bench, workload: str, seeds, drops: int) -> list:
    """(drop, config overlay) of the first `drops` drops of each seed, in
    benchmark order."""
    cfg = bench.WORKLOADS[workload]
    return [(d, dict(cfg, drops=1, base_seed=bench.base_seed(workload, seed) ^ d))
            for seed in seeds for d in range(drops)]


def run_drop(harness, overlay: dict):
    """(process seconds, records) of one drop."""
    config = harness.load_config(overlay)
    t0 = time.process_time()
    records = harness.run(config)
    return time.process_time() - t0, records


def interleave(sides: dict, drops: list, passes: int) -> dict:
    """Per side: the minimum process time of each drop over `passes`, and the
    CSV of one pass's records with `drop_index` numbered as the benchmark does."""
    best = {name: [float("inf")] * len(drops) for name in sides}
    csv = {}
    for p in range(passes):
        records = {name: [] for name in sides}
        for i, (d, overlay) in enumerate(drops):
            order = list(sides) if (i + p) % 2 else list(sides)[::-1]
            for name in order:
                seconds, recs = run_drop(sides[name], overlay)
                best[name][i] = min(best[name][i], seconds)
                records[name].extend(replace(r, drop_index=d) for r in recs)
        if p == 0:
            csv = {name: sides[name].emit(records[name], "csv") for name in sides}
    return {name: (best[name], csv[name]) for name in sides}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="checkout of side A")
    parser.add_argument("--b", type=Path, required=True, help="checkout of side B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="perfbench --seed; repeat for several")
    parser.add_argument("--drops", type=int, default=40, help="drops per seed")
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    if args.drops < 1 or args.passes < 1:
        parser.error("--drops and --passes must be at least 1")
    for var in BLAS_VARS:    # before the first numpy import
        os.environ[var] = "1"

    bench = load_perfbench()
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(bench.WORKLOADS)}")
    drops = drop_configs(bench, args.workload, args.seed, args.drops)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {"A": load_tree(args.a.resolve(), "greenran_a", Path(tmp)),
                 "B": load_tree(args.b.resolve(), "greenran_b", Path(tmp))}
        # one untimed pass over the first drop warms imports and caches
        for harness in sides.values():
            run_drop(harness, drops[0][1])
        results = interleave(sides, drops, args.passes)

    means = {}
    for name, root in (("A", args.a), ("B", args.b)):
        times, text = results[name]
        means[name] = sum(times) / len(times)
        print(f"{name} {root}: {1e3 * means[name]:.3f} ms per drop (min of {args.passes} "
              f"passes, {len(times)} drops), csv sha256 "
              f"{hashlib.sha256(text.encode()).hexdigest()[:16]}")
    ratios = [a / b for a, b in zip(results["A"][0], results["B"][0])]
    print(f"B faster on {sum(r > 1 for r in ratios)} of {len(ratios)} drops")
    print(f"median per-drop A/B {statistics.median(ratios):.4f}")
    print(f"speedup A/B {means['A'] / means['B']:.4f}")
    print(f"csv identical {results['A'][1] == results['B'][1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
