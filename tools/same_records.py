"""Byte-identity check of the records of two greenran source trees.

    python3 tools/same_records.py --a ../parent --b .

Each tree's `greenran.cli` runs in a subprocess, with `PYTHONPATH=<tree>/src`,
no bytecode written and BLAS pinned to one thread, on B's configs: `run` on
`configs/{desk,modes,sparse,scan}.json`, and `sweep` with its aggregates on
`configs/sweep.json`. Outputs go to a temporary directory only. For each
output file the tool prints `<file> identical` or `<file> differs at line <n>`
(the first differing line, counted from 1), or `<file> failed on <side>: ...`
with the last line of a failed run's error output; it exits 1 on any
difference or failed run.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = ("desk", "modes", "sparse", "scan")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def commands(configs: Path) -> list:
    """(output files, cli arguments) of each command; the outputs are named
    relative to the command's working directory."""
    out = [((f"{name}.csv",), ["run", "--config", str(configs / f"{name}.json"),
                               "--out", f"{name}.csv"]) for name in RUNS]
    out.append((("sweep.csv", "sweep_aggregates.csv"),
                ["sweep", "--config", str(configs / "sweep.json"), "--out", "sweep.csv",
                 "--aggregates-out", "sweep_aggregates.csv"]))
    return out


def run_tree(tree: Path, args: list, into: Path) -> str | None:
    """Run the tree's cli in the directory `into`; the error text if it fails."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               **{var: "1" for var in BLAS_VARS})
    proc = subprocess.run([sys.executable, "-m", "greenran.cli", *args],
                          capture_output=True, text=True, env=env, cwd=into)
    if proc.returncode:
        return (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    return None


def first_difference(a: Path, b: Path) -> int | None:
    """The first line (from 1) at which the files differ, None if identical."""
    la, lb = a.read_bytes().splitlines(True), b.read_bytes().splitlines(True)
    for n, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            return n
    return None if len(la) == len(lb) else min(len(la), len(lb)) + 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="checkout of side A")
    parser.add_argument("--b", type=Path, required=True, help="checkout of side B")
    args = parser.parse_args(argv)
    trees = {"A": args.a.resolve(), "B": args.b.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "greenran" / "cli.py").is_file():
            parser.error(f"no greenran sources under {tree} (side {side})")

    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in trees}
        for path in dirs.values():
            path.mkdir()
        for files, cli_args in commands(trees["B"] / "configs"):
            errors = {side: run_tree(trees[side], cli_args, dirs[side]) for side in trees}
            failed = "; ".join(f"{side}: {err}" for side, err in errors.items() if err)
            for name in files:
                line = None if failed else first_difference(dirs["A"] / name,
                                                            dirs["B"] / name)
                if failed:
                    print(f"{name} failed on {failed}")
                elif line is None:
                    print(f"{name} identical")
                else:
                    print(f"{name} differs at line {line}")
                differs |= bool(failed) or line is not None
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
