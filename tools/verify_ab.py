"""Time `affineschur verify` in two trees, in alternating fresh-process pairs.

Usage (from the repository root):

    python3 tools/verify_ab.py PARENT CHANGE SUITE k,L [k,L ...]

PARENT and CHANGE are checkouts of the package (each with its `src/`).  For
each configuration k,L the tool runs

    python3 -m affineschur.cli --format json verify SUITE --k K --max-size L

PAIRS times in each tree, in a fresh process with that tree's `src/` on
PYTHONPATH, the parent first on even pairs and the change first on odd
ones.  Each tree compiles into a bytecode cache of its own, fresh for this
invocation (PYTHONPYCACHEPREFIX, with PYTHONDONTWRITEBYTECODE unset), and
one untimed warm-up run per tree and configuration fills it before the
timed pairs, so a stale `__pycache__` in either tree charges neither side
for compiling.  It prints one line per configuration: the exit codes of
each side, whether every JSON output of both sides is byte-identical, each
side's median and min-max wall time, and the number of pairs the change
won.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PAIRS = 6
SIDES = ("parent", "change")


def tree_env(tree: Path, cache: Path) -> dict[str, str]:
    """Environment of a fresh process of `tree`: its `src/` on PYTHONPATH,
    compiling into the bytecode cache `cache`."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=str(cache))
    return env


def pair_order(pair: int) -> tuple[str, ...]:
    """The sides in the order pair number `pair` runs them: parent first on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def spread(values: list[float], digits: int = 3) -> str:
    """'median M (min-max)' of a side's times."""
    return (f"median {statistics.median(values):.{digits}f} "
            f"({min(values):.{digits}f}-{max(values):.{digits}f})")


def wins(times: dict[str, list[float]]) -> int:
    """The pairs in which the change took less time than the parent."""
    return sum(c < p for p, c in zip(times["parent"], times["change"]))


def run(tree: Path, cache: Path, suite: str, k: str, size: str) -> tuple[float, int, bytes]:
    """Wall time, exit code and standard output of one verify run in `tree`,
    compiling into the bytecode cache `cache`."""
    argv = [sys.executable, "-m", "affineschur.cli", "--format", "json", "verify", suite,
            "--k", k, "--max-size", size]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=tree, env=tree_env(tree, cache), capture_output=True)
    return time.perf_counter() - start, done.returncode, done.stdout


def main(argv: list[str]) -> int:
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    trees = dict(zip(SIDES, (Path(argv[0]).resolve(), Path(argv[1]).resolve())))
    suite, configs = argv[2], argv[3:]
    with tempfile.TemporaryDirectory() as tmp:
        caches = {side: Path(tmp) / side for side in SIDES}
        print(f"{suite}: {PAIRS} alternating pairs per configuration, wall seconds")
        for config in configs:
            compare(trees, caches, suite, config)
    return 0


def compare(trees: dict[str, Path], caches: dict[str, Path], suite: str, config: str) -> None:
    """Print the line of one configuration, after one warm-up run per tree."""
    k, size = config.split(",")
    times = {side: [] for side in SIDES}
    codes = {side: set() for side in SIDES}
    outputs = set()
    for side in SIDES:
        run(trees[side], caches[side], suite, k, size)
    for pair in range(PAIRS):
        for side in pair_order(pair):
            seconds, code, out = run(trees[side], caches[side], suite, k, size)
            times[side].append(seconds)
            codes[side].add(code)
            outputs.add(out)
    cells = [f"{side} exit {sorted(codes[side])} {spread(times[side])}" for side in SIDES]
    identical = "identical" if len(outputs) == 1 else "DIFFERENT"
    print(f"({config}) json {identical}; " + "; ".join(cells)
          + f"; change wins {wins(times)}/{PAIRS}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
