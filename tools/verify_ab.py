"""Time `affineschur` CLI calls in two trees, in alternating fresh-process pairs.

Usage (from the repository root):

    python3 tools/verify_ab.py PARENT CHANGE SUITE k,L [k,L ...]
    python3 tools/verify_ab.py PARENT CHANGE -- ARGV...

PARENT and CHANGE are checkouts of the package (each with its `src/`).  In
the first form, each configuration k,L is the call

    python3 -m affineschur.cli --format json verify SUITE --k K --max-size L

and in the second the one call is any CLI argv after `--`, such as
`zsets --k 8 --lambda 1`, with `--format json` put in front.  Each call
runs PAIRS times in each tree, in a fresh process with that
tree's `src/` on PYTHONPATH, the parent first on even pairs and the change
first on odd ones.  The process imports `affineschur.cli` and times
`cli.main` on the call's argv, from entry to return, output included; the
interpreter's start-up and the package import, some 50 ms that
`startup_ab.py` times, are left out, so a change of a fraction of a
millisecond in one query can show.  Each tree compiles into a
bytecode cache of its own, fresh for this invocation (PYTHONPYCACHEPREFIX,
with PYTHONDONTWRITEBYTECODE unset), and one untimed warm-up run per tree
and call fills it before the timed pairs, so a stale `__pycache__` in
either tree charges neither side for compiling.  It prints one line per
call: the exit codes of each side, whether every JSON output of both sides
is byte-identical, each side's median and min-max time in milliseconds,
each side's median peak RSS in MB (the child's
`resource.getrusage(RUSAGE_SELF).ru_maxrss` once `cli.main` returns, the
import included), and the number of pairs the change won.  A run whose
time cannot be read, such as one that failed to import the tree, has an
infinite time and peak RSS: it loses its pair, and its exit code shows in
the line.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10
SIDES = ("parent", "change")

# a fresh process that times one `cli.main` call and reports the seconds
# and its peak RSS in MB (ru_maxrss counts KB on Linux) as the last line
# of its standard error
CHILD = """\
import resource, sys, time
import affineschur.cli as cli
start = time.perf_counter()
try:
    code = cli.main(sys.argv[1:])
finally:
    seconds = time.perf_counter() - start
    sys.stdout.flush()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(seconds, peak, file=sys.stderr)
sys.exit(code)
"""


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


def run(tree: Path, cache: Path, call: list[str]) -> tuple[float, float, int, bytes]:
    """Milliseconds in `cli.main`, peak RSS in MB, exit code and standard
    output of the CLI call `call` (the argv after `--format json`) in
    `tree`, compiling into the bytecode cache `cache`; time and RSS are
    infinite when the child reported neither."""
    argv = [sys.executable, "-c", CHILD, "--format", "json", *call]
    done = subprocess.run(argv, cwd=tree, env=tree_env(tree, cache), capture_output=True)
    try:
        seconds, peak = map(float, done.stderr.splitlines()[-1].split())
    except (IndexError, ValueError):
        seconds = peak = math.inf
    return 1000 * seconds, peak, done.returncode, done.stdout


def calls(args: list[str]) -> tuple[str, list[tuple[str, list[str]]]] | None:
    """The title and the (label, call) pairs that the arguments after the
    two trees name, or None when they name none."""
    if args[:1] == ["--"]:
        call = args[1:]
        return (" ".join(call), [("", call)]) if call else None
    if len(args) < 2:
        return None
    suite, configs = args[0], args[1:]
    return suite, [
        (f"({config}) ", ["verify", suite, "--k", k, "--max-size", size])
        for config in configs
        for k, size in [config.split(",")]
    ]


def main(argv: list[str]) -> int:
    named = calls(argv[2:]) if len(argv) >= 3 else None
    if named is None:
        print(__doc__, file=sys.stderr)
        return 2
    trees = dict(zip(SIDES, (Path(argv[0]).resolve(), Path(argv[1]).resolve())))
    title, todo = named
    with tempfile.TemporaryDirectory() as tmp:
        caches = {side: Path(tmp) / side for side in SIDES}
        print(f"{title}: {PAIRS} alternating pairs per call, milliseconds in cli.main")
        for label, call in todo:
            compare(trees, caches, label, call)
    return 0


def compare(trees: dict[str, Path], caches: dict[str, Path], label: str, call: list[str]) -> None:
    """Print the line of one call, after one warm-up run per tree."""
    times = {side: [] for side in SIDES}
    peaks = {side: [] for side in SIDES}
    codes = {side: set() for side in SIDES}
    outputs = set()
    for side in SIDES:
        run(trees[side], caches[side], call)
    for pair in range(PAIRS):
        for side in pair_order(pair):
            seconds, peak, code, out = run(trees[side], caches[side], call)
            times[side].append(seconds)
            peaks[side].append(peak)
            codes[side].add(code)
            outputs.add(out)
    cells = [
        f"{side} exit {sorted(codes[side])} {spread(times[side])}"
        f" peak {statistics.median(peaks[side]):.1f} MB"
        for side in SIDES
    ]
    identical = "identical" if len(outputs) == 1 else "DIFFERENT"
    print(f"{label}json {identical}; " + "; ".join(cells)
          + f"; change wins {wins(times)}/{PAIRS}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
