"""Time `import affineschur.cli` in two trees, in alternating fresh-process pairs.

Usage (from the repository root):

    python3 tools/startup_ab.py PARENT CHANGE

PARENT and CHANGE are checkouts of the package (each with its `src/`).  Each
run is a fresh interpreter with that tree's `src/` on PYTHONPATH, which times
the import alone with `time.perf_counter` and lists the modules it added.
The timed runs start as a CLI process or a benchmark session does, with the
site packages (and whatever their `.pth` files load) but no user site
(`python3 -s`).  PAIRS pairs run, the parent first on even pairs and the
change first on odd ones; each tree compiles into a bytecode cache of its
own, filled by one untimed warm-up run per tree, as in `verify_ab.py`.  The
warm-up runs in a bare interpreter (`python3 -S`, no site packages), so its
module list holds every module the import loads.  The tool prints each
side's median and min-max import time in milliseconds, the pairs the change
won, the modules each side's import adds to a bare interpreter, and the
modules only one side loads.

Every run is a subprocess: importing both trees into one process would find
whichever `affineschur` came first on `sys.path` and time it twice.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

from verify_ab import SIDES, pair_order, spread, tree_env, wins

PAIRS = 30

CHILD = """\
import sys, time
bare = set(sys.modules)
start = time.perf_counter()
import affineschur.cli
seconds = time.perf_counter() - start
print(seconds)
print(*sorted(set(sys.modules) - bare))
"""


def run(tree: Path, cache: Path, site: str) -> tuple[float, list[str]]:
    """Import time in milliseconds and the modules the import added, in a
    fresh process of `tree` (flag `site`) compiling into the bytecode cache
    `cache`."""
    done = subprocess.run([sys.executable, site, "-c", CHILD], cwd=tree,
                          env=tree_env(tree, cache), capture_output=True, text=True, check=True)
    seconds, modules = done.stdout.splitlines()
    return 1000 * float(seconds), modules.split()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = dict(zip(SIDES, (Path(argv[0]).resolve(), Path(argv[1]).resolve())))
    times = {side: [] for side in SIDES}
    added = {}
    with tempfile.TemporaryDirectory() as tmp:
        caches = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            added[side] = run(trees[side], caches[side], "-S")[1]
        for pair in range(PAIRS):
            for side in pair_order(pair):
                times[side].append(run(trees[side], caches[side], "-s")[0])
    print(f"import affineschur.cli: {PAIRS} alternating pairs, milliseconds")
    print("; ".join(f"{side} {spread(times[side], 2)}" for side in SIDES)
          + f"; change wins {wins(times)}/{PAIRS}")
    for side in SIDES:
        print(f"{side} adds {len(added[side])} modules: {' '.join(added[side])}")
    for side, other in (SIDES, SIDES[::-1]):
        only = sorted(set(added[side]) - set(added[other]))
        print(f"only the {side} loads {len(only)}: {' '.join(only) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
