"""One SHA-256 over every CLI call the benchmark workloads make, in every format.

Usage (from the repository root):

    python3 tools/cli_digest.py --seeds 1 2 3

For each workload of schurbench/workloads.py, each seed and each round of a
30-second run (rounds 0 and 1), it takes the verdict argv and every query
argv, in the order a session runs them, and runs each through `cli.main`
with `--format json`, `text` and `csv`.  Every memo is emptied before each
call, as in a benchmark session, so each call starts cold.  The digest
covers argv, exit code, stdout and stderr of every call in that order; two
trees that print the same digest gave byte-identical answers to all of them.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "schurbench"))

import session  # noqa: E402  (reset_memos)
import workloads  # noqa: E402

from affineschur.cli import main as cli_main  # noqa: E402

ROUNDS = (0, 1)
FORMATS = ("json", "text", "csv")


def workload_argvs(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The verdict and query argvs of every round, as `--format json` calls."""
    argvs = []
    for number in ROUNDS:
        for part in ("verdict", "queries"):
            for op in workloads.session_ops(workload, seed, number, part):
                argvs.extend(op.calls)
    return argvs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    calls = 0
    for workload in sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            for call in workload_argvs(workload, seed):
                if call[:2] != ("--format", "json"):
                    raise ValueError(f"expected a --format json call: {call}")
                for fmt in FORMATS:
                    full = ["--format", fmt, *call[2:]]
                    session.reset_memos()
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        code = cli_main(full)
                    record = [full, code, out.getvalue(), err.getvalue()]
                    digest.update(json.dumps(record).encode() + b"\n")
                    calls += 1
    print(f"{digest.hexdigest()}  {calls} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
