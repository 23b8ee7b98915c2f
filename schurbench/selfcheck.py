"""Harness self-check: every checker must reject a corrupted output.

Usage (from the repository root): python3 schurbench/selfcheck.py

Runs one small op of each kind through the session code: as the program
wrote it, where every op must pass; with its parsed output corrupted in
each of the ways below, where the op must count as failed and wrong; and,
for a sweep, with `cli.main` replaced by one that prints a verdict with a
failed check and exits 1, as it does on a counterexample, where the op
must also count as failed and wrong.  Exits 1 if any expectation breaks.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import session  # noqa: E402
from workloads import query_op, sweep_op  # noqa: E402


def _bump_instances(ps):
    ps[0]["results"][0]["instances"] += 1


def _fail_check(ps):
    ps[0]["results"][0]["ok"] = False


def _shift_window(ps):
    ps[0]["perm"]["window"][0] += 1


def _grow_top(ps):
    ps[0]["weak"][0]["top"]["parts"].append(1)


def _negate_first_ks_term(ps):
    ps[0]["result"]["terms"][0]["coeff"] = "-1"


def _drop_g_terms(ps):
    ps[1]["result"]["terms"] = []


def _bump_ie(ps):
    ps[0]["inclusion_exclusion"][0]["coeff"] = str(int(ps[0]["inclusion_exclusion"][0]["coeff"]) + 1)


def _drop_empty_set(ps):
    ps[0]["minus"] = [A for A in ps[0]["minus"] if A]


def _flip_sign(ps):
    ps[0]["rows"][0]["sign"] *= -1


CORRUPTIONS = {
    "verify": (_bump_instances, _fail_check),
    "bij": (_shift_window,),
    "strips": (_grow_top,),
    "pieri": (_negate_first_ks_term, _drop_g_terms),
    "gtilde": (_bump_ie,),
    "zsets": (_drop_empty_set,),
    "table1": (_flip_sign,),
}


def small_ops():
    lam = (3, 2, 1)
    ops = [sweep_op("order-props", 1, 1), sweep_op("factorization", 1, 2),
           sweep_op("pieri-sum", 2, 2)]
    ops += [query_op(cmd, 5, lam, 2) for cmd in ("bij", "strips", "pieri", "gtilde", "zsets")]
    ops.append(query_op("table1", 4, (2, 1)))
    return ops


def counterexample_main(real):
    """`cli.main` as it behaves when a sweep finds a counterexample.

    It prints the real verdict with its first check failed and a witness
    added, and exits 1.
    """

    def main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            real(argv)
        payload = json.loads(out.getvalue())
        payload["results"][0].update(ok=False, failures=[{"witness": "replayed"}])
        print(json.dumps(payload))
        return 1

    return main


def main() -> int:
    cli = session.affineschur.cli
    cases = []
    for op in small_ops():
        cases.append((op, "clean", {}, True))
        for fn in CORRUPTIONS[op.kind]:
            corrupt = (lambda fn: lambda kind, ps: fn(ps) or ps)(fn)
            cases.append((op, fn.__name__.lstrip("_"), {"corrupt": corrupt}, False))
    real = cli.main
    bad = 0
    for op, label, kwargs, should_pass in cases:
        result = session.run_op(op, **kwargs)
        good = result["ok"] if should_pass else (not result["ok"] and result["wrong"])
        bad += not good
        print(f"{'ok  ' if good else 'FAIL'} {op.kind:7s} {label:22s} "
              f"{result['reason'] or 'passes'}")
    cli.main = counterexample_main(real)
    try:
        result = session.run_op(sweep_op("order-props", 1, 1))
    finally:
        cli.main = real
    good = not result["ok"] and result["wrong"]
    bad += not good
    print(f"{'ok  ' if good else 'FAIL'} verify  exit-1 counterexample  {result['reason']}")
    total = len(cases) + 1
    print(f"{total - bad}/{total} cases: clean output passes, corrupted output fails as wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
