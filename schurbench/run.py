"""Benchmark of affineschur: sweeps and CLI queries, each in fresh interpreters.

Usage (from the repository root):

    python3 schurbench/run.py --workload order-sweep --seed 1 --seconds 30 --trace 0

A run is a fixed number of rounds: one per ROUND_S of --seconds, and at
least MIN_ROUNDS, so the count never depends on how fast the code under test
is.  A round is a verdict session (one `verify` sweep), a query session
(the round's query list) and SETUPS_PER_ROUND sessions that only start up,
each in its own `python3 -I` process (see workloads.py).  Untraced op times
are rescaled to the speed of a reference task run alongside (pace.py).  The
last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of one traced
round, measured against the same round untraced.
Results and traces are also written under schurbench/out/."""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
ROUND_S = 15
MIN_ROUNDS = 2
# Sessions per round that only start up, so that set-up time has enough samples.
SETUPS_PER_ROUND = 3
DEADLINE_S = 170

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

MEMO_METRICS = ("affine.bruhat_leq", "affine.weak_leq", "affine.demazure", "affine.psi_apply")
CALL_METRICS = ("affine.mul", "affine.inverse", "symfunc.pieri_kk", "cli.main")
NEW_METRICS = ("affine.AffinePermutation", "symfunc.SymElt", "partitions.KBoundedPartition")
SELF_METRICS = (
    "affine.ball", "oracles.strong_join_in_ball", "oracles.is_least_upper_bound_in_ball",
    "oracles.strong_meet", "symfunc.pieri_kk", "symfunc.product_g", "symfunc.g_to_h",
    "shapes.setvalued_strips", "shapes.weak_strips", "kcode.ri", "kcode.rd",
    "orderlab.z_sets", "orderlab.fiber_X",
)


class SessionError(RuntimeError):
    """A session process crashed, timed out or printed no report."""


def run_session(spec: dict, deadline: float) -> tuple[dict, float]:
    """Start one fresh interpreter; return its report and its set-up time."""
    cmd = [sys.executable, "-I", str(BENCH / "session.py"), json.dumps(spec)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise SessionError(f"session {spec} passed the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SessionError(f"session {spec} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - spawned


def run_round(workload: str, seed: int, number: int, trace: bool, deadline: float) -> list:
    """The verdict session, the query session, then (untraced) set-up-only ones.

    Round `number` of a seed has a query list of its own (workloads.py)."""
    parts = ("verdict", "queries") + ("setup",) * (0 if trace else SETUPS_PER_ROUND)
    return [
        run_session({"workload": workload, "seed": seed, "round": number, "part": part,
                     "trace": trace}, deadline)
        for part in parts
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def end_to_end(rounds: list) -> dict:
    """Set-up and RSS as medians over the sessions; times at reference speed.

    Every op time is rescaled to the reference speed (pace.py).  The verdict
    time is the median over the rounds; the throughput is the median over
    the rounds of the list's query count over its summed query time; the
    query percentiles are over every query of every round, 216 or more
    samples, so the 95th has at least ten beyond it.
    """
    setups = [setup for rnd in rounds for _, setup in rnd]
    verdicts = [rnd[0][0]["ops"][0]["latency_s"] for rnd in rounds]
    lists = [[op["latency_s"] for op in rnd[1][0]["ops"]] for rnd in rounds]
    every = [latency for latencies in lists for latency in latencies]
    rss = [max(report["rss_kb"] for report, _ in rnd) / 1024 for rnd in rounds]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "verdict_s": {"value": statistics.median(verdicts), "unit": "s"},
        "queries_per_s": {"value": statistics.median(len(l) / sum(l) for l in lists),
                          "unit": "1/s"},
        "query_p50_ms": {"value": 1000 * statistics.median(every), "unit": "ms"},
        "query_p95_ms": {"value": 1000 * percentile(every, 95), "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def merge_traces(traces: list[dict]) -> dict:
    names: dict[str, dict] = {}
    memos: dict[str, dict] = {}
    for t in traces:
        for key, stat in t["names"].items():
            acc = names.setdefault(key, {})
            for field, value in stat.items():
                acc[field] = acc.get(field, 0) + value
        for key, info in t["memos"].items():
            acc = memos.setdefault(key, {"hits": 0, "misses": 0, "size": 0})
            acc["hits"] += info["hits"]
            acc["misses"] += info["misses"]
            acc["size"] = max(acc["size"], info["size"])
    return {"names": names, "memos": memos,
            "wall_s": sum(t["wall_s"] for t in traces),
            "in_spans_s": sum(t["in_spans_s"] for t in traces)}


def per_layer(merged: dict, overhead_s: float) -> dict:
    names, memos = merged["names"], merged["memos"]

    def stat(key: str, field: str) -> float:
        return names.get(key, {}).get(field, 0)

    out = {}
    for layer in LAYERS:
        mine = [s for key, s in names.items() if key.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = (sum(s["calls"] for s in mine), "count")
        out[f"{layer}.self_s"] = (sum(s["self_s"] for s in mine), "s")
    for key in NEW_METRICS:
        out[f"{key}.new"] = (stat(f"{key}.new", "calls"), "count")
    for key in CALL_METRICS:
        out[f"{key}.calls"] = (stat(key, "calls"), "count")
    for key in SELF_METRICS:
        out[f"{key}.self_s"] = (stat(key, "self_s"), "s")
    out["affine.ball.elements"] = (stat("affine.ball", "elements"), "count")
    for key in MEMO_METRICS + ("orderlab.fiber_X",):
        if key in memos:  # a function without cache_info() reports no memo
            for field in ("hits", "misses", "size"):
                out[f"{key}.{field}"] = (memos[key][field], "count")
    out["trace.wall_s"] = (merged["wall_s"], "s")
    out["trace.harness_s"] = (merged["wall_s"] - merged["in_spans_s"], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def ops_time(rnd: list) -> float:
    """Measured op time of a round, not rescaled (traced sessions are not paced)."""
    return sum(op.get("measured_s", op["latency_s"]) for report, _ in rnd
               for op in report["ops"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "affineschur" / "cli.py").is_file():
        print(f"error: no affineschur sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    try:
        if args.trace:
            plain = run_round(args.workload, args.seed, 0, False, deadline)
            traced = run_round(args.workload, args.seed, 0, True, deadline)
            rounds = [plain, traced]
        else:
            count = max(MIN_ROUNDS, int(args.seconds // ROUND_S))
            rounds = [run_round(args.workload, args.seed, number, False, deadline)
                      for number in range(count)]
    except SessionError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    ops = [op for rnd in rounds for report, _ in rnd for op in report["ops"]]
    for op in ops:
        if not op["ok"]:
            print(f"failed {op['kind']}: {op['reason']}", file=sys.stderr)
    if args.trace:
        merged = merge_traces([report["trace"] for report, _ in traced])
        metrics = per_layer(merged, ops_time(traced) - ops_time(plain))
    else:
        metrics = end_to_end(rounds)
    result = {
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        spans = [report["trace"]["spans"] for report, _ in traced]
        (OUT / f"trace-{stem}.json").write_text(json.dumps({**merged, "spans": spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
