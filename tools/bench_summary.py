"""Summarise schurbench runs of a parent and a changed tree into one BENCH file.

Usage (from the repository root):

    python3 tools/bench_summary.py RUNS --out BENCH_6.json

RUNS holds the standard output of one `schurbench/run.py` invocation per
file, laid out as RUNS/<side>/<workload>/seed<S>/<name>.out, where <side> is
`parent` or `change`.  Only the last line of each file is read: the JSON
object run.py prints.  Runs of `--trace 1` are told apart by their per-layer
metrics.  Per-function self times that run.py does not print (such as
`symfunc.bruhat_lower_partitions.self_s`) are read from a traced run's trace
file, schurbench/out/trace-<workload>-seed<S>-trace1.json, when it is copied
next to the run as <name>.trace.json.  Files of the same name under the two
sides form a pair, so run the pairs alternately, for example:

    for i in 0 1 2 3 4 5 6 7 8 9; do
      for side in parent change; do   # swap the order on odd i
        (cd $side && python3 schurbench/run.py --workload W --seed S \\
           --seconds 30 --trace 0) > RUNS/$side/W/seedS/$i.out
      done
    done

For each workload, seed and end-to-end metric the summary gives each side's
values in pair order, its median and quartiles, the number of pairs the
change won (ties count for neither side), the ratio of the medians, change
over parent, and:

- `sign_test_p`, the exact two-sided binomial (sign) test over the pairs
  that are not tied;
- `pair_ratio_median`, the median of the per-pair ratios change/parent, and
  `pair_ratio_ci95`, its 95 % percentile bootstrap interval over the pairs
  (BOOTSTRAP_RESAMPLES resamples from BOOTSTRAP_SEED, fixed here so that a
  summary is reproducible; pairs whose parent value is 0 have no ratio);
- `verdict`: `better` when the change wins at least 9 of 10 of all pairs
  and its median beats the parent's by more than the parent's quartile
  spread, `worse` when the parent does so, and `unresolved` otherwise.

Traced runs give the per-layer figures in TRACED, as medians over the
traced runs; a figure that only one side's traced runs report, such as
the self time of a function the other tree lacks, is None on the other.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 1
TRACED = (
    "affine.self_s",
    "affine.AffinePermutation.new",
    "kcode.self_s",
    "kcode.rd.self_s",
    "kcode.ri.self_s",
    "affine.mul.calls",
    "affine.demazure.size",
    "affine.psi_apply.size",
    "affine.left_action.self_s",
    "orderlab.z_sets.self_s",
    "orderlab.fiber_X.self_s",
    "shapes.weak_strips.self_s",
    "shapes.setvalued_strips.self_s",
    "affine.inverse.calls",
    "affine.bruhat_leq.hits",
    "affine.bruhat_leq.misses",
    "affine.bruhat_leq.size",
    "affine.weak_leq.misses",
    "affine.weak_leq.size",
    "symfunc.bruhat_lower_partitions.self_s",
    "symfunc.strong_ideal_parts.self_s",
    "orderlab.self_s",
    "symfunc.pieri_kk.self_s",
    "symfunc.pieri_kk.calls",
    "partitions.KBoundedPartition.new",
    "symfunc.SymElt.new",
    "symfunc.self_s",
    "partitions.self_s",
    "shapes.self_s",
    "trace.wall_s",
    "trace.overhead_s",
)


def machine() -> dict:
    info = {
        "system": platform.system(),
        "arch": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            models = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
        if models:
            info["cpu"] = models[0]
    except OSError:
        pass
    return info


def last_json(path: Path) -> dict:
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: no output")
    return json.loads(lines[-1])


def load_run(path: Path) -> dict:
    """One run's result, with the self times of its trace file when there is one."""
    result = last_json(path)
    trace_path = path.with_suffix(".trace.json")
    if trace_path.is_file():
        names = json.loads(trace_path.read_text())["names"]
        self_times = {f"{key}.self_s": {"value": stat["self_s"], "unit": "s"}
                      for key, stat in names.items()}
        result["metrics"] = {**self_times, **result["metrics"]}
    return result


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def pair_key(name: str) -> tuple:
    """Run files 0, 1, ..., 10 in run order, not in string order."""
    return (0, int(name), "") if name.isdigit() else (1, 0, name)


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided binomial test of wins against losses at p = 1/2."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def pair_ratio_ci95(ratios: list[float]) -> list[float]:
    """2.5th and 97.5th percentiles of the median ratio over the pairs
    resampled with replacement, from a fixed seed."""
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP_RESAMPLES))
    last = BOOTSTRAP_RESAMPLES - 1
    return [medians[round(0.025 * last)], medians[round(0.975 * last)]]


def verdict(wins: int, losses: int, pairs: int, stats: dict, sign: int) -> str:
    """`better` or `worse` when one side wins at least 9 of 10 of all pairs
    and its median is ahead by more than the parent's quartile spread."""
    gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    if 10 * wins >= 9 * pairs and gap > iqr:
        return "better"
    if 10 * losses >= 9 * pairs and -gap > iqr:
        return "worse"
    return "unresolved"


def summarise_seed(runs: dict[str, dict[str, dict]], better: dict[str, str]) -> dict:
    """`runs` maps side -> file name -> run result, for one workload and seed."""
    plain = {side: {n: r for n, r in runs[side].items() if "trace.wall_s" not in r["metrics"]}
             for side in SIDES}
    traced = {side: [r for r in runs[side].values() if "trace.wall_s" in r["metrics"]]
              for side in SIDES}
    every = [r for side in SIDES for r in runs[side].values()]
    out = {
        "correct": all(r["correct"] for r in every),
        "attempted": {side: sum(r["attempted"] for r in runs[side].values()) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side].values()) for side in SIDES},
    }
    pairs = sorted(set(plain["parent"]) & set(plain["change"]), key=pair_key)
    if pairs:
        out["pairs"] = len(pairs)
        metrics = {}
        for name, direction in better.items():
            values = {side: [plain[side][n]["metrics"][name]["value"] for n in pairs]
                      for side in SIDES}
            sign = 1 if direction == "lower" else -1
            diffs = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
            wins = sum(1 for d in diffs if d > 0)
            losses = sum(1 for d in diffs if d < 0)
            stats = {side: spread(values[side]) for side in SIDES}
            base = stats["parent"]["median"]
            ratios = [c / p for p, c in zip(values["parent"], values["change"]) if p]
            metrics[name] = {
                "unit": plain["parent"][pairs[0]]["metrics"][name]["unit"],
                "better": direction,
                "values": values,
                **stats,
                "change_wins": wins,
                "median_ratio": stats["change"]["median"] / base if base else None,
                "pair_ratio_median": statistics.median(ratios) if ratios else None,
                "pair_ratio_ci95": pair_ratio_ci95(ratios) if ratios else None,
                "sign_test_p": sign_test_p(wins, losses),
                "verdict": verdict(wins, losses, len(pairs), stats, sign),
            }
        out["end_to_end"] = metrics
    if traced["parent"] and traced["change"]:
        out["traced"] = {}
        for name in TRACED:
            found = {side: [r["metrics"][name] for r in traced[side] if name in r["metrics"]]
                     for side in SIDES}
            if any(found.values()):  # a function one side lacks reads None there
                out["traced"][name] = {
                    "unit": next(m["unit"] for side in SIDES for m in found[side]),
                    **{side: statistics.median(m["value"] for m in found[side])
                       if found[side] else None for side in SIDES},
                }
    return out


def summarise(runs_dir: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    found: dict[tuple[str, str], dict[str, dict[str, dict]]] = {}
    for side in SIDES:
        for path in sorted((runs_dir / side).glob("*/seed*/*.out")):
            key = (path.parent.parent.name, path.parent.name)
            found.setdefault(key, {s: {} for s in SIDES})[side][path.stem] = load_run(path)
    if not found:
        raise ValueError(f"no runs under {runs_dir}/{{parent,change}}/<workload>/seed<S>/")
    workloads: dict[str, dict] = {}
    for (workload, seed), runs in sorted(found.items()):
        workloads.setdefault(workload, {})[seed] = summarise_seed(runs, better)
    return {"machine": machine(), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        summary = summarise(args.runs)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
