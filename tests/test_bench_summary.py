"""The BENCH summary writer, on hand-made run outputs."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

END_TO_END = ("setup_s", "verdict_s", "queries_per_s", "query_p50_ms", "query_p95_ms",
              "peak_rss_mb")


def _write(path: Path, metrics: dict, failed: int = 0) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    result = {"correct": True, "attempted": 10, "failed": failed,
              "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()}}
    path.write_text("progress noise\n" + json.dumps(result) + "\n")


def test_summary_of_pairs_and_traced_runs(tmp_path):
    parent_verdicts = [4.0, 4.4, 4.2, 4.1, 3.9]
    change_verdicts = [0.9, 0.8, 4.5, 0.85, 0.95]
    for side, verdicts in (("parent", parent_verdicts), ("change", change_verdicts)):
        for i, verdict in enumerate(verdicts):
            metrics = dict.fromkeys(END_TO_END, 1.0)
            metrics["verdict_s"] = verdict
            metrics["queries_per_s"] = 2.0 if side == "change" else 1.0
            _write(tmp_path / side / "factorization-sweep" / "seed1" / f"{i}.out", metrics)
        traced = {"trace.wall_s": 3.0, "symfunc.pieri_kk.self_s": 2.0 if side == "parent" else 0.1,
                  "affine.mul.calls": 107114 if side == "parent" else 58030,
                  "affine.bruhat_leq.misses": 40122 if side == "parent" else 0}
        _write(tmp_path / side / "factorization-sweep" / "seed1" / "trace0.out", traced)
        # self times run.py does not print come from the trace file; printed ones win
        names = {"symfunc.bruhat_lower_partitions": {"calls": 83,
                                                     "self_s": 3.6 if side == "parent" else 0.5},
                 "symfunc.pieri_kk": {"calls": 9, "self_s": 99.0}}
        if side == "change":  # a function the parent lacks
            names["symfunc.strong_ideal_parts"] = {"calls": 83, "self_s": 0.2}
        (tmp_path / side / "factorization-sweep" / "seed1" / "trace0.trace.json").write_text(
            json.dumps({"names": names, "memos": {}}))

    summary = bench_summary.summarise(tmp_path)
    seed = summary["workloads"]["factorization-sweep"]["seed1"]
    assert seed["pairs"] == 5 and seed["correct"]
    assert seed["failed"] == {"parent": 0, "change": 0}
    verdict = seed["end_to_end"]["verdict_s"]
    assert verdict["parent"]["median"] == 4.1 and verdict["change"]["median"] == 0.9
    assert (verdict["parent"]["q1"], verdict["parent"]["q3"]) == (4.0, 4.2)
    assert verdict["change_wins"] == 4  # the 4.5 s pair is a loss
    assert seed["end_to_end"]["queries_per_s"]["change_wins"] == 5  # higher is better
    assert seed["end_to_end"]["setup_s"]["change_wins"] == 0  # ties count for neither
    assert seed["traced"]["symfunc.pieri_kk.self_s"] == {"unit": "s", "parent": 2.0,
                                                         "change": 0.1}
    assert seed["traced"]["affine.mul.calls"] == {"unit": "s", "parent": 107114,
                                                  "change": 58030}
    assert seed["traced"]["symfunc.bruhat_lower_partitions.self_s"] == {
        "unit": "s", "parent": 3.6, "change": 0.5}
    assert seed["traced"]["affine.bruhat_leq.misses"] == {"unit": "s", "parent": 40122,
                                                          "change": 0}
    assert seed["traced"]["symfunc.strong_ideal_parts.self_s"] == {
        "unit": "s", "parent": None, "change": 0.2}
    assert "partitions.KBoundedPartition.new" not in seed["traced"]  # absent from the runs


def test_summary_rejects_an_empty_run_directory(tmp_path, capsys):
    assert bench_summary.main([str(tmp_path), "--out", str(tmp_path / "out.json")]) == 2
    assert "no runs" in capsys.readouterr().err


def _pairs(tmp_path, workload, parent, change):
    for side, values in (("parent", parent), ("change", change)):
        for i, value in enumerate(values):
            metrics = dict.fromkeys(END_TO_END, 1.0)
            metrics["verdict_s"] = value
            _write(tmp_path / side / workload / "seed1" / f"{i}.out", metrics)


def test_verdicts_and_sign_test_of_the_pairs(tmp_path):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98, 1.01]
    _pairs(tmp_path, "shifted", parent, [v - 0.2 for v in parent[:-1]] + [1.5])
    _pairs(tmp_path, "unmoved", parent, [v + 0.01 * (-1) ** (i + 1) for i, v in enumerate(parent)])
    summary = bench_summary.summarise(tmp_path)["workloads"]

    shifted = summary["shifted"]["seed1"]["end_to_end"]["verdict_s"]
    assert shifted["values"]["parent"] == parent  # pair order: 10 after 9, not after 1
    assert shifted["change_wins"] == 10
    assert shifted["sign_test_p"] == 2 * 12 / 2**11
    assert shifted["verdict"] == "better"
    unmoved = summary["unmoved"]["seed1"]["end_to_end"]["verdict_s"]
    assert unmoved["verdict"] == "unresolved"
    assert (unmoved["change_wins"], unmoved["sign_test_p"]) == (6, 1.0)  # 6 wins, 5 losses
    tied = summary["unmoved"]["seed1"]["end_to_end"]["setup_s"]
    assert (tied["change_wins"], tied["sign_test_p"], tied["verdict"]) == (0, 1.0, "unresolved")

    # the mirror: the parent wins every pair by far more than its spread
    assert bench_summary.verdict(0, 10, 10, {"parent": bench_summary.spread([1.0, 1.1]),
                                             "change": bench_summary.spread([2.0, 2.1])},
                                 1) == "worse"


def test_pair_ratio_interval_excludes_1_only_under_a_shift(tmp_path):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    _pairs(tmp_path, "shifted", parent, [0.8 * v + 0.01 * (-1) ** i for i, v in enumerate(parent)])
    _pairs(tmp_path, "unmoved", parent, [v + 0.02 * (-1) ** i for i, v in enumerate(parent)])
    summary = bench_summary.summarise(tmp_path)["workloads"]

    shifted = summary["shifted"]["seed1"]["end_to_end"]["verdict_s"]
    lo, hi = shifted["pair_ratio_ci95"]
    assert lo <= shifted["pair_ratio_median"] <= hi < 1
    unmoved = summary["unmoved"]["seed1"]["end_to_end"]["verdict_s"]
    lo, hi = unmoved["pair_ratio_ci95"]
    assert lo < 1 < hi and lo <= unmoved["pair_ratio_median"] <= hi
    # the interval is a pure function of the pairs: the seed is fixed in the tool
    assert bench_summary.summarise(tmp_path)["workloads"]["unmoved"] == summary["unmoved"]
    tied = summary["unmoved"]["seed1"]["end_to_end"]["setup_s"]
    assert (tied["pair_ratio_median"], tied["pair_ratio_ci95"]) == (1.0, [1.0, 1.0])
    # a parent value of 0 has no ratio
    assert bench_summary.summarise_seed(
        {side: {"0": {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"verdict_s": {"value": 0.0, "unit": "s"}}}}
         for side in bench_summary.SIDES},
        {"verdict_s": "lower"},
    )["end_to_end"]["verdict_s"]["pair_ratio_ci95"] is None
