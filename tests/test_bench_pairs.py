"""The summary of ``tools/bench_pairs.py`` on canned benchmark result lines."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def result_line(wall, rss=100.0, failed=0):
    """What ``benchmarks/run.py`` prints: a summary line, then the result object."""
    metrics = {"wall_ref": {"value": wall, "unit": "ref"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    result = {"correct": failed == 0, "attempted": 15, "failed": failed, "metrics": metrics}
    return f"paper_report seed=1: 2-3 samples of each of 15 queries; wall_ref={wall} ref\n{json.dumps(result)}\n"


def runs_of(parent, change, workload="paper_report"):
    runs = []
    for pair, (old, new) in enumerate(zip(parent, change)):
        for side, text in (("parent", old), ("change", new)):
            runs.append({"workload": workload, "pair": pair, "side": side, "result": bench_pairs.parse_result(text)})
    return runs


def test_parse_result_reads_the_last_line():
    assert bench_pairs.parse_result(result_line(1200.0))["metrics"]["wall_ref"]["value"] == 1200.0
    with pytest.raises(ValueError):
        bench_pairs.parse_result("")


def test_a_change_that_wins_every_pair_is_a_gain():
    parent = [1650.0 + 10 * i for i in range(10)]
    change = [1200.0 + 10 * i for i in range(10)]
    summary = bench_pairs.summarize(runs_of(map(result_line, parent), map(result_line, change)), END_TO_END)
    entry = summary["paper_report"]
    assert entry["pairs"] == 10 and entry["incomplete_pairs"] == 0
    assert entry["failed"] == {"parent": 0, "change": 0} and not entry["more_failed"]
    wall = entry["metrics"]["wall_ref"]
    assert wall["parent"]["values"] == parent and wall["change"]["values"] == change
    assert wall["parent"]["median"] == 1695.0 and wall["change"]["median"] == 1245.0
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (q1, q3)
    assert wall["change_wins"] == 10
    assert wall["relative_change"] == pytest.approx((1245.0 - 1695.0) / 1695.0)
    assert wall["verdict"] == "gain"
    rss = entry["metrics"]["peak_rss_mb"]  # equal on every pair: no wins, no loss
    assert rss["change_wins"] == 0 and rss["relative_change"] == 0.0
    assert rss["verdict"] == "within bound"


def test_two_lost_pairs_or_a_small_shift_is_no_gain():
    parent = [1000.0 + 10 * i for i in range(10)]
    eight_wins = [p - 300.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]
    entry = bench_pairs.summarize(runs_of(map(result_line, parent), map(result_line, eight_wins)), END_TO_END)
    assert entry["paper_report"]["metrics"]["wall_ref"]["change_wins"] == 8
    assert entry["paper_report"]["metrics"]["wall_ref"]["verdict"] == "within bound"
    within_iqr = [p - 5.0 for p in parent]  # wins every pair, by less than the parent's spread
    entry = bench_pairs.summarize(runs_of(map(result_line, parent), map(result_line, within_iqr)), END_TO_END)
    assert entry["paper_report"]["metrics"]["wall_ref"]["change_wins"] == 10
    assert entry["paper_report"]["metrics"]["wall_ref"]["verdict"] == "within bound"


def test_a_loss_beyond_the_bound_and_an_incomplete_pair():
    parent = [result_line(1000.0), result_line(1010.0), result_line(990.0, failed=1)]
    change = [result_line(1300.0, rss=115.0), result_line(1320.0, rss=115.0), json.dumps({"error": "exit 1"})]
    entry = bench_pairs.summarize(runs_of(parent, change, "norm_pool"), END_TO_END)["norm_pool"]
    assert entry["pairs"] == 3 and entry["incomplete_pairs"] == 1
    assert entry["failed"] == {"parent": 1, "change": 0} and entry["attempted"] == {"parent": 45, "change": 30}
    assert entry["more_failed"]  # the change's third run reported nothing
    wall, rss = entry["metrics"]["wall_ref"], entry["metrics"]["peak_rss_mb"]
    assert wall["parent"]["values"] == [1000.0, 1010.0]  # statistics over complete pairs only
    assert wall["relative_change"] == pytest.approx(305.0 / 1005.0) and wall["verdict"] == "beyond bound"
    assert rss["relative_change"] == pytest.approx(0.15) and rss["verdict"] == "beyond bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.25, 2.04, 1.30, 1.95, 1.40, 1.90, 1.50, 1.85, 1.60, 1.75]  # (q3 - q1) / median > 0.25
    overlapping = [1.35, 1.87, 1.40, 1.80, 1.45, 1.70, 1.50, 1.65, 1.55, 1.60]
    entry = bench_pairs.summarize(runs_of(map(result_line, parent), map(result_line, overlapping)), END_TO_END)
    wall = entry["paper_report"]["metrics"]["wall_ref"]
    assert wall["parent"]["spread"] > 0.25 and wall["verdict"] == "unresolved"
    below_all = [1.0 + 0.01 * i for i in range(10)]  # every change run beats every parent run
    entry = bench_pairs.summarize(runs_of(map(result_line, parent), map(result_line, below_all)), END_TO_END)
    assert entry["paper_report"]["metrics"]["wall_ref"]["verdict"] == "gain"


def test_more_failed_operations_is_no_gain():
    parent = [result_line(1650.0 + 10 * i) for i in range(10)]
    change = [result_line(1200.0 + 10 * i, failed=int(i == 3)) for i in range(10)]
    entry = bench_pairs.summarize(runs_of(parent, change), END_TO_END)["paper_report"]
    assert entry["failed"] == {"parent": 0, "change": 1} and entry["more_failed"]
    assert entry["metrics"]["wall_ref"]["change_wins"] == 10
    assert entry["metrics"]["wall_ref"]["verdict"] == "within bound"


def test_a_gain_must_win_nine_in_ten_of_all_pairs_run():
    error = json.dumps({"error": "exit 1"})
    parent = [result_line(1650.0 + 10 * i) for i in range(8)] + [error, error]
    change = [result_line(1200.0 + 10 * i) for i in range(10)]
    entry = bench_pairs.summarize(runs_of(parent, change), END_TO_END)["paper_report"]
    assert entry["pairs"] == 10 and entry["incomplete_pairs"] == 2 and not entry["more_failed"]
    assert entry["metrics"]["wall_ref"]["change_wins"] == 8  # all 8 complete pairs, but only 8 of 10 run
    assert entry["metrics"]["wall_ref"]["verdict"] == "within bound"


def test_the_layer_script_times_the_witness_ratios_and_the_kernel_calls(tmp_path):
    # The script on the reduced workloads, so the test stays quick; the timed calls are the same.
    script = bench_pairs.LAYER_SCRIPT
    for workload in ("NormPool(1)", "LongSeries(1)", "PaperReport(1)"):
        assert workload in script
        script = script.replace(workload, workload.replace(")", ", smoke=True)"))
    seconds = bench_pairs._run_json(["-c", script], _PATH.parent.parent, 600)
    assert set(seconds) == {"operator_norm_witness_s", "eigenpair_s", "shifted_solve_s", "cesaro_coefficients_s"}
    assert all(value > 0.0 for value in seconds.values())
    assert set(bench_pairs.layer_run(tmp_path)) == {"error"}  # no source there


def test_layer_timings_alternate_the_sides_and_keep_each_best(monkeypatch):
    order = []

    def canned(checkout):
        order.append(checkout)
        if checkout == "broken":
            return {"error": "exit 1: no source"}
        run = sum(1 for side in order if side == checkout)
        return {"grid_s": (2.0 if checkout == "parent" else 1.0) + run, "full_s": 4.0 / run}

    monkeypatch.setattr(bench_pairs, "layer_run", canned)
    monkeypatch.setattr(bench_pairs, "LAYER_REPEATS", 3)
    layers = bench_pairs.layer_timings({"parent": "parent", "change": "change"})
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert layers["parent"]["grid_s"] == {"best_s": 3.0, "runs_s": [3.0, 4.0, 5.0]}
    assert layers["change"]["full_s"] == {"best_s": 4.0 / 3, "runs_s": [4.0, 2.0, 4.0 / 3]}
    assert layers["change_over_parent"] == {"grid_s": 2.0 / 3.0, "full_s": 1.0}
    monkeypatch.setattr(bench_pairs, "LAYER_REPEATS", 1)
    failed = bench_pairs.layer_timings({"parent": "parent", "change": "broken"})
    assert failed["change"] == {"error": "exit 1: no source"} and set(failed["parent"]) == {"grid_s", "full_s"}
    assert failed["change_over_parent"] == {"grid_s": None, "full_s": None}
