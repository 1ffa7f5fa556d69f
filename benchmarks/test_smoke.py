"""Reduced-size smoke run of every benchmark workload.

Run from the repository root:

    python3 -m pytest benchmarks/test_smoke.py

Each workload runs once untraced and once traced at smoke size.  The tests
check that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that every operation was refused or had its output checked by its
oracle, that an oracle rejects a wrong output, that a raise the oracle does
not predict fails the run while a predicted eigenpair refusal does not, that
the interaction-map guard passes and catches violations, that the reference
timer's runs are left out of a query's time, and that the script refuses to
run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
workloads = run._import_library()
import tracing  # noqa: E402  (needs the library on the path first)


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_spec_names_the_workloads_the_script_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_and_runs_every_oracle(workload, trace, section, tmp_path):
    result, tally = run.measure(workload, seed=1, seconds=0.01, trace=trace, smoke=True, probes=1, out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == tally.attempted >= 1
    assert tally.failed == 0
    assert tally.checked + tally.refusals == tally.attempted
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _units(section)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        assert list(tmp_path.glob(f"spans-{workload}-seed1.npz"))


class _ReferenceQueries:
    """Two queries made of reference runs: one long enough for the timer."""

    def __init__(self, reference):
        self.reference = reference
        self.repeats = (400, 10)

    def __len__(self):
        return len(self.repeats)

    def run_query(self, i, tally):
        start = self.clock()
        for _ in range(self.repeats[i]):
            self.reference()
        return self.clock() - start


def test_queries_are_timed_in_refs_on_a_clock_that_skips_the_timer_runs():
    queries = _ReferenceQueries(run.Reference())
    latency, _, runs = run.run_queries(queries, 0.0, workloads.Tally(), queries.reference)
    assert runs == [1, 1]
    assert queries.clock == queries.reference.clock
    # A query of n reference runs takes about n refs; the band leaves room
    # for a host whose load changes within the query.
    assert 200 < latency[0] < 800 and 2 < latency[1] < 40, latency
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_clock_stops_while_the_timer_runs():
    reference = run.Reference()
    with reference.sampling() as during:
        start, clock_start = time.perf_counter(), reference.clock()
        while time.perf_counter() - start < 0.35:  # the timer fires at 0.1, 0.2 and 0.3 s
            pass
        elapsed, clock_elapsed = time.perf_counter() - start, reference.clock() - clock_start
    assert len(during) == 3
    assert sum(during) <= elapsed - clock_elapsed < sum(during) + 1e-3


def test_oracle_rejects_a_wrong_output(monkeypatch):
    wl = workloads.build("long_series", seed=1, smoke=True)
    monkeypatch.setattr(workloads.cesaro, "range_preimage", lambda t, g: g)
    tally = workloads.Tally()
    wl.run_query(0, tally)
    assert tally.rejected == 1 and "range preimage" in tally.errors[0]


def test_an_unpredicted_raise_fails_the_run(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise ArithmeticError("broken")

    monkeypatch.setattr(workloads.cesaro, "operator_norm_witness", broken)
    result, tally = run.measure("norm_pool", seed=1, seconds=0.01, trace=0, smoke=True, probes=1, out_dir=tmp_path)
    assert result["correct"] is False
    assert result["failed"] == tally.raised == tally.attempted


def test_an_unpredicted_value_error_fails_the_run(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("coefficients must be finite (no NaN/Inf)")

    monkeypatch.setattr(workloads.cesaro, "resolvent_apply", broken)
    wl = workloads.build("long_series", seed=1, smoke=True)
    tally = workloads.Tally()
    wl.run_query(0, tally)
    assert tally.raised == 1 and "unexpected ValueError" in tally.errors[0]


def test_eigenpair_overflow_is_predicted_at_the_boundary():
    m, truncation = 200, 4000
    lo, hi = 0.5, 0.99  # eigenpair(lo, ...) is finite, eigenpair(hi, ...) overflows
    assert workloads.eigenpair_overflows(lo, m, truncation) is False
    assert workloads.eigenpair_overflows(hi, m, truncation) is True
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if workloads.eigenpair_overflows(mid, m, truncation) is False:
            lo = mid
        else:
            hi = mid
    for t, overflows in ((lo * (1 - 1e-9), False), (hi * (1 + 1e-9), True)):
        assert workloads.eigenpair_overflows(t, m, truncation) is overflows
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if overflows:
                with pytest.raises(ValueError):
                    workloads.cesaro.eigenpair(t, m, truncation)
            else:
                workloads.cesaro.eigenpair(t, m, truncation)


def test_a_predicted_refusal_is_counted_but_not_failed(monkeypatch):
    def refuse(t, m, truncation):
        raise ValueError("coefficients must be finite (no NaN/Inf)")

    wl = workloads.build("long_series", seed=1, smoke=True)
    monkeypatch.setattr(workloads, "eigenpair_overflows", lambda t, m, truncation: True)
    tally = workloads.Tally()
    wl.run_query(0, tally)  # the real eigenpair returns: a rescaled pair is accepted
    assert tally.failed == 0 and tally.refusals == 0
    monkeypatch.setattr(workloads.cesaro, "eigenpair", refuse)
    wl.run_query(0, tally)
    wl.run_query(0, tally)
    assert tally.failed == 0 and tally.refusals == 2 and len(tally.refused) == 1


def test_guard_flags_calls_the_map_does_not_predict():
    stats = {name: {"calls": 1.0 if "norm_pool" in on else 0.0} for name, (on, _) in tracing.LAYERS.items()}
    assert tracing.guard("norm_pool", stats) == []
    stats["spectral.eigenpair"]["calls"] = 2.0
    stats["weights.circle_max"]["calls"] = 0.0
    problems = tracing.guard("norm_pool", stats)
    assert len(problems) == 2
    assert any(p.startswith("spectral.eigenpair") for p in problems)
    assert any(p.startswith("weights.circle_max") for p in problems)


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "norm_pool", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
