"""Paired benchmark runs of a change against its parent: writes BENCH_<pr>.json.

Run from the root of a source checkout:

    python3 tools/bench_pairs.py --pr <n> --parent HEAD --change . \\
        --seeds 301,302,303,304,305,306,307,308,309,310

Each side is copied into a fresh temporary directory first: a revision as
its committed files (``git archive``), ``.`` as the files of the working
tree that ``git add -A`` would commit (tracked and untracked, not ignored).
For every workload of ``BENCHMARK.json`` and every seed, ``benchmarks/run.py``
runs once on each side (one pair) for the spec's ``run_seconds``, one run at
a time, and the side that goes first alternates from
pair to pair.  Then each side runs :data:`TRACE_REPEATS` more times with
``--trace 1`` on the first seed, the sides alternating, for its per-layer
counts and seconds (:func:`traced_runs`): one traced run's seconds can
read a layer the wrong way round, so every run and the median are kept,
and a side's call counts must agree across its runs.  Last come the layer
timings, in process (:data:`LAYER_SCRIPT`), one process per run, with the
sides alternating: the ``operator_norm_witness`` calls of seed 1's
``norm_pool`` and ``paper_report`` queries, public inputs, so both sides
time the same job; the public ``weighted_sup_norm`` of each seed-1
``norm_pool`` query's witnesses and images under its weight, every row
through the grid pass and the polish (or settled at r = 0); the
``eigenpair`` calls of seed 1's ``long_series`` queries, and its
``resolvent_apply`` and ``range_preimage`` calls, the other two users of the
shifted kernel; the ``cesaro_coefficients`` calls of seed 1's
``long_series`` and ``paper_report`` queries.  The temporary directories
are removed afterwards.

The output holds every run's result object, and per workload and
end-to-end metric of ``BENCHMARK.json``: each side's values with their
median and quartiles (as ``benchmarks/baseline.py`` computes them), the
pairs the change wins, the relative change of the medians and a verdict
(``gain``, ``within bound``, ``beyond bound`` or ``unresolved``; see
:func:`summarize`); per workload, each side's failed and attempted
operations; under ``traced``, per workload and side, the traced runs with
each per-layer metric's values and median; under ``layers``, each side's
best-of-k seconds per pass of every timed layer, its k runs, and the
change's best over the parent's.  It
also records the versions, ``nproc``, both commits and the seeds.  The
script exits 1, after writing the file, when a side's traced counts differ
between its runs.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from baseline import environment, quartiles  # noqa: E402

SIDES = ("parent", "change")
#: Traced runs per side and workload, alternating sides.
TRACE_REPEATS = 3
#: The runs behind each layer timing's best, one process per run, alternating sides.
LAYER_REPEATS = 5
#: The seed of the workloads whose calls the layer timings measure.
LAYER_SEED = 1

#: One layer-timing run in a checkout (run there as ``python -c LAYER_SCRIPT``; prints one JSON object of
#: seconds).  The ``norm_pool``, ``long_series`` and ``paper_report`` queries run once while
#: ``operator_norm_witness`` (bound in ``cesaro``, ``weights`` and ``acceptance``), ``cesaro.eigenpair``,
#: ``cesaro.resolvent_apply``, ``cesaro.range_preimage`` and ``cesaro_coefficients`` (bound in ``operators`` and
#: ``dynamics``) record their arguments, so the inputs are the ones the workloads pass; then the recorded calls are
#: timed over the whole pass: the witness ratios of the ``norm_pool`` and ``paper_report`` passes
#: (``operator_norm_witness_s``), the public ``weighted_sup_norm`` of each ``norm_pool`` query's stack of witnesses
#: and their images under its weight, every row through the polish or settled, so its per-row cost without the pruning
#: (``weighted_sup_norm_s``; the stacks are built before the clock starts), ``eigenpair`` (its overflow refusals
#: included), the resolvents with the range preimages (``shifted_solve_s``), and the forward map's calls of the
#: ``long_series`` and ``paper_report`` passes (``cesaro_coefficients_s``).
LAYER_SCRIPT = f"""
import inspect, json, sys, time, warnings
import numpy as np
sys.path[:0] = ["src", "benchmarks"]
import cesaro
from cesaro import acceptance, dynamics, operators, weights
from workloads import LongSeries, NormPool, PaperReport, Tally
warnings.simplefilter("ignore", RuntimeWarning)  # the eigenpair overflow regime warns before it raises


def recorded(modules, names, workload):
    functions = {{name: (getattr(modules[0], name), []) for name in names}}
    wrappers = {{
        name: lambda *args, measure=measure, calls=calls, **kwargs: (
            calls.append((args, kwargs)) or measure(*args, **kwargs)
        )
        for name, (measure, calls) in functions.items()
    }}
    for module in modules:
        for name, (measure, _) in functions.items():
            if getattr(module, name, None) is measure:
                setattr(module, name, wrappers[name])
    for i in range(len(workload)):
        workload.run_query(i, Tally())
    for module in modules:
        for name, (measure, _) in functions.items():
            if getattr(module, name, None) is wrappers[name]:
                setattr(module, name, measure)
    return functions.values()


def eigenpairs():
    for args, kwargs in eigen_calls:
        try:
            solve(*args, **kwargs)
        except ValueError:  # an overflow refusal, timed like an answer
            pass


def replay(function, calls):
    return [function(*args, **kwargs) for args, kwargs in calls]


def witness_stacks(calls):  # per call and weight: its witnesses then their images for every t, the weight, the grid
    stacks = []
    for args, kwargs in calls:
        given = inspect.signature(witness).bind(*args, **kwargs)
        given.apply_defaults()
        t, v, pool = given.arguments["t"], given.arguments["v"], list(given.arguments["witnesses"])
        images = [cesaro.apply(cesaro.CesaroOperator(x), w) for x in np.atleast_1d(t).tolist() for w in pool]
        grid = {{"radii": given.arguments["radii"], "angles": given.arguments["angles"]}}
        stacks += [(pool + images, w, grid) for w in ([v] if isinstance(v, cesaro.Weight) else v)]
    return stacks


modules = [cesaro, operators, dynamics, weights, acceptance]
[(witness, norm_calls)] = recorded(modules, ["operator_norm_witness"], NormPool({LAYER_SEED}))
(solve, eigen_calls), (resolve, resolvent_calls), (preimage, preimage_calls), (forward, forward_calls) = recorded(
    modules, ["eigenpair", "resolvent_apply", "range_preimage", "cesaro_coefficients"], LongSeries({LAYER_SEED})
)
(_, report_forward_calls), (_, report_witness_calls) = recorded(
    modules, ["cesaro_coefficients", "operator_norm_witness"], PaperReport({LAYER_SEED})
)
norm_stacks = witness_stacks(norm_calls)
passes = {{
    "operator_norm_witness_s": lambda: replay(witness, norm_calls + report_witness_calls),
    "weighted_sup_norm_s": lambda: [cesaro.weighted_sup_norm(*stack, **grid) for *stack, grid in norm_stacks],
    "eigenpair_s": eigenpairs,
    "shifted_solve_s": lambda: replay(resolve, resolvent_calls) + replay(preimage, preimage_calls),
    "cesaro_coefficients_s": lambda: replay(forward, forward_calls + report_forward_calls),
}}
seconds = {{}}
for name, run in passes.items():
    start = time.perf_counter()
    run()
    seconds[name] = time.perf_counter() - start
print(json.dumps(seconds))
"""


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def describe(rev: str) -> str:
    """The commit a side stands for: ``rev`` resolved, with ``+working-tree`` for ``.``."""
    if rev == ".":
        return _git("rev-parse", "HEAD").strip() + "+working-tree"
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()


def materialize(rev: str, dest: Path):
    """Copy the files of ``rev`` (a revision, or ``.`` for the working tree) into ``dest``."""
    dest.mkdir(parents=True)
    if rev == ".":
        names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
        for name in filter(None, names):
            source = ROOT / name
            if source.is_file():  # a tracked file deleted in the working tree is left out
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, dest / name)
        return
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def parse_result(stdout: str) -> dict:
    """The result object: the last line of a benchmark run's standard output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def _run_json(args: list, checkout: Path, timeout: float) -> dict:
    """Run ``python <args>`` in ``checkout``: the object on its last output line, or an ``error`` entry."""
    proc = subprocess.run([sys.executable, *args], cwd=checkout, capture_output=True, text=True, timeout=timeout)
    try:
        return parse_result(proc.stdout)
    except ValueError:  # json.JSONDecodeError is a ValueError too
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``checkout``: its result object, or an ``error`` entry."""
    args = ["benchmarks/run.py", "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(seconds), "--trace", str(trace)]
    return _run_json(args, checkout, 30 * seconds + 300)


def traced_runs(checkouts: dict, workload: str, seed: int, seconds: float) -> dict:
    """Per side, :data:`TRACE_REPEATS` traced runs of ``workload`` (the sides alternating which runs first), summarized.

    A side's entry holds its ``runs`` (result objects), and under
    ``metrics`` each per-layer metric's unit, values (one per run that
    reported metrics) and median.  ``count_mismatches`` names every metric
    counted in calls or items (unit ``count``) whose per-pass values differ
    between the side's runs beyond float noise: the same program on the same
    seed must repeat its counts, so a mismatch means the runs did not do the
    same work.
    """
    runs = {side: [] for side in SIDES}
    for k in range(TRACE_REPEATS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(checkouts[side], workload, seed, seconds, 1))
    out = {}
    for side, side_runs in runs.items():
        reported = [run["metrics"] for run in side_runs if "metrics" in run]
        metrics = {}
        for name in dict.fromkeys(name for run in reported for name in run):
            values = [run[name]["value"] for run in reported if name in run]
            metrics[name] = {"unit": reported[0][name]["unit"], "values": values, "median": statistics.median(values)}
        mismatches = [
            name for name, m in metrics.items()
            if m["unit"] == "count" and any(not math.isclose(x, m["values"][0], rel_tol=1e-9, abs_tol=1e-6)
                                            for x in m["values"])
        ]
        out[side] = {"runs": side_runs, "metrics": metrics, "count_mismatches": mismatches}
    return out


def layer_run(checkout: Path) -> dict:
    """One run of :data:`LAYER_SCRIPT` in ``checkout``: seconds per timed layer, or an ``error`` entry."""
    return _run_json(["-c", LAYER_SCRIPT], checkout, 600)


def layer_timings(checkouts: dict) -> dict:
    """Per side and timed layer, the runs and their best; per layer, the change's best over the parent's.

    Each side runs :data:`LAYER_REPEATS` times, the sides alternating which
    runs first.  A side with a failed run holds that run's ``error`` entry
    instead, and its ratios are None.
    """
    runs = {side: [] for side in SIDES}
    for k in range(LAYER_REPEATS):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(layer_run(checkouts[side]))
    out = {}
    for side, side_runs in runs.items():
        failed = [run for run in side_runs if "error" in run]
        out[side] = failed[0] if failed else {
            name: {"best_s": min(run[name] for run in side_runs), "runs_s": [run[name] for run in side_runs]}
            for name in side_runs[0]
        }
    timed = [out[side] for side in SIDES if "error" not in out[side]]
    out["change_over_parent"] = {
        name: out["change"][name]["best_s"] / out["parent"][name]["best_s"] if len(timed) == 2 else None
        for name in dict.fromkeys(name for side in timed for name in side)
    }
    return out


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: each side's spread, the change's wins and its verdict.

    ``runs`` holds one record per untraced run: ``workload``, ``pair``,
    ``side`` and the run's ``result`` object.  A pair where either run
    has no metrics is left out of the statistics and counted as incomplete,
    but it still counts in the pairs a gain must win.  A metric's verdict
    is ``unresolved`` when the parent's spread (q3 - q1) / median is wider
    than its bound, unless every change run is better than every parent run;
    else ``beyond bound`` when the medians' relative loss exceeds the bound;
    else ``gain`` when the change wins at least 9 pairs in 10 of those run,
    the medians differ by more than the parent's interquartile range and no
    larger share of operations failed than at the parent; else ``within bound``.
    """
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        complete = [p for _, p in sorted(pairs.items()) if all("metrics" in p.get(side, {}) for side in SIDES)]
        reported = {side: [p[side] for p in pairs.values() if "metrics" in p.get(side, {})] for side in SIDES}
        failed = {side: sum(r["failed"] for r in reported[side]) for side in SIDES}
        attempted = {side: sum(r["attempted"] for r in reported[side]) for side in SIDES}
        share = {side: failed[side] / attempted[side] if attempted[side] else 0.0 for side in SIDES}
        more_failed = share["change"] > share["parent"] or len(reported["change"]) < len(reported["parent"])
        entry = {
            "pairs": len(pairs),
            "incomplete_pairs": len(pairs) - len(complete),
            "failed": failed,
            "attempted": attempted,
            "more_failed": more_failed,
            "correct": {side: all(r["correct"] for r in reported[side]) for side in SIDES},
            "metrics": {},
        }
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [p[side]["metrics"][name]["value"] for p in complete] for side in SIDES}
            stats = {side: quartiles(values[side]) for side in SIDES}
            base, new = stats["parent"], stats["change"]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
            gain = (base["median"] - new["median"]) if lower else (new["median"] - base["median"])
            relative = -gain / base["median"]  # > 0: the change is worse
            separated = (max(values["change"]) < min(values["parent"])) if lower else (
                min(values["change"]) > max(values["parent"]))
            if base["spread"] > metric["bound"] and not separated:
                verdict = "unresolved"
            elif relative > metric["bound"]:
                verdict = "beyond bound"
            elif 10 * wins >= 9 * len(pairs) and gain > base["q3"] - base["q1"] and not more_failed:
                verdict = "gain"
            else:
                verdict = "within bound"
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **stats,
                "change_wins": wins,
                "relative_change": relative,
                "verdict": verdict,
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pr", required=True, help="the change's number: the output is BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="revision of the parent side")
    parser.add_argument("--change", default=".", help="revision of the change side; '.' is the working tree")
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, one pair per seed (two or more)")
    parser.add_argument("--out", type=Path, default=None, help="output path (default BENCH_<pr>.json in the root)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 2:
        parser.error("quartiles need two or more seeds")
    workloads = [w["name"] for w in spec["workloads"]]
    revs = {"parent": args.parent, "change": args.change}
    report = {
        "environment": environment(),
        "commits": {side: describe(rev) for side, rev in revs.items()},
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    runs, traced = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        checkouts = {side: Path(scratch) / side for side in SIDES}
        for side, rev in revs.items():
            materialize(rev, checkouts[side])
        for workload in workloads:
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    result = run_once(checkouts[side], workload, seed, spec["run_seconds"], 0)
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                 "position": position, "result": result})
                    shown = result.get("metrics", {}).get("wall_ref", {}).get("value", result.get("error"))
                    print(f"{workload} pair {pair} seed {seed} {side}: wall_ref {shown}", file=sys.stderr, flush=True)
            traced[workload] = traced_runs(checkouts, workload, seeds[0], spec["run_seconds"])
        layers = layer_timings(checkouts)
    report["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    report["summary"] = summarize(runs, spec["end_to_end"])
    report["traced"] = traced
    report["layers"] = layers
    report["runs"] = runs
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["summary"].items():
        for name, m in entry["metrics"].items():
            print(
                f"{workload:13s} {name:13s} parent {m['parent']['median']:.5g}  change {m['change']['median']:.5g}"
                f"  {m['relative_change']:+.1%}  wins {m['change_wins']}/{entry['pairs']}"
                f"  {m['verdict']}"
            )
    for name, ratio in layers["change_over_parent"].items():
        print(f"layer {name}: change/parent best {ratio if ratio is None else f'{ratio:.3f}'}")
    mismatched = [(w, side, entry[side]["count_mismatches"]) for w, entry in traced.items() for side in SIDES]
    for workload, side, names in mismatched:
        if names:
            print(f"error: {workload} {side}: counts differ between traced runs: {', '.join(names)}", file=sys.stderr)
    return 1 if any(names for _, _, names in mismatched) else 0


if __name__ == "__main__":
    sys.exit(main())
