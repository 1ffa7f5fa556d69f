"""Measure the benchmark over several seeds and record the baseline.

Run from the repository root:

    python3 benchmarks/baseline.py --seeds 10 --out benchmarks/baseline.json

For every workload in ``BENCHMARK.json`` it runs the benchmark command once
per seed (seeds 1..n, one run at a time) with ``--trace 0``, and once with
``--trace 1`` on seed 1.  It prints, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median against a third of the metric's bound, and writes all of
it with the same summary of the raw seconds behind the refs (``raw``), the
per-layer values, the interaction map and the environment to ``--out``.  It
exits 1 when a spread other than ``setup_s``'s reaches a third of its bound.
``setup_s`` is left out of that test, as the benchmark's acceptance rule
leaves it out of its spread test: its spread is printed and recorded, and
only its median is compared between two sets of runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The result object of one run, and its ``raw:`` line (empty when traced)."""
    cmd = [sys.executable, *SPEC["command"][1:]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    print(lines[-2], flush=True)
    raw = [json.loads(line[len("raw: ") :]) for line in lines if line.startswith("raw: ")]
    return json.loads(lines[-1]), (raw[0] if raw else {})


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        "blas_threads": {
            var: os.environ.get(var, "unset (OpenBLAS then uses nproc)")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "machine": platform.machine(),
        "commit": commit,
    }


def quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def summarize(values: list[float], bound: float) -> dict:
    stats = quartiles(values)
    return {**stats, "bound": bound, "steady": stats["spread"] < bound / 3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    seeds = list(range(1, args.seeds + 1))
    report = {"environment": environment(), "seeds": seeds, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    unsteady = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs, raws = zip(*(run_once(workload, seed, 0) for seed in seeds))
        traced, _ = run_once(workload, seeds[0], 1)
        summary = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in runs], metric["bound"])
            summary[name] = {"unit": metric["unit"], **stats}
            print(
                f"{workload:13s} {name:13s} median {stats['median']:.5g} {metric['unit']}  "
                f"Q1 {stats['q1']:.5g}  Q3 {stats['q3']:.5g}  spread {stats['spread']:.2%} "
                f"(bound/3 {metric['bound'] / 3:.2%})"
            )
            if name != "setup_s" and not stats["steady"]:
                unsteady.append(f"{workload} {name}")
        raw = {name: quartiles([r[name] for r in raws]) for name in raws[0]}
        for name, stats in raw.items():
            print(f"{workload:13s} raw {name:13s} median {stats['median']:.5g}  spread {stats['spread']:.2%}")
        report["workloads"][workload] = {
            "end_to_end": summary,
            "raw": raw,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "per_layer_seed1": traced["metrics"],
        }
    report["interaction_map"] = {
        name: {"called_on": list(on), "should_move": moves} for name, (on, moves) in tracing.LAYERS.items()
    }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if unsteady:
        print("spread at or above a third of the bound: " + ", ".join(unsteady))
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
