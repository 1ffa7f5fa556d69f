"""Benchmark of the cesaro library: end-to-end metrics, or per-layer ones when traced.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload <paper_report|norm_pool|long_series>
                              --seed <n> --seconds <s> --trace <0|1>

The library is imported from the checkout's ``src/`` directory; the script
refuses to run (exit 2) when that directory is missing.  Each workload runs
in this one process as a closed loop with one client: every query waits for
the previous one.  Its fixed query list (see ``workloads.py``) runs once in
full and then round-robin until ``--seconds`` are used.

Timings are reported in *refs*: multiples of the time a fixed reference
kernel (:class:`Reference`, plain numpy/scipy/Python, no cesaro) takes at
the same moments.  Every query runs under a timer that runs the reference
every 0.1 s, and the reference also runs right before and right after it.
A query is divided by the mean of the faster half of those runs: the
shorter of the two end runs for a query the timer never interrupted, close
to the mean load over a long one, and not thrown by a run that was
itself preempted.  The timer's runs are left out of the query's own time.  Other
tenants of a shared host slow everything down by tens of percent for
seconds to minutes at a time; dividing by the reference time measured at
the same moments cancels most of that, while a change to cesaro moves the
numerator only.  Raw seconds are in the ``raw:`` line.  Each query keeps the
median of its samples.

``--trace 0`` prints the end-to-end metrics:

* ``wall_ref`` -- the query list's time inside ``cesaro`` calls (oracle
  checks excluded), after set-up: the sum of the queries' latencies;
* ``query_p50_ref``, ``query_p90_ref`` -- percentiles of the queries'
  latencies, as Harrell-Davis estimates (a weighted mean of all order
  statistics, steadier than one or two of them); for ``paper_report`` a
  query is one of the 15 checks, and ``wall_ref`` is its headline;
* ``setup_s`` -- median of ``SETUP_PROBES`` fresh processes' time from
  start until the inputs are ready (``import cesaro``, weights, input
  generation);
* ``peak_rss_mb`` -- peak resident memory of this process.

Failed operations (raised where the oracle predicts no raise, or rejected
by their oracle) are the ``failed`` field of the result and, as
``failed_frac``, part of the summary line; any of them makes the run
incorrect (exit 1).  The eigenpair refusals the oracle predicts on
``long_series`` (the overflow of ROADMAP item 5) are not failures; the
summary line counts them, and a traced run reports the refused queries per
pass as ``spectral.eigenpair.refusals``.

``--trace 1`` runs the queries traced, prints per-layer metrics per pass of
the query list (see ``tracing.PER_LAYER``), writes the spans to
``.bench_out/``, and fails when a layer is called where the interaction map
predicts no work, or not called where it predicts work.
``trace.overhead_ref`` is the tracer's own cost per pass: the spans of a pass
times the measured cost of a traced empty call over a bare one.  (The
difference of a traced and an untraced pass is smaller than the run-to-run
noise on most queries, and can come out negative.)

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("paper_report", "norm_pool", "long_series"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="set up, print 'ready' and exit")
    return parser.parse_args(argv)


def _check_sources():
    if not (SRC / "cesaro" / "__init__.py").is_file():
        print(f"error: no cesaro sources under {SRC}; run from a source checkout", file=sys.stderr)
        raise SystemExit(2)


def _import_library():
    """Put the checkout's ``src/`` first on the path; refuse any other cesaro."""
    _check_sources()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import cesaro

    if Path(cesaro.__file__).resolve().parent != (SRC / "cesaro").resolve():
        print(f"error: imported cesaro from {cesaro.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


class Reference:
    """A fixed ~1 ms kernel mixing the work the library does.

    Interpreter loop, length-1024 FFTs, ``lfilter`` over 8192 points and
    small-array numpy calls; it never touches cesaro, so a change to the
    library cannot move it.  Inside :meth:`sampling` a timer also runs it
    every ``PERIOD`` seconds, so a long query has samples from its whole
    duration, not only from its two ends; :meth:`clock` stops while the
    timer's runs last.
    """

    PERIOD = 0.1

    def __init__(self):
        import numpy as np
        from scipy.signal import lfilter

        rng = np.random.default_rng(0)
        self._fft = np.fft.fft
        self._lfilter = lfilter
        self._x = rng.random(1024) + 1j * rng.random(1024)
        self._y = rng.random(8192) + 0j
        self._small = self._x[:64]
        self._timed: list[float] = []
        self._spent = 0.0

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for i in range(3000):
            total += i * 0.5
        for _ in range(10):
            self._fft(self._x)
        for _ in range(3):
            self._lfilter([1.0], [1.0, -0.5], self._y)
        for _ in range(50):
            abs(self._small).max()
        return time.perf_counter() - start

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        self._timed.append(self())
        self._spent += time.perf_counter() - start

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent in the timer's runs."""
        return time.perf_counter() - self._spent

    @contextmanager
    def sampling(self):
        """Yield the list the timer's runs are appended to."""
        self._timed = []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        try:
            yield self._timed
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}: {line!r}")
    return elapsed


def run_queries(wl, seconds: float, tally, reference, tracer=None):
    """Run the query list round-robin for ``seconds``: one full pass, then
    each further query only if its last run still fits before the deadline.

    The first run of a query warms it up and is dropped from the statistics
    when later runs exist.  Returns each query's median latency in refs and
    in seconds, and how often each query ran.
    """
    wl.clock = reference.clock
    refs = [[] for _ in range(len(wl))]
    raw = [[] for _ in range(len(wl))]
    took = [0.0] * len(wl)
    deadline = time.perf_counter() + seconds
    before = reference()
    for i in itertools.cycle(range(len(wl))):
        start = time.perf_counter()
        if raw[-1] and start + took[i] > deadline:
            break
        if tracer is not None:
            tracer.query = i
        with reference.sampling() as during:
            latency = wl.run_query(i, tally)
        took[i] = time.perf_counter() - start
        after = reference()
        runs = sorted([before, after, *during])
        refs[i].append(latency / statistics.fmean(runs[: len(runs) // 2]))
        raw[i].append(latency)
        before = after
    median = lambda samples: [statistics.median(s[1:] or s) for s in samples]
    return median(refs), median(raw), [len(s) for s in raw]


def span_cost(tracer_cls, reference, calls: int = 5000, repeats: int = 5) -> float:
    """The tracer's own cost per span, in refs: a wrapped empty call less a bare one."""

    def noop():
        return None

    wrapped = tracer_cls().wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        before = reference()
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        middle = time.perf_counter()
        for _ in range(calls):
            noop()
        end = time.perf_counter()
        costs.append(((middle - start) - (end - middle)) / calls / min(before, reference()))
    return statistics.median(costs)


def measure(workload, seed, seconds, trace, smoke=False, probes=SETUP_PROBES, out_dir=None):
    """One benchmark run: the result object printed as the last line, and the tally.

    ``smoke`` shrinks the workload's inputs; ``probes`` is the number of
    set-up probes behind ``setup_s``.
    """
    setup_times = [] if trace else [probe_setup(workload, seed) for _ in range(probes)]
    workloads = _import_library()
    from scipy.stats.mstats import hdquantiles

    wl = workloads.build(workload, seed, smoke)
    reference = Reference()
    reference()
    workloads.build(workload, seed, smoke=True).run_query(0, workloads.Tally())  # warm-up
    tally = workloads.Tally()
    if not trace:
        latency, raw, samples = run_queries(wl, seconds, tally, reference)
        p50, p90 = hdquantiles(latency, prob=(0.5, 0.9)).tolist()
        raw_p50, raw_p90 = hdquantiles(raw, prob=(0.5, 0.9)).tolist()
        metrics = {
            "wall_ref": {"value": sum(latency), "unit": "ref"},
            "query_p50_ref": {"value": p50, "unit": "ref"},
            "query_p90_ref": {"value": p90, "unit": "ref"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        problems = []
        summary = (
            f"{workload} seed={seed}: {min(samples)}-{max(samples)} samples of each of {len(wl)} queries; "
            + ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
        )
        # The same figures in seconds, for comparing the refs' spread with them.
        raw_line = {"wall_s": sum(raw), "query_p50_ms": raw_p50 * 1e3, "query_p90_ms": raw_p90 * 1e3}
        print("raw: " + json.dumps(raw_line))
    else:
        import tracing

        tracer = tracing.Tracer(clock=reference.clock)
        with tracing.traced(tracer):
            _, _, samples = run_queries(wl, seconds, tally, reference, tracer)
        stats = tracer.layer_stats(samples)
        overhead = sum(s["calls"] for s in stats.values()) * span_cost(tracing.Tracer, reference)
        metrics = tracing.per_layer_metrics(stats, overhead)
        metrics["spectral.eigenpair.refusals"] = {"value": float(len(tally.refused)), "unit": "count"}
        problems = tracing.guard(workload, stats)
        out_dir = Path(out_dir) if out_dir is not None else ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{workload}-seed{seed}.npz")
        summary = (
            f"{workload} seed={seed}: {min(samples)}-{max(samples)} traced samples of each query; "
            f"{len(tracer.start)} spans; trace.overhead_ref={overhead:.4g} ref per pass"
        )
    failed_frac = tally.failed / tally.attempted
    print(
        f"{summary}; failed_frac={failed_frac:.6g} ({tally.failed}/{tally.attempted}); "
        f"{tally.refusals} predicted eigenpair refusals ({len(tally.refused)} distinct)"
    )
    for line in tally.errors[:20] + problems:
        print(f"  {line}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, tally


def main(argv=None) -> int:
    args = _parse(argv)
    _check_sources()
    if args.setup_probe:
        workloads = _import_library()
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
