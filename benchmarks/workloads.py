"""The benchmark's three workloads: seeded inputs, timed operations, oracles.

Each workload is a fixed list of queries made from ``--seed``.  A query is
one or more calls into ``cesaro``; only the calls are timed.  Every output
is then checked, outside the timed region, against an oracle written here
from first principles (plain numpy/scipy, never through the library), so
the checks neither add spans to the trace nor share code with what they
check.

* ``paper_report`` -- the 15 acceptance checks at their contract defaults,
  in registry order: what ``cesaro report`` runs.  The inputs are fixed by
  the checks' own seeds, so ``--seed`` does not change them.  Oracle: each
  check's own verdict.
* ``norm_pool`` -- 100 ``operator_norm_witness`` queries shaped like
  ``cesaro norm`` at the CLI grid defaults.  Oracle: the proven upper bound
  (plus check 12's grid slack), and for the unit weight the exact
  ``-log(1-t)/t`` within check 1's relative tolerance.
* ``long_series`` -- 100 queries on one long random series each (degree
  log-uniform in [2**10, 2**17]): apply with the inverse round trip, a
  resolvent solve, an eigenpair, a range preimage and a product scan.
  Oracles: residuals at the acceptance suite's tolerances and check 8's
  envelope bounds.  The eigenpair index reaches the regime where the
  normalized eigenvector overflows double precision.  The oracle predicts
  which calls overflow (:func:`eigenpair_overflows`).  There the library
  may refuse with a ``ValueError`` (what it does today, the overflow defect
  of ROADMAP item 5), counted as a *refusal* and reported per pass, or return
  a rescaled pair that passes the eigen oracle (what a scaled or log-space
  recurrence would do).  Neither is a failed operation.

Any other raise counts as a failed operation, and the run is then
incorrect, whatever the timings say.  So is an output its oracle
rejects.  A correct run therefore has no failed operations.

Random draws are stratified (one draw per equal-probability stratum, in a
random order), so two seeds give different inputs with nearly the same total
work; that keeps seed-to-seed spread from swamping the timings.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter
from scipy.special import gammaln

import cesaro
from cesaro import acceptance

WORKLOADS = ("paper_report", "norm_pool", "long_series")

#: Grid sizes ``cesaro norm`` uses by default.
CLI_RADII = 64
CLI_ANGLES = 1024

NORM_POOL_WEIGHTS = ("unit", "gamma:0.5", "gamma:1", "gamma:2", "logpow:1", "logpow:2")
#: The ``nu`` values of acceptance check 8 (product growth envelopes).
PRODUCT_NUS = (2.0, -1.0, 1 + 1j, 0.4 + 0.8j)

#: Reduced-size check arguments for the smoke run; chosen so that every
#: check still passes and still calls the same layers.
SMOKE_CHECK_ARGS = {
    "check_operator_norm_formula": dict(truncation=256, angles=1024, t_values=(0.3, 0.7)),
    "check_norm_sandwich": dict(truncation=256, angles=256, t_values=(0.3, 0.7)),
    "check_inverse_round_trips": dict(trials=5),
    "check_eigenpairs": dict(truncation=128, m_values=(0, 3)),
    "check_resolvent": dict(truncation=64, trials=3),
    "check_product_bounds": dict(n_max=1000),
    "check_power_boundedness": dict(t_values=(0.5,), k_values=(2,), trials=3, n_max=20),
    "check_mean_ergodicity": dict(trials=2, horizon=256),
    "check_norm_equivalences": dict(trials=10),
    "check_standard_weight_norms": dict(pool_size=3, degree=32, t_values=(0.5,)),
    "check_log_weight_divergence": dict(truncation=1024),
    "check_integral_series_agreement": dict(trials=5),
}


#: log of the largest finite double.
LOG_DBL_MAX = math.log(np.finfo(float).max)


@dataclass
class Tally:
    """Operations attempted, raised, refused, checked by their oracle, and rejected by it.

    ``raised`` counts raises the oracle did not predict, which make the run
    incorrect; ``refused`` holds the labels of operations that raised a
    ``ValueError`` where the oracle predicts an overflow, a refusal that is
    not a failure.
    """

    attempted: int = 0
    raised: int = 0
    rejected: int = 0
    checked: int = 0
    refusals: int = 0
    refused: set = field(default_factory=set)
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.raised + self.rejected


def _stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws in [0, 1), one per stratum [k/count, (k+1)/count), shuffled."""
    return (rng.permutation(count) + rng.random(count)) / count


def _log_uniform_int(u: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return np.rint(np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))).astype(int)


def _cesaro(t: float, x: np.ndarray) -> np.ndarray:
    """Oracle-side operator: (C_t x)[n] = sum_k t**(n-k) x[k] / (n+1)."""
    return lfilter([1.0], [1.0, -t], x) / np.arange(1, len(x) + 1)


def _rel(residual: np.ndarray, scale: np.ndarray) -> float:
    return float(np.max(np.abs(residual)) / np.max(np.abs(scale)))


def eigenpair_overflows(t: float, m: int, truncation: int) -> bool | None:
    """Whether ``cesaro.eigenpair(t, m, truncation)`` overflows double precision.

    The eigenvector is x[n] = C(n, m) t**(n-m); its recurrence forms the
    product t n x[n-1] = (n-m) x[n] before dividing, so it overflows when
    max_n (n-m) C(n, m) t**(n-m) exceeds the largest double.  Worked out in
    log space; ``None`` when the maximum sits too close to the limit for the
    recurrence's rounding to decide.
    """
    if t == 0.0 or m >= truncation:
        return False
    n = np.arange(m + 1, truncation + 1, dtype=float)
    log_product = np.log(n - m) + gammaln(n + 1) - gammaln(m + 1) - gammaln(n - m + 1) + (n - m) * math.log(t)
    margin = float(np.max(log_product)) - LOG_DBL_MAX
    return None if abs(margin) < 1e-9 else margin > 0


def _log_bound(t: float) -> float:
    return 1.0 if t == 0.0 else -math.log1p(-t) / t


def _proven_bound(t: float, spec: str) -> float:
    """The operator-norm upper bound the paper proves for the weight ``spec``."""
    if spec.startswith("gamma:"):
        gamma = float(spec.split(":", 1)[1])
        return 1.0 if gamma >= 1.0 else min(_log_bound(t), 1.0 / gamma)
    return _log_bound(t)


class Workload:
    """A fixed query list; :meth:`run_query` times one query and checks it.

    ``clock`` times the calls; a caller that interrupts the calls with work
    of its own sets it to a clock that stops during that work.
    """

    name = ""
    clock = staticmethod(time.perf_counter)

    def __len__(self) -> int:
        raise NotImplementedError

    def run_query(self, i: int, tally: Tally) -> float:
        """Run query ``i``; return the seconds spent inside ``cesaro`` calls."""
        raise NotImplementedError

    def _call(self, tally: Tally, label: str, fn, *args, raises=False, **kwargs):
        """Time one operation; an unpredicted exception is a failed operation.

        ``raises`` is the oracle's prediction: ``True`` or ``None`` when the
        operation may refuse with a ``ValueError`` (an overflow, or too close
        to one to decide), ``False`` when it must not raise.  A predicted
        refusal is counted in ``tally.refused``; any other raise is a
        failure.  A returned output goes to the caller's oracle either way.
        """
        tally.attempted += 1
        start = self.clock()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            elapsed = self.clock() - start
            if raises is not False and isinstance(exc, ValueError):
                tally.refusals += 1
                tally.refused.add(label)
                tally.errors.append(f"{label}: refused: {exc}")
            else:
                tally.raised += 1
                tally.errors.append(f"{label}: unexpected {type(exc).__name__}: {exc}")
            return None, elapsed
        return out, self.clock() - start

    @staticmethod
    def _judge(tally: Tally, label: str, ok: bool, detail: str) -> None:
        tally.checked += 1
        if not ok:
            tally.rejected += 1
            tally.errors.append(f"{label}: oracle rejected output ({detail})")


class PaperReport(Workload):
    name = "paper_report"

    def __init__(self, seed: int, smoke: bool = False):
        del seed  # the checks carry their own seeds
        self.smoke = smoke
        self.count = len(acceptance.ACCEPTANCE_CHECKS)

    def __len__(self) -> int:
        return self.count

    def run_query(self, i: int, tally: Tally) -> float:
        # Looked up per call, so a traced run sees the rebound registry.
        check = acceptance.ACCEPTANCE_CHECKS[i]
        kwargs = SMOKE_CHECK_ARGS.get(check.__name__, {}) if self.smoke else {}
        result, elapsed = self._call(tally, check.__name__, check, **kwargs)
        if result is not None:
            self._judge(tally, check.__name__, result.passed, result.detail)
        return elapsed


class NormPool(Workload):
    name = "norm_pool"

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        count, pool_extra, max_degree = (6, 2, 256) if smoke else (100, 4, 2048)
        self.weights = {spec: cesaro.Weight.from_spec(spec) for spec in NORM_POOL_WEIGHTS}
        self.specs = [NORM_POOL_WEIGHTS[i % len(NORM_POOL_WEIGHTS)] for i in range(count)]
        self.ts = 0.05 + 0.9 * _stratified(rng, count)
        degrees = _log_uniform_int(_stratified(rng, count * pool_extra), 8, max_degree)
        f1 = cesaro.constant_one(512)
        self.pools = [
            [f1] + [cesaro.random_series(int(d), rng) for d in degrees[q * pool_extra : (q + 1) * pool_extra]]
            for q in range(count)
        ]

    def __len__(self) -> int:
        return len(self.ts)

    def run_query(self, i: int, tally: Tally) -> float:
        t, spec = float(self.ts[i]), self.specs[i]
        est, elapsed = self._call(
            tally,
            f"norm[{i}]",
            cesaro.operator_norm_witness,
            t,
            self.weights[spec],
            self.pools[i],
            radii=CLI_RADII,
            angles=CLI_ANGLES,
        )
        if est is not None:
            bound = _proven_bound(t, spec)
            ok = est.value <= bound + 5e-3
            if spec == "unit":
                ok = ok and abs(est.value - bound) <= 1e-3 * bound
            self._judge(tally, f"norm[{i}]", ok, f"t={t}, {spec}: {est.value} vs bound {bound}")
        return elapsed


@dataclass(frozen=True)
class SeriesQuery:
    t: float
    f: object  # cesaro.TaylorSeries
    g: object  # f with g(0) = 0
    nu: complex
    m: int
    product_nu: complex


class LongSeries(Workload):
    name = "long_series"

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        count, log2_lo, log2_hi, m_max = (6, 7, 10, 32) if smoke else (100, 10, 17, 256)
        sizes = _log_uniform_int(_stratified(rng, count), 2**log2_lo, 2**log2_hi)
        ts = 0.99 * _stratified(rng, count)
        ms = np.floor((m_max + 1) * _stratified(rng, count)).astype(int)
        self.queries = []
        for n, t, m in zip(sizes, ts, ms):
            f = cesaro.random_series(int(n), rng)
            coeffs = f.coeffs.copy()
            coeffs[0] = 0.0
            while True:
                nu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if cesaro.spectrum_distance(nu) >= 0.1:
                    break
            product_nu = PRODUCT_NUS[int(rng.integers(len(PRODUCT_NUS)))]
            self.queries.append(SeriesQuery(float(t), f, cesaro.TaylorSeries(coeffs), nu, int(m), product_nu))

    def __len__(self) -> int:
        return len(self.queries)

    def run_query(self, i: int, tally: Tally) -> float:
        q = self.queries[i]
        c = q.f.coeffs
        tag = f"series[{i}] N={len(c) - 1} t={q.t:.4f}"

        def round_trip():
            image = cesaro.apply(cesaro.CesaroOperator(q.t), q.f)
            return cesaro.apply_inverse(cesaro.InverseOperator(q.t), image)

        back, s1 = self._call(tally, f"{tag} round trip", round_trip)
        if back is not None:
            err = _rel(back.coeffs - c, c)
            self._judge(tally, f"{tag} round trip", err <= 1e-12, f"rel {err:.2e}")

        a, s2 = self._call(
            tally, f"{tag} resolvent", lambda: cesaro.resolvent_apply(cesaro.ResolventQuery(q.nu, q.f), q.t)
        )
        if a is not None:
            x = a.coeffs
            err = _rel(_cesaro(q.t, x) - q.nu * x - c, c)
            self._judge(tally, f"{tag} resolvent nu={q.nu}", err <= 1e-9, f"rel {err:.2e}")

        overflows = eigenpair_overflows(q.t, q.m, len(c) - 1)
        with warnings.catch_warnings():
            # The overflow regime warns before it raises; the raise is counted.
            warnings.simplefilter("ignore", RuntimeWarning)
            pair, s3 = self._call(
                tally, f"{tag} eigenpair m={q.m}", cesaro.eigenpair, q.t, q.m, len(c) - 1, raises=overflows
            )
        if pair is not None:
            x = pair.series.coeffs
            scaled = x / np.max(np.abs(x))  # the residual is scale-free; keep lfilter finite
            err = _rel(_cesaro(q.t, scaled) - scaled / (q.m + 1.0), scaled)
            # Where x[m] = 1 would overflow, only a rescaled pair can be returned.
            lead_ok = x[q.m] != 0.0 if overflows else x[q.m] == 1.0
            shape_ok = lead_ok and not np.any(x[: q.m]) and pair.eigenvalue == 1.0 / (q.m + 1.0)
            self._judge(tally, f"{tag} eigenpair m={q.m}", shape_ok and err <= 1e-13, f"rel {err:.2e}")

        h, s4 = self._call(tally, f"{tag} range preimage", cesaro.range_preimage, q.t, q.g)
        if h is not None:
            y = h.coeffs
            err = _rel(_cesaro(q.t, y) - y - q.g.coeffs, q.g.coeffs)
            self._judge(tally, f"{tag} range preimage", y[0] == 0 and err <= 1e-10, f"rel {err:.2e}")

        scan, s5 = self._call(tally, f"{tag} product scan", cesaro.product_bound_scan, q.product_nu, len(c) - 1)
        if scan is not None:
            ratio, slope = scan.D_hat / scan.d_hat, abs(scan.tail_slope)
            self._judge(
                tally,
                f"{tag} product scan nu={q.product_nu}",
                ratio < 20.0 and slope <= 0.02,
                f"D/d {ratio:.3f}, slope {slope:.4f}",
            )
        return s1 + s2 + s3 + s4 + s5


_CLASSES = {cls.name: cls for cls in (PaperReport, NormPool, LongSeries)}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Make the workload's inputs from ``seed``; ``smoke`` shrinks every size."""
    return _CLASSES[name](seed, smoke)
