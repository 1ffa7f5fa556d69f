"""Iterates, ergodic averages and the rank-one limit projection.

For t in [0, 1) the averaging operator is power bounded: the sup-flavor
coefficient norms satisfy |||image|||_k <= |||f|||_k for every k, so all
iterates stay inside the same ball.  Its ergodic averages

    mean_n(f) = (1/n) (C f + C^2 f + ... + C^n f)

converge to the projection of f onto the fixed-point line spanned by the
geometric series g0(z) = 1/(1 - t z), along the hyperplane {g : g(0) = 0}.
Since the fixed-point component of f is determined by the constant term
(anything in the complementary hyperplane vanishes at 0), the limit is
simply f[0] * g0.

The hyperplane {g(0) = 0} is exactly the range of (C - I); the constructive
preimage below inverts that map, fixing the kernel-direction ambiguity by
returning the solution with f(0) = 0.

Iterates run over a (batch x coefficients) stack: each step is one
``cesaro_coefficients`` call for the whole batch.  :func:`ergodic_trace`
takes a list of series of one truncation and returns one trace per series,
and :func:`power_bound_certificate` iterates all its random trials
together; each row's numbers equal those of the series iterated alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specs
from .operators import bidiagonal_solve, cesaro_coefficients, inverse_coefficients
from .series import TaylorSeries, geometric_series
from .weights import Weight, frechet_norm, weighted_sup_norm


def _iterates(t: float, coeffs, n: int):
    """Yield the iterates C^m x for m = 1..n of a coefficient vector or stack ``x``.

    Each step is one :func:`cesaro_coefficients` call over the whole stack.
    """
    current = coeffs
    for _ in range(n):
        current = cesaro_coefficients(t, current)
        yield current


def power_apply(t: float, f: TaylorSeries, n: int) -> TaylorSeries:
    """n-fold application of the parameter-t operator; exact on the prefix."""
    if n < 1:
        raise ValueError("iteration count must be >= 1")
    for coeffs in _iterates(t, f.coeffs, n):
        pass
    return TaylorSeries(coeffs)


def cesaro_mean(t: float, f: TaylorSeries, n: int) -> TaylorSeries:
    """The ergodic average (1/n) sum_{m=1..n} of the first n iterates.

    Accumulated incrementally: one operator application per step plus a
    running sum.
    """
    if n < 1:
        raise ValueError("averaging horizon must be >= 1")
    total = np.zeros(len(f.coeffs), dtype=complex)
    for current in _iterates(t, f.coeffs, n):
        total += current
    return TaylorSeries(total / n)


def ergodic_limit_projection(t: float, f: TaylorSeries) -> TaylorSeries:
    """The limit of the ergodic averages: f[0] times the fixed point g0.

    Projects onto the kernel of (I - C) along the range {g : g(0) = 0};
    those two subspaces split the whole space, and the kernel is the line
    through g0.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("the ergodic projection is defined for t in [0, 1)")
    g0 = geometric_series(t, f.degree)
    return TaylorSeries(f.coeffs[0] * g0.coeffs)


def range_preimage(t: float, g: TaylorSeries) -> TaylorSeries:
    """Solve (C - I) f = g for g with g(0) = 0, returning the f with f(0) = 0.

    Multiplied through by the inverse BN of C = N^{-1} (I - tS)^{-1} this is
    (I - BN) f = BN g, the resolvent system at nu = 1: lower bidiagonal with
    diagonal -n and subdiagonal t n.  Its row 0 reads 0 = g(0) and is replaced
    by f[0] = 0.  Exact on the prefix of degree deg(g).
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("range preimage is defined for t in [0, 1)")
    c = g.coeffs
    if abs(c[0]) > 1e-14 * max(1.0, float(np.max(np.abs(c)))):
        raise ValueError("g is not in the range of (C - I): g(0) must vanish")
    n = np.arange(g.degree + 1)
    rhs = (n > 0) * inverse_coefficients(t, c)  # row 0 becomes f[0] = 0
    return TaylorSeries(bidiagonal_solve(np.where(n > 0, -n, 1), t * n[1:], rhs))


# -- traces and certificates ----------------------------------------------------


@dataclass(frozen=True)
class ErgodicTrace:
    """Distances of the ergodic averages from the limit projection.

    ``norm_tag`` records which norm produced the distances: ``k:<int>`` for
    the sum-flavor coefficient norm, ``ksup:<int>`` for the sup flavor,
    ``gamma:<float>``/``unit`` for weighted sup-norm grid estimates.
    """

    n_values: tuple[int, ...]
    distances: tuple[float, ...]
    norm_tag: str

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("trace checkpoints must be strictly increasing")
        if any(d < 0 for d in self.distances):
            raise ValueError("distances must be nonnegative")


def _norm_from_tag(tag: str):
    """The tagged norm as a map from a (batch x coefficients) stack to one value per row."""
    name, arg = specs.parse("norm tag", tag, specs.NORM_TAGS)
    if name in ("k", "ksup"):
        flavor = "sum" if name == "k" else "sup"
        return lambda stack: np.array([frechet_norm(TaylorSeries(row), arg, flavor) for row in stack])
    v = Weight.unit() if name == "unit" else Weight.standard(arg)
    return lambda stack: np.array([e.value for e in weighted_sup_norm(stack, v)])


def ergodic_trace(t: float, f, n_values, norm_tag: str = "ksup:2"):
    """Distances ||mean_n(f) - limit|| at the requested checkpoints.

    Runs one incremental sweep up to max(n_values), measuring at each
    checkpoint with the tagged norm.  ``f`` is one series (returns one
    trace) or a list of series of one truncation (returns one trace per
    series); a list is swept as one stack, each trace equal to its series'
    own.
    """
    n_values = sorted(set(int(n) for n in n_values))
    if not n_values or n_values[0] < 1:
        raise ValueError("checkpoints must be positive integers")
    norm = _norm_from_tag(norm_tag)
    single = isinstance(f, TaylorSeries)
    series = [f] if single else list(f)
    if not series or len({len(g.coeffs) for g in series}) != 1:
        raise ValueError("a trace batch needs one or more series of one truncation")
    stack = np.array([g.coeffs for g in series])
    limit = np.array([ergodic_limit_projection(t, g).coeffs for g in series])
    checkpoints = set(n_values)
    total = np.zeros_like(stack)
    distances = {}
    for step, current in enumerate(_iterates(t, stack, n_values[-1]), start=1):
        total += current
        if step in checkpoints:
            distances[step] = norm(total / step - limit)
    traces = [
        ErgodicTrace(tuple(n_values), tuple(float(distances[n][i]) for n in n_values), norm_tag)
        for i in range(len(series))
    ]
    return traces[0] if single else traces


@dataclass(frozen=True)
class PowerBoundReport:
    """Worst excesses seen while certifying power boundedness.

    ``sup_norm_excess`` is the largest violation of
    |||C^n f|||_k <= |||f|||_k across trials (roundoff-level when the
    certificate holds).  ``weighted_excess`` maps each sampled gamma >= 1 to
    the largest excess of the weighted grid estimate of an iterate over that
    of f itself.
    """

    t: float
    k: int
    trials: int
    n_max: int
    sup_norm_excess: float
    weighted_excess: dict[float, float]


def power_bound_certificate(
    t: float,
    k: int = 2,
    trials: int = 20,
    n_max: int = 50,
    degree: int = 64,
    gammas: tuple[float, ...] = (1.0,),
    seed: int = 0,
    radii: int = 32,
    angles: int = 256,
) -> PowerBoundReport:
    """Measure iterate norms against the power-boundedness predictions.

    For random test functions and every n <= n_max the sup-flavor norm of the
    n-th iterate must not exceed that of the input (up to roundoff), and for
    standard weights with gamma >= 1 the weighted grid estimates must not
    exceed the input's estimate beyond grid slack (those operator norms are
    exactly 1, for every power).
    """
    if k < 2:
        raise ValueError("norm index k must be >= 2")
    if any(g < 1.0 for g in gammas):
        raise ValueError("the weighted certificate applies to gamma >= 1")
    rng = np.random.default_rng(seed)
    ratios = 1.0 - 1.0 / k
    powers = ratios ** np.arange(degree + 1)
    trials_stack = np.array(
        [rng.random(degree + 1) + 1j * rng.random(degree + 1) for _ in range(trials)]
    ).reshape(trials, degree + 1)
    weights = {float(g): Weight.standard(g) for g in gammas}
    weighted_norms = lambda stack, w: np.array(
        [e.value for e in weighted_sup_norm(stack, w, radii, angles, refine=False)]
    )
    base = np.max(np.abs(trials_stack) * powers, axis=1)
    base_weighted = {g: weighted_norms(trials_stack, w) for g, w in weights.items()}
    sup_excess = np.zeros(trials)
    weighted_excess = {g: np.zeros(trials) for g in weights}
    for current in _iterates(t, trials_stack, n_max):
        sup_excess = np.maximum(sup_excess, np.max(np.abs(current) * powers, axis=1) - base)
        for g, w in weights.items():
            excess = weighted_norms(current, w) - base_weighted[g]
            weighted_excess[g] = np.maximum(weighted_excess[g], excess)
    worst = lambda excess: float(np.max(excess, initial=0.0))
    return PowerBoundReport(
        t, k, trials, n_max, worst(sup_excess), {g: worst(e) for g, e in weighted_excess.items()}
    )
