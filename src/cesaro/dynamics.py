"""Iterates, ergodic averages and the rank-one limit projection.

For every t in [0, 1], the range :class:`CesaroOperator` decides for every
routine here, the averaging operator is power bounded: the sup-flavor
coefficient norms satisfy |||image|||_k <= |||f|||_k for every k, so all
iterates stay inside the same ball.  Its ergodic averages

    mean_n(f) = (1/n) (C f + C^2 f + ... + C^n f)

converge to the projection of f onto the fixed-point line spanned by the
geometric series g0(z) = 1/(1 - t z), along the hyperplane {g : g(0) = 0}
(at t = 1 coefficientwise, at the rate 1/n).  Since the fixed-point
component of f is determined by the constant term (anything in the
complementary hyperplane vanishes at 0), the limit is simply f[0] * g0.

The hyperplane {g(0) = 0} is exactly the range of (C - I); the constructive
preimage below inverts that map, fixing the kernel-direction ambiguity by
returning the solution with f(0) = 0.  It is one call of the kernel that
also gives resolvents and eigenpairs, :func:`cesaro.operators.shifted_solve`
for (sigma C - nu I) x = c, at sigma = nu = 1 with row 0 pinned to 0.

Iterates run over a (batch x coefficients) stack, one ``cesaro_coefficients``
call per step.  :func:`ergodic_trace` takes a list of series of one
truncation and returns one trace with a row of distances per series;
:func:`power_bound_certificate` iterates all its random trials together,
once for all its k, and returns one report with an excess per k.  The norms
are those of :mod:`cesaro.weights`, measured a stack at a time: one
``frechet_norm`` call for all the k and one ``weighted_sup_norm`` sweep for all the
gammas.  Each row's numbers equal those of the series iterated alone.

In doubles the iterates reach their limit exactly: the second eigenvalue is
1/2, so after some 60-70 steps (about 1075 at t = 0, through subnormals) an
iterate maps to itself bit for bit.  The iterate engine stops calling the
kernel there and repeats that array, so every iterate, mean, trace and
certificate is bitwise the same as that of the plain step loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import specs
from .operators import CesaroOperator, cesaro_coefficients, shifted_solve
from .series import TaylorSeries, geometric_series, random_series
from .weights import Weight, _dropped, _listed, frechet_norm, norm_upper_bound, weighted_sup_norm


def _words(array: np.ndarray) -> memoryview:
    """The bits of a C-contiguous array as 8-byte words, without a copy.

    Two such views compare equal exactly when the arrays are equal bit for
    bit (NaN and signed zeros included), and the comparison stops at the
    first word that differs.
    """
    return memoryview(array.reshape(-1).view(np.uint64))


def _iterates(t: float, coeffs, n: int):
    """Yield the iterates C^m x for m = 1..n of a coefficient vector or stack ``x``.

    Each step is one :func:`cesaro_coefficients` call over the whole stack,
    until an iterate maps to itself bit for bit.  The map is deterministic,
    so every later iterate is that same array: it is made read-only and
    yielded again, the same object, for the remaining steps.
    """
    current = coeffs
    for step in range(n):
        following = cesaro_coefficients(t, current)
        if step and _words(following) == _words(current):  # step 0 compares the caller's input: never frozen
            current.setflags(write=False)
            for _ in range(step, n):
                yield current
            return
        current = following
        yield current


def power_apply(t: float, f: TaylorSeries, n: int) -> TaylorSeries:
    """n-fold application of the parameter-t operator; exact on the prefix."""
    specs.count(n, 1, "iteration count must be >= 1")
    for coeffs in _iterates(t, f.coeffs, n):
        pass
    return TaylorSeries(coeffs)


def cesaro_mean(t: float, f: TaylorSeries, n: int) -> TaylorSeries:
    """The ergodic average (1/n) sum_{m=1..n} of the first n iterates.

    Accumulated incrementally: one operator application per step plus a
    running sum.
    """
    specs.count(n, 1, "averaging horizon must be >= 1")
    total = np.zeros(len(f.coeffs), dtype=complex)
    for current in _iterates(t, f.coeffs, n):
        total += current
    return TaylorSeries(total / n)


def ergodic_limit_projection(t: float, f: TaylorSeries) -> TaylorSeries:
    """The limit of the ergodic averages: f[0] times the fixed point g0.

    Projects onto the kernel of (I - C) along the range {g : g(0) = 0};
    those two subspaces split the whole space, and the kernel is the line
    through g0, for every t in [0, 1].
    """
    CesaroOperator(t)
    g0 = geometric_series(t, f.degree)
    return TaylorSeries(f.coeffs[0] * g0.coeffs)


def range_preimage(t: float, g: TaylorSeries) -> TaylorSeries:
    """Solve (C - I) f = g for g with g(0) = 0, returning the f with f(0) = 0.

    The shifted kernel at sigma = nu = 1: multiplied through by the inverse
    BN of C = N^{-1} (I - tS)^{-1}, row 0 reads 0 = g(0) and is replaced by
    f[0] = 0.  Exact on the prefix of degree deg(g).
    """
    c = g.coeffs
    if abs(c[0]) > 1e-14 * max(1.0, float(np.linalg.norm(c, np.inf))):
        raise ValueError("g is not in the range of (C - I): g(0) must vanish")
    return TaylorSeries(shifted_solve(t, 1, 1, c, pin=(0, 0)))


# -- traces and certificates ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class ErgodicTrace:
    """Distances of the ergodic averages from the limit projection.

    ``distances`` has one column per checkpoint of ``n_values``, and one row
    per series when the trace was taken of a list of them.  ``norm_tag``
    records which norm produced the distances: ``k:<int>`` for the
    sum-flavor coefficient norm, ``ksup:<int>`` for the sup flavor,
    ``gamma:<float>``/``unit`` for weighted sup-norm grid estimates.
    """

    n_values: tuple[int, ...]
    distances: np.ndarray
    norm_tag: str

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("trace checkpoints must be strictly increasing")
        if np.any(np.less(self.distances, 0)):
            raise ValueError("distances must be nonnegative")


def _norm_from_tag(tag: str):
    """The tagged norm as a map from a (batch x coefficients) stack to one value per row."""
    name, arg = specs.parse("norm tag", tag, specs.NORM_TAGS)
    if name in ("k", "ksup"):
        return lambda stack: frechet_norm(stack, arg, "sum" if name == "k" else "sup")
    v = Weight.from_spec(tag)
    return lambda stack: weighted_sup_norm(stack, v).value


def ergodic_trace(t: float, f, n_values, norm_tag: str = "ksup:2"):
    """Distances ||mean_n(f) - limit|| at the requested checkpoints.

    Runs one incremental sweep up to max(n_values), measuring at each
    checkpoint with the tagged norm.  ``f`` is one series or a list of
    series of one truncation, swept as one stack: the trace's distances are
    (series x checkpoints), or one per checkpoint for one series, and each
    row equals its series' own trace.
    """
    message = "checkpoints must be positive integers"
    n_values = sorted({int(specs.count(n, 1, message)) for n in n_values})  # plain ints in the trace
    specs.count(len(n_values), 1, message)
    norm = _norm_from_tag(norm_tag)
    single = isinstance(f, TaylorSeries)
    series = _listed(f, single)
    if not series or len({len(g.coeffs) for g in series}) != 1:
        raise ValueError("a trace batch needs one or more series of one truncation")
    stack = np.array([g.coeffs for g in series])
    limit = np.array([ergodic_limit_projection(t, g).coeffs for g in series])
    checkpoints = set(n_values)
    total = np.zeros_like(stack)
    distances = []
    for step, current in enumerate(_iterates(t, stack, n_values[-1]), start=1):
        total += current
        if step in checkpoints:
            distances.append(norm(total / step - limit))
    return ErgodicTrace(tuple(n_values), _dropped(np.transpose(distances), single), norm_tag)


@dataclass(frozen=True, eq=False)
class PowerBoundReport:
    """Worst excesses seen while certifying power boundedness.

    ``sup_norm_excess`` is the largest violation of
    |||C^n f|||_k <= |||f|||_k across trials (roundoff-level when the
    certificate holds): a float for one k, one value per k for a sequence
    of them.  ``weighted_excess`` maps each sampled gamma to the
    largest excess of the weighted grid estimate of an iterate over that of
    f itself.
    """

    sup_norm_excess: float | np.ndarray
    weighted_excess: dict[float, float]


def power_bound_certificate(
    t: float,
    k: int | Sequence[int] = 2,
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
    standard weights where :func:`norm_upper_bound` bounds the operator norm
    by 1 (every gamma from 1 on, and every gamma at t = 0) the weighted grid
    estimates must not exceed the input's estimate beyond grid slack (nor
    do the norms of the powers).

    ``k`` is one norm index or a sequence of them.  Only the coefficient
    weights r_k**n of the norm depend on k, so the trials are iterated once
    for all of them; each k's excess equals the call for that k alone.
    """
    CesaroOperator(t)  # with n_max = 0 nothing else reaches the forward map
    specs.count(trials, 1, "trials must be >= 1")  # random_series refuses the degree
    specs.count(n_max, 0, "n_max must be >= 0")
    single = np.ndim(k) == 0
    ks = _listed(k, single)
    weights = [Weight.standard(g) for g in gammas]
    for w in weights:
        if norm_upper_bound(t, w) > 1.0:
            raise ValueError(f"the weighted certificate needs a norm bound <= 1, got {w.label} at t = {t}")
    rng = np.random.default_rng(seed)
    stack = np.array([random_series(degree, rng).coeffs for _ in range(trials)])

    def norms(batch):  # one row per k (sup flavor), then one per gamma from a single sweep
        rows = [frechet_norm(batch, ks, "sup")]
        if weights:
            rows.append(weighted_sup_norm(batch, weights, radii, angles, refine=False).value)
        return np.concatenate(rows)

    base = norms(stack)
    excess = np.zeros_like(base)
    previous = None
    for current in _iterates(t, stack, n_max):
        if current is previous:  # the fixed point: it adds nothing to the maxima
            break
        previous = current
        excess = np.maximum(excess, norms(current) - base)
    worst = np.max(excess, axis=1, initial=0.0)
    weighted = dict(zip(map(float, gammas), worst[len(ks) :].tolist()))
    return PowerBoundReport(_dropped(worst[: len(ks)], single), weighted)
