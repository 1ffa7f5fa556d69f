"""Radial weights and the norms they induce on analytic functions.

A weight is a continuous, non-increasing, strictly positive function ``v``
on [0, 1), extended radially to the disc by ``v(z) = v(|z|)``.  Supported
families:

* ``unit``            -- v(r) = 1 (the plain sup-norm),
* ``standard_gamma``  -- v(r) = (1 - r)**gamma for gamma > 0,
* ``log_power``       -- v(r) = log(e/(1 - r))**(-n) for integer n >= 1,
* ``table``           -- linear interpolation of sampled values.

The weighted sup-norm ``sup_z v(z) |f(z)|`` is estimated on grids: a radial
grid geometrically clustered toward the boundary (r_j = 1 - 2**(-j/4)) and a
uniform angle grid evaluated by FFT.  Grid estimates are one-sided: they are
honest lower bounds of the true supremum and converge from below as grids
refine.  An optional golden-section polish along the radius tightens the
bound; it only ever evaluates the function, so the one-sided semantics
survive (no extrapolation).

Batches: :func:`circle_max`, :func:`weighted_sup_norm` and
:func:`frechet_norm` also take a (batch x coefficients) stack, whose rows
are series zero-padded to one width, and :func:`weighted_sup_norm` takes a
list of series of any degrees.  A batch costs one FFT call per grid radius
and one per polish step (one radius per row there), and every row's result
equals the result for that series alone.

Sweeps: :func:`weighted_sup_norm` also takes a sequence of weights.  Its
grid pass is shared by all of them (one FFT call per grid radius in all),
and each weight then runs its own argmax and polish.
:func:`operator_norm_witness` takes a sequence of ``t`` and/or of weights:
it stacks the witnesses once, followed by their images for every ``t``,
and measures the stack in one :func:`weighted_sup_norm` call, returning
one estimate per (weight, t).  A single ``t`` and weight is the 1 x 1 case
of the same path, and every entry of a sweep equals its single call.

Also here: the norm families sum_n |f[n]| r_k**n and sup_n |f[n]| r_k**n
with r_k = 1 - 1/k, proven upper bounds for operator norms, and
witness-based lower bounds for them.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import specs
from .operators import CesaroOperator, apply
from .series import TaylorSeries

#: Default grid sizes for weighted-norm estimation.
DEFAULT_RADII = 64
DEFAULT_ANGLES = 1024

_MONOTONE_SLACK = 1e-12


class Weight:
    """A radial weight with vectorized evaluation ``v(r)``.

    Construct through the factory classmethods (:meth:`unit`,
    :meth:`standard`, :meth:`log_power`, :meth:`from_table`) or parse a CLI
    spec string with :meth:`from_spec`.  Construction samples the evaluator
    and rejects weights that fail positivity or monotonicity.
    """

    def __init__(self, kind: str, label: str, evaluator, boundary_limit_zero: bool):
        self.kind = kind
        self.label = label
        self._evaluator = evaluator
        self.boundary_limit_zero = boundary_limit_zero
        self._check_shape()

    # -- factories ---------------------------------------------------------

    @classmethod
    def unit(cls) -> "Weight":
        return cls("unit", "unit", lambda r: np.ones_like(np.asarray(r, dtype=float)), False)

    @classmethod
    def standard(cls, gamma: float) -> "Weight":
        """v(r) = (1 - r)**gamma."""
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        gamma = float(gamma)
        ev = lambda r: (1.0 - np.asarray(r, dtype=float)) ** gamma
        w = cls("standard_gamma", f"gamma:{gamma:g}", ev, True)
        w.gamma = gamma
        return w

    @classmethod
    def log_power(cls, n: int) -> "Weight":
        """v(r) = log(e/(1 - r))**(-n), i.e. (1 - log(1 - r))**(-n)."""
        n = int(n)
        if n < 1:
            raise ValueError("log-power exponent must be a positive integer")
        ev = lambda r: (1.0 - np.log1p(-np.asarray(r, dtype=float))) ** (-float(n))
        w = cls("log_power", f"logpow:{n}", ev, True)
        w.power = n
        return w

    @classmethod
    def from_table(cls, radii, values) -> "Weight":
        """Linear interpolation of sampled (r, v(r)); monotonicity-checked at load."""
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or len(radii) < 2:
            raise ValueError("table weight needs matching 1-d arrays of length >= 2")
        if np.any(radii < 0) or np.any(radii >= 1) or np.any(np.diff(radii) <= 0):
            raise ValueError("table radii must be strictly increasing inside [0, 1)")
        if np.any(values <= 0):
            raise ValueError("table weight values must be strictly positive")
        if np.any(np.diff(values) > _MONOTONE_SLACK):
            raise ValueError("table weight values must be non-increasing")
        ev = lambda r: np.interp(np.asarray(r, dtype=float), radii, values)
        vanishes = values[-1] <= 1e-3 * values[0]
        return cls("table", "table", ev, bool(vanishes))

    @classmethod
    def from_spec(cls, spec: str) -> "Weight":
        """Parse ``unit``, ``gamma:<float>``, ``logpow:<int>`` or ``table:<path>`` (a CSV of ``r,v``)."""
        name, arg = specs.parse("weight spec", spec, specs.WEIGHTS)
        if name == "unit":
            return cls.unit()
        if name == "gamma":
            return cls.standard(arg)
        if name == "logpow":
            return cls.log_power(arg)
        with warnings.catch_warnings():  # an empty table is refused below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(arg, delimiter=",", ndmin=2)
        if rows.size == 0:
            raise ValueError(f"weight table {arg} has no rows of the columns r,v")
        if rows.shape[1] < 2:
            raise ValueError(f"weight table {arg} needs the columns r,v")
        return cls.from_table(rows[:, 0], rows[:, 1])

    # -- evaluation --------------------------------------------------------

    def __call__(self, r):
        return self._evaluator(r)

    def _check_shape(self):
        rs = 1.0 - 2.0 ** (-np.linspace(0.0, 20.0, 257))
        vals = np.asarray(self(rs), dtype=float)
        if np.all(np.isfinite(vals) & (vals >= 0)) and np.any(vals == 0):
            raise ValueError(f"weight {self.label} underflows to 0 in double precision near r = 1")
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise ValueError("weight must be finite and strictly positive on [0, 1)")
        if np.any(np.diff(vals) > _MONOTONE_SLACK * vals[0]):
            raise ValueError("weight must be non-increasing on [0, 1)")

    def __repr__(self) -> str:
        return f"Weight({self.label})"


@dataclass(frozen=True)
class NormEstimate:
    """A norm value with one-sided semantics and the grid that produced it.

    ``direction`` is ``"grid_estimate"`` for sup-norm grid maxima (a lower
    bound of the true supremum) or ``"lower_witness"`` for witness-ratio
    operator-norm bounds.
    """

    value: float
    direction: str
    radii: int
    angles: int
    truncation: int
    refined: bool = False


# -- circle and disc maxima --------------------------------------------------


def circle_max(f, r, angles: int):
    """Max of |f| over ``angles`` equispaced points of the circle |z| = r.

    Folds the r-scaled coefficients modulo the grid size and takes one FFT,
    which reproduces the grid maximum exactly (the uniform grid is closed
    under the FFT's angle sign convention).  Accepts r = 0.  By the maximum
    principle this also samples the compact-set norm sup_{|z| <= r} |f(z)|.

    ``f`` is a :class:`TaylorSeries` (returns a float) or a zero-padded
    (batch x coefficients) stack (returns one maximum per row, each equal
    to the maximum of that row alone).  With a stack, ``r`` is one radius
    for all rows or one radius per row; per-row powers are only computed up
    to each row's last nonzero coefficient.
    """
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 <= r) & (r < 1.0)):
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    if angles < 1:
        raise ValueError("angle count must be >= 1")
    single = isinstance(f, TaylorSeries)
    coeffs = f.coeffs[None, :] if single else np.asarray(f, dtype=complex)
    rows, width = coeffs.shape
    n = np.arange(width)
    # |f(0)| by hypot, which rounds like the scalar modulus (np.abs of a
    # complex array may differ from it in the last bit).
    center = np.hypot(coeffs[:, 0].real, coeffs[:, 0].imag)
    if r.ndim == 0:
        if r == 0.0:
            return float(center[0]) if single else center
        powers = float(r) ** n  # one radius: computed once, broadcast over the rows
    else:
        last = width - 1 - np.argmax(coeffs[:, ::-1] != 0, axis=1)
        powers = np.zeros(coeffs.shape)
        np.power(r[:, None], n, out=powers, where=n <= last[:, None])
    scaled = coeffs * powers
    if width > angles:
        folds = -(-width // angles)
        buf = np.zeros((rows, folds * angles), dtype=complex)
        buf[:, :width] = scaled
        scaled = buf.reshape(rows, folds, angles).sum(axis=1)
    peak = np.max(np.abs(np.fft.fft(scaled, n=angles, axis=-1)), axis=-1)
    if r.ndim:
        peak = np.where(r == 0.0, center, peak)
    return float(peak[0]) if single else peak


def radial_grid(count: int) -> np.ndarray:
    """r_j = 1 - 2**(-j/4): geometric clustering toward the boundary.

    Weighted sup-norms are typically attained near |z| = 1; uniform radial
    grids systematically under-estimate them.
    """
    if count < 1:
        raise ValueError("radial grid needs count >= 1")
    return 1.0 - 2.0 ** (-np.arange(count) / 4.0)


def _coefficient_stack(series) -> tuple[np.ndarray, list[int]]:
    """A list of series as one zero-padded (batch x coefficients) stack, with the degrees."""
    if isinstance(series, np.ndarray) and series.ndim == 2:
        return series, [series.shape[1] - 1] * len(series)
    degrees = [g.degree for g in series]
    stack = np.zeros((len(series), max(degrees, default=0) + 1), dtype=complex)
    for row, g in zip(stack, series):
        row[: len(g.coeffs)] = g.coeffs
    return stack, degrees


def weighted_sup_norm(
    f,
    v: Weight | Sequence[Weight],
    radii: int = DEFAULT_RADII,
    angles: int = DEFAULT_ANGLES,
    refine: bool = True,
):
    """Grid estimate (a lower bound) of sup_z v(z) |f(z)|.

    Takes the max of ``v(r) * circle_max(f, r)`` over the clustered radial
    grid; with ``refine`` a golden-section polish of the radius around the
    grid argmax tightens the estimate.  Both passes only evaluate the
    function, so the result never exceeds the true supremum.

    ``f`` is a :class:`TaylorSeries` (one :class:`NormEstimate`), or a list
    of series or a (batch x coefficients) stack (one estimate per series).
    ``v`` is a :class:`Weight`, or a sequence of weights (one such result
    per weight).  The grid pass runs once for all weights: one stacked
    ``circle_max`` per radius gives a series x radii profile, which each
    weight scales by ``v(r)`` (evaluated one radius at a time) before its
    own argmax and polish (one stacked ``circle_max`` per step).  Each
    estimate equals that of its series and weight alone.
    """
    if radii < 8 or angles < 8:
        raise ValueError("weighted norm grids need at least 8 radii and 8 angles")
    single = isinstance(f, TaylorSeries)
    one_weight = isinstance(v, Weight)
    weights = [v] if one_weight else list(v)
    if not weights:
        raise ValueError("weight list must be non-empty")
    stack, degrees = _coefficient_stack([f] if single else f)
    rs = radial_grid(radii)
    profile = np.empty((len(stack), radii))
    for col, r in enumerate(rs):
        profile[:, col] = circle_max(stack, float(r), angles)
    results = []
    for w in weights:
        vals = profile * np.array([float(w(r)) for r in rs])
        j = np.argmax(vals, axis=1)
        best = vals[np.arange(len(stack)), j]
        if refine:
            lo = rs[np.maximum(j - 1, 0)]
            outer = np.minimum(1.0 - 0.25 * (1.0 - rs[j]), 1.0 - 1e-12)
            hi = np.where(j + 1 < radii, rs[np.minimum(j + 1, radii - 1)], outer)
            weighted = lambda r: w(r) * circle_max(stack, r, angles)
            best = np.maximum(best, _golden_max(weighted, lo, hi))
        estimates = [
            NormEstimate(float(value), "grid_estimate", radii, angles, degree, refined=refine)
            for value, degree in zip(best, degrees)
        ]
        results.append(estimates[0] if single else estimates)
    return results[0] if one_weight else results


def _golden_max(fn, lo: np.ndarray, hi: np.ndarray, iterations: int = 40) -> np.ndarray:
    """Golden-section search for a maximum on each row's [lo, hi]; the best sampled values.

    The rows run in lockstep: each step evaluates ``fn`` once, at one new
    radius per row.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    best = np.maximum(fc, fd)
    for _ in range(iterations):
        left = fc >= fd  # the maximum lies in [a, d]: d becomes b, c becomes d
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = fn(x)
        c, fc = np.where(left, x, kept), np.where(left, fx, f_kept)
        d, fd = np.where(left, kept, x), np.where(left, f_kept, fx)
        best = np.maximum(best, np.maximum(fc, fd))
    return best


# -- coefficient norm families -----------------------------------------------


def frechet_norm(f, k: int, flavor: str = "sum"):
    """Coefficient norm with ratio r_k = 1 - 1/k, for k >= 2.

    ``sum`` flavor: sum_n |f[n]| r_k**n.  ``sup`` flavor: max_n |f[n]| r_k**n.
    Either family generates the compact-open topology; see the inequality
    suite in the tests for the k**2 equivalence constants.

    ``f`` is a :class:`TaylorSeries` (a float) or a stack with coefficients
    on its last axis (one value per row, each equal to that row's own call).
    """
    if k < 2:
        raise ValueError("norm index k must be >= 2")
    if flavor not in ("sum", "sup"):
        raise ValueError("flavor must be 'sum' or 'sup'")
    coeffs = f.coeffs if isinstance(f, TaylorSeries) else np.asarray(f)
    terms = np.abs(coeffs) * (1.0 - 1.0 / k) ** np.arange(coeffs.shape[-1])
    norms = np.sum(terms, axis=-1) if flavor == "sum" else np.max(terms, axis=-1)
    return float(norms) if np.ndim(norms) == 0 else norms


# -- operator norm bounds ------------------------------------------------------


def log_norm_bound(t: float) -> float:
    """-log(1-t)/t, with its limit 1 at t = 0: the operator norm on the unit-weight space."""
    return 1.0 if t == 0.0 else -math.log1p(-t) / t


def norm_upper_bound(t: float, v: Weight) -> float:
    """Proven upper bound for the operator norm on the weighted space of ``v``.

    Every weight admits -log(1-t)/t.  Standard weights sharpen this: the norm
    equals 1 for gamma >= 1, and min(-log(1-t)/t, 1/gamma) bounds it for
    gamma in (0, 1).
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("norm bounds are available for t in [0, 1) only")
    generic = log_norm_bound(t)
    if v.kind == "standard_gamma":
        if v.gamma >= 1.0:
            return 1.0
        return min(generic, 1.0 / v.gamma)
    return generic


def operator_norm_witness(
    t: float | Sequence[float],
    v: Weight | Sequence[Weight],
    witnesses: list[TaylorSeries],
    radii: int = DEFAULT_RADII,
    angles: int = DEFAULT_ANGLES,
) -> NormEstimate | list:
    """Witness-based lower bound for the operator norm on the weighted space.

    Returns the largest ratio ``|image of w| / |w|`` of weighted sup-norm
    grid estimates, each polished along the radius, over the witness list.  Rejects t = 1: the averaging
    operator does not act on the weighted sup-norm spaces at t = 1 (its
    image of a bounded function need not be bounded), so no norm is defined
    there.

    ``t`` is one parameter or a sequence of them, and ``v`` one
    :class:`Weight` or a sequence of them: a sweep.  The witnesses are
    stacked once, followed by their images for every t, and the stack is
    measured in one :func:`weighted_sup_norm` call for all weights.  The
    result has one :class:`NormEstimate` per (weight, t): a list per weight
    of lists per t, where a single t or a single weight drops its level, so
    one t and one weight give one estimate.  Each entry equals the call for
    its t and weight alone.
    """
    single_t, one_weight = np.ndim(t) == 0, isinstance(v, Weight)
    ts = [t] if single_t else list(t)
    weights = [v] if one_weight else list(v)
    if not ts or not all(0.0 <= x < 1.0 for x in ts):
        raise ValueError("weighted operator norms are defined for t in [0, 1) only")
    if not witnesses:
        raise ValueError("witness list must be non-empty")
    count = len(witnesses)
    series = list(witnesses)
    for x in ts:
        op = CesaroOperator(x)
        series.extend(apply(op, w) for w in witnesses)
    max_degree = max(w.degree for w in witnesses)
    table = []
    for estimates in weighted_sup_norm(series, weights, radii, angles):
        values = np.array([e.value for e in estimates])
        denoms = values[:count]
        if np.any(denoms <= 0.0):
            raise ValueError("every witness must have positive weighted norm")
        ratios = values[count:].reshape(len(ts), count) / denoms
        row = [
            NormEstimate(float(np.max(r)), "lower_witness", radii, angles, max_degree, refined=True)
            for r in ratios
        ]
        table.append(row[0] if single_t else row)
    return table[0] if one_weight else table
