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

Batches: :func:`circle_max` and :func:`weighted_sup_norm` also take a
(batch x coefficients) stack, whose rows are series zero-padded to one
width, and :func:`weighted_sup_norm` takes a list of series of any degrees.
A batch costs one FFT call per grid radius and one per polish step (one
radius per row there), and every row's result equals the result for that
series alone.  :func:`operator_norm_witness` measures its witnesses and
their images as one batch.

Also here: the compact-set norms q_r(f) = sup_{|z|<=r} |f(z)|, the norm
families sum_n |f[n]| r_k**n and sup_n |f[n]| r_k**n with r_k = 1 - 1/k,
and witness-based lower bounds for operator norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        rows = np.loadtxt(arg, delimiter=",", ndmin=2)
        return cls.from_table(rows[:, 0], rows[:, 1])

    # -- evaluation --------------------------------------------------------

    def __call__(self, r):
        return self._evaluator(r)

    def _check_shape(self):
        rs = 1.0 - 2.0 ** (-np.linspace(0.0, 20.0, 257))
        vals = np.asarray(self(rs), dtype=float)
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
    under the FFT's angle sign convention).  Accepts r = 0.

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


def q_r_norm(f: TaylorSeries, r: float, angles: int = DEFAULT_ANGLES) -> float:
    """The compact-set norm sup_{|z| <= r} |f(z)|, sampled on the circle |z| = r.

    By the maximum principle the sup over the closed disc of radius r is
    attained on its boundary circle, so an angle grid on the circle is the
    whole story.  Monotone non-decreasing in r.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"q_r radius must lie in (0, 1), got {r}")
    return circle_max(f, r, angles)


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
    v: Weight,
    radii: int = DEFAULT_RADII,
    angles: int = DEFAULT_ANGLES,
    refine: bool = True,
):
    """Grid estimate (a lower bound) of sup_z v(z) |f(z)|.

    Takes the max of ``v(r) * circle_max(f, r)`` over the clustered radial
    grid; with ``refine`` a golden-section polish of the radius around the
    grid argmax tightens the estimate.  Both passes only evaluate the
    function, so the result never exceeds the true supremum.

    ``f`` is a :class:`TaylorSeries` (returns one :class:`NormEstimate`), or
    a list of series or a (batch x coefficients) stack (returns one estimate
    per series).  A batch takes one stacked ``circle_max`` per radius and
    per polish step, and each estimate equals that of its series alone.
    """
    if radii < 8 or angles < 8:
        raise ValueError("weighted norm grids need at least 8 radii and 8 angles")
    single = isinstance(f, TaylorSeries)
    stack, degrees = _coefficient_stack([f] if single else f)
    rs = radial_grid(radii)
    vals = np.empty((len(stack), radii))
    for col, r in enumerate(rs):
        vals[:, col] = float(v(r)) * circle_max(stack, float(r), angles)
    j = np.argmax(vals, axis=1)
    best = vals[np.arange(len(stack)), j]
    if refine:
        lo = rs[np.maximum(j - 1, 0)]
        outer = np.minimum(1.0 - 0.25 * (1.0 - rs[j]), 1.0 - 1e-12)
        hi = np.where(j + 1 < radii, rs[np.minimum(j + 1, radii - 1)], outer)
        weighted = lambda r: v(r) * circle_max(stack, r, angles)
        best = np.maximum(best, _golden_max(weighted, lo, hi))
    estimates = [
        NormEstimate(float(value), "grid_estimate", radii, angles, degree, refined=refine)
        for value, degree in zip(best, degrees)
    ]
    return estimates[0] if single else estimates


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


def frechet_norm(f: TaylorSeries, k: int, flavor: str = "sum") -> float:
    """Coefficient norm with ratio r_k = 1 - 1/k, for k >= 2.

    ``sum`` flavor: sum_n |f[n]| r_k**n.  ``sup`` flavor: max_n |f[n]| r_k**n.
    Either family generates the compact-open topology; see the inequality
    suite in the tests for the k**2 equivalence constants.
    """
    if k < 2:
        raise ValueError("norm index k must be >= 2")
    if flavor not in ("sum", "sup"):
        raise ValueError("flavor must be 'sum' or 'sup'")
    r_k = 1.0 - 1.0 / k
    terms = np.abs(f.coeffs) * r_k ** np.arange(len(f.coeffs))
    return float(np.sum(terms) if flavor == "sum" else np.max(terms))


# -- operator norm bounds ------------------------------------------------------


def gamma_norm_bound(gamma: float, samples: int = 20001) -> float:
    """The bound M_gamma / gamma with M_gamma = sup_{s in [0,1]} (1-(1-s)**gamma)/s.

    Maximizes on a fine grid of [0, 1] with the continuous-extension value
    gamma at s = 0.  For gamma >= 1 the returned bound is <= 1; for
    gamma in (0, 1), M_gamma itself is <= 1.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    s = np.linspace(0.0, 1.0, samples)[1:]
    phi = (1.0 - (1.0 - s) ** gamma) / s
    m_gamma = max(float(np.max(phi)), float(gamma))
    return m_gamma / gamma


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
    t: float,
    v: Weight,
    witnesses: list[TaylorSeries],
    radii: int = DEFAULT_RADII,
    angles: int = DEFAULT_ANGLES,
    refine: bool = True,
) -> NormEstimate:
    """Witness-based lower bound for the operator norm on the weighted space.

    Returns the largest ratio ``|image of w| / |w|`` of weighted sup-norm
    grid estimates over the witness list; the witnesses and their images are
    measured as one batch, in one :func:`weighted_sup_norm` call.  Rejects
    t = 1: the averaging operator does not act on the weighted sup-norm
    spaces at t = 1 (its image of a bounded function need not be bounded),
    so no norm is defined there.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("weighted operator norms are defined for t in [0, 1) only")
    if not witnesses:
        raise ValueError("witness list must be non-empty")
    op = CesaroOperator(t)
    images = [apply(op, w) for w in witnesses]
    estimates = weighted_sup_norm(list(witnesses) + images, v, radii, angles, refine)
    values = np.array([e.value for e in estimates])
    denoms, numers = values[: len(witnesses)], values[len(witnesses) :]
    if np.any(denoms <= 0.0):
        raise ValueError("every witness must have positive weighted norm")
    best = float(np.max(numers / denoms))
    max_degree = max(w.degree for w in witnesses)
    return NormEstimate(best, "lower_witness", radii, angles, max_degree, refined=refine)
