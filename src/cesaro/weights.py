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

Batches and sweeps: :func:`circle_max`, :func:`weighted_sup_norm` and
:func:`frechet_norm` also take a (batch x coefficients) stack, whose rows
are series zero-padded to one width, and :func:`weighted_sup_norm` takes a
list of series of any degrees.  :func:`weighted_sup_norm` also takes a
sequence of weights, :func:`frechet_norm` a sequence of ``k``, and
:func:`operator_norm_witness` sequences of ``t`` and of weights.  A batch
costs one FFT call per grid radius and one per polish step (one radius per
row there); a weight sweep shares the grid pass, and each weight then runs
its own argmax and polish; a witness sweep stacks the witnesses once,
followed by their images for every ``t``, and measures the stack in one
:func:`weighted_sup_norm` call.

Shapes: a batched call returns its values as one array (the ``value`` of
one :class:`NormEstimate` for the norm estimates and witness ratios).  Its
axes are the inputs given as sequences, in the order weights, then ``t``,
then series (``k``, then series, for :func:`frechet_norm`); an input given
as one item (a :class:`Weight`, a number, a :class:`TaylorSeries`) has no
axis.  With no axis left the value is a plain float.  Every entry equals
the call for its inputs alone.

Also here: the norm families sum_n |f[n]| r_k**n and sup_n |f[n]| r_k**n
with r_k = 1 - 1/k, proven upper bounds for operator norms, and witness
ratios that estimate those norms from grid estimates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import specs
from .operators import CesaroOperator, apply
from .series import TaylorSeries, read_csv

#: Default grid sizes for weighted-norm estimation.
DEFAULT_RADII = 64
DEFAULT_ANGLES = 1024
#: The largest radial grid: its last radius 1 - 2**(-215/4) is below 1, the next rounds to 1.
MAX_RADII = 216

_MONOTONE_SLACK = 1e-12


class Weight:
    """A radial weight with vectorized evaluation ``v(r)``.

    Construct through the factory classmethods (:meth:`unit`,
    :meth:`standard`, :meth:`log_power`, :meth:`from_table`) or parse a CLI
    spec string with :meth:`from_spec`.  Construction samples the evaluator
    and rejects weights that fail positivity or monotonicity.
    """

    def __init__(self, kind: str, label: str, evaluator):
        self.kind = kind
        self.label = label
        self._evaluator = evaluator
        self._check_shape()

    # -- factories ---------------------------------------------------------

    @classmethod
    def unit(cls) -> "Weight":
        return cls("unit", "unit", np.ones_like)

    @classmethod
    def standard(cls, gamma: float) -> "Weight":
        """v(r) = (1 - r)**gamma."""
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        gamma = float(gamma)
        w = cls("standard_gamma", f"gamma:{gamma:g}", lambda r: (1.0 - r) ** gamma)
        w.gamma = gamma
        return w

    @classmethod
    def log_power(cls, n: int) -> "Weight":
        """v(r) = log(e/(1 - r))**(-n), i.e. (1 - log(1 - r))**(-n)."""
        n = int(n)
        if n < 1:
            raise ValueError("log-power exponent must be a positive integer")
        return cls("log_power", f"logpow:{n}", lambda r: (1.0 - np.log1p(-r)) ** (-float(n)))

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
        return cls("table", "table", lambda r: np.interp(r, radii, values))

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
        rows = read_csv(arg, "weight table", "r,v")
        return cls.from_table(rows[:, 0], rows[:, 1])

    # -- evaluation --------------------------------------------------------

    def __call__(self, r):
        """``v(r)``, a scalar for a scalar; evaluated as a 1-d array, so a radius has one value in any array."""
        r = np.asarray(r, dtype=float)
        return self._evaluator(r.reshape(-1)).reshape(r.shape)[()]

    def _check_shape(self):
        rs = 1.0 - 2.0 ** (-np.linspace(0.0, 20.0, 257))
        vals = self(rs)
        if np.all(np.isfinite(vals) & (vals >= 0)) and np.any(vals == 0):
            raise ValueError(f"weight {self.label} underflows to 0 in double precision near r = 1")
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise ValueError("weight must be finite and strictly positive on [0, 1)")
        if np.any(np.diff(vals) > _MONOTONE_SLACK * vals[0]):
            raise ValueError("weight must be non-increasing on [0, 1)")

    def __repr__(self) -> str:
        return f"Weight({self.label})"


@dataclass(frozen=True, eq=False)
class NormEstimate:
    """Norm values: weighted sup-norm grid estimates, or witness ratios of two of them.

    ``value`` is (weights x series) from :func:`weighted_sup_norm` and
    (weights x t) from :func:`operator_norm_witness`; an input given as one
    item drops its axis, and with no axis left ``value`` is a float.
    """

    value: float | np.ndarray


def _listed(items, one: bool) -> list:
    """An input as a list: ``[items]`` for one item, else the items of the sequence."""
    return [items] if one else list(items)


def _dropped(values, *single: bool):
    """An array ``values`` without the leading axes flagged in ``single``; a float once no axis is left.

    Each flag marks an input given as one item, whose axis has length 1.
    """
    if any(single):
        values = values[tuple(0 if one else slice(None) for one in single)]
    return float(values) if values.ndim == 0 else values


# -- circle and disc maxima --------------------------------------------------


def circle_max(f, r, angles: int):
    """Max of |f| over ``angles`` equispaced points of the circle |z| = r.

    Folds the r-scaled coefficients modulo the grid size and takes one FFT,
    which reproduces the grid maximum exactly (the uniform grid is closed
    under the FFT's angle sign convention); at r = 0 that is |c0| in every
    bin.  By the maximum principle this also samples the compact-set norm
    sup_{|z| <= r} |f(z)|.

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
    coeffs = _coefficient_stack(f)
    rows, width = coeffs.shape
    n = np.arange(width)
    if r.ndim == 0:
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
    return _dropped(peak, single)


def radial_grid(count: int) -> np.ndarray:
    """r_j = 1 - 2**(-j/4): geometric clustering toward the boundary.

    Weighted sup-norms are typically attained near |z| = 1; uniform radial
    grids systematically under-estimate them.
    """
    if count < 1:
        raise ValueError("radial grid needs count >= 1")
    return 1.0 - 2.0 ** (-np.arange(count) / 4.0)


def _coefficient_stack(series) -> np.ndarray:
    """A series, a list of series or a stack as one zero-padded (batch x coefficients) complex stack."""
    if isinstance(series, TaylorSeries):
        return series.coeffs[None, :]
    if isinstance(series, np.ndarray):
        return np.asarray(series, dtype=complex)
    stack = np.zeros((len(series), max((g.degree for g in series), default=0) + 1), dtype=complex)
    for row, g in zip(stack, series):
        row[: len(g.coeffs)] = g.coeffs
    return stack


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

    ``f`` is a :class:`TaylorSeries`, a list of series or a (batch x
    coefficients) stack, and ``v`` a :class:`Weight` or a sequence of them;
    the :class:`NormEstimate` holds a (weights x series) array, shaped as
    the module docstring says.  The grid pass runs once for all weights:
    one stacked ``circle_max`` per radius gives a series x radii profile,
    which each weight scales by ``v(r)`` before its own argmax and polish
    (one stacked ``circle_max`` per step).  At most ``MAX_RADII`` radii:
    beyond, the grid radius 1 - 2**(-j/4) rounds to 1.
    """
    if radii < 8 or angles < 8:
        raise ValueError("weighted norm grids need at least 8 radii and 8 angles")
    if radii > MAX_RADII:
        raise ValueError(f"weighted norm grids take at most {MAX_RADII} radii, got {radii}")
    single, one_weight = isinstance(f, TaylorSeries), isinstance(v, Weight)
    weights = _listed(v, one_weight)
    if not weights:
        raise ValueError("weight list must be non-empty")
    stack = _coefficient_stack(f)
    rs = radial_grid(radii)
    profile = np.empty((len(stack), radii))
    for col, r in enumerate(rs):
        profile[:, col] = circle_max(stack, float(r), angles)
    best = np.empty((len(weights), len(stack)))
    for row, w in zip(best, weights):
        vals = profile * w(rs)
        j = np.argmax(vals, axis=1)
        row[:] = vals[np.arange(len(stack)), j]
        if refine:
            lo = rs[np.maximum(j - 1, 0)]
            outer = np.minimum(1.0 - 0.25 * (1.0 - rs[j]), 1.0 - 1e-12)
            hi = np.where(j + 1 < radii, rs[np.minimum(j + 1, radii - 1)], outer)
            weighted = lambda r: w(r) * circle_max(stack, r, angles)
            row[:] = np.maximum(row, _golden_max(weighted, lo, hi))
    return NormEstimate(_dropped(best, one_weight, single))


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


def frechet_norm(f, k: int | Sequence[int], flavor: str = "sum"):
    """Coefficient norm with ratio r_k = 1 - 1/k, for k >= 2.

    ``sum`` flavor: sum_n |f[n]| r_k**n.  ``sup`` flavor: max_n |f[n]| r_k**n.
    Either family generates the compact-open topology; see the inequality
    suite in the tests for the k**2 equivalence constants.

    ``f`` is a :class:`TaylorSeries` (a float) or a stack with coefficients
    on its last axis (one value per row, each equal to that row's own call).
    ``k`` is one index or a sequence of them, which adds a leading axis with
    one entry per k, each equal to the call for that k alone.
    """
    ks = np.asarray(k)
    if np.any(ks < 2):
        raise ValueError("norm index k must be >= 2")
    if flavor not in ("sum", "sup"):
        raise ValueError("flavor must be 'sum' or 'sup'")
    coeffs = f.coeffs if isinstance(f, TaylorSeries) else np.asarray(f)
    ratios = np.reshape(1.0 - 1.0 / ks, ks.shape + (1,) * coeffs.ndim)
    terms = np.abs(coeffs) * ratios ** np.arange(coeffs.shape[-1])
    norms = np.sum(terms, axis=-1) if flavor == "sum" else np.max(terms, axis=-1)
    return _dropped(norms)


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
) -> NormEstimate:
    """Witness-ratio estimate of the operator norm on the weighted space.

    Returns the largest ratio ``|image of w| / |w|`` of weighted sup-norm
    grid estimates, each polished along the radius, over the witness list.
    Both grid estimates sit below their true norms, so the ratio is not a
    certified bound on either side: it is a ratio of two grid estimates.
    Rejects t = 1, as this library's policy.  ``C_1`` is unbounded on
    ``H^inf``, since ``C_1 1 = -log(1-z)/z``, but on the spaces of the
    weights (1 - r)**gamma the radial majorant bounds it by max(1, 1/gamma).

    ``t`` is one parameter or a sequence of them, and ``v`` one
    :class:`Weight` or a sequence of them: a sweep.  The witnesses are
    stacked once, followed by their images for every t, and the stack is
    measured in one :func:`weighted_sup_norm` call for all weights.  The
    :class:`NormEstimate` holds a (weights x t) array, shaped as the module
    docstring says.
    """
    single_t, one_weight = np.ndim(t) == 0, isinstance(v, Weight)
    ts, weights = _listed(t, single_t), _listed(v, one_weight)
    if not ts or not all(0.0 <= x < 1.0 for x in ts):
        raise ValueError("weighted operator norms are defined for t in [0, 1) only")
    if not witnesses:
        raise ValueError("witness list must be non-empty")
    count = len(witnesses)
    series = list(witnesses)
    for x in ts:
        op = CesaroOperator(x)
        series.extend(apply(op, w) for w in witnesses)
    values = weighted_sup_norm(series, weights, radii, angles).value
    if np.any(values[:, :count] <= 0.0):
        raise ValueError("every witness must have positive weighted norm")
    ratios = values[:, count:].reshape(len(weights), len(ts), count) / values[:, None, :count]
    return NormEstimate(_dropped(np.max(ratios, axis=-1), one_weight, single_t))
