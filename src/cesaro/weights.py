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
refine.  A golden-section polish along the radius tightens the bound; it
only ever evaluates the function, so the one-sided semantics survive (no
extrapolation).

Batches and sweeps: :func:`circle_max`, :func:`weighted_sup_norm` and
:func:`frechet_norm` also take a (batch x coefficients) stack, whose rows
are series zero-padded to one width, and :func:`weighted_sup_norm` takes a
list of series of any degrees.  :func:`weighted_sup_norm` takes one weight,
:func:`frechet_norm` one ``k`` or a sequence of them, and
:func:`operator_norm_witness` sequences of ``t`` and of weights.  A
:func:`weighted_sup_norm` call costs at most one FFT call per grid radius,
plus one per distinct seed radius, and one per polish step (one radius per
row there, and none when no row is left to polish): the grid pass
measures only the (row, radius) pairs whose upper bound sum_n |f[n]| r**n
can reach the row's best measured value under the weight.  A witness sweep stacks the witnesses once, followed by
their images for every ``t``, and builds the stack's table of those upper
bounds once; then it runs one pass per weight.  A pass runs the grid's
seed stage under its weight on every row, and bounds from those seeds pick
the witness rows, and their images, that can still hold the weight's
largest ratio.  Only those are polished: one :func:`weighted_sup_norm`
call takes them with their seeds and runs the rest of their grid pass and
their polish; the others stop after their seeds.  Within a pass no (row,
radius) pair is measured twice.  Of the rows reaching the polish, those
whose grid maximum sits at r = 0 and provably cannot rise within their
bracket [0, r_1] under a ``gamma:`` or ``logpow:`` weight keep their grid
value and take no polish step (:func:`_settled`), which is the value the
polish would return, bit for bit.  On the ``norm_pool`` benchmark's seeds
1-3 that settles 372 of 480, 372 of 486 and 383 of 502 rows, and 498 of
635 in acceptance check 12.

Constant rows: a row whose only nonzero coefficient is c_0 (:func:`_constant`;
the witness ``f1``, say) has one circle maximum at every radius.  The grid
pass transforms it once, at its seed pair, and copies that value into every
other pair it would measure; the polish samples it as v(x) times that value
and transforms only the other rows, so a polish of constant rows alone
calls no FFT.  The weight is still evaluated on every row's radius, and
every value is the full computation's, bit for bit.  Under the unit weight
such a row ties at every grid radius, so this saves 63 grid transforms and
42 polish rows per pass: ``norm_pool`` makes 2939 ``circle_max`` calls a
pass instead of 4010 (seed 2901), acceptance checks 1 and 2 make 220 and 44
instead of 535 and 107.

Powers: :func:`circle_max` (one radius or one per row) and the grid pass's
bounds take r**n from one rule (:func:`_raised`), which calls ``pow`` only
below the radius's underflow index, where n log2(r) reaches 20 binades
below 2**-1074, and writes +0.0 from there on.  ``pow`` returns exactly
that +0.0 there, but on a slow path, so the cut saves time and changes no
bit of any power, maximum or estimate.  Subnormal powers are still computed.  The power rows
of the grid radii, and of the outer radius of the last bracket, are built
once per process: :func:`_upper` keeps them in one read-only table of at
most :data:`_POWER_TABLE_BYTES` (4 MiB), and the grid pass's
``circle_max`` calls read it.  The polish cuts its rows once, after the
last column in which any of them holds a nonzero coefficient (NaN and inf
are nonzero, so their columns stay), and hands that plain stack to every
step's :func:`circle_max`: the columns cut hold only zero products, which
can change the sign of a zero but never a modulus.

Shapes: a batched call returns its values as one array (the ``value`` of
one :class:`NormEstimate` for the norm estimates and witness ratios).  Its
axes are the inputs given as sequences: series for
:func:`weighted_sup_norm`, weights then ``t`` for
:func:`operator_norm_witness`, ``k`` then series for :func:`frechet_norm`;
an input given as one item (a :class:`Weight`, a number, a
:class:`TaylorSeries`) has no axis.  With no axis left the value is a
plain float.  Every entry equals the call for its inputs alone.

Also here: the norm families sum_n |f[n]| r_k**n and sup_n |f[n]| r_k**n
with r_k = 1 - 1/k, proven upper bounds for operator norms, and witness
ratios that estimate those norms from grid estimates.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
#: Golden-section steps of the radial polish.
_GOLDEN_STEPS = 40
#: 1/phi, the golden-section ratio.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Per unit bracket, a floor under every golden-section sample of a bracket [0, r] (:func:`_settled`).
_GOLDEN_FLOOR = (1.0 - _INVPHI) * _INVPHI**_GOLDEN_STEPS * (1.0 - 2.0**-20)


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
        if not gamma > 0:  # NaN fails it too
            raise ValueError("gamma must be positive")
        gamma = float(gamma)
        w = cls("standard_gamma", f"gamma:{gamma:g}", lambda r: (1.0 - r) ** gamma)
        w.gamma = gamma
        return w

    @classmethod
    def log_power(cls, n: int) -> "Weight":
        """v(r) = log(e/(1 - r))**(-n), i.e. (1 - log(1 - r))**(-n)."""
        specs.count(n, 1, "log-power exponent must be a positive integer")
        return cls("log_power", f"logpow:{n}", lambda r: (1.0 - np.log1p(-r)) ** (-float(n)))

    @classmethod
    def from_table(cls, radii, values) -> "Weight":
        """Linear interpolation of sampled (r, v(r)); monotonicity-checked at load; ``table`` holds the rows."""
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
        w = cls("table", "table", lambda r: np.interp(r, radii, values))
        w.table = np.column_stack((radii, values))
        return w

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

    ``value`` is (series) from :func:`weighted_sup_norm` and (weights x t)
    from :func:`operator_norm_witness`; an input given as one item drops its
    axis, and with no axis left ``value`` is a float.
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
    under the FFT's angle sign convention).  At r = 0 the folded vector is
    (c0, 0, ..., 0): pocketfft's radix passes return c0 in every bin, so the
    result is |c0| bit for bit (at 8, 9, 64, 97, 1000, 1024, 3072 and 4096
    angles, say), but its Bluestein path for counts with a large prime
    factor rounds, and 4093 angles gave up to 13 ulps above |c0|, within
    :func:`_rounding_slack`.  A row whose only nonzero coefficient is c0
    (:func:`_constant`) scales to that same vector at every radius, as
    r**0 = 1 and a ±0 coefficient times a power >= +0 keeps its zero, so
    its maximum is one value at every radius for a given angle count,
    Bluestein lengths included (the same input gives the same output).  By
    the maximum principle this also samples the compact-set norm
    sup_{|z| <= r} |f(z)|.  An inf or NaN coefficient gives an inf or NaN
    maximum, without a warning.

    ``f`` is a :class:`TaylorSeries` (returns a float) or a zero-padded
    (batch x coefficients) stack (returns one maximum per row, each equal
    to the maximum of that row alone).  With a stack, ``r`` is one radius
    for all rows or one radius per row.  The powers r**n come from one
    rule (:func:`_raised`), which stops at each radius's underflow index,
    past which ``pow`` returns +0.0 anyway, so every power and every
    maximum is the full computation's.  One radius reads its row from the
    table of grid power rows (:func:`_powers`) when that holds it.
    """
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 <= r) & (r < 1.0)):
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    specs.count(angles, 1, "angle count must be >= 1")
    single = isinstance(f, TaylorSeries)
    coeffs = _coefficient_stack(f)
    if r.ndim == 0:  # one row of powers, broadcast over the rows
        powers = _powers(r, coeffs.shape[1])
    elif r.shape != coeffs.shape[:1]:
        raise ValueError(f"circle_max takes one radius or one per row, got {r.shape[0]} radii for {len(coeffs)} rows")
    else:
        powers = _raised(r, coeffs.shape[1])
    height, width = coeffs.shape
    # An inf coefficient gives NaN or inf, without a warning: inf times a +0.0 power, or times a power's zero
    # imaginary part, is NaN, and so are inf - inf in the transform's sums (Bluestein's chirp products among them).
    with np.errstate(invalid="ignore"):
        scaled = coeffs * powers
        if width > angles:
            folds = -(-width // angles)
            buf = np.zeros((height, folds * angles), dtype=complex)
            buf[:, :width] = scaled
            scaled = buf.reshape(height, folds, angles).sum(axis=1)
        peak = np.max(np.abs(np.fft.fft(scaled, n=angles, axis=-1)), axis=-1)
    return _dropped(peak, single)


#: log2 of the bound below which :func:`_raised` writes r**n as +0.0: 20 binades under 2**-1074.
_UNDERFLOW_LOG2 = -1094.0
#: Bytes the table of grid power rows may hold (:func:`_powers`): 4 MiB, 66 rows of up to 7943 powers.
_POWER_TABLE_BYTES = 4 * 2**20
#: The table: radius -> its read-only row of powers, as wide as the widest request that fit the budget.
_power_rows: dict[float, np.ndarray] = {}
#: Held while a row is stored, so that a thread's budget check and store are one step.
_power_lock = threading.Lock()


def _raised(r: np.ndarray, width: int) -> np.ndarray:
    """The powers r**n for n < ``width``: one row for one radius, or one row per radius of a 1-d ``r``.

    ``np.power`` runs only below the radius's underflow index, the first n
    with n log2(r) <= -1094, and every later power is written as +0.0.
    Past the index r**n < 2**-1094, far under the 2**-1075 below which the
    rounded power is +0.0, and numpy's ``pow`` returns that +0.0 too, only
    on a slow path (about 15 times the cost of a normal result).  So each
    power is bit for bit the one the full-length call computes.  The
    subnormal band 2**-1074 <= r**n < 2**-1022 lies below the index and is
    computed as before: a subnormal power times a large coefficient can be a
    normal product.  At r = 0 the index is 1, keeping 0**0 = 1.
    """
    log2_r = np.log2(r, out=np.full(r.shape, -np.inf), where=r > 0.0)  # no divide warning at r = 0
    stop = np.maximum(np.ceil(_UNDERFLOW_LOG2 / log2_r), 1.0)[..., None]
    n = np.arange(width)
    powers = np.zeros(r.shape + (width,))
    np.power(r[..., None], n, out=powers, where=n < stop)
    return powers


def _powers(r: float, width: int, keep: bool = False) -> np.ndarray:
    """The powers r**n for n < ``width`` of one radius (:func:`_raised`), as a read-only row.

    A row of the table at least ``width`` wide gives its first ``width``
    powers, the same bits: each power is the same ``pow`` of the same
    inputs at any width.  Otherwise the row is built, and with ``keep``
    (:func:`_upper`, at the grid radii) it replaces the table's row for
    ``r`` unless the table would then exceed :data:`_POWER_TABLE_BYTES`; a
    row past the budget is built for its call alone.
    """
    r = float(r)
    row = _power_rows.get(r)
    if row is not None and len(row) >= width:
        return row[:width]
    powers = _raised(np.asarray(r), width)
    powers.flags.writeable = False
    if keep:
        with _power_lock:  # another thread may have stored a row since the lookup above
            stored = _power_rows.get(r)
            held = sum(kept.nbytes for kept in _power_rows.values()) - (0 if stored is None else stored.nbytes)
            if (stored is None or len(stored) < width) and held + powers.nbytes <= _POWER_TABLE_BYTES:
                _power_rows[r] = powers
    return powers


def radial_grid(count: int) -> np.ndarray:
    """r_j = 1 - 2**(-j/4): geometric clustering toward the boundary.

    Weighted sup-norms are typically attained near |z| = 1; uniform radial
    grids systematically under-estimate them.  At most ``MAX_RADII`` radii.
    """
    specs.count(count, 1, "radial grid needs count >= 1")
    if count > MAX_RADII:
        raise ValueError(f"weighted norm grids take at most {MAX_RADII} radii, got {count}")
    return 1.0 - 2.0 ** (-np.arange(count) / 4.0)


def _grid(radii: int, angles: int) -> np.ndarray:
    """The radial grid of a weighted norm, after the rule on both grid sizes: at least 8 of each."""
    for size in (radii, angles):
        specs.count(size, 8, "weighted norm grids need at least 8 radii and 8 angles")
    return radial_grid(radii)


def _coefficient_stack(series) -> np.ndarray:
    """A series, a list of series or a stack as one zero-padded (batch x coefficients) complex stack.

    The one rule on what :func:`circle_max` and :func:`weighted_sup_norm`
    take: an array must be 2-d, and a list must hold only series.
    """
    if isinstance(series, TaylorSeries):
        return series.coeffs[None, :]
    if isinstance(series, np.ndarray):
        if series.ndim != 2:
            raise ValueError(f"a coefficient stack must be 2-d (batch x coefficients), got shape {series.shape}")
        return np.asarray(series, dtype=complex)
    for g in series:
        if not isinstance(g, TaylorSeries):
            raise TypeError(f"a list of series holds only TaylorSeries, got {type(g).__name__}")
    stack = np.zeros((len(series), max((g.degree for g in series), default=0) + 1), dtype=complex)
    for row, g in zip(stack, series):
        row[: len(g.coeffs)] = g.coeffs
    return stack


def weighted_sup_norm(f, v: Weight, radii: int = DEFAULT_RADII, angles: int = DEFAULT_ANGLES):
    """Grid estimate (a lower bound) of sup_z v(z) |f(z)|.

    Takes the max of ``v(r) * circle_max(f, r)`` over the clustered radial
    grid, then a golden-section polish of the radius around the grid argmax
    tightens the estimate.  Both passes only evaluate the function, so the
    result never exceeds the true supremum.  A row whose grid argmax is
    r = 0 and whose bracket [0, r_1] provably holds no sample above its grid
    value (:func:`_settled`: ``gamma:`` and ``logpow:`` weights only) keeps
    that value without a polish step, the polish's own result bit for bit.
    A row holding only c_0 (:func:`_constant`) has one circle maximum at
    every radius: the grid pass transforms it once, at its seed, and the
    polish samples it as v(x) times that maximum, with v evaluated as for
    every other row, so its values are the transformed ones bit for bit.

    ``f`` is a :class:`TaylorSeries`, a list of series or a (batch x
    coefficients) stack, and ``v`` one :class:`Weight`; the
    :class:`NormEstimate` holds one value per series, shaped as the module
    docstring says.  The grid pass gives a series x radii profile (see
    :func:`_grid_profile`: it measures only the pairs that can hold a row's
    maximum, at most one stacked ``circle_max`` per radius), which is scaled
    by ``v(r)`` before the argmax and polish (one stacked ``circle_max`` per
    step over the rows neither settled nor constant, none when no row is
    left).  The polish cuts those rows once, after the last column in which
    any of them holds a nonzero coefficient, and every step transforms that
    plain stack.
    """
    if not isinstance(v, Weight):  # a weight sequence would fail later as "not callable"
        raise TypeError(f"weighted_sup_norm takes one Weight, got {type(v).__name__}")
    rs = _grid(radii, angles)
    single, v_rs = isinstance(f, TaylorSeries), v(rs)
    if not isinstance(f, _GridStart):  # a witness sweep hands in rows whose seed stage has run
        stack = _coefficient_stack(f)
        f = _seeded(stack, rs, v_rs, angles, _upper(stack, rs, angles))
    vals = _grid_profile(f, rs, v_rs, angles) * v_rs
    j = np.argmax(vals, axis=1)
    best = vals[np.arange(len(j)), j]
    polish = ~_settled(f, j, best, v, rs, v_rs, angles)
    if polish.any():
        peaks = np.max(f.profile[polish], axis=1)  # a constant row's circle maximum at every radius: its seed's
        moving = ~f.constant[polish]
        moving = slice(None) if moving.all() else moving  # a view, not a copy, when no constant row is polished
        rows = f.stack[polish][moving]
        rows = rows[:, : 1 + np.max(np.flatnonzero(rows.any(axis=0)), initial=0)]  # NaN and inf are nonzero: kept

        def weighted(r):
            if len(rows):
                peaks[moving] = circle_max(rows, r[moving], angles)
            return v(r) * peaks

        best[polish] = np.maximum(best[polish], _golden_max(weighted, *_bracket(rs, j[polish])))
    return NormEstimate(_dropped(best, single))


def _bracket(rs: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The polish bracket [lo, hi] of grid index ``j``: its two neighbours, and past the last radius the outer one.

    The outer radius of the last index r is 1 - (1 - r)/4, at most 1 - 1e-12.
    """
    last = len(rs) - 1
    outer = np.minimum(1.0 - 0.25 * (1.0 - rs[j]), 1.0 - 1e-12)
    return rs[np.maximum(j - 1, 0)], np.where(j < last, rs[np.minimum(j + 1, last)], outer)


def _rounding_slack(width: int, angles: int) -> tuple[float, float]:
    """(relative, absolute) slack with computed ``circle_max`` <= computed A * (1 + relative) + absolute.

    A = sum_n |c_n| p_n bounds the circle maximum M, and both are computed
    from the same powers p_n = r**n.  With u = 2**-53, W = ``width``,
    N = ``angles`` and S the exact sum_n |c_n| p_n of those powers:

    * A: ``np.abs`` is within one ulp (2u), each product rounds once and a
      sum of W nonnegative terms in any order loses at most (W - 1)u, so
      A >= S (1 - (W + 2)u) to first order;
    * M: each product c_n p_n rounds once per part (modulus <= (1 + u)),
      each folded entry sums F = ceil(W/N) <= W terms, so the folded vector
      f has ||f||_1 <= S (1 + F u).  Its DFT y has |y_k| <= ||f||_1, and
      the computed one errs by at most eta sqrt(N) ||f||_2 <= eta sqrt(N)
      ||f||_1, with eta the FFT's normwise relative error: about
      7u log2 N for radix 2 (Higham, Accuracy and Stability, Thm. 24.2).
      The last ``np.abs`` may be one ulp high (2u).

    So M <= A (1 + (2W + 4)u + 7u log2 N sqrt(N)) to first order for a
    power-of-two N.  The FFT term is taken as 32u (1 + log2 N) sqrt(N) for
    every N: for pocketfft's other radices and its Bluestein lengths (N with
    a large prime factor, run as three FFTs of a composite length >= 2N - 1
    with chirp products) this is an empirical margin, not a derived bound.
    On positive-coefficient rows (M = A exactly, so the excess is rounding
    alone) the computed M / A - 1 reached at most 2.7e-3 of the relative
    slack, at widths 2 to 65537 and at N = 8, 9, 97, 1000, 1024, 3072,
    4093, 4096, 8186 and 65521 (97, 4093 and 65521 prime, 8186 = 2 x 4093),
    the counts the slack property test checks.  The whole is doubled to
    cover the second-order terms.  Subnormal results break the
    relative model: each rounding there errs by at most 2**-1075, and the
    absolute term counts every rounding that reaches one value (the FFT's
    spread is at most N (1 + log2 N) of them), with the same doubling:
    2 * 2**-1075 = 2**-1074, the smallest subnormal.
    """
    u = 2.0**-53
    fft = 32.0 * (1.0 + math.log2(angles)) * math.sqrt(angles)
    return 2.0 * u * (2 * width + 4 + fft), 2.0**-1074 * (4 * width + 8 * angles * (1.0 + math.log2(angles)))


class _GridStart(NamedTuple):
    """A stack after the grid pass's seed stage (:func:`_seeded`).

    Holds its ``upper`` table, the profile of its seeds and its
    ``constant`` rows (:func:`_constant`).
    """

    stack: np.ndarray
    upper: np.ndarray
    profile: np.ndarray
    constant: np.ndarray

    def rows(self, keep: np.ndarray) -> "_GridStart":
        return _GridStart(self.stack[keep], self.upper[keep], self.profile[keep], self.constant[keep])


def _constant(stack: np.ndarray) -> np.ndarray:
    """The rows whose only nonzero coefficient is c_0: for a given angle count, one circle maximum at every radius.

    r**0 = 1 at every radius, 0**0 included, and a ±0 coefficient times a
    power >= +0 is a zero whose sign does not depend on the power, so such
    a row scales to the same vector at every radius, and :func:`circle_max`
    transforms the same input to the same bits (Bluestein lengths
    included).  At a narrower width, the polish's cut, or folded
    differently, its transform input differs at most in the sign of an
    exact zero, which changes no nonzero sum or product, and so no modulus.
    NaN and inf are nonzero, so a row holding one past c_0 is not
    constant; an all-zero row is.
    """
    return ~stack[:, 1:].any(axis=1)


def _grid_profile(start: _GridStart, rs: np.ndarray, v: np.ndarray, angles: int) -> np.ndarray:
    """The grid's (rows x radii) circle maxima where one can be a row's grid maximum; -inf elsewhere.

    M(r) <= A(r) = sum_n |c_n| r**n, so ``upper`` (A with its rounding
    slack, :func:`_rounding_slack`) bounds every computed ``circle_max``.
    ``start`` holds the seed pair measured, the radius of the row's largest
    v * upper (:func:`_seeded`), where ``v`` is the weight at the grid
    radii.  A pair whose v * upper lies below the row's best measured v * M
    is strictly below the grid maximum, so it is skipped; every other pair
    is measured.  Ties are measured, so the argmax and maximum equal those
    of the full grid bit for bit (rounding is monotone: M <= upper gives
    fl(v M) <= fl(v upper)).  One stacked ``circle_max`` per radius with
    pairs to measure, in each of the two stages.  A constant row
    (:func:`_constant`) is measured at its seed alone: its other pairs to
    measure take a copy of that value.  The profile is completed in a copy,
    so ``start`` can be continued again.
    """
    stack, upper, seeded, constant = start
    profile = seeded.copy()
    # "not below" keeps ties, and keeps every pair of a row holding a NaN
    survivors = ~(upper * v < np.max(profile * v, axis=1, keepdims=True))
    todo = survivors & (profile == -np.inf)
    copied = todo & constant[:, None]
    if copied.any():  # the seed's maximum, the only entry of its row in seeded, holds at every radius
        profile[copied] = np.broadcast_to(np.max(seeded, axis=1, keepdims=True), profile.shape)[copied]
        todo &= ~copied
    _measure(stack, rs, angles, todo, profile)
    return profile


def _upper(stack: np.ndarray, rs: np.ndarray, angles: int) -> np.ndarray:
    """The (rows x radii) table ``upper``: A(r) = sum_n |c_n| r**n widened by :func:`_rounding_slack`.

    The power row of each radius goes into the table of :func:`_powers`,
    within its budget, for this call's ``circle_max`` calls and later ones.
    """
    rows, width = stack.shape
    magnitudes = np.abs(stack)
    upper = np.empty((rows, len(rs)))
    with np.errstate(invalid="ignore"):  # inf times a +0.0 power is NaN: the row's bound is NaN
        for col, r in enumerate(rs):  # one radius at a time: the table holds at most _POWER_TABLE_BYTES (4 MiB)
            upper[:, col] = magnitudes @ _powers(r, width, keep=True)  # the powers circle_max reads for r
    relative, absolute = _rounding_slack(width, angles)
    return upper * (1.0 + relative) + absolute


def _seeded(stack: np.ndarray, rs: np.ndarray, v: np.ndarray, angles: int, upper: np.ndarray) -> _GridStart:
    """The grid pass's seed stage: a (rows x radii) profile holding only the seed pairs' circle maxima, -inf elsewhere.

    A row's seed is its radius of largest v * upper, with ``v`` the weight
    at the grid radii.
    """
    seeds = np.zeros(upper.shape, dtype=bool)
    seeds[np.arange(len(stack)), np.argmax(upper * v, axis=1)] = True
    profile = _measure(stack, rs, angles, seeds, np.full(upper.shape, -np.inf))
    return _GridStart(stack, upper, profile, _constant(stack))


def _measure(stack: np.ndarray, rs: np.ndarray, angles: int, todo: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """``profile`` with the circle maxima of the (row, radius) pairs flagged in ``todo``, one call per radius."""
    for col in np.flatnonzero(todo.any(axis=0)):
        hit = np.flatnonzero(todo[:, col])
        profile[hit, col] = circle_max(stack[hit], float(rs[col]), angles)
    return profile


def _golden_max(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section search for a maximum on each row's [lo, hi]; the best sampled values.

    The rows run in lockstep: each of the :data:`_GOLDEN_STEPS` steps
    evaluates ``fn`` once, at one new radius per row.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    best = np.maximum(fc, fd)
    for _ in range(_GOLDEN_STEPS):
        left = fc >= fd  # the maximum lies in [a, d]: d becomes b, c becomes d
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = fn(x)
        c, fc = np.where(left, x, kept), np.where(left, fx, f_kept)
        d, fd = np.where(left, kept, x), np.where(left, f_kept, fx)
        best = np.maximum(best, np.maximum(fc, fd))
    return best


def _settled(
    start: _GridStart, j: np.ndarray, grid: np.ndarray, v: Weight, rs: np.ndarray, v_rs: np.ndarray, angles: int
) -> np.ndarray:
    """The rows whose polish provably returns their grid value ``grid``: argmax ``j`` at r = 0, no sample above it.

    Such a row's polished value max(grid, samples) is ``grid`` bit for bit,
    so it takes no polish step.  The bracket of j = 0 is [0, r1], r1 =
    ``rs[1]`` (:func:`_bracket`).  With c = |c_0|, A(x) = sum_n |c_n| x**n
    and a slope kappa with v(x) <= 1 - kappa x on [0, r1], every sample x
    of the bracket, x >= x_min, has

        v(x) A(x) <= (1 - kappa x) (c + (x / r1) (A(r1) - c)) <= c - x D,
        D = kappa c - (A(r1) - c) / r1,

    since x**n <= (x / r1) r1**n for n >= 1 and the dropped term
    -kappa x**2 (A(r1) - c) / r1 is not positive.  With D > 0 every sample
    lies at or below c - x_min D, up to rounding; the row settles when that
    bound, with the rounding below, is at or below ``grid``.  The terms:

    * x_min, the smallest sample over every golden path in [0, r1]
      (:func:`_golden_max`).  A right step samples fl(a + p) >= a, and a
      left step with a > 0 samples fl(b - p) >= a, as p = fl(invphi fl(b -
      a)) < b - a; such an a is an earlier sample.  So the smallest sample
      lies on the all-left path, whose k-th new sample is (1 - invphi)
      invphi**k r1 to a relative 100u (each one is computed afresh from
      the second-last, within 4.3u, over at most 21 links; u = 2**-53).
      So x_min = (1 - invphi) invphi**40 r1 (1 - 2**-20), about 2.66e-10.
    * kappa.  ``gamma:g``: (1 - r)**g is convex on [0, 1) for g >= 1 and
      lies below its chord from 0 to r1, of slope (1 - v(r1)) / r1; for
      g <= 1 it is concave and lies below its tangent at 0, of slope g.
      So kappa = min(chord, g) holds either way.  ``logpow:n``: v'' has
      the sign of n + 1 - log(e/(1 - r)), so v is convex on [0, 1 - e**-n]
      ⊇ [0, r1] and kappa is the chord.  The chord is read from
      ``v_rs[1]``, the computed v(r1), within 2**-40 (below), and 1 -
      v(r1) > 0.14 in both convex cases, so the computed chord errs by
      under 2**-36 relative; kappa is taken 2**-20 below.  ``unit`` and
      ``table`` weights never settle.
    * A(r1) <= A+ + 2**-1072 sum_n |c_n|, A+ the widened A at r1 (column 1
      of ``upper``), which D reads in place of A(r1): the widening covers
      the sum's rounding and the ulp of each power, and the absolute term
      the powers that are subnormal or cut to zero (:func:`_powers`).  It
      adds at most (x / r1) 2**-1072 sum_n |c_n| to the bound.  A row
      whose A is NaN never settles.
    * M^ <= S (1 + rel) + abs for the computed circle maximum, where S =
      sum_n |c_n| p_n over the computed powers p_n (:func:`_rounding_slack`,
      whose M part this is, at the row's width or the narrower width the
      polish cuts its rows to).  A power is within an ulp of x**n, so
      S <= A(x) (1 + 2u) + 2**-1074 sum_n |c_n|.
    * The weight-value slack: the computed v(x) is within 2**-40 of v(x)
      on [0, r1].  ``gamma:g`` is pow at fl(1 - x), with fl(1 - x) within
      2**-54 of 1 - x >= 0.84, so within (1 + 2**-53.7)**g (1 + 2u) for
      the g < 54 whose weight does not underflow at the shape check.
      ``logpow:n`` is within (1 + 7u)**n (1 + 5u) < 1 + 2**-40 for the
      n <= 276 the shape check admits, the argument of
      :func:`_estimate_bounds`.
    * The ulp of ``np.abs(c_0)``: c <= |c_0| (1 + 2u), and c - x_min D
      rises by at most that much (its slope in c is 1 - x_min (kappa +
      1/r1), in (0, 1)); against c - x_min D >= c / 2 that is 4u relative.

    A sample is fl(fl(v(x)) M^(x)), one more rounding: u relative, or
    2**-1075 below the normal range.  So every sample is at most (c - x_min
    D) (1 + eps) + delta with eps = rel + 2**-40 + 2**-48, where 2**-48 =
    32u covers the 4u of the chain, the 4u of |c_0| and the roundings of
    evaluating the bound (D within a few u of kappa c, which x_min scales
    to nothing, and four more operations), and delta = 2 (abs + 2**-1072
    (1 + sum_n |c_n|)) covers the absolute terms.  The bound is NaN, and the row is polished, when a
    coefficient is.  |c_0| <= 2**900 keeps every partial sum of a transform
    finite, so no sample is inf or NaN: such a sum is at most the
    transform's length times A(x) <= A(r1), and D > 0 gives A(r1) < 2c.
    """
    settled, rows = np.zeros(len(j), dtype=bool), np.flatnonzero(j == 0)
    if v.kind not in ("standard_gamma", "log_power") or not len(rows):
        return settled
    r1 = float(rs[1])
    kappa = (1.0 - float(v_rs[1])) / r1
    if v.kind == "standard_gamma":
        kappa = min(kappa, v.gamma)
    kappa *= 1.0 - 2.0**-20
    floor = _GOLDEN_FLOOR * r1
    magnitudes = np.abs(start.stack[rows])
    c, total = magnitudes[:, 0], np.sum(magnitudes, axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf where c_0 is inf: a NaN slope, so the row is polished
        slope = kappa * c - (start.upper[rows, 1] - c) / r1
    relative, absolute = _rounding_slack(magnitudes.shape[1], angles)
    eps, delta = relative + 2.0**-40 + 2.0**-48, 2.0 * (absolute + 2.0**-1072 * (1.0 + total))
    bound = (c - floor * slope) * (1.0 + eps) + delta
    settled[rows] = (slope > 0.0) & (c <= 2.0**900) & (bound <= grid[rows])
    return settled


#: Relative headroom of :func:`_estimate_bounds` on a weight value and on a bound A: 2**21 units of roundoff.
_CAP_SLACK = 2.0**-32


def _estimate_bounds(
    stack: np.ndarray, upper: np.ndarray, rs: np.ndarray, w: Weight, angles: int
) -> tuple[_GridStart, np.ndarray, np.ndarray]:
    """(start, lower, upper): the stack's seed stage under the weight ``w``, and bounds on each row's estimate.

    ``upper`` is the stack's A table (:func:`_upper`) at the grid radii
    ``rs`` and, in one more column, at the outer radius of the last bracket.
    ``start`` is the grid pass's seed stage under ``w`` (:func:`_seeded`),
    which :func:`weighted_sup_norm` continues for the rows kept.  ``lower``
    is the row's best measured seed value; a measured value never exceeds
    the grid value, which never exceeds the polished one.  The returned
    ``upper`` is, over every grid index j, the larger of v(r_j) A(r_j) (the
    grid term) and v+(j) A+(j) (the polish term).  The polished value is the
    grid value or a golden-section sample in the bracket [lo, hi] of the
    argmax j (:func:`_bracket`), so whichever j it is, upper bounds it.
    Only the seed stage is measured (one stacked ``circle_max`` per seed
    radius), so a row whose estimate is not needed never pays for its
    second grid stage.  A+ at bracket j reads column j + 1 of the table.

    A sample is fl(fl(v(r)) M(r)), M the computed circle maximum, and
    rounding is monotone, so upper holds once fl(v(r)) <= v+ and M(r) <= A+
    for every sample r of the bracket:

    * Samples lie in [lo, hi]: a step is p = fl(invphi fl(b - a)), with
      |p| < |b - a| since invphi (1 + u)**2 < 1, and the sample fl(b - p) or
      fl(a + p) lies between a and b.  Those are lo, hi or earlier samples.
    * v+ is the largest computed v at lo, at hi and at a table's nodes
      inside [lo, hi], times 1 + 2**-32, plus 2**-1073.  ``unit`` is exact.
      ``gamma:`` is pow at fl(1 - r), monotone in r, and pow is within an
      ulp of a non-increasing function.  ``logpow:n`` is pow at
      fl(1 - fl(log1p(-r))), within 3u relative of the increasing
      1 - log1p(-r), so two of its values are out of order by at most
      (1 + 7u)**n (1 + 5u), under 2**-40 for the n <= 276 whose weight does
      not underflow at the shape check.  A ``table`` interpolates linearly,
      so its largest value on [lo, hi] is at an end or a node inside; values
      may rise by up to ``_MONOTONE_SLACK`` between nodes, so v(lo) alone
      is no bound.  The absolute term covers an ulp where v is subnormal.
    * A+ is the widened A at hi (the next grid column, or the extra column
      at the outer radius of the last bracket), times 1 + 2**-32, plus
      2**-1072 (1 + sum_n |c_n|).  A power r**n at r <= hi is pow within an
      ulp of a power monotone in r, so it is at most (1 + 5u) times the one
      at hi, or one subnormal ulp (2**-1074) above it; the underflow cut
      (:func:`_powers`) only writes zeros, earlier at smaller r.  So
      :func:`_rounding_slack`'s derivation of M <= A carries over from r to
      hi, with the absolute term's four ulps per coefficient for the
      subnormal powers and room for its own rounding.

    A NaN coefficient makes its row's bounds NaN.
    """
    lo, hi = _bracket(rs, np.arange(len(rs)))
    grid_upper, v = upper[:, :-1], w(rs)
    at_hi = upper[:, 1:] * (1.0 + _CAP_SLACK) + 2.0**-1072 * (1.0 + np.sum(np.abs(stack), axis=1, keepdims=True))
    start = _seeded(stack, rs, v, angles, grid_upper)
    peak = np.maximum(w(lo), w(hi))
    if w.kind == "table":  # linear between its nodes, which may rise by up to _MONOTONE_SLACK
        nodes, values = w.table.T
        inside = (lo[:, None] <= nodes) & (nodes <= hi[:, None])
        peak = np.maximum(peak, np.max(inside * values, axis=1))
    peak = peak * (1.0 + _CAP_SLACK) + 2.0**-1073
    return start, np.max(start.profile * v, axis=1), np.max(np.maximum(grid_upper * v, peak * at_hi), axis=1)


def _contenders(lower: np.ndarray, upper: np.ndarray, count: int) -> np.ndarray:
    """The rows of a witness stack whose polished estimates under one weight can decide a witness ratio.

    The stack holds ``count`` witnesses, then their images for each t;
    ``lower`` and ``upper`` bound every row's estimate under the weight
    (:func:`_estimate_bounds`).  Rounding is monotone, so for each t,
    witness k's final ratio lies in [fl(lower_k' / upper_k),
    fl(upper_k' / lower_k)], k' its image.  A witness whose upper end is
    below the largest lower end cannot hold the maximum, and the witness
    with that lower end has its upper end at least as high, so it stays
    (a lone witness always does).  The test is written "not below": ties
    are kept, and a NaN (in a bound or in the largest lower end) keeps every
    witness it touches.  A witness row is needed if any t keeps the
    witness, and an image row if its t does.  A zero ``lower`` divides to
    inf or NaN, so that witness is kept, and its refusal stays with it.
    """
    images = lambda x: x[count:].reshape(-1, count)  # (t x witnesses)
    with np.errstate(divide="ignore", invalid="ignore"):
        low, high = images(lower) / upper[:count], images(upper) / lower[:count]
    keep = ~(high < np.max(low, axis=-1, keepdims=True))
    return np.concatenate([keep.any(axis=0), keep.ravel()])


# -- coefficient norm families -----------------------------------------------


def frechet_norm(f, k: int | Sequence[int], flavor: str = "sum"):
    """Coefficient norm with ratio r_k = 1 - 1/k, for k >= 2.

    ``sum`` flavor: sum_n |f[n]| r_k**n.  ``sup`` flavor: max_n |f[n]| r_k**n.
    Either family generates the compact-open topology; see the inequality
    suite in the tests for the k**2 equivalence constants.

    ``f`` is a :class:`TaylorSeries` (a float) or a stack with coefficients
    on its last axis (one value per row, each equal to that row's own call).
    ``k`` is one index or a sequence of them, which adds a leading axis with
    one entry per k, each equal to the call for that k alone.  A stack of
    width 0 has norm 0 in both flavors.
    """
    ks = np.asarray(k)
    if not ks.size or not np.all(ks >= 2):  # NaN fails it too
        raise ValueError("norm index k must be >= 2")
    if flavor not in ("sum", "sup"):
        raise ValueError("flavor must be 'sum' or 'sup'")
    coeffs = f.coeffs if isinstance(f, TaylorSeries) else np.asarray(f)
    ratios = np.reshape(1.0 - 1.0 / ks, ks.shape + (1,) * coeffs.ndim)
    terms = np.abs(coeffs) * ratios ** np.arange(coeffs.shape[-1])
    norms = np.sum(terms, axis=-1) if flavor == "sum" else np.max(terms, axis=-1, initial=0.0)
    return _dropped(norms)


# -- operator norm bounds ------------------------------------------------------


def log_norm_bound(t: float) -> float:
    """-log(1-t)/t, with its limits 1 at t = 0 and inf at t = 1: the operator norm on the unit-weight space."""
    CesaroOperator(t)
    return 1.0 if t == 0.0 else math.inf if t == 1.0 else -math.log1p(-t) / t


def norm_upper_bound(t: float, v: Weight) -> float:
    """Proven upper bound for the operator norm on the weighted space of ``v``.

    The one rule for where the operator is bounded on a weighted space.  For
    t < 1 every weight admits -log(1-t)/t.  Standard weights sharpen this: the
    norm equals 1 for gamma >= 1, and min(-log(1-t)/t, 1/gamma) bounds it for
    gamma in (0, 1), max(1, 1/gamma) at t = 1.  Other weights refuse t = 1.
    """
    CesaroOperator(t)
    if v.kind == "standard_gamma":
        return 1.0 if v.gamma >= 1.0 else min(log_norm_bound(t), 1.0 / v.gamma)
    if t == 1.0:
        raise ValueError(
            f"t = 1 needs a gamma:<g> weight, got {v.label}: C_1 1 = -log(1-z)/z is not in H^inf, "
            "C_1 is unbounded on the logpow spaces and bounded here only on the (1-r)**gamma spaces"
        )
    return log_norm_bound(t)


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
    Every (weight, t) must pass :func:`norm_upper_bound`, which decides t = 1.

    ``t`` is one parameter or a sequence of them, and ``v`` one
    :class:`Weight` or a sequence of them: a sweep.  The witnesses are
    stacked once, followed by their images for every t, and the stack's A
    table (:func:`_upper`) is built once.  Then each weight runs its own
    pass: bounds from the seed stage of its grid (:func:`_estimate_bounds`)
    pick the rows that can still hold its maximum ratio
    (:func:`_contenders`), one :func:`weighted_sup_norm` call takes those
    rows with their seeds and finishes their grid pass and polish, and the
    others are measured only at their seeds.  Rows are measured
    independently, so every value is the one that measuring every row
    gives, bit for bit.  The :class:`NormEstimate` holds a (weights x t)
    array, shaped as the module docstring says.
    """
    single_t, one_weight = np.ndim(t) == 0, isinstance(v, Weight)
    ts, weights = _listed(t, single_t), _listed(v, one_weight)
    specs.count(len(ts), 1, "t list must be non-empty")
    specs.count(len(weights), 1, "weight list must be non-empty")
    for w in weights:
        for x in ts:
            norm_upper_bound(x, w)
    count = specs.count(len(witnesses), 1, "witness list must be non-empty")
    rs = _grid(radii, angles)  # refused before any witness is applied
    stack = _coefficient_stack(list(witnesses) + [apply(CesaroOperator(x), w) for x in ts for w in witnesses])
    upper = _upper(stack, np.append(rs, _bracket(rs, len(rs) - 1)[1]), angles)
    ratios = np.empty((len(weights), len(ts)))
    for row, w in zip(ratios, weights):
        start, lower, top = _estimate_bounds(stack, upper, rs, w, angles)
        needed = _contenders(lower, top, count)
        values = np.ones(len(stack))  # a row not polished takes no part in any ratio
        values[needed] = weighted_sup_norm(start.rows(needed), w, radii, angles).value
        if np.any(values[:count] <= 0.0):
            raise ValueError("every witness must have positive weighted norm")
        pairs = values[count:].reshape(len(ts), count) / values[:count]
        pairs[~needed[count:].reshape(len(ts), count)] = -np.inf
        row[:] = np.max(pairs, axis=-1)
    return NormEstimate(_dropped(ratios, one_weight, single_t))
