"""Truncated complex power series on the unit disc.

Everything else in this package manipulates one data structure: a finite
coefficient vector ``c`` standing for the analytic function

    f(z) = c[0] + c[1]*z + c[2]*z**2 + ... + c[N]*z**N,   |z| < 1.

All the averaging operators implemented here are lower triangular on
coefficients, so truncating at degree N and applying an operator commutes
with applying the operator and then truncating: the first N+1 output
coefficients are exact, not approximate.  Operations document which output
prefix is exact.

Coefficients are complex double precision throughout; there is no
arbitrary-precision path in the library itself.
"""

from __future__ import annotations

import cmath
import math
import reprlib
import warnings

import numpy as np

from . import specs

#: Default truncation degree for experiment-level helpers.
DEFAULT_TRUNCATION = 512


class TaylorSeries:
    """A truncated power series, held as an immutable complex coefficient vector.

    ``TaylorSeries([1, 0.5, 0.25])`` represents ``1 + 0.5 z + 0.25 z**2``.
    Coefficient ``n`` is the n-th Taylor coefficient of the function the
    series truncates.  Two series are equal iff their coefficient vectors
    agree after zero-padding to one length.

    The coefficient array is read-only; operations return new instances.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        self.coeffs = arr

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def padded(self, degree: int) -> "TaylorSeries":
        """Same function, coefficient vector extended with zeros to ``degree``."""
        specs.count(degree, 0, "degree must be >= 0")
        if degree < self.degree:
            raise ValueError("padded() cannot shrink a series; use truncated()")
        out = np.zeros(degree + 1, dtype=complex)
        out[: len(self.coeffs)] = self.coeffs
        return TaylorSeries(out)

    def truncated(self, degree: int) -> "TaylorSeries":
        """Drop coefficients above ``degree`` (pads if the series is shorter)."""
        if specs.count(degree, 0, "degree must be >= 0") >= self.degree:
            return self.padded(degree)
        return TaylorSeries(self.coeffs[: degree + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaylorSeries):
            return NotImplemented
        with np.errstate(over="ignore"):  # coefficients more than the double range apart differ by inf
            return max_coeff_diff(self, other) == 0.0

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, TaylorSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return TaylorSeries(self.coeffs[:n] + other.coeffs[:n])

    def __sub__(self, other):
        if not isinstance(other, TaylorSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return TaylorSeries(self.coeffs[:n] - other.coeffs[:n])

    def __mul__(self, scalar):
        if isinstance(scalar, TaylorSeries):
            return cauchy_product(self, scalar)
        return TaylorSeries(self.coeffs * complex(scalar))

    def __rmul__(self, scalar):
        return self.__mul__(scalar)

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        tail = ", ..." if len(self.coeffs) > 4 else ""
        return f"TaylorSeries(degree={self.degree}, coeffs={head[:-1]}{tail}])"


def evaluate(f: TaylorSeries, z: complex) -> complex:
    """Evaluate ``f`` at a point of the open unit disc by Horner's scheme.

    Rejects ``|z| >= 1``: the truncation is only a faithful stand-in for the
    underlying function inside the disc.  Runs ``polyval``'s recurrence
    (``c[-1] + z*0``, then ``c + value*z``) in Python complex arithmetic,
    which rounds each step as numpy's complex scalars do, so the value is
    ``np.polynomial.polynomial.polyval(z, f.coeffs)`` bit for bit, without
    numpy's per-scalar overhead.
    """
    z = complex(z)
    if not abs(z) < 1.0:  # NaN fails it too
        raise ValueError(f"evaluation point must satisfy |z| < 1, got |z| = {abs(z)}")
    *head, last = f.coeffs.tolist()
    value = last + z * 0
    for c in reversed(head):
        value = c + value * z
    return value


def evaluate_many(f: TaylorSeries, zs) -> np.ndarray:
    """Vectorized :func:`evaluate` over an array of points, all with ``|z| < 1``."""
    zs = np.asarray(zs, dtype=complex)
    if not np.all(np.abs(zs) < 1.0):  # NaN fails it too
        raise ValueError("all evaluation points must satisfy |z| < 1")
    return np.polynomial.polynomial.polyval(zs, f.coeffs)


def cauchy_product(f: TaylorSeries, g: TaylorSeries, max_degree: int | None = None) -> TaylorSeries:
    """Coefficientwise product: ``h[n] = sum_k f[k] * g[n-k]``.

    The result carries the full convolution degree ``deg f + deg g`` unless
    ``max_degree`` caps it.  Whatever the cap, the retained prefix is exact
    for the product of the two truncations.
    """
    h = np.convolve(f.coeffs, g.coeffs)
    if max_degree is not None:
        h = h[: max_degree + 1]
    return TaylorSeries(h)


def max_coeff_diff(f: TaylorSeries, g: TaylorSeries) -> float:
    """Max-abs coefficient difference after aligning lengths with zero padding."""
    n = max(len(f.coeffs), len(g.coeffs))
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    a[: len(f.coeffs)] = f.coeffs
    b[: len(g.coeffs)] = g.coeffs
    return float(np.max(np.abs(a - b)))


def constant_one(degree: int = 0) -> TaylorSeries:
    """The constant function 1, optionally padded to a working truncation."""
    specs.count(degree, 0, "degree must be >= 0")
    out = np.zeros(degree + 1, dtype=complex)
    out[0] = 1.0
    return TaylorSeries(out)


def geometric_series(ratio: complex, degree: int) -> TaylorSeries:
    """Truncation of ``1/(1 - ratio*z)``: coefficients ``ratio**n``."""
    specs.count(degree, 0, "degree must be >= 0")
    return TaylorSeries(np.asarray(ratio, dtype=complex) ** np.arange(degree + 1))


def log_power_series(n: int, truncation: int) -> TaylorSeries:
    """Truncation of ``(log(1-z))**n`` for n >= 1, by repeated Cauchy products.

    The base ``log(1-z)`` (n = 1) has coefficient 0 equal to 0 and coefficient
    k equal to ``-1/k``.  Every product is capped at degree ``truncation``;
    the prefix is exact.
    """
    specs.count(n, 1, "log-power exponent must be >= 1")
    specs.count(truncation, 0, "truncation must be >= 0")
    coeffs = np.zeros(truncation + 1, dtype=complex)
    coeffs[1:] = -1.0 / np.arange(1, truncation + 1)
    base = TaylorSeries(coeffs)
    power = base
    for _ in range(n - 1):
        power = cauchy_product(power, base, max_degree=truncation)
    return power


def random_series(degree: int, rng: np.random.Generator) -> TaylorSeries:
    """Random test function: coefficients uniform on the complex unit square."""
    specs.count(degree, 0, "degree must be >= 0")
    return TaylorSeries(rng.random(degree + 1) + 1j * rng.random(degree + 1))


# --- serialization: JSON arrays of [re, im] pairs -------------------------


def to_pairs(f: TaylorSeries) -> list[list[float]]:
    """Series as a plain list of ``[re, im]`` pairs (the JSON wire form)."""
    return [[float(c.real), float(c.imag)] for c in f.coeffs]


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def from_pairs(pairs, source: str = "series") -> TaylorSeries:
    """Inverse of :func:`to_pairs`; also accepts bare real numbers.

    ``pairs`` must be a non-empty list whose items are finite real numbers
    (not bools) or ``[re, im]`` pairs of them.  Anything else raises a
    ``ValueError`` that names ``source`` and the index of the bad item.
    """
    expected = "real numbers or [re, im] pairs of real numbers"
    if not isinstance(pairs, list) or not pairs:
        raise ValueError(f"{source} must be a non-empty list of {expected}")
    coeffs = []
    for i, item in enumerate(pairs):
        if _is_real(item):
            parts = [item]
        elif isinstance(item, list) and len(item) == 2 and all(map(_is_real, item)):
            parts = item
        else:
            raise ValueError(f"{source} has the item {reprlib.repr(item)} at index {i}; items must be {expected}")
        try:
            value = complex(*parts)
        except OverflowError:  # an integer beyond the double range
            value = complex(math.inf)
        if not cmath.isfinite(value):
            raise ValueError(f"{source} has the non-finite item {reprlib.repr(item)} at index {i}")
        coeffs.append(value)
    return TaylorSeries(coeffs)


def read_csv(path, what: str, columns: str, header: bool = False) -> np.ndarray:
    """The rows of a numeric CSV (``#`` comments; ``header`` skips line 1) with at least the ``columns``.

    A refusal names the file as ``what`` and ``path``.
    """
    with warnings.catch_warnings():  # an empty file is refused below, not warned about
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=int(header))
    if rows.size == 0:
        raise ValueError(f"{what} {path} has no rows of the columns {columns}")
    if rows.shape[1] < len(columns.split(",")):
        raise ValueError(f"{what} {path} needs the columns {columns}")
    return rows
