"""The generalized Cesaro averaging operators on coefficient vectors.

For a parameter ``t`` in [0, 1] the operator sends coefficients ``x`` to

    (C_t x)[n] = (t**n x[0] + t**(n-1) x[1] + ... + x[n]) / (n + 1).

``t = 0`` is the Hardy averaging operator ``x[n] -> x[n]/(n+1)``; ``t = 1``
is the classical arithmetic-mean operator.  On functions this is

    (C_t f)(z) = (1/z) * integral_0^z f(u)/(1 - t u) du,      C_t f(0) = f(0),

and the two realizations agree coefficient by coefficient.  Because the
coefficient matrix is lower triangular, applying the operator to a degree-N
truncation reproduces the first N+1 coefficients of the exact image.

For every t in [0, 1], t = 1 included, the operator is invertible on
coefficient space: the inverse ``f -> (1 - t z) (z f)'`` is BN, with B = I - tS
unit lower bidiagonal (S the shift) and N = diag(n + 1), so
C_t = N^{-1} (I - tS)^{-1}.  The forward map :func:`cesaro_coefficients` is
the ``diag="U"`` band solve of B followed by N^{-1}.  With a unit diagonal
LAPACK reads neither row 0 of the band (the diagonal) nor the unused last
slot of row 1, so the ones of B are never written: the band is one
contiguous fill with -t.  Multiplied through by BN, every shifted system
(sigma C_t - nu I) x = c is lower bidiagonal, and :func:`shifted_solve` is
its one kernel: the resolvent, the eigenpairs and the range preimage of
(C_t - I) are calls of it.  It writes the band in place, column-major as
LAPACK stores it, and LAPACK solves in place in the fresh array BN c, so
neither is copied; each band entry comes from the same floating-point
operations as in a row-major band, so the solutions are the same bits.
:class:`CesaroOperator` is the one test of t in [0, 1] on coefficient
space: the forward map, the dense section, the inverse and the kernel
construct one.  Whether C_t is bounded on a weighted space at t = 1 is
decided by the weight, in :func:`cesaro.weights.norm_upper_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztbtrs

from . import specs
from .series import TaylorSeries, evaluate_many


@dataclass(frozen=True)
class CesaroOperator:
    """Averaging operator with parameter ``t``, applied by one O(N) band solve.

    The one test of ``t`` on coefficient space: [0, 1], ``t = 1`` included.
    """

    t: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"operator parameter must lie in [0, 1], got {self.t}")


@dataclass(frozen=True)
class InverseOperator:
    """The exact inverse ``f -> (1 - t z)(z f)'``, for ``t`` in [0, 1] as :class:`CesaroOperator` decides."""

    t: float

    def __post_init__(self):
        CesaroOperator(self.t)


def cesaro_coefficients(t: float, coeffs: np.ndarray) -> np.ndarray:
    """The image C_t x = N^{-1} (I - tS)^{-1} x along the last axis: one band solve, then s[n] / (n+1).

    The partial sums s[n] = t s[n-1] + x[n] solve (I - tS) s = x: one LAPACK
    ``ztbtrs`` call with ``uplo="L", diag="U"``.  The rows of any leading
    axes are the right-hand sides of that one call, and each row equals its
    own one-row result.  They are the fresh C-ordered array x + 0.0 (which
    turns -0.0 parts into +0.0), handed over transposed, in the column-major
    layout LAPACK stores, so it solves in place and ``coeffs`` is never
    written.  The division by n + 1 is in place too: with one more array
    of the input's size, each call at N = 131073 in a fresh process took
    about 1760 minor page faults, as the freed heap went back to the
    system, and ran twice as slow; in place it takes none.

    The values equal those of the same recurrence run as a linear filter,
    the tests' reference, bit for bit on inputs without zero parts; the
    sign of an exact zero may differ, as the filter's follows the signs of
    the previous input, and so may the sign bit of a NaN.
    """
    CesaroOperator(t)  # refuses t outside [0, 1]
    rhs = np.add(coeffs, 0.0, dtype=complex, order="C")
    width = rhs.shape[-1]
    if rhs.size:  # never nrhs = 0: from N = 8193 on, that corrupts the heap (scipy 1.17.1)
        ab = np.full((width, 2), -float(t), dtype=complex).T  # LAPACK reads only the subdiagonal row
        solved = ztbtrs(ab, rhs.reshape(-1, width).T, uplo="L", diag="U", overwrite_b=1)[0]
        rhs = solved.T.reshape(rhs.shape)
    return np.divide(rhs, np.arange(1, width + 1), out=rhs)


def operator_matrix(t: float, size: int) -> np.ndarray:
    """The size x size lower-triangular section M[n, k] = t**(n-k) / (n+1), k <= n.

    A dense reference route (O(size^2)) for the acceptance checks and the
    tests; :func:`apply` never builds it.
    """
    CesaroOperator(t)
    specs.count(size, 1, "matrix section needs size >= 1")
    n = np.arange(size)
    return np.tril(scipy.linalg.toeplitz(float(t) ** n)) / (n[:, None] + 1)  # entry (n, k) is t**(n-k)


def apply(op: CesaroOperator, f: TaylorSeries) -> TaylorSeries:
    """Apply the operator; the full output prefix is exact (lower triangularity)."""
    return TaylorSeries(cesaro_coefficients(op.t, f.coeffs))


@lru_cache(maxsize=8)
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node count.

    The arrays are shared by every caller, so they are read-only.
    """
    nodes, wts = np.polynomial.legendre.leggauss(count)
    nodes.flags.writeable = False
    wts.flags.writeable = False
    return nodes, wts


def apply_integral(op: CesaroOperator, f: TaylorSeries, z: complex, quad_nodes: int = 64) -> complex:
    """Value of the image at ``z`` via Gauss-Legendre quadrature of the integral form.

    Integrates ``f(s z)/(1 - s t z)`` over ``s`` in [0, 1].  The integrand is
    analytic on the segment, as ``t |z| < 1`` for ``|z| < 1``, so the node
    count buys exponential accuracy; 64 nodes are ample for degree <= 128
    inputs.  A reference route, independent of the recurrence, for the
    acceptance checks and the tests.
    """
    z = complex(z)
    if not abs(z) < 1.0:  # NaN fails it too
        raise ValueError(f"evaluation point must satisfy |z| < 1, got |z| = {abs(z)}")
    specs.count(quad_nodes, 2, "quad_nodes must be >= 2")
    if z == 0:
        return complex(f.coeffs[0])  # the defining convention: image(0) = f(0)
    nodes, wts = _gauss_legendre(quad_nodes)
    s = 0.5 * (nodes + 1.0)
    values = evaluate_many(f, s * z) / (1.0 - s * op.t * z)
    return complex(np.sum(0.5 * wts * values))


def inverse_coefficients(t: float, coeffs: np.ndarray) -> np.ndarray:
    """Raw-array inverse ``BN c``: out[n] = (n+1) c[n] - t n c[n-1], with c[-1] = 0."""
    c = np.asarray(coeffs, dtype=complex)
    n = np.arange(len(c))
    out = (n + 1.0) * c
    out[1:] -= t * n[1:] * c[:-1]
    return out


def shifted_solve(t: float, sigma, nu, c, pin=None) -> np.ndarray:
    """The solution x of (sigma C_t - nu I) x = c: one forward substitution.

    Multiplied through by the inverse BN the system is (sigma I - nu BN) x = BN c,
    lower bidiagonal with diagonal sigma - nu (n+1) and subdiagonal nu t n,
    solved by one LAPACK ``ztbtrs`` call, O(N) and without pivoting.
    ``pin=(k, value)`` replaces row k, singular where sigma = nu (k+1), by
    x[k] = value.  Overflow is not trapped; it shows as non-finite entries.

    The band is allocated once, column-major as ``ztbtrs`` stores it, so the
    wrapper takes it without a transposing copy.  Its rows are written in
    place by ``np.multiply`` and ``np.subtract`` with the operands of
    ``sigma - nu * (n + 1.0)`` and ``(nu * t) * n`` in that order, so every
    entry has the bits a row-major band holds: each ufunc picks its loop
    from its inputs, so a real ``nu`` is still multiplied in real
    arithmetic, and the complex subtraction after it gives the real part
    the real subtraction gives and the imaginary part +0 - +0 = +0.  The
    solve overwrites BN c, which :func:`inverse_coefficients` returns as a
    fresh array, so ``c`` is never written and the result shares no memory
    with it.

    At t = 1 the solve is exact only while every step is: ``ztbsv``, the
    BLAS solve inside ``ztbtrs``, divides by multiplying with the rounded
    reciprocal of the diagonal, and 49 * (1/49) = 0.9999999999999999 in
    doubles, so ``eigenpair(1.0, 0, 64)``, all ones in exact arithmetic,
    leaves 1 first at n = 49.  Measured up to N = 131072, the eigenvectors
    stay within a relative N * 2**-52 of the binomials C(n, m).
    """
    CesaroOperator(t)  # refuses t outside [0, 1]
    rhs = inverse_coefficients(t, c)  # a fresh array: the in-place solve never writes to c
    index = np.arange(1.0, len(rhs) + 1)  # n + 1
    ab = np.empty((len(rhs), 2), dtype=complex).T  # LAPACK band storage, column-major: diagonal, subdiagonal
    np.multiply(nu, index, out=ab[0])
    np.subtract(sigma, ab[0], out=ab[0])
    np.multiply(nu * t, index[:-1], out=ab[1, :-1])
    ab[1, -1:] = 0.0  # the unused last slot
    if pin is not None:  # for k = 0, ab[1, k - 1] is the unused last slot
        k, value = pin
        ab[0, k], ab[1, k - 1], rhs[k] = 1.0, 0.0, value
    x, info = ztbtrs(ab, rhs, uplo="L", overwrite_b=1)
    if info > 0:
        raise ValueError(f"shifted system is singular: diagonal entry {info - 1} is zero")
    return x


def apply_inverse(inv: InverseOperator, f: TaylorSeries) -> TaylorSeries:
    """Coefficients of ``(1 - t z)(z f)'``, exact on the truncation prefix."""
    return TaylorSeries(inverse_coefficients(inv.t, f.coeffs))
