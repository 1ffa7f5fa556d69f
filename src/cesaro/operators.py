"""The generalized Cesaro averaging operators on coefficient vectors.

For a parameter ``t`` in [0, 1] the operator sends coefficients ``x`` to

    (C_t x)[n] = (t**n x[0] + t**(n-1) x[1] + ... + x[n]) / (n + 1).

``t = 0`` is the Hardy averaging operator ``x[n] -> x[n]/(n+1)``; ``t = 1``
is the classical arithmetic-mean operator.  On functions this is

    (C_t f)(z) = (1/z) * integral_0^z f(u)/(1 - t u) du,      C_t f(0) = f(0),

and the two realizations agree coefficient by coefficient.  Because the
coefficient matrix is lower triangular, applying the operator to a degree-N
truncation reproduces the first N+1 coefficients of the exact image.

For ``t < 1`` the operator is invertible on coefficient space: the inverse
``f -> (1 - t z) (z f)'`` is the lower-bidiagonal product BN with B = I - tS
(S the shift) and N = diag(n + 1), so C_t = N^{-1} (I - tS)^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import ztbtrs
from scipy.signal import lfilter

from .series import TaylorSeries, evaluate_many, log_power_series


@dataclass(frozen=True)
class CesaroOperator:
    """Averaging operator with parameter ``t``, applied by the O(N) recurrence.

    ``t = 1`` is allowed: the operator is well defined on coefficient space.
    Weighted-norm routines, not this class, refuse ``t = 1``.
    """

    t: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"operator parameter must lie in [0, 1], got {self.t}")


@dataclass(frozen=True)
class InverseOperator:
    """The exact inverse ``f -> (1 - t z)(z f)'``, defined for ``t`` in [0, 1)."""

    t: float

    def __post_init__(self):
        if not 0.0 <= self.t < 1.0:
            raise ValueError(f"inverse parameter must lie in [0, 1), got {self.t}")


def cesaro_coefficients(t: float, coeffs: np.ndarray) -> np.ndarray:
    """Raw-array fast path: prefix recurrence s[n] = t*s[n-1] + x[n], out = s/(n+1).

    Runs along the last axis, so a (batch x coefficients) stack of
    equal-length series is one call; each row equals its own one-row result.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    prefix = lfilter([1.0], [1.0, -float(t)], coeffs, axis=-1)
    return prefix / np.arange(1, coeffs.shape[-1] + 1)


def operator_matrix(t: float, size: int) -> np.ndarray:
    """The size x size lower-triangular section M[n, k] = t**(n-k) / (n+1), k <= n.

    A dense reference route (O(size^2)) for the acceptance checks and the
    tests; :func:`apply` never builds it.
    """
    if size < 1:
        raise ValueError("matrix section needs size >= 1")
    n = np.arange(size)
    powers = float(t) ** n  # t**(n-k) is powers[n - k]: size powers, not size**2
    return np.tril(powers[np.abs(np.subtract.outer(n, n))]) / (n[:, None] + 1.0)


def apply(op: CesaroOperator, f: TaylorSeries) -> TaylorSeries:
    """Apply the operator; the full output prefix is exact (lower triangularity)."""
    return TaylorSeries(cesaro_coefficients(op.t, f.coeffs))


def apply_integral(op: CesaroOperator, f: TaylorSeries, z: complex, quad_nodes: int = 64) -> complex:
    """Value of the image at ``z`` via Gauss-Legendre quadrature of the integral form.

    Integrates ``f(s z)/(1 - s t z)`` over ``s`` in [0, 1].  The integrand is
    analytic on the segment whenever ``t |z| < 1``, so the node count buys
    exponential accuracy; 64 nodes are ample for degree <= 128 inputs.  A
    reference route, independent of the recurrence, for the acceptance
    checks and the tests.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"evaluation point must satisfy |z| < 1, got |z| = {abs(z)}")
    if op.t * abs(z) >= 1.0:
        raise ValueError("integral form needs t*|z| < 1")
    if quad_nodes < 2:
        raise ValueError("quad_nodes must be >= 2")
    if z == 0:
        return complex(f.coeffs[0])  # the defining convention: image(0) = f(0)
    nodes, wts = np.polynomial.legendre.leggauss(quad_nodes)
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


def bidiagonal_solve(diag, sub, rhs) -> np.ndarray:
    """Forward substitution for the lower-bidiagonal system ``L x = rhs``.

    ``L[n, n] = diag[n]`` and ``L[n, n-1] = sub[n-1]``.  One LAPACK ``ztbtrs``
    call, O(N) and without pivoting: x[n] = (rhs[n] - sub[n-1] x[n-1]) / diag[n].
    Overflow is not trapped; it shows as non-finite entries of the result.
    """
    ab = np.array([diag, np.append(sub, 0.0)], dtype=complex)  # LAPACK band storage
    x, info = ztbtrs(ab, np.asarray(rhs, dtype=complex), uplo="L")
    if info > 0:
        raise ValueError(f"bidiagonal system is singular: diagonal entry {info - 1} is zero")
    return x


def apply_inverse(inv: InverseOperator, f: TaylorSeries) -> TaylorSeries:
    """Coefficients of ``(1 - t z)(z f)'``, exact on the truncation prefix."""
    return TaylorSeries(inverse_coefficients(inv.t, f.coeffs))


def classical_c1_log_image(n: int, truncation: int) -> tuple[TaylorSeries, TaylorSeries]:
    """Input/image pair for the t = 1 averaging of ``(log(1-z))**n``.

    Returns the degree-``truncation`` coefficients of ``f = (log(1-z))**n``
    (:func:`~cesaro.series.log_power_series`) together with the
    image of ``f`` under the t = 1 operator.  The image's exact closed form
    is ``-(log(1-z))**(n+1) / ((n+1) z)``; tests hold the returned image to
    that within 1e-10.
    """
    power = log_power_series(n, truncation)
    image = apply(CesaroOperator(1.0), power)
    return power, image
