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
C_t = N^{-1} (I - tS)^{-1}.  Multiplied through by BN, every shifted system
(sigma C_t - nu I) x = c is lower bidiagonal, and :func:`shifted_solve` is
its one kernel: the resolvent, the eigenpairs and the range preimage of
(C_t - I) are calls of it.  :class:`CesaroOperator` is the one test of t in
[0, 1] on coefficient space: the inverse, the kernel and their callers
construct one.  Whether C_t is bounded on a weighted space at t = 1 is
decided by the weight, in :func:`cesaro.weights.norm_upper_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztbtrs
from scipy.signal import lfilter

from .series import TaylorSeries, evaluate_many


@dataclass(frozen=True)
class CesaroOperator:
    """Averaging operator with parameter ``t``, applied by the O(N) recurrence.

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
    if abs(z) >= 1.0:
        raise ValueError(f"evaluation point must satisfy |z| < 1, got |z| = {abs(z)}")
    if quad_nodes < 2:
        raise ValueError("quad_nodes must be >= 2")
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
    """
    CesaroOperator(t)  # refuses t outside [0, 1]
    rhs = inverse_coefficients(t, c)
    n = np.arange(len(rhs))
    ab = np.zeros((2, len(rhs)), dtype=complex)  # LAPACK band storage: diagonal, subdiagonal
    ab[0] = sigma - nu * (n + 1.0)
    ab[1, :-1] = nu * t * n[1:]
    if pin is not None:  # for k = 0, ab[1, k - 1] is the unused last slot
        k, value = pin
        ab[0, k], ab[1, k - 1], rhs[k] = 1.0, 0.0, value
    x, info = ztbtrs(ab, rhs, uplo="L")
    if info > 0:
        raise ValueError(f"shifted system is singular: diagonal entry {info - 1} is zero")
    return x


def apply_inverse(inv: InverseOperator, f: TaylorSeries) -> TaylorSeries:
    """Coefficients of ``(1 - t z)(z f)'``, exact on the truncation prefix."""
    return TaylorSeries(inverse_coefficients(inv.t, f.coeffs))
