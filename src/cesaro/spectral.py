"""Eigenpairs, resolvents and finite sections of the averaging operators.

The coefficient matrix of the parameter-t operator is lower triangular with
diagonal 1/(n+1), so every finite section has eigenvalues {1, 1/2, ..., 1/N}
regardless of t, and the full operator's point spectrum is the ladder
Lambda = {1/(m+1)}.  Its closure Lambda_0 = Lambda + {0} is where resolvent
computations break down; everything here measures distances to that set.

Eigenpairs and resolvents, like the range preimage in :mod:`cesaro.dynamics`,
are calls of the one kernel for (sigma C_t - nu I) x = c,
:func:`cesaro.operators.shifted_solve`, at every t in [0, 1] (t = 1 too, as
:class:`CesaroOperator` decides): the resolvent at sigma = 1, an eigenvector as
the null vector of (m+1) C_t - I with x[m] pinned to 1.  The binomial closed
form C(n, m) t**(n-m) of the eigenvectors and the displayed closed form of the
resolvent are validated against these solves in the tests, never used by them;
the eigenvector's log-magnitude only decides how long a prefix the solve gets,
since past it every entry is below the smallest normal double and is returned
as an exact 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specs
from .operators import CesaroOperator, shifted_solve
from .series import TaylorSeries

#: Distance to Lambda_0 below which resolvent queries are refused.  Closer
#: than this the triangular system's conditioning (which grows like the
#: reciprocal distance) makes answers silent garbage.
LAMBDA_TOL = 1e-6

_MAX_INDEX = float(2**62)

#: The smallest normal double; eigenvector entries below it are returned as exact 0.
_TINY = 2.0**-1022
#: The log-magnitude past which an eigenvector entry is cut: 40 below log(_TINY).
_LOG_CUT = math.log(_TINY) - 40.0
#: The exact zero the kernel returns where an eigenvector entry past m underflows (its imaginary part is
#: -0.0); flushed and cut entries take it too, so an output that held no subnormal keeps its bits.
_UNDERFLOW = complex(0.0, -0.0)


def eigenvalues(count: int) -> np.ndarray:
    """The first ``count`` points of the eigenvalue ladder: 1/(m+1).

    They are also the spectrum of the count x count coefficient section at
    every t: the section is lower triangular with diagonal 1/(n+1).
    """
    specs.count(count, 0, "eigenvalue count must be >= 0")
    return 1.0 / (np.arange(count) + 1.0)


def spectrum_distance(nu: complex) -> float:
    """Distance from ``nu`` to the closed spectrum {0} + {1/(m+1) : m >= 0}.

    The ladder points nearest Re(nu) bracket the candidates; 0 covers the
    accumulation end.  A non-finite ``nu`` is refused.
    """
    if not np.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    nu = complex(nu)
    best = abs(nu)
    best = min(best, abs(nu - 1.0))
    x = nu.real
    if x > 0.0:
        m_real = min(max(1.0 / x - 1.0, 0.0), _MAX_INDEX)
        for m in {math.floor(m_real), math.ceil(m_real)}:
            best = min(best, abs(nu - 1.0 / (m + 1.0)))
    return best


# -- eigenpairs ---------------------------------------------------------------


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue 1/(m+1) with its normalized eigenfunction (coefficient m is 1)."""

    m: int
    eigenvalue: float
    series: TaylorSeries


def eigenpair(t: float, m: int, truncation: int) -> EigenPair:
    """The index-m eigenfunction: the null vector of (m+1) C_t - I with x[m] = 1.

    Multiplied through by BN, rows n > m read (m - n) x[n] + t n x[n-1] = 0:
    x[n] = t n x[n-1] / (n - m), and rows n < m give x[n] = 0 exactly.
    ``operator(x) = x / (m+1)`` holds exactly on the truncation prefix, up to
    the entries below 2**-1022 (the smallest normal double), which are
    returned as exact 0: the solve runs only on the prefix that can hold a
    normal entry (:func:`_normal_prefix`), and row n depends on row n-1 alone,
    so every normal entry is the one the full-length solve gives, bit for
    bit.  For t = 0, x = e_m.  Where x[n] = C(n, m) t**(n-m) overflows double
    precision the call is refused with a ValueError.
    """
    specs.count(m, 0, "eigenvalue index must be >= 0")
    specs.count(truncation, m + 1, f"index m={m} must be smaller than the truncation {truncation}")
    CesaroOperator(t)  # refuses t outside [0, 1] before log(t) is taken
    cut = _normal_prefix(t, m, truncation)
    # row m, the singular one, is replaced by the normalization x[m] = 1
    x = shifted_solve(t, m + 1, 1, np.zeros(cut), pin=(m, 1))
    if not np.all(np.isfinite(x)):
        raise ValueError(f"eigenvector of index m={m} overflows double precision at truncation {truncation}")
    x[(x != 0.0) & (np.abs(x) < _TINY)] = _UNDERFLOW
    return EigenPair(m, 1.0 / (m + 1.0), TaylorSeries(np.r_[x, np.full(truncation + 1 - cut, _UNDERFLOW)]))


def _normal_prefix(t: float, m: int, truncation: int) -> int:
    """Length of the eigenvector prefix [0, cut) past which every |x[n]| < 2**-1022.

    log x[n] = lgamma(n+1) - lgamma(m+1) - lgamma(n-m+1) + (n-m) log t rises
    up to the peak n = m/(1-t) (the step ratio t n/(n-m) is >= 1 there) and
    falls past it, so bisection from the peak finds the last n with log x[n]
    >= :data:`_LOG_CUT`; its margin of 40 below log 2**-1022 covers the
    rounding of lgamma many times over.  The peak, and with it any overflow,
    lies inside the prefix.  At t = 0 the prefix is [0, m]; at t = 1 the
    entries C(n, m) never fall, and nothing is cut.
    """
    if t == 0.0:
        return m + 1
    if t == 1.0:
        return truncation + 1
    log_t = math.log(t)

    def above(n: int) -> bool:
        return math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1) + (n - m) * log_t >= _LOG_CUT

    lo, hi = min(max(m, math.floor(m / (1.0 - t))), truncation), truncation  # above(lo) holds: x[lo] >= 1
    if above(hi):
        return truncation + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


# -- resolvent ----------------------------------------------------------------


@dataclass(frozen=True)
class ResolventQuery:
    """A resolvent evaluation request: the shift ``nu`` and the right-hand side.

    ``tol`` is the refusal distance to the closed spectrum.
    """

    nu: complex
    rhs: TaylorSeries
    tol: float = LAMBDA_TOL

    def __post_init__(self):
        if not self.tol > 0:  # NaN fails it too
            raise ValueError("tolerance must be positive")
        dist = spectrum_distance(self.nu)
        if dist < self.tol:
            raise ValueError(
                f"nu={self.nu} is a (near-)spectral point: distance {dist:.3e} "
                f"to the eigenvalue ladder is below {self.tol:.1e}"
            )


def resolvent_apply(query: ResolventQuery, t: float) -> TaylorSeries:
    """The unique coefficient solution ``a`` of (operator - nu I) a = rhs.

    One O(N) forward substitution of the shifted kernel at sigma = 1, on the
    degree of the right-hand side.
    """
    return TaylorSeries(shifted_solve(t, 1, complex(query.nu), query.rhs.coeffs))


# -- infinite product growth ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProductBoundReport:
    """Scan of p_n = prod_{k<=n} |1 - 1/(k nu)| against the n**(-alpha) envelope.

    ``scaled`` is p_n * n**alpha with alpha = Re(1/nu); boundedness of the
    scaled sequence between positive constants is the two-sided envelope the
    resolvent estimates rest on.  ``d_hat``/``D_hat`` are its min/max over
    n >= 10, and ``tail_slope`` the log-log trend over the last decade (a
    stabilized scan shows no trend).
    """

    alpha: float
    n_values: np.ndarray
    p_values: np.ndarray
    scaled: np.ndarray
    d_hat: float
    D_hat: float
    tail_slope: float


def product_bound_scan(nu: complex, n_max: int) -> ProductBoundReport:
    """Accumulate the products in log space and report the scaled envelope.

    Log-space accumulation (a cumulative sum of log |1 - 1/(k nu)|) keeps the
    scan safe out to n ~ 1e4 even when n**alpha alone would under/overflow.
    """
    nu = complex(nu)
    dist = spectrum_distance(nu)
    specs.count(n_max, 100, "n_max must be >= 100")
    if dist < 1e-9:
        raise ValueError(f"nu={nu} is too close to the eigenvalue ladder for the product scan")
    k = np.arange(1, n_max + 1, dtype=float)
    log_p = np.cumsum(np.log(np.abs(1.0 - 1.0 / (k * nu))))
    alpha = (1.0 / nu).real
    log_scaled = log_p + alpha * np.log(k)
    scaled = np.exp(log_scaled)
    p = np.exp(log_p)
    window = k >= 10
    d_hat = float(np.min(scaled[window]))
    big_d = float(np.max(scaled[window]))
    tail = k >= max(10, n_max // 10)
    x = np.log(k[tail])
    x -= x.mean()  # centred, so x . y is the least-squares x . (y - mean(y))
    # BLAS ddot splits long sums across threads, so its last bits follow the BLAS thread count; einsum does
    # not thread, so the slope no longer depends on that count.  Its SIMD order may still vary with the numpy
    # build and the CPU.
    dot = lambda a, b: np.einsum("i,i->", a, b)
    slope = float(dot(x, log_scaled[tail]) / dot(x, x))
    return ProductBoundReport(alpha, k.astype(int), p, scaled, d_hat, big_d, slope)
