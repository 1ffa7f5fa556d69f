"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, literal formulas, dense solves) and stays independent of the code
paths it checks: the library may vectorize, filter or rearrange, the oracle
never does.
"""

import mpmath
import numpy as np
import scipy.linalg
import scipy.signal
from scipy.special import comb


def brute_circle_max(coeffs, r, angles):
    """Max of |f(r e^{i theta})| over a uniform angle grid, term by term."""
    best = 0.0
    for j in range(angles):
        z = r * np.exp(2j * np.pi * j / angles)
        value = 0j
        zn = 1.0 + 0j
        for c in coeffs:
            value += c * zn
            zn *= z
        best = max(best, abs(value))
    return best


def naive_cesaro_apply(t, coeffs):
    """Direct double sum b[n] = (sum_k t**(n-k) coeffs[k]) / (n+1)."""
    n_len = len(coeffs)
    out = np.zeros(n_len, dtype=complex)
    for n in range(n_len):
        acc = 0j
        for k in range(n + 1):
            acc += t ** (n - k) * coeffs[k]
        out[n] = acc / (n + 1)
    return out


def dense_cesaro_matrix(t, size):
    """The lower-triangular section built entry by entry."""
    mat = np.zeros((size, size))
    for n in range(size):
        for k in range(n + 1):
            mat[n, k] = t ** (n - k) / (n + 1)
    return mat


def elementwise_operator_matrix(t, size):
    """The section with ``t`` raised to every entry of the size x size shift grid."""
    n = np.arange(size)
    shift = np.subtract.outer(n, n)
    with np.errstate(invalid="ignore"):
        powers = np.where(shift >= 0, float(t) ** np.clip(shift, 0, None), 0.0)
    return powers / (n[:, None] + 1.0)


def naive_convolution(a, b):
    """Cauchy product by explicit double loop, full degree."""
    out = np.zeros(len(a) + len(b) - 1, dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def triangular_resolvent_solve(nu, t, rhs):
    """Forward substitution on the dense system (section - nu I) a = rhs."""
    size = len(rhs)
    mat = dense_cesaro_matrix(t, size) - nu * np.eye(size)
    return scipy.linalg.solve_triangular(mat, np.asarray(rhs, dtype=complex), lower=True)


def literal_resolvent_coefficients(nu, t, rhs):
    """The closed form with explicit products, exactly as displayed.

    a[0] = c[0]/(1 - nu),
    a[n] = c[n]/((1/(n+1)) - nu)
           + sum_{h=1}^{n} (-1)**h nu**(h-1) t**h c[n-h]
             / ((n+1) prod_{j=n-h+1}^{n+1} ((1/j) - nu)).
    """
    c = np.asarray(rhs, dtype=complex)
    n_len = len(c)
    a = np.empty(n_len, dtype=complex)
    a[0] = c[0] / (1.0 - nu)
    for n in range(1, n_len):
        total = c[n] / (1.0 / (n + 1) - nu)
        for h in range(1, n + 1):
            prod = 1.0 + 0j
            for j in range(n - h + 1, n + 2):
                prod *= 1.0 / j - nu
            total += (-1) ** h * nu ** (h - 1) * t**h * c[n - h] / ((n + 1) * prod)
        a[n] = total
    return a


def prefix_ratio_resolvent(nu, t, rhs):
    """The closed form above evaluated in O(N) through running prefix ratios.

    V[n] = sum_k t**(n-k) c[k] Q[k]/Q[n] with Q[n] = prod_{j<=n} (1 - 1/(j nu))
    is updated as V[n] = t (V[n-1] + c[n-1]) / (1 - 1/(n nu)); then

        a[n] = c[n]/(1/(n+1) - nu) - V[n] / (nu**2 (n+1) (1 - 1/((n+1) nu))).
    """
    c = np.asarray(rhs, dtype=complex)
    nu = complex(nu)
    a = np.empty(len(c), dtype=complex)
    a[0] = c[0] / (1.0 - nu)
    v = 0.0 + 0.0j
    for n in range(1, len(c)):
        v = t * (v + c[n - 1]) / (1.0 - 1.0 / (n * nu))
        a[n] = c[n] / (1.0 / (n + 1.0) - nu) - v / (nu * nu * (n + 1.0) * (1.0 - 1.0 / ((n + 1.0) * nu)))
    return a


def mp_resolvent(nu, t, rhs, dps=60):
    """Forward substitution of (section - nu I) a = rhs in ``dps``-digit arithmetic.

    Row n reads (t S[n-1] + a[n])/(n+1) - nu a[n] = c[n] with the running sum
    S[n] = sum_{k<=n} t**(n-k) a[k]; the inputs are taken as exact binary values.
    """
    with mpmath.workdps(dps):
        nu = mpmath.mpc(complex(nu))
        t = mpmath.mpf(float(t))
        prefix = mpmath.mpc(0)
        out = []
        for n, c in enumerate(np.asarray(rhs, dtype=complex)):
            a = (mpmath.mpc(complex(c)) - t * prefix / (n + 1)) / (mpmath.mpf(1) / (n + 1) - nu)
            prefix = t * prefix + a
            out.append(complex(a))
    return np.array(out)


def recurrence_eigenvector(t, m, truncation):
    """The kernel recurrence x[m] = 1, x[n] = t n x[n-1] / (n - m), one step at a time."""
    x = np.zeros(truncation + 1, dtype=complex)
    x[m] = 1.0
    for n in range(m + 1, truncation + 1):
        x[n] = t * n * x[n - 1] / (n - m)
    return x


def binomial_eigenvector(t, m, truncation):
    """Closed-form candidate x[n] = C(n, m) t**(n-m), exact integer binomials."""
    x = np.zeros(truncation + 1, dtype=complex)
    for n in range(m, truncation + 1):
        x[n] = float(comb(n, m, exact=True)) * t ** (n - m)
    return x


def harmonic_number(m):
    return sum(1.0 / k for k in range(1, m + 1))


# --- the per-series loops the batched engine replaced -----------------------------


def scalar_circle_max(coeffs, r, angles):
    """One series, one radius: fold the r-scaled coefficients and take one FFT."""
    scaled = np.asarray(coeffs, dtype=complex) * (r ** np.arange(len(coeffs)))
    if r == 0.0:
        return float(abs(scaled[0]))
    width = int(np.ceil(len(scaled) / angles)) * angles
    buf = np.zeros(width, dtype=complex)
    buf[: len(scaled)] = scaled
    folded = buf.reshape(-1, angles).sum(axis=0)
    return float(np.max(np.abs(np.fft.fft(folded))))


def scalar_golden_max(fn, lo, hi, iterations=40):
    """Golden-section search for a maximum of a scalar function; the best sampled value."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    best = max(fc, fd)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
        best = max(best, fc, fd)
    return best


def scalar_weighted_sup_norm(coeffs, v, radii, angles, refine=True):
    """One series: the radial grid r_j = 1 - 2**(-j/4), then the polish around its argmax."""
    rs = 1.0 - 2.0 ** (-np.arange(radii) / 4.0)
    weighted = lambda r: float(v(r)) * scalar_circle_max(coeffs, float(r), angles)
    vals = [weighted(r) for r in rs]
    j = int(np.argmax(vals))
    best = float(vals[j])
    if refine:
        lo = rs[j - 1] if j > 0 else rs[j]
        hi = rs[j + 1] if j + 1 < len(rs) else min(1.0 - 0.25 * (1.0 - rs[j]), 1.0 - 1e-12)
        best = max(best, scalar_golden_max(weighted, lo, hi))
    return best


def _iterate(t, coeffs):
    return scipy.signal.lfilter([1.0], [1.0, -t], coeffs) / np.arange(1, len(coeffs) + 1)


def trial_loop_certificate(t, k, trials, n_max, degree, gammas, seed, radii, angles, weight):
    """Power-boundedness excesses, one trial at a time: (sup excess, {gamma: weighted excess})."""
    rng = np.random.default_rng(seed)
    powers = (1.0 - 1.0 / k) ** np.arange(degree + 1)
    sup_excess = 0.0
    weighted_excess = {g: 0.0 for g in gammas}
    norm = lambda c, g: scalar_weighted_sup_norm(c, weight(g), radii, angles, refine=False)
    for _ in range(trials):
        f = rng.random(degree + 1) + 1j * rng.random(degree + 1)
        base = float(np.max(np.abs(f) * powers))
        base_weighted = {g: norm(f, g) for g in gammas}
        current = f
        for _ in range(n_max):
            current = _iterate(t, current)
            sup_excess = max(sup_excess, float(np.max(np.abs(current) * powers)) - base)
            for g in gammas:
                weighted_excess[g] = max(weighted_excess[g], norm(current, g) - base_weighted[g])
    return sup_excess, weighted_excess


def step_loop_trace(t, coeffs, n_values, norm):
    """Distances of the ergodic means of one series from f[0]/(1 - tz), one step at a time."""
    coeffs = np.asarray(coeffs, dtype=complex)
    limit = coeffs[0] * complex(t) ** np.arange(len(coeffs))
    current = coeffs
    total = np.zeros(len(coeffs), dtype=complex)
    distances = []
    for step in range(1, max(n_values) + 1):
        current = _iterate(t, current)
        total += current
        if step in n_values:
            distances.append(norm(total / step - limit))
    return distances
