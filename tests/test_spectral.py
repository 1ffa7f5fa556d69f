import warnings

import numpy as np
import pytest

from cesaro import (
    CesaroOperator,
    ResolventQuery,
    TaylorSeries,
    apply,
    eigenpair,
    eigenvalues,
    geometric_series,
    max_coeff_diff,
    operator_matrix,
    product_bound_scan,
    random_series,
    resolvent_apply,
    spectrum_distance,
)
from cesaro.operators import shifted_solve
from oracles import (
    binomial_eigenvector,
    literal_resolvent_coefficients,
    mp_eigenvector_entry,
    mp_log_product,
    mp_resolvent,
    prefix_ratio_resolvent,
    recurrence_eigenvector,
    triangular_resolvent_solve,
)


def _random_nu(rng, min_distance=0.1):
    while True:
        nu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if spectrum_distance(nu) >= min_distance:
            return nu


# --- distance to the spectrum ----------------------------------------------------


def test_spectrum_distance_basic_points():
    assert spectrum_distance(0.0) == 0.0
    assert spectrum_distance(1.0) == 0.0
    assert spectrum_distance(0.5) == 0.0
    np.testing.assert_allclose(spectrum_distance(2.0), 1.0)
    np.testing.assert_allclose(spectrum_distance(-1.0), 1.0)
    np.testing.assert_allclose(spectrum_distance(0.75), 0.25)
    np.testing.assert_allclose(spectrum_distance(1j), 1.0)  # nearest is 0
    # between 1/3 and 1/4 the midpoint is 7/24
    np.testing.assert_allclose(spectrum_distance(7 / 24), 1 / 24)


# --- eigenpairs --------------------------------------------------------------------


def test_index_zero_eigenpair_is_the_geometric_fixed_point():
    pair = eigenpair(0.5, 0, 64)
    assert pair.eigenvalue == 1.0
    assert max_coeff_diff(pair.series, geometric_series(0.5, 64)) < 1e-15


def test_index_one_eigenpair_closed_values():
    pair = eigenpair(0.5, 1, 8)
    want = TaylorSeries([0, 1, 1.0, 0.75, 0.5, 0.3125, 0.1875, 0.109375, 0.0625])
    assert pair.eigenvalue == 0.5
    assert max_coeff_diff(pair.series, want) < 1e-15


def test_diagonal_case_gives_basis_vectors():
    for m in (0, 3, 7):
        pair = eigenpair(0.0, m, 16)
        assert pair.series == TaylorSeries(np.eye(17)[m])
        np.testing.assert_allclose(pair.eigenvalue, 1.0 / (m + 1))


def test_eigen_residual_is_roundoff_small():
    # residuals measured relative to the eigenvector scale: the entries grow
    # like C(n, m) t^(n-m), enormous for t near 1, and only the relative
    # picture is meaningful in fixed precision
    for t in (0.0, 0.3, 0.7, 0.99):
        op = CesaroOperator(t)
        for m in (0, 1, 5, 17, 32):
            pair = eigenpair(t, m, 256)
            image = apply(op, pair.series)
            scale = float(np.max(np.abs(pair.series.coeffs)))
            residual = max_coeff_diff(image, pair.eigenvalue * pair.series)
            assert residual <= 1e-14 * scale


def test_recurrence_matches_exact_binomial_closed_form():
    for t in (0.3, 0.9):
        for m in (0, 2, 11, 32):
            got = eigenpair(t, m, 512).series.coeffs
            want = binomial_eigenvector(t, m, 512)
            scale = np.maximum(np.abs(want), 1e-300)
            assert np.max(np.abs(got - want) / scale) < 1e-12


def test_eigenpair_reproduces_the_recurrence_bitwise():
    # same operations in the same order as the one-step recurrence, so the
    # overflow point (and the benchmark's prediction of it) does not move
    for t in (0.3, 0.9, 0.99):
        for m in (0, 5, 200):
            got = eigenpair(t, m, 512).series.coeffs
            np.testing.assert_array_equal(got, recurrence_eigenvector(t, m, 512))


def test_eigenpair_at_the_last_index():
    pair = eigenpair(0.5, 7, 8)
    assert pair.series == TaylorSeries(np.r_[np.zeros(7), 1.0, 4.0])


def test_eigenpair_overflow_is_refused_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow"):
            eigenpair(0.9, 1000, 8192)


TINY = 2.0**-1022  # the smallest normal double


@pytest.mark.parametrize(
    "t, m, truncation",
    [(0.7, 10, 131072), (0.5, 10, 100000), (0.035, 64, 114950), (0.99, 256, 2**17), (0.0, 5, 4096),
     (1.0, 3, 4096), (5e-324, 0, 100)],
)
def test_eigenpair_is_the_full_solve_with_every_entry_below_the_normal_range_an_exact_zero(t, m, truncation):
    full = shifted_solve(t, m + 1, 1, np.zeros(truncation + 1), pin=(m, 1))
    if not np.all(np.isfinite(full)):  # refused exactly where the full-length solve overflows
        with pytest.raises(ValueError, match="overflows double precision"):
            eigenpair(t, m, truncation)
        return
    x = eigenpair(t, m, truncation).series.coeffs
    parts = np.abs(x.view(float))
    assert not np.any((parts > 0.0) & (parts < TINY))  # no subnormal real or imaginary part
    normal = np.abs(full) >= TINY
    assert x[normal].tobytes() == full[normal].tobytes()
    assert np.array_equal(x == 0.0, ~normal)
    zeroed = np.flatnonzero(x[m:] == 0.0) + m
    if zeroed.size:
        # past the peak m/(1-t) the true entries fall, so below 2**-1022 at the first zeroed index means at all
        assert zeroed[0] > m / (1.0 - t)
        for n in np.r_[zeroed[:: max(1, zeroed.size // 20)], zeroed[-1]]:
            assert mp_eigenvector_entry(t, m, int(n)) < TINY


def test_eigenpair_preconditions():
    with pytest.raises(ValueError):
        eigenpair(0.5, 8, 8)
    with pytest.raises(ValueError):
        eigenpair(0.5, -1, 8)
    # t = 1 is an ordinary parameter on coefficient space: the m = 0 eigenvector is (1, 1, ...)
    assert eigenpair(1.0, 0, 8).series == TaylorSeries(np.ones(9))


# --- resolvent -----------------------------------------------------------------------


def test_resolvent_first_rows_forward_substitution():
    # rows 0 and 1 of (section - 2I) a = e_0 give a_0 = -1, a_1 = -t/3
    for t in (0.0, 0.4, 0.9):
        query = ResolventQuery(2.0, TaylorSeries([1.0, 0.0, 0.0, 0.0]))
        a = resolvent_apply(query, t)
        np.testing.assert_allclose(a.coeffs[0], -1.0, rtol=1e-14)
        np.testing.assert_allclose(a.coeffs[1], -t / 3.0, rtol=1e-13, atol=1e-16)


def test_resolvent_diagonal_case_is_closed_form():
    rng = np.random.default_rng(61)
    rhs = random_series(100, rng)
    a = resolvent_apply(ResolventQuery(2.0, rhs), 0.0)
    n = np.arange(101)
    want = rhs.coeffs / (1.0 / (n + 1.0) - 2.0)
    np.testing.assert_allclose(a.coeffs, want, rtol=1e-14)


def test_diagonal_resolvent_respects_the_distance_bound():
    # at t=0 the resolvent is diagonal, a[n] = g[n] / (1/(n+1) - nu), so over
    # the ball B(3, 0.5) no coefficient beats 1/dist(ball, ladder) = 1/(2.5 - 1)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(64):
        nu = 3.0 + 0.5 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        g = random_series(32, rng)
        image = resolvent_apply(ResolventQuery(nu, g), 0.0)
        worst = max(worst, float(np.max(np.abs(image.coeffs) / np.abs(g.coeffs))))
    assert 0.1 < worst <= 1.0 / 1.5 + 1e-12


def test_resolvent_of_eigenvector_rescales():
    # (C - nu) g0 = (1 - nu) g0, so the resolvent sends g0 to g0/(1-nu)
    g0 = geometric_series(0.5, 200)
    a = resolvent_apply(ResolventQuery(3.0, g0), 0.5)
    assert max_coeff_diff(a, TaylorSeries(g0.coeffs / (1.0 - 3.0))) < 1e-13


def test_resolvent_matches_literal_formula():
    rng = np.random.default_rng(67)
    for nu in (2.0, -1.0, 0.3 + 0.9j):
        for t in (0.3, 0.99):
            rhs = random_series(40, rng)
            got = resolvent_apply(ResolventQuery(nu, rhs), t).coeffs
            want = literal_resolvent_coefficients(nu, t, rhs.coeffs)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_resolvent_matches_prefix_ratio_closed_form():
    rng = np.random.default_rng(79)
    for _ in range(10):
        nu = _random_nu(rng)
        t = float(rng.random() * 0.99)
        rhs = random_series(int(rng.integers(1, 2000)), rng)
        got = resolvent_apply(ResolventQuery(nu, rhs), t).coeffs
        want = prefix_ratio_resolvent(nu, t, rhs.coeffs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [0, 3])
def test_resolvent_near_the_ladder_against_high_precision(m):
    # distance 1e-8 to the eigenvalue 1/(m+1): the bidiagonal solve stays at
    # roundoff, where the prefix-ratio closed form loses about 1e-9
    rhs = random_series(200, np.random.default_rng(83 + m))
    nu = 1.0 / (m + 1) + 1e-8
    got = resolvent_apply(ResolventQuery(nu, rhs, tol=1e-9), 0.9).coeffs
    want = mp_resolvent(nu, 0.9, rhs.coeffs)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_resolvent_of_a_constant():
    a = resolvent_apply(ResolventQuery(2.0, TaylorSeries([3.0])), 0.5)
    assert a == TaylorSeries([-3.0])


def test_resolvent_cross_check_against_triangular_solve():
    # the module's master cross-check: closed form vs dense forward substitution
    rng = np.random.default_rng(71)
    for _ in range(15):
        nu = _random_nu(rng)
        t = float(rng.random() * 0.99)
        rhs = random_series(256, rng)
        got = resolvent_apply(ResolventQuery(nu, rhs), t).coeffs
        want = triangular_resolvent_solve(nu, t, rhs.coeffs)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_resolvent_round_trip_residual():
    rng = np.random.default_rng(73)
    for _ in range(15):
        nu = _random_nu(rng)
        t = float(rng.random() * 0.99)
        rhs = random_series(256, rng)
        a = resolvent_apply(ResolventQuery(nu, rhs), t)
        back = apply(CesaroOperator(t), a) - TaylorSeries(nu * a.coeffs)
        residual = max_coeff_diff(back, rhs)
        assert residual <= 1e-9 * float(np.max(np.abs(rhs.coeffs)))


@pytest.mark.parametrize("nu", [float("nan"), float("inf"), complex(float("nan"), 0.0)])
def test_resolvent_refuses_non_finite_nu(nu):
    with pytest.raises(ValueError, match="finite"):
        ResolventQuery(nu, TaylorSeries([1.0, 2.0]))


def test_resolvent_refuses_near_spectral_points():
    rhs = TaylorSeries([1.0, 2.0])
    for nu in (1.0, 0.25, 1e-9, 1 / 3 + 1e-8):
        with pytest.raises(ValueError, match="spectral"):
            ResolventQuery(nu, rhs)


# --- finite sections ---------------------------------------------------------------------


def test_three_by_three_section_spectrum():
    got = np.linalg.eigvals(operator_matrix(0.7, 3))
    np.testing.assert_allclose(np.sort(got.real)[::-1], [1.0, 0.5, 1.0 / 3.0])
    np.testing.assert_array_equal(np.diagonal(operator_matrix(0.7, 3)), eigenvalues(3))


def test_dense_eigensolver_cross_check():
    for t in (0.0, 0.5, 0.9):
        dense = np.sort_complex(np.linalg.eigvals(operator_matrix(t, 64)))[::-1]
        assert np.max(np.abs(dense - eigenvalues(64))) <= 1e-8


def test_eigenvalues_accumulate_only_at_zero():
    ladder = eigenvalues(1024)
    assert np.count_nonzero(ladder > 0.01) == 99
    assert ladder.min() > 0.0
    np.testing.assert_array_equal(np.diagonal(operator_matrix(0.5, 1024)), ladder)


# --- infinite product scans -----------------------------------------------------------------


def test_product_scan_telescopes_at_nu_minus_one():
    # factors 1 + 1/k telescope: p_n = n + 1 exactly, scaled = (n+1)/n
    report = product_bound_scan(-1.0, 500)
    np.testing.assert_allclose(report.p_values, report.n_values + 1.0, rtol=1e-12)
    np.testing.assert_allclose(report.alpha, -1.0)
    tail = report.scaled[report.n_values >= 10]
    assert np.all(tail > 1.0)
    assert np.all(tail <= 1.1 + 1e-12)


@pytest.mark.parametrize("nu", [2.0, 1 + 1j])
def test_product_scan_is_bounded_with_half_exponent(nu):
    report = product_bound_scan(nu, 2000)
    np.testing.assert_allclose(report.alpha, 0.5)
    assert 0.0 < report.d_hat <= report.D_hat < np.inf
    assert report.D_hat / report.d_hat < 20.0
    assert abs(report.tail_slope) < 0.02


def test_product_scan_slope_is_the_least_squares_fit():
    for nu in (2.0, 0.4 + 0.8j):
        report = product_bound_scan(nu, 5000)
        tail = report.n_values >= 500
        want = np.polyfit(np.log(report.n_values[tail]), np.log(report.scaled[tail]), 1)[0]
        assert abs(report.tail_slope - want) <= 1e-14


@pytest.mark.parametrize("nu", [2.0, -1.0, 1 + 1j, 0.4 + 0.8j])  # check 8's four nu
def test_product_scan_log_products_match_the_mpmath_oracle(nu):
    # log p_n is a cumulative sum of n logs: its rounding error grows with n (measured worst 9.7e-13
    # relative at n = 1e5, for nu = 1 + 1j), so the tolerance is 1e-11 relative.
    report = product_bound_scan(nu, 100_000)
    for n in (100, 10_000, 100_000):
        want = float(mp_log_product(nu, n))
        assert abs(np.log(report.p_values[n - 1]) - want) <= 1e-11 * abs(want), n


def test_product_scan_preconditions():
    with pytest.raises(ValueError):
        product_bound_scan(2.0, 50)
    with pytest.raises(ValueError):
        product_bound_scan(0.5 + 1e-12j, 200)
    for nu in (float("nan"), float("inf"), complex(0.4, float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            product_bound_scan(nu, 200)
