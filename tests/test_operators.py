import math

import numpy as np
import pytest
import scipy.linalg

from cesaro import (
    CesaroOperator,
    InverseOperator,
    ResolventQuery,
    TaylorSeries,
    Weight,
    apply,
    apply_integral,
    apply_inverse,
    cesaro_coefficients,
    cesaro_mean,
    circle_max,
    constant_one,
    eigenpair,
    ergodic_limit_projection,
    evaluate,
    evaluate_many,
    geometric_series,
    log_power_series,
    max_coeff_diff,
    norm_upper_bound,
    operator_matrix,
    operator_norm_witness,
    random_series,
    range_preimage,
    resolvent_apply,
    weighted_sup_norm,
)
from cesaro import operators
from cesaro.cli import ExperimentConfig
from cesaro.operators import shifted_solve
from oracles import (
    binomial_eigenvector,
    elementwise_operator_matrix,
    harmonic_number,
    mp_resolvent,
    naive_cesaro_apply,
    naive_convolution,
    triangular_resolvent_solve,
)


# --- apply: the defining examples ------------------------------------------------


def test_t_zero_is_the_diagonal_averaging():
    f = TaylorSeries([1.0, 2.0, 3.0, 4.0])
    got = apply(CesaroOperator(0.0), f)
    want = TaylorSeries([1.0, 1.0, 1.0, 1.0])
    assert max_coeff_diff(got, want) == 0.0


def test_t_one_averages_partial_sums():
    got = apply(CesaroOperator(1.0), TaylorSeries([1.0, 1.0, 1.0]))
    assert got == TaylorSeries([1.0, 1.0, 1.0])


def test_stacked_coefficients_equal_the_row_by_row_result():
    rng = np.random.default_rng(17)
    stack = rng.random((7, 65)) + 1j * rng.random((7, 65))
    for t in (0.0, 0.5, 0.99, 1.0):
        rows = np.array([cesaro_coefficients(t, row) for row in stack])
        assert np.array_equal(cesaro_coefficients(t, stack), rows)


def test_image_of_constant_function():
    t = 0.5
    got = apply(CesaroOperator(t), constant_one(40))
    want = TaylorSeries(t ** np.arange(41) / (np.arange(41) + 1.0))
    assert max_coeff_diff(got, want) < 1e-15


def test_geometric_series_is_a_fixed_point():
    for t in (0.0, 0.5, 0.99):
        g0 = geometric_series(t, 1024)
        assert max_coeff_diff(apply(CesaroOperator(t), g0), g0) <= 1e-14


def test_apply_matches_naive_double_sum():
    rng = np.random.default_rng(17)
    for t in (0.0, 0.3, 0.8, 1.0):
        f = rng.random(60) + 1j * rng.random(60)
        got = apply(CesaroOperator(t), TaylorSeries(f))
        assert max_coeff_diff(got, TaylorSeries(naive_cesaro_apply(t, f))) < 1e-13


def test_parameter_range_is_validated():
    with pytest.raises(ValueError):
        CesaroOperator(-0.1)
    with pytest.raises(ValueError):
        CesaroOperator(1.1)


# --- the dense matrix section ---------------------------------------------------------


def test_recurrence_matches_the_matrix_section():
    rng = np.random.default_rng(23)
    for t in (0.0, 0.4, 0.95):
        f = TaylorSeries(rng.random(257) + 1j * rng.random(257))
        a = apply(CesaroOperator(t), f)
        b = TaylorSeries(operator_matrix(t, 257) @ f.coeffs)
        scale = float(np.max(np.abs(a.coeffs)))
        assert max_coeff_diff(a, b) <= 1e-13 * scale


def test_matrix_section_entries():
    m = operator_matrix(0.5, 3)
    want = np.array([[1.0, 0.0, 0.0], [0.25, 0.5, 0.0], [1 / 12, 1 / 6, 1 / 3]])
    np.testing.assert_allclose(m, want, rtol=1e-15)


def test_matrix_section_equals_elementwise_powers_bitwise():
    for t in (0.0, 0.3, 0.7, 0.99, 1.0):
        for size in (1, 2, 65, 513):
            got = operator_matrix(t, size)
            assert got.tobytes() == elementwise_operator_matrix(t, size).tobytes()


# --- integral form ---------------------------------------------------------------------


def test_integral_form_at_origin_returns_constant_term():
    for t in (0.0, 0.5, 0.9):
        assert apply_integral(CesaroOperator(t), TaylorSeries([1.0]), 0.0) == 1.0


def test_integral_form_matches_log_closed_form():
    # image of the constant function at t=0.5 is -log(1-tz)/(tz)
    t, z = 0.5, 0.8
    got = apply_integral(CesaroOperator(t), constant_one(), z, quad_nodes=64)
    want = -math.log(1.0 - t * z) / (t * z)
    assert abs(got - want) < 1e-8
    assert abs(want - 1.2770640594149444) < 1e-12


def test_hardy_integral_of_identity_is_half_z():
    for z in (0.3, -0.5 + 0.2j):
        got = apply_integral(CesaroOperator(0.0), TaylorSeries([0, 1]), z)
        assert abs(got - z / 2.0) < 1e-12


def test_integral_vs_series_on_random_inputs():
    # the image is padded well past the input degree so that the truncated
    # series reproduces the true image value to below the comparison tolerance
    rng = np.random.default_rng(41)
    for _ in range(25):
        t = float(rng.random())
        f = TaylorSeries(rng.random(129) + 1j * rng.random(129))
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        series_val = evaluate(apply(CesaroOperator(t), f.padded(1024)), z)
        quad_val = apply_integral(CesaroOperator(t), f, z, quad_nodes=64)
        assert abs(series_val - quad_val) < 1e-8


def test_integral_nodes_are_computed_once_and_read_only():
    # The cached rule must give the value a freshly computed rule gives, bit for bit.
    rng = np.random.default_rng(43)
    f = TaylorSeries(rng.random(129) + 1j * rng.random(129))
    t, z = 0.6, 0.3 + 0.4j
    nodes, wts = np.polynomial.legendre.leggauss(32)
    s = 0.5 * (nodes + 1.0)
    want = complex(np.sum(0.5 * wts * (evaluate_many(f, s * z) / (1.0 - s * t * z))))
    for _ in range(2):
        assert apply_integral(CesaroOperator(t), f, z, quad_nodes=32) == want
    cached = operators._gauss_legendre(32)
    assert operators._gauss_legendre(32) is cached
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_integral_form_rejects_bad_points():
    op = CesaroOperator(0.5)
    with pytest.raises(ValueError):
        apply_integral(op, TaylorSeries([1.0]), 1.0)
    with pytest.raises(ValueError):
        apply_integral(op, TaylorSeries([1.0]), 0.5, quad_nodes=1)


# --- the exact inverse --------------------------------------------------------------------


def test_inverse_at_t_zero_scales_by_index_plus_one():
    f = TaylorSeries([2.0, -1.0, 4.0])
    got = apply_inverse(InverseOperator(0.0), f)
    assert got == TaylorSeries([2.0, -2.0, 12.0])


def test_round_trips_are_exact_on_the_prefix():
    rng = np.random.default_rng(43)
    t = 0.3
    for _ in range(20):
        f = TaylorSeries(rng.random(513) + 1j * rng.random(513))
        forward = apply(CesaroOperator(t), apply_inverse(InverseOperator(t), f))
        backward = apply_inverse(InverseOperator(t), apply(CesaroOperator(t), f))
        assert max_coeff_diff(forward, f) <= 1e-13
        assert max_coeff_diff(backward, f) <= 1e-13


def test_fixed_point_is_its_own_preimage():
    # (n+1) t^n - t n t^(n-1) = t^n: the inverse also fixes the geometric series
    t = 0.5
    g0 = geometric_series(t, 200)
    assert max_coeff_diff(apply_inverse(InverseOperator(t), g0), g0) < 1e-14
    n = np.arange(1, 201)
    identity = (n + 1) * t**n - t * n * t ** (n - 1)
    np.testing.assert_allclose(identity, t ** n.astype(float), rtol=1e-12)


# --- the shifted kernel -------------------------------------------------------------------


def test_shifted_solve_matches_a_dense_triangular_solve():
    rng = np.random.default_rng(47)
    for size in (1, 2, 300):
        t = rng.uniform(0.0, 0.95)
        sigma, nu = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        dense = sigma * operator_matrix(t, size) - nu * np.eye(size)
        want = scipy.linalg.solve_triangular(dense, c, lower=True)
        np.testing.assert_allclose(shifted_solve(t, sigma, nu, c), want, rtol=1e-12)


def test_pinned_shifted_solve_matches_the_dense_system_with_row_k_replaced():
    # sigma = nu (k+1) makes row k singular; the right-hand side vanishes up
    # to k, so that row holds for every x[k] and the pin chooses x[k].
    rng = np.random.default_rng(53)
    size, t = 40, 0.6
    for k in (0, 1, 7, size - 1):
        nu = complex(rng.normal(), rng.normal())
        value = complex(rng.normal(), rng.normal())
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        c[: k + 1] = 0.0
        dense = nu * (k + 1) * operator_matrix(t, size) - nu * np.eye(size)
        dense[k] = np.eye(size)[k]
        rhs = c.copy()
        rhs[k] = value
        want = scipy.linalg.solve_triangular(dense, rhs, lower=True)
        got = shifted_solve(t, nu * (k + 1), nu, c, pin=(k, value))
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert np.all(got[:k] == 0.0)
        # Off the singular shift the pin replaces row k of the solved form
        # (sigma I - nu BN) x = BN c, whatever the rows above it hold.
        sigma, c = 2.0 - 1.0j, rng.normal(size=size) + 1j * rng.normal(size=size)
        bn = np.diag(np.arange(1.0, size + 1)) - t * np.diag(np.arange(1.0, size), -1)
        dense = sigma * np.eye(size) - nu * bn
        dense[k] = np.eye(size)[k]
        rhs = bn @ c
        rhs[k] = value
        want = scipy.linalg.solve_triangular(dense, rhs, lower=True)
        np.testing.assert_allclose(shifted_solve(t, sigma, nu, c, pin=(k, value)), want, rtol=1e-12)


def test_shifted_solve_refuses_an_unpinned_singular_row():
    for k in (0, 3):
        with pytest.raises(ValueError, match="singular"):
            shifted_solve(0.5, 2.0 * (k + 1), 2.0, np.ones(8))


T_USERS = {
    "CesaroOperator": CesaroOperator,
    "InverseOperator": InverseOperator,
    "eigenpair": lambda t: eigenpair(t, 1, 8),
    "resolvent_apply": lambda t: resolvent_apply(ResolventQuery(2.0, TaylorSeries([1.0, 2.0])), t),
    "range_preimage": lambda t: range_preimage(t, TaylorSeries([0.0, 1.0])),
    "ergodic_limit_projection": lambda t: ergodic_limit_projection(t, TaylorSeries([1.0, 2.0])),
    "cesaro_mean": lambda t: cesaro_mean(t, TaylorSeries([1.0, 2.0]), 3),
    "norm_upper_bound": lambda t: norm_upper_bound(t, Weight.standard(0.5)),
    "operator_norm_witness": lambda t: operator_norm_witness(t, Weight.standard(0.5), [constant_one(8)]),
    "ExperimentConfig": lambda t: ExperimentConfig(t_list=(t,)).validate(),
}


@pytest.mark.parametrize("t", [1.5, -0.1, math.nan])
@pytest.mark.parametrize("user", list(T_USERS))
def test_the_inverse_and_its_users_refuse_t_outside_0_1_with_one_message(user, t):
    # CesaroOperator decides t in [0, 1]; the inverse, the kernel, the weighted bound and the CLI config construct one
    with pytest.raises(ValueError) as refusal:
        T_USERS[user](t)
    assert str(refusal.value) == f"operator parameter must lie in [0, 1], got {t}"


# --- t = 1 on coefficient space: B = I - S is unit lower bidiagonal ----------------------


@pytest.mark.parametrize("m", [0, 1, 3, 7, 20])
def test_eigenpairs_at_t_one_are_the_binomials(m):
    # x[n] = C(n, m), exact in doubles up to this truncation
    pair = eigenpair(1.0, m, 40)
    assert pair.eigenvalue == 1.0 / (m + 1.0)
    assert np.array_equal(pair.series.coeffs, binomial_eigenvector(1.0, m, 40))


@pytest.mark.parametrize("nu", [2.0, -1.0, 1 + 1j, 0.4 + 0.8j])
def test_resolvent_at_t_one_matches_the_dense_and_high_precision_solves(nu):
    rhs = random_series(200, np.random.default_rng(3))
    got = resolvent_apply(ResolventQuery(nu, rhs), 1.0).coeffs
    for want in (triangular_resolvent_solve(nu, 1.0, rhs.coeffs), mp_resolvent(nu, 1.0, rhs.coeffs)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_range_preimage_at_t_one_round_trips():
    g = random_series(64, np.random.default_rng(5))
    g = TaylorSeries(np.concatenate(([0.0], g.coeffs[1:])))
    f = range_preimage(1.0, g)
    assert f.coeffs[0] == 0
    assert max_coeff_diff(apply(CesaroOperator(1.0), f) - f, g) < 1e-13


def test_the_inverse_at_t_one_inverts_apply():
    f = random_series(64, np.random.default_rng(7))
    op, inv = CesaroOperator(1.0), InverseOperator(1.0)
    assert max_coeff_diff(apply_inverse(inv, apply(op, f)), f) < 1e-13
    assert max_coeff_diff(apply(op, apply_inverse(inv, f)), f) < 1e-13


# --- classical t=1 log images ------------------------------------------------------------


def _log_power_oracle(n, truncation):
    # (log(1-z))**n by naive repeated convolution, independent of the library path
    base = np.zeros(truncation + 1, dtype=complex)
    base[1:] = -1.0 / np.arange(1, truncation + 1)
    out = base.copy()
    for _ in range(n - 1):
        out = naive_convolution(out, base)[: truncation + 1]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_c1_log_image_identity(n):
    truncation = 256
    power = log_power_series(n, truncation)
    image = apply(CesaroOperator(1.0), power)
    assert power.coeffs[0] == 0
    if n == 1:
        assert power.coeffs[1] == -1.0
    # closed form: -(log(1-z))**(n+1) / ((n+1) z), with the (n+1)-power from the oracle
    next_power = _log_power_oracle(n + 1, truncation + 1)
    want = -next_power[1 : truncation + 2] / (n + 1.0)
    got = image.coeffs[: len(want)]
    assert np.max(np.abs(got - want[: len(got)])) < 1e-10


def test_c1_log_image_harmonic_coefficients():
    # n=1: image coefficient m is -H_m/(m+1)
    image = apply(CesaroOperator(1.0), log_power_series(1, 64))
    for m in (1, 2, 5, 20):
        assert abs(image.coeffs[m] - (-harmonic_number(m) / (m + 1.0))) < 1e-14


def test_c1_log_image_rejects_n_zero():
    with pytest.raises(ValueError):
        apply(CesaroOperator(1.0), log_power_series(0, 16))


# --- structural invariants ------------------------------------------------------------------


def test_truncation_commutes_with_application():
    rng = np.random.default_rng(47)
    for t in (0.2, 0.7, 1.0):
        f = TaylorSeries(rng.random(200) + 1j * rng.random(200))
        full = apply(CesaroOperator(t), f)
        short = apply(CesaroOperator(t), f.truncated(80))
        assert max_coeff_diff(full.truncated(80), short) == 0.0


def test_equicontinuity_surrogate():
    # images never beat the 1/(1-r) inflation of the compact-set norms
    rng = np.random.default_rng(53)
    for t in np.linspace(0.0, 0.99, 12):
        f = TaylorSeries(rng.random(80) + 1j * rng.random(80))
        g = apply(CesaroOperator(float(t)), f)
        for r in (0.3, 0.6, 0.9):
            assert circle_max(g, r, 1024) <= circle_max(f, r, 1024) / (1.0 - r) + 1e-9


def test_norm_sandwich_for_constant_witness():
    for t in np.arange(0.1, 1.0, 0.1):
        f = apply(CesaroOperator(float(t)), constant_one(1024))
        est = weighted_sup_norm(f, Weight.unit(), radii=64, angles=64).value
        assert 1.0 < est < 1.0 / (1.0 - t)
        assert abs(est - (-math.log1p(-t) / t)) < 1e-4


def test_pointwise_limit_toward_t_one():
    f = TaylorSeries([1.0, -0.5, 2.0, 0.25])
    c1_image = apply(CesaroOperator(1.0), f.padded(256))
    for z in (0.5, 0.9, -0.4):
        gaps = []
        for t in (0.9, 0.99, 0.999, 0.9999):
            image = apply(CesaroOperator(t), f.padded(256))
            gaps.append(abs(evaluate(image, z) - evaluate(c1_image, z)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.02 * gaps[0]
