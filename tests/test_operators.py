import math

import numpy as np
import pytest
import scipy.linalg

from cesaro import (
    CesaroOperator,
    InverseOperator,
    TaylorSeries,
    Weight,
    apply,
    apply_integral,
    apply_inverse,
    cauchy_product,
    cesaro_coefficients,
    classical_c1_log_image,
    constant_one,
    evaluate,
    geometric_series,
    log_one_minus_series,
    max_coeff_diff,
    operator_matrix,
    q_r_norm,
    weighted_sup_norm,
)
from cesaro.operators import bidiagonal_solve
from oracles import elementwise_operator_matrix, harmonic_number, naive_cesaro_apply, naive_convolution


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


# --- the bidiagonal kernel ----------------------------------------------------------------


def test_bidiagonal_solve_matches_a_dense_triangular_solve():
    rng = np.random.default_rng(47)
    for size in (1, 2, 300):
        diag = rng.normal(size=size) + 1j * rng.normal(size=size) + 3.0
        sub = rng.normal(size=size - 1) + 1j * rng.normal(size=size - 1)
        rhs = rng.normal(size=size) + 1j * rng.normal(size=size)
        dense = np.diag(diag) + np.diag(sub, -1)
        want = scipy.linalg.solve_triangular(dense, rhs, lower=True)
        np.testing.assert_allclose(bidiagonal_solve(diag, sub, rhs), want, rtol=1e-13)


def test_bidiagonal_solve_refuses_a_zero_diagonal():
    with pytest.raises(ValueError, match="singular"):
        bidiagonal_solve([1.0, 0.0, 2.0], [1.0, 1.0], [1.0, 1.0, 1.0])


def test_inverse_rejects_t_one():
    with pytest.raises(ValueError):
        InverseOperator(1.0)


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
    power, image = classical_c1_log_image(n, truncation)
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
    _, image = classical_c1_log_image(1, 64)
    for m in (1, 2, 5, 20):
        assert abs(image.coeffs[m] - (-harmonic_number(m) / (m + 1.0))) < 1e-14


def test_c1_log_image_rejects_n_zero():
    with pytest.raises(ValueError):
        classical_c1_log_image(0, 16)


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
            assert q_r_norm(g, r, 1024) <= q_r_norm(f, r, 1024) / (1.0 - r) + 1e-9


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
