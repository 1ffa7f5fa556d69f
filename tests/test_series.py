import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro import (
    TaylorSeries,
    cauchy_product,
    evaluate,
    from_pairs,
    geometric_series,
    log_power_series,
    max_coeff_diff,
    to_pairs,
)
from oracles import naive_convolution

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
complex_coeff = st.builds(complex, finite, finite)
small_series = st.lists(complex_coeff, min_size=1, max_size=16).map(TaylorSeries)


# --- construction and equality ------------------------------------------------


def test_rejects_non_finite_coefficients():
    with pytest.raises(ValueError):
        TaylorSeries([1.0, np.nan])
    with pytest.raises(ValueError):
        TaylorSeries([np.inf])
    with pytest.raises(ValueError):
        TaylorSeries([])


def test_equality_ignores_trailing_zeros():
    assert TaylorSeries([1, 2, 0, 0]) == TaylorSeries([1, 2])
    assert TaylorSeries([1, 2, 0, 3]) != TaylorSeries([1, 2])
    assert TaylorSeries([0, 0]) == TaylorSeries([0])
    assert TaylorSeries([1, -0.0]) == TaylorSeries([1])
    assert TaylorSeries([complex(-0.0, -0.0)]) == TaylorSeries([0])
    assert TaylorSeries([1, 2j, 0, 0, 0]) == TaylorSeries([1, 2j, 0])
    assert TaylorSeries([1, 2]) != TaylorSeries([1, 2, 1e-300])
    assert TaylorSeries([1, 2, 0]) != TaylorSeries([1, 2 + 1e-300j])
    assert TaylorSeries([1e308]) != TaylorSeries([-1e308])
    assert TaylorSeries([1]).__eq__([1]) is NotImplemented


def test_coefficients_are_read_only():
    f = TaylorSeries([1, 2])
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


# --- evaluate -------------------------------------------------------------------


def test_evaluate_constant_function():
    f = TaylorSeries([1.0])
    for z in (0.0, 0.5, -0.3 + 0.2j):
        assert evaluate(f, z) == 1.0


def test_evaluate_identity_map():
    assert evaluate(TaylorSeries([0, 1]), 0.3 + 0.4j) == 0.3 + 0.4j


def test_evaluate_geometric_matches_closed_form():
    # oracle: sum_(n<=200) (tz)^n with t=z=0.5 is 1/(1-0.25) up to a ~4e-61 tail
    t, z = 0.5, 0.5
    f = geometric_series(t, 200)
    assert abs(evaluate(f, z) - 4.0 / 3.0) < 1e-12


def test_evaluate_equals_polyval_bitwise():
    # The same Horner recurrence in Python complex arithmetic: degrees 0-1100, magnitudes 1e-300 to 1e300, |z| < 0.99.
    rng = np.random.default_rng(151)
    for _ in range(600):
        degree, scale = int(rng.integers(0, 1101)), 10.0 ** rng.uniform(-300.0, 300.0)
        f = TaylorSeries((rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * scale)
        z = 0.99 * np.sqrt(rng.random()) * complex(np.exp(2j * np.pi * rng.random()))
        with np.errstate(over="ignore", invalid="ignore"):  # a large series may overflow, in both routes alike
            want = complex(np.polynomial.polynomial.polyval(z, f.coeffs))
        got = evaluate(f, z)
        assert type(got) is complex
        assert np.array([got]).view(np.uint64).tolist() == np.array([want]).view(np.uint64).tolist(), (degree, z)


def test_evaluate_rejects_points_outside_disc():
    f = TaylorSeries([1, 1])
    with pytest.raises(ValueError):
        evaluate(f, 1.0)
    with pytest.raises(ValueError):
        evaluate(f, 0.8 + 0.8j)


# --- cauchy product -------------------------------------------------------------


def test_product_with_one_is_identity():
    g = TaylorSeries([2.0, -1.0, 0.5j])
    assert cauchy_product(TaylorSeries([1.0]), g) == g


def test_product_inverts_geometric_series():
    t, n = 0.7, 64
    h = cauchy_product(TaylorSeries([1.0, -t]), geometric_series(t, n), max_degree=n)
    expect = np.zeros(n + 1)
    expect[0] = 1.0
    assert max_coeff_diff(h, TaylorSeries(expect)) < 1e-15


def test_square_of_one_plus_z():
    assert cauchy_product(TaylorSeries([1, 1]), TaylorSeries([1, 1])) == TaylorSeries([1, 2, 1])


@settings(max_examples=50)
@given(small_series, small_series)
def test_product_commutes(f, g):
    assert max_coeff_diff(cauchy_product(f, g), cauchy_product(g, f)) < 1e-12


@settings(max_examples=50)
@given(small_series, small_series, small_series)
def test_product_associates_on_shared_prefix(f, g, h):
    if f.degree + g.degree + h.degree > 24:
        return
    left = cauchy_product(cauchy_product(f, g), h)
    right = cauchy_product(f, cauchy_product(g, h))
    assert max_coeff_diff(left, right) < 1e-12


def test_product_matches_naive_convolution_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.random(int(rng.integers(1, 20))) + 1j * rng.random(1)
        b = rng.random(int(rng.integers(1, 20))) + 1j * rng.random(1)
        lib = cauchy_product(TaylorSeries(a), TaylorSeries(b))
        assert max_coeff_diff(lib, TaylorSeries(naive_convolution(a, b))) < 1e-14


def test_evaluation_is_multiplicative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = TaylorSeries(rng.standard_normal(65) + 1j * rng.standard_normal(65))
        g = TaylorSeries(rng.standard_normal(65) + 1j * rng.standard_normal(65))
        z = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
        lhs = evaluate(cauchy_product(f, g), z)
        rhs = evaluate(f, z) * evaluate(g, z)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


# --- serialization -----------------------------------------------------------------


def test_pairs_round_trip():
    f = TaylorSeries([1 + 2j, -0.5, 0.25j])
    assert from_pairs(to_pairs(f)) == f


def test_from_pairs_accepts_bare_reals():
    assert from_pairs([1, 2.5]) == TaylorSeries([1.0, 2.5])


def test_log_series_coefficients():
    f = log_power_series(1, 4)
    assert f.coeffs[0] == 0
    assert f.coeffs[1] == -1.0
    assert f.coeffs[2] == -0.5
    np.testing.assert_allclose(f.coeffs[4], -0.25)


def test_log_power_series_is_the_capped_convolution_power():
    base = np.r_[0.0, -1.0 / np.arange(1, 13)]  # log(1-z)
    want = base
    for _ in range(2):
        want = naive_convolution(want, base)[:13]
    np.testing.assert_allclose(log_power_series(3, 12).coeffs, want, rtol=0, atol=1e-15)
    assert log_power_series(1, 12) == TaylorSeries(base)


def test_log_power_series_rejects_nonpositive_exponent():
    for n in (0, -1):
        with pytest.raises(ValueError, match="exponent"):
            log_power_series(n, 8)
