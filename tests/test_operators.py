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
    log_norm_bound,
    log_power_series,
    max_coeff_diff,
    norm_upper_bound,
    operator_matrix,
    operator_norm_witness,
    power_apply,
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
    filter_step,
    harmonic_number,
    mp_resolvent,
    naive_cesaro_apply,
    naive_convolution,
    row_major_shifted_solve,
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


#: The layouts a caller's array may come in, each built from a C-ordered draw ``z`` of the wanted shape.
LAYOUTS = {
    "C-ordered": lambda z: z,
    "F-ordered": np.asfortranarray,
    "strided": lambda z: np.repeat(z, 2, axis=-1)[..., ::2],
    "real": lambda z: z.real.copy(),
}


@pytest.mark.parametrize("width", [1, 2, 3, 64, 1025, 131073])
@pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 0.9, 0.99, 1.0])
def test_the_band_solve_equals_the_linear_filter_bitwise(t, width):
    rng = np.random.default_rng(width)
    for shape in [(width,), (3, width), (2, 3, width), (0, width)]:
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for layout, form in LAYOUTS.items():
            x = form(z)
            before = x.tobytes()
            got = cesaro_coefficients(t, x)
            assert x.tobytes() == before and not np.shares_memory(got, x)  # the caller's array is never written
            want = np.array([filter_step(t, row.astype(complex)) for row in x.reshape(-1, width)]).reshape(shape)
            assert got.shape == shape and got.dtype == complex and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), (shape, layout)


def _signed_zero_draws(rng):
    """(400 x 8) draws with exact zeros of both signs: in the normal range, and at the ends of the double range."""
    size = (200, 8)
    normal = np.empty(size, complex)
    normal.real = np.where(rng.random(size) < 0.3, -0.0, rng.normal(size=size))
    normal.imag = np.where(rng.random(size) < 0.5, -0.0, rng.normal(size=size))
    ends = np.empty(size, complex)
    for part in (ends.real, ends.imag):
        scale = 10.0 ** rng.choice([300, 150, 0, -160, -300, -310, -320], size)
        part[...] = rng.choice([-1.0, 1.0], size) * scale * rng.choice([0.0, 0.5, 1.0], size) * rng.random(size)
    return np.concatenate([normal, ends])


@pytest.mark.parametrize("t", [0.0, 1e-300, 1e-160, 1e-10, 0.1, 0.5, 1.0])
def test_signed_zeros_keep_the_values_and_may_only_flip_the_sign_of_an_exact_zero(t):
    # The rule: equal to the linear filter as values.  Where a sum is an exact zero, the
    # filter's sign depends on the signs of the previous input's parts, which a band solve
    # never sees, so the sign of an exact zero may differ.  The first coefficient is x[0] + 0.0
    # on both routes: the filter never returns -0.0 there, and neither does the kernel.
    x = _signed_zero_draws(np.random.default_rng(7))
    got = cesaro_coefficients(t, x)
    want = np.array([filter_step(t, row) for row in x])
    assert np.array_equal(got, want)
    assert got[:, 0].tobytes() == want[:, 0].tobytes()
    got, want = got.view(float), want.view(float)
    differ = got.view(np.uint64) != want.view(np.uint64)
    assert np.all(got[differ] == 0.0)


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


def test_matrix_section_equals_the_toeplitz_route_bitwise_as_a_fresh_array():
    # The windows of one band give the lower-triangular Toeplitz section; the division leaves a fresh array.
    for t in (0.0, 0.3, 0.98, 1.0):
        for size in (1, 2, 64, 513):
            n = np.arange(size)
            got = operator_matrix(t, size)
            assert got.tobytes() == (np.tril(scipy.linalg.toeplitz(float(t) ** n)) / (n[:, None] + 1)).tobytes()
            assert got.shape == (size, size) and got.dtype == np.float64
            assert got.flags.c_contiguous and got.flags.writeable and got.flags.owndata


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


SIZE = 40
#: The forms of c the kernel's callers pass, each built from one complex draw of 2 * SIZE values.
C_FORMS = {
    "read-only TaylorSeries coeffs": lambda z: TaylorSeries(z[:SIZE]).coeffs,
    "writable complex": lambda z: z[:SIZE].copy(),
    "writable real": lambda z: z.real[:SIZE].copy(),
    "strided view": lambda z: z[::2],
}


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("pin", [None, (0, 0.5 - 2.0j), (SIZE - 1, 3.0)])
@pytest.mark.parametrize("form", list(C_FORMS))
def test_the_in_place_solve_never_reaches_the_callers_c(form, pin, t):
    rng = np.random.default_rng(59)
    z = rng.normal(size=2 * SIZE) + 1j * rng.normal(size=2 * SIZE)
    c = C_FORMS[form](z)
    assert len(c) == SIZE and c.flags.writeable == (form != "read-only TaylorSeries coeffs")
    c_bytes, z_bytes = c.tobytes(), z.tobytes()
    first = shifted_solve(t, 2.0 - 1.0j, 1.0 + 0.5j, c, pin=pin)
    assert c.tobytes() == c_bytes and z.tobytes() == z_bytes
    assert not np.shares_memory(first, c) and not np.shares_memory(first, z)
    second = shifted_solve(t, 2.0 - 1.0j, 1.0 + 0.5j, c, pin=pin)
    assert second.tobytes() == first.tobytes() and not np.shares_memory(first, second)


@pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 0.99, 1.0])
def test_the_column_major_band_gives_the_row_major_bits(t):
    # The callers' shifts: eigenpair's integers (m + 1, 1) pinned at m, the resolvent's (1, nu)
    # and the range preimage's (1, 1) pinned at 0, plus real and complex shifts off those.
    rng = np.random.default_rng(61)
    for size in (1, 2, 97, 4096):
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        m = int(rng.integers(size))
        shifts = [
            (m + 1, 1, np.zeros(size), (m, 1)),
            (1, complex(rng.normal(), rng.normal()), c, None),
            (1, 1, c, (0, 0)),
            (rng.normal(), rng.normal(), c.real, None),
            (complex(rng.normal(), rng.normal()), 0.7, c, (size - 1, 2.0 - 1.0j)),
        ]
        for sigma, nu, rhs, pin in shifts:
            with np.errstate(all="ignore"):  # the eigenvector at t near 1 may overflow; its bits still agree
                got = shifted_solve(t, sigma, nu, rhs, pin=pin)
                want = row_major_shifted_solve(t, sigma, nu, rhs, pin=pin)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (size, sigma, nu, pin)


T_USERS = {
    "CesaroOperator": CesaroOperator,
    "InverseOperator": InverseOperator,
    "cesaro_coefficients": lambda t: cesaro_coefficients(t, np.ones(4)),
    "operator_matrix": lambda t: operator_matrix(t, 3),
    "log_norm_bound": log_norm_bound,
    "power_apply": lambda t: power_apply(t, TaylorSeries([1.0, 2.0]), 3),
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
    # CesaroOperator decides t in [0, 1]; the forward map, the dense section, the inverse, the kernel, the
    # unit-weight and weighted bounds and the CLI config construct one
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


@pytest.mark.parametrize("size", [64, 200, 4096])
@pytest.mark.parametrize("m", [0, 1, 7, 20])
def test_eigenpairs_at_t_one_are_the_binomials_to_n_ulps(size, m):
    # Past N = 40 the kernel is not exact: ztbsv divides by multiplying with a rounded
    # reciprocal, and 49 * (1/49) = 0.9999999999999999, so eigenpair(1, 0, 64) leaves 1 at n = 49.
    got = eigenpair(1.0, m, size).series.coeffs
    want = binomial_eigenvector(1.0, m, size)
    assert np.all(got[:m] == 0.0) and np.all(got.imag == 0.0)
    assert np.max(np.abs(got[m:] - want[m:]) / want[m:].real) <= size * 2.0**-52
    if m == 0 and size == 64:
        assert np.all(got[:49] == 1.0) and got[49] == 0.9999999999999999


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
