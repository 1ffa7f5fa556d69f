import math
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaro import (
    CesaroOperator,
    TaylorSeries,
    Weight,
    apply,
    circle_max,
    constant_one,
    frechet_norm,
    geometric_series,
    log_norm_bound,
    log_power_series,
    norm_upper_bound,
    operator_norm_witness,
    radial_grid,
    random_series,
    weighted_sup_norm,
)
from cesaro import acceptance, weights
from oracles import bits, brute_circle_max, scalar_circle_max, scalar_weighted_sup_norm

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
complex_coeff = st.builds(complex, finite, finite)
small_series = st.lists(complex_coeff, min_size=1, max_size=24).map(TaylorSeries)


# --- weight families -----------------------------------------------------------


def test_standard_weight_values():
    v = Weight.standard(2.0)
    assert v(0.0) == 1.0
    np.testing.assert_allclose(v(0.5), 0.25)


def test_log_power_weight_values():
    v = Weight.log_power(1)
    assert v(0.0) == 1.0
    # v(r) = (1 - log(1-r))^(-1)
    np.testing.assert_allclose(v(0.9), 1.0 / (1.0 - math.log(0.1)))
    assert v(0.999999) < 0.08


def test_table_weight_interpolates_and_checks_monotonicity():
    v = Weight.from_table([0.0, 0.5, 0.9], [1.0, 0.6, 0.1])
    np.testing.assert_allclose(v(0.25), 0.8)
    with pytest.raises(ValueError):
        Weight.from_table([0.0, 0.5], [0.5, 0.7])  # increasing
    with pytest.raises(ValueError):
        Weight.from_table([0.0, 0.5], [0.5, -0.1])  # non-positive


@pytest.mark.parametrize("spec", ["gamma:55", "logpow:300"])
def test_a_weight_that_underflows_says_so(spec):
    # positive on [0, 1), but 0 in doubles near r = 1 - 2**-20
    with pytest.raises(ValueError, match=f"^weight {spec} underflows to 0 in double precision near r = 1$"):
        Weight.from_spec(spec)


@pytest.mark.parametrize("spec", ["unit", "gamma:0.5", "gamma:5", "logpow:2", "table"])
def test_a_radius_has_the_same_weight_alone_and_inside_any_array(spec):
    v = TABLE_WEIGHT if spec == "table" else Weight.from_spec(spec)
    rs = np.random.default_rng(31).random(5000)
    whole = v(rs)
    alone = [v(float(r)) for r in rs]
    assert all(np.ndim(value) == 0 for value in alone[:10])
    assert bits(alone) == bits(whole)
    # any length and any position in the array
    pieces = np.concatenate([v(rs[:1]), v(rs[1:8]), v(rs[8:1001]), v(rs[1001:])])
    assert bits(pieces) == bits(whole)
    assert bits(v(rs.reshape(50, 100))) == bits(whole.reshape(50, 100))


def test_weight_spec_parsing():
    assert Weight.from_spec("unit").kind == "unit"
    assert Weight.from_spec("gamma:2.5").gamma == 2.5
    with pytest.raises(ValueError):
        Weight.from_spec("bogus:1")


# --- circle maxima: the compact-set norms q_r ------------------------------------


def test_q_r_of_constant():
    assert circle_max(TaylorSeries([1.0]), 0.5, 1024) == 1.0


def test_q_r_of_identity_is_radius():
    np.testing.assert_allclose(circle_max(TaylorSeries([0, 1]), 0.7, 1024), 0.7, rtol=1e-14)


def test_q_r_of_truncated_geometric_sum():
    # oracle: brute-force evaluation of sum_(n<=100) z^n on the circle r=0.5;
    # the max sits on the positive axis at (1-r^101)/(1-r) ~ 2.
    f = TaylorSeries(np.ones(101))
    got = circle_max(f, 0.5, 512)
    assert abs(got - 2.0) < 1e-6
    brute = brute_circle_max(f.coeffs, 0.5, 64)
    assert abs(circle_max(f, 0.5, 64) - brute) < 1e-10


def test_q_r_monotone_in_radius():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = TaylorSeries(rng.standard_normal(40) + 1j * rng.standard_normal(40))
        values = [circle_max(f, r, 1024) for r in (0.2, 0.4, 0.6, 0.8, 0.95)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_fft_circle_grid_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(5):
        f = TaylorSeries(rng.standard_normal(97) + 1j * rng.standard_normal(97))
        for angles in (16, 64):  # coarser than the degree: exercises folding
            got = circle_max(f, 0.8, angles)
            want = brute_circle_max(f.coeffs, 0.8, angles)
            assert abs(got - want) < 1e-9


# --- weighted sup norm -----------------------------------------------------------


def test_weighted_norm_of_constant_is_one():
    est = weighted_sup_norm(constant_one(), Weight.unit())
    np.testing.assert_allclose(est.value, 1.0, rtol=1e-12)


def test_weighted_norm_reproduces_log_formula():
    # image of the constant function under the t=0.5 operator has coefficients
    # t^n/(n+1); its sup-norm is -log(1-t)/t = 2 log 2.
    t = 0.5
    f = apply(CesaroOperator(t), constant_one(400))
    est = weighted_sup_norm(f, Weight.unit(), radii=64, angles=256)
    assert abs(est.value - 2.0 * math.log(2.0)) < 1e-4


def test_weighted_norm_of_geometric_under_gamma_one():
    # (1-r) * |sum_(n<=N) r^n| = 1 - r^(N+1) <= 1, attained near r = 0
    f = TaylorSeries(np.ones(2049))
    est = weighted_sup_norm(f, Weight.standard(1.0), radii=64, angles=64)
    assert abs(est.value - 1.0) < 2e-2


def test_weighted_norm_dominates_constant_term():
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = TaylorSeries(rng.standard_normal(30) + 1j * rng.standard_normal(30))
        est = weighted_sup_norm(f, Weight.unit(), radii=16, angles=128)
        assert est.value >= abs(f.coeffs[0]) - 1e-12


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
def test_a_standard_weight_needs_a_positive_gamma(gamma):
    with pytest.raises(ValueError, match="^gamma must be positive$"):
        Weight.standard(gamma)


def test_weighted_norm_grid_preconditions():
    with pytest.raises(ValueError):
        weighted_sup_norm(constant_one(), Weight.unit(), radii=4)
    with pytest.raises(ValueError):
        weighted_sup_norm(constant_one(), Weight.unit(), angles=4)


def test_the_radial_grid_count_ends_where_its_last_radius_stays_below_one():
    # radius 216 would be 1 - 2**-54, which rounds to 1.0: radial_grid refuses the count that reaches it
    assert radial_grid(216)[-1] < 1.0 and 1.0 - 2.0 ** (-216 / 4.0) == 1.0
    for count in (217, 300):
        with pytest.raises(ValueError, match=f"at most 216 radii, got {count}"):
            radial_grid(count)
    f = geometric_series(0.5, 16)
    assert weighted_sup_norm(f, Weight.standard(0.5), radii=216, angles=64).value > 0.0
    with pytest.raises(ValueError, match="at most 216 radii, got 217"):
        weighted_sup_norm(f, Weight.standard(0.5), radii=217, angles=64)


def _ragged_pool(rng, count):
    """Random series of degrees 8 and 2048 and of count - 2 degrees in between."""
    degrees = [8, 2048, *rng.integers(9, 2048, count - 2)]
    return [TaylorSeries(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)) for d in degrees]


def _padded_stack(pool):
    stack = np.zeros((len(pool), max(len(f) for f in pool)), dtype=complex)
    for row, f in zip(stack, pool):
        row[: len(f)] = f.coeffs
    return stack


#: Radii where r**n underflows at once, soon, late or never: 0, the smallest subnormal, the smallest
#: normal, deep in the normal range, small grid radii (0.159 is r_1), and the largest double below 1.
EDGE_RADII = (0.0, 5e-324, 2.0**-1022, 1e-300, 0.05, 0.159, 0.5, 0.7, 1.0 - 2.0**-53)


def _edge_stack(width):
    """Rows a cut power can meet: zeros, interior zeros, subnormal and near-overflow coefficients."""
    rng = np.random.default_rng(101)
    noise = rng.standard_normal((4, width)) + 1j * rng.standard_normal((4, width))
    holes = noise[0] * (rng.random(width) < 0.5)  # interior zeros
    holes[0] = 0.0
    huge = noise[2] * 1e300
    huge[: width // 2] = 0.0  # its maximum comes from subnormal powers where r**(width // 2) is subnormal
    return np.vstack([np.zeros(width), holes, noise[1] * 1e-310, huge, noise[3]])


def test_stacked_circle_max_equals_the_per_row_oracle():
    rng = np.random.default_rng(41)
    pool = _ragged_pool(rng, 9)
    stack = _padded_stack(pool)
    for angles in (64, 1024, 4096):
        for r in (0.0, 0.3, 0.97):
            want = [scalar_circle_max(f.coeffs, r, angles) for f in pool]
            assert np.array_equal(circle_max(stack, r, angles), want)
            assert circle_max(pool[2], r, angles) == want[2]
        radii = np.concatenate([[0.0], rng.random(len(pool) - 1)])
        want = [scalar_circle_max(f.coeffs, r, angles) for f, r in zip(pool, radii)]
        assert np.array_equal(circle_max(stack, radii, angles), want)
    # Rows and radii where the powers stop early, late or never, at Bluestein (97, 4093) and power-of-two
    # angle counts: the cut powers give the full-length powers' maxima bit for bit.
    for angles in (8, 97, 1024, 4093):
        for width in (3, 1025, 5000):
            stack = _edge_stack(width)
            for r in (*EDGE_RADII, *radial_grid(216)[::23], 2.0 ** (-1060 / (width // 2))):
                want = [scalar_circle_max(row, r, angles) for row in stack]
                assert bits(circle_max(stack, r, angles)) == bits(want), (angles, width, r)
            for radii in (np.resize(EDGE_RADII, len(stack)), np.resize(EDGE_RADII[::-1], len(stack))):
                want = [scalar_circle_max(row, r, angles) for row, r in zip(stack, radii)]
                assert bits(circle_max(stack, radii, angles)) == bits(want), (angles, width)


def test_circle_max_at_radius_zero_is_the_modulus_of_the_constant_term():
    rng = np.random.default_rng(37)
    for width in (5, 300):  # below and above the angle count
        stack = rng.standard_normal((40, width)) + 1j * rng.standard_normal((40, width))
        center = np.abs(stack[:, 0])
        for angles in (64, 1024):
            assert bits(circle_max(stack, 0.0, angles)) == bits(center)
        # 4093 is prime: pocketfft's Bluestein path rounds, within the grid prune's slack
        relative, absolute = weights._rounding_slack(width, 4093)
        assert np.all(np.abs(circle_max(stack, 0.0, 4093) - center) <= center * relative + absolute)
        assert circle_max(TaylorSeries(stack[3]), 0.0, 64) == center[3]
        radii = np.where(np.arange(40) % 3 == 0, 0.0, 0.5)
        got = circle_max(stack, radii, 64)
        assert bits(got[radii == 0.0]) == bits(center[radii == 0.0])
        assert bits(got[radii > 0.0]) == bits(circle_max(stack[radii > 0.0], 0.5, 64))


def test_circle_max_rejects_a_bad_radius_in_a_stack():
    stack = np.ones((2, 4), dtype=complex)
    for radii in (np.array([0.5, 1.0]), np.array([-0.1, 0.5]), np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match="radius"):
            circle_max(stack, radii, 16)


#: Odd widths exercise numpy's SIMD remainder loops; 2**17 is the longest long_series truncation.
POWER_WIDTHS = (1, 2, 7, 8, 9, 63, 1000, 2049, 4097, 65537, 2**17)


def _power_radii():
    rng = np.random.default_rng(83)
    random = rng.random(3000) ** rng.integers(1, 64, 3000)  # many radii small enough to underflow early
    return np.concatenate([EDGE_RADII, radial_grid(216), random])


def test_the_power_rule_equals_the_full_length_power_bitwise():
    radii = _power_radii()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # log2(0) must not warn
        longest = (*EDGE_RADII, *radial_grid(216)[::8])  # the two longest widths for these radii only
        for r in radii[: len(EDGE_RADII) + 216]:  # one radius
            for width in POWER_WIDTHS if r in longest else POWER_WIDTHS[:-2]:
                assert bits(weights._powers(r, width)) == bits(float(r) ** np.arange(width)), (r, width)
        for r, width in zip(radii, np.random.default_rng(89).integers(1, 2**12, len(radii))):
            assert bits(weights._powers(r, width)) == bits(float(r) ** np.arange(width)), (r, width)
        # Per row: the full-width np.power below each row's extent, and +0.0 past it.
        rng = np.random.default_rng(97)
        for rows, width in ((radii[: len(EDGE_RADII)], 2**17), (radii, 1025), (radii[::7], 4097)):
            live = np.arange(width) < rng.integers(0, width + 1, len(rows))[:, None]
            want = np.zeros(live.shape)
            np.power(rows[:, None], np.arange(width), out=want, where=live)
            scaled = weights._row_scaled(weights._Rows.of(live.astype(complex)), rows)  # coefficients 1: the powers
            got = np.zeros(live.shape)
            got[:, : scaled.shape[1]] = scaled.real
            assert bits(got) == bits(want) and not np.any(scaled.imag)
    assert weights._powers(0.0, 3).tolist() == [1.0, 0.0, 0.0]


def test_an_empty_stack_has_no_maxima_and_no_estimates():
    empty = np.zeros((0, 7), dtype=complex)
    for r in (0.5, np.zeros(0)):  # one radius, and one per row
        assert bits(circle_max(empty, r, 64)) == bits(np.zeros(0))
    assert bits(weighted_sup_norm([], Weight.unit()).value) == bits(np.zeros(0))
    assert bits(weighted_sup_norm(empty, Weight.standard(2.0)).value) == bits(np.zeros(0))


def _polish_stack():
    """Rows whose live prefixes differ: constant, trailing zeros below and above 64 columns, zero, full, NaN."""
    rng = np.random.default_rng(103)
    noise = lambda d: rng.standard_normal(d) + 1j * rng.standard_normal(d)
    stack = np.zeros((6, 400), dtype=complex)
    stack[0, 0] = 2.0 - 1.0j  # extent 1
    stack[1, :10] = noise(10)  # extent 10, below the angle count
    stack[3, :300] = noise(300)  # extent 300, above it, with an interior zero
    stack[3, 150] = 0.0
    stack[4] = noise(400)
    stack[5, :40] = noise(40)
    stack[5, 20] = np.nan
    return stack


@pytest.mark.parametrize("spec", ["unit", "gamma:5", "logpow:2", "table"])
def test_the_polish_over_live_prefixes_equals_the_per_series_oracle(spec):
    # gamma:5 polishes near r = 0, where a small radius's powers underflow before the extents of rows 3 and 4;
    # under the unit weight the random rows peak at the last grid radius, bracketed by the outer radius.
    v = TABLE_WEIGHT if spec == "table" else Weight.from_spec(spec)
    stack, rs = _polish_stack(), radial_grid(16)
    peaks = {int(np.argmax([v(r) * scalar_circle_max(row, r, 64) for r in rs])) for row in stack}
    assert 0 in peaks and (spec != "unit" or 15 in peaks)  # a bracket at r = 0, and one at the outer radius
    want = [scalar_weighted_sup_norm(row, v, 16, 64) for row in stack]
    assert bits(weighted_sup_norm(stack, v, radii=16, angles=64).value) == bits(want)
    assert np.isnan(want[5]) and not np.any(np.isnan(want[:5]))


def test_prepared_rows_give_the_plain_stacks_per_row_maxima():
    stack = _polish_stack()
    rows = weights._Rows.of(stack)
    assert rows.extent.tolist() == [1, 10, 0, 300, 400, 40] and rows.tail.tolist() == [0, 0, 0, 0, 0, 21]
    rng = np.random.default_rng(107)
    for angles in (8, 64, 97, 1024):
        for radii in (np.zeros(6), np.resize(EDGE_RADII, 6), rng.random(6), rng.random(6) ** 30):
            want = [scalar_circle_max(row, r, angles) for row, r in zip(stack, radii)]
            assert bits(circle_max(rows, radii, angles)) == bits(circle_max(stack, radii, angles)) == bits(want)


def test_a_non_finite_coefficient_past_the_underflow_index_keeps_its_row_nan():
    # At r = 0.05 every power from n = 254 on is cut to +0.0, and inf * 0.0 and nan * 0.0 are NaN.
    stack = np.zeros((3, 1000), dtype=complex)
    stack[:, 0] = 1.0
    stack[:, 900] = (np.inf, np.nan, 1.0)
    radii = np.full(3, 0.05)
    with np.errstate(invalid="ignore"):
        want = [scalar_circle_max(row, 0.05, 64) for row in stack]
        got = circle_max(stack, radii, 64)
        assert bits(got) == bits(want) and bits(circle_max(stack, 0.05, 64)) == bits(want)
    assert np.isnan(got[:2]).all() and got[2] == 1.0


def test_circle_max_takes_one_radius_or_one_per_row():
    with pytest.raises(ValueError, match="one radius or one per row, got 3 radii for 2 rows"):
        circle_max(np.ones((2, 4), dtype=complex), np.full(3, 0.5), 16)


@pytest.fixture
def power_table(monkeypatch):
    """An empty table of grid power rows, in place of the process's for one test."""
    table = {}
    monkeypatch.setattr(weights, "_power_rows", table)
    return table


@pytest.mark.parametrize("widths", [(4097, 9), (9, 4097), (2049, 2049, 1)])
def test_a_table_row_gives_a_fresh_builds_bits_at_any_width(widths, power_table):
    for r in (*EDGE_RADII, *radial_grid(216)[::5]):
        for width in widths:
            fresh = float(r) ** np.arange(width)
            assert bits(weights._powers(r, width, keep=True)) == bits(fresh), (r, width)
            assert bits(weights._powers(r, width)) == bits(fresh), (r, width)
        assert len(power_table[float(r)]) == max(widths)  # the widest request stays


def test_table_rows_are_read_only(power_table):
    weights._upper(np.ones((2, 50), dtype=complex), radial_grid(16), 64)
    assert set(power_table) == set(radial_grid(16))
    for r, row in power_table.items():
        assert not row.flags.writeable and not weights._powers(r, 20).flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 2.0


def test_a_row_past_the_byte_budget_is_built_per_call(power_table):
    assert weights._POWER_TABLE_BYTES == 4 * 2**20
    r, width = radial_grid(64)[-1], weights._POWER_TABLE_BYTES // 8 + 1
    row = weights._powers(r, width, keep=True)
    assert not power_table and bits(row) == bits(float(r) ** np.arange(width))
    weights._powers(r, 8, keep=True)
    assert bits(weights._powers(r, width, keep=True)) == bits(row) and [len(x) for x in power_table.values()] == [8]
    # The default grid and its outer radius at degree 2048, the widest norm_pool witness, fit the budget.
    pool = [random_series(2048, np.random.default_rng(109)), constant_one(512)]
    operator_norm_witness(0.5, Weight.standard(2.0), pool)
    assert len(power_table) == 65 and all(len(x) == 2049 for x in power_table.values())
    assert sum(x.nbytes for x in power_table.values()) <= weights._POWER_TABLE_BYTES


def test_threads_filling_the_table_keep_it_within_its_budget(power_table, monkeypatch):
    monkeypatch.setattr(weights, "_POWER_TABLE_BYTES", 20 * 64 * 8)  # 20 rows of 64 powers; requests reach 128
    radii, failures = radial_grid(64), []

    def fill(seed):
        rng = np.random.default_rng(seed)
        try:
            for r, width in zip(rng.choice(radii, 300), rng.integers(1, 129, 300)):
                if bits(weights._powers(r, width, keep=True)) != bits(float(r) ** np.arange(width)):
                    failures.append((r, width))
        except RuntimeError as error:  # a dict changed during the budget's sum
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(seed,)) for seed in range(6)]  # more threads than cores
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not failures
    assert sum(row.nbytes for row in power_table.values()) <= weights._POWER_TABLE_BYTES


def test_the_grid_measures_a_pair_whose_bound_ties_the_best_measured_value():
    # A constant row has M(r) = 1 and one bound A = 1 + slack at every radius.  The table weight is 1 at r = 0
    # and s from r_1 on, with fl(s * A) = 1 exactly: the seed is r = 0, where v M = 1, and every other pair ties it.
    rs, stack = radial_grid(8), np.ones((1, 1), dtype=complex)
    upper = weights._upper(stack, rs, 64)
    s = 1.0 / upper[0, 0]
    while s * upper[0, 0] != 1.0:
        s = np.nextafter(s, 2.0 if s * upper[0, 0] < 1.0 else 0.0)
    v = Weight.from_table([0.0, rs[1]], [1.0, s])
    assert v(rs).tolist() == [1.0] + [s] * 7 and (upper * v(rs))[0, 1:].tolist() == [1.0] * 7
    start = weights._seeded(stack, rs, v(rs), 64, upper)
    assert start.profile.tolist() == [[1.0] + [-math.inf] * 7]
    assert weights._grid_profile(start, rs, v(rs), 64).tolist() == [[1.0] * 8]  # ties are measured


def _grid_only(f, v, radii, angles):
    """The grid pass's value alone, before the polish: the row maxima of the pruned profile times v(r)."""
    rs, stack = radial_grid(radii), weights._coefficient_stack(f)
    start = weights._seeded(stack, rs, v(rs), angles, weights._upper(stack, rs, angles))
    values = np.max(weights._grid_profile(start, rs, v(rs), angles) * v(rs), axis=1)
    return float(values[0]) if isinstance(f, TaylorSeries) else values


@pytest.mark.parametrize("spec", ["gamma:5", "logpow:2"])
def test_a_norm_peaking_at_the_smallest_grid_radii_equals_the_per_series_oracle(spec):
    # A dominant constant term with a long small tail: the grid argmax sits at r_0 to r_2, where most
    # powers of the tail underflow, and the polish brackets reach down to r = 0.
    v, rng = Weight.from_spec(spec), np.random.default_rng(103)
    pool = []
    for degree, scale in ((2048, 0.02), (700, 0.3), (1500, 0.6)):
        coeffs = scale * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
        coeffs[0] = 1.0
        pool.append(TaylorSeries(coeffs))
    rs = radial_grid(64)
    for f in pool:
        profile = [float(v(r)) * scalar_circle_max(f.coeffs, float(r), 1024) for r in rs]
        assert int(np.argmax(profile)) <= 2
    want = [scalar_weighted_sup_norm(f.coeffs, v, 64, 1024, refine=False) for f in pool]
    assert bits(_grid_only(pool, v, 64, 1024)) == bits(want)
    want = [scalar_weighted_sup_norm(f.coeffs, v, 64, 1024) for f in pool]
    assert bits(weighted_sup_norm(pool, v, radii=64, angles=1024).value) == bits(want)


TABLE_WEIGHT = Weight.from_table([0.0, 0.5, 0.9, 0.99], [1.0, 0.6, 0.1, 0.01])


@pytest.mark.parametrize("spec", ["unit", "table", "gamma:2", "logpow:2"])
def test_batched_weighted_norm_equals_the_per_series_oracle(spec):
    v = TABLE_WEIGHT if spec == "table" else Weight.from_spec(spec)
    pool = _ragged_pool(np.random.default_rng(43), 9)
    polished = lambda f: weighted_sup_norm(f, v, radii=32, angles=256).value
    for refine, norm in ((False, lambda f: _grid_only(f, v, 32, 256)), (True, polished)):
        # A radius gets the same v(r) alone and inside an array, so the
        # one-radius-at-a-time oracle agrees bit for bit.
        want = [scalar_weighted_sup_norm(f.coeffs, v, 32, 256, refine) for f in pool]
        for batch in (pool, _padded_stack(pool)):
            got = norm(batch)
            assert got.shape == (len(pool),)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=0.0)
        single = norm(pool[3])
        assert isinstance(single, float)
        np.testing.assert_allclose(single, want[3], rtol=0.0, atol=0.0)


def test_witness_bound_equals_the_largest_per_witness_ratio():
    pool = _ragged_pool(np.random.default_rng(47), 5)
    v, t = Weight.unit(), 0.6
    est = operator_norm_witness(t, v, pool, radii=16, angles=256)
    norm = lambda f: scalar_weighted_sup_norm(f.coeffs, v, 16, 256)
    assert est.value == max(norm(apply(CesaroOperator(t), w)) / norm(w) for w in pool)


SWEEP_WEIGHTS = [Weight.unit(), TABLE_WEIGHT, Weight.standard(2.0), Weight.log_power(2)]
SWEEP_TS = (0.1, 0.6, 0.95)


def test_every_sweep_entry_equals_its_single_witness_call():
    pool = _ragged_pool(np.random.default_rng(59), 4)
    single = lambda t, v: operator_norm_witness(t, v, pool, radii=16, angles=256).value
    table = operator_norm_witness(SWEEP_TS, SWEEP_WEIGHTS, pool, radii=16, angles=256).value
    assert isinstance(single(SWEEP_TS[0], SWEEP_WEIGHTS[0]), float)
    assert bits(table) == bits([[single(t, v) for t in SWEEP_TS] for v in SWEEP_WEIGHTS])
    # A single t or a single weight drops its axis of the table.
    assert bits(single(SWEEP_TS, SWEEP_WEIGHTS[2])) == bits(table[2])
    assert bits(single(SWEEP_TS[1], SWEEP_WEIGHTS)) == bits(table[:, 1])
    assert bits(single([SWEEP_TS[0]], [SWEEP_WEIGHTS[3]])) == bits(table[3:, :1])


def _without_settling(monkeypatch):
    """Make every row take the full polish, as before rows settled at r = 0."""
    monkeypatch.setattr(weights, "_settled", lambda start, j, *rest: np.zeros(len(j), dtype=bool))


def _counted_circle_max(monkeypatch):
    """Record each ``circle_max`` call: (stack, radius) for a grid call, the radii array for a polish call."""
    grid, polish = [], []
    original = weights.circle_max

    def counted(f, r, angles):
        if np.ndim(r) == 0:
            grid.append((f, r))
        else:
            polish.append(r)
        return original(f, r, angles)

    monkeypatch.setattr(weights, "circle_max", counted)
    return grid, polish


def test_a_sweep_shares_one_grid_pass(monkeypatch):
    grid, polish = _counted_circle_max(monkeypatch)
    pool = _ragged_pool(np.random.default_rng(61), 3)
    stack = _padded_stack(pool + [apply(CesaroOperator(t), f) for t in SWEEP_TS for f in pool])
    row_of = {row.tobytes(): i for i, row in enumerate(stack)}
    assert len(row_of) == len(stack)
    measured = lambda calls: [(row_of[row.tobytes()], r) for f, r in calls for row in f]
    rs = radial_grid(16)
    bounds = np.abs(stack) @ (rs[None, :] ** np.arange(stack.shape[1])[:, None])
    full = []  # per weight, the pairs of its grid pass over every row
    for v in SWEEP_WEIGHTS:
        grid.clear()
        polish.clear()
        weighted_sup_norm(stack, v, radii=16, angles=64)
        pairs = measured(grid)
        assert len(pairs) == len(set(pairs)) < len(stack) * 16  # no pair twice, and some pruned
        # At most one call per grid radius, plus one per radius where the bound v * A peaks; then the polish.
        assert len(grid) <= 16 + len(set(np.argmax(bounds * v(rs), axis=1).tolist())) and len(polish) == 42
        full.append(set(pairs))
    # A witness sweep runs one pass per weight, each with its own seeds, grid and polish.
    polish.clear()
    starts, tables = [], []  # (grid calls, polish calls) so far when each weight's pass begins; A tables built
    estimate, upper = weights._estimate_bounds, weights._upper
    monkeypatch.setattr(weights, "_estimate_bounds", lambda *a: starts.append((len(grid), len(polish))) or estimate(*a))
    monkeypatch.setattr(weights, "_upper", lambda *a: tables.append(a[0].shape) or upper(*a))
    grid.clear()
    operator_norm_witness(SWEEP_TS, SWEEP_WEIGHTS, pool, radii=16, angles=64)
    assert tables == [stack.shape]  # one A table for the whole sweep
    assert [steps for _, steps in starts] == [42 * k for k in range(len(SWEEP_WEIGHTS))]  # 2 + 40 polish steps each
    assert len(polish) == 42 * len(SWEEP_WEIGHTS)
    ends = [first for first, _ in starts[1:]] + [len(grid)]
    for (first, _), end, pairs in zip(starts, ends, full):
        passed = measured(grid[first:end])
        assert len(passed) == len(set(passed)) and set(passed) <= pairs  # no pair twice within one weight's pass
    starts.clear()
    operator_norm_witness(SWEEP_TS, SWEEP_WEIGHTS, pool[:1], radii=16, angles=64)
    assert len(starts) == len(SWEEP_WEIGHTS)  # one witness takes the same path


def test_the_grid_pass_evaluates_each_weight_once(monkeypatch):
    calls = []
    original = Weight.__call__
    monkeypatch.setattr(Weight, "__call__", lambda self, r: calls.append(np.shape(r)) or original(self, r))
    pool = _ragged_pool(np.random.default_rng(67), 3)
    _without_settling(monkeypatch)  # settling has its own tests below
    for v in SWEEP_WEIGHTS:
        calls.clear()
        weighted_sup_norm(pool, v, radii=16, angles=64)
        assert calls == [(16,)] + [(3,)] * 42  # the grid, then 2 + 40 polish steps of one radius per row


def _prune_pool():
    """Rows the grid prune must get right: every radius tied, positive coefficients, zero, constant, r = 0 maxima."""
    rng = np.random.default_rng(71)
    f1 = constant_one(64)  # under the unit weight every radius ties at 1
    images = [apply(CesaroOperator(t), f) for t in (0.3, 0.95) for f in (f1, geometric_series(0.5, 100))]
    return [
        f1,
        TaylorSeries(np.zeros(5)),
        TaylorSeries([2.5 - 1.0j]),  # degree 0: A = M = |c0| at every radius
        TaylorSeries([3.0, 0.1, -0.2]),  # largest at r = 0 under every decreasing weight
        geometric_series(0.9, 300),
        *images,  # positive coefficients: M = A, so only rounding tells them apart
        *(TaylorSeries(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)) for d in (12, 700)),
    ]


@pytest.mark.parametrize("radii", [8, 16, 64, 216])
def test_the_pruned_grid_equals_the_full_grid_oracle(radii):
    pool = _prune_pool()
    for v in [Weight.unit(), Weight.standard(2.0), Weight.log_power(1), TABLE_WEIGHT]:
        want = [scalar_weighted_sup_norm(f.coeffs, v, radii, 64, refine=False) for f in pool]
        assert bits(_grid_only(pool, v, radii, 64)) == bits(want)
        want = [scalar_weighted_sup_norm(f.coeffs, v, radii, 64) for f in pool]
        assert bits(weighted_sup_norm(pool, v, radii=radii, angles=64).value) == bits(want)


def test_the_rounding_slack_covers_circle_max_on_positive_coefficients():
    rng = np.random.default_rng(73)
    for width in (2, 3, 17, 1000, 4097, 65537):
        n = np.arange(width)
        rows = (np.ones(width), rng.random(width), 0.5 ** (n % 60), rng.random(width) * 1e-310)  # last: subnormal
        stack = np.vstack(rows)
        magnitudes = np.abs(stack.astype(complex))
        for angles in (8, 9, 97, 1000, 1024, 3072, 4093, 4096, 8186, 65521):  # 97, 4093, 65521 prime: Bluestein
            relative, absolute = weights._rounding_slack(width, angles)
            for r in (0.0, 0.5, 0.9, radial_grid(216)[-1]):
                bound = (magnitudes @ (float(r) ** n)) * (1.0 + relative) + absolute
                assert np.all(circle_max(stack, r, angles) <= bound)


def test_the_grid_prunes_a_norm_pool_query_under_gamma_two(monkeypatch):
    rng = np.random.default_rng(79)
    pool = [constant_one(512)] + [random_series(int(d), rng) for d in (40, 300, 900, 2048)]
    grid, _ = _counted_circle_max(monkeypatch)
    operator_norm_witness(0.7, Weight.standard(2.0), pool, radii=64, angles=1024)
    assert sum(len(f) for f, _ in grid) < 2 * len(pool) * 64


@pytest.mark.parametrize("v", [[Weight.unit(), Weight.standard(2.0)], [Weight.unit()], []], ids=["two", "one", "none"])
def test_a_weight_sequence_is_refused_before_any_circle_max(v, monkeypatch):
    grid, polish = _counted_circle_max(monkeypatch)
    with pytest.raises(TypeError, match="^weighted_sup_norm takes one Weight, got list$"):
        weighted_sup_norm(constant_one(8), v)
    assert grid == polish == []


def test_sweep_preconditions():
    pool = [constant_one(8)]
    with pytest.raises(ValueError, match="weight list"):
        operator_norm_witness(0.5, [], pool)
    with pytest.raises(ValueError, match="t list must be non-empty"):
        operator_norm_witness([], Weight.unit(), pool)
    with pytest.raises(ValueError, match="t = 1 needs a gamma:<g> weight, got unit"):
        operator_norm_witness([0.5, 1.0], Weight.unit(), pool)


@pytest.mark.parametrize("grid", [{"angles": 4}, {"radii": 4}, {"radii": 16.0}])
def test_the_witness_ratio_asks_the_grid_rule_before_any_witness_is_applied(grid, monkeypatch):
    applied = []
    monkeypatch.setattr(weights, "apply", lambda op, f: applied.append(op.t) or apply(op, f))
    pool = [constant_one(8), random_series(8, np.random.default_rng(0))]
    with pytest.raises(ValueError, match="^weighted norm grids need at least 8 radii and 8 angles$"):
        operator_norm_witness([0.3, 0.6], Weight.unit(), pool, **grid)
    assert applied == []


def test_the_witness_ratio_asks_the_weight_rule_before_any_witness_is_applied(monkeypatch):
    applied = []
    monkeypatch.setattr(weights, "apply", lambda op, f: applied.append(op.t) or apply(op, f))
    pool = [constant_one(8), random_series(8, np.random.default_rng(0))]
    with pytest.raises(ValueError, match="^weight list must be non-empty$"):
        operator_norm_witness([0.3, 0.6], [], pool)
    assert applied == []


def _every_row_polished(ts, vs, witnesses, radii, angles):
    """The (weights x t) witness ratios from one full ``weighted_sup_norm`` stack: every row polished."""
    count = len(witnesses)
    series = list(witnesses) + [apply(CesaroOperator(t), w) for t in ts for w in witnesses]
    values = np.array([weighted_sup_norm(series, v, radii, angles).value for v in vs])
    return np.max(values[:, count:].reshape(len(vs), len(ts), count) / values[:, None, :count], axis=-1)


def _norm_pool_query(rng, extra=4):
    """A witness pool shaped like the benchmark's: f1 of degree 512 and random series of log-uniform degree."""
    degrees = np.exp(rng.uniform(np.log(8), np.log(2048), extra)).astype(int)
    return [constant_one(512)] + [random_series(int(d), rng) for d in degrees]


ALL_KINDS = [Weight.unit(), Weight.standard(0.5), Weight.standard(5.0), Weight.log_power(2), TABLE_WEIGHT]
#: (1 - r)**0.5 sampled at five radii: most witnesses of a check-12 pool cannot win under it.
SQRT_TABLE = Weight.from_table([0.0, 0.5, 0.75, 0.9, 0.99], [1.0, 0.5**0.5, 0.5, 0.1**0.5, 0.1])


def _check_12_pool(size):
    """The first ``size`` witnesses of acceptance check 12: random series of degree 8 to 128."""
    rng = np.random.default_rng(131)
    return [random_series(int(rng.integers(8, 129)), rng) for _ in range(size)]


def _bounds(stack, v, radii, angles):
    """(lower, upper) of every row of ``stack`` under ``v``, from the A table a witness sweep builds."""
    rs = radial_grid(radii)
    table = weights._upper(stack, np.append(rs, weights._bracket(rs, radii - 1)[1]), angles)
    _, lower, upper = weights._estimate_bounds(stack, table, rs, v, angles)
    return lower, upper


def test_a_table_weight_keeps_few_rows():
    pool = _check_12_pool(12)
    stack = _padded_stack(pool + [apply(CesaroOperator(t), f) for t in SWEEP_TS for f in pool])
    for radii, angles in ((32, 256), (64, 1024)):
        assert weights._contenders(*_bounds(stack, SQRT_TABLE, radii, angles), len(pool)).sum() <= len(stack) // 4
        assert weights._contenders(*_bounds(stack, Weight.standard(5.0), radii, angles), len(pool)).all()


def test_check_12_polishes_under_each_weight_only_the_rows_that_can_win(monkeypatch):
    calls, polish = [], weights.weighted_sup_norm
    counted = lambda f, v, *grid: calls.append((len(f.stack), v)) or polish(f, v, *grid)
    monkeypatch.setattr(weights, "weighted_sup_norm", counted)
    assert acceptance.check_standard_weight_norms().passed
    assert [v.label for _, v in calls] == ["gamma:1", "gamma:2", "gamma:5", "gamma:0.5"]  # one call per weight
    assert sum(rows for rows, _ in calls) < 4 * 200  # 4 weights x (50 witnesses + 150 images)


@pytest.mark.parametrize(
    "ts, vs, pool",
    [
        (SWEEP_TS, ALL_KINDS, _norm_pool_query(np.random.default_rng(83))),
        (SWEEP_TS, ALL_KINDS, _ragged_pool(np.random.default_rng(89), 5)),
        # a duplicated witness: two exactly tied ratios at every t and weight
        (SWEEP_TS, ALL_KINDS, [constant_one(64), *_ragged_pool(np.random.default_rng(97), 2)] * 2),
        # f1 under the unit weight: every grid radius ties, and so do the witnesses f1 and 2 f1
        ((0.2, 0.9), [Weight.unit()], [constant_one(256), 2.0 * constant_one(256), geometric_series(0.5, 64)]),
        # t = 1 on the gamma spaces
        ((0.5, 1.0), [Weight.standard(0.5), Weight.standard(2.0)], _norm_pool_query(np.random.default_rng(101))),
        # a weight that keeps every row between two whose table keeps few (test_a_table_weight_keeps_few_rows)
        (SWEEP_TS, [SQRT_TABLE, Weight.standard(5.0), SQRT_TABLE], _check_12_pool(12)),
    ],
    ids=["norm-pool", "ragged", "duplicated", "unit-ties", "t-one", "few-kept"],
)
def test_the_witness_ratio_equals_the_every_row_polished_ratio(ts, vs, pool):
    for radii, angles in ((32, 256), (64, 1024)):
        want = _every_row_polished(ts, vs, pool, radii, angles)
        assert bits(operator_norm_witness(list(ts), vs, pool, radii, angles).value) == bits(want)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=0.99),
    st.sampled_from(range(len(ALL_KINDS))),
)
def test_estimate_bounds_hold_and_a_skipped_witness_cannot_win(seed, t, kind):
    rng = np.random.default_rng(seed)
    pool = _norm_pool_query(rng, extra=int(rng.integers(1, 6)))
    v, count, radii, angles = ALL_KINDS[kind], len(pool), 16, 256
    stack = _padded_stack(pool + [apply(CesaroOperator(t), f) for f in pool])
    lower, upper = _bounds(stack, v, radii, angles)
    assert lower.shape == upper.shape == (len(stack),)
    grid = _grid_only(stack, v, radii, angles)
    polished = weighted_sup_norm(stack, v, radii, angles).value
    assert np.all(lower <= grid) and np.all(grid <= polished) and np.all(polished <= upper)
    needed = weights._contenders(lower, upper, count)
    ratios = polished[count:] / polished[:count]
    skipped = ~needed[:count]
    # num_cap / den_grid of every skipped witness lies below the winner's final ratio
    assert np.all(upper[count:][skipped] / grid[:count][skipped] < np.max(ratios))
    assert needed[count + np.argmax(ratios)] and not np.any(needed[count:] & skipped)


def test_contenders_keep_a_lone_witness_and_drop_one_that_cannot_win():
    # one witness at two t: its ratio interval always reaches the largest lower end, even a NaN one
    for lower in ([1.0, 0.5, 3.0], [1.0, np.nan, 3.0], [0.0, 0.5, 3.0]):
        assert weights._contenders(np.array(lower), np.array([1.0, 0.5, 3.0]), 1).tolist() == [True] * 3
    # two witnesses at one t: ratios in [2 / 1.1, 2.2 / 1] and [1 / 1, 1.1 / 1], so the second cannot win
    lower, upper = np.array([1.0, 1.0, 2.0, 1.0]), np.array([1.1, 1.0, 2.2, 1.1])
    assert weights._contenders(lower, upper, 2).tolist() == [True, False, True, False]


def test_a_seeded_stack_continues_to_the_full_call_and_is_left_unchanged():
    stack = _padded_stack(_ragged_pool(np.random.default_rng(71), 4))
    rs = radial_grid(16)
    upper = weights._upper(stack, rs, 64)
    for v in SWEEP_WEIGHTS:
        start = weights._seeded(stack, rs, v(rs), 64, upper)
        seeds = start.profile.copy()
        want = bits(weighted_sup_norm(stack, v, radii=16, angles=64).value)
        for _ in range(2):
            assert bits(weighted_sup_norm(start, v, radii=16, angles=64).value) == want
            assert bits(start.profile) == bits(seeds)


def test_a_norm_pool_query_polishes_fewer_than_every_row(monkeypatch):
    rng = np.random.default_rng(107)
    queries = [(float(t), Weight.from_spec(spec), _norm_pool_query(rng)) for t, spec in zip(
        rng.uniform(0.05, 0.95, 12), ["unit", "gamma:0.5", "gamma:1", "gamma:2", "logpow:1", "logpow:2"] * 2
    )]
    want = [_every_row_polished([t], [v], pool, 64, 1024)[0, 0] for t, v, pool in queries]
    _, polish = _counted_circle_max(monkeypatch)
    _without_settling(monkeypatch)  # the prune alone: settling has its own tests below
    rows = []
    for t, v, pool in queries:
        polish.clear()
        assert operator_norm_witness(t, v, pool, radii=64, angles=1024).value == want[len(rows)]
        assert len(polish) == 42 and len({len(r) for r in polish}) == 1  # 2 + 40 steps, one radius per row
        rows.append(len(polish[0]))
    assert max(rows) <= 2 * 5 and sum(rows) < 2 * 5 * len(queries)


#: The weights whose rows can settle at r = 0, convex and concave on [0, r_1].
SETTLE_WEIGHTS = [Weight.standard(g) for g in (0.25, 0.5, 1.0, 2.0, 5.0)] + [Weight.log_power(n) for n in (1, 2, 5)]
R1 = float(radial_grid(2)[1])


def _kappa(v):
    """The slope of v's linear majorant 1 - kappa x on [0, r_1], to 30 digits, independent of the library."""
    r1 = mpmath.mpf(R1)
    with mpmath.workdps(30):
        if v.kind == "standard_gamma":  # convex for gamma >= 1 (chord), concave below (tangent at 0)
            return min((1 - (1 - r1) ** v.gamma) / r1, mpmath.mpf(v.gamma))
        return (1 - (1 - mpmath.log(1 - r1)) ** -int(v.label.split(":")[1])) / r1  # convex on [0, r_1]


def _settle_stack(v, width, rng):
    """Rows peaking at r = 0 with |c_1| / (kappa |c_0|) from 0 to 1.02, tails, and rows that peak elsewhere."""
    kappa = float(_kappa(v))
    rows = []
    for q in (0.0, 0.9, 0.97, 0.985, 0.995, 1.02):
        c0 = rng.uniform(1e-3, 1e3) * np.exp(2j * np.pi * rng.random())
        row = np.zeros(width, dtype=complex)
        row[0], row[1 % width] = c0, q * kappa * abs(c0) * np.exp(2j * np.pi * rng.random()) if width > 1 else 0.0
        if width > 2:  # a tail that moves A(r_1) by a hundredth of the margin or less
            row[2:] = 1e-4 * abs(c0) * (rng.standard_normal(width - 2) + 1j * rng.standard_normal(width - 2))
            row[2:] *= 0.5 ** np.arange(width - 2)
        rows.append(row)
    rows.append(np.r_[2.5 - 1.0j, np.zeros(width - 1)])  # a constant: settles under every such weight
    noise = rng.standard_normal((3, width)) + 1j * rng.standard_normal((3, width))
    return np.vstack(rows + [noise[0], noise[1] * 1e-310, noise[2] * (0.9 ** np.arange(width))])


@pytest.mark.parametrize(
    "width, angles", [(2, 8), (2, 1024), (17, 97), (17, 512), (300, 1024), (300, 4093), (4097, 8), (4097, 1024)]
)
def test_a_settled_row_keeps_the_full_polishs_bits(width, angles, monkeypatch):
    rng = np.random.default_rng(width * 7919 + angles)
    stacks = {v.label: _settle_stack(v, width, rng) for v in SETTLE_WEIGHTS}
    got, settled, original = {}, [], weights._settled
    monkeypatch.setattr(weights, "_settled", lambda *a: settled.append(original(*a)) or settled[-1])
    for v in SETTLE_WEIGHTS:
        got[v.label] = weighted_sup_norm(stacks[v.label], v, radii=16, angles=angles).value
    assert sum(int(np.sum(s)) for s in settled) >= len(SETTLE_WEIGHTS)  # the rule fired, at least on the constants
    _without_settling(monkeypatch)
    for v in SETTLE_WEIGHTS:
        assert bits(weighted_sup_norm(stacks[v.label], v, radii=16, angles=angles).value) == bits(got[v.label])


def _all_left_samples(hi):
    """Every sample of the golden section on [0, hi] whose every step goes left (a constant function)."""
    samples = []
    weights._golden_max(lambda r: samples.append(r) or np.zeros_like(r), np.zeros(1), np.array([hi]))
    return np.concatenate(samples)


@pytest.mark.parametrize("hi", [R1, 1e-3, 0.5, 1.0 - 2.0**-20])
def test_every_golden_sample_of_a_bracket_from_zero_is_at_least_the_floor(hi):
    floor = weights._GOLDEN_FLOOR * hi
    left = _all_left_samples(hi)
    assert np.min(left) >= floor and np.min(left) <= floor * (1.0 + 2.0**-19)  # the all-left path meets it
    rng = np.random.default_rng(109)
    paths = {
        "right": lambda r: r,  # increasing: every step goes right
        "random": lambda r: rng.random(r.shape),
        "late-left": lambda r: np.where(r > 0.3 * hi, -r, r),  # right, then left around 0.3 hi
    }
    for path in paths.values():
        samples = []
        weights._golden_max(lambda r: samples.append(r) or path(r), np.zeros(64), np.full(64, hi))
        assert np.min(samples) >= floor


@pytest.mark.parametrize("angles", [97, 1024])  # 97 is prime: a Bluestein transform
def test_a_settled_row_stays_at_or_below_its_grid_value_across_its_bracket(angles):
    rng, rs = np.random.default_rng(113), radial_grid(16)
    radii = np.geomspace(weights._GOLDEN_FLOOR * R1, R1, 2000)
    rows, grids, weighted = [], [], []  # every weight's settled rows, their grid values, and v at the radii
    for v in SETTLE_WEIGHTS:
        stack = _settle_stack(v, 300, rng)
        start = weights._seeded(stack, rs, v(rs), angles, weights._upper(stack, rs, angles))
        vals = weights._grid_profile(start, rs, v(rs), angles) * v(rs)
        j = np.argmax(vals, axis=1)
        grid = vals[np.arange(len(j)), j]
        settled = weights._settled(start, j, grid, v, rs, v(rs), angles)
        assert settled.sum() >= 2
        rows.append(stack[settled])
        grids.append(grid[settled])
        weighted += [v(radii)] * int(settled.sum())
    stack, grid, weighted = np.vstack(rows), np.concatenate(grids), np.array(weighted)
    for k, r in enumerate(radii):  # a sample's value is fl(v(r) M(r)), as the polish computes it
        assert np.all(weighted[:, k] * circle_max(stack, float(r), angles) <= grid)


@pytest.mark.parametrize("width, angles", [(2, 1024), (300, 97), (4097, 4093)])
@pytest.mark.parametrize("v", SETTLE_WEIGHTS, ids=lambda v: v.label)
def test_the_settle_rule_is_sound_and_tight_in_exact_arithmetic(v, width, angles):
    # Rows [c0, s] whose margin x_min D sweeps across the rule's threshold.  In exact rationals, with the
    # true kappa and the true smallest golden sample: every settled row's sample bound is at most its grid
    # value (sound), and every row whose bound is below it by 2**-44 relative settles (tight).
    from fractions import Fraction as Q

    u, rs = Q(2) ** -53, radial_grid(8)  # the coarsest grid: its last radius misses the 1e300 term below
    kappa, x_min = Q(float(_kappa(v) * (1 - mpmath.mpf(2) ** -60))), Q(float(np.min(_all_left_samples(R1))))
    relative, absolute = weights._rounding_slack(width, angles)
    eps = (1 + u) * (1 + Q(2) ** -40) * (1 + Q(relative)) * (1 + 2 * u) - 1
    step = float(relative + 2.0**-40) / float(x_min)
    s = float(kappa) - relative * (1.0 + float(kappa) * R1) / R1 - step + step * np.linspace(-0.5, 0.5, 401)
    stack = np.zeros((len(s) + 5, width), dtype=complex)
    stack[: len(s), 0], stack[: len(s), 1] = 1.0, s
    stack[len(s):, 0] = (2.0**600, 1e-300, 1e-310, 5e-324, 1e-300)  # huge, tiny, subnormal
    stack[-1, -1] = 1e300  # far past r_1's underflow index: only the absolute term on A(r_1) sees it
    start = weights._seeded(stack, rs, v(rs), angles, weights._upper(stack, rs, angles))
    vals = weights._grid_profile(start, rs, v(rs), angles) * v(rs)
    j = np.argmax(vals, axis=1)
    grid = vals[np.arange(len(j)), j]
    settled = weights._settled(start, j, grid, v, rs, v(rs), angles)
    sound = tight = 0
    for row, a1, g, done, at in zip(stack, start.upper[:, 1], grid, settled, j):
        c = Q(float(abs(row[0]))) * (1 + 2 * u)
        total = sum(Q(float(abs(x))) for x in row[row != 0]) * (1 + 2 * u)
        slope = kappa * c - (Q(float(a1)) - c) / Q(R1)  # A(r_1) <= A+ + 2**-1072 sum |c_n|, the second term below
        bound = (c - x_min * slope) * (1 + eps) + (1 + eps) * (Q(2) ** -1072 + Q(2) ** -1074) * total
        bound += (1 + Q(2) ** -40) * (1 + u) * Q(absolute) + Q(2) ** -1075
        fits = at == 0 and slope > 0 and bound <= Q(float(g))
        if done:
            assert fits, (row[:2], float(bound - Q(float(g))))
            sound += 1
        elif fits and bound <= Q(float(g)) * (1 - Q(2) ** -44) and abs(row[0]) >= 1e-290:  # no subnormal c0
            raise AssertionError(f"row {row[:2]} fits by more than 2**-44 and did not settle")
        tight += not fits
    assert sound >= 100 and tight >= 100  # both sides of the threshold are swept


def test_rows_of_nan_unit_or_table_weights_never_settle():
    rs, angles = radial_grid(16), 64
    stack = np.array([[1.0, 0.1, 0.0], [1.0, np.nan, 0.0], [np.nan, 0.0, 0.0], [1.0, 0.0, np.inf], [0.0, 0.0, 0.0]])
    for v in [Weight.standard(2.0), Weight.log_power(1), Weight.unit(), TABLE_WEIGHT]:
        with np.errstate(invalid="ignore"):  # inf * 0.0 in the A table
            start = weights._seeded(stack, rs, v(rs), angles, weights._upper(stack, rs, angles))
            vals = weights._grid_profile(start, rs, v(rs), angles) * v(rs)
        j = np.argmax(vals, axis=1)
        settled = weights._settled(start, j, vals[np.arange(len(j)), j], v, rs, v(rs), angles)
        assert settled.tolist() == [v.kind in ("standard_gamma", "log_power"), False, False, False, False]


def test_the_settle_rule_fires_on_a_check_12_shaped_gamma_two_sweep(monkeypatch):
    # A guard on the rule's slack: one too loose settles nothing, and every row pays the full polish again.
    polished, golden = [], weights._golden_max
    monkeypatch.setattr(weights, "_golden_max", lambda fn, lo, hi: polished.append(len(lo)) or golden(fn, lo, hi))
    want = operator_norm_witness(SWEEP_TS, Weight.standard(2.0), _check_12_pool(50), radii=64, angles=512).value
    with_settling = sum(polished)  # 16 of the 200 rows the full polish takes
    polished.clear()
    _without_settling(monkeypatch)
    assert bits(operator_norm_witness(SWEEP_TS, Weight.standard(2.0), _check_12_pool(50), 64, 512).value) == bits(want)
    assert with_settling <= sum(polished) // 4, (with_settling, sum(polished))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0 - 2.0**-53), st.integers(min_value=0, max_value=60))
def test_golden_section_samples_stay_in_their_bracket(lo, ulps):
    # a bracket as wide as the grid's, or only a few ulps wide, where steps round the most
    hi = np.nextafter(lo, 1.0) if ulps == 0 else min(lo + ulps * 2.0**-52 * max(lo, 2.0**-1022), 1.0 - 2.0**-53)
    lo, hi = np.array([lo, 0.0, lo]), np.array([hi, 0.159, max(hi, 0.999)])
    samples = []
    weights._golden_max(lambda r: samples.append(r) or -np.abs(r - 0.3), lo, hi)
    assert all(np.all((lo <= r) & (r <= hi)) for r in samples)


def test_radial_grid_clusters_toward_one():
    rs = radial_grid(16)
    assert rs[0] == 0.0
    assert np.all(np.diff(rs) > 0)
    assert rs[-1] > 0.9
    np.testing.assert_allclose(1.0 - rs[4], 0.5)


# --- coefficient norm families ------------------------------------------------------


def test_frechet_norm_of_constant():
    f = TaylorSeries([1.0])
    for k in (2, 5, 9):
        assert frechet_norm(f, k, "sum") == 1.0
        assert frechet_norm(f, k, "sup") == 1.0


def test_frechet_norm_of_z_at_k_two():
    f = TaylorSeries([0, 1])
    assert frechet_norm(f, 2, "sum") == 0.5
    assert frechet_norm(f, 2, "sup") == 0.5


@pytest.mark.parametrize("flavor", ["sum", "sup"])
@pytest.mark.parametrize("k", [2, 5, 37])
@pytest.mark.parametrize("width", [1, 7, 8, 9, 128, 129, 1000])
def test_stacked_frechet_norm_equals_each_rows_call(flavor, k, width):
    # widths on both sides of numpy's pairwise-summation blocks
    rng = np.random.default_rng(width)
    stack = (rng.standard_normal((5, width)) + 1j * rng.standard_normal((5, width))) * 10.0 ** rng.integers(
        -6, 6, (5, width)
    )
    got = frechet_norm(stack, k, flavor)
    assert isinstance(got, np.ndarray) and got.shape == (5,)
    assert list(got) == [frechet_norm(TaylorSeries(row), k, flavor) for row in stack]
    assert isinstance(frechet_norm(TaylorSeries(stack[0]), k, flavor), float)


@pytest.mark.parametrize("flavor", ["sum", "sup"])
@pytest.mark.parametrize("width", [1, 8, 129, 1000, 3000])
def test_frechet_norm_over_a_sequence_of_k_equals_each_ks_call(flavor, width):
    rng = np.random.default_rng(width)
    stack = rng.standard_normal((4, width)) + 1j * rng.standard_normal((4, width))
    ks = [2, 3, 5, 10, 37]
    got = frechet_norm(stack, ks, flavor)
    assert got.shape == (len(ks), 4)
    for row, k in zip(got, ks):  # bitwise: == on floats, not a tolerance
        assert list(row) == list(frechet_norm(stack, k, flavor))
    single = frechet_norm(TaylorSeries(stack[0]), ks, flavor)
    assert list(single) == [frechet_norm(TaylorSeries(stack[0]), k, flavor) for k in ks]


def test_frechet_norm_rejects_small_k():
    with pytest.raises(ValueError):
        frechet_norm(TaylorSeries([1.0]), 1)
    with pytest.raises(ValueError):
        frechet_norm(TaylorSeries([1.0]), [2, 1])


@settings(max_examples=80)
@given(small_series, st.integers(min_value=2, max_value=10))
def test_norm_family_equivalence_constants(f, k):
    sup_k = frechet_norm(f, k, "sup")
    sum_k = frechet_norm(f, k, "sum")
    sup_next = frechet_norm(f, k + 1, "sup")
    assert sup_k <= sum_k + 1e-12
    assert sum_k <= k * k * sup_next + 1e-12


def test_q_r_below_sum_norm_inside_radius():
    rng = np.random.default_rng(21)
    for _ in range(10):
        f = TaylorSeries(rng.standard_normal(50) + 1j * rng.standard_normal(50))
        for k in (2, 4, 8):
            r = 1.0 - 1.0 / k
            assert circle_max(f, r - 0.05, 1024) <= frechet_norm(f, k, "sum") + 1e-12


def test_upper_bound_combines_log_and_gamma_branches():
    # -log(0.1)/0.9 ~ 2.5584 exceeds 1/gamma = 2 at gamma = 0.5
    got = norm_upper_bound(0.9, Weight.standard(0.5))
    assert got == 2.0
    raw = -math.log(0.1) / 0.9
    assert abs(raw - 2.5584278811044947) < 1e-12
    assert norm_upper_bound(0.9, Weight.standard(2.0)) == 1.0
    np.testing.assert_allclose(norm_upper_bound(0.5, Weight.unit()), 2.0 * math.log(2.0))
    assert norm_upper_bound(0.0, Weight.unit()) == 1.0


@pytest.mark.parametrize("gamma", [0.25, 0.5])
def test_the_witness_ratio_at_t_zero_is_one_under_every_gamma(gamma):
    # norm_upper_bound(0, v) = 1 for every weight: C_0 f(z) is the mean of f(sz), s in [0, 1], and fixes constants
    v = Weight.standard(gamma)
    assert norm_upper_bound(0.0, v) == 1.0 < norm_upper_bound(0.3, v)
    rng = np.random.default_rng(83)
    pool = [constant_one(64)] + [random_series(d, rng) for d in (5, 40, 300)]
    assert operator_norm_witness(0.0, v, pool).value == 1.0
    assert operator_norm_witness(0.0, v, pool[1:]).value < 1.0


def test_log_norm_bound_is_the_unit_weight_norm():
    assert log_norm_bound(0.0) == 1.0
    for t in (1e-9, 0.3, 0.9, 0.999):
        assert log_norm_bound(t) == -math.log1p(-t) / t
        assert norm_upper_bound(t, Weight.unit()) == log_norm_bound(t)
    assert log_norm_bound(1.0) == math.inf


# --- t = 1: bounded on the (1 - r)**gamma spaces only ---------------------------------


@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0])
def test_upper_bound_at_t_one_is_max_of_one_and_one_over_gamma(gamma):
    assert norm_upper_bound(1.0, Weight.standard(gamma)) == max(1.0, 1.0 / gamma)


T_ONE_REFUSED = {
    "unit": Weight.unit(),
    "logpow:1": Weight.log_power(1),
    "table": Weight.from_table([0.0, 0.5, 0.9], [1.0, 0.8, 0.5]),
}


@pytest.mark.parametrize("spec", list(T_ONE_REFUSED))
def test_t_one_is_refused_with_one_message_outside_the_gamma_weights(spec):
    v = T_ONE_REFUSED[spec]
    message = (
        f"t = 1 needs a gamma:<g> weight, got {v.label}: C_1 1 = -log(1-z)/z is not in H^inf, "
        "C_1 is unbounded on the logpow spaces and bounded here only on the (1-r)**gamma spaces"
    )
    for call in (lambda: norm_upper_bound(1.0, v), lambda: operator_norm_witness([0.5, 1.0], v, [constant_one(8)])):
        with pytest.raises(ValueError) as refusal:
            call()
        assert str(refusal.value) == message


def test_t_one_witness_ratios_rise_toward_the_gamma_bound():
    # the truncated (1 - z)**(-1/2) has positive coefficients and weighted norm <= 1 under gamma:0.5
    v = Weight.standard(0.5)
    ratios = []
    for truncation in (256, 1024):
        k = np.arange(1, truncation + 1)
        witness = TaylorSeries(np.concatenate(([1.0], np.cumprod((k - 0.5) / k))))
        ratios.append(operator_norm_witness(1.0, v, [witness], angles=4 * truncation).value)
    assert 1.0 < ratios[0] < ratios[1] <= norm_upper_bound(1.0, v) == 2.0


# --- operator norm witnesses --------------------------------------------------------


def test_witness_estimate_hits_unit_weight_norm():
    est = operator_norm_witness(0.5, Weight.unit(), [constant_one(400)], angles=256)
    assert abs(est.value - 2.0 * math.log(2.0)) < 1e-4


def test_fixed_point_witness_gives_ratio_one():
    for v in (Weight.unit(), Weight.standard(1.5), Weight.log_power(1)):
        g0 = geometric_series(0.4, 300)
        est = operator_norm_witness(0.4, v, [g0], radii=32, angles=128)
        assert abs(est.value - 1.0) < 1e-10


def test_witness_estimates_respect_log_bound_ceiling():
    rng = np.random.default_rng(31)
    for t in (0.2, 0.6, 0.9):
        pool = [TaylorSeries(rng.random(65) + 1j * rng.random(65)) for _ in range(5)]
        est = operator_norm_witness(t, Weight.unit(), pool, radii=32, angles=512)
        assert est.value <= -math.log1p(-t) / t + 1e-6


def test_log_weight_estimates_grow_toward_t_one():
    # witnesses: truncations of log(1-z); the weighted norms of the images
    # blow up as t -> 1 because the t=1 image leaves the space
    v = Weight.log_power(1)
    witness = log_power_series(1, 2048)
    values = [
        operator_norm_witness(t, v, [witness], radii=48, angles=64).value
        for t in (0.9, 0.99)
    ]
    assert values[1] > values[0]


def test_witness_preconditions():
    with pytest.raises(ValueError):
        operator_norm_witness(0.5, Weight.unit(), [])
    with pytest.raises(ValueError):
        operator_norm_witness(1.0, Weight.unit(), [constant_one(8)])
    with pytest.raises(ValueError):
        operator_norm_witness(0.5, Weight.unit(), [TaylorSeries([0.0])])
