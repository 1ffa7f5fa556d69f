import math
import warnings

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
        # Per row: the masked full-width np.power, with interior zeros in the mask.
        rng = np.random.default_rng(97)
        for rows, width in ((radii[: len(EDGE_RADII)], 2**17), (radii, 1025), (radii[::7], 4097)):
            where = rng.random((len(rows), width)) < 0.9
            want = np.zeros(where.shape)
            np.power(rows[:, None], np.arange(width), out=want, where=where)
            assert bits(weights._powers(rows, width, where)) == bits(want)
    assert weights._powers(0.0, 3).tolist() == [1.0, 0.0, 0.0]


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
    for refine in (False, True):
        want = [scalar_weighted_sup_norm(f.coeffs, v, 64, 1024, refine) for f in pool]
        assert bits(weighted_sup_norm(pool, v, radii=64, angles=1024, refine=refine).value) == bits(want)


TABLE_WEIGHT = Weight.from_table([0.0, 0.5, 0.9, 0.99], [1.0, 0.6, 0.1, 0.01])


@pytest.mark.parametrize("spec", ["unit", "table", "gamma:2", "logpow:2"])
def test_batched_weighted_norm_equals_the_per_series_oracle(spec):
    v = TABLE_WEIGHT if spec == "table" else Weight.from_spec(spec)
    pool = _ragged_pool(np.random.default_rng(43), 9)
    for refine in (False, True):
        # A radius gets the same v(r) alone and inside an array, so the
        # one-radius-at-a-time oracle agrees bit for bit.
        want = [scalar_weighted_sup_norm(f.coeffs, v, 32, 256, refine) for f in pool]
        for batch in (pool, _padded_stack(pool)):
            got = weighted_sup_norm(batch, v, radii=32, angles=256, refine=refine).value
            assert got.shape == (len(pool),)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=0.0)
        single = weighted_sup_norm(pool[3], v, radii=32, angles=256, refine=refine)
        np.testing.assert_allclose(single.value, want[3], rtol=0.0, atol=0.0)


def test_witness_bound_equals_the_largest_per_witness_ratio():
    pool = _ragged_pool(np.random.default_rng(47), 5)
    v, t = Weight.unit(), 0.6
    est = operator_norm_witness(t, v, pool, radii=16, angles=256)
    norm = lambda f: scalar_weighted_sup_norm(f.coeffs, v, 16, 256)
    assert est.value == max(norm(apply(CesaroOperator(t), w)) / norm(w) for w in pool)


SWEEP_WEIGHTS = [Weight.unit(), TABLE_WEIGHT, Weight.standard(2.0), Weight.log_power(2)]
SWEEP_TS = (0.1, 0.6, 0.95)


@pytest.mark.parametrize("refine", [False, True])
def test_weight_sweep_equals_one_call_per_weight(refine):
    pool = _ragged_pool(np.random.default_rng(53), 4)
    for batch in (pool, _padded_stack(pool), pool[2]):
        swept = weighted_sup_norm(batch, SWEEP_WEIGHTS, radii=16, angles=256, refine=refine).value
        # (weights x series), or one value per weight for one series
        assert bits(swept) == bits([weighted_sup_norm(batch, v, 16, 256, refine).value for v in SWEEP_WEIGHTS])


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
    weighted_sup_norm(stack, SWEEP_WEIGHTS, radii=16, angles=64, refine=False)
    pairs = measured(grid)
    assert len(pairs) == len(set(pairs)) < len(stack) * 16 and not polish  # no pair twice, and some pruned
    # At most one call per grid radius, plus one per radius where a weight's bound v * A peaks.
    rs = radial_grid(16)
    bounds = np.abs(stack) @ (rs[None, :] ** np.arange(stack.shape[1])[:, None])
    seed_radii = {int(j) for v in SWEEP_WEIGHTS for j in np.argmax(bounds * v(rs), axis=1)}
    assert len(grid) <= 16 + len(seed_radii)
    # A witness sweep runs one pass per weight, each with its own seeds, grid and polish.
    full = []  # per weight, the pairs of its grid pass over every row
    for v in SWEEP_WEIGHTS:
        grid.clear()
        weighted_sup_norm(stack, v, radii=16, angles=64, refine=False)
        full.append(set(measured(grid)))
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
    weighted_sup_norm(pool, SWEEP_WEIGHTS, radii=16, angles=64, refine=False)
    assert calls == [(16,)] * len(SWEEP_WEIGHTS)


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
    sweep = [Weight.unit(), Weight.standard(2.0), Weight.log_power(1), TABLE_WEIGHT]
    for refine in (False, True):
        got = weighted_sup_norm(pool, sweep, radii=radii, angles=64, refine=refine).value
        want = [[scalar_weighted_sup_norm(f.coeffs, v, radii, 64, refine) for f in pool] for v in sweep]
        assert bits(got) == bits(want)


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


def test_sweep_preconditions():
    pool = [constant_one(8)]
    with pytest.raises(ValueError, match="weight list"):
        weighted_sup_norm(constant_one(8), [])
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
    values = weighted_sup_norm(series, vs, radii, angles).value
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
    grid = weighted_sup_norm(stack, v, radii, angles, refine=False).value
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
    rs, vs = radial_grid(16), [w(radial_grid(16)) for w in SWEEP_WEIGHTS]
    start = weights._seeded(stack, rs, vs, 64, weights._upper(stack, rs, 64))
    seeds = start.profile.copy()
    want = bits(weighted_sup_norm(stack, SWEEP_WEIGHTS, radii=16, angles=64).value)
    for _ in range(2):
        assert bits(weighted_sup_norm(start, SWEEP_WEIGHTS, radii=16, angles=64).value) == want
        assert bits(start.profile) == bits(seeds)


def test_a_norm_pool_query_polishes_fewer_than_every_row(monkeypatch):
    rng = np.random.default_rng(107)
    queries = [(float(t), Weight.from_spec(spec), _norm_pool_query(rng)) for t, spec in zip(
        rng.uniform(0.05, 0.95, 12), ["unit", "gamma:0.5", "gamma:1", "gamma:2", "logpow:1", "logpow:2"] * 2
    )]
    want = [_every_row_polished([t], [v], pool, 64, 1024)[0, 0] for t, v, pool in queries]
    _, polish = _counted_circle_max(monkeypatch)
    rows = []
    for t, v, pool in queries:
        polish.clear()
        assert operator_norm_witness(t, v, pool, radii=64, angles=1024).value == want[len(rows)]
        assert len(polish) == 42 and len({len(r) for r in polish}) == 1  # 2 + 40 steps, one radius per row
        rows.append(len(polish[0]))
    assert max(rows) <= 2 * 5 and sum(rows) < 2 * 5 * len(queries)


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
