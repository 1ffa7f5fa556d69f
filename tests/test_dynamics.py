import numpy as np
import pytest

from cesaro import (
    CesaroOperator,
    ErgodicTrace,
    TaylorSeries,
    Weight,
    apply,
    cesaro_mean,
    eigenpair,
    ergodic_limit_projection,
    ergodic_trace,
    frechet_norm,
    geometric_series,
    max_coeff_diff,
    power_apply,
    power_bound_certificate,
    random_series,
    range_preimage,
)
from cesaro import dynamics
from cesaro.acceptance import check_mean_ergodicity
from oracles import bits, plain_iterates, scalar_weighted_sup_norm, step_loop_trace, trial_loop_certificate


# --- iterates -----------------------------------------------------------------


def test_single_power_is_plain_application():
    f = TaylorSeries([1.0, 2.0, -1.0])
    assert power_apply(0.4, f, 1) == apply(CesaroOperator(0.4), f)


def test_fixed_point_survives_iteration():
    g0 = geometric_series(0.7, 300)
    assert max_coeff_diff(power_apply(0.7, g0, 25), g0) < 1e-13


def test_eigenfunction_iterates_decay_geometrically():
    g1 = eigenpair(0.5, 1, 128).series
    got = power_apply(0.5, g1, 10)
    want = TaylorSeries(g1.coeffs / 2.0**10)
    assert max_coeff_diff(got, want) < 1e-12


def test_power_apply_requires_positive_count():
    with pytest.raises(ValueError):
        power_apply(0.5, TaylorSeries([1.0]), 0)


@pytest.mark.parametrize("t", [1.5, -0.1, float("nan")])
@pytest.mark.parametrize(
    "call",
    [
        lambda t: power_apply(t, TaylorSeries([1.0, 2.0]), 3),
        lambda t: cesaro_mean(t, TaylorSeries([1.0, 2.0]), 3),
        lambda t: power_bound_certificate(t, k=2, trials=2, n_max=5, gammas=()),
    ],
    ids=["power_apply", "cesaro_mean", "power_bound_certificate"],
)
def test_iterates_refuse_t_outside_the_unit_interval(call, t):
    with pytest.raises(ValueError, match=r"operator parameter must lie in \[0, 1\]"):
        call(t)


# --- the stop at the floating-point fixed point -----------------------------------


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that counts the iterate engine's ``cesaro_coefficients`` calls."""
    calls = []
    kernel = dynamics.cesaro_coefficients

    def counted(t, coeffs):
        calls.append(t)
        return kernel(t, coeffs)

    monkeypatch.setattr(dynamics, "cesaro_coefficients", counted)
    return calls


@pytest.mark.parametrize("t, n", [(0.0, 1200), (0.3, 150), (0.6, 150), (0.99, 150)])
def test_iterates_past_the_fixed_point_equal_the_plain_loop(t, n, kernel_calls):
    # at t = 0 the iterates x[n]/(n+1)**m settle near step 1075, through subnormals
    rng = np.random.default_rng(23)
    stack = rng.random((3, 65)) + 1j * rng.random((3, 65))
    got = list(dynamics._iterates(t, stack, n))
    assert len(kernel_calls) < n  # the shortcut was taken
    assert [x.tobytes() for x in got] == [x.tobytes() for x in plain_iterates(t, stack, n)]
    assert got[-1] is got[-2] and not got[-1].flags.writeable


def test_a_nan_row_equals_the_plain_loop():
    # the stop compares bits, so a NaN row is settled only once its bits repeat
    rng = np.random.default_rng(29)
    stack = rng.random((3, 65)) + 1j * rng.random((3, 65))
    stack[1, 10] = np.nan
    got = list(dynamics._iterates(0.5, stack, 150))
    assert [x.tobytes() for x in got] == [x.tobytes() for x in plain_iterates(0.5, stack, 150)]


def test_mean_ergodicity_check_stops_at_the_fixed_point(kernel_calls):
    result = check_mean_ergodicity()  # horizon 2048; the iterates settle near step 66
    assert result.passed
    assert len(kernel_calls) <= 80


def test_certificate_past_the_fixed_point_equals_the_trial_loop():
    args = dict(k=3, trials=2, n_max=150, degree=40, gammas=(1.0,), seed=7, radii=16, angles=64)
    for t in (0.5, 0.9):
        report = power_bound_certificate(t, **args)
        sup_excess, weighted_excess = trial_loop_certificate(t, weight=Weight.standard, **args)
        assert report.sup_norm_excess == sup_excess
        assert report.weighted_excess == weighted_excess


def test_trace_past_the_fixed_point_equals_the_step_loop():
    rng = np.random.default_rng(31)
    pool = [random_series(24, rng).padded(96) for _ in range(3)]
    checkpoints = [1, 8, 64, 100, 512, 2048]
    n = np.arange(97)
    norm = lambda c: float(np.max(np.abs(c) * 0.5**n))
    got = ergodic_trace(0.5, pool, checkpoints, "ksup:2").distances
    assert bits(got) == bits([step_loop_trace(0.5, f.coeffs, checkpoints, norm) for f in pool])


# --- ergodic means ---------------------------------------------------------------


def test_mean_at_one_step_is_plain_application():
    f = TaylorSeries([0.5, -2.0, 1.0])
    assert max_coeff_diff(cesaro_mean(0.3, f, 1), apply(CesaroOperator(0.3), f)) == 0.0


def test_mean_of_fixed_point_is_fixed():
    g0 = geometric_series(0.5, 200)
    for n in (1, 7, 64):
        assert max_coeff_diff(cesaro_mean(0.5, g0, n), g0) < 1e-13


def test_mean_of_basis_vector_under_hardy_operator():
    # e_1 iterates to e_1/2^m, so the mean's coefficient 1 is (1 - 2^-n)/n
    f = TaylorSeries([0.0, 1.0])
    for n in (1, 4, 50):
        got = cesaro_mean(0.0, f, n)
        want = (1.0 - 0.5**n) / n
        np.testing.assert_allclose(got.coeffs[1], want, rtol=1e-13)
        assert got.coeffs[0] == 0.0


# --- the limit projection -----------------------------------------------------------


def test_projection_fixes_the_kernel_line():
    g0 = geometric_series(0.6, 100)
    assert max_coeff_diff(ergodic_limit_projection(0.6, g0), g0) < 1e-15


def test_projection_kills_the_range():
    f = TaylorSeries([0.0, 3.0, -2.0, 1.0])
    assert ergodic_limit_projection(0.5, f) == TaylorSeries(np.zeros(4))


def test_projection_of_generic_vector():
    got = ergodic_limit_projection(0.5, TaylorSeries([2.0, 5.0, -1.0]))
    assert got == TaylorSeries([2.0, 1.0, 0.5])


def test_decomposition_is_exact():
    rng = np.random.default_rng(3)
    for t in (0.0, 0.5, 0.9):
        f = random_series(64, rng)
        proj = ergodic_limit_projection(t, f)
        rem = f - proj
        assert rem.coeffs[0] == 0.0
        assert max_coeff_diff(proj + rem, f) <= 1e-15  # 1 ulp of reassembly
        # transversality: projecting the remainder gives exactly zero
        assert ergodic_limit_projection(t, rem) == TaylorSeries(np.zeros(65))


def test_the_means_at_t_one_tend_to_the_projection_at_the_rate_one_over_n():
    # at t = 1 the fixed point g0 is (1, 1, ...): the limit is f[0] g0, reached coefficientwise like 1/n
    f = random_series(64, np.random.default_rng(11))
    limit = ergodic_limit_projection(1.0, f)
    assert limit == TaylorSeries(f.coeffs[0] * np.ones(65))
    gaps = {n: max_coeff_diff(cesaro_mean(1.0, f, n), limit) for n in (256, 1024, 4096)}
    constant = 256 * gaps[256]
    assert 0 < constant < 10
    for n, gap in gaps.items():
        assert gap <= 1.001 * constant / n


# --- range preimage ---------------------------------------------------------------------


def test_preimage_of_zero_is_zero():
    assert range_preimage(0.5, TaylorSeries(np.zeros(11))) == TaylorSeries(np.zeros(11))


def test_preimage_of_a_degree_zero_series():
    assert range_preimage(0.5, TaylorSeries([0.0])) == TaylorSeries([0.0])


def test_preimage_diagonal_case():
    got = range_preimage(0.0, TaylorSeries([0.0, 1.0]))
    assert got == TaylorSeries([0.0, -2.0])


def test_preimage_round_trip_up_to_kernel():
    rng = np.random.default_rng(7)
    for t in (0.0, 0.3, 0.7):
        p = random_series(128, rng)
        g = apply(CesaroOperator(t), p) - p  # in the range, g(0) = 0 exactly
        f = range_preimage(t, g)
        # residual of (C - I) f = g
        back = apply(CesaroOperator(t), f) - f
        assert max_coeff_diff(back, g) <= 1e-10
        # f differs from p only along the fixed-point line
        drift = f - p
        kernel_part = TaylorSeries(drift.coeffs[0] * geometric_series(t, 128).coeffs)
        assert max_coeff_diff(drift, kernel_part) <= 1e-10


def test_preimage_rejects_nonvanishing_constant_term():
    with pytest.raises(ValueError, match="range"):
        range_preimage(0.5, TaylorSeries([1.0, 2.0]))


# --- traces -----------------------------------------------------------------------------


def test_trace_distances_decay_like_one_over_n():
    rng = np.random.default_rng(11)
    t = 0.5
    for _ in range(5):
        f = random_series(64, rng).padded(256)
        trace = ergodic_trace(t, f, [1, 2, 4, 8, 16, 32, 64, 128, 256, 512], "ksup:2")
        d = np.array(trace.distances)
        assert d[-1] <= 1e-2 * d[0] + 1e-15
        # eventually nonincreasing (allow the first steps to sort themselves out)
        tail = d[2:]
        assert np.all(np.diff(tail) <= 1e-12)
        # the gap shrinks at the 1/n ergodic rate: n * d_n stays bounded
        scaled = np.array(trace.n_values) * d
        assert scaled.max() <= 10.0 * scaled[0] + 1e-12


def test_normalized_iterates_vanish():
    # T^n/n -> 0 in the sup-flavor coefficient norms
    rng = np.random.default_rng(13)
    f = random_series(64, rng)
    norms = [frechet_norm(power_apply(0.5, f, n), 2, "sup") / n for n in (1, 8, 64, 256)]
    assert norms[-1] < 1e-2 * norms[0]


def test_trace_supports_weighted_and_sum_norms():
    f = TaylorSeries([1.0, 0.5]).padded(64)
    for tag in ("k:3", "ksup:2", "gamma:1.0", "unit"):
        trace = ergodic_trace(0.4, f, [1, 4, 16], tag)
        assert trace.norm_tag == tag
        assert all(d >= 0 for d in trace.distances)
        assert trace.distances[-1] <= trace.distances[0] + 1e-12


def test_trace_batch_equals_the_step_loop():
    rng = np.random.default_rng(19)
    pool = [random_series(24, rng).padded(96) for _ in range(4)]
    checkpoints = [1, 2, 5, 30, 64]
    n = np.arange(97)
    norms = {
        "ksup:2": (lambda c: float(np.max(np.abs(c) * 0.5**n)), 0.0),
        "k:3": (lambda c: float(np.sum(np.abs(c) * (1.0 - 1.0 / 3.0) ** n)), 0.0),
        "unit": (lambda c: scalar_weighted_sup_norm(c, Weight.unit(), 64, 1024), 0.0),
        # the polish evaluates (1 - r)**2.5 on arrays, the oracle on scalars
        "gamma:2.5": (lambda c: scalar_weighted_sup_norm(c, Weight.standard(2.5), 64, 1024), 1e-14),
    }
    for tag, (norm, rtol) in norms.items():
        trace = ergodic_trace(0.6, pool, checkpoints, tag)
        assert trace.n_values == tuple(checkpoints) and trace.norm_tag == tag
        assert trace.distances.shape == (len(pool), len(checkpoints))
        want = [step_loop_trace(0.6, f.coeffs, checkpoints, norm) for f in pool]
        np.testing.assert_allclose(trace.distances, want, rtol=rtol, atol=0.0)
    # One series drops the series axis.
    single = ergodic_trace(0.6, pool[1], checkpoints)
    assert isinstance(single, ErgodicTrace)
    assert single.n_values == tuple(checkpoints) and single.norm_tag == "ksup:2"
    assert bits(single.distances) == bits(ergodic_trace(0.6, pool, checkpoints).distances[1])


def test_trace_batch_needs_series_of_one_truncation():
    with pytest.raises(ValueError, match="truncation"):
        ergodic_trace(0.5, [TaylorSeries([1.0, 2.0]), TaylorSeries([1.0])], [1, 2])
    with pytest.raises(ValueError, match="truncation"):
        ergodic_trace(0.5, [], [1, 2])


def test_trace_rejects_bad_checkpoints():
    with pytest.raises(ValueError):
        ergodic_trace(0.5, TaylorSeries([1.0]), [0, 2])
    with pytest.raises(ValueError):
        ergodic_trace(0.5, TaylorSeries([1.0]), [2], "nope:1")


# --- power boundedness certificates ------------------------------------------------------------


def test_certificate_reports_roundoff_level_excess():
    report = power_bound_certificate(0.5, k=2, trials=10, n_max=50, seed=1)
    assert report.sup_norm_excess <= 1e-12
    assert report.weighted_excess[1.0] <= 1e-3


def test_certificate_holds_at_t_one():
    report = power_bound_certificate(1.0, k=[2, 5], gammas=(1.0, 2.0))
    assert np.all(report.sup_norm_excess <= 1e-15)
    assert all(excess <= 1e-15 for excess in report.weighted_excess.values())


def test_certificate_equals_the_trial_loop():
    args = dict(k=3, trials=6, n_max=12, degree=40, gammas=(1.0, 2.0), seed=5, radii=16, angles=64)
    for t in (0.0, 0.5, 0.9):
        report = power_bound_certificate(t, **args)
        sup_excess, weighted_excess = trial_loop_certificate(t, weight=Weight.standard, **args)
        assert report.sup_norm_excess == sup_excess
        assert report.weighted_excess == weighted_excess


def test_certificate_per_k_equals_its_single_k_calls(monkeypatch):
    args = dict(trials=6, n_max=12, degree=40, gammas=(1.0, 2.0), seed=5, radii=16, angles=64)
    ks = (2, 3, 10)
    for t in (0.0, 0.5, 0.9):
        report = power_bound_certificate(t, k=ks, **args)
        singles = [power_bound_certificate(t, k=k, **args) for k in ks]
        assert all(isinstance(single.sup_norm_excess, float) for single in singles)
        # one excess per k, in the order of ks
        assert bits(report.sup_norm_excess) == bits([single.sup_norm_excess for single in singles])
        assert all(single.weighted_excess == report.weighted_excess for single in singles)
    one = power_bound_certificate(0.5, k=[5], gammas=(), trials=3, n_max=4)
    alone = power_bound_certificate(0.5, k=5, gammas=(), trials=3, n_max=4)
    assert bits(one.sup_norm_excess) == bits([alone.sup_norm_excess])
    assert one.weighted_excess == alone.weighted_excess == {}
    # The excesses above are all 0, so the order of the k axis is checked with
    # a norm that reads k times the number of earlier calls.
    calls = []

    def growing(f, k, flavor):
        calls.append(flavor)
        return np.multiply.outer(k, np.full(len(f), len(calls) - 1.0))

    monkeypatch.setattr(dynamics, "frechet_norm", growing)
    got = power_bound_certificate(0.5, k=ks, **args)  # the trials, then 12 iterates
    assert got.sup_norm_excess.tolist() == [12.0 * k for k in ks]


def test_certificate_measures_all_gammas_in_one_sweep_per_stack(monkeypatch):
    args = dict(k=(2, 3), trials=6, n_max=12, degree=40, gammas=(1.0, 2.0), seed=5, radii=16, angles=64)
    want = power_bound_certificate(0.5, **args)
    calls = []
    sweep = dynamics.weighted_sup_norm

    def counted(f, v, *rest, **keywords):
        calls.append((f.shape, [w.label for w in v]))
        return sweep(f, v, *rest, **keywords)

    monkeypatch.setattr(dynamics, "weighted_sup_norm", counted)
    got = power_bound_certificate(0.5, **args)
    assert bits(got.sup_norm_excess) == bits(want.sup_norm_excess) and got.weighted_excess == want.weighted_excess
    # the trials, then each of the 12 iterates (at t = 0.5 they settle near step 60)
    assert calls == [((6, 41), ["gamma:1", "gamma:2"])] * 13


def test_trace_makes_one_frechet_norm_call_per_checkpoint(monkeypatch):
    rng = np.random.default_rng(19)
    pool = [random_series(24, rng).padded(96) for _ in range(4)]
    checkpoints = [1, 2, 5, 30, 64]
    want = ergodic_trace(0.6, pool, checkpoints, "ksup:2")
    calls = []
    norm = dynamics.frechet_norm

    def counted(f, k, flavor):
        calls.append((np.shape(f), k, flavor))
        return norm(f, k, flavor)

    monkeypatch.setattr(dynamics, "frechet_norm", counted)
    assert bits(ergodic_trace(0.6, pool, checkpoints, "ksup:2").distances) == bits(want.distances)
    assert calls == [((4, 97), 2, "sup")] * len(checkpoints)


def test_certificate_with_several_gammas():
    report = power_bound_certificate(0.9, k=3, trials=5, n_max=25, gammas=(1.0, 2.0), seed=2)
    for gamma, excess in report.weighted_excess.items():
        assert excess <= 1e-3, f"gamma={gamma}"


def test_fixed_point_norms_are_constant_along_iterates():
    t = 0.5
    g0 = geometric_series(t, 200)
    base = frechet_norm(g0, 2, "sup")
    for n in (1, 5, 20):
        iterate = power_apply(t, g0, n)
        np.testing.assert_allclose(frechet_norm(iterate, 2, "sup"), base, rtol=1e-13)


def test_constant_witness_weighted_norms_never_grow():
    # gamma = 1: every iterate's weighted estimate stays within grid slack of
    # the previous one (the true operator norm is exactly 1)
    from cesaro import Weight, constant_one, weighted_sup_norm

    t = 0.5
    v = Weight.standard(1.0)
    f = constant_one(256)
    values = []
    current = f
    for _ in range(50):
        current = apply(CesaroOperator(t), current)
        values.append(weighted_sup_norm(current, v, radii=32, angles=64).value)
    diffs = np.diff(np.array(values))
    assert np.all(diffs <= 1e-3)


def test_certificate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        power_bound_certificate(0.5, k=1)
    with pytest.raises(ValueError):
        power_bound_certificate(0.5, k=(2, 1))
    with pytest.raises(ValueError):
        power_bound_certificate(0.5, k=())
    with pytest.raises(ValueError):
        power_bound_certificate(0.5, gammas=(0.5,))
