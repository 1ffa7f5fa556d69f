"""The formula-reproduction suite: one check per headline property.

Each check reproduces one exact statement about the averaging operators at
desk scale (truncations up to 4096, seconds of runtime) and returns a
:class:`CheckResult` with a pass/fail verdict and the measured numbers.  The
stated tolerances are part of the contract and are baked into the function
defaults; the pytest acceptance module runs every check at those defaults,
and the CLI ``report`` subcommand renders the same list as a table.

Where a check needs an independent second route (the resolvent's forward
substitution, the eigenvector binomials), that route is computed here from
first principles rather than through the code path under test.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import comb

from .dynamics import ergodic_trace, power_bound_certificate
from .operators import (
    CesaroOperator,
    InverseOperator,
    apply,
    apply_integral,
    apply_inverse,
    operator_matrix,
)
from .series import (
    TaylorSeries,
    constant_one,
    evaluate,
    geometric_series,
    log_power_series,
    max_coeff_diff,
    random_series,
)
from .spectral import (
    ResolventQuery,
    eigenpair,
    eigenvalues,
    product_bound_scan,
    resolvent_apply,
    spectrum_distance,
)
from .weights import (
    Weight,
    frechet_norm,
    log_norm_bound,
    norm_upper_bound,
    operator_norm_witness,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name}: {self.detail}"


# -- 1 & 2: the sup-norm formula and its strict sandwich -----------------------


def check_operator_norm_formula(
    truncation: int = 2048,
    angles: int = 4096,
    radii: int = 64,
    t_values: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
    rel_tol: float = 1e-3,
    budget_seconds: float = 10.0,
) -> CheckResult:
    """Witness estimate of the unit-weight operator norm vs -log(1-t)/t."""
    worst_rel = 0.0
    worst_time = 0.0
    witness = constant_one(truncation)
    unit = Weight.unit()
    for t in t_values:
        start = time.perf_counter()
        est = operator_norm_witness(t, unit, [witness], radii=radii, angles=angles)
        elapsed = time.perf_counter() - start
        target = log_norm_bound(t)
        worst_rel = max(worst_rel, abs(est.value - target) / target)
        worst_time = max(worst_time, elapsed)
    passed = worst_rel <= rel_tol and worst_time < budget_seconds
    return CheckResult(
        "operator-norm-formula",
        passed,
        f"max rel err {worst_rel:.2e} (tol {rel_tol:.0e}), max {worst_time:.2f}s per t",
    )


def check_norm_sandwich(
    truncation: int = 2048,
    angles: int = 1024,
    radii: int = 64,
    t_values: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
    slack: float = 1e-6,
) -> CheckResult:
    """Strict bounds 1 < estimate < 1/(1-t), witnessed with explicit slack."""
    witness = constant_one(truncation)
    estimates = operator_norm_witness(t_values, Weight.unit(), [witness], radii=radii, angles=angles).value
    worst = float(np.min(np.minimum(estimates - 1.0, 1.0 / (1.0 - np.array(t_values)) - estimates)))
    return CheckResult(
        "strict-sandwich-bounds",
        worst >= slack,
        f"smallest margin to either bound {worst:.3e} (needs >= {slack:.0e})",
    )


# -- 3: the geometric fixed point ------------------------------------------------


def check_fixed_point(
    truncation: int = 1024,
    t_values: tuple[float, ...] = (0.0, 0.5, 0.99),
    tol: float = 1e-14,
) -> CheckResult:
    worst = 0.0
    for t in t_values:
        g0 = geometric_series(t, truncation)
        worst = max(worst, max_coeff_diff(apply(CesaroOperator(t), g0), g0))
    return CheckResult(
        "geometric-fixed-point",
        worst <= tol,
        f"max coefficient residual {worst:.2e} (tol {tol:.0e})",
    )


# -- 4: the exact inverse ----------------------------------------------------------


def check_inverse_round_trips(
    truncation: int = 512,
    t_values: tuple[float, ...] = (0.0, 0.3, 0.7),
    trials: int = 100,
    tol: float = 1e-13,
    seed: int = 101,
) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in t_values:
        op, inv = CesaroOperator(t), InverseOperator(t)
        for _ in range(trials):
            f = random_series(truncation, rng)
            worst = max(worst, max_coeff_diff(apply(op, apply_inverse(inv, f)), f))
            worst = max(worst, max_coeff_diff(apply_inverse(inv, apply(op, f)), f))
    return CheckResult(
        "inverse-round-trips",
        worst <= tol,
        f"max round-trip deviation {worst:.2e} over {trials} series x {len(t_values)} t (tol {tol:.0e})",
    )


# -- 5: finite-section spectra ---------------------------------------------------------


def check_finite_sections(
    truncation: int = 512,
    t_values: tuple[float, ...] = (0.0, 0.5, 0.9, 1.0),
    dense_size: int = 64,
    dense_tol: float = 1e-8,
) -> CheckResult:
    ladder = eigenvalues(truncation)
    for t in t_values:  # the section is lower triangular: its spectrum is its diagonal
        if not np.array_equal(np.diagonal(operator_matrix(t, truncation)), ladder):
            return CheckResult("finite-section-spectra", False, f"ladder mismatch at t={t}")
    worst = 0.0
    for t in t_values:
        dense = np.sort_complex(np.linalg.eigvals(operator_matrix(t, dense_size)))[::-1]
        worst = max(worst, float(np.max(np.abs(dense - eigenvalues(dense_size)))))
    return CheckResult(
        "finite-section-spectra",
        worst <= dense_tol,
        f"ladder exact; dense cross-check deviation {worst:.2e} at size {dense_size} (tol {dense_tol:.0e})",
    )


# -- 6: eigenpairs -----------------------------------------------------------------------


def check_eigenpairs(
    truncation: int = 512,
    t_values: tuple[float, ...] = (0.3, 0.9),
    m_values: tuple[int, ...] = (0, 1, 2, 5, 11, 21, 32),
    residual_tol: float = 1e-13,
    closed_form_tol: float = 1e-12,
) -> CheckResult:
    worst_residual = 0.0
    worst_closed = 0.0
    for t in t_values:
        op = CesaroOperator(t)
        for m in m_values:
            pair = eigenpair(t, m, truncation)
            scale = float(np.max(np.abs(pair.series.coeffs)))
            residual = max_coeff_diff(apply(op, pair.series), pair.eigenvalue * pair.series)
            worst_residual = max(worst_residual, residual / scale)
            closed = np.zeros(truncation + 1, dtype=complex)
            for n in range(m, truncation + 1):
                closed[n] = float(comb(n, m, exact=True)) * t ** (n - m)
            nonzero = np.abs(closed) > 0
            rel = np.abs(pair.series.coeffs[nonzero] - closed[nonzero]) / np.abs(closed[nonzero])
            worst_closed = max(worst_closed, float(np.max(rel)))
    passed = worst_residual <= residual_tol and worst_closed <= closed_form_tol
    return CheckResult(
        "eigenpairs",
        passed,
        f"residual {worst_residual:.2e} (tol {residual_tol:.0e}, relative to eigenvector scale), "
        f"closed-form gap {worst_closed:.2e} (tol {closed_form_tol:.0e})",
    )


# -- 7: the resolvent ----------------------------------------------------------------------


def check_resolvent(
    truncation: int = 512,
    trials: int = 50,
    min_distance: float = 0.1,
    formula_tol: float = 1e-10,
    residual_tol: float = 1e-9,
    seed: int = 107,
) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_formula = 0.0
    worst_residual = 0.0
    for _ in range(trials):
        while True:
            nu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if spectrum_distance(nu) >= min_distance:
                break
        t = float(rng.random() * 0.99)
        rhs = random_series(truncation, rng)
        a = resolvent_apply(ResolventQuery(nu, rhs), t)
        section = operator_matrix(t, truncation + 1).astype(complex)
        section[np.diag_indices(truncation + 1)] -= nu
        reference = scipy.linalg.solve_triangular(section, rhs.coeffs, lower=True)
        worst_formula = max(
            worst_formula,
            float(np.max(np.abs(a.coeffs - reference)) / np.max(np.abs(reference))),
        )
        back = apply(CesaroOperator(t), a) - TaylorSeries(nu * a.coeffs)
        worst_residual = max(
            worst_residual,
            max_coeff_diff(back, rhs) / float(np.max(np.abs(rhs.coeffs))),
        )
    passed = worst_formula <= formula_tol and worst_residual <= residual_tol
    return CheckResult(
        "resolvent-forward-substitution",
        passed,
        f"vs forward substitution {worst_formula:.2e} (tol {formula_tol:.0e}), "
        f"round-trip residual {worst_residual:.2e} (tol {residual_tol:.0e})",
    )


# -- 8: infinite-product envelopes ------------------------------------------------------------


def check_product_bounds(
    n_max: int = 10_000,
    nu_values: tuple[complex, ...] = (2.0, -1.0, 1 + 1j, 0.4 + 0.8j),
    ratio_bound: float = 20.0,
    slope_bound: float = 0.02,
) -> CheckResult:
    worst_ratio = 0.0
    worst_slope = 0.0
    for nu in nu_values:
        report = product_bound_scan(nu, n_max)
        worst_ratio = max(worst_ratio, report.D_hat / report.d_hat)
        worst_slope = max(worst_slope, abs(report.tail_slope))
    telescoped = product_bound_scan(-1.0, n_max)
    tail = telescoped.scaled[telescoped.n_values >= 10]
    telescoping_ok = bool(np.all(tail > 1.0) and np.all(tail <= 1.1 + 1e-12))
    passed = worst_ratio < ratio_bound and worst_slope <= slope_bound and telescoping_ok
    return CheckResult(
        "product-growth-envelopes",
        passed,
        f"max D/d {worst_ratio:.3f} (< {ratio_bound}), max tail slope {worst_slope:.4f} "
        f"(<= {slope_bound}), telescoping case {'exact' if telescoping_ok else 'BROKEN'}",
    )


# -- 9: power boundedness ----------------------------------------------------------------------


def check_power_boundedness(
    t_values: tuple[float, ...] = (0.5, 0.9),
    k_values: tuple[int, ...] = (2, 5, 10),
    trials: int = 100,
    n_max: int = 200,
    tol: float = 1e-12,
    seed: int = 109,
) -> CheckResult:
    worst = 0.0
    for t in t_values:
        report = power_bound_certificate(t, k=k_values, trials=trials, n_max=n_max, seed=seed)
        worst = max(worst, float(np.max(report.sup_norm_excess)))
    return CheckResult(
        "power-boundedness",
        worst <= tol,
        f"max iterate norm excess {worst:.2e} over {trials} trials, n<={n_max} (tol {tol:.0e})",
    )


# -- 10: mean ergodicity ---------------------------------------------------------------------------


def check_mean_ergodicity(
    t: float = 0.5,
    trials: int = 20,
    horizon: int = 2048,
    degree: int = 64,
    truncation: int = 512,
    decay_factor: float = 1e-2,
    seed: int = 113,
) -> CheckResult:
    rng = np.random.default_rng(seed)
    checkpoints = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, horizon]
    pool = [random_series(degree, rng).padded(truncation) for _ in range(trials)]
    d = ergodic_trace(t, pool, checkpoints, "ksup:2").distances  # (trials x checkpoints)
    worst_decay = float(np.max(d[:, -1] / d[:, 0]))
    monotone = not np.any(np.diff(d[:, 2:], axis=1) > 1e-12)
    passed = worst_decay <= decay_factor and monotone
    return CheckResult(
        "mean-ergodicity",
        passed,
        f"max d({horizon})/d(1) = {worst_decay:.2e} (tol {decay_factor:.0e}), "
        f"traces eventually nonincreasing: {monotone}",
    )


# -- 11: norm family equivalences -------------------------------------------------------------------


def check_norm_equivalences(
    trials: int = 200,
    k_values: tuple[int, ...] = tuple(range(2, 11)),
    slack: float = 1e-12,
    seed: int = 127,
) -> CheckResult:
    rng = np.random.default_rng(seed)
    ks = np.array(k_values)
    worst = -np.inf
    for _ in range(trials):
        f = random_series(int(rng.integers(0, 129)), rng)
        sup_k = frechet_norm(f, ks, "sup")  # one entry per k
        sum_k = frechet_norm(f, ks, "sum")
        sup_next = frechet_norm(f, ks + 1, "sup")
        worst = max(worst, float(np.max(sup_k - sum_k)), float(np.max(sum_k - ks * ks * sup_next)))
    return CheckResult(
        "norm-family-equivalences",
        worst <= slack,
        f"max inequality violation {worst:.2e} over {trials} series (slack {slack:.0e})",
    )


# -- 12: standard-weight norms ------------------------------------------------------------------------


def check_standard_weight_norms(
    t_values: tuple[float, ...] = (0.1, 0.5, 0.9),
    pool_size: int = 50,
    degree: int = 128,
    radii: int = 64,
    angles: int = 512,
    tol: float = 5e-3,
    seed: int = 131,
) -> CheckResult:
    rng = np.random.default_rng(seed)
    pool = [random_series(int(rng.integers(8, degree + 1)), rng) for _ in range(pool_size)]
    weights = [Weight.standard(gamma) for gamma in (1.0, 2.0, 5.0, 0.5)]
    table = operator_norm_witness(t_values, weights, pool, radii=radii, angles=angles).value  # (weights x t)
    bounds = np.array([[norm_upper_bound(t, v) for t in t_values] for v in weights])
    worst_excess = float(np.max(table - bounds))
    return CheckResult(
        "standard-weight-norms",
        worst_excess <= tol,
        f"max estimate excess over the proven bound {worst_excess:.2e} (tol {tol:.0e})",
    )


# -- 13: log-weight divergence ---------------------------------------------------------------------------


def check_log_weight_divergence(
    truncation: int = 4096,
    t_values: tuple[float, ...] = (0.9, 0.99, 0.999),
    growth_factor: float = 2.0,
    radii: int = 64,
    angles: int = 256,
) -> CheckResult:
    v = Weight.log_power(1)
    witness = log_power_series(1, truncation)
    estimates = operator_norm_witness(t_values, v, [witness], radii=radii, angles=angles).value.tolist()
    increasing = all(a < b for a, b in zip(estimates, estimates[1:]))
    ratio = estimates[-1] / estimates[0]
    passed = increasing and ratio >= growth_factor
    shown = ", ".join(f"{t}:{e:.3f}" for t, e in zip(t_values, estimates))
    return CheckResult(
        "log-weight-divergence",
        passed,
        f"estimates {shown}; growth x{ratio:.2f} (needs >= x{growth_factor}, increasing: {increasing})",
    )


# -- 14: the classical t=1 log images -----------------------------------------------------------------------


def check_c1_log_images(
    truncation: int = 256,
    n_values: tuple[int, ...] = (1, 2, 3),
    tol: float = 1e-10,
) -> CheckResult:
    worst = 0.0
    for n in n_values:
        image = apply(CesaroOperator(1.0), log_power_series(n, truncation))
        want = -log_power_series(n + 1, truncation + 1).coeffs[1:] / (n + 1.0)
        worst = max(worst, float(np.max(np.abs(image.coeffs[: len(want)] - want[: len(image.coeffs)]))))
    return CheckResult(
        "classical-log-images",
        worst <= tol,
        f"max coefficient gap to -(log(1-z))^(n+1)/((n+1)z) is {worst:.2e} (tol {tol:.0e})",
    )


# -- 15: integral vs series agreement --------------------------------------------------------------------------


def check_integral_series_agreement(
    trials: int = 100,
    degree: int = 128,
    quad_nodes: int = 64,
    tol: float = 1e-8,
    seed: int = 137,
) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        t = float(rng.random())
        f = random_series(degree, rng)
        z = 0.9 * math.sqrt(rng.random()) * complex(np.exp(2j * np.pi * rng.random()))
        series_val = evaluate(apply(CesaroOperator(t), f.padded(1024)), z)
        quad_val = apply_integral(CesaroOperator(t), f, z, quad_nodes=quad_nodes)
        worst = max(worst, abs(series_val - quad_val))
    return CheckResult(
        "integral-series-agreement",
        worst <= tol,
        f"max |quadrature - series| = {worst:.2e} over {trials} samples (tol {tol:.0e})",
    )


#: Registry in criterion order; the report table and the acceptance tests
#: both walk this list.
ACCEPTANCE_CHECKS = (
    check_operator_norm_formula,
    check_norm_sandwich,
    check_fixed_point,
    check_inverse_round_trips,
    check_finite_sections,
    check_eigenpairs,
    check_resolvent,
    check_product_bounds,
    check_power_boundedness,
    check_mean_ergodicity,
    check_norm_equivalences,
    check_standard_weight_norms,
    check_log_weight_divergence,
    check_c1_log_images,
    check_integral_series_agreement,
)


def run_all_checks() -> list[CheckResult]:
    """Run the whole suite at the contract defaults, in criterion order."""
    return [check() for check in ACCEPTANCE_CHECKS]
