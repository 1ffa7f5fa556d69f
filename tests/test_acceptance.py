"""The acceptance gate: every headline criterion at its contract tolerance.

Each test runs one registry check at the library defaults (which are the
stated scales and tolerances), prints its pass/fail line, and asserts the
verdict.  Run with ``pytest tests/test_acceptance.py -s`` to see every line.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cesaro import acceptance
from cesaro.acceptance import (
    check_c1_log_images,
    check_eigenpairs,
    check_finite_sections,
    check_fixed_point,
    check_integral_series_agreement,
    check_inverse_round_trips,
    check_log_weight_divergence,
    check_mean_ergodicity,
    check_norm_equivalences,
    check_norm_sandwich,
    check_operator_norm_formula,
    check_power_boundedness,
    check_product_bounds,
    check_resolvent,
    check_standard_weight_norms,
)


def _verdict(result):
    print(result.line())
    assert result.passed is True, result.detail


def test_criterion_01_operator_norm_formula():
    _verdict(check_operator_norm_formula())


def test_criterion_02_strict_sandwich():
    _verdict(check_norm_sandwich())


def test_criterion_03_fixed_point():
    _verdict(check_fixed_point())


def test_criterion_04_inverse_round_trips():
    _verdict(check_inverse_round_trips())


def test_criterion_05_finite_sections():
    _verdict(check_finite_sections())


def test_criterion_06_eigenpairs():
    _verdict(check_eigenpairs())


def test_criterion_07_resolvent():
    _verdict(check_resolvent())


def test_criterion_08_product_bounds():
    _verdict(check_product_bounds())


def test_criterion_09_power_boundedness():
    _verdict(check_power_boundedness())


def test_criterion_10_mean_ergodicity():
    _verdict(check_mean_ergodicity())


def test_criterion_11_norm_equivalences():
    _verdict(check_norm_equivalences())


def test_criterion_12_standard_weight_norms():
    _verdict(check_standard_weight_norms())


def test_criterion_13_log_weight_divergence():
    _verdict(check_log_weight_divergence())


def test_criterion_14_c1_log_images():
    _verdict(check_c1_log_images())


def test_criterion_15_integral_series_agreement():
    _verdict(check_integral_series_agreement())



NAN = math.nan


#: Per check that folds its measurements: the call it measures, and a stand-in that makes that measurement NaN.
NAN_MEASUREMENTS = [
    (check_operator_norm_formula, "operator_norm_witness", lambda real: lambda *a, **kw: SimpleNamespace(value=NAN)),
    (check_fixed_point, "max_coeff_diff", lambda real: lambda f, g: NAN),
    (check_inverse_round_trips, "max_coeff_diff", lambda real: lambda f, g: NAN),
    (check_finite_sections, "np.linalg.eigvals", lambda real: lambda a: np.full(len(a), complex(NAN, NAN))),
    (check_eigenpairs, "max_coeff_diff", lambda real: lambda f, g: NAN),
    (check_resolvent, "max_coeff_diff", lambda real: lambda f, g: NAN),
    (
        check_product_bounds,
        "product_bound_scan",
        lambda real: lambda nu, n: dataclasses.replace(real(nu, n), tail_slope=NAN),
    ),
    (
        check_power_boundedness,
        "power_bound_certificate",
        lambda real: lambda *a, **kw: SimpleNamespace(sup_norm_excess=np.full(3, NAN)),
    ),
    (check_norm_equivalences, "frechet_norm", lambda real: lambda f, k, flavor: np.full(len(k), NAN)),
    (
        check_c1_log_images,
        "apply",
        lambda real: lambda op, f: SimpleNamespace(coeffs=np.full(len(f.coeffs), complex(NAN, NAN))),
    ),
    (check_integral_series_agreement, "apply_integral", lambda real: lambda *a, **kw: complex(NAN, NAN)),
]


@pytest.mark.parametrize("check, name, stand_in", NAN_MEASUREMENTS, ids=[c.__name__ for c, _, _ in NAN_MEASUREMENTS])
def test_a_nan_measurement_fails_its_check(check, name, stand_in, monkeypatch):
    owner, attr = (np.linalg, "eigvals") if name == "np.linalg.eigvals" else (acceptance, name)
    monkeypatch.setattr(owner, attr, stand_in(getattr(owner, attr)))
    result = check()
    assert result.passed is False, result.detail
    assert "nan" in result.detail, result.detail  # the fold keeps the NaN, and the detail prints it
