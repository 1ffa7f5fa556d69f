import dataclasses
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import cesaro
from cesaro import CesaroOperator, ResolventQuery, TaylorSeries


def test_every_exported_name_resolves_once():
    assert len(cesaro.__all__) == len(set(cesaro.__all__))
    assert [name for name in cesaro.__all__ if not hasattr(cesaro, name)] == []
    namespace = {}
    exec("from cesaro import *", namespace)  # a stale name in __all__ raises here
    assert set(cesaro.__all__) <= namespace.keys()


def test_no_submodule_is_exported():
    assert [name for name in cesaro.__all__ if isinstance(getattr(cesaro, name), types.ModuleType)] == []
    assert "shifted_solve" not in cesaro.__all__  # the kernel stays private to its callers


def test_deleted_names_stay_gone():
    # finite_section_spectrum(t, size) returned eigenvalues(size) whatever t was
    assert not hasattr(cesaro, "finite_section_spectrum")
    assert "finite_section_spectrum" not in cesaro.__all__
    # log_one_minus_series(N) was log_power_series(1, N), bit for bit
    assert not hasattr(cesaro, "log_one_minus_series")
    assert "log_one_minus_series" not in cesaro.__all__


def test_importing_the_library_does_not_import_scipy_signal():
    env = dict(os.environ, PYTHONPATH=str(Path(cesaro.__file__).resolve().parent.parent))
    code = "import cesaro, sys; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


F = TaylorSeries([1.0, 0.5])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ResolventQuery(0.5 + 1e-13, F, tol=math.nan), "tolerance must be positive"),
        (lambda: cesaro.evaluate(F, complex(math.nan, 0.0)), r"\|z\| < 1"),
        (lambda: cesaro.evaluate_many(F, [0.5, math.nan]), r"\|z\| < 1"),
        (lambda: cesaro.apply_integral(CesaroOperator(0.5), F, math.nan), r"\|z\| < 1"),
        (lambda: cesaro.frechet_norm(F, math.nan), "k must be >= 2"),
        (lambda: cesaro.frechet_norm(F, [3, math.nan]), "k must be >= 2"),
        (lambda: cesaro.frechet_norm(F, []), "k must be >= 2"),
        (lambda: cesaro.spectrum_distance(math.nan), "^nu must be finite, got nan$"),
        (lambda: cesaro.product_bound_scan(math.inf, 100), r"^nu must be finite, got \(inf\+0j\)$"),
    ],
    ids=[
        "ResolventQuery tol",
        "evaluate",
        "evaluate_many",
        "apply_integral",
        "frechet_norm",
        "frechet_norm list",
        "frechet_norm empty",
        "spectrum_distance",
        "product_bound_scan",
    ],
)
def test_a_nan_parameter_is_refused_with_the_usual_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Each entry point that takes a coefficient stack, with an array of the wrong rank or a list item that is no series.
STACK_SHAPE = "a coefficient stack must be 2-d \\(batch x coefficients\\), got shape "
STACKS = [
    ("circle_max 1-d", lambda: cesaro.circle_max(np.ones(4), 0.5, 16), ValueError, STACK_SHAPE + r"\(4,\)"),
    ("circle_max 1-d per row", lambda: cesaro.circle_max(np.ones(4), np.full(4, 0.5), 16), ValueError,
     STACK_SHAPE + r"\(4,\)"),
    ("circle_max 3-d", lambda: cesaro.circle_max(np.ones((2, 3, 4)), 0.5, 16), ValueError,
     STACK_SHAPE + r"\(2, 3, 4\)"),
    ("circle_max list", lambda: cesaro.circle_max([F, [1.0, 0.5]], 0.5, 16), TypeError,
     "a list of series holds only TaylorSeries, got list"),
    ("weighted_sup_norm 0-d", lambda: cesaro.weighted_sup_norm(np.array(1.0), cesaro.Weight.unit()), ValueError,
     STACK_SHAPE + r"\(\)"),
    ("weighted_sup_norm 1-d", lambda: cesaro.weighted_sup_norm(np.ones(4), cesaro.Weight.unit()), ValueError,
     STACK_SHAPE + r"\(4,\)"),
    ("weighted_sup_norm 3-d", lambda: cesaro.weighted_sup_norm(np.ones((2, 3, 4)), cesaro.Weight.unit()), ValueError,
     STACK_SHAPE + r"\(2, 3, 4\)"),
    ("weighted_sup_norm list", lambda: cesaro.weighted_sup_norm([np.ones(4)], cesaro.Weight.unit()), TypeError,
     "a list of series holds only TaylorSeries, got ndarray"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in STACKS], ids=[row[0] for row in STACKS])
def test_a_stack_of_the_wrong_rank_or_items_is_refused_before_any_work(call, error, message):
    # each failed deep inside: an IndexError, a ValueError from unpacking or broadcasting, an AttributeError
    with pytest.raises(error, match=f"^{message}$"):
        call()


# Each entry point that takes a count, an index or a grid size, with a float just above its least value.
COUNTS = [
    ("power_apply", lambda n: cesaro.power_apply(0.5, F, n), 2.5, "iteration count must be >= 1"),
    ("cesaro_mean", lambda n: cesaro.cesaro_mean(0.5, F, n), 2.5, "averaging horizon must be >= 1"),
    ("ergodic_trace", lambda n: cesaro.ergodic_trace(0.5, F, [n]), 2.5, "checkpoints must be positive integers"),
    ("operator_matrix", lambda n: cesaro.operator_matrix(0.5, n), 2.5, "matrix section needs size >= 1"),
    ("apply_integral", lambda n: cesaro.apply_integral(CesaroOperator(0.5), F, 0.3, quad_nodes=n), 2.5,
     "quad_nodes must be >= 2"),
    ("log_power_series n", lambda n: cesaro.log_power_series(n, 8), 2.5, "log-power exponent must be >= 1"),
    ("log_power_series truncation", lambda n: cesaro.log_power_series(1, n), 2.5, "truncation must be >= 0"),
    ("Weight.log_power", lambda n: cesaro.Weight.log_power(n), 2.5, "log-power exponent must be a positive integer"),
    ("circle_max", lambda n: cesaro.circle_max(F, 0.5, n), 2.5, "angle count must be >= 1"),
    ("radial_grid", lambda n: cesaro.radial_grid(n), 8.5, "radial grid needs count >= 1"),
    ("weighted_sup_norm radii", lambda n: cesaro.weighted_sup_norm(F, cesaro.Weight.unit(), radii=n), 8.5,
     "weighted norm grids need at least 8 radii and 8 angles"),
    ("weighted_sup_norm angles", lambda n: cesaro.weighted_sup_norm(F, cesaro.Weight.unit(), angles=n), 8.5,
     "weighted norm grids need at least 8 radii and 8 angles"),
    ("operator_norm_witness radii", lambda n: cesaro.operator_norm_witness(0.5, cesaro.Weight.unit(), [F], radii=n),
     8.5, "weighted norm grids need at least 8 radii and 8 angles"),
    ("operator_norm_witness angles", lambda n: cesaro.operator_norm_witness(0.5, cesaro.Weight.unit(), [F], angles=n),
     8.5, "weighted norm grids need at least 8 radii and 8 angles"),
    ("eigenpair m", lambda n: cesaro.eigenpair(0.5, n, 16), 1.5, "eigenvalue index must be >= 0"),
    ("eigenpair truncation", lambda n: cesaro.eigenpair(0.5, 1, n), 16.5,
     "index m=1 must be smaller than the truncation {}"),
    ("eigenvalues", lambda n: cesaro.eigenvalues(n), 2.5, "eigenvalue count must be >= 0"),
    ("product_bound_scan", lambda n: cesaro.product_bound_scan(2, n), 100.5, "n_max must be >= 100"),
    ("power_bound_certificate trials", lambda n: cesaro.power_bound_certificate(0.5, trials=n, n_max=4), 2.5,
     "trials must be >= 1"),
    ("power_bound_certificate n_max", lambda n: cesaro.power_bound_certificate(0.5, trials=2, n_max=n), 2.5,
     "n_max must be >= 0"),
    ("power_bound_certificate degree", lambda n: cesaro.power_bound_certificate(0.5, trials=2, degree=n), 2.5,
     "degree must be >= 0"),
    ("TaylorSeries.padded", lambda n: F.padded(n), 2.5, "degree must be >= 0"),
    ("TaylorSeries.truncated", lambda n: F.truncated(n), 2.5, "degree must be >= 0"),
    ("constant_one", lambda n: cesaro.constant_one(n), 2.5, "degree must be >= 0"),
    ("geometric_series", lambda n: cesaro.geometric_series(0.5, n), 2.5, "degree must be >= 0"),
    ("random_series", lambda n: cesaro.random_series(n, np.random.default_rng(0)), 2.5, "degree must be >= 0"),
]
COUNT_IDS = [row[0] for row in COUNTS]


@pytest.mark.parametrize("kind", ["float", "nan", "bool"])
@pytest.mark.parametrize("call, above, message", [row[1:] for row in COUNTS], ids=COUNT_IDS)
def test_a_count_that_is_no_integer_is_refused_with_its_owners_message(call, above, message, kind):
    # a float was truncated, compared as if whole or failed deep inside; True counted as 1
    value = {"float": above, "nan": math.nan, "bool": True}[kind]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
        call(value)


def _bits(x):
    """An output as nested tuples that compare equal exactly when the outputs agree bit for bit."""
    if isinstance(x, TaylorSeries):
        x = x.coeffs
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, cesaro.Weight):
        return x.label, _bits(x(np.linspace(0.0, 0.999, 17)))
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, field.name)) for field in dataclasses.fields(x))
    if isinstance(x, (tuple, list, dict)):
        return tuple(map(_bits, x.items() if isinstance(x, dict) else x))
    return repr(x.item() if isinstance(x, np.generic) else x)  # a float's repr round-trips its bits


@pytest.mark.parametrize("call, above", [row[1:3] for row in COUNTS], ids=COUNT_IDS)
def test_a_numpy_integer_count_answers_as_the_equal_int(call, above):
    count = math.ceil(above)
    assert _bits(call(np.int64(count))) == _bits(call(count))


def test_numpy_checkpoints_come_back_as_plain_ints():
    trace = cesaro.ergodic_trace(0.5, F, [np.int64(4)])
    assert trace.n_values == (4,) and type(trace.n_values[0]) is int
    assert _bits(trace) == _bits(cesaro.ergodic_trace(0.5, F, [4]))
