import math
import os
import subprocess
import sys
import types
from pathlib import Path

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
