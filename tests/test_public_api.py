import types

import cesaro


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
