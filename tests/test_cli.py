import json
import math

import numpy as np
import pytest

from cesaro import TaylorSeries, to_pairs
from cesaro.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    ExperimentConfig,
    load_config_file,
    load_series,
    main,
)


@pytest.fixture
def series_file(tmp_path):
    path = tmp_path / "f1.json"
    path.write_text(json.dumps(to_pairs(TaylorSeries(np.ones(1)))))
    return str(path)


def run(*argv):
    return main(list(argv))


# --- config handling --------------------------------------------------------------


def test_config_defaults_validate():
    cfg = ExperimentConfig().validate()
    assert cfg.truncation >= 8 and cfg.fmt == "csv"


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig(truncation=4).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(t_list=(1.5,)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(fmt="xml").validate()


def test_flat_config_file_parsing(tmp_path):
    path = tmp_path / "exp.toml"
    path.write_text(
        't_list = [0.1, 0.9]\nseed = 7\nweight = "gamma:2"\ntruncation = 64\n# comment\n'
    )
    raw = load_config_file(str(path))
    assert raw == {"t_list": [0.1, 0.9], "seed": 7, "weight": "gamma:2", "truncation": 64}


def test_flags_override_config(tmp_path, capsys):
    path = tmp_path / "exp.toml"
    path.write_text("t_list = [0.9]\ntruncation = 4096\n")
    out = tmp_path / "spec.csv"
    code = run("spectrum", "--config", str(path), "--t", "0.5", "--N", "8", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "n,eigenvalue"
    assert len([l for l in lines if not l.startswith("#")]) == 9  # header + 8 rows


# --- artifacts ---------------------------------------------------------------------


def test_apply_csv_artifact_round_trips(tmp_path, series_file):
    out = tmp_path / "image.csv"
    assert run("apply", "--t", "0.5", "--input", series_file, "--N", "16", "--out", str(out)) == EXIT_OK
    text = out.read_text()
    assert text.splitlines()[0] == "n,re,im"
    assert any(line.startswith("# config=") for line in text.splitlines())
    assert "\r" not in text
    loaded = load_series(str(out))
    np.testing.assert_allclose(loaded.coeffs[0], 1.0)


def test_apply_json_artifact(tmp_path, series_file):
    out = tmp_path / "image.json"
    code = run("apply", "--t", "0.5", "--input", series_file, "--format", "json", "--out", str(out))
    assert code == EXIT_OK
    pairs = json.loads(out.read_text())
    assert pairs[0] == [1.0, 0.0]


def test_apply_pads_nothing_but_preserves_degree(tmp_path):
    src = tmp_path / "g.json"
    src.write_text(json.dumps([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    out = tmp_path / "img.csv"
    assert run("apply", "--t", "0", "--input", str(src), "--out", str(out)) == EXIT_OK
    got = load_series(str(out))
    np.testing.assert_allclose(got.coeffs.real, [1.0, 1.0, 1.0])


def test_norm_table_matches_log_formula(tmp_path):
    out = tmp_path / "norms.csv"
    code = run("norm", "--t", "0.1,0.5", "--weight", "unit", "--N", "1024", "--angles", "64", "--out", str(out))
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines() if line and not line.startswith("#")]
    assert rows[0] == ["t", "estimate", "log_bound", "weight_bound", "ok"]
    for t_str, est, log_bound, _, ok in rows[1:]:
        t = float(t_str)
        assert abs(float(est) - (-math.log1p(-t) / t)) < 1e-3
        assert abs(float(log_bound) - (-math.log1p(-t) / t)) < 1e-12
        assert ok == "true"


def test_norm_stdout_mentions_formula(capsys):
    assert run("norm", "--t", "0.5", "--N", "256", "--angles", "2048") == EXIT_OK
    shown = capsys.readouterr().out
    assert "-log(1-t)/t" in shown
    assert "1.386" in shown


def test_eigen_artifact(tmp_path):
    out = tmp_path / "pair.json"
    code = run("eigen", "--t", "0.5", "--m", "1", "--N", "8", "--format", "json", "--out", str(out))
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["eigenvalue"] == 0.5
    assert payload["coefficients"][1] == [1.0, 0.0]


def test_resolvent_artifact(tmp_path, series_file):
    out = tmp_path / "res.csv"
    code = run("resolvent", "--t", "0.5", "--nu", "2,0", "--rhs", series_file, "--out", str(out))
    assert code == EXIT_OK
    got = load_series(str(out))
    np.testing.assert_allclose(got.coeffs[0].real, -1.0)


def test_lemma_bounds_header_and_meta(tmp_path):
    out = tmp_path / "scan.csv"
    # negative-valued --nu needs the '=' form so argparse does not read a flag
    code = run("lemma-bounds", "--nu=-1,0", "--nmax", "150", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "n,p_n,scaled"
    assert any(line.startswith("# alpha=") for line in lines)
    first = lines[1].split(",")
    np.testing.assert_allclose(float(first[1]), 2.0)  # p_1 = 1 + 1/1


def test_ergodic_trace_artifact(tmp_path):
    src = tmp_path / "f.json"
    src.write_text(json.dumps([[1.0, 0.0], [0.5, 0.0]] + [[0.0, 0.0]] * 62))
    out = tmp_path / "trace.csv"
    code = run("ergodic", "--t", "0.5", "--input", str(src), "--nmax", "64", "--out", str(out))
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[1:] if not line.startswith("#")]
    distances = [float(r[1]) for r in rows]
    assert distances[-1] < distances[0]


# --- reproducibility ------------------------------------------------------------------


def test_identical_config_and_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = run(
            "norm", "--t", "0.3,0.7", "--weight", "gamma:1", "--witness", "random:5",
            "--N", "128", "--angles", "512", "--seed", "42", "--out", str(path),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_changes_random_witnesses(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for seed, path in (("1", a), ("2", b)):
        run(
            "norm", "--t", "0.7", "--witness", "random:3", "--N", "64",
            "--angles", "256", "--seed", seed, "--out", str(path),
        )
    assert a.read_bytes() != b.read_bytes()


# --- exit codes ---------------------------------------------------------------------------


def test_unknown_flag_is_usage_error(series_file):
    assert run("apply", "--frobnicate", "1", "--input", series_file) == EXIT_USAGE


def test_missing_command_is_usage_error():
    assert run() == EXIT_USAGE


def test_t_one_with_weighted_norm_is_validation_error():
    assert run("norm", "--t", "1.0", "--weight", "logpow:1") == EXIT_VALIDATION
    assert run("norm", "--t", "1.0", "--weight", "unit") == EXIT_VALIDATION


def test_near_spectral_resolvent_is_validation_error(series_file):
    assert run("resolvent", "--t", "0.5", "--nu", "0.25,0", "--rhs", series_file) == EXIT_VALIDATION


def test_nonpositive_log_power_witness_is_validation_error():
    assert run("norm", "--t", "0.5", "--witness", "logpow:0") == EXIT_VALIDATION
    assert run("norm", "--t", "0.5", "--witness", "random:-3,f1") == EXIT_VALIDATION
    assert run("norm", "--t", "0.5", "--witness", "random:0") == EXIT_VALIDATION


def test_bad_weight_spec_is_validation_error():
    assert run("norm", "--t", "0.5", "--weight", "gauss:1") == EXIT_VALIDATION


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("norm", "--t", "0.5", "--weight", "gamma:"), "weight spec"),
        (("ergodic", "--t", "0.5", "--input", "{series}", "--norm", "logpow:1"), "norm tag"),
        (("norm", "--t", "0.5", "--witness", "f1:2"), "witness spec"),
        (("lemma-bounds", "--nu", "0.4,0.8,1"), "nu"),
    ],
)
def test_malformed_spec_of_each_kind_is_validation_error(argv, kind, series_file, capsys):
    assert run(*(arg.replace("{series}", series_file) for arg in argv)) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: bad {kind} ")


def test_non_finite_nu_is_validation_error():
    assert run("lemma-bounds", "--nu", "nan") == EXIT_VALIDATION
    assert run("lemma-bounds", "--nu", "inf,0") == EXIT_VALIDATION


@pytest.mark.parametrize(
    "argv",
    [
        ("apply", "--t", "0.5", "--input", "{missing}.json"),
        ("resolvent", "--t", "0.5", "--nu", "2", "--rhs", "{missing}.csv"),
        ("spectrum", "--t", "0.5", "--config", "{missing}.toml"),
        ("norm", "--t", "0.5", "--weight", "table:{missing}.csv"),
        ("apply", "--t", "0.5", "--input", "{dir}"),
    ],
)
def test_missing_or_unreadable_input_file_is_validation_error(argv, tmp_path, capsys):
    paths = {"{missing}": str(tmp_path / "no_such_file"), "{dir}": str(tmp_path)}
    for placeholder, path in paths.items():
        argv = tuple(arg.replace(placeholder, path) for arg in argv)
    assert run(*argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


def test_bad_config_key_is_validation_error(tmp_path):
    path = tmp_path / "exp.toml"
    path.write_text("no_such_key = 3\n")
    assert run("spectrum", "--t", "0.5", "--config", str(path)) == EXIT_VALIDATION


# --- report ---------------------------------------------------------------------------------


def test_report_runs_the_full_suite(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = run("report", "--out", str(out))
    assert code == EXIT_OK
    shown = capsys.readouterr().out
    assert "15/15 checks passed" in shown
    assert "PASS  resolvent-forward-substitution: vs forward substitution" in shown
    rows = [line for line in out.read_text().splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 15
    assert all(",true," in row for row in rows)
