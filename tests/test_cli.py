import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cesaro import TaylorSeries, cli, random_series, to_pairs, weights
from cesaro.acceptance import CheckResult
from cesaro.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    MAX_SIZE,
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


def test_config_grid_defaults_are_the_library_defaults():
    cfg = ExperimentConfig()
    assert (cfg.radii, cfg.angles) == (weights.DEFAULT_RADII, weights.DEFAULT_ANGLES)
    assert cfg.short_hash() == "19f898aa9fc8"  # the hash of the defaults stays put


def test_the_config_hash_names_a_table_weight_by_its_rows(tmp_path, monkeypatch):
    hashes = []
    for folder, text in (("a", "0.0,1.0\n0.5,0.7\n"), ("b", "0.0,1.0\n0.5,0.7\n"), ("c", "0.0,1.0\n0.5,0.6\n")):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "w.csv").write_text(text)
        monkeypatch.chdir(tmp_path / folder)
        assert run("norm", "--weight", "table:w.csv", "--N", "16", "--angles", "64", "--out", "n.csv") == EXIT_OK
        hashes.append(Path("n.csv").read_text().splitlines()[-1])
    assert hashes[0] == hashes[1]  # one table in two directories
    assert hashes[2] != hashes[0]  # an edited table
    assert ExperimentConfig(weight="table:w.csv").short_hash() != hashes[0][len("# config=") :]  # the path alone


def test_a_subcommand_without_a_weight_opens_no_weight_table(tmp_path):
    path = tmp_path / "exp.toml"
    path.write_text(f'weight = "table:{tmp_path / "missing.csv"}"\n')
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--t", "0.5", "--N", "8", "--config", str(path), "--out", str(out)) == EXIT_OK
    cfg = ExperimentConfig(truncation=8, weight=f"table:{tmp_path / 'missing.csv'}")  # t_list defaults to (0.5,)
    assert out.read_text().splitlines()[-1] == f"# config={cfg.short_hash()}"  # the spec text, as before


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
    assert run("apply", "--t", "0.5", "--input", series_file, "--out", str(out)) == EXIT_OK
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


def test_norm_without_g0_measures_one_pool_for_every_t(tmp_path, monkeypatch):
    polish = []
    circle_max = weights.circle_max

    def counted(f, r, angles):
        if np.ndim(r) == 1:  # a polish step: one radius per row
            polish.append(r)
        return circle_max(f, r, angles)

    monkeypatch.setattr(weights, "circle_max", counted)

    def norm_rows(t, witness):
        polish.clear()
        out = tmp_path / "norms.csv"
        argv = ("--t", t, "--witness", witness, "--seed", "3", "--N", "128", "--angles", "512", "--out", str(out))
        assert run("norm", *argv) == EXIT_OK
        return [line for line in out.read_text().splitlines()[1:] if not line.startswith("#")], len(polish)

    rows, sweep_polish = norm_rows("0.1,0.5,0.9", "random:20")
    singles = [norm_rows(t, "random:20") for t in ("0.1", "0.5", "0.9")]
    assert rows == [single_rows[0] for single_rows, _ in singles]
    assert sweep_polish == singles[0][1] == 42  # one polish (2 + 40 steps) for the whole sweep, not three
    _, g0_polish = norm_rows("0.1,0.5,0.9", "g0,random:20")
    assert g0_polish == 3 * 42  # the g0 witness changes with t: one pool, and one polish, per t


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


def test_a_lemma_bounds_artifact_is_the_same_at_one_and_two_blas_threads():
    # OpenBLAS reads its thread count at start-up, so each count runs in its own process.  At n = 20000 the
    # tail fit's dot products are long enough that a threaded BLAS sum would split them.
    src = str(Path(cli.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        args = [sys.executable, "-m", "cesaro.cli", "lemma-bounds", "--nu=2", "--nmax", "20000", "--format", "json"]
        outputs.append(subprocess.run(args, capture_output=True, env=env, timeout=300, check=True).stdout)
    assert outputs[0] == outputs[1] and b'"tail_slope"' in outputs[0]


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


# Each subcommand's artifact layout: argv, CSV header, CSV meta keys in order,
# and the JSON form ("pairs" is a list of [re, im] pairs, a set the top-level keys).
TABLE = {"rows", "config"}
LAYOUTS = {
    "apply": (("--t", "0.5", "--input", "{series}"), "n,re,im", ["t"], "pairs"),
    "norm": (("--t", "0.5", "--N", "16", "--angles", "64"), "t,estimate,log_bound,weight_bound,ok", ["weight"],
             {"weight"} | TABLE),
    "spectrum": (("--t", "0.5", "--N", "8"), "n,eigenvalue", ["t"], {"config", "eigenvalues"}),
    "eigen": (("--t", "0.5", "--m", "1", "--N", "8"), "n,re,im", ["m", "eigenvalue"],
              {"coefficients", "eigenvalue", "m"}),
    "resolvent": (("--t", "0.5", "--nu=2,0", "--rhs", "{series}"), "n,re,im", ["nu", "t"], "pairs"),
    "lemma-bounds": (("--nu=0.4,0.8", "--nmax", "100"), "n,p_n,scaled", ["nu", "alpha", "d_hat", "D_hat", "tail_slope"],
                     {"nu", "alpha", "d_hat", "D_hat", "tail_slope"} | TABLE),
    "ergodic": (("--t", "0.5", "--input", "{series}", "--nmax", "8"), "n,distance", ["norm"], {"norm"} | TABLE),
    "report": ((), "name,passed,detail", [], TABLE),
}


def test_the_layouts_cover_every_subcommand():
    assert set(LAYOUTS) == set(cli.COMMANDS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(LAYOUTS))
def test_each_artifact_keeps_its_layout(command, fmt, tmp_path, series_file, monkeypatch):
    monkeypatch.setattr(cli, "run_all_checks", lambda: STUB_RESULTS[:1])
    argv, header, meta_keys, json_form = LAYOUTS[command]
    out = tmp_path / f"artifact.{fmt}"
    argv = [arg.replace("{series}", series_file) for arg in argv]
    assert run(command, *argv, "--format", fmt, "--out", str(out)) == EXIT_OK
    text = out.read_text()
    if fmt == "csv":
        lines = text.splitlines()
        assert lines[0] == header
        comments = [line for line in lines if line.startswith("#")]
        assert [line[2:].split("=", 1)[0] for line in comments[:-1]] == meta_keys
        assert lines[-1] == comments[-1] and re.fullmatch(r"# config=[0-9a-f]{12}", lines[-1])
        return
    payload = json.loads(text)
    if json_form == "pairs":
        assert isinstance(payload, list) and all(len(pair) == 2 for pair in payload)
        return
    assert set(payload) == json_form
    if "rows" in payload:
        assert re.fullmatch(r"[0-9a-f]{12}", payload["config"])
        assert all(list(row) == sorted(header.split(",")) for row in payload["rows"])


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


T_ONE_UNIT_REFUSAL = (
    "error: t = 1 needs a gamma:<g> weight, got unit: C_1 1 = -log(1-z)/z is not in H^inf, "
    "C_1 is unbounded on the logpow spaces and bounded here only on the (1-r)**gamma spaces\n"
)


def test_t_one_with_weighted_norm_is_validation_error(capsys):
    assert run("norm", "--t", "1.0", "--weight", "logpow:1") == EXIT_VALIDATION
    assert run("norm", "--t", "1.0", "--weight", "unit") == EXIT_VALIDATION
    capsys.readouterr()
    # norm_upper_bound refuses t = 1 for the unit weight before the g0 pool is built
    assert run("norm", "--t", "1.0", "--witness", "g0", "--N", "16", "--angles", "64") == EXIT_VALIDATION
    assert capsys.readouterr().err == T_ONE_UNIT_REFUSAL


def test_a_later_t_one_is_refused_before_any_weighted_norm_pass(monkeypatch, capsys):
    def measured(*args, **kwargs):
        raise AssertionError("operator_norm_witness was called")

    monkeypatch.setattr(cli, "operator_norm_witness", measured)
    assert run("norm", "--t", "0.5,1", "--witness", "g0") == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == T_ONE_UNIT_REFUSAL


def test_t_one_norm_under_a_gamma_weight_is_an_answer(capsys):
    argv = ("norm", "--t", "0.9,1", "--weight", "gamma:0.5", "--witness", "f1,g0", "--N", "64", "--angles", "256")
    assert run(*argv, "--format", "json") == EXIT_OK
    text = capsys.readouterr().out
    assert '"log_bound": Infinity' in text  # -log(1-t)/t at t = 1, read back by json.loads as inf
    rows = json.loads(text)["rows"]
    assert [row["t"] for row in rows] == [0.9, 1.0]
    assert all(row["ok"] is True for row in rows)
    assert rows[1]["weight_bound"] == 2.0 and rows[1]["log_bound"] == math.inf
    assert run(*argv[:2], "1", *argv[3:]) == EXIT_OK  # the text table
    assert "bound[-log(1-t)/t]=inf  weight_bound=2.000000  ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("spectrum", "--t", "0.5", "--N", "1000000000000000000"), "--N"),
        (("norm", "--t", "0.5", "--radii", "4194305"), "--radii"),
        (("norm", "--t", "0.5", "--angles", "4194305"), "--angles"),
        (("norm", "--t", "0.5", "--degree", "4194305"), "--degree"),
        pytest.param(("norm", "--t", "0.5", "--witness", "f1,random:65536", "--degree", "64"), "--witness count",
                     id="norm---witness random:<count>"),
        # a g0 pool is built per t: 2 witnesses x 2 rows x 1100001 coefficients
        (("norm", "--t", "0.1,0.5,0.9", "--witness", "f1,g0", "--N", "1100000", "--angles", "8"), "--witness count"),
        (("lemma-bounds", "--nu=2", "--nmax", "1000000000000000000"), "--nmax"),
        (("ergodic", "--t", "0.5", "--input", "{series}", "--nmax", "4194305"), "--nmax"),
    ],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_a_size_above_the_limit_is_refused_before_allocation(argv, flag, series_file, capsys):
    assert run(*(arg.replace("{series}", series_file) for arg in argv)) == EXIT_VALIDATION
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {flag}") and line.endswith(f"exceeds the size limit {MAX_SIZE}")


def test_the_norm_stack_is_sized_before_the_pool_is_built(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_build_witnesses", lambda *args: pytest.fail("the pool was built"))
    assert run("norm", "--t", "0.5", "--witness", "random:2000", "--degree", "64", "--angles", "4096") == EXIT_VALIDATION
    # 2000 witnesses and their images at one t, 4096 angles per FFT row
    assert f"= {2000 * 2 * 4096} exceeds the size limit" in capsys.readouterr().err


def test_a_g0_stack_is_counted_per_call(monkeypatch):
    pools = []

    def measured(t, v, witnesses, **grid):
        pools.append((t, [len(w) for w in witnesses]))
        return weights.NormEstimate(1.0)

    monkeypatch.setattr(cli, "operator_norm_witness", measured)
    # 2 witnesses x 2 rows x 600001 coefficients per call; 1 + 3 rows per witness would exceed the limit
    assert run("norm", "--t", "0.1,0.5,0.9", "--witness", "f1,g0", "--N", "600000", "--angles", "8") == EXIT_OK
    assert pools == [(t, [600001, 600001]) for t in (0.1, 0.5, 0.9)]


@pytest.mark.parametrize("spec", ["unit", "gamma:2", "gamma:0.5", "logpow:1", "gamma:0.1234567", "table:{path}"])
def test_norm_artifacts_name_the_weight_spec_as_given(spec, tmp_path):
    table = tmp_path / "w.csv"
    table.write_text("0.0,1.0\n0.5,0.7\n0.999,0.1\n")
    spec = spec.replace("{path}", str(table))
    argv = ("--t", "0.5", "--weight", spec, "--N", "16", "--angles", "64")
    out = tmp_path / "norms"
    assert run("norm", *argv, "--out", str(out)) == EXIT_OK
    assert f"# weight={spec}" in out.read_text().splitlines()
    assert run("norm", *argv, "--format", "json", "--out", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["weight"] == spec


def test_a_radial_grid_beyond_216_radii_is_refused(capsys):
    assert run("norm", "--t", "0.5", "--radii", "216", "--N", "16", "--angles", "64") == EXIT_OK
    capsys.readouterr()
    assert run("norm", "--t", "0.5", "--radii", "217", "--N", "16", "--angles", "64") == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: weighted norm grids take at most 216 radii, got 217\n"


@pytest.mark.parametrize("flag", ["--radii", "--angles"])
def test_a_grid_below_8_is_refused_by_the_weighted_norm(flag, capsys):
    # weighted_sup_norm owns the rule; the subcommands that take no grid do not check it
    assert run("norm", "--t", "0.5", "--N", "16", "--angles", "64", flag, "7") == EXIT_VALIDATION  # the last flag wins
    assert capsys.readouterr().err.endswith("error: weighted norm grids need at least 8 radii and 8 angles\n")
    assert ExperimentConfig(radii=7, angles=7).validate()


def test_a_grid_below_8_is_refused_before_the_angle_warning_and_the_pool(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_build_witnesses", lambda *args: pytest.fail("the pool was built"))
    assert run("norm", "--t", "0.5", "--angles", "4", "--N", "16") == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weighted norm grids need at least 8 radii and 8 angles\n"


@pytest.mark.parametrize(
    "argv, angles, degree",
    [
        # random witnesses of degree 4096 with --N 64: once compared with 4 x --N = 256, so no warning
        (("--witness", "random:3", "--degree", "4096", "--N", "64", "--angles", "512"), 512, 4096),
        ((), 1024, 512),  # the default f1 witness at the default --N 512 and 1024 angles
    ],
)
def test_the_angle_warning_names_the_widest_witness_degree(argv, angles, degree, capsys):
    assert run("norm", "--t", "0.5", *argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == (
        f"warning: angle grid {angles} is below 4x the widest witness degree {degree}; "
        "circle maxima of high-degree images may be under-resolved\n"
    )
    assert "estimate=" in captured.out


def test_narrow_witnesses_get_no_angle_warning(capsys):
    # rows 65 wide on 1024 angles, though 1024 is below 4 x the default --N 512
    assert run("norm", "--t", "0.5", "--witness", "random:2", "--degree", "64") == EXIT_OK
    assert capsys.readouterr().err == ""


def test_the_size_limit_applies_to_config_files_and_ends_at_the_limit(tmp_path, capsys):
    assert ExperimentConfig(truncation=MAX_SIZE, angles=MAX_SIZE, radii=MAX_SIZE, degree=MAX_SIZE).validate()
    with pytest.raises(ValueError, match="--N = 4194305 exceeds"):
        ExperimentConfig(truncation=MAX_SIZE + 1).validate()
    path = tmp_path / "big.toml"
    path.write_text("truncation = 5000000\n")
    assert run("spectrum", "--t", "0.5", "--config", str(path)) == EXIT_VALIDATION
    assert "--N = 5000000 exceeds the size limit" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, content, columns",
    [
        (("apply", "--t", "0.5", "--input", "{path}.csv"), "n,re,im\n0,1\n1,2\n", "n,re,im"),
        (("norm", "--t", "0.5", "--N", "64", "--weight", "table:{path}.csv"), "0.0\n0.5\n", "r,v"),
        (("apply", "--t", "0.5", "--input", "{path}.csv"), "n,re,im\n", "n,re,im"),
        (("norm", "--t", "0.5", "--N", "64", "--weight", "table:{path}.csv"), "", "r,v"),
        # the default f1 witness's degree --N is above a quarter of the grid: no warning for input that is refused
        (("norm", "--t", "0.5", "--weight", "table:{path}.csv"), "", "r,v"),
    ],
)
def test_csv_with_too_few_columns_is_validation_error(argv, content, columns, tmp_path, capsys):
    path = tmp_path / "short"
    (tmp_path / "short.csv").write_text(content)
    argv = tuple(arg.replace("{path}", str(path)) for arg in argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would surface as an internal error
        assert run(*argv) == EXIT_VALIDATION
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and columns in line
    if content.rstrip("\n") in ("", columns):  # nothing, or a header alone
        assert "no rows" in line


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,1,0\n1,2,0\n-1,5,0\n", "has the index -1;"),
        ("0,1,0\n1.7,2,0\n", "has the index 1.7;"),
        ("0,1,0\n1,2,0\n1,5,0\n", "repeats the index 1"),
        ("0,nan,0\n", "has a non-finite coefficient at the index 0"),
    ],
    ids=["negative", "non-integer", "repeated", "non-finite"],
)
def test_series_csv_with_a_bad_index_is_validation_error(rows, message, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("n,re,im\n" + rows)
    assert run("apply", "--t", "0.5", "--input", str(path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: series CSV {path} {message}")


@pytest.mark.parametrize(
    "payload, message",
    [
        ('[[1, "a"]]', "has the item [1, 'a'] at index 0;"),
        ("[null]", "has the item None at index 0;"),
        ("5", "must be a non-empty list"),
        ('{"a": 1}', "must be a non-empty list"),
        ("[true, 2]", "has the item True at index 0;"),
        ("[1, 2", "does not parse: Expecting ',' delimiter"),
        ("[NaN]", "has the non-finite item nan at index 0"),
        ("[1, [2, Infinity]]", "has the non-finite item [2, inf] at index 1"),
        pytest.param("[0, 1" + "0" * 400 + "]", "has the non-finite item 1000", id="int-beyond-double-range"),
    ],
)
def test_a_malformed_json_series_is_validation_error(payload, message, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(payload + "\n")
    assert run("apply", "--t", "0.5", "--input", str(path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: series JSON {path} {message}")


@pytest.mark.parametrize(
    "argv, label",
    [
        (("norm", "--t", "0.5", "--weight", "gamma:55"), "gamma:55"),
        (("norm", "--t", "0.5", "--weight", "logpow:300"), "logpow:300"),
        (("ergodic", "--t", "0.5", "--input", "{series}", "--norm", "gamma:60"), "gamma:60"),
    ],
)
def test_a_weight_that_underflows_is_validation_error(argv, label, series_file, capsys):
    assert run(*(arg.replace("{series}", series_file) for arg in argv)) == EXIT_VALIDATION
    line = capsys.readouterr().err.splitlines()[-1]
    assert line == f"error: weight {label} underflows to 0 in double precision near r = 1"


def test_bad_config_key_is_validation_error(tmp_path):
    path = tmp_path / "exp.toml"
    path.write_text("no_such_key = 3\n")
    assert run("spectrum", "--t", "0.5", "--config", str(path)) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "content, argv",
    [
        ('truncation = "abc"', ("spectrum", "--t", "0.5")),
        ("seed = 1.5", ("norm", "--t", "0.5")),
        ("truncation = 16.5", ("spectrum", "--t", "0.5")),
        ("degree = true", ("norm", "--t", "0.5")),
        ("out = 3", ("spectrum", "--t", "0.5")),
        ("t_list = [0.5, true]", ("spectrum",)),
        ("weight = 2", ("norm", "--t", "0.5")),
    ],
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_a_config_value_of_the_wrong_type_is_validation_error(content, argv, tmp_path, capsys):
    path = tmp_path / "exp.toml"
    path.write_text(content + "\n")
    assert run(*argv, "--config", str(path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {content.split(' =')[0]} = ") and "does not have the type" in line


def test_a_config_weight_is_parsed_by_every_subcommand(tmp_path, capsys):
    path = tmp_path / "w.toml"
    path.write_text('weight = "bogus:xyz"\n')
    assert run("spectrum", "--t", "0.5", "--N", "8", "--config", str(path)) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: bad weight spec 'bogus:xyz'; expected unit | gamma:<float>")


def test_a_config_file_may_hold_keys_the_subcommand_does_not_read(tmp_path):
    path = tmp_path / "exp.toml"
    path.write_text('seed = 7\nweight = "gamma:2"\n')
    out = tmp_path / "spec.csv"
    assert run("spectrum", "--t", "0.5", "--N", "8", "--config", str(path), "--out", str(out)) == EXIT_OK


# --- flag surface ---------------------------------------------------------------------------


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    [commands] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    common = {"--config", "--out", "--format"}
    assert got == {
        "apply": common | {"--t", "--input"},
        "norm": common | {"--t", "--N", "--radii", "--angles", "--weight", "--seed", "--degree", "--witness"},
        "spectrum": common | {"--t", "--N"},
        "eigen": common | {"--t", "--N", "--m"},
        "resolvent": common | {"--t", "--nu", "--rhs"},
        "lemma-bounds": common | {"--nu", "--nmax"},
        "ergodic": common | {"--t", "--input", "--nmax", "--norm"},
        "report": common,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("apply", "--t", "0.5", "--input", "{series}", "--N", "16"),
        ("resolvent", "--t", "0.5", "--nu=2,0", "--rhs", "{series}", "--N", "100"),
        ("ergodic", "--t", "0.5", "--input", "{series}", "--seed", "3"),
        ("spectrum", "--t", "0.5", "--weight", "gamma:9"),
        ("eigen", "--t", "0.5", "--m", "1", "--N", "8", "--angles", "4"),
        ("lemma-bounds", "--nu=2,0", "--t", "5"),
        ("report", "--t", "0.3"),
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_a_flag_the_subcommand_does_not_read_is_usage_error(argv, series_file, capsys):
    assert run(*(arg.replace("{series}", series_file) for arg in argv)) == EXIT_USAGE
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


def test_a_flag_the_subcommand_does_not_read_shows_the_subcommand_usage(series_file, capsys):
    assert run("resolvent", "--t", "0.5", "--nu=2,0", "--rhs", series_file, "--N", "100") == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: cesaro resolvent ")
    assert lines[-1] == "cesaro resolvent: error: unrecognized arguments: --N 100"


def test_a_flag_before_the_subcommand_says_where_it_goes(series_file, capsys):
    assert run("--N", "100", "resolvent", "--t", "0.5", "--nu=2,0", "--rhs", series_file) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == "cesaro: error: --N goes after the subcommand: cesaro resolvent --N ..."


# --- report ---------------------------------------------------------------------------------


STUB_RESULTS = [
    CheckResult("first-check", True, "value 1.00e-14 (tol 1e-13)"),
    CheckResult("second-check", False, "margin -2.5e-03, \"quoted\""),
]


def test_report_json_artifact_round_trips(tmp_path, monkeypatch, capsys):
    results = STUB_RESULTS
    monkeypatch.setattr(cli, "run_all_checks", lambda: results)
    out = tmp_path / "report.json"
    assert run("report", "--format", "json", "--out", str(out)) == EXIT_INTERNAL
    assert "1/2 checks passed" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert [CheckResult(**row) for row in payload["rows"]] == results
    assert set(payload) == {"rows", "config"}


def test_report_json_without_out_replaces_the_text_on_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all_checks", lambda: STUB_RESULTS)
    assert run("report", "--format", "json") == EXIT_INTERNAL
    shown = capsys.readouterr().out
    payload = json.loads(shown)  # the whole of stdout is the artifact
    assert [CheckResult(**row) for row in payload["rows"]] == STUB_RESULTS
    assert set(payload) == {"rows", "config"}
    out = tmp_path / "report.json"
    assert run("report", "--format", "json", "--out", str(out)) == EXIT_INTERNAL
    assert out.read_text() == shown


def test_report_text_is_the_same_with_and_without_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all_checks", lambda: STUB_RESULTS)
    text = "".join(r.line() + "\n" for r in STUB_RESULTS) + "1/2 checks passed\n"
    assert run("report") == EXIT_INTERNAL
    assert capsys.readouterr().out == text
    for fmt in ("csv", "json"):
        assert run("report", "--format", fmt, "--out", str(tmp_path / f"report.{fmt}")) == EXIT_INTERNAL
        assert capsys.readouterr().out == text


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


# --- README ------------------------------------------------------------------------------------


def test_every_readme_cli_example_exits_zero(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cesaro ")]
    # the block shows every subcommand but report, which has its own
    assert {shlex.split(line)[1] for line in lines} == set(cli.COMMANDS) - {"report"}
    rng = np.random.default_rng(0)
    for name in ("f.json", "g.json"):
        (tmp_path / name).write_text(json.dumps(to_pairs(random_series(16, rng))))
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(*shlex.split(line)[1:]) == EXIT_OK, line
