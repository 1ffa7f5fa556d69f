"""Command-line front end: reproducible experiments, CSV/JSON artifacts.

Subcommands
-----------
apply         apply the parameter-t operator to a series file
norm          witness norm estimates against the proven bounds, per t
spectrum      finite-section eigenvalue ladder
eigen         an eigenpair (eigenvalue and eigenfunction coefficients)
resolvent     solve (C - nu I) f = g coefficientwise
lemma-bounds  infinite-product growth scan n, p_n, scaled
ergodic       distances of ergodic means from their limit, per checkpoint
report        run the full formula-reproduction suite and tabulate it

Exit codes: 0 success, 1 internal error, 2 validation error (bad input,
including a missing or unreadable input file, a CSV with no rows or too
few columns and a malformed series JSON), 64 usage error (including a flag
the subcommand does not take).

``FLAGS`` maps each settings flag to its config field and ``add_argument``
keywords; ``COMMANDS`` gives each subcommand its handler, help, the settings
flags it reads and its own arguments; all take ``--config``, ``--out`` and
``--format``.  A flat ``key = value`` config file may set any field, read or
not; flags win.  ``main`` validates the config once and calls
``handler(args, cfg)``; a size above ``MAX_SIZE`` exits 2 before allocation.

``write_table`` is the one artifact writer.  CSV is deterministic for a fixed
config and seed ('.' decimal, ',' separator, LF line endings): a header row,
the rows, ``# key=value`` meta lines and a trailing config hash.  JSON is
``{**meta, "rows", "config"}``, or the payload of three callers: ``spectrum``
``{"eigenvalues", "config"}``, ``eigen`` ``{**meta, "coefficients"}``, and
``apply`` and ``resolvent`` the bare [re, im] pair list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import specs, weights
from .acceptance import run_all_checks
from .dynamics import ergodic_trace
from .operators import CesaroOperator, apply
from .series import (
    DEFAULT_TRUNCATION,
    TaylorSeries,
    constant_one,
    from_pairs,
    geometric_series,
    log_power_series,
    random_series,
    read_csv,
    to_pairs,
)
from .spectral import ResolventQuery, eigenpair, eigenvalues, product_bound_scan, resolvent_apply
from .weights import DEFAULT_ANGLES, DEFAULT_RADII, Weight, log_norm_bound, norm_upper_bound, operator_norm_witness

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64

MAX_SIZE = 2**22  # the longest array a flag may ask for: 64 MiB of complex doubles


def _within_limit(flag: str, size: int):
    """Refuse a size above MAX_SIZE; called before anything that long is allocated."""
    if size > MAX_SIZE:
        raise ValueError(f"{flag} = {size} exceeds the size limit {MAX_SIZE}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment-wide defaults; every field is overridable by a flag."""

    truncation: int = DEFAULT_TRUNCATION
    radii: int = DEFAULT_RADII
    angles: int = DEFAULT_ANGLES
    t_list: tuple[float, ...] = (0.5,)
    weight: str = "unit"
    seed: int = 0
    degree: int = 64
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> "ExperimentConfig":
        for field in fields(self):
            value = getattr(self, field.name)
            kinds = (str, type(None)) if field.name == "out" else (type(field.default),)
            # exact types: a bool is no int, and t_list holds floats only
            if type(value) not in kinds or (field.name == "t_list" and any(type(t) is not float for t in value)):
                raise ValueError(f"{field.name} = {value!r} does not have the type {field.type}")
        specs.count(self.truncation, 8, "truncation must be >= 8")
        specs.count(len(self.t_list), 1, "t_list must be non-empty")
        for t in self.t_list:
            CesaroOperator(t)
        specs.count(self.degree, 0, "degree must be >= 0")
        for flag in ("N", "radii", "angles", "degree"):
            _within_limit(f"--{flag}", getattr(self, FLAGS[flag][0]))
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        specs.parse("weight spec", self.weight, specs.WEIGHTS)  # the grammar only: norm opens a table
        return self

    def short_hash(self, weight: Weight | None = None) -> str:
        """The config's 12-hex-digit hash; ``weight``, built from the ``weight`` spec, names a table by its rows."""
        fields = asdict(self)
        fields.pop("out")  # the artifact destination is not part of the experiment
        if weight is not None and weight.kind == "table":  # the table read, not the path it was read from
            fields["weight"] = ["table", weight.table.tolist()]
        payload = json.dumps(fields, sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


# -- flat config files ---------------------------------------------------------


def _parse_scalar(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [_parse_scalar(part) for part in inner.split(",") if part.strip()] if inner else []
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file (a TOML subset: no sections, no nesting)."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line is not 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = _parse_scalar(value)
    return values


_CONFIG_KEYS = {field.name for field in fields(ExperimentConfig)}

FLAGS = {
    "t": ("t_list", {"help": "operator parameter(s) in [0, 1], comma-separated (norm: t = 1 with gamma:<g> only)"}),
    "N": ("truncation", {"type": int, "help": "truncation degree"}),
    "radii": ("radii", {"type": int, "help": "radial grid count"}),
    "angles": ("angles", {"type": int, "help": "angle grid count"}),
    "weight": ("weight", {"help": specs.forms(specs.WEIGHTS)}),
    "seed": ("seed", {"type": int, "help": "seed for random test functions"}),
    "degree": ("degree", {"type": int, "help": "degree of random test functions"}),
    "out": ("out", {"help": "artifact path (stdout when omitted)"}),
    "format": ("fmt", {"choices": ("csv", "json"), "help": "artifact format"}),
}


def _config_from(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        raw = load_config_file(args.config)
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "t_list" in raw:
            values = raw["t_list"]
            values = values if isinstance(values, list) else [values]
            raw["t_list"] = tuple(float(v) if type(v) in (int, float) else v for v in values)
        cfg = replace(cfg, **raw)
    overrides = {}
    for flag, (key, _) in FLAGS.items():
        value = getattr(args, flag, None)  # a subcommand has only the flags it reads
        if value is not None:
            overrides[key] = tuple(float(part) for part in value.split(",")) if flag == "t" else value
    return replace(cfg, **overrides).validate()


# -- artifact writing -------------------------------------------------------------


def _fmt_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(header, rows, cfg: ExperimentConfig, meta: dict, payload=None, weight: Weight | None = None):
    """The one artifact writer, to ``cfg.out`` or stdout.

    CSV: the header, the rows, ``# key=value`` meta lines and ``# config=<hash>``.
    JSON: ``payload`` when given, else ``{**meta, "rows", "config"}``.  The
    hash is ``cfg.short_hash(weight)``: a subcommand that measures a weight
    passes it.
    """
    if cfg.fmt == "json":
        if payload is None:
            payload = {**meta, "rows": [dict(zip(header, row)) for row in rows], "config": cfg.short_hash(weight)}
        text = json.dumps(payload, indent=2, sort_keys=True, default=np.generic.item)  # numpy scalars as plain
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_fmt_cell(cell) for cell in row) for row in rows)
        lines.extend(f"# {key}={_fmt_cell(value)}" for key, value in meta.items())
        lines.append(f"# config={cfg.short_hash(weight)}")
        text = "\n".join(lines)
    if cfg.out:
        with open(cfg.out, "w", newline="\n") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _series_artifact(f: TaylorSeries, cfg: ExperimentConfig, meta: dict, payload=None):
    """A series as CSV rows n,re,im, or as JSON ``payload`` (default: its [re, im] pairs)."""
    rows = [(n, float(c.real), float(c.imag)) for n, c in enumerate(f.coeffs)]
    write_table(("n", "re", "im"), rows, cfg, meta, to_pairs(f) if payload is None else payload)


def load_series(path: str) -> TaylorSeries:
    """Read a series file: JSON array of [re, im] pairs, or CSV rows n,re,im."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        rows = read_csv(path, "series CSV", "n,re,im", header=True)
        index = rows[:, 0]
        bad = index[~(np.isfinite(index) & (index >= 0) & (index == np.floor(index)))]
        if bad.size:
            raise ValueError(f"series CSV {path} has the index {bad[0]:g}; indices must be integers >= 0")
        n = index.astype(int)
        counts = np.bincount(n)
        if counts.max() > 1:
            raise ValueError(f"series CSV {path} repeats the index {np.argmax(counts > 1)}")
        finite = np.isfinite(rows[:, 1:3]).all(axis=1)
        if not finite.all():
            raise ValueError(f"series CSV {path} has a non-finite coefficient at the index {n[~finite][0]}")
        coeffs = np.zeros(len(counts), dtype=complex)
        coeffs[n] = rows[:, 1] + 1j * rows[:, 2]
        return TaylorSeries(coeffs)
    try:
        pairs = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"series JSON {path} does not parse: {exc}") from None
    return from_pairs(pairs, f"series JSON {path}")


def _single_t(cfg: ExperimentConfig) -> float:
    if len(cfg.t_list) != 1:
        raise ValueError("this subcommand needs exactly one t")
    return cfg.t_list[0]


def _build_witnesses(parsed, t: float | None, cfg: ExperimentConfig):
    """The witness pool at ``t`` from parsed witness specs; random draws restart at the seed.

    Only the ``g0`` witness reads ``t``; a pool without it may pass ``None``.
    """
    rng = np.random.default_rng(cfg.seed)
    out = []
    for name, arg in parsed:
        if name == "f1":
            out.append(constant_one(cfg.truncation))
        elif name == "g0":
            out.append(geometric_series(t, cfg.truncation))
        elif name == "logpow":
            out.append(log_power_series(arg, cfg.truncation))
        else:
            out.extend(random_series(cfg.degree, rng) for _ in range(arg))
    return out


# -- subcommands -------------------------------------------------------------------


def cmd_apply(args, cfg: ExperimentConfig) -> int:
    f = load_series(args.input)
    op = CesaroOperator(_single_t(cfg))
    _series_artifact(apply(op, f), cfg, {"t": op.t})
    return EXIT_OK


def cmd_norm(args, cfg: ExperimentConfig) -> int:
    v = Weight.from_spec(cfg.weight)
    bounds = [norm_upper_bound(t, v) for t in cfg.t_list]  # refuses t = 1 for this weight before any work
    parsed = [specs.parse("witness spec", spec, specs.WITNESSES) for spec in (args.witness or "f1").split(",")]
    per_t = any(name == "g0" for name, _ in parsed)  # the g0 witness depends on t: one pool and one call per t
    # the stack one witness sweep measures: the witnesses and their images at its t, one FFT row each
    per_witness, per_witness_text = (2, "2") if per_t else (1 + len(cfg.t_list), "(1 + number of t)")
    count = sum(arg if name == "random" else 1 for name, arg in parsed)
    width = max(cfg.degree if name == "random" else cfg.truncation for name, _ in parsed) + 1
    stack = count * per_witness * max(width, cfg.angles)
    _within_limit(f"--witness count x {per_witness_text} x max(witness width, --angles)", stack)
    weights._grid(cfg.radii, cfg.angles)  # the grid rule before any pool is built, and before the angle warning
    if cfg.angles < 4 * (width - 1):  # the widest row is the widest witness: an image keeps its witness's degree
        print(
            f"warning: angle grid {cfg.angles} is below 4x the widest witness degree {width - 1}; "
            "circle maxima of high-degree images may be under-resolved",
            file=sys.stderr,
        )
    grid = {"radii": cfg.radii, "angles": cfg.angles}
    if per_t:
        values = [operator_norm_witness(t, v, _build_witnesses(parsed, t, cfg), **grid).value for t in cfg.t_list]
    else:  # one pool for every t: one sweep, each entry equal to its single call
        values = operator_norm_witness(cfg.t_list, v, _build_witnesses(parsed, None, cfg), **grid).value.tolist()
    rows = []
    for t, value, bound in zip(cfg.t_list, values, bounds):
        rows.append((float(t), value, log_norm_bound(t), float(bound), value <= bound + 1e-3))
    if cfg.out is None and cfg.fmt == "csv":
        for t, est, log_bound, bound, ok in rows:
            flag = "ok" if ok else "VIOLATION"
            print(
                f"t={t:g}  estimate={est:.6f}  bound[-log(1-t)/t]={log_bound:.6f}  "
                f"weight_bound={bound:.6f}  {flag}"
            )
    else:
        write_table(("t", "estimate", "log_bound", "weight_bound", "ok"), rows, cfg, {"weight": cfg.weight}, weight=v)
    return EXIT_OK if all(row[4] for row in rows) else EXIT_INTERNAL


def cmd_spectrum(args, cfg: ExperimentConfig) -> int:
    t = _single_t(cfg)  # validate() has range-checked t and N
    values = eigenvalues(cfg.truncation)
    payload = {"eigenvalues": [float(v) for v in values], "config": cfg.short_hash()}
    write_table(("n", "eigenvalue"), list(enumerate(values)), cfg, {"t": t}, payload)
    return EXIT_OK


def cmd_eigen(args, cfg: ExperimentConfig) -> int:
    pair = eigenpair(_single_t(cfg), args.m, cfg.truncation)
    meta = {"m": pair.m, "eigenvalue": pair.eigenvalue}
    _series_artifact(pair.series, cfg, meta, {**meta, "coefficients": to_pairs(pair.series)})
    return EXIT_OK


def cmd_resolvent(args, cfg: ExperimentConfig) -> int:
    rhs = load_series(args.rhs)
    query = ResolventQuery(specs.parse_arg("nu", args.nu, "re[,im]"), rhs)
    t = _single_t(cfg)
    _series_artifact(resolvent_apply(query, t), cfg, {"nu": args.nu, "t": t})
    return EXIT_OK


def cmd_lemma_bounds(args, cfg: ExperimentConfig) -> int:
    _within_limit("--nmax", args.nmax)
    report = product_bound_scan(specs.parse_arg("nu", args.nu, "re[,im]"), args.nmax)
    rows = zip(report.n_values, report.p_values, report.scaled)
    meta = {
        "nu": args.nu,
        "alpha": report.alpha,
        "d_hat": report.d_hat,
        "D_hat": report.D_hat,
        "tail_slope": report.tail_slope,
    }
    write_table(("n", "p_n", "scaled"), rows, cfg, meta)
    return EXIT_OK


def cmd_ergodic(args, cfg: ExperimentConfig) -> int:
    f = load_series(args.input)
    _within_limit("--nmax", args.nmax)
    checkpoints = []
    n = 1
    while n < args.nmax:
        checkpoints.append(n)
        n *= 2
    checkpoints.append(args.nmax)
    trace = ergodic_trace(_single_t(cfg), f, checkpoints, args.norm)
    write_table(("n", "distance"), zip(trace.n_values, trace.distances), cfg, {"norm": trace.norm_tag})
    return EXIT_OK


def cmd_report(args, cfg: ExperimentConfig) -> int:
    results = run_all_checks()
    failed = [r for r in results if not r.passed]
    if cfg.out or cfg.fmt == "csv":  # the text table; without --out, JSON on stdout replaces it
        for result in results:
            print(result.line())
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if cfg.out or cfg.fmt == "json":
        rows = [(r.name, r.passed, r.detail) for r in results]
        write_table(("name", "passed", "detail"), rows, cfg, {})
    return EXIT_OK if not failed else EXIT_INTERNAL


# -- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code the artifact contract fixes.

    argparse collects the flags a subcommand does not take in the root
    parser; :meth:`parse_args` reports them under the subcommand's own usage
    line (``commands`` maps each subcommand name to its parser), and says
    that a flag given before the subcommand goes after it.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_args(self, args=None, namespace=None):
        commands = getattr(self, "commands", {})
        argv = sys.argv[1:] if args is None else list(args)
        for i, token in enumerate(argv):
            if token in commands:
                break
            if token.startswith("-") and token not in ("-h", "--help"):
                flag, command = token.split("=")[0], next((x for x in argv[i:] if x in commands), "<command>")
                self.error(f"{flag} goes after the subcommand: cesaro {command} {flag} ...")
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            parser = commands.get(args.command, self)
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return args


COMMANDS = {
    "apply": (cmd_apply, "apply the operator to a series file", ("t",),
              {"--input": {"required": True, "help": "series file (.json pairs or .csv n,re,im)"}}),
    "norm": (cmd_norm, "witness norm estimates vs proven bounds",
             ("t", "N", "radii", "angles", "weight", "seed", "degree"),
             {"--witness": {"help": "comma list: " + specs.forms(specs.WITNESSES)}}),
    "spectrum": (cmd_spectrum, "finite-section eigenvalue ladder", ("t", "N"), {}),
    "eigen": (cmd_eigen, "eigenpair for index m", ("t", "N"),
              {"--m": {"type": int, "required": True, "help": "eigenvalue index (lambda = 1/(m+1))"}}),
    "resolvent": (cmd_resolvent, "solve (C - nu I) f = g", ("t",), {
        "--nu": {"required": True, "help": "complex shift as 're,im'"},
        "--rhs": {"required": True, "help": "right-hand-side series file"},
    }),
    "lemma-bounds": (cmd_lemma_bounds, "infinite-product growth scan", (), {
        "--nu": {"required": True, "help": "complex point as 're,im'"},
        "--nmax": {"type": int, "default": 10_000, "help": "scan horizon"},
    }),
    "ergodic": (cmd_ergodic, "ergodic mean distances from the limit", ("t",), {
        "--input": {"required": True, "help": "series file"},
        "--nmax": {"type": int, "default": 1024, "help": "largest averaging horizon"},
        "--norm": {"default": "ksup:2", "help": specs.forms(specs.NORM_TAGS)},
    }),
    "report": (cmd_report, "run the formula-reproduction suite", (), {}),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="cesaro", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", metavar="command")
    parser.commands = commands.choices
    for name, (handler, help_text, settings, own) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", help="flat key = value config file")
        for flag in (*settings, "out", "format"):
            sub.add_argument(f"--{flag}", **FLAGS[flag][1])
        for flag, keywords in own.items():
            sub.add_argument(flag, **keywords)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args, _config_from(args))
    except (ValueError, OSError) as exc:  # bad input: a spec, a value or an input file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - the catch-all contract line
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
