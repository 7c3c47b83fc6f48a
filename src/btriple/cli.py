"""Command line front end.

Subcommands: weyl (sample M(lambda) over a list of spectral points),
resolve (apply the Robin resolvent to a seeded right-hand side), eigs
(scan a rectangle for Robin eigenvalues), decay (the large-|lambda| decay
study), verify (the full identity / decay / eigenvalue report).

Configuration is one JSON file with sections model, potential,
boundary_operator, lambda, region, output; unknown sections or keys are
rejected. Every output file starts with a schema comment line, floats are
written with shortest round-trip precision, and a fixed --seed makes
repeated runs byte-identical (report timing fields excepted).

Exit codes: 0 success, 1 verification failure, 2 configuration error
(including uncertified lambda without --allow-uncertified, and a NaN or
infinite number), 3 solver failure, 4 spectral singularity at the requested
point: a point on the Neumann spectrum in any model family
(MatchingSingular), or an eigenvalue of the Robin realization.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import triple_core as tc
from .errors import (BirmanSchwingerSingular, BTripleError, ConfigError,
                     InvalidPotential, MatchingSingular, NotAnEigenvalue,
                     NotCertified)
from .harness import (_SCAN_GRID, _SCAN_REGION, SuiteConfig,
                      VerificationReport, _as_complex, _as_numbers,
                      decay_samples_csv, model_from_spec, run_bs_cross_check,
                      run_decay_suite, run_identity_suite)
from .triple_core import BoundaryOperator

WEYL_CSV_SCHEMA = "btriple-weyl-csv/1"
RESOLVE_CSV_SCHEMA = "btriple-resolve-csv/1"
EIGS_CSV_SCHEMA = "btriple-eigs-csv/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SINGULAR = 4

_SECTIONS = {"model", "potential", "boundary_operator", "lambda", "region",
             "output"}

_DEFAULT_REGION = {"rect": _SCAN_REGION, "grid": _SCAN_GRID}
_DEFAULT_LAMBDAS = (-1.0, -2.5, -6.0)


def _fmt(x):
    """Shortest round-trip decimal form."""
    return repr(float(x))


class CliConfig:
    """Validated view of the JSON configuration file."""

    def __init__(self, data=None, decay_default=False):
        data = {} if data is None else data
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        extra = set(data) - _SECTIONS
        if extra:
            raise ConfigError(f"unknown config sections {sorted(extra)}")

        model = data.get("model", {})
        if not isinstance(model, dict):
            raise ConfigError("model section must be a mapping")
        if "potential" in model:
            raise ConfigError("potential is its own top-level section")
        family = model.get("family", "shoot1d" if decay_default else "fd1d")
        spec = {k: v for k, v in model.items() if k != "family"}
        spec["model"] = family
        if "potential" in data:
            spec["potential"] = data["potential"]
        self.model_spec = spec

        self.boundary = data.get("boundary_operator", {"kind": "zero"})
        if not isinstance(self.boundary, dict):
            raise ConfigError("boundary_operator section must be a mapping")

        lam_section = data.get("lambda", {"points": list(_DEFAULT_LAMBDAS)})
        if not isinstance(lam_section, dict) or set(lam_section) - {"points"}:
            raise ConfigError("lambda section accepts only 'points'")
        points = lam_section.get("points", [])
        if not isinstance(points, list):
            raise ConfigError("lambda.points must be a list")
        self.lambda_points = [_as_complex(p, "lambda.points") for p in points]

        region = data.get("region", dict(_DEFAULT_REGION))
        if not isinstance(region, dict) or set(region) - {"rect", "grid"}:
            raise ConfigError("region section accepts only 'rect' and 'grid'")
        self.region = _as_numbers(region.get("rect", _DEFAULT_REGION["rect"]),
                                  "region.rect")
        self.grid = _as_numbers(region.get("grid", _DEFAULT_REGION["grid"]),
                                "region.grid", integer=True)
        try:
            self.region, self.grid = tc.scan_window(self.region, self.grid)
        except ValueError as exc:
            raise ConfigError(f"region section: {exc}") from exc

        output = data.get("output", {})
        if not isinstance(output, dict) or set(output) - {"stem"}:
            raise ConfigError("output section accepts only 'stem'")
        self.stem = output.get("stem")

    @classmethod
    def load(cls, path, decay_default=False):
        if path is None:
            return cls(decay_default=decay_default)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls(data, decay_default=decay_default)

    def build_model(self):
        return model_from_spec(self.model_spec)

    def boundary_operator(self, dim):
        spec = self.boundary
        kind = spec.get("kind")
        if kind == "zero":
            if set(spec) - {"kind"}:
                raise ConfigError("zero boundary operator takes no parameters")
            return BoundaryOperator.scalar(0.0, dim)
        if kind == "scalar":
            if set(spec) - {"kind", "beta"}:
                raise ConfigError("scalar boundary operator takes only 'beta'")
            if "beta" not in spec:
                raise ConfigError("scalar boundary operator needs 'beta'")
            return BoundaryOperator.scalar(
                _as_complex(spec["beta"], "boundary_operator.beta"), dim)
        if kind == "matrix":
            if set(spec) - {"kind", "entries"}:
                raise ConfigError("matrix boundary operator takes only 'entries'")
            entries = spec.get("entries")
            if not isinstance(entries, list) or not all(
                    isinstance(row, list) for row in entries):
                raise ConfigError("matrix boundary operator needs 'entries' "
                                  "as a list of rows")
            if len(entries) != dim or any(len(row) != dim for row in entries):
                raise ConfigError(
                    f"boundary operator entries must be {dim} rows of {dim}: "
                    f"the model boundary space has dimension {dim}")
            return BoundaryOperator(matrix=[
                [_as_complex(v, "boundary_operator.entries") for v in row]
                for row in entries])
        raise ConfigError(f"unknown boundary_operator kind {kind!r}")

    def suite_config(self, seed):
        return SuiteConfig(models=(self.model_spec,),
                           complex_scan_regions=(self.region,),
                           seed=seed)


def _out_path(args, default_stem, ext, stem=None):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, f"{stem or default_stem}.{ext}")


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


def cmd_weyl(args):
    config = CliConfig.load(args.config)
    model = config.build_model()
    dim = model.boundary_dim
    header = ["re_lambda", "im_lambda"]
    for i in range(dim):
        for j in range(dim):
            header.extend([f"m{i}{j}_re", f"m{i}{j}_im"])
    header.append("spectral_norm")
    lines = [
        f"# {WEYL_CSV_SCHEMA}",
        "# columns: Re lambda, Im lambda, then Re/Im of M(lambda) entries "
        "in row-major order, then the spectral norm",
        ",".join(header),
    ]
    for lam in config.lambda_points:
        ws = tc.weyl(model, lam, allow_uncertified=args.allow_uncertified)
        row = [_fmt(ws.lam.real), _fmt(ws.lam.imag)]
        for value in ws.m.reshape(-1):
            row.extend([_fmt(value.real), _fmt(value.imag)])
        row.append(_fmt(ws.norm))
        lines.append(",".join(row))
    _write(_out_path(args, "weyl", "csv", config.stem), "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_resolve(args):
    config = CliConfig.load(args.config)
    model = config.build_model()
    if not config.lambda_points:
        raise ConfigError("resolve needs at least one lambda point")
    lam = config.lambda_points[0]
    b = config.boundary_operator(model.boundary_dim)
    rng = np.random.default_rng(args.seed)
    f = np.asarray(model.random_domain_vector(rng), dtype=complex)
    u = tc.krein_resolvent(model, b, lam, f,
                           allow_uncertified=args.allow_uncertified)
    res = model.apply_T(u) - lam * u
    residual = model.hnorm(res - f) / max(model.hnorm(f), 1e-300)
    t0 = model.trace0(u)
    t1 = model.trace1(u)
    lines = [
        f"# {RESOLVE_CSV_SCHEMA}",
        f"# lambda={_fmt(lam.real)}{lam.imag:+}j rhs_seed={args.seed}",
        "index,re_u,im_u",
    ]
    for idx, value in enumerate(np.asarray(u, dtype=complex)):
        lines.append(f"{idx},{_fmt(value.real)},{_fmt(value.imag)}")
    lines.append(f"# residual={_fmt(residual)}")
    lines.append("# trace0=" + ";".join(
        f"{_fmt(v.real)}{v.imag:+}j" for v in t0))
    lines.append("# trace1=" + ";".join(
        f"{_fmt(v.real)}{v.imag:+}j" for v in t1))
    _write(_out_path(args, "resolve", "csv", config.stem),
           "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_eigs(args):
    config = CliConfig.load(args.config)
    model = config.build_model()
    b = config.boundary_operator(model.boundary_dim)
    roots = tc.robin_eigs(model, b, config.region, config.grid)
    lines = [
        f"# {EIGS_CSV_SCHEMA}",
        f"# region={list(config.region)} grid={list(config.grid)}",
        "re_lambda,im_lambda",
    ]
    for z in roots:
        lines.append(f"{_fmt(z.real)},{_fmt(z.imag)}")
    _write(_out_path(args, "eigs", "csv", config.stem), "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_decay(args):
    config = CliConfig.load(args.config, decay_default=True)
    suite = config.suite_config(args.seed)
    report = run_decay_suite(suite)
    text = decay_samples_csv(report)
    footers = []
    for rec in report.records:
        exponent = rec.parameters.get("exponent")
        band = rec.parameters.get("band")
        if exponent is None:
            footers.append(f"# model={rec.model} decay fit failed: "
                           f"{rec.parameters.get('error', 'unknown')}")
            continue
        footers.append(f"# exponent={exponent:.4f}±{band:.4f} "
                       f"model={rec.model} amplitude="
                       f"{rec.parameters['amplitude']:.6g}")
    _write(_out_path(args, "decay", "csv", config.stem),
           text + "\n".join(footers) + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_verify(args):
    config = CliConfig.load(args.config)
    suite = config.suite_config(args.seed)
    identity = run_identity_suite(suite)
    decay = run_decay_suite(suite)
    cross = run_bs_cross_check(suite)
    records = identity.records + decay.records + cross.records
    timings = {
        "identity": identity.timings,
        "decay": decay.timings,
        "bs_cross_check": cross.timings,
    }
    report = VerificationReport.from_records(records, timings)
    _write(_out_path(args, "report", "json", config.stem), report.to_json())
    csv_stem = f"{config.stem}-summary" if config.stem else "report"
    _write(_out_path(args, "report", "csv", csv_stem), report.to_csv())
    print(f"checks passed: {report.summary['passed']}/{report.summary['total']}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


_COMMANDS = {
    "weyl": cmd_weyl,
    "resolve": cmd_resolve,
    "eigs": cmd_eigs,
    "decay": cmd_decay,
    "verify": cmd_verify,
}


# the dense solves are too small for BLAS threads: on 2 CPUs threaded
# OpenBLAS about doubles the wall time of verify (perfbench/blas_threads.py)
_BLAS_NOTE = ("On hosts with few cores, set OPENBLAS_NUM_THREADS=1 in the "
              "environment before the run; threaded BLAS slows the small "
              "dense solves down.")


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative: {seed}")
    return seed


def build_parser():
    parser = argparse.ArgumentParser(
        prog="btriple",
        description="boundary triples of Schrodinger operators with complex "
                    "potentials: Weyl functions, Robin resolvents, "
                    "eigenvalue scans, and verification reports",
        epilog=_BLAS_NOTE)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("weyl", "sample the Weyl function over lambda points"),
            ("resolve", "apply the Robin resolvent to a seeded right-hand side"),
            ("eigs", "scan a complex rectangle for Robin eigenvalues"),
            ("decay", "fit the large-|lambda| decay of ||M(lambda)||"),
            ("verify", "run the full verification suites")):
        p = sub.add_parser(name, help=help_text, epilog=_BLAS_NOTE)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="JSON configuration file")
        if name in ("weyl", "resolve"):  # the commands that gate lambda
            p.add_argument("--allow-uncertified", action="store_true",
                           help="evaluate outside the certified half-line")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory")
        if name in ("resolve", "decay", "verify"):  # the commands that draw
            p.add_argument("--seed", type=_seed, default=7, metavar="N",
                           help="seed for every random draw")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InvalidPotential) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotCertified as exc:
        print(f"config error: {exc}; on the command line, rerun with "
              "--allow-uncertified", file=sys.stderr)
        return EXIT_CONFIG
    except (BirmanSchwingerSingular, MatchingSingular, NotAnEigenvalue) as exc:
        print(f"spectral singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except BTripleError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
