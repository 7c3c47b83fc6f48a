"""Verification suites: identity checks, decay fits, and eigenvalue
cross-checks, aggregated into serializable reports.

Every check lands in the report as a record {check_name, model, parameters,
defect, tolerance, pass}; failures are entries, never exceptions, so the
report is always complete. A suite builds each configured model and hands
it to a per-model body that writes its records through ``_Records``:
``add`` appends a record at the configured tolerance, and a check that can
fail runs inside ``guard(check, params, *siblings)``, which turns a
BTripleError, or the ValueError of a library input gate (the non-finite
points of a model whose certified threshold is -inf), into a failing record
(defect inf, the error text added to its params) for that check and every
sibling check its body writes, so which records a run writes does not
depend on which checks fail. A fixed seed makes the whole run
deterministic: random draws come from SeedSequence children spawned per
model and check family in a fixed order, and the checks run one after
another in that order, so re-running with the same configuration produces
byte-identical JSON up to the timing subtree.
Non-finite numbers (the defect of a failing record, for one) are written
as JSON null, so a report is strict JSON whether or not its checks pass.
"""

from __future__ import annotations

import cmath
import json
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import triple_core as tc
from .errors import BTripleError, ConfigError
from .model_disk import DiskModelConfig, build_disk
from .model_fd1d import build_fd1d
from .model_shoot1d import ShootConfig, build_shoot1d
from .numerics import eig_dense, solve_linear
# not called here; the traced benchmark run patches the names in this module
from .numerics import fit_log_slope, smallest_singular_value  # noqa: F401
from .potentials import Potential1D
from .triple_core import BoundaryOperator

REPORT_SCHEMA = "btriple-report/2"
CSV_SCHEMA = "btriple-report-csv/1"
DECAY_CSV_SCHEMA = "btriple-decay-csv/1"

# Registry of invariant-backed checks. Which names a run emits depends on
# the TripleModel hooks of its models: weyl_mode_diagonal needs
# mode_weyl_values (disks), adjoint_matrices, krein_vs_dense and the
# bs_hausdorff_dense/bs_kernel_residual pair need dense_robin (fd1d), and
# bs_reference_match needs reference_robin_eigs (V = 0 interior disk).
# tests/test_harness.py::TestRegistryCoverage checks that a small
# fd1d-plus-disk run emits every name.
CHECK_REGISTRY = {
    "green_identity": "abstract Green identity on random carrier pairs",
    "green_on_kernels": "Green identity on gamma-field outputs",
    "adjoint_matrices": "reduced matrices of the pair are mutual adjoints",
    "adjoint_resolvent": "Neumann resolvents of the pair are mutual adjoints",
    "gamma_kernel_ode": "gamma(lambda) columns solve (T - lambda) f = 0",
    "gamma_kernel_trace": "trace0 of gamma(lambda) columns is the identity",
    "weyl_symmetry": "M(lambda) equals the adjoint of M~(conj lambda)",
    "difference_identity": "Weyl difference identity with the gamma Gram matrix",
    "gamma_resolvent_identity": "gamma(lambda) from gamma(nu) via the resolvent",
    "resolvent_first_identity": "first resolvent identity of the Neumann solve",
    "krein_pde_residual": "Krein resolvent solves (T - lambda) u = f",
    "krein_bc_residual": "Krein resolvent satisfies the Robin boundary condition",
    "krein_vs_dense": "Krein formula agrees with the dense constrained solve",
    "krein_adjoint_mirror": "Krein resolvents of the pair are mutual adjoints",
    "weyl_mode_diagonal": "diagonal mode Weyl values match the generic assembly",
    "sectorial_c1_bound": "factorization corrector stays within norm 1/2",
    "sectorial_defect": "sectorial factorization reproduces the resolvent",
    "c1_zero_potential": "corrector vanishes identically for V = 0",
    "threshold_negative": "certified threshold sits strictly below zero",
    "relative_bound_decreasing": "||V (H_N - lambda)^-1|| decreases along the ray",
    "relative_bound_vanishing": "||V (H_N - lambda)^-1|| tends to zero",
    "decay_exponent": "fitted log-log decay exponent of ||M(lambda)||",
    "bs_empty_certified": "no Birman-Schwinger roots on the certified half-line",
    "bs_hausdorff_dense": "indicator roots match the dense eigensolve",
    "bs_reference_match": "indicator roots match the mode reference values",
    "bs_kernel_residual": "lifted kernel vectors are eigenvectors",
}

# defect tolerances by (check, model kind); "*" is the kind wildcard
_DEFAULT_TOLERANCES = {
    ("green_identity", "fd1d"): 1e-12,
    ("green_identity", "*"): 1e-8,
    ("green_on_kernels", "fd1d"): 1e-12,
    ("green_on_kernels", "*"): 1e-8,
    ("adjoint_matrices", "*"): 1e-13,
    ("adjoint_resolvent", "fd1d"): 1e-12,
    ("adjoint_resolvent", "*"): 1e-8,
    ("gamma_kernel_ode", "fd1d"): 1e-10,
    ("gamma_kernel_ode", "*"): 1e-7,
    ("gamma_kernel_trace", "fd1d"): 1e-12,
    ("gamma_kernel_trace", "*"): 1e-9,
    ("weyl_symmetry", "fd1d"): 1e-10,
    ("weyl_symmetry", "*"): 1e-8,
    ("difference_identity", "fd1d"): 1e-10,
    ("difference_identity", "*"): 1e-8,
    ("gamma_resolvent_identity", "fd1d"): 1e-10,
    ("gamma_resolvent_identity", "*"): 1e-8,
    ("resolvent_first_identity", "fd1d"): 1e-11,
    ("resolvent_first_identity", "*"): 1e-8,
    ("krein_pde_residual", "fd1d"): 1e-10,
    ("krein_pde_residual", "*"): 1e-8,
    ("krein_bc_residual", "fd1d"): 1e-10,
    ("krein_bc_residual", "*"): 1e-8,
    ("krein_vs_dense", "*"): 1e-8,
    ("krein_adjoint_mirror", "fd1d"): 1e-11,
    ("krein_adjoint_mirror", "*"): 1e-8,
    ("weyl_mode_diagonal", "*"): 1e-9,
    ("sectorial_c1_bound", "*"): 0.5,
    ("sectorial_defect", "*"): 1e-9,
    ("c1_zero_potential", "*"): 1e-10,
    ("threshold_negative", "*"): 1e-12,
    ("relative_bound_decreasing", "*"): 1e-12,
    ("relative_bound_vanishing", "*"): 1e-2,
    ("decay_exponent", "*"): 0.05,
    ("decay_exponent_bounded", "*"): 1e-12,
    ("bs_empty_certified", "*"): 1e-12,
    ("bs_hausdorff_dense", "*"): 1e-6,
    ("bs_reference_match", "*"): 1e-8,
    ("bs_kernel_residual", "fd1d"): 1e-9,
    ("bs_kernel_residual", "*"): 1e-7,
}

# the keys a tolerance override may take: "check" or "check:kind", with kind
# the TripleModel.kind of a family
_OVERRIDE_KEYS = {check + suffix for check, _ in _DEFAULT_TOLERANCES
                  for suffix in ("", ":fd1d", ":shoot1d", ":disk-interior",
                                 ":disk-exterior")}


def _json_float(value):
    value = float(value)
    return value if np.isfinite(value) else None


def _jsonable(value):
    """Recursively convert values into JSON-native structures; complex
    numbers become [re, im] pairs and non-finite floats become None."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (complex, np.complexfloating)):
        value = complex(value)
        if value.imag == 0.0:
            return _json_float(value.real)
        return [_json_float(value.real), _json_float(value.imag)]
    if isinstance(value, (float, np.floating)):
        return _json_float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


# ---------------------------------------------------------------------------
# config-to-object builders (shared with the CLI)

_POTENTIAL_KEYS = {
    "zero": set(),
    "constant": {"value"},
    "power": {"c", "x0", "alpha", "p"},
}


def _as_complex(value, where):
    """A finite complex from a number or an [re, im] pair; anything else,
    NaN and infinities included, is a ConfigError."""
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    parts = value if pair else [value]
    if not all(isinstance(v, (int, float)) for v in parts):
        raise ConfigError(f"{where}: expected a number or [re, im] pair")
    z = complex(*parts)
    if not cmath.isfinite(z):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return z


def _as_numbers(values, convert, where):
    """Tuple of convert(v) over values; malformed or non-finite input is a
    ConfigError."""
    try:
        out = tuple(convert(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: expected numbers ({exc})") from exc
    if not all(cmath.isfinite(v) for v in out):
        raise ConfigError(f"{where}: expected finite numbers, got {values!r}")
    return out


def potential_from_spec(spec):
    """Potential1D from a config mapping: {'kind': 'zero' | 'constant' |
    'power', ...}. Unknown kinds and keys are rejected."""
    if spec is None:
        return Potential1D.zero()
    if not isinstance(spec, dict):
        raise ConfigError("potential must be a mapping")
    kind = spec.get("kind")
    if kind not in _POTENTIAL_KEYS:
        raise ConfigError(f"unknown potential kind {kind!r}")
    extra = set(spec) - _POTENTIAL_KEYS[kind] - {"kind"}
    if extra:
        raise ConfigError(f"unknown potential keys {sorted(extra)}")
    if kind == "zero":
        return Potential1D.zero()
    if kind == "constant":
        if "value" not in spec:
            raise ConfigError("constant potential needs 'value'")
        return Potential1D.constant(_as_complex(spec["value"], "potential.value"))
    missing = _POTENTIAL_KEYS["power"] - set(spec)
    if missing:
        raise ConfigError(f"power potential needs keys {sorted(missing)}")
    x0, alpha, p = _as_numbers((spec["x0"], spec["alpha"], spec["p"]), float,
                               "potential x0, alpha, p")
    return Potential1D.power_singularity(
        _as_complex(spec["c"], "potential.c"), x0, alpha, p)


_MODEL_KEYS = {
    "fd1d": {"n", "length", "potential"},
    "shoot1d": {"length", "potential", "rtol", "atol", "panels", "order",
                "fd_nodes"},
    "disk": {"side", "k_max", "potential", "support", "radial_grid", "r_cut",
             "quad_panels", "quad_order"},
}


def model_from_spec(spec):
    """Build a TripleModel from a config mapping with a 'model' key naming
    the family (fd1d | shoot1d | disk). Unknown keys are rejected."""
    if not isinstance(spec, dict):
        raise ConfigError("model spec must be a mapping")
    name = spec.get("model")
    if name not in _MODEL_KEYS:
        raise ConfigError(f"unknown model family {name!r}")
    extra = set(spec) - _MODEL_KEYS[name] - {"model"}
    if extra:
        raise ConfigError(f"unknown model keys {sorted(extra)}")
    pot = potential_from_spec(spec.get("potential"))
    try:
        if name == "fd1d":
            return build_fd1d(int(spec.get("n", 96)),
                              float(spec.get("length", 1.0)), pot)
        if name == "shoot1d":
            cfg = ShootConfig(length=float(spec.get("length", 1.0)),
                              potential=pot,
                              rtol=float(spec.get("rtol", 1e-10)),
                              atol=float(spec.get("atol", 1e-12)))
            return build_shoot1d(cfg, panels=int(spec.get("panels", 8)),
                                 order=int(spec.get("order", 16)),
                                 fd_nodes=int(spec.get("fd_nodes", 512)))
        kwargs = {
            "side": spec.get("side", "interior"),
            "k_max": int(spec.get("k_max", 16)),
            "radial_potential": pot if not pot.is_zero else None,
        }
        if "support" in spec:
            lo, hi = spec["support"]
            kwargs["support"] = (float(lo), float(hi))
        for key in ("radial_grid", "quad_panels", "quad_order"):
            if key in spec:
                kwargs[key] = int(spec[key])
        if "r_cut" in spec:
            kwargs["r_cut"] = float(spec["r_cut"])
        return build_disk(DiskModelConfig(**kwargs))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {name} parameters: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration and report containers


@dataclass(frozen=True)
class SuiteConfig:
    """What to verify: model specs, scan regions, tolerance overrides, and
    the non-negative seed that fixes every random draw. The identity suite
    samples the points of ``_LAMBDA_GRID`` below each model's certified
    threshold."""

    models: tuple = ({"model": "fd1d"},)
    complex_scan_regions: tuple = ()
    tolerances: dict = field(default_factory=dict)
    seed: int = 7

    def __post_init__(self):
        regions = tuple(tuple(float(x) for x in region)
                        for region in self.complex_scan_regions)
        object.__setattr__(self, "complex_scan_regions", regions)
        unknown = set(self.tolerances) - _OVERRIDE_KEYS
        if unknown:
            raise ConfigError(
                f"unknown tolerance override keys {sorted(map(str, unknown))}: "
                "a key is a check name, or check:kind with a model kind")
        for key, value in self.tolerances.items():
            if not value > 0.0:
                raise ConfigError(f"tolerance override {key!r} must be positive")
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative: {self.seed}")

    def tolerance(self, check, kind):
        for key in (f"{check}:{kind}", check):
            if key in self.tolerances:
                return float(self.tolerances[key])
        for key in ((check, kind), (check, "*")):
            if key in _DEFAULT_TOLERANCES:
                return float(_DEFAULT_TOLERANCES[key])
        raise KeyError(f"no tolerance registered for check {check!r}")


@dataclass(frozen=True)
class CheckRecord:
    """One verified fact; passed is defined as defect <= tolerance."""

    check_name: str
    model: str
    parameters: dict
    defect: float
    tolerance: float

    @property
    def passed(self):
        return self.defect <= self.tolerance

    def as_dict(self):
        return {
            "check_name": self.check_name,
            "model": self.model,
            "parameters": _jsonable(self.parameters),
            "defect": _json_float(self.defect),
            "tolerance": _json_float(self.tolerance),
            "pass": bool(self.passed),
        }


def _environment():
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


@dataclass
class VerificationReport:
    """Ordered check records plus summary, environment, and timings."""

    records: list
    summary: dict
    environment: dict
    timings: dict

    @property
    def passed(self):
        return all(rec.passed for rec in self.records)

    @classmethod
    def from_records(cls, records, timings=None):
        summary = {
            "total": len(records),
            "passed": sum(1 for rec in records if rec.passed),
            "failed": sum(1 for rec in records if not rec.passed),
        }
        return cls(records=list(records), summary=summary,
                   environment=_environment(), timings=dict(timings or {}))

    def to_json(self, include_timings=True):
        payload = {
            "schema": REPORT_SCHEMA,
            "summary": self.summary,
            "environment": self.environment,
            "records": [rec.as_dict() for rec in self.records],
        }
        if include_timings:
            payload["timings"] = self.timings
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if data.get("schema") != REPORT_SCHEMA:
            raise ConfigError(f"unexpected report schema {data.get('schema')!r}")
        # as_dict writes a non-finite number (a failure's defect) as null
        def number(x):
            return float("inf") if x is None else x

        records = [CheckRecord(
            check_name=rec["check_name"], model=rec["model"],
            parameters=rec["parameters"], defect=number(rec["defect"]),
            tolerance=number(rec["tolerance"])) for rec in data["records"]]
        return cls(records=records, summary=data["summary"],
                   environment=data["environment"],
                   timings=data.get("timings", {}))

    def to_csv(self):
        lines = [f"# {CSV_SCHEMA}", "check_name,model,defect,tolerance,pass"]
        for rec in self.records:
            lines.append(f"{rec.check_name},{rec.model},{rec.defect!r},"
                         f"{rec.tolerance!r},{str(rec.passed).lower()}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# record writer and suite driver


class _Records(list):
    """The records of one model, in the order its checks ran."""

    def __init__(self, config, kind):
        super().__init__()
        self.config = config
        self.kind = kind

    def add(self, check, params, defect, tolerance_key=None):
        """Append check's record, its tolerance looked up under
        tolerance_key (by default the check's own name)."""
        self.append(CheckRecord(
            check_name=check, model=self.kind, parameters=params,
            defect=float(defect),
            tolerance=self.config.tolerance(tolerance_key or check, self.kind)))

    @contextmanager
    def guard(self, check, params, *siblings):
        """A BTripleError or ValueError raised inside becomes a failing
        record (defect inf, the error added to the params as they stand)
        for check and for each sibling check the body writes too, except
        those it wrote before the error; a run with failures keeps every
        record."""
        start = len(self)
        try:
            yield
        except (BTripleError, ValueError) as exc:
            written = {rec.check_name for rec in self[start:]}
            error = f"{type(exc).__name__}: {exc}"
            for name in (check,) + siblings:
                if name not in written:
                    self.add(name, dict(params, error=error), float("inf"))


def _run_suite(config, per_model):
    """One report over the configured models. per_model(out, model, seed)
    adds a model's records to out; seed is that model's child of
    SeedSequence(config.seed)."""
    config = config or SuiteConfig()
    t0 = time.perf_counter()
    specs = [dict(spec) for spec in config.models]
    seeds = np.random.SeedSequence(config.seed).spawn(len(specs))
    records = []
    for spec, seed in zip(specs, seeds):
        model = model_from_spec(spec)
        out = _Records(config, model.kind)
        per_model(out, model, seed)
        records.extend(out)
    return VerificationReport.from_records(
        records, {"wall_seconds": time.perf_counter() - t0})


# ---------------------------------------------------------------------------
# identity suite


# the identity suite's spectral points, where they lie below the certified
# threshold; fewer than 3 there and multiples of the threshold stand in
_LAMBDA_GRID = (-0.7, -1.6, -3.5, -8.0)


def _certified_lams(model):
    thr = model.certified_threshold()
    lams = [lam for lam in _LAMBDA_GRID if lam < thr]
    if len(lams) < 3:
        lams = [thr * factor for factor in (1.5, 2.5, 4.0, 7.0)]
    return lams


def _counts_for(kind):
    # fd1d ops are tridiagonal solves; continuum kernels cost real time
    if kind == "fd1d":
        return {"green": 50, "adjoint_res": 20, "pairs": 12,
                "resolvent_id": 8, "krein": 15, "krein_dense": 12,
                "krein_adj": 6, "green_kernel": 12}
    return {"green": 8, "adjoint_res": 4, "pairs": 4, "resolvent_id": 2,
            "krein": 3, "krein_dense": 0, "krein_adj": 2, "green_kernel": 4}


def _pairs_of(lams, count):
    n = len(lams)
    return [(lams[i % n], lams[(i * 2 + 1) % n]) for i in range(count)]


def _basis_subset(model, per_side=2):
    basis = model.boundary_basis()
    if len(basis) <= 2 * per_side:
        idx = range(len(basis))
    else:
        idx = list(range(per_side)) + list(range(len(basis) - per_side,
                                                 len(basis)))
    return [(j, basis[j]) for j in idx]


def _random_b(rng, dim, scale=0.7):
    m = scale * (rng.standard_normal((dim, dim))
                 + 1j * rng.standard_normal((dim, dim)))
    return BoundaryOperator(matrix=m)


def _check_green(out, model, lams, rng):
    proxy = model.v_sup_proxy()
    for i in range(_counts_for(out.kind)["green"]):
        f = model.random_domain_vector(rng)
        g = model.random_domain_vector(rng)
        scale = model.hnorm(f) * model.hnorm(g) * (1.0 + proxy)
        params = {"draw": i, "scale": scale}
        with out.guard("green_identity", params):
            out.add("green_identity", params,
                    abs(tc.green_defect(model, f, g)) / max(scale, 1e-300))


def _check_adjoint(out, model, lams, rng):
    if model.dense_robin is not None:
        zero = BoundaryOperator.scalar(0.0, model.boundary_dim)
        a0 = model.dense_robin(zero)
        a0t = model.dense_robin(zero, tilde=True)
        out.add("adjoint_matrices", {}, np.max(np.abs(a0t - a0.conj().T)))
    for i in range(_counts_for(out.kind)["adjoint_res"]):
        lam = lams[i % len(lams)]
        f = model.random_domain_vector(rng)
        g = model.random_domain_vector(rng)
        params = {"lambda": lam, "draw": i}
        with out.guard("adjoint_resolvent", params):
            left = model.inner(model.neumann_resolvent(lam, f), g)
            right = model.inner(f, model.neumann_resolvent_tilde(
                np.conjugate(lam), g))
            scale = max(abs(left), abs(right),
                        model.hnorm(f) * model.hnorm(g) / max(abs(lam), 1.0))
            out.add("adjoint_resolvent", params,
                    abs(left - right) / max(scale, 1e-300))


def _check_gamma_kernel(out, model, lams, rng):
    for lam in lams:
        for j, e in _basis_subset(model):
            params = {"lambda": lam, "column": j}
            with out.guard("gamma_kernel_ode", params, "gamma_kernel_trace"):
                col = model.solve_bvp(lam, e)
                res = model.apply_T(col) - lam * col
                ode = model.hnorm(res) / max(model.hnorm(col), 1e-300)
                tr = np.max(np.abs(model.trace0(col) - e))
                out.add("gamma_kernel_ode", params, ode)
                out.add("gamma_kernel_trace", params, tr)


def _check_weyl(out, model, lams, rng):
    pairs = _pairs_of(lams, _counts_for(out.kind)["pairs"])
    norms = {}  # ||M(lambda)|| of each lambda whose Weyl sample was built
    for lam in lams:
        params = {"lambda": lam}
        with out.guard("weyl_symmetry", params):
            sample = tc.weyl(model, lam)
            norms[lam] = sample.norm
            out.add("weyl_symmetry", params,
                    sample.symmetry_defect() / max(sample.norm, 1e-300))
    for lam, mu in pairs:
        params = {"lambda": lam, "mu": mu}
        with out.guard("difference_identity", params):
            norm = norms[lam] if lam in norms else tc.weyl(model, lam).norm
            defect = tc.difference_identity_defect(model, lam, mu)
            out.add("difference_identity", params, defect / max(norm, 1e-300))
    basis = model.boundary_basis()
    for i, (lam, nu) in enumerate(pairs):
        if lam == nu:
            nu = nu * 1.5
        j = i % len(basis)
        params = {"lambda": lam, "nu": nu, "column": j}
        with out.guard("gamma_resolvent_identity", params):
            out.add("gamma_resolvent_identity", params,
                    tc.gamma_resolvent_identity_defect(model, lam, nu,
                                                       basis[j]))
    for lam in lams[:2]:
        params = {"lambda": lam}
        with out.guard("weyl_mode_diagonal", params):
            fast = model.mode_weyl_values(lam)
            if fast is None:
                break  # no diagonal form to compare
            generic = np.stack([model.trace1(model.solve_bvp(lam, e))
                                for e in basis], axis=1)
            scale = max(float(np.max(np.abs(generic))), 1e-300)
            out.add("weyl_mode_diagonal", params,
                    float(np.max(np.abs(np.diag(fast) - generic))) / scale)


def _check_green_kernels(out, model, lams, rng):
    basis = model.boundary_basis()
    proxy = model.v_sup_proxy()
    pairs = _pairs_of(lams, _counts_for(out.kind)["green_kernel"])
    for i, (lam, mu) in enumerate(pairs):
        columns = [i % len(basis), (i + 1) % len(basis)]
        params = {"lambda": lam, "mu": mu, "columns": columns}
        with out.guard("green_on_kernels", params):
            f = model.solve_bvp(lam, basis[columns[0]])
            g = model.solve_bvp_tilde(mu, basis[columns[1]])
            scale = model.hnorm(f) * model.hnorm(g) * (1.0 + proxy)
            out.add("green_on_kernels", params,
                    abs(tc.green_defect(model, f, g)) / max(scale, 1e-300))


def _check_resolvent_identity(out, model, lams, rng):
    for i in range(_counts_for(out.kind)["resolvent_id"]):
        lam = lams[i % len(lams)]
        mu = lams[(i + 1) % len(lams)]
        if lam == mu:
            mu = mu * 2.0
        f = model.random_domain_vector(rng)
        params = {"lambda": lam, "mu": mu, "draw": i}
        with out.guard("resolvent_first_identity", params):
            rl = model.neumann_resolvent(lam, f)
            rm = model.neumann_resolvent(mu, f)
            rr = model.neumann_resolvent(lam, rm)
            out.add("resolvent_first_identity", params,
                    model.hnorm(rl - rm - (lam - mu) * rr)
                    / max(model.hnorm(rl), 1e-300))


def _check_krein(out, model, lams, rng):
    counts = _counts_for(out.kind)
    dim = model.boundary_dim
    for i in range(counts["krein"]):
        lam = lams[i % len(lams)]
        b = _random_b(rng, dim)
        f = np.asarray(model.random_domain_vector(rng), dtype=complex)
        params = {"lambda": lam, "draw": i}
        with out.guard("krein_pde_residual", params, "krein_bc_residual"):
            u = tc.krein_resolvent(model, b, lam, f)
            res = model.apply_T(u) - lam * u - f
            pde = model.hnorm(res) / max(model.hnorm(f), 1e-300)
            t1 = model.trace1(u)
            bc = (float(np.max(np.abs(b.matrix @ t1 - model.trace0(u))))
                  / max(float(np.max(np.abs(t1))), 1e-300))
            out.add("krein_pde_residual", params, pde)
            out.add("krein_bc_residual", params, bc)
    for i in range(counts["krein_adj"]):
        lam = lams[i % len(lams)]
        b = _random_b(rng, dim)
        f = model.random_domain_vector(rng)
        g = model.random_domain_vector(rng)
        params = {"lambda": lam, "draw": i}
        with out.guard("krein_adjoint_mirror", params):
            left = model.inner(tc.krein_resolvent(model, b, lam, f), g)
            bt = BoundaryOperator(matrix=b.matrix.conj().T)
            right = model.inner(f, tc.krein_resolvent_tilde(
                model, bt, np.conjugate(lam), g))
            out.add("krein_adjoint_mirror", params,
                    abs(left - right) / max(abs(left), abs(right), 1e-300))
    if model.dense_robin is None:
        return
    for i in range(counts["krein_dense"]):
        lam = lams[i % len(lams)]
        b = _random_b(rng, dim)
        f = np.asarray(model.random_domain_vector(rng), dtype=complex)
        params = {"lambda": lam, "draw": i}
        with out.guard("krein_vs_dense", params):
            u = tc.krein_resolvent(model, b, lam, f)
            a_b = model.dense_robin(b)
            m = a_b.shape[0]
            dense = solve_linear(a_b - lam * np.eye(m), f[1:m + 1])
            uc = np.asarray(u, dtype=complex)[1:m + 1]
            out.add("krein_vs_dense", params, np.linalg.norm(uc - dense)
                    / max(np.linalg.norm(dense), 1e-300))


def _check_sectorial(out, model, lams, rng):
    for lam in lams[:3]:
        params = {"lambda": lam}
        with out.guard("sectorial_c1_bound", params, "sectorial_defect"):
            fact = tc.sectorial_factorization(model, lam, rng)
            out.add("sectorial_c1_bound", params, fact.c1_norm)
            out.add("sectorial_defect", params, fact.defect / fact.resolvent_norm)
    if not model.has_potential:
        for lam in lams[:2]:
            params = {"lambda": lam}
            with out.guard("c1_zero_potential", params):
                out.add("c1_zero_potential", params, tc.c1_norm_at(model, lam))
    thr = model.certified_threshold()
    out.add("threshold_negative", {"threshold": thr},  # -inf: none found
            max(0.0, thr + 1e-6) if np.isfinite(thr) else np.inf)
    ray = [-10.0 ** k for k in range(1, 6)]
    params = {"lambda_ray": ray}
    with out.guard("relative_bound_decreasing", params,
                   "relative_bound_vanishing"):
        norms = [norm for _, norm in tc.relative_bound_decay(model, ray)]
        out.add("relative_bound_decreasing", params,
                max(0.0, float(np.diff(norms).max())))
        out.add("relative_bound_vanishing", params,
                norms[-1] / norms[0] if norms[0] > 0 else 0.0)


_IDENTITY_FAMILIES = (
    _check_green,
    _check_adjoint,
    _check_gamma_kernel,
    _check_weyl,
    _check_green_kernels,
    _check_resolvent_identity,
    _check_krein,
    _check_sectorial,
)


def _identity_checks(out, model, seed):
    # one SeedSequence child per family, whether or not it draws
    lams = _certified_lams(model)
    fseeds = seed.spawn(len(_IDENTITY_FAMILIES))
    for family, fseed in zip(_IDENTITY_FAMILIES, fseeds):
        family(out, model, lams, np.random.default_rng(fseed.spawn(1)[0]))


def run_identity_suite(config=None):
    """Every operator-identity invariant, on every configured model, as one
    report. Failures are failing records, not exceptions."""
    return _run_suite(config, _identity_checks)


# ---------------------------------------------------------------------------
# decay suite


def _decay_lams(kind, threshold):
    """Certified geometric ray. The continuum rays stop at |lambda| = 4.5e5.
    That cap is no floating-point limit (the disk's scaled Bessel kernels
    run to -1.024e7); it stays so that the decay_exponent records keep
    their rays until the ray becomes a model decision."""
    start = min(-4.0, 2.0 * threshold)
    if kind == "fd1d":
        # the fixed grid cannot follow |lambda| -> inf; keep a short ray
        return [start * 4.0 ** k for k in range(5)]
    cap = 4.5e5
    count = 1
    while count < 8 and abs(start) * 4.0 ** count <= cap:
        count += 1
    return [start * 4.0 ** k for k in range(count)]


def _decay_checks(out, model, seed):
    lams = _decay_lams(out.kind, model.certified_threshold())
    params = {"lambda_ray": lams}
    with out.guard("decay_exponent", params):
        points, (slope, intercept, stderr) = tc.weyl_decay_study(model, lams)
        params.update({
            "samples": [list(p) for p in points],
            "amplitude": float(np.exp(intercept)),
            "exponent": slope,
            "band": 1.96 * stderr,
        })
        if model.has_potential:
            out.add("decay_exponent", params, max(0.0, slope + 0.45),
                    tolerance_key="decay_exponent_bounded")
        else:
            out.add("decay_exponent", params, abs(slope + 0.5))


def run_decay_suite(config=None):
    """||M(lambda)|| along a geometric ray for every configured model, with
    the fitted amplitude, exponent, and a least-squares confidence band."""
    return _run_suite(config, _decay_checks)


def decay_samples_csv(report):
    """CSV of the decay samples: model, lambda, weyl_norm."""
    lines = [f"# {DECAY_CSV_SCHEMA}", "model,lambda,weyl_norm"]
    for rec in report.records:
        if rec.check_name != "decay_exponent":
            continue
        for mag, norm in rec.parameters.get("samples", []):
            lines.append(f"{rec.model},{-float(mag)!r},{float(norm)!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Birman-Schwinger cross-check suite


def _directed_match(reference, found):
    if not reference:
        return 0.0
    if not found:
        return float("inf")
    return float(max(min(abs(r - f) for f in found) for r in reference))


def _hausdorff(a, b):
    return max(_directed_match(a, b), _directed_match(b, a))


def _region_inset(region, frac=0.002):
    re0, re1, im0, im1 = region
    dre = (re1 - re0) * frac
    dim = (im1 - im0) * frac
    return (re0 + dre, re1 - dre, im0 + dim, im1 - dim)


def _in_region(z, region):
    re0, re1, im0, im1 = region
    return re0 <= z.real <= re1 and im0 <= z.imag <= im1


def _bs_checks(out, model, seed):
    rng = np.random.default_rng(seed.spawn(1)[0])
    thr = model.certified_threshold()
    dim = model.boundary_dim

    # B = 0: the certified half-line carries no eigenvalues
    region0 = (thr * 8.0, thr, -0.5, 0.5)
    grid0 = (40, 5) if out.kind == "fd1d" else (24, 3)
    params = {"region": list(region0)}
    with out.guard("bs_empty_certified", params):
        eigs0 = tc.robin_eigs(model, BoundaryOperator.scalar(0.0, dim),
                              region0, grid0)
        out.add("bs_empty_certified", params, len(eigs0))

    if model.dense_robin is not None:
        regions = out.config.complex_scan_regions or ((-20.0, 30.0, -6.0, 6.0),)
        for region in regions:
            inset = _region_inset(region)
            for i in range(5):
                b = _random_b(rng, dim, scale=1.0)
                params = {"region": list(region), "draw": i}
                with out.guard("bs_hausdorff_dense", params,
                               "bs_kernel_residual"):
                    found = [z for z in tc.robin_eigs(model, b, region, (96, 33))
                             if _in_region(z, inset)]
                    dense = [z for z in eig_dense(model.dense_robin(b))
                             if _in_region(z, inset)]
                    params["found"] = len(found)
                    params["dense"] = len(dense)
                    out.add("bs_hausdorff_dense", params,
                            _hausdorff(found, dense))
                    if found:
                        z0 = min(found, key=abs)
                        u = tc.bs_kernel_lift(model, b, z0, tol=1e-6)[0]
                        res = model.apply_T(u) - z0 * u
                        out.add("bs_kernel_residual", {"lambda": z0},
                                model.hnorm(res) / max(model.hnorm(u), 1e-300))

    if model.reference_robin_eigs is not None:
        for beta in (-1.0, 0.5, 1.0, 3.0):
            params = {"beta": beta}
            with out.guard("bs_reference_match", params):
                reference = model.reference_robin_eigs(beta)
                params["modes"] = len(reference) - 1
                hi = max(reference) * 1.05 + 1.0
                found = tc.robin_eigs(
                    model, BoundaryOperator.scalar(beta, dim),
                    (0.3, hi, -0.4, 0.4), (max(160, int(4 * hi)), 5))
                params["reference"] = reference
                params["found"] = len(found)
                out.add("bs_reference_match", params,
                        _directed_match(reference, found))


def run_bs_cross_check(config=None):
    """Eigenvalues as Birman-Schwinger indicator roots, cross-checked
    against the dense constrained eigensolve where the model provides the
    ``dense_robin`` hook (fd1d) and against closed-form roots where it
    provides ``reference_robin_eigs`` (the V = 0 interior disk)."""
    return _run_suite(config, _bs_checks)
