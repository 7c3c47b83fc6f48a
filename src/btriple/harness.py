"""Verification suites: identity checks, decay fits, and eigenvalue
cross-checks, aggregated into serializable reports.

Every check lands in the report as a record {check_name, model, parameters,
defect, tolerance, pass}; failures are entries, never exceptions, so the
report is always complete. A fixed seed makes the whole run deterministic:
random draws come from SeedSequence children spawned per model and check
family in a fixed order, and the checks run one after another in that
order, so re-running with the same configuration produces byte-identical
JSON up to the timing subtree. Non-finite numbers (the defect of a failing
record, for one) are written as JSON null, so a report is strict JSON
whether or not its checks pass.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import triple_core as tc
from .errors import BTripleError, ConfigError
from .model_disk import DiskModel, DiskModelConfig, build_disk, disk_robin_reference
from .model_fd1d import Fd1dModel, build_fd1d, dense_robin_matrix
from .model_shoot1d import ShootConfig, build_shoot1d
from .numerics import (eig_dense, fit_log_slope, smallest_singular_value,
                       solve_linear)
from .potentials import Potential1D
from .triple_core import BoundaryOperator

REPORT_SCHEMA = "btriple-report/2"
CSV_SCHEMA = "btriple-report-csv/1"
DECAY_CSV_SCHEMA = "btriple-decay-csv/1"

# Registry of invariant-backed checks. Which names a run emits depends on
# its model specs: the default SuiteConfig (fd1d only) emits neither
# weyl_mode_diagonal (disk models) nor bs_reference_match (interior disk
# with V = 0). tests/test_harness.py::TestRegistryCoverage checks that a
# small fd1d-plus-disk run emits every name.
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
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair")


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
    return Potential1D.power_singularity(
        _as_complex(spec["c"], "potential.c"), float(spec["x0"]),
        float(spec["alpha"]), float(spec["p"]))


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


def _model_kind(model):
    if isinstance(model, Fd1dModel):
        return "fd1d"
    if isinstance(model, DiskModel):
        return f"disk-{model.config.side}"
    return "shoot1d"


def _v_proxy(model):
    if isinstance(model, Fd1dModel):
        return model.v_sup_proxy()
    if isinstance(model, DiskModel):
        if not model.config.radial_potential.is_zero:
            lo, hi = model.config.support
            return model.config.radial_potential.sup_proxy(lo, hi)
        return 0.0
    return model.config.potential.sup_proxy(0.0, model.config.length)


def _has_zero_potential(model):
    if isinstance(model, Fd1dModel):
        return model.potential.is_zero
    if isinstance(model, DiskModel):
        return model.config.radial_potential.is_zero
    return model.config.potential.is_zero


# ---------------------------------------------------------------------------
# configuration and report containers


@dataclass(frozen=True)
class SuiteConfig:
    """What to verify: model specs, certified sample points, scan regions,
    tolerance overrides, and the seed that fixes every random draw."""

    models: tuple = ((("model", "fd1d"),),)
    lambda_grid: tuple = (-0.7, -1.6, -3.5, -8.0)
    complex_scan_regions: tuple = ()
    tolerances: dict = field(default_factory=dict)
    seed: int = 7

    def __post_init__(self):
        models = []
        for spec in self.models:
            if isinstance(spec, dict):
                models.append(tuple(sorted(spec.items())))
            else:
                models.append(tuple(tuple(item) for item in spec))
        object.__setattr__(self, "models", tuple(models))
        object.__setattr__(self, "lambda_grid",
                           tuple(float(v) for v in self.lambda_grid))
        regions = tuple(tuple(float(x) for x in region)
                        for region in self.complex_scan_regions)
        object.__setattr__(self, "complex_scan_regions", regions)
        for key, value in self.tolerances.items():
            if not value > 0.0:
                raise ConfigError(f"tolerance override {key!r} must be positive")
        object.__setattr__(self, "seed", int(self.seed))

    def model_specs(self):
        return [dict(items) for items in self.models]

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("suite config must be a mapping")
        known = {"models", "lambda_grid", "complex_scan_regions",
                 "tolerances", "seed"}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown suite keys {sorted(extra)}")
        kwargs = {}
        if "models" in data:
            kwargs["models"] = tuple(data["models"])
        for key in ("lambda_grid", "complex_scan_regions"):
            if key in data:
                kwargs[key] = tuple(data[key])
        if "tolerances" in data:
            kwargs["tolerances"] = dict(data["tolerances"])
        if "seed" in data:
            kwargs["seed"] = int(data["seed"])
        return cls(**kwargs)

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

    @classmethod
    def from_dict(cls, data):
        # as_dict writes a non-finite defect (a failure) as null
        def number(x):
            return float("inf") if x is None else x

        return cls(check_name=data["check_name"], model=data["model"],
                   parameters=data["parameters"],
                   defect=number(data["defect"]),
                   tolerance=number(data["tolerance"]))


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
        records = [CheckRecord.from_dict(rec) for rec in data["records"]]
        report = cls(records=records, summary=data["summary"],
                     environment=data["environment"],
                     timings=data.get("timings", {}))
        return report

    def to_csv(self):
        lines = [f"# {CSV_SCHEMA}", "check_name,model,defect,tolerance,pass"]
        for rec in self.records:
            lines.append(f"{rec.check_name},{rec.model},{rec.defect!r},"
                         f"{rec.tolerance!r},{str(rec.passed).lower()}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# identity suite


def _failure_record(config, check, kind, params, exc):
    params = dict(params)
    params["error"] = f"{type(exc).__name__}: {exc}"
    return CheckRecord(check_name=check, model=kind, parameters=params,
                       defect=float("inf"),
                       tolerance=config.tolerance(check, kind))


def _record(config, check, kind, params, defect):
    return CheckRecord(check_name=check, model=kind, parameters=params,
                       defect=float(defect),
                       tolerance=config.tolerance(check, kind))


def _certified_lams(config, model):
    thr = model.certified_threshold()
    lams = [lam for lam in config.lambda_grid if lam < thr]
    if len(lams) < 3:
        lams = [thr * factor for factor in (1.5, 2.5, 4.0, 7.0)]
    return lams


def _counts_for(kind):
    # fd1d ops are tridiagonal solves; continuum kernels cost real time
    if kind == "fd1d":
        return {"green": 50, "adjoint_res": 20, "gamma_cols": 2,
                "pairs": 12, "resolvent_id": 8, "krein": 15,
                "krein_dense": 12, "krein_adj": 6, "green_kernel": 12}
    return {"green": 8, "adjoint_res": 4, "gamma_cols": 2,
            "pairs": 4, "resolvent_id": 2, "krein": 3,
            "krein_dense": 0, "krein_adj": 2, "green_kernel": 4}


def _pairs_of(lams, count):
    pairs = []
    n = len(lams)
    for i in range(count):
        pairs.append((lams[i % n], lams[(i * 2 + 1) % n]))
    return pairs


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


def _check_green(config, model, kind, seeds):
    rng = np.random.default_rng(seeds[0])
    counts = _counts_for(kind)
    proxy = _v_proxy(model)
    out = []
    for i in range(counts["green"]):
        f = model.random_domain_vector(rng)
        g = model.random_domain_vector(rng)
        scale = model.hnorm(f) * model.hnorm(g) * (1.0 + proxy)
        params = {"draw": i, "scale": scale}
        try:
            defect = abs(tc.green_defect(model, f, g)) / max(scale, 1e-300)
            out.append(_record(config, "green_identity", kind, params, defect))
        except BTripleError as exc:
            out.append(_failure_record(config, "green_identity", kind,
                                       params, exc))
    return out


def _check_adjoint(config, model, kind, seeds):
    rng = np.random.default_rng(seeds[0])
    counts = _counts_for(kind)
    lams = _certified_lams(config, model)
    out = []
    if isinstance(model, Fd1dModel):
        a0 = model.hn_matrix() + model.v_matrix()
        a0t = model.hn_matrix() + np.conjugate(model.v_matrix())
        defect = float(np.max(np.abs(a0t - a0.conj().T)))
        out.append(_record(config, "adjoint_matrices", kind, {}, defect))
    for i in range(counts["adjoint_res"]):
        lam = lams[i % len(lams)]
        f = model.random_domain_vector(rng)
        g = model.random_domain_vector(rng)
        params = {"lambda": lam, "draw": i}
        try:
            left = model.inner(model.neumann_resolvent(lam, f), g)
            right = model.inner(f, model.neumann_resolvent_tilde(
                np.conjugate(lam), g))
            scale = max(abs(left), abs(right),
                        model.hnorm(f) * model.hnorm(g) / max(abs(lam), 1.0))
            defect = abs(left - right) / max(scale, 1e-300)
            out.append(_record(config, "adjoint_resolvent", kind, params,
                               defect))
        except BTripleError as exc:
            out.append(_failure_record(config, "adjoint_resolvent", kind,
                                       params, exc))
    return out


def _check_gamma_kernel(config, model, kind, seeds):
    lams = _certified_lams(config, model)
    out = []
    for lam in lams:
        for j, e in _basis_subset(model):
            params = {"lambda": lam, "column": j}
            try:
                col = model.solve_bvp(lam, e)
                res = model.apply_T(col) - lam * col
                ode = model.hnorm(res) / max(model.hnorm(col), 1e-300)
                tr = float(np.max(np.abs(model.trace0(col) - e)))
                out.append(_record(config, "gamma_kernel_ode", kind, params,
                                   ode))
                out.append(_record(config, "gamma_kernel_trace", kind, params,
                                   tr))
            except BTripleError as exc:
                out.append(_failure_record(config, "gamma_kernel_ode", kind,
                                           params, exc))
    return out


def _check_weyl(config, model, kind, seeds):
    lams = _certified_lams(config, model)
    counts = _counts_for(kind)
    out = []
    for lam in lams:
        params = {"lambda": lam}
        try:
            ws = tc.weyl(model, lam)
            defect = tc.weyl_symmetry_defect(model, lam) / max(ws.norm, 1e-300)
            out.append(_record(config, "weyl_symmetry", kind, params, defect))
        except BTripleError as exc:
            out.append(_failure_record(config, "weyl_symmetry", kind, params,
                                       exc))
    for lam, mu in _pairs_of(lams, counts["pairs"]):
        params = {"lambda": lam, "mu": mu}
        try:
            norm = tc.weyl(model, lam).norm
            defect = tc.difference_identity_defect(model, lam, mu)
            out.append(_record(config, "difference_identity", kind, params,
                               defect / max(norm, 1e-300)))
        except BTripleError as exc:
            out.append(_failure_record(config, "difference_identity", kind,
                                       params, exc))
    basis = model.boundary_basis()
    for i, (lam, nu) in enumerate(_pairs_of(lams, counts["pairs"])):
        if lam == nu:
            nu = nu * 1.5
        e = basis[i % len(basis)]
        params = {"lambda": lam, "nu": nu, "column": i % len(basis)}
        try:
            defect = tc.gamma_resolvent_identity_defect(model, lam, nu, e)
            out.append(_record(config, "gamma_resolvent_identity", kind,
                               params, defect))
        except BTripleError as exc:
            out.append(_failure_record(config, "gamma_resolvent_identity",
                                       kind, params, exc))
    if isinstance(model, DiskModel):
        for lam in lams[:2]:
            params = {"lambda": lam}
            try:
                diag = np.diag(model.mode_weyl_values(lam))
                cols = [model.trace1(model.solve_bvp(lam, e)) for e in basis]
                generic = np.stack(cols, axis=1)
                scale = max(float(np.max(np.abs(generic))), 1e-300)
                defect = float(np.max(np.abs(diag - generic))) / scale
                out.append(_record(config, "weyl_mode_diagonal", kind, params,
                                   defect))
            except BTripleError as exc:
                out.append(_failure_record(config, "weyl_mode_diagonal", kind,
                                           params, exc))
    return out


def _check_green_kernels(config, model, kind, seeds):
    lams = _certified_lams(config, model)
    counts = _counts_for(kind)
    basis = model.boundary_basis()
    proxy = _v_proxy(model)
    out = []
    for i, (lam, mu) in enumerate(_pairs_of(lams, counts["green_kernel"])):
        e = basis[i % len(basis)]
        ep = basis[(i + 1) % len(basis)]
        params = {"lambda": lam, "mu": mu, "columns": [i % len(basis),
                                                       (i + 1) % len(basis)]}
        try:
            f = model.solve_bvp(lam, e)
            g = model.solve_bvp_tilde(mu, ep)
            scale = model.hnorm(f) * model.hnorm(g) * (1.0 + proxy)
            defect = abs(tc.green_defect(model, f, g)) / max(scale, 1e-300)
            out.append(_record(config, "green_on_kernels", kind, params,
                               defect))
        except BTripleError as exc:
            out.append(_failure_record(config, "green_on_kernels", kind,
                                       params, exc))
    return out


def _check_resolvent_identity(config, model, kind, seeds):
    rng = np.random.default_rng(seeds[0])
    lams = _certified_lams(config, model)
    counts = _counts_for(kind)
    out = []
    for i in range(counts["resolvent_id"]):
        lam = lams[i % len(lams)]
        mu = lams[(i + 1) % len(lams)]
        if lam == mu:
            mu = mu * 2.0
        f = model.random_domain_vector(rng)
        params = {"lambda": lam, "mu": mu, "draw": i}
        try:
            rl = model.neumann_resolvent(lam, f)
            rm = model.neumann_resolvent(mu, f)
            rr = model.neumann_resolvent(lam, rm)
            lhs = rl - rm
            rhs = (lam - mu) * rr
            defect = model.hnorm(lhs - rhs) / max(model.hnorm(rl), 1e-300)
            out.append(_record(config, "resolvent_first_identity", kind,
                               params, defect))
        except BTripleError as exc:
            out.append(_failure_record(config, "resolvent_first_identity",
                                       kind, params, exc))
    return out


def _check_krein(config, model, kind, seeds):
    rng = np.random.default_rng(seeds[0])
    lams = _certified_lams(config, model)
    counts = _counts_for(kind)
    dim = model.boundary_dim
    out = []
    for i in range(counts["krein"]):
        lam = lams[i % len(lams)]
        b = _random_b(rng, dim)
        f = model.random_domain_vector(rng)
        params = {"lambda": lam, "draw": i}
        try:
            u = tc.krein_resolvent(model, b, lam, f)
            res = model.apply_T(u) - lam * u
            fv = np.asarray(f, dtype=complex)
            pde = model.hnorm(res - fv) / max(model.hnorm(fv), 1e-300)
            bc = float(np.max(np.abs(
                b.matrix @ model.trace1(u) - model.trace0(u))))
            bc = bc / max(float(np.max(np.abs(model.trace1(u)))), 1e-300)
            out.append(_record(config, "krein_pde_residual", kind, params, pde))
            out.append(_record(config, "krein_bc_residual", kind, params, bc))
        except BTripleError as exc:
            out.append(_failure_record(config, "krein_pde_residual", kind,
                                       params, exc))
    for i in range(counts["krein_adj"]):
        lam = lams[i % len(lams)]
        b = _random_b(rng, dim)
        f = model.random_domain_vector(rng)
        g = model.random_domain_vector(rng)
        params = {"lambda": lam, "draw": i}
        try:
            left = model.inner(tc.krein_resolvent(model, b, lam, f), g)
            bt = BoundaryOperator(matrix=b.matrix.conj().T)
            right = model.inner(f, tc.krein_resolvent_tilde(
                model, bt, np.conjugate(lam), g))
            scale = max(abs(left), abs(right), 1e-300)
            out.append(_record(config, "krein_adjoint_mirror", kind, params,
                               abs(left - right) / scale))
        except BTripleError as exc:
            out.append(_failure_record(config, "krein_adjoint_mirror", kind,
                                       params, exc))
    if counts["krein_dense"] and isinstance(model, Fd1dModel):
        for i in range(counts["krein_dense"]):
            lam = lams[i % len(lams)]
            b = _random_b(rng, dim)
            f = model.random_domain_vector(rng)
            params = {"lambda": lam, "draw": i}
            try:
                u = tc.krein_resolvent(model, b, lam, f)
                a_b = dense_robin_matrix(model, b)
                m_cells = model.grid.cells
                fc = np.asarray(f, dtype=complex)[1:m_cells + 1]
                dense = solve_linear(a_b - lam * np.eye(m_cells), fc)
                uc = np.asarray(u, dtype=complex)[1:m_cells + 1]
                defect = (np.linalg.norm(uc - dense)
                          / max(np.linalg.norm(dense), 1e-300))
                out.append(_record(config, "krein_vs_dense", kind, params,
                                   defect))
            except BTripleError as exc:
                out.append(_failure_record(config, "krein_vs_dense", kind,
                                           params, exc))
    return out


def _check_sectorial(config, model, kind, seeds):
    lams = _certified_lams(config, model)
    out = []
    for lam in lams[:3]:
        params = {"lambda": lam}
        try:
            fact = tc.sectorial_factorization(model, lam)
            out.append(_record(config, "sectorial_c1_bound", kind, params,
                               fact.c1_norm))
            res_norm = max(
                1.0 / smallest_singular_value(
                    np.asarray(hn) + np.asarray(v)
                    - lam * np.eye(np.asarray(hn).shape[0]))
                for hn, v in model.hn_v_blocks())
            out.append(_record(config, "sectorial_defect", kind, params,
                               fact.defect / res_norm))
        except BTripleError as exc:
            out.append(_failure_record(config, "sectorial_c1_bound", kind,
                                       params, exc))
    if _has_zero_potential(model):
        for lam in lams[:2]:
            params = {"lambda": lam}
            try:
                out.append(_record(config, "c1_zero_potential", kind, params,
                                   tc.c1_norm_at(model, lam)))
            except BTripleError as exc:
                out.append(_failure_record(config, "c1_zero_potential", kind,
                                           params, exc))
    thr = model.certified_threshold()
    out.append(_record(config, "threshold_negative", kind,
                       {"threshold": thr}, max(0.0, thr + 1e-6)))
    lams_decay = [-10.0 ** k for k in range(1, 6)]
    params = {"lambda_ray": lams_decay}
    try:
        norms = [norm for _, norm in tc.relative_bound_decay(model, lams_decay)]
        diffs = np.diff(norms)
        out.append(_record(config, "relative_bound_decreasing", kind, params,
                           max(0.0, float(diffs.max()) if len(diffs) else 0.0)))
        first = max(norms[0], 1e-300)
        out.append(_record(config, "relative_bound_vanishing", kind, params,
                           norms[-1] / first if norms[0] > 0 else 0.0))
    except BTripleError as exc:
        out.append(_failure_record(config, "relative_bound_decreasing", kind,
                                   params, exc))
    return out


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


def run_identity_suite(config=None):
    """Every operator-identity invariant, on every configured model, as one
    report. Failures are failing records, not exceptions."""
    config = config or SuiteConfig()
    t0 = time.perf_counter()
    root = np.random.SeedSequence(config.seed)
    records = []
    specs = config.model_specs()
    model_seeds = root.spawn(len(specs))
    for spec, mseed in zip(specs, model_seeds):
        model = model_from_spec(spec)
        kind = _model_kind(model)
        family_seeds = mseed.spawn(len(_IDENTITY_FAMILIES))
        for fam, fseed in zip(_IDENTITY_FAMILIES, family_seeds):
            records.extend(fam(config, model, kind, fseed.spawn(1)))
    timings = {"wall_seconds": time.perf_counter() - t0}
    return VerificationReport.from_records(records, timings)


# ---------------------------------------------------------------------------
# decay suite


def _decay_lams(kind, threshold):
    """Certified geometric ray; capped so the continuum kernels stay inside
    floating-point range (exp(sqrt(|lambda|)) factors)."""
    start = min(-4.0, 2.0 * threshold)
    if kind == "fd1d":
        # the fixed grid cannot follow |lambda| -> inf; keep a short ray
        return [start * 4.0 ** k for k in range(5)]
    cap = 4.5e5
    count = 1
    while count < 8 and abs(start) * 4.0 ** count <= cap:
        count += 1
    return [start * 4.0 ** k for k in range(count)]


def run_decay_suite(config=None):
    """||M(lambda)|| along a geometric ray for every configured model, with
    the fitted amplitude, exponent, and a least-squares confidence band."""
    config = config or SuiteConfig()
    t0 = time.perf_counter()
    records = []
    for spec in config.model_specs():
        model = model_from_spec(spec)
        kind = _model_kind(model)
        lams = _decay_lams(kind, model.certified_threshold())
        params = {"lambda_ray": lams}
        try:
            samples, slope = tc.weyl_decay_study(model, lams)
            points = [(abs(ws.lam), ws.norm) for ws in samples]
            logx = np.log([p[0] for p in points])
            logy = np.log([p[1] for p in points])
            slope_fit, intercept, resid = fit_log_slope(points)
            n = len(points)
            spread = float(np.sum((logx - logx.mean()) ** 2))
            if n > 2 and spread > 0.0:
                sigma2 = float(np.sum((logy - (intercept + slope_fit * logx))
                                      ** 2)) / (n - 2)
                band = 1.96 * float(np.sqrt(sigma2 / spread))
            else:
                band = float("inf")
            params.update({
                "samples": [[p[0], p[1]] for p in points],
                "amplitude": float(np.exp(intercept)),
                "exponent": slope_fit,
                "band": band,
            })
            if _has_zero_potential(model):
                defect = abs(slope_fit + 0.5)
                records.append(_record(config, "decay_exponent", kind, params,
                                       defect))
            else:
                defect = max(0.0, slope_fit + 0.45)
                records.append(CheckRecord(
                    check_name="decay_exponent", model=kind,
                    parameters=params, defect=defect,
                    tolerance=config.tolerance("decay_exponent_bounded", kind)))
        except BTripleError as exc:
            records.append(_failure_record(config, "decay_exponent", kind,
                                           params, exc))
    timings = {"wall_seconds": time.perf_counter() - t0}
    return VerificationReport.from_records(records, timings)


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


def _hausdorff(a, b):
    if not a and not b:
        return 0.0
    if not a or not b:
        return float("inf")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    d_ab = max(min(abs(x - y) for y in b) for x in a)
    d_ba = max(min(abs(x - y) for y in a) for x in b)
    return float(max(d_ab, d_ba))


def _directed_match(reference, found):
    if not reference:
        return 0.0
    if not found:
        return float("inf")
    return float(max(min(abs(r - f) for f in found) for r in reference))


def _region_inset(region, frac=0.002):
    re0, re1, im0, im1 = region
    dre = (re1 - re0) * frac
    dim = (im1 - im0) * frac
    return (re0 + dre, re1 - dre, im0 + dim, im1 - dim)


def _in_region(z, region):
    re0, re1, im0, im1 = region
    return re0 <= z.real <= re1 and im0 <= z.imag <= im1


def run_bs_cross_check(config=None):
    """Eigenvalues as Birman-Schwinger indicator roots, cross-checked
    against the dense constrained eigensolve (fd1d) and the mode reference
    roots (interior disk)."""
    config = config or SuiteConfig()
    t0 = time.perf_counter()
    root = np.random.SeedSequence(config.seed)
    records = []
    specs = config.model_specs()
    model_seeds = root.spawn(len(specs))
    for spec, mseed in zip(specs, model_seeds):
        model = model_from_spec(spec)
        kind = _model_kind(model)
        rng = np.random.default_rng(mseed.spawn(1)[0])
        thr = model.certified_threshold()

        # B = 0: the certified half-line carries no eigenvalues
        region0 = (thr * 8.0, thr, -0.5, 0.5)
        grid0 = (40, 5) if kind == "fd1d" else (24, 3)
        try:
            eigs0 = tc.robin_eigs(model, BoundaryOperator.scalar(
                0.0, model.boundary_dim), region0, grid0)
            records.append(_record(config, "bs_empty_certified", kind,
                                   {"region": list(region0)},
                                   float(len(eigs0))))
        except BTripleError as exc:
            records.append(_failure_record(config, "bs_empty_certified", kind,
                                           {"region": list(region0)}, exc))

        if isinstance(model, Fd1dModel):
            regions = config.complex_scan_regions or ((-20.0, 30.0, -6.0, 6.0),)
            for region in regions:
                grid = (96, 33)
                for i in range(5):
                    b = _random_b(rng, model.boundary_dim, scale=1.0)
                    params = {"region": list(region), "draw": i}
                    try:
                        found = list(tc.robin_eigs(model, b, region, grid))
                        a_b = dense_robin_matrix(model, b)
                        dense = eig_dense(a_b)
                        inset = _region_inset(region)
                        found_in = [z for z in found if _in_region(z, inset)]
                        dense_in = [z for z in dense if _in_region(z, inset)]
                        dist = _hausdorff(found_in, dense_in)
                        params["found"] = len(found_in)
                        params["dense"] = len(dense_in)
                        records.append(_record(config, "bs_hausdorff_dense",
                                               kind, params, dist))
                        if found_in:
                            z0 = min(found_in, key=abs)
                            lifts = tc.bs_kernel_lift(model, b, z0, tol=1e-6)
                            u = lifts[0]
                            res = model.apply_T(u) - z0 * u
                            rr = model.hnorm(res) / max(model.hnorm(u), 1e-300)
                            records.append(_record(
                                config, "bs_kernel_residual", kind,
                                {"lambda": z0}, rr))
                    except BTripleError as exc:
                        records.append(_failure_record(
                            config, "bs_hausdorff_dense", kind, params, exc))

        if isinstance(model, DiskModel) and model.config.side == "interior" \
                and _has_zero_potential(model):
            k_ref = min(4, model.config.k_max)
            for beta in (-1.0, 0.5, 1.0, 3.0):
                params = {"beta": beta, "modes": k_ref}
                try:
                    reference = [disk_robin_reference(k, beta)
                                 for k in range(k_ref + 1)]
                    hi = max(reference) * 1.05 + 1.0
                    region = (0.3, hi, -0.4, 0.4)
                    n_re = max(160, int(4 * hi))
                    found = list(tc.robin_eigs(
                        model, BoundaryOperator.scalar(
                            beta, model.boundary_dim), region, (n_re, 5)))
                    dist = _directed_match(reference, found)
                    params["reference"] = reference
                    params["found"] = len(found)
                    records.append(_record(config, "bs_reference_match", kind,
                                           params, dist))
                except BTripleError as exc:
                    records.append(_failure_record(
                        config, "bs_reference_match", kind, params, exc))
    timings = {"wall_seconds": time.perf_counter() - t0}
    return VerificationReport.from_records(records, timings)
