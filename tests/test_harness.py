"""Verification harness: report serialization, suite configuration,
registry coverage, and the package names the benchmark's tracer wraps."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import btriple.harness as harness
from btriple import ConfigError, TripleModel, model_from_spec
from btriple.harness import (
    CHECK_REGISTRY,
    REPORT_SCHEMA,
    CheckRecord,
    SuiteConfig,
    VerificationReport,
    run_bs_cross_check,
    run_decay_suite,
    run_identity_suite,
)

_SUITES = (run_identity_suite, run_decay_suite, run_bs_cross_check)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestReportJson:
    def test_failing_record_is_strict_json(self):
        failing = CheckRecord("green_identity", "fd1d", {}, float("inf"), 1e-12)
        passing = CheckRecord("green_identity", "fd1d", {"draw": 1}, 1e-15,
                              1e-12)
        report = VerificationReport.from_records([failing, passing])
        text = report.to_json()
        data = json.loads(text, parse_constant=_reject_constant)
        assert data["schema"] == REPORT_SCHEMA == "btriple-report/2"
        assert data["records"][0]["defect"] is None
        assert data["records"][0]["pass"] is False
        back = VerificationReport.from_json(text)
        assert back.records[0].defect == float("inf")
        assert not back.records[0].passed
        assert back.records[1] == passing
        assert not back.passed

    def test_non_finite_parameters_are_null(self):
        rec = CheckRecord("decay_exponent", "fd1d",
                          {"band": float("inf"), "z": complex(1.0, float("nan"))},
                          0.0, 0.05)
        text = VerificationReport.from_records([rec]).to_json()
        params = json.loads(text, parse_constant=_reject_constant)[
            "records"][0]["parameters"]
        assert params == {"band": None, "z": [1.0, None]}


class TestSuiteConfig:
    def test_jobs_key_is_gone(self):
        with pytest.raises(ConfigError):
            SuiteConfig.from_dict({"jobs": 2})
        assert SuiteConfig.from_dict({"seed": 3}).seed == 3


class TestModelKinds:
    # users see these strings: every record carries one, and tolerance
    # overrides are keyed "check:kind"
    @pytest.mark.parametrize("spec, kind", [
        ({"model": "fd1d", "n": 32}, "fd1d"),
        ({"model": "shoot1d", "panels": 2, "order": 8, "fd_nodes": 32},
         "shoot1d"),
        ({"model": "disk", "side": "interior", "k_max": 1, "quad_panels": 4,
          "quad_order": 8, "radial_grid": 32}, "disk-interior"),
        ({"model": "disk", "side": "exterior", "k_max": 1, "quad_panels": 4,
          "quad_order": 8, "radial_grid": 32}, "disk-exterior"),
    ])
    def test_kind_strings(self, spec, kind):
        assert model_from_spec(spec).kind == kind

    def test_tolerance_override_by_kind(self):
        config = SuiteConfig(models=({"model": "fd1d", "n": 32},),
                             tolerances={"green_identity:fd1d": 1e-3})
        records = run_identity_suite(config).records
        green = [rec for rec in records if rec.check_name == "green_identity"]
        assert green and all(rec.tolerance == 1e-3 for rec in green)
        assert all(rec.tolerance == 1e-12 for rec in records
                   if rec.check_name == "green_on_kernels")


def _delegate(name):
    def method(self, *args, **kwargs):
        return getattr(self.wrapped, name)(*args, **kwargs)
    return method


def _forward(name):
    return property(lambda self: getattr(self.wrapped, name))


class ForwardingModel(TripleModel):
    """A family the harness has never seen: it forwards every contract
    member and hook to a wrapped model but is none of the package's
    model classes."""

    def __init__(self, wrapped):
        self.wrapped = wrapped

    kind = _forward("kind")
    has_potential = _forward("has_potential")
    boundary_dim = _forward("boundary_dim")
    green_pairing_defect = _forward("green_pairing_defect")
    dense_robin = _forward("dense_robin")
    reference_robin_eigs = _forward("reference_robin_eigs")
    v_sup_proxy = _delegate("v_sup_proxy")
    apply_T = _delegate("apply_T")
    apply_Ttilde = _delegate("apply_Ttilde")
    trace0 = _delegate("trace0")
    trace1 = _delegate("trace1")
    inner = _delegate("inner")
    binner = _delegate("binner")
    solve_bvp = _delegate("solve_bvp")
    solve_bvp_tilde = _delegate("solve_bvp_tilde")
    neumann_resolvent = _delegate("neumann_resolvent")
    neumann_resolvent_tilde = _delegate("neumann_resolvent_tilde")
    hn_v_blocks = _delegate("hn_v_blocks")
    certified_threshold = _delegate("certified_threshold")
    random_domain_vector = _delegate("random_domain_vector")
    mode_weyl_values = _delegate("mode_weyl_values")
    weyl_batch = _delegate("weyl_batch")
    boundary_basis = _delegate("boundary_basis")
    hnorm = _delegate("hnorm")


class TestContractOnly:
    def test_harness_binds_no_model_class(self):
        names = vars(harness)
        for cls in ("Fd1dModel", "Shoot1dModel", "DiskModel"):
            assert cls not in names

    def test_unknown_family_gives_the_same_records(self, monkeypatch):
        config = SuiteConfig(models=({"model": "fd1d", "n": 32},), seed=7)
        want = [rec.as_dict() for suite in _SUITES
                for rec in suite(config).records]
        wrapped = []

        def wrapping_model_from_spec(spec):
            model = ForwardingModel(model_from_spec(spec))
            wrapped.append(model)
            return model

        monkeypatch.setattr(harness, "model_from_spec",
                            wrapping_model_from_spec)
        got = [rec.as_dict() for suite in _SUITES
               for rec in suite(config).records]
        assert len(wrapped) == 3
        assert len(want) == 206
        assert got == want


class TestRegistryCoverage:
    def test_every_registered_check_is_emitted(self):
        # fd1d plus a coarse V = 0 interior disk reach every check family;
        # the coarse disk misses some tolerances, so only names are compared
        config = SuiteConfig(models=(
            {"model": "fd1d", "n": 32},
            {"model": "disk", "side": "interior", "k_max": 1,
             "quad_panels": 4, "quad_order": 8, "radial_grid": 32}))
        emitted = set()
        for suite in _SUITES:
            emitted |= {rec.check_name for rec in suite(config).records}
        assert emitted == set(CHECK_REGISTRY)


class TestTracedNames:
    def test_tracer_wraps_and_restores_every_name(self, monkeypatch):
        # perfbench/tracing.py patches package attributes by name, so a
        # renamed function (model_disk.lu_factor, model_shoot1d.dp45_integrate)
        # would break the traced benchmark run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            saved = list(tracer._saved)
            for owner, attr, original in saved:
                assert getattr(owner, attr) is not original, attr
        finally:
            tracer.uninstall()
        names = {(owner.__name__, attr) for owner, attr, _ in saved}
        assert ("btriple.model_disk", "lu_factor") in names
        assert ("btriple.model_shoot1d", "dp45_integrate") in names
        assert len(names) == len(saved)
        for owner, attr, original in saved:
            assert getattr(owner, attr) is original, attr
