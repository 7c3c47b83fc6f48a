"""Verification harness: report serialization, suite configuration,
registry coverage, and the package names the benchmark's tracer wraps."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from btriple import ConfigError
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


class TestRegistryCoverage:
    def test_every_registered_check_is_emitted(self):
        # fd1d plus a coarse V = 0 interior disk reach every check family;
        # the coarse disk misses some tolerances, so only names are compared
        config = SuiteConfig(models=(
            {"model": "fd1d", "n": 32},
            {"model": "disk", "side": "interior", "k_max": 1,
             "quad_panels": 4, "quad_order": 8, "radial_grid": 32}))
        emitted = set()
        for suite in (run_identity_suite, run_decay_suite, run_bs_cross_check):
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
