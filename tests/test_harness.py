"""Verification harness: report serialization, suite configuration,
registry coverage, one benchmark round, and the package names the
benchmark's tracer wraps."""
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

import btriple.harness as harness
from btriple import (ConfigError, MatchingSingular, NotPositiveDefinite,
                     Potential1D, TripleModel, build_fd1d, model_from_spec)
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

from .conftest import complex_bump

_SUITES = (run_identity_suite, run_decay_suite, run_bs_cross_check)
_FD1D_32 = SuiteConfig(models=({"model": "fd1d", "n": 32},), seed=7)


@pytest.fixture(scope="module")
def fd1d_records():
    """The fd1d n=32 records of all three suites, in report order."""
    return [rec for suite in _SUITES for rec in suite(_FD1D_32).records]


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
        with pytest.raises(TypeError):
            SuiteConfig(jobs=2)
        assert SuiteConfig(seed=3).seed == 3

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            SuiteConfig(seed=-1)

    def test_lambda_grid_is_no_field(self):
        with pytest.raises(TypeError):
            SuiteConfig(lambda_grid=(-1.0, -2.0, -4.0))

    @pytest.mark.parametrize("key", ["gren_identity", "green_identity:fd1",
                                     "green_identity:"])
    def test_misspelt_tolerance_key_is_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown tolerance override"):
            SuiteConfig(tolerances={key: 1e-30})

    def test_tolerance_key_with_a_kind_is_accepted(self):
        config = SuiteConfig(tolerances={"green_identity:fd1d": 1e-30,
                                         "decay_exponent_bounded": 1e-3})
        assert config.tolerance("green_identity", "fd1d") == 1e-30
        assert config.tolerance("green_identity", "disk") == 1e-8


class TestNoCertifiedThreshold:
    def test_every_suite_still_writes_its_records(self):
        # ||C1|| > 1/2 down to the end of the find_xi2 scan, so xi = -inf
        # and the suites' sample points and regions are not finite: the
        # library's gates raise ValueError, and the guard records it
        spec = {"model": "fd1d", "n": 32,
                "potential": {"kind": "constant", "value": [1e7, 0.0]}}
        assert model_from_spec(spec).certified_threshold() == float("-inf")
        config = SuiteConfig(models=(spec,), seed=7)
        for suite, total in zip(_SUITES, (192, 1, 6)):
            report = suite(config)
            assert report.summary["total"] == total
            assert not report.passed
        # no certified half-line is a failure of its own, not a pass
        record, = [rec for rec in run_identity_suite(config).records
                   if rec.check_name == "threshold_negative"]
        assert not record.passed and record.defect == float("inf")


_FD1D_V = {"model": "fd1d", "n": 96,
           "potential": {"kind": "constant", "value": [3.0, -2.0]}}


class TestSectorialRecords:
    def test_identity_suite_reruns_byte_identical(self):
        # the probes of sectorial_defect come from the suite's seed
        config = SuiteConfig(models=(_FD1D_V,), seed=7)
        first, second = (run_identity_suite(config) for _ in range(2))
        assert first.to_json(include_timings=False) == \
            second.to_json(include_timings=False)
        defects = [rec for rec in first.records
                   if rec.check_name == "sectorial_defect"]
        assert len(defects) == 3 and all(rec.passed for rec in defects)

    def test_perturbed_support_potential_fails(self, monkeypatch):
        # V_KK enters F = S (I + C1)^-1 S and not the LU of H_N + V - lam,
        # so an error of 1e-6 in one entry fails every sectorial_defect
        model = build_fd1d(n=96, length=1.0,
                           potential=Potential1D.from_callable(complex_bump))
        model.certified_threshold()
        model.hn_spectra()[0].v_kk[0, 0] += 1e-6
        monkeypatch.setattr(harness, "model_from_spec", lambda spec: model)
        records = run_identity_suite(SuiteConfig(models=(_FD1D_V,),
                                                 seed=7)).records
        by_name = {}
        for rec in records:
            by_name.setdefault(rec.check_name, []).append(rec.passed)
        assert by_name["sectorial_defect"] == [False] * 3
        assert by_name["sectorial_c1_bound"] == [True] * 3


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
    _weyl_chunk = _forward("_weyl_chunk")
    v_sup_proxy = _delegate("v_sup_proxy")
    _apply = _delegate("_apply")
    trace0 = _delegate("trace0")
    trace1 = _delegate("trace1")
    inner = _delegate("inner")
    binner = _delegate("binner")
    _solve_bvp = _delegate("_solve_bvp")
    _neumann_resolvent = _delegate("_neumann_resolvent")
    hn_v_blocks = _delegate("hn_v_blocks")
    certified_threshold = _delegate("certified_threshold")
    random_domain_vector = _delegate("random_domain_vector")
    mode_weyl_values = _delegate("mode_weyl_values")
    boundary_basis = _delegate("boundary_basis")
    hnorm = _delegate("hnorm")


class TestContractOnly:
    def test_harness_binds_no_model_class(self):
        names = vars(harness)
        for cls in ("Fd1dModel", "Shoot1dModel", "DiskModel"):
            assert cls not in names

    def test_unknown_family_gives_the_same_records(self, monkeypatch,
                                                   fd1d_records):
        want = [rec.as_dict() for rec in fd1d_records]
        wrapped = []

        def wrapping_model_from_spec(spec):
            model = ForwardingModel(model_from_spec(spec))
            wrapped.append(model)
            return model

        monkeypatch.setattr(harness, "model_from_spec",
                            wrapping_model_from_spec)
        got = [rec.as_dict() for suite in _SUITES
               for rec in suite(_FD1D_32).records]
        assert len(wrapped) == 3
        assert len(want) == 206
        assert got == want


class FailingResolventModel(ForwardingModel):
    """ForwardingModel whose Neumann resolvent always fails."""

    def neumann_resolvent(self, lam, f):
        raise MatchingSingular(f"no Neumann solve at lambda = {lam}")


class FailingSpectraModel(ForwardingModel):
    """ForwardingModel whose H_N eigendecomposition always fails."""

    def hn_spectra(self):
        raise NotPositiveDefinite("no spectrum of H_N")


class TestRecordGuard:
    # the checks that reach neumann_resolvent: directly, or through
    # gamma_resolvent_identity_defect and the Krein resolvent
    REACH = {"adjoint_resolvent", "resolvent_first_identity",
             "gamma_resolvent_identity", "krein_pde_residual",
             "krein_bc_residual", "krein_adjoint_mirror", "krein_vs_dense"}

    def test_failing_solve_gives_failing_records(self, monkeypatch,
                                                 fd1d_records):
        monkeypatch.setattr(harness, "model_from_spec", lambda spec:
                            FailingResolventModel(model_from_spec(spec)))
        got = [rec for suite in _SUITES for rec in suite(_FD1D_32).records]
        text = VerificationReport.from_records(got).to_json()
        json.loads(text, parse_constant=_reject_constant)

        def split(records):
            hit = [rec for rec in records if rec.check_name in self.REACH]
            rest = [rec.as_dict() for rec in records
                    if rec.check_name not in self.REACH]
            return hit, rest

        failed, rest = split(got)
        ok, want_rest = split(fd1d_records)
        assert rest == want_rest
        # a guarded krein_pde_residual failure writes a failing
        # krein_bc_residual record too, so no record goes missing
        assert len(got) == len(fd1d_records) == 206
        assert [rec.check_name for rec in failed] == \
            [rec.check_name for rec in ok]
        for bad, good in zip(failed, ok):
            assert not bad.passed and bad.defect == float("inf")
            error = bad.parameters.pop("error")
            assert error.startswith("MatchingSingular: no Neumann solve")
            assert bad.parameters == good.parameters

    def test_failing_pair_writes_both_records(self, monkeypatch,
                                              fd1d_records):
        # sectorial_c1_bound/sectorial_defect and relative_bound_decreasing/
        # relative_bound_vanishing are each written by one guarded body
        monkeypatch.setattr(harness, "model_from_spec", lambda spec:
                            FailingSpectraModel(model_from_spec(spec)))
        got = run_identity_suite(_FD1D_32).records
        want = fd1d_records[:len(got)]
        assert len(got) == 194
        assert [rec.check_name for rec in got] == \
            [rec.check_name for rec in want]
        hit = {"sectorial_c1_bound", "sectorial_defect", "c1_zero_potential",
               "relative_bound_decreasing", "relative_bound_vanishing"}
        for bad, good in zip(got, want):
            if bad.check_name not in hit:
                assert bad.as_dict() == good.as_dict()
                continue
            assert bad.defect == float("inf")
            error = bad.parameters.pop("error")
            assert error == "NotPositiveDefinite: no spectrum of H_N"
            assert bad.parameters == good.parameters


# ordered (check_name, run length) of the fd1d n=32 three-suite run
_FD1D_32_RUNS = (
    [("green_identity", 50), ("adjoint_matrices", 1),
     ("adjoint_resolvent", 20)]
    + [("gamma_kernel_ode", 1), ("gamma_kernel_trace", 1)] * 8
    + [("weyl_symmetry", 4), ("difference_identity", 12),
       ("gamma_resolvent_identity", 12), ("green_on_kernels", 12),
       ("resolvent_first_identity", 8)]
    + [("krein_pde_residual", 1), ("krein_bc_residual", 1)] * 15
    + [("krein_adjoint_mirror", 6), ("krein_vs_dense", 12)]
    + [("sectorial_c1_bound", 1), ("sectorial_defect", 1)] * 3
    + [("c1_zero_potential", 2), ("threshold_negative", 1),
       ("relative_bound_decreasing", 1), ("relative_bound_vanishing", 1),
       ("decay_exponent", 1), ("bs_empty_certified", 1)]
    + [("bs_hausdorff_dense", 1), ("bs_kernel_residual", 1)] * 5)


class TestRecordOrder:
    def test_fd1d_run_lengths(self, fd1d_records):
        runs = [(name, len(list(group))) for name, group in
                itertools.groupby(rec.check_name for rec in fd1d_records)]
        assert runs == _FD1D_32_RUNS
        assert sum(n for _, n in runs) == 206


class TestBsCrossCheck:
    def test_fd1d_seed_33_finds_the_root_next_to_a_pole(self):
        # draw 2 has the root -0.2354-0.0556i, 0.24 from the Neumann
        # eigenvalue 0 (a pole of M); the grid scan's Newton runs missed it
        # and bs_hausdorff_dense read 15.6
        config = SuiteConfig(models=({"model": "fd1d", "n": 96},), seed=33)
        records = run_bs_cross_check(config).records
        assert [r.check_name for r in records if not r.passed] == []
        draw2 = [r for r in records if r.check_name == "bs_hausdorff_dense"
                 and r.parameters["draw"] == 2]
        assert draw2[0].parameters["found"] == draw2[0].parameters["dense"] == 2


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


def _load_tracing(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestBenchmarkRound:
    @pytest.mark.parametrize("name", ["fd1d", "shoot1d", "disk"])
    def test_one_round_has_no_problem(self, monkeypatch, name):
        # the benchmark's own output checks: Weyl and eigenvalue references,
        # every record passing, strict JSON, one CSV row per record
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(perfbench))
        workloads = importlib.import_module("workloads")
        workload = workloads.WORKLOADS[name]()
        rnd = workloads.run_round(workload, workloads.make_inputs(workload, 1))
        assert rnd.problems == []
        assert rnd.failed == 0


class TestTracedNames:
    def test_tracer_wraps_and_restores_every_name(self, monkeypatch):
        # perfbench/tracing.py patches package attributes by name, so a
        # renamed function (model_disk.lu_factor, model_shoot1d.dp45_integrate)
        # would break the traced benchmark run
        tracer = _load_tracing(monkeypatch).Tracer()
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

    def test_traced_scan_and_weyl_run(self, monkeypatch):
        # a small traced run through the wrapped names: one fd1d robin_eigs
        # and one weyl, counted by the tracer and unwrapped afterwards
        import btriple.triple_core as tc

        tracer = _load_tracing(monkeypatch).Tracer()
        model = model_from_spec({"model": "fd1d", "n": 32})
        try:
            tracer.install()
            roots = tc.robin_eigs(model, tc.BoundaryOperator.scalar(0.7, 2),
                                  (-20.0, 30.0, -6.0, 6.0), (24, 9))
            sample = tc.weyl(model, -3.0)
        finally:
            tracer.uninstall()
        assert roots
        assert sample.m.shape == (2, 2)
        metrics = tracer.metrics()
        assert tracer.calls[("triple_core", "robin_eigs")] == 1
        assert tracer.calls[("triple_core", "weyl")] == 1
        assert metrics["triple_core.robin_eigs_s"] > 0.0
        assert metrics["model_fd1d.bvp_solves"] == 4
        assert tc.robin_eigs.__name__ == "robin_eigs"
        assert tc.weyl.__name__ == "weyl"
