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
                     TripleModel, model_from_spec)
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
        # neither a thread pool nor tolerance overrides: a record's tolerance
        # is the registry's
        for key, value in (("jobs", 2), ("tolerances", {"green_identity": 1})):
            with pytest.raises(TypeError):
                SuiteConfig(**{key: value})
        assert SuiteConfig(seed=3).seed == 3

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            SuiteConfig(seed=-1)

    def test_lambda_grid_is_no_field(self):
        with pytest.raises(TypeError):
            SuiteConfig(lambda_grid=(-1.0, -2.0, -4.0))

    @pytest.mark.parametrize("seed", [7.9, True, "7"])
    def test_seed_must_be_an_integer(self, seed):
        # int() would run seed 7 and seed 1
        with pytest.raises(ConfigError, match="seed"):
            SuiteConfig(seed=seed)
        assert SuiteConfig(seed=7.0).seed == 7

    @pytest.mark.parametrize("region", [(1.0, 2.0, 3.0),
                                        (-20.0, 30.0, -6.0, 6.0, 1.0),
                                        (-20.0, 30.0, -6.0, True), 5.0,
                                        (30.0, -20.0, -6.0, 6.0),
                                        (1.0, 1.0, 2.0, 2.0),
                                        (float("nan"), 30.0, -6.0, 6.0)])
    def test_scan_region_must_be_four_numbers(self, region):
        # a short region once escaped the records as a bare ValueError, and
        # an inverted, single-point or NaN one as ten failing records: the
        # config takes the regions robin_eigs takes
        with pytest.raises(ConfigError, match="region"):
            run_bs_cross_check(SuiteConfig(
                models=({"model": "fd1d", "n": 32},),
                complex_scan_regions=(region,)))


class TestNoCertifiedThreshold:
    def test_every_suite_still_writes_its_records(self):
        # ||C1|| > 1/2 down to the end of the find_xi2 scan, so xi = -inf
        # and the suites' sample points and regions are not finite: the
        # library's gates raise ValueError, and the guard records it
        spec = {"model": "fd1d", "n": 32,
                "potential": {"kind": "constant", "value": [1e7, 0.0]}}
        assert model_from_spec(spec).certified_threshold() == float("-inf")
        config = SuiteConfig(models=(spec,), seed=7)
        # no Birman-Schwinger record reads the threshold, so that report
        # passes
        for suite, total, passed in zip(_SUITES, (187, 1, 5),
                                        (False, False, True)):
            report = suite(config)
            assert report.summary["total"] == total
            assert report.passed is passed
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


class TestModelKinds:
    # users see these strings: every record carries one, and the tolerance
    # table is keyed (check, kind)
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

    @pytest.mark.parametrize("spec", [
        {"model": "fd1d", "n": 96.9},
        {"model": "fd1d", "n": True},
        {"model": "fd1d", "n": "96"},
        {"model": "fd1d", "length": True},
        {"model": "shoot1d", "panels": 2.5},
        {"model": "disk", "k_max": True},
        {"model": "disk", "quad_order": 8.5},
        {"model": "disk", "support": [True, 0.8]},
        {"model": "fd1d", "potential": {"kind": "constant", "value": True}},
        {"model": "fd1d", "potential": {"kind": "constant",
                                        "value": [1.0, False]}},
        {"model": "fd1d", "potential": {"kind": "power", "c": 1.0,
                                        "x0": True, "alpha": 0.4, "p": 2.0}},
        {"model": "shoot1d", "order": 1e30},
        {"model": "disk", "quad_order": 1e30},
    ])
    def test_booleans_and_non_integral_integers_are_rejected(self, spec):
        # int() and float() would build n = 96, k_max = 1 or V = 1; an
        # order past the index range raised OverflowError in leggauss
        with pytest.raises(ConfigError):
            model_from_spec(spec)

    @pytest.mark.parametrize("spec", [
        {"model": "fd1d", "length": float("nan")},
        {"model": "fd1d", "length": float("inf")},
        {"model": "shoot1d", "length": float("nan")},
        {"model": "disk", "r_cut": float("nan")},
        {"model": "disk", "side": "exterior", "r_cut": float("inf")},
    ])
    def test_non_finite_numbers_are_rejected(self, spec):
        # json.load reads NaN and Infinity; each of these once built a
        # model, a NaN length one with h = nan
        with pytest.raises(ConfigError, match="finite"):
            model_from_spec(spec)

    def test_integral_float_is_an_integer(self):
        assert model_from_spec({"model": "fd1d", "n": 32.0}).grid.n == 32

    def test_records_carry_their_kinds_tolerance_row(self, fd1d_records):
        # fd1d has a gamma_kernel_ode row of its own; shoot1d reads the "*"
        # row
        ode = [rec.tolerance for rec in fd1d_records
               if rec.check_name == "gamma_kernel_ode"]
        assert ode and set(ode) == {1e-10}
        config = SuiteConfig(models=({"model": "shoot1d", "panels": 2,
                                      "order": 8, "fd_nodes": 32},), seed=7)
        ode = [rec.tolerance for rec in run_identity_suite(config).records
               if rec.check_name == "gamma_kernel_ode"]
        assert ode and set(ode) == {1e-7}

    def test_green_tolerance_is_raised_to_the_rounding_floor(self,
                                                            monkeypatch):
        # each green_identity record holds max(its row, _green_floor / scale)
        floors = {}
        add_green = harness._add_green

        def spy(out, check, params, model, f, g, scale):
            if check == "green_identity":
                floors[params["draw"]] = harness._green_floor(
                    model, f, g) / max(scale, 1e-300)
            add_green(out, check, params, model, f, g, scale)

        monkeypatch.setattr(harness, "_add_green", spy)
        green = [rec for rec in run_identity_suite(_FD1D_32).records
                 if rec.check_name == "green_identity"]
        assert len(green) == len(floors) == 50
        assert all(rec.passed and rec.tolerance == max(
            1e-12, floors[rec.parameters["draw"]]) for rec in green)
        # measured: the V = 0 bracket is pure rounding, and the floor binds
        # on 33 of the 50 draws
        assert sum(rec.tolerance > 1e-12 for rec in green) == 33


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
        assert len(want) == 196
        assert got == want


class FailingResolventModel(ForwardingModel):
    """ForwardingModel whose Neumann resolvent always fails."""

    def neumann_resolvent(self, lam, f):
        raise MatchingSingular(f"no Neumann solve at lambda = {lam}")


class FailingSpectraModel(ForwardingModel):
    """ForwardingModel whose H_N blocks always fail."""

    def hn_blocks(self):
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
        assert len(got) == len(fd1d_records) == 196
        assert [rec.check_name for rec in failed] == \
            [rec.check_name for rec in ok]
        for bad, good in zip(failed, ok):
            assert not bad.passed and bad.defect == float("inf")
            error = bad.parameters.pop("error")
            assert error.startswith("MatchingSingular: no Neumann solve")
            assert bad.parameters == good.parameters

    def test_failing_pair_writes_both_records(self, monkeypatch,
                                              fd1d_records):
        # every sectorial_defect record reads the H_N blocks; on V = 0 no
        # threshold or relative-bound record is written to fail with them
        monkeypatch.setattr(harness, "model_from_spec", lambda spec:
                            FailingSpectraModel(model_from_spec(spec)))
        got = run_identity_suite(_FD1D_32).records
        want = fd1d_records[:len(got)]
        assert len(got) == 185
        assert [rec.check_name for rec in got] == \
            [rec.check_name for rec in want]
        hit = {"sectorial_defect"}
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
    [("green_identity", 50), ("adjoint_resolvent", 20)]
    + [("gamma_kernel_ode", 1), ("gamma_kernel_trace", 1)] * 8
    + [("weyl_symmetry", 4), ("difference_identity", 12),
       ("gamma_resolvent_identity", 12), ("green_on_kernels", 12),
       ("resolvent_first_identity", 8)]
    + [("krein_pde_residual", 1), ("krein_bc_residual", 1)] * 15
    + [("krein_adjoint_mirror", 6), ("krein_vs_dense", 12)]
    + [("sectorial_defect", 3), ("decay_exponent", 1)]
    + [("bs_hausdorff_dense", 1), ("bs_kernel_residual", 1)] * 5)


class TestRecordOrder:
    def test_fd1d_run_lengths(self, fd1d_records):
        runs = [(name, len(list(group))) for name, group in
                itertools.groupby(rec.check_name for rec in fd1d_records)]
        assert runs == _FD1D_32_RUNS
        assert sum(n for _, n in runs) == 196


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


_DISK_INTERIOR = {"model": "disk", "side": "interior", "k_max": 4}
_DISK_EXTERIOR = {"model": "disk", "side": "exterior", "k_max": 3,
                  "potential": {"kind": "constant", "value": [1.5, 1.0]},
                  "support": [1.0, 3.0]}
_SHOOT_V = {"model": "shoot1d", "panels": 4, "order": 12, "fd_nodes": 128,
            "potential": {"kind": "constant", "value": [3.0, -2.0]}}


class TestBsWithoutComparator:
    @pytest.mark.parametrize("spec", [_DISK_EXTERIOR, _SHOOT_V],
                             ids=["disk-exterior", "shoot1d"])
    def test_no_scan_and_no_record(self, monkeypatch, spec):
        # neither dense_robin nor reference_robin_eigs: nothing to compare
        # indicator roots with, so the suite scans nothing
        calls = []
        robin_eigs = harness.tc.robin_eigs
        monkeypatch.setattr(harness.tc, "robin_eigs", lambda *args:
                            calls.append(args) or robin_eigs(*args))
        report = run_bs_cross_check(SuiteConfig(models=(spec,), seed=7))
        assert report.records == [] and report.summary["total"] == 0
        assert calls == []


class TestWeylModeDiagonal:
    @pytest.mark.parametrize("spec, count, symmetric", [
        (_DISK_INTERIOR, 2, 0), (_DISK_EXTERIOR, 0, 4)],
        ids=["interior-v0", "exterior-v"])
    def test_written_only_on_the_closed_form(self, spec, count, symmetric):
        # with V, mode_weyl_values reads the kernel solves the generic
        # assembly reads, so a record there compares one code path with
        # itself; the closed form has real coefficients and ignores tilde,
        # so there weyl_symmetry would compare M(lambda) with its own bits
        records = run_identity_suite(SuiteConfig(models=(spec,),
                                                 seed=7)).records
        diagonal = [rec for rec in records
                    if rec.check_name == "weyl_mode_diagonal"]
        assert len(diagonal) == count
        assert all(rec.passed and rec.defect > 0.0 for rec in diagonal)
        symmetry = [rec for rec in records
                    if rec.check_name == "weyl_symmetry"]
        assert len(symmetry) == symmetric


class TestRegistryCoverage:
    def test_every_registered_check_is_emitted(self):
        # fd1d with and without V plus a coarse V = 0 interior disk reach
        # every check family (threshold_negative and
        # relative_bound_vanishing need V); the coarse disk misses some
        # tolerances, so only names are compared
        config = SuiteConfig(models=(
            {"model": "fd1d", "n": 32},
            {"model": "fd1d", "n": 32,
             "potential": {"kind": "constant", "value": [3.0, -2.0]}},
            {"model": "disk", "side": "interior", "k_max": 1,
             "quad_panels": 4, "quad_order": 8, "radial_grid": 32}))
        emitted = set()
        for suite in _SUITES:
            emitted |= {rec.check_name for rec in suite(config).records}
        assert emitted == set(CHECK_REGISTRY)

    def test_tolerances_name_exactly_the_registered_checks(self):
        # a deleted check leaves no tolerance behind;
        # decay_exponent_bounded is decay_exponent's second tolerance
        tolerated = {check for check, _ in harness._DEFAULT_TOLERANCES}
        assert tolerated == set(CHECK_REGISTRY) | {"decay_exponent_bounded"}


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
