"""Mutants that the identity records must fail. Each patches one hook of a
model class, at a relative size of 2e-4 or less or by handing the adjoint
side the V side's factorization, and a record that no such wrong model can
fail verifies nothing (mutation analysis: DeMillo, Lipton & Sayward, IEEE
Computer 11(4), 1978). The specs are the benchmark's. Every check of the
registry has a row here that fails, and test_every_check_has_a_failing_row
fails when one has none."""
import dataclasses
import functools

import numpy as np
import pytest

import btriple.triple_core as triple_core
from btriple import DiskModel, Fd1dModel, ThresholdNotFound, TripleModel
from btriple.harness import (CHECK_REGISTRY, SuiteConfig, run_bs_cross_check,
                             run_decay_suite, run_identity_suite)

# the checks that a test of this module fails with a mutant
_KILLED = set()


def _kills(*checks):
    def register(test):
        _KILLED.update(checks)
        return test
    return register

_FD1D = {
    "v0": {"model": "fd1d", "n": 96},
    "power": {"model": "fd1d", "n": 96,
              "potential": {"kind": "power", "c": [1.0, -0.5], "x0": 0.4,
                            "alpha": 0.4, "p": 2.0}},
}
_DISK = {
    "interior": {"model": "disk", "side": "interior", "k_max": 4},
    "exterior": {"model": "disk", "side": "exterior", "k_max": 3,
                 "potential": {"kind": "constant", "value": [1.5, 1.0]},
                 "support": [1.0, 3.0]},
}


def _records(spec, check):
    records = run_identity_suite(SuiteConfig(models=(spec,), seed=7)).records
    return [rec for rec in records if rec.check_name == check]


def _row_one_scaled(apply):
    def mutant(self, f, tilde):
        out = apply(self, f, tilde)
        out[1] *= 1.0 + 1e-6
        return out
    return mutant


def _trace0_spacing(trace0):
    # the boundary flux over 1.0002 h/2 instead of h/2
    return lambda self, f: trace0(self, f) / 1.0002


@_kills("green_identity")
@pytest.mark.parametrize("name", sorted(_FD1D))
@pytest.mark.parametrize("hook, mutate", [("_apply", _row_one_scaled),
                                          ("trace0", _trace0_spacing)],
                         ids=["apply_row_one", "trace0_spacing"])
def test_fd1d_green_identity_fails_every_record(monkeypatch, name, hook,
                                                mutate):
    spec = _FD1D[name]
    clean = _records(spec, "green_identity")
    assert len(clean) == 50 and all(rec.passed for rec in clean)
    monkeypatch.setattr(Fd1dModel, hook, mutate(getattr(Fd1dModel, hook)))
    # measured: at least 1.2e6 times the tolerance
    assert all(rec.defect > 1e5 * rec.tolerance
               for rec in _records(spec, "green_identity"))


# the power spec's points lie far left (lambda < -40), where the column-1
# kernel, with Neumann data at x = L, has all but vanished at row 1
@_kills("green_on_kernels")
@pytest.mark.parametrize("name, hook, mutate, failed", [
    ("v0", "_apply", _row_one_scaled, [True] * 12),
    ("power", "_apply", _row_one_scaled, [True, False] * 6),
    ("v0", "trace0", _trace0_spacing, [True] * 12),
    ("power", "trace0", _trace0_spacing, [True] * 12),
], ids=["v0-apply_row_one", "power-apply_row_one", "v0-trace0_spacing",
        "power-trace0_spacing"])
def test_fd1d_green_on_kernels_fails(monkeypatch, name, hook, mutate, failed):
    spec = _FD1D[name]
    clean = _records(spec, "green_on_kernels")
    assert len(clean) == 12 and all(rec.passed for rec in clean)
    monkeypatch.setattr(Fd1dModel, hook, mutate(getattr(Fd1dModel, hook)))
    assert [not rec.passed
            for rec in _records(spec, "green_on_kernels")] == failed


def _tilde_blind(factors):
    # the factorization lookup drops tilde: the adjoint side solves on the
    # V side's bands
    return lambda self, system, lam, tilde: factors(self, system, lam, False)


@_kills("adjoint_resolvent")
def test_fd1d_adjoint_resolvent_needs_the_tilde_factorization(monkeypatch):
    clean = {name: _records(spec, "adjoint_resolvent")
             for name, spec in _FD1D.items()}
    assert all(len(recs) == 20 and all(rec.passed for rec in recs)
               for recs in clean.values())
    monkeypatch.setattr(Fd1dModel, "_factors",
                        _tilde_blind(Fd1dModel._factors))
    # measured: at least 4e7 times the tolerance
    assert all(rec.defect > 1e6 * rec.tolerance
               for rec in _records(_FD1D["power"], "adjoint_resolvent"))
    # V = 0 is real, so T~ = T and both sides have the same bands: the
    # mutant is the clean model there, and no record can tell them apart
    assert [rec.defect for rec in _records(_FD1D["v0"], "adjoint_resolvent")] \
        == [rec.defect for rec in clean["v0"]]


@_kills("green_on_kernels")
@pytest.mark.parametrize("name", sorted(_DISK))
def test_disk_green_on_kernels_fails(monkeypatch, name):
    spec = _DISK[name]
    clean = _records(spec, "green_on_kernels")
    assert len(clean) == 4 and all(rec.passed for rec in clean)
    apply = DiskModel._apply
    monkeypatch.setattr(DiskModel, "_apply", lambda self, f, tilde:
                        apply(self, f, tilde) * (1.0 + 1e-6))
    failed = [not rec.passed for rec in _records(spec, "green_on_kernels")]
    assert failed == [True] * 4


@_kills("weyl_mode_diagonal")
def test_disk_weyl_mode_diagonal_fails(monkeypatch):
    # the V = 0 interior disk's closed Bessel form against trace1 of the
    # collocation kernels (a disk with V writes no such record)
    spec = _DISK["interior"]
    clean = _records(spec, "weyl_mode_diagonal")
    assert len(clean) == 2 and all(rec.passed for rec in clean)
    trace1 = DiskModel.trace1
    monkeypatch.setattr(DiskModel, "trace1", lambda self, f:
                        trace1(self, f) * (1.0 + 1e-6))
    # measured: about 1e3 times the tolerance
    assert all(rec.defect > 1e2 * rec.tolerance
               for rec in _records(spec, "weyl_mode_diagonal"))


_SPECS = {**{f"fd1d-{name}": spec for name, spec in _FD1D.items()},
          **{f"disk-{name}": spec for name, spec in _DISK.items()}}
_SUITES = {"identity": run_identity_suite, "decay": run_decay_suite,
           "bs": run_bs_cross_check}


@functools.cache
def _clean(spec, suite):
    # the unpatched records of one suite on one spec, by check
    by_check = {}
    for rec in _SUITES[suite](SuiteConfig(models=(_SPECS[spec],),
                                          seed=7)).records:
        by_check.setdefault(rec.check_name, []).append(rec)
    return by_check


def _times(fn):
    # the hook's output x (1 + 1e-6)
    return lambda self, *args: fn(self, *args) * (1.0 + 1e-6)


def _tilde_times(fn):
    # the T~ side's output x (1 + 1e-6); a body's last argument is tilde
    def mutant(self, *args):
        out = fn(self, *args)
        return out * (1.0 + 1e-6) if args[-1] else out
    return mutant


def _tilde_kernel_times(kernel):
    # the disk's T~-side mode kernel (samples and f(1)) x (1 + 1e-6)
    def mutant(self, lam, tilde, k):
        vals, f1 = kernel(self, lam, tilde, k)
        scale = 1.0 + 1e-6 if tilde else 1.0
        return vals * scale, f1 * scale
    return mutant


def _v_kk_shifted(hn_blocks):
    # V_KK's first entry + 1e-6: it enters F = S (I + C1)^-1 S and not the
    # solve of H_N + V - lam
    def mutant(self):
        blocks = []
        for block in hn_blocks(self):
            v_k = block.v_k.copy()
            v_k[0] += 1e-6
            blocks.append(dataclasses.replace(block, v_k=v_k))
        return tuple(blocks)
    return mutant


def _no_threshold(find_xi2):
    def mutant(model):
        raise ThresholdNotFound("the scan found no threshold")
    return mutant


def _lambda_blind(decay):
    # every point of the ray reads the relative bound at its first point
    return lambda model, lams: [(lam, decay(model, lams[:1])[0][1])
                                for lam in lams]


def _slope(weyl_batch):
    # M(lambda) |lambda|^0.1: the decay exponent moves by 0.1
    return lambda self, lams, tilde=False: weyl_batch(self, lams, tilde) * (
        np.abs(np.asarray(lams, dtype=complex))[:, None, None] ** 0.1)


@dataclasses.dataclass(frozen=True)
class _Row:
    spec: str      # a key of _SPECS
    suite: str     # a key of _SUITES
    owner: object  # the class or module whose attribute is patched
    attr: str
    mutate: object  # original -> mutant
    checks: tuple  # every record of each of these fails under the mutant


_ROWS = {
    "apply": _Row("fd1d-v0", "identity", Fd1dModel, "_apply", _times,
                  ("gamma_kernel_ode", "krein_pde_residual")),
    "solve_bvp": _Row("fd1d-v0", "identity", Fd1dModel, "_solve_bvp", _times,
                      ("gamma_kernel_trace", "difference_identity",
                       "krein_bc_residual")),
    "neumann_resolvent": _Row(
        "fd1d-v0", "identity", Fd1dModel, "_neumann_resolvent", _times,
        ("gamma_resolvent_identity", "resolvent_first_identity",
         "krein_vs_dense")),
    "tilde_neumann_resolvent": _Row(
        "fd1d-v0", "identity", Fd1dModel, "_neumann_resolvent", _tilde_times,
        ("adjoint_resolvent", "krein_adjoint_mirror")),
    "tilde_kernel": _Row("disk-exterior", "identity", DiskModel, "_kernel",
                         _tilde_kernel_times, ("weyl_symmetry",)),
    "v_kk": _Row("fd1d-power", "identity", TripleModel, "hn_blocks",
                 _v_kk_shifted, ("sectorial_defect",)),
    "no_threshold": _Row("fd1d-power", "identity", triple_core, "find_xi2",
                         _no_threshold, ("threshold_negative",)),
    "lambda_blind_bound": _Row(
        "fd1d-power", "identity", triple_core, "relative_bound_decay",
        _lambda_blind, ("relative_bound_vanishing",)),
    "slope": _Row("fd1d-power", "decay", TripleModel, "weyl_batch", _slope,
                  ("decay_exponent",)),
    "weyl_batch": _Row("fd1d-v0", "bs", TripleModel, "weyl_batch", _times,
                       ("bs_hausdorff_dense",)),
    "bs_apply": _Row("fd1d-v0", "bs", Fd1dModel, "_apply", _times,
                     ("bs_kernel_residual",)),
    "reference_weyl_batch": _Row("disk-interior", "bs", TripleModel,
                                 "weyl_batch", _times,
                                 ("bs_reference_match",)),
}


@pytest.mark.parametrize("name", sorted(_ROWS))
def test_mutant_fails_its_checks(monkeypatch, name):
    row = _ROWS[name]
    clean = _clean(row.spec, row.suite)
    for check in row.checks:
        assert clean[check] and all(rec.passed for rec in clean[check])
    monkeypatch.setattr(row.owner, row.attr,
                        row.mutate(getattr(row.owner, row.attr)))
    records = _SUITES[row.suite](SuiteConfig(models=(_SPECS[row.spec],),
                                             seed=7)).records
    for check in row.checks:
        failed = [not rec.passed for rec in records
                  if rec.check_name == check]
        assert failed == [True] * len(clean[check]), check


def test_every_check_has_a_failing_row():
    # a check registered without a mutant that fails it verifies nothing
    covered = _KILLED | {check for row in _ROWS.values()
                         for check in row.checks}
    assert covered == set(CHECK_REGISTRY)
