"""Mutants that the identity records must fail. Each patches one hook of a
model class, at a relative size of 2e-4 or less or by handing the adjoint
side the V side's factorization, and a record that no such wrong model can
fail verifies nothing (mutation analysis: DeMillo, Lipton & Sayward, IEEE
Computer 11(4), 1978). The specs are the benchmark's."""
import pytest

from btriple import DiskModel, Fd1dModel
from btriple.harness import SuiteConfig, run_identity_suite

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
