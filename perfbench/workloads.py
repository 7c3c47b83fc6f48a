"""The three workloads and one round of each.

A round does what a user does with a model family: build and certify every
spec (``setup``), sweep the Weyl function over fixed spectral points
(``btriple weyl``), scan fixed windows for Robin eigenvalues (``btriple
eigs``) and run the verification suites into a report serialized to JSON
and CSV (``btriple verify``). Every output is checked against
``reference.py`` or against a property the method must have; a mismatch is
a problem and makes the run incorrect.

The host's speed drifts within seconds, so a round does not run its
operations kind by kind: the set-ups, sweeps and scans are spread between
the verify parts, and every metric samples the whole round.

The package is reached through module attributes looked up at call time
(``harness.run_identity_suite``, ``triple_core.weyl``), so the traced run's
wrappers see every call the round makes.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass

import numpy as np

import btriple.harness as harness
import btriple.triple_core as triple_core
from btriple import model_from_spec
from btriple.errors import BTripleError

import reference

# relative max-entry error allowed against a reference Weyl matrix, and for
# the property M(lambda) = M~(conj lambda)*; measured worst 5e-11 (shoot1d)
WEYL_RTOL = 1e-9
# relative distance allowed between found and reference eigenvalues;
# measured worst 3e-11 (disk)
EIG_RTOL = 1e-8
# SuiteConfig.seed of every verify, the CLI default: with drawn suite seeds
# robin_eigs misses a root on some seeds and not others (fd1d, seed 33)
SUITE_SEED = 7
# relative jitter the run seed gives each Weyl sweep point; points beyond
# |lambda| = 1e5 stay fixed, so the disk overflow failures do not depend on it
JITTER = 0.02
FIXED_BEYOND = 1e5


@dataclass(frozen=True)
class Scan:
    spec: int           # index of the model in Workload.specs
    b: tuple            # boundary operator matrix rows
    region: tuple       # (re_min, re_max, im_min, im_max)
    grid: tuple         # (n_re, n_im)
    reference: object   # () -> every eigenvalue near the region


@dataclass(frozen=True)
class Workload:
    specs: tuple            # model spec mappings, as in a CLI config
    sweeps: tuple           # per spec: the spectral points of the Weyl sweep
    weyl_reference: tuple   # per spec: lam -> matrix, or None for the property
    scans: tuple
    verify_parts: tuple     # (suite name, spec index), in the round's order
    sweep_repeats: int      # sweeps of every spec per round
    setup_repeats: int      # set-ups of every spec per round


def _ray(start, ratio, count):
    return tuple(start * ratio**k for k in range(count))


_FD_POWER = {"kind": "power", "c": [1.0, -0.5], "x0": 0.4, "alpha": 0.4, "p": 2.0}
_FD_B = ((0.6 + 0.3j, -0.4 + 0.2j), (0.1 - 0.5j, -0.8 + 0.4j))
_FD_SWEEP = _ray(-0.75, 4.0, 8) + (5 + 3j, -10 + 20j, 40 - 7j, 300 - 2j,
                                    1e3 + 1e3j)
_FD_REGION = (-20.0, 60.0, -6.0, 6.0)

_SHOOT_BASE = {"model": "shoot1d", "panels": 4, "order": 12, "fd_nodes": 128}
_SHOOT_C = 3.0 - 2.0j
_SHOOT_SWEEP = (-1.0, -10.0, -100.0, -1e3, 5 + 3j, 20 - 8j, -50 + 50j)

_DISK_INTERIOR = {"model": "disk", "side": "interior", "k_max": 4}
_DISK_EXTERIOR = {"model": "disk", "side": "exterior", "k_max": 3,
                  "potential": {"kind": "constant", "value": [1.5, 1.0]},
                  "support": [1.0, 3.0]}
_DISK_REGION = (0.3, 40.3, -0.5, 0.5)
_COMPLEX_POINTS = (3 + 2j, 20 - 5j, -40 + 60j)


def _parts(suites, n_specs):
    """Every suite on every spec, one spec after the other."""
    return tuple((suite, i) for i in range(n_specs) for suite in suites)


def _scalar(beta, dim):
    return tuple(tuple(beta if i == j else 0.0 for j in range(dim))
                 for i in range(dim))


def _fd1d():
    n = 96
    return Workload(
        specs=({"model": "fd1d", "n": n},
               {"model": "fd1d", "n": n, "potential": _FD_POWER}),
        sweeps=(_FD_SWEEP, _FD_SWEEP),
        weyl_reference=(lambda lam: reference.fd_weyl_v0(lam, n), None),
        verify_parts=_parts(("run_bs_cross_check", "run_identity_suite",
                             "run_decay_suite"), 2),
        sweep_repeats=24,
        setup_repeats=8,
        scans=(
            Scan(0, _scalar(0.7, 2), _FD_REGION, (96, 33),
                 lambda: reference.fd1d_robin_eigenvalues(
                     n, None, np.array(_scalar(0.7, 2)))),
            Scan(1, _FD_B, _FD_REGION, (96, 33),
                 lambda: reference.fd1d_robin_eigenvalues(
                     n, _FD_POWER, np.array(_FD_B))),
        ),
    )


def _shoot1d():
    c = _SHOOT_C
    with_c = dict(_SHOOT_BASE,
                  potential={"kind": "constant", "value": [c.real, c.imag]})
    # The window lies left of the spectrum. A window that holds a root makes
    # robin_eigs rescan with that root deflated, and the deflated Newton
    # iterates leave the window for |lambda| ~ 1e6, where one shoot1d Weyl
    # matrix takes seconds: a single such scan runs for minutes.
    return Workload(
        specs=(dict(_SHOOT_BASE), with_c),
        # -1e4 stresses step control; it costs 1.5 s, so only V = 0 has it
        sweeps=(_SHOOT_SWEEP + (-1e4,), _SHOOT_SWEEP),
        weyl_reference=(lambda lam: reference.interval_weyl(lam, 0.0),
                        lambda lam: reference.interval_weyl(lam, c)),
        # the decay and Birman-Schwinger suites follow rays out to
        # |lambda| ~ 2.6e5 and take 51 s here; see perfbench/README.md
        verify_parts=_parts(("run_identity_suite",), 2),
        # one sweep per spec: the shot cache would serve a second sweep on
        # the same models
        sweep_repeats=1,
        setup_repeats=4,
        scans=(
            Scan(1, _scalar(0.7, 2), (c.real - 40.0, c.real - 4.0,
                                      c.imag - 1.0, c.imag + 1.0), (12, 3),
                 lambda: reference.interval_robin_eigenvalues(0.7, c, 50.0)),
        ),
    )


def _disk():
    # -5e5 and -6e5 fail at this commit: bessel.py refuses |z| > 700
    interior_sweep = (-0.75, -5.0, -50.0, -500.0, -5e3, -5e4, -4.9e5, -5e5,
                      -6e5) + _COMPLEX_POINTS
    exterior_sweep = (-5.0, -50.0, -500.0, -5e3, -5e4) + _COMPLEX_POINTS
    dim = 2 * _DISK_INTERIOR["k_max"] + 1
    return Workload(
        specs=(_DISK_INTERIOR, _DISK_EXTERIOR),
        sweeps=(interior_sweep, exterior_sweep),
        weyl_reference=(lambda lam: reference.disk_interior_weyl(lam, 4), None),
        verify_parts=_parts(("run_identity_suite", "run_bs_cross_check",
                             "run_decay_suite"), 2),
        sweep_repeats=3,
        setup_repeats=2,
        scans=tuple(
            Scan(0, _scalar(beta, dim), _DISK_REGION, (161, 5),
                 lambda beta=beta: reference.disk_robin_eigenvalues(
                     beta, 4, _DISK_REGION[1] + 5.0))
            for beta in (-1.0, 0.5, 3.0)),
    )


WORKLOADS = {"fd1d": _fd1d, "shoot1d": _shoot1d, "disk": _disk}


def _reject_constant(token):
    raise ValueError(f"report JSON holds the non-standard token {token}")


class Round:
    """Timings, operation counts and problems of one round.

    ``times`` maps each operation kind to the durations of its operations in
    the order they ran; ``sweep_ok`` counts the Weyl points that did not fail
    in one sweep of every spec.
    """

    def __init__(self):
        self.times = {"setup": [], "weyl": [], "eigs": [], "verify": []}
        self.sweep_ok = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.problems = []


def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _build(specs):
    # the package-level name, so harness.model_builds counts suite rebuilds only
    models = [model_from_spec(spec) for spec in specs]
    for model in models:
        model.certified_threshold()
    return models


@dataclass(frozen=True)
class Inputs:
    """What one seed makes of a workload, with the reference values."""

    sweeps: tuple       # per spec: the jittered Weyl sweep points
    weyl_refs: tuple    # per spec and point: matrix, or None for the property
    eig_refs: tuple     # per scan: every eigenvalue near its region


def make_inputs(workload, seed):
    rng = np.random.default_rng(seed)
    sweeps = []
    for sweep in workload.sweeps:
        points = []
        for lam in sweep:
            u = rng.uniform(-JITTER, JITTER, 2)
            if abs(lam) <= FIXED_BEYOND:
                lam = complex(lam)
                lam = complex(lam.real * (1 + u[0]), lam.imag * (1 + u[1]))
                lam = lam.real if lam.imag == 0.0 else lam
            points.append(lam)
        sweeps.append(tuple(points))
    weyl_refs = tuple(tuple(None if ref is None else ref(lam) for lam in sweep)
                      for ref, sweep in zip(workload.weyl_reference, sweeps))
    return Inputs(sweeps=tuple(sweeps), weyl_refs=weyl_refs,
                  eig_refs=tuple(scan.reference() for scan in workload.scans))


def _weyl_error(sample, ref):
    m = sample.m
    if ref is None:
        ref = sample.m_tilde_at_conj.conj().T
    return float(np.abs(m - ref).max() / max(np.abs(ref).max(), 1e-300))


def plan(workload):
    """The round's operations in order, as (kind, index) pairs.

    The first set-up comes first, since the sweeps and scans use the models
    of the latest set-up. The other set-ups, the sweeps (one spec each) and
    the scans are spread evenly over the gaps around the verify parts, and
    the report is assembled last.
    """
    groups = (("setup", workload.setup_repeats),
              ("weyl", workload.sweep_repeats * len(workload.specs)),
              ("eigs", len(workload.scans)))
    parts = len(workload.verify_parts)
    keyed = [(0.0, 0, "setup", 0)]
    for order, (kind, count) in enumerate(groups):
        first = 1 if kind == "setup" else 0
        keyed += [((i + 0.5) / count * (parts + 1), order, kind, i)
                  for i in range(first, count)]
    keyed += [(k + 1.0, len(groups), "verify", k) for k in range(parts)]
    keyed.sort()
    return [(kind, i) for _, _, kind, i in keyed] + [("report", 0)]


def run_round(workload, inputs):
    """Every operation of ``plan(workload)`` once, timed and checked."""
    rnd = Round()
    models = None
    reports = []
    for kind, i in plan(workload):
        if kind == "setup":
            dt, models = _timed(lambda: _build(workload.specs))
            rnd.times["setup"].append(dt)
        elif kind == "weyl":
            _weyl(workload, inputs, models, i % len(workload.specs), rnd)
        elif kind == "eigs":
            _eigs(workload, inputs, models, i, rnd)
        elif kind == "verify":
            suite, spec = workload.verify_parts[i]
            config = harness.SuiteConfig(models=(workload.specs[spec],),
                                         seed=SUITE_SEED)
            dt, report = _timed(lambda: getattr(harness, suite)(config))
            rnd.times["verify"].append(dt)
            reports.append(report)
        else:
            _report(reports, rnd)
    return rnd


def _weyl(workload, inputs, models, spec, rnd):
    sweep = inputs.sweeps[spec]

    def run():
        results = []
        for lam in sweep:
            try:
                results.append(triple_core.weyl(models[spec], lam,
                                                allow_uncertified=True))
            except BTripleError as exc:
                results.append(exc)
        return results

    dt, results = _timed(run)
    rnd.times["weyl"].append(dt)
    for lam, res, ref in zip(sweep, results, inputs.weyl_refs[spec]):
        rnd.attempted += 1
        if isinstance(res, BTripleError):
            rnd.failed += 1
            rnd.failures.append(f"weyl {workload.specs[spec]['model']} "
                                f"lambda={lam}: {type(res).__name__}: {res}")
            continue
        if len(rnd.times["weyl"]) <= len(workload.specs):
            rnd.sweep_ok += 1
        err = _weyl_error(res, ref)
        if not err <= WEYL_RTOL:
            rnd.problems.append(f"weyl spec {spec} lambda={lam}: relative "
                                f"error {err:.3e} > {WEYL_RTOL:.0e}")


def _eigs(workload, inputs, models, k, rnd):
    scan = workload.scans[k]
    dt, roots = _timed(lambda: triple_core.robin_eigs(
        models[scan.spec], triple_core.BoundaryOperator(matrix=np.array(scan.b)),
        scan.region, scan.grid))
    rnd.times["eigs"].append(dt)
    rnd.attempted += 1
    gap = reference.set_distance(roots, inputs.eig_refs[k], scan.region,
                                 0.01 * (scan.region[1] - scan.region[0]))
    if not gap <= EIG_RTOL:
        rnd.problems.append(f"eigs scan {k}: found {roots} is {gap:.3e} "
                            f"from the reference > {EIG_RTOL:.0e}")


def _report(reports, rnd):
    """The verify parts' records as one report, serialized and checked."""
    def assemble():
        records = [rec for rep in reports for rec in rep.records]
        timings = {f"part{k}": rep.timings for k, rep in enumerate(reports)}
        report = harness.VerificationReport.from_records(records, timings)
        return report, report.to_json(), report.to_csv()

    dt, (report, text, csv_text) = _timed(assemble)
    rnd.times["verify"].append(dt)
    rnd.attempted += len(report.records)
    for rec in report.records:
        if not rec.passed:
            rnd.failed += 1
            rnd.problems.append(f"verify {rec.check_name} {rec.model}: defect "
                                f"{rec.defect!r} > {rec.tolerance!r}")
    try:
        json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        rnd.problems.append(f"verify report is not strict JSON: {exc}")
    if len(csv_text.splitlines()) != len(report.records) + 2:
        rnd.problems.append("verify CSV does not hold one row per record")
