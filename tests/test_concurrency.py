"""Two threads sharing one model get the bits a serial run gets, on every
family with and without V: weyl, weyl_batch, solve_bvp, both sides of
neumann_resolvent and krein_resolvent, each thread on its own spectral
points, and the sectorial layer on a fresh model, whose threshold and H_N
blocks both threads fill."""
import sys
import threading

import numpy as np
import pytest

from btriple import (DiskModelConfig, Potential1D, ShootConfig, build_disk,
                     build_fd1d, build_shoot1d, c1_norm_at, krein_resolvent,
                     relative_bound_decay, sectorial_factorization, weyl)

from .conftest import complex_bump

_MODELS = {
    "fd1d-v0": lambda: build_fd1d(n=96),
    "fd1d-power": lambda: build_fd1d(n=96, potential=Potential1D.
                                     power_singularity(1.0 - 0.5j, 0.4, 0.4,
                                                       2.0)),
    "shoot1d-v0": lambda: build_shoot1d(ShootConfig(), panels=4, order=12,
                                        fd_nodes=128),
    "shoot1d-bump": lambda: build_shoot1d(
        ShootConfig(potential=Potential1D.from_callable(complex_bump)),
        panels=4, order=12, fd_nodes=128),
    "disk-interior-v0": lambda: build_disk(DiskModelConfig(side="interior",
                                                           k_max=2)),
    "disk-interior-v": lambda: build_disk(DiskModelConfig(
        side="interior", k_max=2, support=(0.5, 1.0),
        radial_potential=Potential1D.constant(3.0 - 2.0j))),
    "disk-exterior-v0": lambda: build_disk(DiskModelConfig(side="exterior",
                                                           k_max=2)),
    "disk-exterior-v": lambda: build_disk(DiskModelConfig(
        side="exterior", k_max=3, support=(1.0, 3.0),
        radial_potential=Potential1D.constant(1.5 + 1.0j))),
}

# each thread's own points; more than an fd1d model (per system) or a disk
# model caches, so the two threads evict and refill those caches under each
# other
_POINTS = (np.array([-6.0, -10.0 + 2.0j, -25.0, -3.0 - 1.0j, -40.0, -8.0]),
           np.array([-7.0, -12.0 - 2.0j, -30.0, -4.0 + 1.0j, -50.0, -9.0]))


def _work(model, lams):
    rng = np.random.default_rng(0)
    f = model.random_domain_vector(rng)
    g = rng.standard_normal(model.boundary_dim) \
        + 1j * rng.standard_normal(model.boundary_dim)
    b = 0.7 * np.eye(model.boundary_dim)
    out = [model.weyl_batch(lams)]
    for lam in lams:
        out.append(weyl(model, lam, allow_uncertified=True).m)
        out.append(model.solve_bvp(lam, g))
        out.append(model.neumann_resolvent(lam, f))
        out.append(model.neumann_resolvent_tilde(lam, f))
        out.append(krein_resolvent(model, b, lam, f, allow_uncertified=True))
    return out


def _in_two_threads(model, work, repeats):
    """work(model, k) for thread k = 0, 1, ``repeats`` times each, both
    threads started together: the results, and the exceptions raised."""
    results, errors = ([[] for _ in range(2)] for _ in range(2))
    start = threading.Barrier(2)

    def run(k):
        start.wait()
        try:
            for _ in range(repeats):
                results[k].append(work(model, k))
        except Exception as exc:  # the test reports it
            errors[k].append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, between numpy calls
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results, errors[0] + errors[1]


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_shared_model_matches_a_serial_run(name):
    serial = [_work(_MODELS[name](), lams) for lams in _POINTS]
    results, errors = _in_two_threads(
        _MODELS[name](), lambda model, k: _work(model, _POINTS[k]), 3)
    assert errors == []
    for k in range(2):
        for run in results[k]:
            assert all(np.array_equal(got, want, equal_nan=True)
                       for got, want in zip(run, serial[k]))


def test_exterior_benchmark_disk_gives_no_wrong_weyl():
    # two threads, 12 real points each, 30 times: 720 Weyl matrices
    lams = [-np.linspace(2.0, 60.0, 12) - 0.5 * k for k in range(2)]
    fresh = _MODELS["disk-exterior-v"]()
    serial = [[weyl(fresh, lam, allow_uncertified=True).m for lam in points]
              for points in lams]
    results, errors = _in_two_threads(
        _MODELS["disk-exterior-v"](),
        lambda model, k: [weyl(model, lam, allow_uncertified=True).m
                          for lam in lams[k]], 30)
    assert errors == []
    wrong = sum(not np.array_equal(got, want)
                for k in range(2) for run in results[k]
                for got, want in zip(run, serial[k]))
    assert wrong == 0


def _sectorial_work(model, k):
    # thread k's own points below the threshold, and its own probe seed
    thr = model.certified_threshold()
    rng = np.random.default_rng(k)
    out = [thr]
    for lam in (thr * (1.5 + k), thr * (4.0 + k)):
        sf = sectorial_factorization(model, lam, rng)
        out += [c1_norm_at(model, lam), sf.defect, sf.resolvent_norm]
    out += [norm for _, norm in relative_bound_decay(model, [-10.0 - k,
                                                              -1e3])]
    return out


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_shared_fresh_model_sectorial_layer(name):
    serial = [_sectorial_work(_MODELS[name](), k) for k in range(2)]
    results, errors = _in_two_threads(_MODELS[name](), _sectorial_work, 3)
    assert errors == []
    for k in range(2):
        assert all(run == serial[k] for run in results[k])
