import numpy as np
import pytest

from btriple import (
    DiskModelConfig,
    Potential1D,
    ShootConfig,
    build_disk,
    build_fd1d,
    build_shoot1d,
)


def complex_bump(x):
    return (3.0 - 2.0j) * np.sin(np.pi * x) ** 2


@pytest.fixture(scope="session")
def fd_v0():
    return build_fd1d(n=96, length=1.0)


@pytest.fixture(scope="session")
def fd_v0_fine():
    return build_fd1d(n=512, length=1.0)


@pytest.fixture(scope="session")
def fd_complex():
    return build_fd1d(n=96, length=1.0,
                      potential=Potential1D.from_callable(complex_bump))


@pytest.fixture(scope="session")
def shoot_v0():
    return build_shoot1d(ShootConfig())


@pytest.fixture(scope="session")
def shoot_complex():
    return build_shoot1d(
        ShootConfig(potential=Potential1D.from_callable(complex_bump)))


@pytest.fixture(scope="session")
def disk_int_v0():
    return build_disk(DiskModelConfig(side="interior", k_max=4))


@pytest.fixture(scope="session")
def disk_ext_v0():
    return build_disk(DiskModelConfig(side="exterior", k_max=4))


@pytest.fixture(scope="session")
def disk_int_const():
    cfg = DiskModelConfig(side="interior", k_max=3,
                          radial_potential=Potential1D.constant(3.0 - 2.0j),
                          support=(0.5, 1.0))
    return build_disk(cfg)


@pytest.fixture(scope="session")
def disk_ext_const():
    cfg = DiskModelConfig(side="exterior", k_max=3,
                          radial_potential=Potential1D.constant(1.5 + 1.0j),
                          support=(1.0, 3.0))
    return build_disk(cfg)
