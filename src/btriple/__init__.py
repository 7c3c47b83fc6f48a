"""Generalized boundary triples for adjoint pairs of Schrodinger operators.

The package computes gamma-fields, Weyl functions (Neumann-to-Dirichlet
maps), Krein-type resolvents of Robin realizations, and Birman-Schwinger
eigenvalues for -laplace + V with complex V, and verifies the operator
identities behind them on exactly solvable models: a finite-difference
interval, a shooting-based continuum interval, and the interior and
exterior of the unit disk decomposed into Fourier modes.
"""

from .errors import (
    BTripleError,
    BirmanSchwingerSingular,
    ConfigError,
    ConstraintSingular,
    DegenerateInput,
    InvalidPotential,
    MatchingSingular,
    NoConvergence,
    NoRootInBracket,
    NotAnEigenvalue,
    NotCertified,
    NotPositiveDefinite,
    SingularMatrix,
    ThresholdNotFound,
    TruncationWarning,
)
from .numerics import (
    eig_dense,
    fit_log_slope,
    smallest_singular_value,
    solve_linear,
)
from .grids import PanelGrid, graded_edges
from .potentials import Potential1D
from .triple_core import (
    BoundaryOperator,
    SectorialFactorization,
    TripleModel,
    WeylSample,
    bs_kernel_lift,
    c1_norm_at,
    difference_identity_defect,
    find_xi2,
    gamma,
    gamma_adjoint,
    gamma_resolvent_identity_defect,
    gamma_tilde,
    green_defect,
    krein_resolvent,
    krein_resolvent_tilde,
    relative_bound_decay,
    robin_eigs,
    sectorial_factorization,
    weyl,
    weyl_decay_study,
    weyl_symmetry_defect,
)
from .model_fd1d import Fd1dModel, FdGrid, build_fd1d, dense_robin_matrix
from .model_shoot1d import Shoot1dModel, ShootConfig, build_shoot1d
from .model_disk import (
    DiskModel,
    DiskModelConfig,
    build_disk,
    disk_robin_reference,
)
from .harness import (
    CHECK_REGISTRY,
    CheckRecord,
    SuiteConfig,
    VerificationReport,
    decay_samples_csv,
    model_from_spec,
    potential_from_spec,
    run_bs_cross_check,
    run_decay_suite,
    run_identity_suite,
)

__version__ = "0.1.0"

__all__ = [
    "BTripleError",
    "BirmanSchwingerSingular",
    "ConfigError",
    "ConstraintSingular",
    "DegenerateInput",
    "InvalidPotential",
    "MatchingSingular",
    "NoConvergence",
    "NoRootInBracket",
    "NotAnEigenvalue",
    "NotCertified",
    "NotPositiveDefinite",
    "SingularMatrix",
    "ThresholdNotFound",
    "TruncationWarning",
    "eig_dense",
    "fit_log_slope",
    "smallest_singular_value",
    "solve_linear",
    "PanelGrid",
    "graded_edges",
    "Potential1D",
    "BoundaryOperator",
    "SectorialFactorization",
    "TripleModel",
    "WeylSample",
    "bs_kernel_lift",
    "c1_norm_at",
    "difference_identity_defect",
    "find_xi2",
    "gamma",
    "gamma_adjoint",
    "gamma_resolvent_identity_defect",
    "gamma_tilde",
    "green_defect",
    "krein_resolvent",
    "krein_resolvent_tilde",
    "relative_bound_decay",
    "robin_eigs",
    "sectorial_factorization",
    "weyl",
    "weyl_decay_study",
    "weyl_symmetry_defect",
    "Fd1dModel",
    "FdGrid",
    "build_fd1d",
    "dense_robin_matrix",
    "Shoot1dModel",
    "ShootConfig",
    "build_shoot1d",
    "DiskModel",
    "DiskModelConfig",
    "build_disk",
    "disk_robin_reference",
    "CHECK_REGISTRY",
    "CheckRecord",
    "SuiteConfig",
    "VerificationReport",
    "decay_samples_csv",
    "model_from_spec",
    "potential_from_spec",
    "run_bs_cross_check",
    "run_decay_suite",
    "run_identity_suite",
]
