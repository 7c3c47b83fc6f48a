"""Abstract boundary-triple layer: model contract plus derived operators.

A TripleModel discretizes an adjoint pair T = -Delta + V, T~ = -Delta + V~
on some domain together with two trace maps, Neumann trace0 and Dirichlet
trace1 (the tilded traces coincide with them). Everything else lives here
as model-independent operations: the solution operator gamma of the
boundary value problem, the Weyl function M (a Neumann-to-Dirichlet map),
the Krein-type resolvent of Robin realizations, the Birman-Schwinger
eigenvalue machinery, the sectorial factorization of the Neumann resolvent,
and the asymptotic studies that feed the verification harness.

Inner products are conjugate-linear in the second slot throughout. The
identities these operations realize are exact relations of the underlying
pair; their numerical defects are discretization and rounding residue, and
the test suite pins each one to a model-specific tolerance.
"""

from __future__ import annotations

import abc
import cmath
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    BirmanSchwingerSingular,
    BTripleError,
    NoConvergence,
    NotAnEigenvalue,
    NotCertified,
    NotPositiveDefinite,
    ThresholdNotFound,
)
from .numerics import (
    fit_log_slope,
    smallest_singular_value,
    solve_linear,
)
# not called here; the traced benchmark run patches the names in this module
from .numerics import complex_newton, herm_inv_sqrt  # noqa: F401

# sigma_min floor below which I - B M(lambda) counts as singular
_BS_SINGULAR_TOL = 1e-10

# two roots closer than this merge into one
_ROOT_MERGE_RADIUS = 1e-7

# robin_eigs doubles its contour nodes up to this many
_CONTOUR_MAX_NODES = 4096

# robin_eigs cuts a region that finds no agreeing levels in two at most
# this many times over
_CONTOUR_SPLITS = 4

# two contour levels agree when every root inside the region moved by at
# most this fraction of the contour's scale max(a, b)
_CONTOUR_RTOL = 1e-10

# contour moments robin_eigs starts from (K); doubled while the rank fills
# the pencil
_MOMENTS = 6

# Hankel singular values at or below this fraction of the largest (or of
# the integrand's mass, whichever is larger) count as zero
_HANKEL_RTOL = 1e-10

# H_N - lambda counts as singular once its smallest eigenvalue distance is
# this fraction of its largest (condition number past 1e14)
_SPECTRUM_HIT_REL = 1e-14

# spectral points per _weyl_chunk call of weyl_batch; bounds the working
# arrays of a family's vectorized kernel
_BATCH_CHUNK = 256

# probes r and safety factor alpha of the sectorial defect's randomized
# norm bound (Dixon 1983; Halko, Martinsson & Tropp 2011, sec. 4.3)
_PROBES, _PROBE_ALPHA = 8, 10.0


class TripleModel(abc.ABC):
    """Contract every concrete model implements, and the only view of a
    model that the verification harness takes.

    Domain vectors ("carriers") hold interior samples plus whatever trace
    slots the model needs so that trace0/trace1 are exact linear reads.
    The 𝓗 inner product sees interior samples only; trace slots are domain
    data, not L² mass.

    Required (abstract) members: ``kind``, ``has_potential``,
    ``v_sup_proxy``, ``boundary_dim``, ``trace0``/``trace1``, ``inner``,
    ``hn_v_blocks``, ``random_domain_vector``, and one body per operator of
    the adjoint pair, ``_apply(f, tilde)``, ``_solve_bvp(lam, g, tilde)``
    and ``_neumann_resolvent(lam, f, tilde)``, on the T~ side (V replaced
    by conj(V)) with ``tilde``. Callers use the public twins that call
    them: ``apply_T``/``apply_Ttilde``, ``solve_bvp``/``_tilde`` and
    ``neumann_resolvent``/``_tilde``. ``binner`` defaults to the plain dot
    product. Derived from them, computed once per model and the same for
    every family: ``hn_spectra``, one eigendecomposition of each H_N block
    with V cut down to its support, and ``certified_threshold``. Hooks,
    None by default (``mode_weyl_values`` by default returns None):
    ``mode_weyl_values(lam, tilde)``, the diagonal of a diagonal Weyl
    matrix; ``green_pairing_defect(f, g)``, a cancellation-free Green
    bracket for ``green_defect``; ``dense_robin(b, tilde=False)``, the
    dense matrix of A_B (A~_B with ``tilde``) on carrier slots 1..m, m its
    order; ``reference_robin_eigs(beta)``, closed-form Robin eigenvalues at
    B = beta I; ``_weyl_chunk(lams, tilde)``, the vectorized kernel of
    ``weyl_batch``. The harness gates its oracle checks on these hooks.

    ``weyl_batch(lams, tilde=False)`` returns the Weyl matrices M(lambda)
    (M~(lambda) with ``tilde``) of a whole vector of spectral points as one
    (N, d, d) stack, d = boundary_dim. A point where the model cannot
    evaluate M, i.e. one on the Neumann spectrum, gets an all-NaN row
    instead of an exception, so one bad node never aborts a batch. It hands
    chunks of at most ``_BATCH_CHUNK`` points to the family's vectorized
    ``_weyl_chunk``, which gives those NaN rows itself (fd1d: one Thomas
    sweep; shoot1d: one stacked DOP853 solve per side; the V = 0 disk: its
    closed Bessel form), and evaluates point by point a chunk whose kernel
    raises a BTripleError, and every chunk of a model without a kernel.
    ``robin_eigs`` evaluates M only through this call.
    """

    green_pairing_defect = None
    dense_robin = None
    reference_robin_eigs = None
    _weyl_chunk = None

    # -- structure ---------------------------------------------------------

    @property
    @abc.abstractmethod
    def kind(self):
        """Family name that labels report records and tolerance keys."""

    @property
    @abc.abstractmethod
    def has_potential(self):
        """False when V vanishes identically."""

    @abc.abstractmethod
    def v_sup_proxy(self):
        """Finite stand-in for sup |V| (Potential1D.sup_proxy)."""

    @property
    @abc.abstractmethod
    def boundary_dim(self):
        """Dimension of the boundary space carrier."""

    @abc.abstractmethod
    def _apply(self, f, tilde):
        """Action of T = -Delta + V on a carrier (interior entries); of
        T~ = -Delta + conj(V) with ``tilde``."""

    @abc.abstractmethod
    def trace0(self, f):
        """Neumann trace (outward derivative data)."""

    @abc.abstractmethod
    def trace1(self, f):
        """Dirichlet trace (boundary values)."""

    @abc.abstractmethod
    def inner(self, f, g):
        """The 𝓗 inner product, conjugate-linear in g."""

    @abc.abstractmethod
    def _solve_bvp(self, lam, g, tilde):
        """The unique kernel element f with (T - lam) f = 0, trace0(f) = g;
        of T~ with ``tilde``."""

    @abc.abstractmethod
    def _neumann_resolvent(self, lam, f, tilde):
        """(A0 - lam)^-1 f, where A0 is T restricted to ker trace0; the
        same for A0~ with ``tilde``."""

    def binner(self, phi, psi):
        """The boundary-space inner product, conjugate-linear in psi: the
        plain dot product unless a model weights its boundary basis."""
        return np.vdot(np.asarray(psi), np.asarray(phi))

    # -- the adjoint pair: T side and T~ side of each body -----------------

    def apply_T(self, f):
        return self._apply(f, False)

    def apply_Ttilde(self, g):
        return self._apply(g, True)

    def solve_bvp(self, lam, g):
        return self._solve_bvp(lam, g, False)

    def solve_bvp_tilde(self, mu, g):
        return self._solve_bvp(mu, g, True)

    def neumann_resolvent(self, lam, f):
        return self._neumann_resolvent(lam, f, False)

    def neumann_resolvent_tilde(self, mu, f):
        return self._neumann_resolvent(mu, f, True)

    @abc.abstractmethod
    def hn_v_blocks(self):
        """(H_N, V) reduced matrices of the free Neumann realization and of
        multiplication by V, in independent Hermitian-frame blocks."""

    @abc.abstractmethod
    def random_domain_vector(self, rng):
        """A random carrier consistent with the model's smoothness needs."""

    # -- derived structure -------------------------------------------------

    def hn_spectra(self):
        """One HnSpectrum per block of hn_v_blocks, computed once per
        model: the eigh of the symmetrized H_N, and V on its support K.
        Every lambda-dependent quantity of the sectorial layer is built
        from these, so no lambda pays for an eigendecomposition."""
        if getattr(self, "_hn_spectra", None) is None:
            spectra = []
            for hn, v in self.hn_v_blocks():
                hn = np.asarray(hn)
                v = np.asarray(v, dtype=complex)
                w, u = sla.eigh(0.5 * (hn + hn.conj().T))
                nonzero = v != 0
                k = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
                spectra.append(HnSpectrum(w=w, u=u, support=k, u_k=u[k],
                                          v_kk=v[np.ix_(k, k)]))
            self._hn_spectra = tuple(spectra)
        return self._hn_spectra

    def certified_threshold(self):
        """Real xi < 0 with (-inf, xi) in the resolvent set of A0 and A0~,
        computed once per model: -0.5 when V = 0, else the least of
        find_xi2, the bottom of H_N less sup |V| (over the blocks of
        hn_spectra), and -1e-6. -inf stands in for find_xi2 when its scan
        finds no threshold."""
        if getattr(self, "_threshold", None) is None:
            if not self.has_potential:
                self._threshold = -0.5
            else:
                try:
                    xi2 = find_xi2(self)
                except ThresholdNotFound:
                    xi2 = -np.inf
                bottom = min(float(block.w[0]) for block in self.hn_spectra())
                self._threshold = min(xi2, bottom - self.v_sup_proxy(), -1e-6)
        return self._threshold

    # -- optional structure ------------------------------------------------

    def mode_weyl_values(self, lam, tilde=False):
        """Diagonal of the Weyl matrix for models where it is diagonal in
        the boundary basis; None means "build it column by column"."""
        return None

    def weyl_batch(self, lams, tilde=False):
        """Weyl matrices at every point of ``lams`` as an (N, d, d) stack;
        NaN rows where the model cannot evaluate M (class docstring)."""
        lams = np.asarray(lams, dtype=complex).ravel()
        dim = self.boundary_dim
        out = np.full((len(lams), dim, dim), np.nan, dtype=complex)
        # a NaN row's inf and NaN arithmetic is expected, not a warning
        with np.errstate(all="ignore"):
            for start in range(0, len(lams), _BATCH_CHUNK):
                rows = slice(start, start + _BATCH_CHUNK)
                if self._weyl_chunk is not None:
                    try:
                        out[rows] = self._weyl_chunk(lams[rows], tilde)
                        continue
                    except BTripleError:
                        pass  # evaluate this chunk point by point
                for k, lam in enumerate(lams[rows], start):
                    try:
                        out[k] = _weyl_matrix(self, complex(lam), tilde)
                    except BTripleError:
                        continue  # Neumann-spectrum point; leave the NaN row
        return out

    def boundary_basis(self):
        """The standard basis of the boundary carrier."""
        return [_unit(self.boundary_dim, j) for j in range(self.boundary_dim)]

    def hnorm(self, f):
        return float(np.sqrt(abs(self.inner(f, f))))


def _unit(n, j):
    e = np.zeros(n, dtype=complex)
    e[j] = 1.0
    return e


def _as_lambda(model, lam, allow_uncertified, who):
    """lam as a complex number, the one gate for spectral points: ValueError
    when it is NaN or infinite, NotCertified when it is off the certified
    half-line (-inf, xi) and allow_uncertified is not set."""
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"{who}: lambda = {lam} is not finite")
    certified = lam.imag == 0.0 and lam.real < model.certified_threshold()
    if not certified and not allow_uncertified:
        raise NotCertified(
            f"{who}: lambda = {lam} is outside the certified half-line "
            f"(-inf, {model.certified_threshold():.6g}); pass allow_uncertified=True "
            "to evaluate anyway"
        )
    return lam


@dataclass(frozen=True)
class BoundaryOperator:
    """Bounded operator on the boundary carrier (the B of Robin couplings)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"boundary operator must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("boundary operator entries must be finite")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def scalar(cls, beta, dim):
        return cls(matrix=beta * np.eye(dim, dtype=complex))


def _bmatrix(b, dim):
    """The matrix of b, a BoundaryOperator or a raw array (checked square
    and finite as one), as a dim-square complex array."""
    if not isinstance(b, BoundaryOperator):
        b = BoundaryOperator(matrix=b)
    m = b.matrix
    if m.shape != (dim, dim):
        raise ValueError(f"boundary operator shape {m.shape} != ({dim}, {dim})")
    return m


@dataclass(frozen=True)
class WeylSample:
    """M(lambda) with the independently computed M~(conj lambda)."""

    lam: complex
    m: np.ndarray
    m_tilde_at_conj: np.ndarray
    norm: float

    def symmetry_defect(self):
        """|| M(lambda) - M~(conj lambda)* || in spectral norm."""
        return float(sla.svdvals(self.m - self.m_tilde_at_conj.conj().T).max())


@dataclass(frozen=True)
class HnSpectrum:
    """One block of H_N as its eigendecomposition H_N = U diag(w) U*, with
    V cut down to its support K, the indices of V's nonzero rows and
    columns (V vanishes outside K x K)."""

    w: np.ndarray        # eigenvalues, ascending
    u: np.ndarray        # orthonormal eigenvectors as columns
    support: np.ndarray  # K
    u_k: np.ndarray      # U[K], the rows of U on K
    v_kk: np.ndarray     # V[K, K]


@dataclass(frozen=True)
class SectorialFactorization:
    """Neumann-resolvent factorization data at real lambda < 0, maxima over
    blocks."""

    lam: float
    c1_norm: float         # ||C1||, at most 1/2 below the threshold
    defect: float          # probe bound on ||R - F||, fails w.p. < 1e-8
    resolvent_norm: float  # ||R u0||, a lower bound on ||R||


# -- gamma field and Weyl function ----------------------------------------


def gamma(model, lam, g, allow_uncertified=False):
    """gamma(lambda) g: the kernel element with Neumann trace g."""
    lam = _as_lambda(model, lam, allow_uncertified, "gamma")
    return model.solve_bvp(lam, np.asarray(g, dtype=complex))


def gamma_tilde(model, mu, g, allow_uncertified=False):
    """gamma~(mu) g for the adjoint-side operator T~."""
    mu = _as_lambda(model, mu, allow_uncertified, "gamma_tilde")
    return model.solve_bvp_tilde(mu, np.asarray(g, dtype=complex))


def gamma_adjoint(model, lam, f, allow_uncertified=False):
    """gamma(lambda)* f, realized as Dirichlet trace of (A0~ - conj lam)^-1 f."""
    lam = _as_lambda(model, lam, allow_uncertified, "gamma_adjoint")
    return model.trace1(model.neumann_resolvent_tilde(np.conjugate(lam), f))


def _weyl_matrix(model, lam, tilde):
    fast = model.mode_weyl_values(lam, tilde=tilde)
    if fast is not None:
        return np.diag(np.asarray(fast, dtype=complex))
    solve = model.solve_bvp_tilde if tilde else model.solve_bvp
    cols = []
    for e in model.boundary_basis():
        cols.append(model.trace1(solve(lam, e)))
    return np.stack(cols, axis=1)


def weyl(model, lam, allow_uncertified=False):
    """M(lambda) = trace1 gamma(lambda), plus M~(conj lambda) computed
    independently through the tilde solver for symmetry checks."""
    lam = _as_lambda(model, lam, allow_uncertified, "weyl")
    m = _weyl_matrix(model, lam, tilde=False)
    m_tilde = _weyl_matrix(model, np.conjugate(lam), tilde=True)
    norm = float(sla.svdvals(m).max())
    return WeylSample(lam=lam, m=m, m_tilde_at_conj=m_tilde, norm=norm)


def weyl_symmetry_defect(model, lam, allow_uncertified=False):
    """|| M(lambda) - M~(conj lambda)* || in spectral norm."""
    return weyl(model, lam, allow_uncertified).symmetry_defect()


def _gamma_gram(model, lam, mu):
    # G[i, j] = <gamma(lam) e_j, gamma~(mu) e_i> / <e_i, e_i>_boundary,
    # the matrix of gamma~(mu)* gamma(lam) in the boundary basis
    basis = model.boundary_basis()
    gl = [gamma(model, lam, e, allow_uncertified=True) for e in basis]
    gt = [gamma_tilde(model, mu, e, allow_uncertified=True) for e in basis]
    dim = model.boundary_dim
    g = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        wi = model.binner(basis[i], basis[i])
        for j in range(dim):
            g[i, j] = model.inner(gl[j], gt[i]) / wi
    return g


def difference_identity_defect(model, lam, mu, allow_uncertified=False):
    """|| M(lambda) - M~(mu)* - (lambda - conj mu) gamma~(mu)* gamma(lambda) ||."""
    lam = _as_lambda(model, lam, allow_uncertified, "difference_identity_defect")
    mu = _as_lambda(model, mu, allow_uncertified, "difference_identity_defect")
    m = _weyl_matrix(model, lam, tilde=False)
    m_tilde = _weyl_matrix(model, mu, tilde=True)
    g = _gamma_gram(model, lam, mu)
    defect = m - m_tilde.conj().T - (lam - np.conjugate(mu)) * g
    return float(sla.svdvals(defect).max())


def gamma_resolvent_identity_defect(model, lam, nu, g, allow_uncertified=False):
    """Relative defect of gamma(lam) = (I + (lam - nu)(A0 - lam)^-1) gamma(nu)."""
    lam = _as_lambda(model, lam, allow_uncertified, "gamma_resolvent_identity_defect")
    nu = _as_lambda(model, nu, allow_uncertified, "gamma_resolvent_identity_defect")
    g = np.asarray(g, dtype=complex)
    left = model.solve_bvp(lam, g)
    right = model.solve_bvp(nu, g)
    if lam != nu:
        right = right + (lam - nu) * model.neumann_resolvent(lam, right)
    diff = left - right
    scale = model.hnorm(left)
    if scale == 0.0:
        return 0.0
    return model.hnorm(diff) / scale


def green_defect(model, f, g):
    """| (Tf, g) - (f, T~g) - (t1 f, t0 g) + (t0 f, t1 g) |.

    A model whose ``green_pairing_defect`` hook is set evaluates the same
    bracket in a cancellation-free arrangement; the fd1d model does, since
    its identity is exact by construction and the generic route's rounding
    (eps at the 1/h^2 operator scale) would otherwise dominate the defect.
    """
    if model.green_pairing_defect is not None:
        return float(model.green_pairing_defect(f, g))
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    bulk = model.inner(model.apply_T(f), g) - model.inner(f, model.apply_Ttilde(g))
    boundary = model.binner(model.trace1(f), model.trace0(g)) - model.binner(
        model.trace0(f), model.trace1(g)
    )
    return abs(bulk - boundary)


# -- Krein resolvent and Birman-Schwinger machinery ------------------------


def krein_resolvent(model, b, lam, f, allow_uncertified=False):
    """(A_B - lam)^-1 f assembled from the Neumann resolvent, the gamma
    field, and M(lambda); A_B carries the boundary condition
    B trace1 = trace0."""
    return _krein(model, b, lam, f, allow_uncertified, tilde=False)


def krein_resolvent_tilde(model, b_tilde, mu, g, allow_uncertified=False):
    """(A~_B~ - mu)^-1 g, the adjoint-side mirror of krein_resolvent."""
    return _krein(model, b_tilde, mu, g, allow_uncertified, tilde=True)


def _krein(model, b, lam, f, allow_uncertified, tilde):
    """The Krein formula w + gamma(lam) (I - B M(lam))^-1 B gamma~(conj lam)* f
    with w the Neumann resolvent of f, on the adjoint side when tilde."""
    who = "krein_resolvent_tilde" if tilde else "krein_resolvent"
    lam = _as_lambda(model, lam, allow_uncertified, who)
    bm = _bmatrix(b, model.boundary_dim)
    f = np.asarray(f, dtype=complex)
    resolvent, solve_bvp = ((model.neumann_resolvent_tilde, model.solve_bvp_tilde)
                            if tilde else (model.neumann_resolvent, model.solve_bvp))
    w = resolvent(lam, f)
    # gamma~(conj lam)* f is the Dirichlet trace of the same Neumann solve
    adj = model.trace1(w)
    m = _weyl_matrix(model, lam, tilde)
    s = np.eye(model.boundary_dim, dtype=complex) - bm @ m
    sigma = smallest_singular_value(s)
    if sigma <= _BS_SINGULAR_TOL:
        raise BirmanSchwingerSingular(
            f"{who}: sigma_min(I - B M) = {sigma:.3e} at {lam}; the point is "
            "an eigenvalue of the Robin realization to working precision"
        )
    bd = solve_linear(s, bm @ adj)
    return w + solve_bvp(lam, bd)


def bs_kernel_lift(model, b, lam, tol=1e-8):
    """Eigenvectors of A_B at lambda, lifted as gamma(lambda) applied to the
    numerical kernel of I - B M(lambda)."""
    bm = _bmatrix(b, model.boundary_dim)
    m = _weyl_matrix(model, complex(lam), tilde=False)
    s = np.eye(model.boundary_dim, dtype=complex) - bm @ m
    _, sing, vh = sla.svd(s)
    if sing.min() > tol:
        raise NotAnEigenvalue(
            f"sigma_min(I - B M(lambda)) = {sing.min():.3e} > {tol:.0e} at "
            f"lambda = {lam}"
        )
    kernel = [vh[i].conj() for i in range(len(sing)) if sing[i] <= tol]
    return [model.solve_bvp(complex(lam), phi) for phi in kernel]


def _contour_weyl(model, key, contour, nodes):
    """model.weyl_batch at one level of nodes of one contour, cached on the
    model under the one-entry key (region, grid), one stack per contour: M
    does not depend on B, so every B solved over one region reuses the
    stacks. Each level is every other node of the next, so a cached coarser
    level is extended by the nodes in between."""
    cached = getattr(model, "_contour_weyl_cache", None)
    if cached is None or cached[0] != key:
        cached = model._contour_weyl_cache = (key, {})
    stacks = cached[1]
    stack = stacks.get(contour)
    if stack is not None and len(stack) >= len(nodes):
        return stack[::len(stack) // len(nodes)]
    if stack is not None and 2 * len(stack) == len(nodes):
        finer = np.empty((len(nodes),) + stack.shape[1:], dtype=complex)
        finer[0::2] = stack
        finer[1::2] = model.weyl_batch(nodes[1::2])
        stack = finer
    else:
        stack = model.weyl_batch(nodes)
    stacks[contour] = stack
    return stack


def _hankel_roots(resolvents, phi, weights, dim):
    """Eigenvalues, in the scaled variable phi, of the block-Hankel pencil
    built from the contour moments sum_j weights_j phi_j^p resolvents_j;
    None when the rank still fills the pencil at the largest K the nodes
    resolve."""
    # every moment, and so every Hankel entry, is bounded by this mass
    mass = float(np.sum(np.abs(weights) * np.abs(resolvents).max(axis=(1, 2))))
    k = _MOMENTS
    while 4 * k <= len(phi):
        hankel = np.add.outer(np.arange(k), np.arange(k))
        powers = phi ** np.arange(2 * k)[:, None] * weights
        moments = (powers @ resolvents.reshape(len(phi), -1)).reshape(
            2 * k, dim, dim)
        h0, h1 = (moments[hankel + shift].transpose(0, 2, 1, 3)
                  .reshape(k * dim, k * dim) for shift in (0, 1))
        u, s, vh = np.linalg.svd(h0)
        rank = int(np.sum(s > _HANKEL_RTOL * max(s[0], mass)))
        if rank < k * dim:
            reduced = (u[:, :rank].conj().T @ h1 @ vh[:rank].conj().T) / s[:rank]
            return np.linalg.eigvals(reduced)
        k *= 2
    return None


def _merged(roots):
    """roots with every root within _ROOT_MERGE_RADIUS of an earlier one
    dropped, sorted by (Re, Im)."""
    kept = []
    for z in sorted(map(complex, roots), key=lambda z: (z.real, z.imag)):
        if all(abs(z - r) > _ROOT_MERGE_RADIUS for r in kept):
            kept.append(z)
    return kept


def robin_eigs(model, b, region, grid):
    """Eigenvalues of A_B inside a rectangular region of the plane.

    region = (re_min, re_max, im_min, im_max), grid = (n_re, n_im). By the
    Krein formula, lambda is an eigenvalue of A_B exactly where
    I - B M(lambda) is singular, and (I - B M)^-1 is analytic at every pole
    of M (the Neumann spectrum) that is not one. So the contour moments
    (1/2 pi i) oint phi^p (I - B M)^-1 dphi see the eigenvalues of A_B
    inside the contour and nothing else, and the block-Hankel pencil built
    from them (Beyn, Linear Algebra Appl. 436, 2012; Sakurai-Sugiura,
    J. Comput. Appl. Math. 159, 2003) has those eigenvalues as its own.

    The contour is the ellipse around the rectangle with its centre, semi
    axes a = sqrt(2) * half-width and b = max(sqrt(2) * half-height, a / 2),
    and phi = (lambda - centre) / max(a, b). Its trapezoid nodes sit at the
    angles 2 pi j / N + pi / N_max, so no node lies on the real axis and
    each doubling of N keeps every earlier node. ``grid`` sets the
    resolution: the first level has N = 2 (n_re + n_im - 2) nodes, the
    number on the grid's boundary. The probe is the identity (all d
    columns), K = 6 moments to start, the rank a relative cut on the Hankel
    singular values, and K is doubled, on the same stack, while the rank
    fills K d. N is doubled until two successive levels agree to 1e-10 of
    max(a, b) on the roots strictly inside the rectangle; the last level's
    roots within 2% of the larger side of the rectangle are kept.

    A contour that holds more eigenvalues than its moments resolve (a
    dense spectrum; the pencil's singular values then fall off without a
    gap) finds no two agreeing levels within ``_CONTOUR_MAX_NODES`` nodes.
    Its rectangle is then cut in two across its longer side and each half
    solved on its own ellipse, at most ``_CONTOUR_SPLITS`` cuts deep.

    M is evaluated only through ``model.weyl_batch``, once per node. The
    stacks are cached on the model per (region, grid), one per contour,
    and grown level by level, so every B solved over one region reuses
    them. The roots are merged within ``_ROOT_MERGE_RADIUS`` (degenerate
    modes give double roots) and sorted by (Re, Im).

    Raises NoConvergence when even the deepest cuts find no two agreeing
    levels, or meet a node where ``weyl_batch`` gives a NaN row (the
    Neumann spectrum) or I - B M is singular (an eigenvalue). ValueError
    for a grid with fewer than 2 nodes per axis, a region with a NaN or
    infinite bound, with a minimum above its maximum or that is a single
    point, and a B that is not a square finite matrix of the boundary
    dimension.
    """
    region = tuple(map(float, region))
    n_re, n_im = grid = tuple(map(int, grid))
    if n_re < 2 or n_im < 2:
        raise ValueError("grid must have at least 2 nodes per axis")
    if not np.all(np.isfinite(region)):
        raise ValueError(f"region {list(region)} is not finite")
    if region[0] == region[1] and region[2] == region[3]:
        raise ValueError("region must not be a single point")
    if region[0] > region[1] or region[2] > region[3]:
        raise ValueError(f"region {list(region)} is inverted: a minimum "
                         "exceeds its maximum")
    bm = _bmatrix(b, model.boundary_dim)
    return _merged(_split_roots(model, bm, region, grid, (region, grid),
                                _CONTOUR_SPLITS))


def _split_roots(model, bm, region, grid, key, splits):
    """_ellipse_roots on region, or on its two halves across the longer
    side (splits more times at most) when that raises NoConvergence."""
    try:
        return _ellipse_roots(model, bm, region, grid, key)
    except NoConvergence:
        if splits == 0:
            raise
    re_min, re_max, im_min, im_max = region
    if re_max - re_min >= im_max - im_min:
        mid = 0.5 * (re_min + re_max)
        halves = ((re_min, mid, im_min, im_max), (mid, re_max, im_min, im_max))
    else:
        mid = 0.5 * (im_min + im_max)
        halves = ((re_min, re_max, im_min, mid), (re_min, re_max, mid, im_max))
    return [z for half in halves
            for z in _split_roots(model, bm, half, grid, key, splits - 1)]


def _ellipse_roots(model, bm, region, grid, key):
    """The roots of one contour solve (robin_eigs) within the 2% margin of
    region, unsorted; NoConvergence when no two levels agree."""
    re_min, re_max, im_min, im_max = region
    dim = bm.shape[0]
    centre = complex(re_min + re_max, im_min + im_max) / 2.0
    a = np.sqrt(0.5) * abs(re_max - re_min)
    b_axis = max(np.sqrt(0.5) * abs(im_max - im_min), a / 2.0)
    rho = max(a, b_axis)
    sizes = [2 * (grid[0] + grid[1] - 2)]
    while 2 * sizes[-1] <= _CONTOUR_MAX_NODES:
        sizes.append(2 * sizes[-1])
    n_max = sizes[-1]
    margin = 0.02 * max(re_max - re_min, im_max - im_min)

    def inside(z, margin=0.0):
        return (re_min - margin <= z.real <= re_max + margin
                and im_min - margin <= z.imag <= im_max + margin)

    def agree(roots, other):
        return all(min((abs(z - w) for w in other), default=np.inf)
                   <= _CONTOUR_RTOL * rho for z in roots if inside(z))

    previous = None
    for size in sizes:
        if size > _CONTOUR_MAX_NODES:
            break
        theta = np.pi * (1 + 2 * (n_max // size) * np.arange(size)) / n_max
        nodes = centre + a * np.cos(theta) + 1j * b_axis * np.sin(theta)
        m = _contour_weyl(model, key, (region, n_max), nodes)
        bad = ~np.isfinite(m).all(axis=(1, 2))
        if bad.any():
            raise NoConvergence(
                f"weyl_batch has no value at the contour node "
                f"{complex(nodes[bad][0]):.6g}: the contour meets the Neumann "
                "spectrum")
        try:
            resolvents = np.linalg.inv(np.eye(dim) - bm @ m)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(
                "I - B M(lambda) is singular at a contour node: the contour "
                "meets an eigenvalue") from exc
        weights = (-a * np.sin(theta) + 1j * b_axis * np.cos(theta)) / (
            1j * size * rho)
        phis = _hankel_roots(resolvents, (nodes - centre) / rho, weights, dim)
        roots = None if phis is None else _merged(centre + rho * phis)
        if (roots is not None and previous is not None
                and agree(roots, previous) and agree(previous, roots)):
            return [z for z in roots if inside(z, margin)]
        previous = roots
    raise NoConvergence(
        f"robin_eigs: no two contour levels agreed within "
        f"{_CONTOUR_MAX_NODES} nodes on the region {list(region)}")


# -- sectorial factorization and asymptotic studies -------------------------


def _spectra_below(model, lam):
    """model.hn_spectra(), once lam is known to lie below every block's
    spectrum; NotPositiveDefinite otherwise (S = (H_N - lam)^(-1/2) does
    not exist)."""
    spectra = model.hn_spectra()
    for block in spectra:
        if block.w[0] - lam <= 0.0:
            raise NotPositiveDefinite(
                f"H_N - lambda is not positive definite at lambda = {lam} "
                f"(min eigenvalue {block.w[0] - lam:.3e})")
    return spectra


def _kk_gram(block, lam):  # G = [(H_N - lam)^-1]_KK
    return (block.u_k / (block.w - lam)) @ block.u_k.conj().T


def _c1_norm(block, lam, gram):
    # C1 = S V S = A V_KK A* with A = S restricted to the columns K, and
    # A* A = G = R* R, so ||C1|| = ||R V_KK R*||: a |K|-square problem
    # whatever the order of the block
    if block.support.size == 0:
        return 0.0
    try:
        r = sla.cholesky(gram)
    except sla.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"[(H_N - lambda)^-1]_KK is not positive definite at lambda = "
            f"{lam}: {exc}") from exc
    return float(sla.svdvals(r @ block.v_kk @ r.conj().T).max())


def sectorial_factorization(model, lam, rng):
    """Factor (A0 - lam)^-1 = S (I + C1)^-1 S with S = (H_N - lam)^(-1/2)
    and C1 = S V S at real lam below the certified threshold, per block.
    ||C1|| is computed on K as in c1_norm_at. F = S (I + C1)^-1 S is
    checked against R, one LU of H_N + V - lam independent of F, on r = 8
    standard complex Gaussian probes w_i drawn from rng: F w_i comes from
    the cached eigenbasis of H_N and Woodbury on K, with no order-n inverse
    or SVD. defect = alpha sqrt(2/pi) max_i ||(R - F) w_i||, alpha = 10,
    bounds ||R - F|| except with probability below 1e-8; resolvent_norm =
    ||R u0|| <= ||R||, u0 the lowest eigenvector of H_N (equal for V = 0).
    """
    lam = float(lam)
    if lam >= model.certified_threshold():
        raise NotCertified(
            f"sectorial factorization requires lambda < {model.certified_threshold():.6g}"
        )
    c1_norm = defect = resolvent_norm = 0.0
    spectra = _spectra_below(model, lam)
    for block, (hn, v) in zip(spectra, model.hn_v_blocks()):
        gram = _kk_gram(block, lam)
        c1_norm = max(c1_norm, _c1_norm(block, lam, gram))
        u, u_k, e = block.u, block.u_k, 1.0 / (block.w - lam)[:, None]
        probes = rng.standard_normal((len(u), _PROBES, 2)) @ [1, 1j] / 2**0.5
        res = solve_linear(np.asarray(hn) + np.asarray(v) - lam * np.eye(len(u)),
                           np.column_stack([probes, u[:, 0]]))
        # Woodbury: F w = S^2 w - S^2[:, K] z with S^2 = U diag(e) U*
        c = u.conj().T @ probes
        z = solve_linear(np.eye(len(u_k)) + block.v_kk @ gram,
                         block.v_kk @ (u_k @ (e * c)))
        err = res[:, :-1] - u @ (e * (c - u_k.conj().T @ z))  # (R - F) w
        defect = max(defect, _PROBE_ALPHA * np.sqrt(2.0 / np.pi)
                     * float(np.linalg.norm(err, axis=0).max()))
        resolvent_norm = max(resolvent_norm, float(np.linalg.norm(res[:, -1])))
    return SectorialFactorization(lam=lam, c1_norm=c1_norm, defect=defect,
                                  resolvent_norm=resolvent_norm)


def c1_norm_at(model, lam):
    """max block norm of C1(lambda) = S V S without the resolvent defect.

    Each block's norm is ||R V_KK R*|| with R* R = [(H_N - lam)^-1]_KK
    = U_K diag(1/(w - lam)) U_K* (one Cholesky of order |K|), taken from
    the model's cached hn_spectra; 0 where V vanishes. NotPositiveDefinite
    when lam is not below the bottom of H_N.
    """
    lam = float(lam)
    return max((_c1_norm(block, lam, _kk_gram(block, lam))
                for block in _spectra_below(model, lam)), default=0.0)


def find_xi2(model):
    """Empirical contraction threshold: largest point of the geometric scan
    -0.5 * 2^k, k = 0..20, with ||C1|| <= 1/2 there and at the next two scan
    points below it. ThresholdNotFound past the end of the scan.

    ||S V S|| decays like ||V|| / |lambda| as lambda -> -inf, so the first
    passing point with confirmed decay is the scan's best estimate of the
    threshold; points above it are left uncertified.
    """
    start, doublings, confirmations = -0.5, 20, 2
    cache = {}

    def norm_at(k):
        if k not in cache:
            try:
                cache[k] = c1_norm_at(model, start * 2.0**k)
            except NotPositiveDefinite:
                cache[k] = np.inf
        return cache[k]

    for k in range(doublings + 1):
        if norm_at(k) <= 0.5:
            if all(norm_at(k + i) <= 0.5 for i in range(1, confirmations + 1)):
                return start * 2.0**k
    raise ThresholdNotFound(
        f"||C1|| > 1/2 on the whole scan down to {start * 2.0**doublings:.3e}"
    )


def weyl_decay_study(model, lam_list, allow_uncertified=False):
    """Sample ||M(lambda)|| along real lam_list -> -inf and fit the log-log
    decay line. Returns (points, fit): points are the (|lambda|,
    ||M(lambda)||) pairs, fit is fit_log_slope's (slope, intercept,
    stderr) over them. Only M is evaluated, not M~."""
    points = []
    for lam in lam_list:
        lam = _as_lambda(model, lam, allow_uncertified, "weyl_decay_study")
        m = _weyl_matrix(model, lam, tilde=False)
        points.append((abs(lam), float(sla.svdvals(m).max())))
    return points, fit_log_slope(points)


def relative_bound_decay(model, lam_list):
    """||V (H_N - lam)^-1|| along lam_list; tends to 0 as lam -> -inf, the
    operator expression of V being relatively bounded with bound zero.

    Each block's norm is ||V_KK U_K diag(1/(w - lam))||, from the model's
    cached hn_spectra. NotCertified when lam hits the Neumann spectrum
    (H_N - lam singular to working precision), whether or not V vanishes.
    """
    out = []
    for lam in lam_list:
        lam = float(lam)
        norm = 0.0
        for block in model.hn_spectra():
            shift = block.w - lam
            dist = np.abs(shift)
            if dist.min() <= _SPECTRUM_HIT_REL * dist.max():
                raise NotCertified(f"lambda = {lam} hits the Neumann spectrum")
            if block.support.size:
                norm = max(norm, float(sla.svdvals(
                    (block.v_kk @ block.u_k) / shift).max()))
        out.append((lam, norm))
    return out
