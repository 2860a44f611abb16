"""Well-posedness, one-traversal discretization, stability and
transmission-zero detection.

One traversal of the unit interval takes time ``p`` and maps the traveling
profile exactly through the quadruple::

    Ad = -inv(K) L          Bd = inv(K) [0; I]
    Cd = Ky Ad + Ly         Dd = Ky Bd

so a uniform-speed system is, profile-pointwise, a finite-dimensional
discrete-time system.  All frequency-domain work happens in the variable
``w = exp(-s p)``, in which the boundary pencil ``K + L w`` and the
stacked zero pencil are polynomial.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConsistencyError, IllPosedError, SingularMatrixError
from .model import PHSystem

#: Guard band around spectral radius 1 for the stability verdict.
STABILITY_MARGIN = 1e-9

#: Relative singularity threshold for transmission-zero tests.
ZERO_TEST_TOL = 1e-8

#: Relative size of ``beta`` (``alpha``) below which a generalized
#: eigenvalue ``alpha / beta`` counts as infinite (as zero).
EIG_DROP_TOL = 1e-9

#: A generalized eigenvalue pair ``(alpha, beta)`` of a square pencil
#: ``(A, B)`` with ``|(alpha, beta)|`` below this fraction of
#: ``max(|A|, |B|)`` (Frobenius norms) is the rounding image of ``(0, 0)``
#: and marks a singular pencil.  Regular pencils keep every pair many
#: orders of magnitude above it.
SINGULAR_PAIR_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteSystem:
    """One-traversal quadruple of a uniform-speed system."""

    Ad: np.ndarray
    Bd: np.ndarray
    Cd: np.ndarray
    Dd: np.ndarray
    p: float

    @property
    def n(self) -> int:
        return self.Ad.shape[0]

    @property
    def m(self) -> int:
        return self.Bd.shape[1]


def check_well_posed(sys: PHSystem) -> bool:
    """True iff the incoming-trace boundary matrix ``[K0; Ku]`` has full rank."""
    return linalg.rank(sys.K) == sys.n


def discrete_reduce(sys: PHSystem) -> DiscreteSystem:
    """Exact one-traversal discretization of a uniform-speed system.

    The only solve with ``K`` in the package.  Both solves are checked by
    their Frobenius residuals against ``1e-12`` of the problem scale;
    an inaccurate solve raises :class:`ConsistencyError`.
    """
    if not check_well_posed(sys):
        raise IllPosedError("boundary matrix [K0; Ku] is singular")
    k = sys.K
    lmat = sys.L
    rhs = np.zeros((sys.n, sys.m))
    rhs[sys.n - sys.m :, :] = np.eye(sys.m)
    ad = -np.linalg.solve(k, lmat)
    bd = np.linalg.solve(k, rhs)
    cd = sys.Ky @ ad + sys.Ly
    dd = sys.Ky @ bd
    norm = np.linalg.norm
    bound = 1e-12 * max(1.0, norm(k) * max(norm(ad), 1.0), norm(lmat))
    if norm(k @ ad + lmat) > bound or norm(k @ bd - rhs) > bound:
        raise ConsistencyError("discretization residual exceeds 1e-12")
    return DiscreteSystem(Ad=ad, Bd=bd, Cd=cd, Dd=dd, p=sys.p)


def is_exponentially_stable(sys: PHSystem | DiscreteSystem) -> tuple[bool, float]:
    """Stability verdict and the spectral radius of the traversal map.

    The spectral radius alone decides: the verdict is ``r < 1`` with the
    guard band :data:`STABILITY_MARGIN`.  ``sys`` is a system or its
    :func:`discrete_reduce`, which is then not computed again.
    """
    d = sys if isinstance(sys, DiscreteSystem) else discrete_reduce(sys)
    r = linalg.spectral_radius(d.Ad)
    return r < 1.0 - STABILITY_MARGIN, r


def output_nulling_stacks(sys: PHSystem) -> tuple[np.ndarray, np.ndarray]:
    """The stacks ``E = -[K0; Ky]`` and ``F = [L0; Ly]`` driving the
    incoming/outgoing trace recursion of the zero dynamics."""
    return -np.vstack([sys.K0, sys.Ky]), np.vstack([sys.L0, sys.Ly])


def is_transmission_zero(sys: PHSystem, s: complex) -> bool:
    """True iff the stacked zero pencil ``[K0 + L0 w; Ky + Ly w]`` is
    singular at ``w = exp(-s p)``, to :data:`ZERO_TEST_TOL`.

    Requires the boundary pencil ``K + L exp(-s p)`` to be invertible at
    ``s`` (raises otherwise: ``s`` is a pole candidate).
    """
    w = np.exp(-complex(s) * sys.p)
    if not linalg.is_invertible(sys.K + sys.L * w, cond_limit=1e12):
        raise SingularMatrixError(f"boundary pencil singular at s={s}")
    e, f = output_nulling_stacks(sys)
    sv = np.linalg.svd(f * w - e, compute_uv=False)
    return bool(sv[-1] <= ZERO_TEST_TOL * max(sv[0], np.finfo(float).tiny))


@dataclass(frozen=True)
class TransmissionZeros:
    """Finite transmission zeros, in ``w`` and in ``s``.

    ``w_roots`` are the finite, nonzero generalized eigenvalues of the
    stacked zero pencil, listed with multiplicity.  ``s_values`` are
    principal values; the full zero set repeats with period ``2 pi / p``
    along the imaginary axis.  ``identically_zero`` flags a transfer
    matrix whose determinant vanishes everywhere (the pencil has
    deficient normal rank), in which case both root lists are empty.
    """

    w_roots: tuple
    s_values: tuple
    identically_zero: bool
    s_period: float


def finite_pairs(alpha, beta) -> np.ndarray:
    """Mask of the generalized eigenvalue pairs whose ``alpha / beta`` is
    finite: ``|beta|`` above :data:`EIG_DROP_TOL` of ``|(alpha, beta)|``."""
    return np.abs(beta) > EIG_DROP_TOL * np.hypot(np.abs(alpha), np.abs(beta))


def singular_pencil(alpha, beta, a, b) -> bool:
    """True iff the square pencil ``(a, b)`` with eigenvalue pairs
    ``(alpha, beta)`` is singular: some pair is at rounding level,
    :data:`SINGULAR_PAIR_TOL`.  The one test of this verdict, shared by
    :func:`pencil_roots` and the QZ deflation of :mod:`phzero.zerodyn`."""
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    return bool(np.any(np.hypot(np.abs(alpha), np.abs(beta)) <= SINGULAR_PAIR_TOL * scale))


def pencil_roots(kmat: np.ndarray, lmat: np.ndarray):
    """Finite, nonzero ``w`` at which the square pencil ``kmat + lmat w``
    is singular.

    Returns ``(roots, identically_zero)``.  The roots are the generalized
    eigenvalues ``alpha / beta`` of ``(kmat, -lmat)`` from one QZ
    decomposition, listed with multiplicity and sorted by (real, imag).
    Infinite eigenvalues (``beta`` negligible) and eigenvalues at the
    origin (``alpha`` negligible, i.e. at infinite real part in ``s``)
    are dropped.  ``identically_zero`` is the :func:`singular_pencil`
    verdict on the same pairs: the pencil's normal rank is deficient and
    every ``w`` is a root; the root list is then empty.
    """
    import scipy.linalg

    if kmat.shape[0] == 0:
        return (), False
    alpha, beta = scipy.linalg.eig(kmat, -lmat, right=False, homogeneous_eigvals=True)
    if singular_pencil(alpha, beta, kmat, lmat):
        return (), True
    size = np.hypot(np.abs(alpha), np.abs(beta))
    finite = finite_pairs(alpha, beta) & (np.abs(alpha) > EIG_DROP_TOL * size)
    roots = [complex(a / b) for a, b in zip(alpha[finite], beta[finite])]
    roots.sort(key=lambda z: (round(z.real, 10), round(z.imag, 10)))
    return tuple(roots), False


def scan_zeros(sys: PHSystem) -> TransmissionZeros:
    """Find all finite transmission zeros of a system.

    The zeros are the points ``w = exp(-s p)`` where the square stacked
    pencil ``[K0; Ky] + [L0; Ly] w`` loses rank, computed by
    :func:`pencil_roots` as its finite generalized eigenvalues; the
    identically-zero verdict comes from the QZ pairs of the same call.  Roots
    at ``w = 0`` correspond to zeros at infinite real part and are not
    reported.
    """
    e, f = output_nulling_stacks(sys)
    roots, vanishes = pencil_roots(-e, f)
    period = 2.0 * np.pi / sys.p
    s_values = tuple(-np.log(z) / sys.p + 0j for z in roots)  # + 0j turns -0.0 into 0.0
    return TransmissionZeros(roots, s_values, vanishes, period)
