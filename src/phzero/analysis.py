"""Well-posedness, feedthrough, one-traversal discretization, stability,
transfer-function evaluation and transmission-zero detection.

One traversal of the unit interval takes time ``p`` and maps the traveling
profile exactly through the quadruple::

    Ad = -inv(K) L          Bd = inv(K) [0; I]
    Cd = Ky Ad + Ly         Dd = Ky Bd

so a uniform-speed system is, profile-pointwise, a finite-dimensional
discrete-time system.  All frequency-domain work happens in the variable
``w = exp(-s p)``, in which the boundary pencil ``K + L w`` and the
stacked zero pencil are polynomial.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .errors import (
    IllPosedError,
    SingularMatrixError,
    ConsistencyError,
    UnsupportedSystemError,
)
from .model import PHSystem

logger = logging.getLogger(__name__)

#: Guard band around spectral radius 1 for the stability verdict.
STABILITY_MARGIN = 1e-9

#: Relative singularity threshold for transmission-zero tests.
ZERO_TEST_TOL = 1e-8

#: Fixed points on the unit circle (at angles 1, 2 and 3 rad, none a root
#: of unity) where the normal rank of a zero pencil is sampled: a regular
#: pencil is singular at no more than n points, so it is nonsingular at
#: one of these unless a root sits on each.
NORMAL_RANK_POINTS = tuple(np.exp(1j * np.array([1.0, 2.0, 3.0])))

#: Relative size of ``beta`` (``alpha``) below which a generalized
#: eigenvalue ``alpha / beta`` counts as infinite (as zero).
EIG_DROP_TOL = 1e-9


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


@dataclass(frozen=True)
class TransferSample:
    """Value of the transfer function at one complex frequency."""

    s: complex
    value: np.ndarray


def check_well_posed(sys: PHSystem, tol: float = linalg.DEFAULT_TOL) -> bool:
    """True iff the incoming-trace boundary matrix ``[K0; Ku]`` has full rank."""
    return linalg.rank(sys.K, tol) == sys.n


def _require_well_posed(sys: PHSystem) -> None:
    if not check_well_posed(sys):
        raise IllPosedError("boundary matrix [K0; Ku] is singular")


def _input_columns(k: np.ndarray, m: int) -> np.ndarray:
    """``inv(K) [0; I_m]`` computed once and shared by feedthrough/Bd."""
    rhs = np.zeros((k.shape[0], m))
    rhs[k.shape[0] - m :, :] = np.eye(m)
    return np.linalg.solve(k, rhs)


def feedthrough(sys: PHSystem) -> np.ndarray:
    """Instantaneous input-to-output map ``E`` (the high-frequency limit
    of the transfer function): the trailing m columns of ``Ky inv(K)``."""
    _require_well_posed(sys)
    return sys.Ky @ _input_columns(sys.K, sys.m)


def discrete_reduce(sys: PHSystem) -> DiscreteSystem:
    """Exact one-traversal discretization of a uniform-speed system."""
    _require_well_posed(sys)
    k = sys.K
    lmat = sys.L
    ad = -np.linalg.solve(k, lmat)
    bd = _input_columns(k, sys.m)
    cd = sys.Ky @ ad + sys.Ly
    dd = sys.Ky @ bd
    scale = max(1.0, linalg.two_norm(k) * max(linalg.two_norm(ad), 1.0), linalg.two_norm(lmat))
    rhs = np.zeros_like(bd)
    rhs[sys.n - sys.m :, :] = np.eye(sys.m)
    if linalg.two_norm(k @ ad + lmat) > 1e-12 * scale or linalg.two_norm(k @ bd - rhs) > 1e-12 * scale:
        raise ConsistencyError("discretization residual exceeds 1e-12")
    return DiscreteSystem(Ad=ad, Bd=bd, Cd=cd, Dd=dd, p=sys.p)


def is_exponentially_stable(sys: PHSystem) -> tuple[bool, float]:
    """Stability verdict and the spectral radius of the traversal map.

    The verdict is ``r < 1`` with a guard band.  The largest singular
    value is computed alongside; a disagreement between ``r < 1`` and
    ``sigma_max < 1`` is logged, not raised, since only the spectral
    radius is authoritative.
    """
    d = discrete_reduce(sys)
    r = linalg.spectral_radius(d.Ad)
    sigma = linalg.two_norm(d.Ad)
    if (r < 1.0) != (sigma < 1.0):
        logger.info(
            "spectral radius %.6g and sigma_max %.6g fall on different sides of 1;"
            " using the spectral radius", r, sigma,
        )
    return r < 1.0 - STABILITY_MARGIN, r


def boundary_pencil(sys: PHSystem, w: complex) -> np.ndarray:
    """``K + L w`` evaluated at ``w = exp(-s p)``."""
    return sys.K + sys.L * w


def transfer_eval(sys: PHSystem, s: complex) -> TransferSample:
    """Evaluate the transfer function by solving the boundary pencil.

    Solves ``(K + L w) v = [0; u]`` columnwise for unit inputs and returns
    ``(Ky + Ly w) v``; equals ``Dd + Cd (z I - Ad)^-1 Bd`` at ``z = 1/w``.
    """
    _require_well_posed(sys)
    w = np.exp(-complex(s) * sys.p)
    pencil = boundary_pencil(sys, w)
    if not linalg.is_invertible(pencil, cond_limit=1e12):
        raise SingularMatrixError(
            f"boundary pencil singular at s={s} (pole candidate)"
        )
    rhs = np.zeros((sys.n, sys.m), dtype=complex)
    rhs[sys.n - sys.m :, :] = np.eye(sys.m)
    v = np.linalg.solve(pencil, rhs)
    value = (sys.Ky + sys.Ly * w) @ v
    return TransferSample(s=complex(s), value=value)


def transfer_eval_resolvent(d: DiscreteSystem, s: complex) -> np.ndarray:
    """Same value through the quadruple: ``Dd + Cd (z I - Ad)^-1 Bd``."""
    z = np.exp(complex(s) * d.p)
    resolvent = np.linalg.solve(z * np.eye(d.n) - d.Ad, d.Bd)
    return d.Dd + d.Cd @ resolvent


def zero_pencil(sys: PHSystem, w: complex) -> np.ndarray:
    """Stacked pencil ``[K0 + L0 w; Ky + Ly w]`` whose singularity marks
    transmission zeros."""
    return np.vstack([sys.K0 + sys.L0 * w, sys.Ky + sys.Ly * w])


def is_transmission_zero(sys: PHSystem, s: complex, tol: float = ZERO_TEST_TOL) -> bool:
    """True iff the stacked zero pencil is singular at ``s``.

    Requires the boundary pencil ``K + L exp(-s p)`` to be invertible at
    ``s`` (raises otherwise: ``s`` is a pole candidate).
    """
    w = np.exp(-complex(s) * sys.p)
    if not linalg.is_invertible(boundary_pencil(sys, w), cond_limit=1e12):
        raise SingularMatrixError(f"boundary pencil singular at s={s}")
    sv = np.linalg.svd(zero_pencil(sys, w), compute_uv=False)
    return bool(sv[-1] <= tol * max(sv[0], np.finfo(float).tiny))


@dataclass(frozen=True)
class TransmissionZeros:
    """Finite transmission zeros, in ``w`` and in ``s``.

    ``w_roots`` are the finite, nonzero generalized eigenvalues of the
    stacked zero pencil, listed with multiplicity.  ``s_values`` are
    principal values; the full zero set repeats with period ``2 pi / p``
    along the imaginary axis.  ``identically_zero`` flags a transfer
    function that vanishes everywhere (the pencil has deficient normal
    rank), in which case both root lists are empty.
    """

    w_roots: tuple
    s_values: tuple
    identically_zero: bool
    s_period: float


def pencil_roots(kmat: np.ndarray, lmat: np.ndarray):
    """Finite, nonzero ``w`` at which the square pencil ``kmat + lmat w``
    is singular.

    Returns ``(roots, identically_zero)``.  The roots are the generalized
    eigenvalues ``alpha / beta`` of ``(kmat, -lmat)`` from one QZ
    decomposition, listed with multiplicity and sorted by (real, imag).
    Infinite eigenvalues (``beta`` negligible) and eigenvalues at the
    origin (``alpha`` negligible, i.e. at infinite real part in ``s``)
    are dropped.  ``identically_zero`` is true when the pencil is
    numerically singular at every one of :data:`NORMAL_RANK_POINTS`, i.e.
    its normal rank is deficient and every ``w`` is a root; the root list
    is then empty.
    """
    if kmat.shape[0] == 0:
        return (), False
    for w in NORMAL_RANK_POINTS:
        sv = np.linalg.svd(kmat + lmat * w, compute_uv=False)
        if sv[-1] > ZERO_TEST_TOL * sv[0]:
            break
    else:
        return (), True
    alpha, beta = scipy.linalg.eig(kmat, -lmat, right=False, homogeneous_eigvals=True)
    size = np.hypot(np.abs(alpha), np.abs(beta))
    finite = (np.abs(beta) > EIG_DROP_TOL * size) & (np.abs(alpha) > EIG_DROP_TOL * size)
    roots = [complex(a / b) for a, b in zip(alpha[finite], beta[finite])]
    roots.sort(key=lambda z: (round(z.real, 10), round(z.imag, 10)))
    return tuple(roots), False


def scan_zeros(sys: PHSystem) -> TransmissionZeros:
    """Find all finite transmission zeros of a SISO system.

    The zeros are the points ``w = exp(-s p)`` where the square stacked
    pencil ``[K0; Ky] + [L0; Ly] w`` loses rank, computed by
    :func:`pencil_roots` as its finite generalized eigenvalues; the
    identically-zero verdict comes from the pencil's normal rank.  Roots
    at ``w = 0`` correspond to zeros at infinite real part and are not
    reported.
    """
    if sys.m != 1:
        raise UnsupportedSystemError("zero scan is defined for SISO systems")
    kmat = np.vstack([sys.K0, sys.Ky])
    lmat = np.vstack([sys.L0, sys.Ly])
    roots, vanishes = pencil_roots(kmat, lmat)
    period = 2.0 * np.pi / sys.p
    s_values = tuple(-np.log(z) / sys.p for z in roots)
    return TransmissionZeros(roots, s_values, vanishes, period)
