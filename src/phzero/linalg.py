"""Deterministic dense linear-algebra kernels.

Everything operates on plain numpy arrays (row-major, float64 or
complex128) at desk scale (n up to a few hundred).  All tie-breaking is
by lowest index so repeated runs are bit-identical.
"""

from dataclasses import dataclass

import numpy as np

#: Default relative threshold for rank decisions.  The systems this package
#: targets have small-integer boundary matrices, so rank gaps are far from
#: the threshold; override per call where needed.
DEFAULT_TOL = 1e-10

#: Condition-number limit above which a matrix is treated as numerically
#: singular when an inverse is required.
COND_LIMIT = 1e8


def as_matrix(a, dtype=None):
    """Coerce ``a`` to a 2-D ndarray (float64 unless complex input)."""
    arr = np.asarray(a)
    if dtype is None:
        dtype = complex if np.iscomplexobj(arr) else float
    arr = np.atleast_2d(np.asarray(arr, dtype=dtype))
    return arr


def two_norm(a) -> float:
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def cond2(a) -> float:
    """2-norm condition number; ``inf`` for singular or non-square input."""
    a = as_matrix(a)
    if a.size == 0:
        return 1.0
    if a.shape[0] != a.shape[1]:
        return np.inf
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def is_invertible(a, cond_limit: float = COND_LIMIT) -> bool:
    return cond2(a) < cond_limit


def rank(mat, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank from the singular values, by :func:`svd_rank`."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = as_matrix(mat)
    if a.size == 0:
        return 0
    return svd_rank(np.linalg.svd(a, compute_uv=False), tol)


def svd_rank(s, tol: float = DEFAULT_TOL) -> int:
    """Number of the singular values ``s`` (descending) above ``tol``
    times the largest; 0 when all vanish."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of n-space held as an orthonormal column basis."""

    basis: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis))
        if not np.iscomplexobj(b):
            b = b.astype(float)
        object.__setattr__(self, "basis", b)
        if b.shape[1] > 0:
            gram = b.conj().T @ b
            if not np.allclose(gram, np.eye(b.shape[1]), atol=1e-12):
                raise ValueError("basis columns are not orthonormal")
        if b.shape[1] > b.shape[0]:
            raise ValueError("more basis columns than ambient dimensions")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_span(cls, cols, tol: float = DEFAULT_TOL, anchor: float | None = None) -> "Subspace":
        """Orthonormalize a spanning set (rank decided at ``tol``).

        ``anchor`` fixes the absolute scale against which singular values
        are judged; without it the largest singular value of ``cols`` is
        used, which is only appropriate when the spanning set is known not
        to consist entirely of noise.
        """
        a = as_matrix(cols)
        if a.size == 0:
            return cls(np.zeros((a.shape[0], 0)), tol)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        scale = s[0] if s.size else 0.0
        if anchor is not None:
            scale = anchor
        if s.size == 0 or scale <= 0.0:
            return cls(np.zeros((a.shape[0], 0)), tol)
        r = int(np.count_nonzero(s > tol * scale))
        return cls(u[:, :r], tol)

    def project(self, vecs) -> np.ndarray:
        v = np.asarray(vecs)
        return self.basis @ (self.basis.conj().T @ v)

    def distance(self, vecs) -> float:
        """Largest projection residual over the given vectors (columns)."""
        v = np.atleast_2d(np.asarray(vecs, dtype=float))
        if v.shape[0] != self.ambient_dim:
            v = v.T
        res = v - self.project(v)
        return float(np.abs(res).max()) if res.size else 0.0


def spectral_radius(mat) -> float:
    """Largest eigenvalue magnitude (balanced Hessenberg QR iteration).

    Raises ``numpy.linalg.LinAlgError`` if the eigenvalue iteration fails
    to converge, which signals pathological input.
    """
    a = as_matrix(mat)
    if a.shape[0] != a.shape[1]:
        raise ValueError("spectral radius requires a square matrix")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))
