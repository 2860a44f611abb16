"""Zero dynamics: output-nulling subspaces, nulling feedback, and the
constructive boundary-matrix reduction.

On a trajectory with zero output the traces obey ``E z(0,t) = F z(1,t)``
with the stacks ``E = -[K0; Ky]`` and ``F = [L0; Ly]``, both n-by-n for
any number of inputs.  When the pencil ``F - lambda E`` is regular, one
ordered QZ decomposition (:func:`_deflate`; Emami-Naeini & Van Dooren,
Automatica 1982) gives everything in O(n^3): the right deflating
subspace ``V`` of its finite eigenvalues and the matrix ``M`` with
``E V M = F V``.

* :func:`vstar_discrete` returns ``V``, the largest subspace with
  ``F V ⊆ E V``; singular pencils fall back to the subspace iteration
  ``V <- V null((I - P_{EV}) F V)``, two SVDs per step;
* :func:`reduce` writes the zero dynamics as the boundary system
  ``w(0,t) = M w(1,t)`` on the reduced state ``w = V^T z``.  The
  by-products are the constraint rows (the complement of ``V``, which
  vanishes identically on the zero dynamics) and the functional
  expressing the output-zeroing input through the reduced traces.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import analysis, linalg
from .analysis import output_nulling_stacks
from .errors import ConsistencyError, IllPosedError, ReductionError
from .linalg import Subspace
from .model import PHSystem

#: Bound on the deflation residual ``|E V M - F V|`` relative to
#: ``|E| |M| + |F|`` (Frobenius norms).  QZ is backward stable, so the
#: residual sits at a small multiple of the unit roundoff.
DEFLATION_TOL = 1e-9


class _SingularPencil(Exception):
    """Stops :func:`_deflate` at a singular pencil, before the reordering."""


def _deflate(e, f):
    """Ordered QZ of the square pencil ``F - lambda E``, finite
    eigenvalues first.

    Returns ``(z, k, m, residual)``: ``z`` is orthogonal and its first
    ``k`` columns ``V`` span the right deflating subspace of the ``k``
    finite eigenvalues; ``m = inv(BB11) AA11`` from the leading Schur
    blocks solves ``E V m = F V``; ``residual`` is ``|E V m - F V|``
    (Frobenius).  Returns ``None`` when the pencil is not square or is
    singular, judged on the pairs of the unordered QZ by
    :func:`analysis.singular_pencil` (the verdict of
    :func:`analysis.pencil_roots`).  Raises :class:`ConsistencyError` when
    the reordering fails or the residual exceeds :data:`DEFLATION_TOL`.
    """
    e = linalg.as_matrix(e)
    f = linalg.as_matrix(f)
    if e.shape != f.shape:
        raise ValueError(f"stack shapes differ: {e.shape} vs {f.shape}")
    n = e.shape[1]
    if e.shape[0] != n or n == 0:
        return None

    def finite_first(alpha, beta):
        # ordqz passes the pairs of the unordered QZ; reordering a singular
        # pencil would scramble the pair at (0, 0), so stop before it
        if analysis.singular_pencil(alpha, beta, f, e):
            raise _SingularPencil
        return analysis.finite_pairs(alpha, beta)

    try:
        aa, bb, alpha, beta, _, z = scipy.linalg.ordqz(f, e, sort=finite_first, output="real")
    except _SingularPencil:
        return None
    except ValueError as exc:  # LAPACK's tgsen could not reorder an ill-conditioned pencil
        raise ConsistencyError(f"ordered QZ of the zero pencil failed: {exc}") from exc
    finite = analysis.finite_pairs(alpha, beta)
    k = int(np.count_nonzero(finite))
    if not finite[:k].all():
        raise ConsistencyError("ordered QZ left a finite eigenvalue behind an infinite one")
    v = z[:, :k]
    m = scipy.linalg.solve_triangular(bb[:k, :k], aa[:k, :k])
    residual = float(np.linalg.norm(e @ v @ m - f @ v))
    if residual > DEFLATION_TOL * (np.linalg.norm(e) * np.linalg.norm(m) + np.linalg.norm(f)):
        raise ConsistencyError(f"deflation residual |E V M - F V| = {residual:.3e}")
    return z, k, m, residual


def vstar_discrete(e, f, tol: float = linalg.DEFAULT_TOL) -> Subspace:
    """Largest subspace ``V`` with ``F V ⊆ E V``.

    For a regular pencil ``F - lambda E`` this is the right deflating
    subspace of its finite eigenvalues, computed by :func:`_deflate`
    (``tol`` is then unused).  A non-square or singular pencil goes to
    :func:`_vstar_iteration`.
    """
    deflation = _deflate(e, f)
    if deflation is None:
        return _vstar_iteration(e, f, tol)
    z, k, _, _ = deflation
    return Subspace(z[:, :k], tol)


def _vstar_iteration(e, f, tol: float = linalg.DEFAULT_TOL) -> Subspace:
    """Largest subspace ``V`` with ``F V ⊆ E V`` by subspace iteration.

    Fixed point of ``V`` = full space, ``V <- V null((I - P_{EV}) F V)``,
    i.e. ``V ∩ F^{-1} E V`` on an orthonormal basis: the range of ``E V``
    is judged against ``|E|`` and the null space against ``tol |F|``.
    The dimension strictly decreases until the fixed point, so at most
    ``n`` steps run.  The route for non-square and singular pencils.
    """
    e = linalg.as_matrix(e)
    f = linalg.as_matrix(f)
    if e.shape != f.shape:
        raise ValueError(f"stack shapes differ: {e.shape} vs {f.shape}")
    n = e.shape[1]
    e_scale = max(linalg.two_norm(e), np.finfo(float).tiny)
    f_scale = linalg.two_norm(f)
    v = np.eye(n)
    for _ in range(n + 1):
        image = Subspace.from_span(e @ v, tol, anchor=e_scale)
        fv = f @ v
        s, vh = np.linalg.svd(fv - image.project(fv))[1:]
        r = int(np.count_nonzero(s > tol * f_scale))
        if r == 0:
            return Subspace(v, tol)
        v = v @ vh[r:, :].conj().T
    raise ConsistencyError("output-nulling iteration failed to reach a fixed point")


@dataclass(frozen=True)
class NullingFriend:
    """State feedback keeping ``V`` invariant while nulling the output."""

    Fd: np.ndarray
    Vbasis: Subspace


def nulling_friend(d: analysis.DiscreteSystem, v: Subspace, tol: float = 1e-10) -> NullingFriend:
    """Feedback ``Fd`` with ``(Ad + Bd Fd) V ⊆ V`` and ``(Cd + Dd Fd) V = 0``.

    For each basis vector the consistent system
    ``[Bd, -V; Dd, 0] [u; x] = [-Ad v; -Cd v]`` is solved by least
    squares; a residual above ``tol`` means ``v`` was not output-nulling.
    ``Fd`` annihilates the orthogonal complement of ``V``.
    """
    n, m = d.n, d.m
    if v.ambient_dim != n:
        raise ValueError(f"subspace lives in {v.ambient_dim} dimensions, system in {n}")
    if v.dim == 0:
        return NullingFriend(Fd=np.zeros((m, n)), Vbasis=v)
    basis = v.basis
    big = np.block([[d.Bd, -basis], [d.Dd, np.zeros((d.Cd.shape[0], v.dim))]])
    rhs = np.vstack([-d.Ad @ basis, -d.Cd @ basis])
    sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    scale = max(1.0, float(np.abs(rhs).max()))
    residual = linalg.two_norm(big @ sol - rhs)
    if residual > tol * scale:
        raise ConsistencyError(
            f"subspace is not output-nulling (residual {residual:.3e})"
        )
    fd = sol[:m, :] @ basis.conj().T
    closed = (d.Ad + d.Bd @ fd) @ basis
    inv_res = linalg.two_norm(closed - v.project(closed))
    out_res = linalg.two_norm((d.Cd + d.Dd @ fd) @ basis)
    if inv_res > tol * max(1.0, linalg.two_norm(closed)) or out_res > tol * scale:
        raise ConsistencyError(
            f"feedback certificate failed (invariance {inv_res:.3e}, output {out_res:.3e})"
        )
    return NullingFriend(Fd=fd, Vbasis=v)


@dataclass(frozen=True)
class ZeroDynamicsResult:
    """Reduced boundary system describing the zero dynamics.

    ``Kw w(0,t) + Lw w(1,t) = 0`` on the k-dimensional reduced state,
    ``constraints @ z = 0`` are the eliminated directions (rows in the
    original channel coordinates, unit norm, first nonzero entry
    positive), ``transform_chain`` holds the state maps that compose to
    :attr:`reduced_state_map` (``()`` on the full state space, ``(V^T,)``
    otherwise), and ``u = Ku_tilde w(0,t) + Lu_tilde w(1,t)`` reproduces
    the output-zeroing input.
    ``deflation_residual`` is ``|E V M - F V|`` of the QZ deflation
    behind the reduction (0 on the full state space).
    """

    k: int
    Kw: np.ndarray
    Lw: np.ndarray
    p: float
    constraints: np.ndarray
    transform_chain: tuple
    Ku_tilde: np.ndarray
    Lu_tilde: np.ndarray
    full_state: bool
    deflation_residual: float = 0.0

    @cached_property
    def reduced_state_map(self) -> np.ndarray:
        """The k-by-n map ``W`` with ``w = W z`` on the zero dynamics."""
        w = np.eye(self.k + self.constraints.shape[0])
        for mat in self.transform_chain:
            w = mat @ w
        return w

    def nulling_subspace(self) -> Subspace:
        """Pointwise state set of the zero dynamics: the span of the
        orthonormal rows of :attr:`reduced_state_map` (the kernel of the
        constraint rows)."""
        return Subspace(self.reduced_state_map.T)

    @cached_property
    def reduced_step(self) -> np.ndarray:
        """One-traversal map ``-inv(Kw) Lw`` of the reduced system."""
        if self.k == 0:
            return np.zeros((0, 0))
        return -np.linalg.solve(self.Kw, self.Lw)

    def zeroing_feedback(self) -> np.ndarray:
        """Static profile feedback realizing the zeroing input.

        On the zero dynamics ``w(0,t) = reduced_step @ w(1,t)``, so the
        input functional collapses to a feedback on the current traveling
        profile: ``u_d = (Ku_tilde @ reduced_step + Lu_tilde) W z_d``.
        ``W`` has orthonormal rows spanning the nulling set, so the gain
        already vanishes on the eliminated directions.
        """
        return (self.Ku_tilde @ self.reduced_step + self.Lu_tilde) @ self.reduced_state_map

    def input_functional_original(self) -> tuple[np.ndarray, np.ndarray]:
        """The zeroing input written on the original traces:
        ``u = fK z(0,t) + fL z(1,t)`` (valid on zero-dynamics
        trajectories)."""
        w = self.reduced_state_map
        return self.Ku_tilde @ w, self.Lu_tilde @ w


def _normalize_constraint(row: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(row)
    if norm == 0.0:
        return row
    row = row / norm
    big = np.abs(row) > 1e-9
    if np.any(big) and row[np.argmax(big)] < 0:
        row = -row
    return row + 0.0  # turns -0.0 into 0.0


def reduce(sys: PHSystem, tol: float = linalg.DEFAULT_TOL) -> ZeroDynamicsResult:
    """Construct the zero dynamics of a well-posed uniform-speed system.

    If the stacked matrix ``[K0; Ky]`` is invertible the zero dynamics
    live on the full state space and no reduction runs.  Otherwise, for
    any number of inputs, the ordered QZ of :func:`_deflate` gives ``V``
    (the first ``k`` columns of ``Z``) and ``E V M = F V``, so on
    ``w = V^T z`` the zero dynamics are ``Kw = I``, ``Lw = -M``.  The
    constraint rows are the trailing columns of ``Z``, last first, and
    the transform chain is ``(V^T,)``.

    Raises :class:`ReductionError` when the pencil is singular, i.e. the
    transfer matrix is singular at every ``s``.
    """
    if not analysis.check_well_posed(sys, tol):
        raise IllPosedError("boundary matrix [K0; Ku] is singular")
    n = sys.n
    e, f = output_nulling_stacks(sys)
    if linalg.rank(e, tol) == n:
        return ZeroDynamicsResult(
            k=n,
            Kw=-e,
            Lw=f,
            p=sys.p,
            constraints=np.zeros((0, n)),
            transform_chain=(),
            Ku_tilde=sys.Ku.copy(),
            Lu_tilde=sys.Lu.copy(),
            full_state=True,
        )
    deflation = _deflate(e, f)
    if deflation is None:
        raise ReductionError(
            "the stacked zero pencil [K0; Ky] + [L0; Ly] w is singular: the "
            "transfer matrix is singular at every s (det G identically zero)"
        )
    z, k, m, residual = deflation
    v = z[:, :k]
    constraints = [_normalize_constraint(z[:, j]) for j in range(n - 1, k - 1, -1)]
    return ZeroDynamicsResult(
        k=k,
        Kw=np.eye(k),
        Lw=0.0 - m,  # -m would turn the zeros of m into -0.0
        p=sys.p,
        constraints=np.array(constraints).reshape(n - k, n),
        transform_chain=(v.T.copy(),),
        Ku_tilde=sys.Ku @ v,
        Lu_tilde=sys.Lu @ v,
        full_state=False,
        deflation_residual=residual,
    )
