"""Zero dynamics: output-nulling subspaces, nulling feedback, and the
constructive boundary-matrix reduction.

Two independent routes characterize the same object:

* :func:`vstar_discrete` iterates ``V <- V ∩ preimage(F, E V)`` on the
  boundary/output stacks ``E = -[K0; Ky]``, ``F = [L0; Ly]``;
* :func:`vstar_from_quadruple` runs the classical output-nulling
  iteration on the one-traversal quadruple ``(Ad, Bd, Cd, Dd)``.

:func:`reduce` constructs the zero dynamics explicitly: treating ``y = 0``
as an extra boundary row, it repeatedly eliminates one state variable per
iteration (row reduction of the stacked pencil, a column permutation, a
real shift ``s0`` making the transformed pencil invertible, and a Schur
block inverse), until the reduced incoming-trace matrix ``Kw`` has full
rank.  The by-products are the constraint rows (state combinations that
vanish identically on the zero dynamics) and the functional expressing
the output-zeroing input through the reduced boundary traces.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import analysis, linalg
from .errors import (
    ConsistencyError,
    IllPosedError,
    ReductionError,
    SingularMatrixError,
    UnsupportedSystemError,
)
from .linalg import Subspace
from .model import PHSystem

#: Step of the real shift scan.
S0_STEP = 0.5

#: Per-iteration residual bound for the identity ``Kw + Lw e^{-s0 p} = I``.
ITERATION_IDENTITY_TOL = 1e-9


def output_nulling_stacks(sys: PHSystem) -> tuple[np.ndarray, np.ndarray]:
    """The stacks ``E = -[K0; Ky]`` and ``F = [L0; Ly]`` driving the
    incoming/outgoing trace recursion of the zero dynamics."""
    return -np.vstack([sys.K0, sys.Ky]), np.vstack([sys.L0, sys.Ly])


def vstar_discrete(e, f, tol: float = linalg.DEFAULT_TOL) -> Subspace:
    """Largest subspace ``V`` with ``F V ⊆ E V``.

    Fixed point of ``V^0`` = full space, ``V^{k+1} = V^k ∩ F^{-1} E V^k``;
    the dimension strictly decreases until the fixed point, so at most
    ``n`` steps run.
    """
    e = linalg.as_matrix(e)
    f = linalg.as_matrix(f)
    if e.shape != f.shape:
        raise ValueError(f"stack shapes differ: {e.shape} vs {f.shape}")
    n = e.shape[1]
    e_scale = max(linalg.two_norm(e), np.finfo(float).tiny)
    v = Subspace.full(n, tol)
    for _ in range(n + 1):
        image = Subspace.from_span(e @ v.basis, tol, anchor=e_scale)
        candidate = linalg.subspace_intersect(v, linalg.preimage(f, image))
        if candidate.dim == v.dim:
            return candidate
        v = candidate
    raise ConsistencyError("output-nulling iteration failed to reach a fixed point")


def vstar_from_quadruple(d: analysis.DiscreteSystem, tol: float = linalg.DEFAULT_TOL) -> Subspace:
    """Classical output-nulling iteration on the one-traversal quadruple.

    Largest ``V`` such that every ``v`` in ``V`` admits an input ``u``
    with ``Ad v + Bd u`` in ``V`` and ``Cd v + Dd u = 0``.  Must agree
    with :func:`vstar_discrete` on the same system.
    """
    n = d.n
    m_out = d.Cd.shape[0]
    stack = np.block([[d.Ad, d.Bd], [d.Cd, d.Dd]])
    v = Subspace.full(n, tol)
    for _ in range(n + 1):
        target_basis = np.vstack([v.basis, np.zeros((m_out, v.dim))])
        target = Subspace.from_span(target_basis, tol)
        pairs = linalg.preimage(stack, target)
        # pair-basis columns are unit vectors, so judge the state block
        # against scale 1 (it may be legitimately tiny when the admissible
        # pairs are input-dominated)
        projected = Subspace.from_span(pairs.basis[:n, :], tol, anchor=1.0)
        candidate = linalg.subspace_intersect(v, projected)
        if candidate.dim == v.dim:
            return candidate
        v = candidate
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
    positive), ``transform_chain`` holds the per-iteration state maps in
    iteration-local coordinates, and ``u = Ku_tilde w(0,t) +
    Lu_tilde w(1,t)`` reproduces the output-zeroing input.
    """

    k: int
    Kw: np.ndarray
    Lw: np.ndarray
    p: float
    constraints: np.ndarray
    transform_chain: tuple
    Ku_tilde: np.ndarray
    Lu_tilde: np.ndarray
    s0_used: tuple
    full_state: bool
    #: per-iteration residuals of ``Kw_i + Lw_i e^{-s0 p} - I`` (diagnostic)
    iteration_identity_residuals: tuple = ()

    @cached_property
    def reduced_state_map(self) -> np.ndarray:
        """The k-by-n map ``W`` with ``w = W z`` on the zero dynamics."""
        n = self.k + self.constraints.shape[0]
        w = np.eye(n)
        for mat in self.transform_chain:
            w = (mat @ w)[: mat.shape[0] - 1]
        return w

    def nulling_subspace(self, tol: float = linalg.DEFAULT_TOL) -> Subspace:
        """Pointwise state set of the zero dynamics (kernel of the
        constraint rows)."""
        return linalg.nullspace(self.constraints, tol)

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
        The feedback is composed with the orthogonal projector onto the
        nulling set, which leaves it unchanged where the dynamics live but
        stops rounding noise in the eliminated directions from being
        re-amplified when the zero dynamics are unstable.
        """
        gain = (self.Ku_tilde @ self.reduced_step + self.Lu_tilde) @ self.reduced_state_map
        basis = self.nulling_subspace().basis
        return gain @ (basis @ basis.conj().T)

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
    return row


def _row_reduce_pair(kc, lc, tol):
    """Invertible row transform sending ``kc`` to [full-row-rank; zero rows].

    Row-pivoted elimination first; if the dependent rows do not surface as
    (near-)zero rows of the triangular factor, fall back to an orthogonal
    reduction built from the left singular vectors.  Returns the
    transformed pair.
    """
    d = kc.shape[0]
    deficiency = d - linalg.rank(kc, tol)
    fac = linalg.lu_decompose(kc)
    rk = fac.upper
    rl = scipy.linalg.solve_triangular(
        fac.lower, lc[fac.perm], lower=True, unit_diagonal=True
    )
    scale = max(float(np.abs(rk).max(initial=0.0)), np.finfo(float).tiny)
    norms = np.abs(rk).max(axis=1)
    flagged = np.nonzero(norms <= tol * scale)[0]
    if flagged.size == deficiency:
        if deficiency and flagged[0] != d - deficiency:
            order = [i for i in range(d) if i not in set(flagged)] + list(flagged)
            rk = rk[order]
            rl = rl[order]
        return rk, rl
    u = np.linalg.svd(kc)[0]
    return u.conj().T @ kc, u.conj().T @ lc


def _column_candidates(top, tol):
    """Column swaps (with the last column) making the leading block
    invertible, best last-pivot first; ``None`` means no swap and comes
    first whenever it is admissible.

    A generator: the swaps are rank-checked and scored only when the
    caller asks for the candidate after ``None``, so an elimination that
    succeeds without a swap costs one rank check instead of ``d`` rank
    checks and up to ``d - 1`` LU factorizations.
    """
    d = top.shape[1]
    if d == 1 or linalg.rank(top[:, : d - 1], tol) == d - 1:
        yield None
    scored = []
    for col in range(d - 1):
        order = list(range(d))
        order[col], order[d - 1] = order[d - 1], order[col]
        block = top[:, order[: d - 1]]
        if linalg.rank(block, tol) != d - 1:
            continue
        last_pivot = float(np.abs(np.diag(linalg.lu_decompose(block).upper))[-1])
        scored.append((-last_pivot, col))
    yield from (col for _, col in sorted(scored))


def reduce(
    sys: PHSystem,
    s0_max: float | None = None,
    tol: float = linalg.DEFAULT_TOL,
    cond_limit: float = linalg.COND_LIMIT,
) -> ZeroDynamicsResult:
    """Construct the zero dynamics of a well-posed uniform-speed system.

    If the stacked matrix ``[K0; Ky]`` is invertible the zero dynamics
    live on the full state space and no reduction runs.  Otherwise (SISO
    only) one state variable is eliminated per iteration until the
    reduced ``Kw`` is invertible; each iteration records the eliminated
    combination as a constraint row and a local transform in the chain.

    Each elimination first tries the leading block as it stands (no
    column swap) over the whole shift scan; column swaps are ranked and
    tried only if that fails, so the usual elimination never scores them.

    Raises :class:`ReductionError` when no real shift in ``[0, s0_max]``
    makes the transformed pencil invertible for any admissible column
    choice, which indicates an identically zero transfer function.
    """
    if not analysis.check_well_posed(sys, tol):
        raise IllPosedError("boundary matrix [K0; Ku] is singular")
    n, m = sys.n, sys.m
    if s0_max is None:
        s0_max = 50.0 / sys.p
    stacked_k = np.vstack([sys.K0, sys.Ky])
    stacked_l = np.vstack([sys.L0, sys.Ly])
    if linalg.rank(stacked_k, tol) == n:
        return ZeroDynamicsResult(
            k=n,
            Kw=stacked_k,
            Lw=stacked_l,
            p=sys.p,
            constraints=np.zeros((0, n)),
            transform_chain=(),
            Ku_tilde=sys.Ku.copy(),
            Lu_tilde=sys.Lu.copy(),
            s0_used=(),
            full_state=True,
        )
    if m != 1:
        raise UnsupportedSystemError(
            "reduction with a singular [K0; Ky] is only supported for "
            "single-input single-output systems"
        )

    kc, lc = stacked_k, stacked_l
    wmap = np.eye(n)
    phi = np.eye(n)
    chain: list[np.ndarray] = []
    constraints: list[np.ndarray] = []
    s0_used: list[float] = []
    identity_residuals: list[float] = []
    s0_grid = np.arange(0.0, s0_max + S0_STEP / 2, S0_STEP)

    while True:
        d = kc.shape[0]
        r = linalg.rank(kc, tol) if d else 0
        if r == d:
            break
        if r < d - 1:
            raise ConsistencyError(
                f"rank dropped by {d - r} in one iteration (expected at most 1)"
            )
        rk, rl = _row_reduce_pair(kc, lc, tol)
        top_k = rk[: d - 1]
        accepted = None
        for col in _column_candidates(top_k, tol):
            order = list(range(d))
            if col is not None:
                order[col], order[d - 1] = order[d - 1], order[col]
            rkp = rk[:, order]
            rlp = rl[:, order]
            k11, k12 = rkp[: d - 1, : d - 1], rkp[: d - 1, d - 1 :]
            l11, l12 = rlp[: d - 1, : d - 1], rlp[: d - 1, d - 1 :]
            l21, l22 = rlp[d - 1 :, : d - 1], rlp[d - 1 :, d - 1 :]
            for s0 in s0_grid:
                w0 = float(np.exp(-s0 * sys.p))
                t1 = k11 + l11 * w0
                tmat = np.block([[t1, k12 + l12 * w0], [l21 * w0, l22 * w0]])
                if linalg.cond2(t1) < cond_limit and linalg.cond2(tmat) < cond_limit:
                    accepted = (order, s0, w0, tmat, k11, k12, l11, l12)
                    break
            if accepted is not None:
                break
        if accepted is None:
            raise ReductionError(
                "no real shift in the scan makes the transformed pencil "
                "invertible; the transfer function may be identically zero"
            )
        order, s0, w0, tmat, k11, k12, l11, l12 = accepted
        x11, x21 = linalg.schur_block_inverse(tmat, d - 1)
        kw = k11 @ x11 + k12 @ x21
        lw = l11 @ x11 + l12 @ x21
        identity_residual = linalg.two_norm(kw + lw * w0 - np.eye(d - 1))
        if identity_residual > ITERATION_IDENTITY_TOL:
            raise ConsistencyError(
                f"iteration identity Kw + Lw e^(-s0 p) = I violated "
                f"({identity_residual:.3e})"
            )
        identity_residuals.append(identity_residual)
        local = tmat @ np.eye(d)[order, :]
        chain.append(local)
        full_map = local @ wmap
        constraints.append(_normalize_constraint(full_map[d - 1]))
        wmap = full_map[: d - 1]
        phi = phi @ np.linalg.inv(local)[:, : d - 1]
        s0_used.append(float(s0))
        kc, lc = kw, lw

    k = kc.shape[0]
    if k + len(constraints) != n:
        raise ConsistencyError("dimension accounting failed after reduction")
    constraint_mat = np.array(constraints).reshape(len(constraints), n)
    return ZeroDynamicsResult(
        k=k,
        Kw=kc,
        Lw=lc,
        p=sys.p,
        constraints=constraint_mat,
        transform_chain=tuple(chain),
        Ku_tilde=sys.Ku @ phi,
        Lu_tilde=sys.Lu @ phi,
        s0_used=tuple(s0_used),
        full_state=False,
        iteration_identity_residuals=tuple(identity_residuals),
    )


@dataclass(frozen=True)
class CrossCheckReport:
    """Agreement record between the subspace and reduction routes."""

    n: int
    k: int
    vstar_dim: int
    constraint_residual: float
    w_roots_reduced: tuple
    w_roots_scan: tuple


def cross_check(sys: PHSystem) -> CrossCheckReport:
    """Verify that the two zero-dynamics routes agree on a SISO system.

    Asserts (raising :class:`ConsistencyError` otherwise) that the
    output-nulling subspace dimension equals the reduced order, that the
    constraint rows annihilate the subspace, that neither the original
    nor the reduced pencil is identically singular (``reduce`` succeeds
    only on a transfer function that is not identically zero), and that
    every root of ``det(Kw + Lw w)`` is a transmission zero of the
    original system.
    """
    if sys.m != 1:
        raise UnsupportedSystemError("cross_check is defined for SISO systems")
    res = reduce(sys)
    v = vstar_discrete(*output_nulling_stacks(sys))
    if v.dim != res.k:
        raise ConsistencyError(
            f"subspace dimension {v.dim} != reduced order {res.k}"
        )
    residual = 0.0
    if res.constraints.size and v.dim:
        residual = float(np.abs(res.constraints @ v.basis).max())
        if residual > 1e-10:
            raise ConsistencyError(
                f"constraint rows do not annihilate the nulling subspace "
                f"({residual:.3e})"
            )
    roots_reduced, vanishes = analysis.pencil_roots(res.Kw, res.Lw)
    scan = analysis.scan_zeros(sys)
    if vanishes or scan.identically_zero:
        raise ConsistencyError(
            f"reduction succeeded with order {res.k}, but the "
            f"{'reduced' if vanishes else 'original'} zero pencil is "
            f"identically singular"
        )
    for w in roots_reduced:
        s = -np.log(w) / sys.p
        try:
            is_zero = analysis.is_transmission_zero(sys, s)
        except SingularMatrixError:
            # the root coincides with a boundary-pencil singularity; the
            # transmission-zero test is undefined there
            continue
        if not is_zero:
            raise ConsistencyError(
                f"reduced-pencil root w={w} is not a transmission zero"
            )
    return CrossCheckReport(
        n=sys.n,
        k=res.k,
        vstar_dim=v.dim,
        constraint_residual=residual,
        w_roots_reduced=roots_reduced,
        w_roots_scan=scan.w_roots,
    )
