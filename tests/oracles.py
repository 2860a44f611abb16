"""Independent oracles used by the test suite.

:func:`vstar_from_quadruple` is the classical output-nulling iteration on
the one-traversal quadruple, a second route to the subspace that
:func:`phzero.vstar_discrete` computes from the boundary stacks.  It is
built on the subspace lattice :func:`nullspace`, :func:`preimage` and
:func:`subspace_intersect`.  :func:`cross_check` compares
:func:`phzero.reduce` with it and certifies the reduced zeros.
:func:`transfer_eval` evaluates the transfer function by a
boundary-pencil solve and :func:`transfer_eval_resolvent` through the
quadruple's resolvent; the two routes check each other.  :func:`same_as`
tests two subspaces for mutual containment.  :func:`exact_root_count`
counts the transmission zeros of a system in exact rational arithmetic
and :func:`exact_order` the order of its zero dynamics.

:func:`lu_decompose` (a row-pivoted triangular factorization) and
:func:`schur_block_inverse` (the left blocks of a 2x2-partitioned
inverse) are the hand-rolled kernels of the earlier elimination-based
reduction, kept with their unit tests as reference implementations.

The multirate simulator below never forms the split system: each channel
is an exact delay line of ``travel_time / h`` cells (``h`` divides every
travel time), and the boundary condition is solved per step for the
incoming traces.  It is the reference against which both the splitting
transformation and the uniform-grid simulator are checked.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from phzero import analysis, linalg
from phzero.analysis import DiscreteSystem, discrete_reduce
from phzero.canonicalize import common_travel_time
from phzero.errors import ConsistencyError, IllPosedError, SingularMatrixError
from phzero.linalg import Subspace
from phzero.model import PHSystem
from phzero.zerodyn import reduce


def nullspace(mat, tol: float = linalg.DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the (right) null space of ``mat``.

    The dimension is ``cols - rank(mat, tol)``; the basis vectors are the
    trailing right singular vectors.
    """
    a = linalg.as_matrix(mat)
    n = a.shape[1]
    if a.shape[0] == 0 or a.size == 0 or not np.any(a):
        return Subspace(np.eye(n), tol)
    r = linalg.rank(a, tol)
    vh = np.linalg.svd(a)[2]
    return Subspace(vh[r:, :].conj().T, tol)


def subspace_intersect(v: Subspace, w: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if v.ambient_dim != w.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {v.ambient_dim} vs {w.ambient_dim}"
        )
    tol = min(v.tol, w.tol)
    if v.dim == 0 or w.dim == 0:
        return Subspace(np.zeros((v.ambient_dim, 0)), tol)
    if v.dim == v.ambient_dim:
        return Subspace(w.basis, tol)
    if w.dim == w.ambient_dim:
        return Subspace(v.basis, tol)
    # (a, b) with V a = W b <=> [V | -W] (a; b) = 0; the V a part spans V ∩ W.
    pairs = nullspace(np.hstack([v.basis, -w.basis]), tol)
    vecs = v.basis @ pairs.basis[: v.dim, :]
    return Subspace.from_span(vecs, tol)


def preimage(f, w: Subspace) -> Subspace:
    """The set ``{v : f v in w}``, via the null space of ``(I - P_w) f``.

    Membership is judged against the scale of ``f`` itself,
    ``norm((I - P_w) f v) <= tol * norm(f) * norm(v)``: the residual map can
    be pure rounding noise (when ``f`` maps everything into ``w``) and must
    not set the threshold.
    """
    fm = linalg.as_matrix(f)
    if fm.shape[0] != w.ambient_dim:
        raise ValueError(
            f"map has {fm.shape[0]} rows but target lives in "
            f"{w.ambient_dim} dimensions"
        )
    residual_map = fm - w.project(fm)
    anchor = linalg.two_norm(fm)
    if anchor == 0.0:
        return Subspace(np.eye(fm.shape[1]), w.tol)
    s, vh = np.linalg.svd(residual_map)[1:]
    r = int(np.count_nonzero(s > w.tol * anchor))
    return Subspace(vh[r:, :].conj().T, w.tol)


def vstar_from_quadruple(d: DiscreteSystem, tol: float = linalg.DEFAULT_TOL) -> Subspace:
    """Classical output-nulling iteration on the one-traversal quadruple.

    Largest ``V`` such that every ``v`` in ``V`` admits an input ``u``
    with ``Ad v + Bd u`` in ``V`` and ``Cd v + Dd u = 0``.  Must agree
    with :func:`phzero.vstar_discrete` on the same system.
    """
    n = d.n
    m_out = d.Cd.shape[0]
    stack = np.block([[d.Ad, d.Bd], [d.Cd, d.Dd]])
    v = Subspace(np.eye(n), tol)
    for _ in range(n + 1):
        target_basis = np.vstack([v.basis, np.zeros((m_out, v.dim))])
        target = Subspace.from_span(target_basis, tol)
        pairs = preimage(stack, target)
        # pair-basis columns are unit vectors, so judge the state block
        # against scale 1 (it may be legitimately tiny when the admissible
        # pairs are input-dominated)
        projected = Subspace.from_span(pairs.basis[:n, :], tol, anchor=1.0)
        candidate = subspace_intersect(v, projected)
        if candidate.dim == v.dim:
            return candidate
        v = candidate
    raise ConsistencyError("output-nulling iteration failed to reach a fixed point")


def same_as(v: Subspace, w: Subspace, tol: float = 1e-9) -> bool:
    """Mutual containment of two subspaces at the given tolerance."""
    if v.ambient_dim != w.ambient_dim or v.dim != w.dim:
        return False
    if v.dim == 0:
        return True
    return (
        linalg.two_norm(v.basis - w.project(v.basis)) <= tol
        and linalg.two_norm(w.basis - v.project(w.basis)) <= tol
    )


@dataclass(frozen=True)
class TransferSample:
    """Value of the transfer function at one complex frequency."""

    s: complex
    value: np.ndarray


def transfer_eval(sys: PHSystem, s: complex) -> TransferSample:
    """Evaluate the transfer function by solving the boundary pencil.

    Solves ``(K + L w) v = [0; u]`` columnwise for unit inputs and returns
    ``(Ky + Ly w) v``; equals ``Dd + Cd (z I - Ad)^-1 Bd`` at ``z = 1/w``.
    """
    if not analysis.check_well_posed(sys):
        raise IllPosedError("boundary matrix [K0; Ku] is singular")
    w = np.exp(-complex(s) * sys.p)
    pencil = sys.K + sys.L * w
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


def _exact_det(rows) -> Fraction:
    """Determinant of a square matrix of Fractions by Gaussian elimination."""
    a = [list(row) for row in rows]
    det = Fraction(1)
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r][col:] = [x - factor * y for x, y in zip(a[r][col:], a[col][col:])]
    return det


def _newton_coefficients(values) -> list:
    """Coefficients, lowest degree first, of the polynomial of degree below
    ``len(values)`` that takes ``values[i]`` at ``i``."""
    diffs = list(values)
    for level in range(1, len(diffs)):
        for i in range(len(diffs) - 1, level - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / level
    coeffs = [Fraction(0)] * len(diffs)
    basis = [Fraction(1)]  # prod_{i < j} (w - i), lowest degree first
    for j, diff in enumerate(diffs):
        for k, b in enumerate(basis):
            coeffs[k] += diff * b
        basis = [(basis[k - 1] if k else 0) - j * (basis[k] if k < len(basis) else 0)
                 for k in range(len(basis) + 1)]
    return coeffs


def _exact_zero_pencil_powers(sys: PHSystem) -> list:
    """Powers of ``w`` with a nonzero coefficient in ``p(w) = det([K0; Ky]
    + w [L0; Ly])``, ascending, decided exactly: every float entry is a
    rational, so ``p`` is evaluated at ``w = 0..n`` by Fraction
    elimination and interpolated in Newton form."""
    a = [[Fraction(float(x)) for x in row] for row in np.vstack([sys.K0, sys.Ky])]
    b = [[Fraction(float(x)) for x in row] for row in np.vstack([sys.L0, sys.Ly])]
    values = [_exact_det([[x + w * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
              for w in range(sys.n + 1)]
    return [i for i, c in enumerate(_newton_coefficients(values)) if c]


def exact_root_count(sys: PHSystem) -> int | None:
    """Exact number of finite, nonzero transmission zeros in ``w``.

    Returns ``None`` when ``p(w) = det([K0; Ky] + w [L0; Ly])`` vanishes
    identically (the transfer matrix is singular at every ``s``),
    otherwise ``deg p`` minus the order of ``p`` at 0, the count
    :func:`phzero.scan_zeros` lists.
    """
    nonzero = _exact_zero_pencil_powers(sys)
    if not nonzero:
        return None
    return nonzero[-1] - nonzero[0]


def exact_order(sys: PHSystem) -> int | None:
    """Exact order of the zero dynamics: the number of finite eigenvalues
    of ``F - lambda E`` (``E = -[K0; Ky]``, ``F = [L0; Ly]``), i.e.
    ``deg det(F - lambda E)``, which is ``n`` minus the order at 0 of
    ``p(w) = det([K0; Ky] + w [L0; Ly])``.  ``None`` when ``p`` vanishes
    identically, where :func:`phzero.reduce` must refuse the system."""
    nonzero = _exact_zero_pencil_powers(sys)
    if not nonzero:
        return None
    return sys.n - nonzero[0]


@dataclass(frozen=True)
class CrossCheckReport:
    """Agreement record between the reduction and the quadruple route."""

    n: int
    k: int
    vstar_dim: int
    constraint_residual: float
    w_roots_reduced: tuple
    w_roots_scan: tuple


def cross_check(sys: PHSystem) -> CrossCheckReport:
    """Verify :func:`phzero.reduce` against independent routes.

    Asserts (raising :class:`ConsistencyError` otherwise) that the
    output-nulling subspace of :func:`vstar_from_quadruple` has the
    reduced order, that the constraint rows annihilate it, that neither
    the original nor the reduced pencil is identically singular
    (``reduce`` succeeds only on a transfer function that is not
    identically zero), and that every root of ``det(Kw + Lw w)`` is a
    transmission zero of the original system.
    """
    res = reduce(sys)
    v = vstar_from_quadruple(discrete_reduce(sys))
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


@dataclass(frozen=True)
class LUFactors:
    """Row-pivoted triangular factorization ``M[perm] = lower @ upper``.

    ``perm`` maps factored row positions to input row positions, ``lower``
    is unit lower triangular and ``upper`` is upper triangular (echelon on
    rank-deficient input, with zero rows collected at the bottom whenever
    the dependent rows are exact).
    """

    perm: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Return ``lower @ upper`` in the original row order."""
        out = np.empty_like(self.upper)
        out[self.perm] = self.lower @ self.upper
        return out


def lu_decompose(mat) -> LUFactors:
    """Factor a square or wide matrix as ``P M = L U`` with partial pivoting.

    The pivot is the largest-magnitude entry of the active column, ties
    broken by lowest row index.  An exactly zero active column is skipped
    (the elimination advances to the next column without consuming a row),
    so rank deficiency surfaces as zero pivots rather than an error and the
    dependent rows of ``U`` end up at the bottom.
    """
    a = linalg.as_matrix(mat).copy()
    m, n = a.shape
    if m > n:
        raise ValueError(f"expected a square or wide matrix, got shape {a.shape}")
    perm = np.arange(m)
    lower = np.eye(m, dtype=a.dtype)
    row = 0
    for col in range(n):
        if row >= m:
            break
        mags = np.abs(a[row:, col])
        piv = row + int(np.argmax(mags))
        if mags[piv - row] == 0.0:
            continue
        if piv != row:
            a[[row, piv], :] = a[[piv, row], :]
            perm[[row, piv]] = perm[[piv, row]]
            lower[[row, piv], :row] = lower[[piv, row], :row]
        mult = a[row + 1 :, col] / a[row, col]
        lower[row + 1 :, row] = mult
        a[row + 1 :, col:] -= np.outer(mult, a[row, col:])
        a[row + 1 :, col] = 0.0
        row += 1
    return LUFactors(perm=perm, lower=lower, upper=a)


def schur_block_inverse(t, split: int) -> tuple[np.ndarray, np.ndarray]:
    """The two left blocks of ``inv(T)`` for a 2x2 block partition.

    With ``T = [[T1, T2], [T3, T4]]`` (``T1`` of order ``split``) and the
    complement ``S = T4 - T3 inv(T1) T2``::

        X11 = inv(T1) (I + T2 inv(S) T3 inv(T1))
        X21 = -inv(S) T3 inv(T1)

    Raises :class:`SingularMatrixError` when ``T1`` or ``S`` is singular.
    """
    tm = linalg.as_matrix(t)
    d = tm.shape[0]
    if tm.shape[0] != tm.shape[1]:
        raise ValueError("block inversion requires a square matrix")
    if not 0 <= split <= d:
        raise ValueError(f"split {split} out of range for order {d}")
    t1 = tm[:split, :split]
    t2 = tm[:split, split:]
    t3 = tm[split:, :split]
    t4 = tm[split:, split:]
    if split and not linalg.is_invertible(t1):
        raise SingularMatrixError("leading block T1 is numerically singular")
    if split == d:
        return np.linalg.solve(t1, np.eye(split, dtype=tm.dtype)), np.zeros((0, split), dtype=tm.dtype)
    if split == 0:
        if not linalg.is_invertible(t4):
            raise SingularMatrixError("Schur complement is numerically singular")
        return np.zeros((0, 0), dtype=tm.dtype), np.zeros((d, 0), dtype=tm.dtype)
    x = np.linalg.solve(t1.T, t3.T).T  # T3 inv(T1)
    s = t4 - x @ t2
    if not linalg.is_invertible(s):
        raise SingularMatrixError("Schur complement is numerically singular")
    y = np.linalg.solve(s, x)  # inv(S) T3 inv(T1)
    x11 = np.linalg.solve(t1, np.eye(split, dtype=tm.dtype) + t2 @ y)
    x21 = -y
    return x11, x21


def multispeed_output(ms, z0_cells, u_seq, grid_n):
    """Exact outputs of a multirate network under piecewise-constant data.

    ``z0_cells[i]`` holds channel ``i``'s initial profile on
    ``r_i * grid_n`` equal cells in physical order; ``u_seq`` is an
    ``(steps, m)`` array of inputs, constant on each step of length
    ``h = g / grid_n`` (``g`` the common travel time).  Returns the
    ``(steps, m)`` array of outputs, constant on the same steps.
    """
    g = common_travel_time(ms.speeds)
    n, m = ms.n, ms.m
    u_seq = np.atleast_2d(np.asarray(u_seq, dtype=float))
    steps = u_seq.shape[0]

    buffers = []
    for i, s in enumerate(ms.speeds):
        r = s.travel_time / g
        cells = np.asarray(z0_cells[i], dtype=float)
        assert cells.shape == (int(r) * grid_n,), f"channel {i} cell count"
        # Pop order = first value to leave through the outgoing end.
        buffers.append(list(cells[::-1]) if s.direction < 0 else list(cells))

    directions = np.array([s.direction for s in ms.speeds])
    m_in = np.where(directions < 0, 1.0, 0.0) * ms.K + np.where(directions > 0, 1.0, 0.0) * ms.L
    m_out = np.where(directions < 0, 1.0, 0.0) * ms.L + np.where(directions > 0, 1.0, 0.0) * ms.K

    ys = np.empty((steps, m))
    rhs0 = np.zeros(n)
    for k in range(steps):
        outflow = np.array([buf[0] for buf in buffers])
        rhs = rhs0.copy()
        rhs[n - m :] = u_seq[k]
        inflow = np.linalg.solve(m_in, rhs - m_out @ outflow)
        trace0 = np.where(directions < 0, inflow, outflow)
        trace1 = np.where(directions < 0, outflow, inflow)
        ys[k] = ms.Ky @ trace0 + ms.Ly @ trace1
        for buf, value in zip(buffers, inflow):
            buf.pop(0)
            buf.append(value)
    return ys


def reflect_profile(ms, z0_cells):
    """Initial data of the reflected network (profiles of +1 channels
    reversed)."""
    return [
        np.asarray(cells, dtype=float)[::-1] if s.direction > 0 else np.asarray(cells, dtype=float)
        for s, cells in zip(ms.speeds, z0_cells)
    ]
