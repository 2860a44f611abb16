import numpy as np
import pytest
from numpy.testing import assert_allclose

from phzero import (
    ConsistencyError,
    PHSystem,
    ReductionError,
    Subspace,
    UnsupportedSystemError,
    cross_check,
    discrete_reduce,
    is_transmission_zero,
    nulling_friend,
    output_nulling_stacks,
    scan_zeros,
    vstar_discrete,
    vstar_from_quadruple,
)
from phzero.analysis import DiscreteSystem, pencil_roots
from phzero.ensembles import random_siso_system, random_square_system
from phzero.linalg import preimage, subspace_intersect
from phzero.linalg import rank as zd_rank
from phzero.zerodyn import reduce as zd_reduce


def span_equal(subspace, rows, tol=1e-9):
    other = Subspace.from_span(np.atleast_2d(np.asarray(rows, dtype=float)).T)
    return subspace.same_as(other, tol)


def functional_mod_constraints(f, constraints):
    """Residual of a trace functional after projecting out constraint rows."""
    f = np.asarray(f, dtype=float).ravel().copy()
    c = np.atleast_2d(np.asarray(constraints, dtype=float))
    if c.size:
        q = np.linalg.qr(c.T)[0]
        f = f - q @ (q.T @ f)
    return f


# ---------------------------------------------------------------- vstar

def test_vstar_no_constraints_full_space():
    e = -np.zeros((1, 2))
    f = np.zeros((1, 2))
    v = vstar_discrete(e, f)
    assert v.dim == 2


def test_vstar_split(split_sys):
    v = vstar_discrete(*output_nulling_stacks(split_sys))
    assert v.dim == 2
    assert span_equal(v, [[1, -1, 0], [0, 0, 1]])


def test_vstar_ring(ring_sys):
    v = vstar_discrete(*output_nulling_stacks(ring_sys))
    assert v.dim == 1
    assert span_equal(v, [[0, 0, 1]])


def test_vstar_quadruple_no_output():
    d = DiscreteSystem(Ad=np.eye(3), Bd=np.zeros((3, 1)),
                       Cd=np.zeros((1, 3)), Dd=np.zeros((1, 1)), p=1.0)
    assert vstar_from_quadruple(d).dim == 3


def test_vstar_quadruple_split(split_sys):
    v = vstar_from_quadruple(discrete_reduce(split_sys))
    assert v.dim == 2
    assert span_equal(v, [[1, -1, 0], [0, 0, 1]])


def test_vstar_quadruple_observable_zero():
    d = DiscreteSystem(Ad=np.diag([0.5, 2.0]), Bd=np.zeros((2, 1)),
                       Cd=np.eye(2), Dd=np.zeros((2, 1)), p=1.0)
    assert vstar_from_quadruple(d).dim == 0


def test_vstar_fixed_point_idempotent(split_sys, ring_sys, sparse_ten):
    for sysx in (split_sys, ring_sys, sparse_ten):
        e, f = output_nulling_stacks(sysx)
        v = vstar_discrete(e, f)
        image = Subspace.from_span(e @ v.basis)
        again = subspace_intersect(v, preimage(f, image))
        assert again.dim == v.dim and again.same_as(v)


def test_vstar_routes_agree_random(rng):
    for i in range(40):
        sysr = random_siso_system(rng, reduction_depth=i % 2, sparse=bool(i % 3 == 0))
        v1 = vstar_discrete(*output_nulling_stacks(sysr))
        v2 = vstar_from_quadruple(discrete_reduce(sysr))
        assert v1.dim == v2.dim
        assert v1.same_as(v2, tol=1e-8)


# ---------------------------------------------------------------- friend

def test_friend_zero_subspace(split_sys):
    d = discrete_reduce(split_sys)
    fr = nulling_friend(d, Subspace.zero(3))
    assert np.abs(fr.Fd).max() == 0.0


def test_friend_split_rule(split_sys, rng):
    d = discrete_reduce(split_sys)
    v = vstar_discrete(*output_nulling_stacks(split_sys))
    fr = nulling_friend(d, v)
    for _ in range(5):
        vec = v.basis @ rng.standard_normal(2)
        assert fr.Fd @ vec == pytest.approx(vec[2] - vec[0], abs=1e-10)


def test_friend_ring_rule(ring_sys, rng):
    d = discrete_reduce(ring_sys)
    v = vstar_discrete(*output_nulling_stacks(ring_sys))
    fr = nulling_friend(d, v)
    for _ in range(5):
        vec = v.basis @ rng.standard_normal(1)
        assert fr.Fd @ vec == pytest.approx(vec[2], abs=1e-10)


def test_friend_certificates_random(rng):
    for i in range(20):
        sysr = random_siso_system(rng, reduction_depth=i % 2)
        d = discrete_reduce(sysr)
        v = vstar_discrete(*output_nulling_stacks(sysr))
        fr = nulling_friend(d, v)
        if v.dim:
            closed = (d.Ad + d.Bd @ fr.Fd) @ v.basis
            assert np.abs(closed - v.project(closed)).max() <= 1e-10 * max(1, np.abs(closed).max())
            assert np.abs((d.Cd + d.Dd @ fr.Fd) @ v.basis).max() <= 1e-10


def test_friend_rejects_non_nulling(ring_sys):
    d = discrete_reduce(ring_sys)
    with pytest.raises(ConsistencyError):
        nulling_friend(d, Subspace(np.eye(3)[:, :2]))


# ---------------------------------------------------------------- reduce

def test_reduce_split_golden(split_sys):
    res = zd_reduce(split_sys)
    assert res.k == 2 and not res.full_state
    assert res.s0_used == (0.0,)
    assert_allclose(res.transform_chain[0],
                    [[2, 0, 1], [0, 1, -1], [1, 1, 0]], atol=1e-12)
    assert_allclose(res.Kw, [[0, -1], [-1, -1]], atol=1e-12)
    assert_allclose(res.Lw, [[1, 1], [1, 2]], atol=1e-12)
    assert res.constraints.shape == (1, 3)
    assert_allclose(np.abs(res.constraints[0]), np.array([1, 1, 0]) / np.sqrt(2), atol=1e-12)
    fk, fl = res.input_functional_original()
    # u equals the incoming trace of the third channel modulo constraints
    assert np.abs(functional_mod_constraints(fk, res.constraints) - [0, 0, 1]).max() <= 1e-10
    assert np.abs(fl).max() == 0.0


def test_reduce_ring_golden(ring_sys):
    res = zd_reduce(ring_sys)
    assert res.k == 1 and len(res.transform_chain) == 2
    assert_allclose(res.transform_chain[0],
                    [[-1, 1, 0], [1, 0, -1], [1, 0, 0]], atol=1e-12)
    assert_allclose(res.transform_chain[1], [[0, 1], [1, 0]], atol=1e-12)
    assert_allclose(res.Kw, [[1.0]], atol=1e-12)
    assert_allclose(res.Lw, [[0.0]], atol=1e-12)
    assert Subspace.from_span(res.constraints.T).same_as(
        Subspace(np.eye(3)[:, :2]), tol=1e-10)
    fk, fl = res.input_functional_original()
    assert np.abs(functional_mod_constraints(fk, res.constraints)).max() <= 1e-10
    assert np.abs(functional_mod_constraints(fl, res.constraints) - [0, 0, 1]).max() <= 1e-10


def test_reduce_sparse_ten_golden(sparse_ten):
    res = zd_reduce(sparse_ten)
    assert res.k == 9 and len(res.transform_chain) == 1
    assert np.abs(res.Lw).max() <= 1e-9
    assert_allclose(res.Kw, np.eye(9), atol=1e-9)
    expected = np.zeros(10)
    expected[1], expected[3] = 1.0, -2.0
    assert span_equal(Subspace.from_span(res.constraints.T), [expected])


def test_reduce_full_state_path(rng):
    from phzero import feedthrough

    for _ in range(10):
        sysr = random_square_system(rng, singular_stack=False)
        res = zd_reduce(sysr)
        assert res.full_state and res.k == sysr.n
        assert res.constraints.shape == (0, sysr.n)
        assert np.array_equal(res.Ku_tilde, sysr.Ku)
        # full-state zero dynamics go hand in hand with an invertible
        # instantaneous input-to-output map
        e = feedthrough(sysr)
        sv = np.linalg.svd(e, compute_uv=False)
        assert sv[-1] > 1e-8 * max(sv[0], 1e-300)


def test_reduce_identity_and_accounting(rng):
    for i in range(30):
        sysr = random_siso_system(rng, reduction_depth=1, sparse=bool(i % 2))
        try:
            res = zd_reduce(sysr)
        except ReductionError:
            assert scan_zeros(sysr).identically_zero
            continue
        assert res.k + res.constraints.shape[0] == sysr.n
        for r in res.iteration_identity_residuals:
            assert r <= 1e-9
        for mat in res.transform_chain:
            assert np.linalg.cond(mat) < 1e12


def test_reduce_mimo_unsupported(rng):
    sysr = random_square_system(rng, n=4, m=2, singular_stack=True)
    with pytest.raises(UnsupportedSystemError):
        zd_reduce(sysr)


def test_reduce_advances_past_inadmissible_shift(rng):
    # the zero-pencil determinant vanishes at w = 1, so the shift scan must
    # reject s0 = 0 and settle on the next grid point
    sysx = PHSystem(p=1.0, K0=[[1.0, 0.0]], L0=[[1.0, 1.0]],
                    Ku=[[0.0, 1.0]], Lu=[[0.0, 0.0]],
                    Ky=[[1.0, 0.0]], Ly=[[3.0, 2.0]])
    res = zd_reduce(sysx)
    assert res.k == 1
    assert res.s0_used == (0.5,)
    rep = cross_check(sysx)
    assert rep.k == rep.vstar_dim == 1
    # the system carries a transmission zero exactly at s = 0 (w = 1)
    assert any(abs(w - 1.0) <= 1e-9 for w in rep.w_roots_scan)
    assert any(abs(w - 1.0) <= 1e-9 for w in rep.w_roots_reduced)
    z0 = res.nulling_subspace().basis @ rng.uniform(-1, 1, (1, 16))
    from phzero import simulate_zeroing

    for mode in ("reduction", "friend"):
        tr = simulate_zeroing(sysx, res, z0, steps=20, mode=mode)
        assert tr.max_output() <= 1e-10 * max(1.0, np.abs(z0).max())


def test_reduce_zero_output_map_fails_scan():
    sysz = PHSystem(p=1.0, K0=[[1.0, 0.0]], L0=[[0.0, 0.5]],
                    Ku=[[0.0, 1.0]], Lu=[[0.0, 0.0]],
                    Ky=np.zeros((1, 2)), Ly=np.zeros((1, 2)))
    with pytest.raises(ReductionError, match="identically zero"):
        zd_reduce(sysz)
    assert scan_zeros(sysz).identically_zero


def test_row_reduction_orthogonal_fallback(rng):
    from phzero import linalg
    from phzero.zerodyn import _row_reduce_pair

    # growth-prone elimination inflates the dependent row past the flagging
    # threshold, so the triangular route cannot isolate it and the
    # orthogonal fallback must take over
    d = 8
    grower = np.eye(d)
    grower[np.tril_indices(d, -1)] = -1.0
    grower[:, -1] = 1.0
    combo = rng.standard_normal(d - 1)
    kc = grower.copy()
    kc[-1] = combo @ grower[:-1] + 2e-10 * rng.standard_normal(d)
    lc = rng.standard_normal((d, d))
    assert d - zd_rank(kc) == 1
    fac = linalg.lu_decompose(kc)
    norms = np.abs(fac.upper).max(axis=1)
    assert not np.any(norms <= 1e-10 * np.abs(fac.upper).max())  # LU route blind
    rk, rl = _row_reduce_pair(kc, lc, 1e-10)
    u = np.linalg.svd(kc)[0]
    assert np.allclose(rk, u.T @ kc) and np.allclose(rl, u.T @ lc)
    assert np.abs(rk[-1]).max() <= 1e-9
    assert zd_rank(rk[:-1]) == d - 1


def test_reduce_scores_no_swap_when_none_is_accepted(monkeypatch):
    from phzero import linalg

    # Ky = c K0 makes the leading block admissible, so the one elimination
    # is accepted without a swap and the swap columns are never scored:
    # the only LU left is the row reduction
    sysr = random_siso_system(np.random.default_rng(11), n=40)
    calls = []
    lu = linalg.lu_decompose

    def counting_lu(mat):
        calls.append(np.shape(mat))
        return lu(mat)

    monkeypatch.setattr(linalg, "lu_decompose", counting_lu)
    res = zd_reduce(sysr)
    assert res.k == 39 and len(res.transform_chain) == 1
    assert calls == [(40, 40)]


def _unit_ring(n, d, rng):
    """Ring ``z_i(0) = s_i z_{i-1}(1)`` (random signs), input into channel
    0, output ``2 z_{d-1}(1)``: ``d`` eliminations, many needing a swap."""
    signs = rng.choice([-1.0, 1.0], size=n)
    k = np.zeros((n, n))
    l = np.zeros((n, n))
    for row, i in enumerate(list(range(1, n)) + [0]):
        k[row, i] = 1.0
        l[row, i - 1] = -signs[i]
    ly = np.zeros((1, n))
    ly[0, d - 1] = 2.0
    return PHSystem(p=1.0, K0=k[: n - 1], L0=l[: n - 1], Ku=k[n - 1 :],
                    Lu=l[n - 1 :], Ky=np.zeros((1, n)), Ly=ly)


def test_column_candidates_order_matches_eager_scoring(corpus_dir, monkeypatch):
    from phzero import canonicalize, load_system, zerodyn

    from oracles import column_candidates_eager

    lazy = zerodyn._column_candidates
    tops = []

    def recording(top, tol):
        tops.append((top.copy(), tol))
        return lazy(top, tol)

    monkeypatch.setattr(zerodyn, "_column_candidates", recording)
    systems = []
    for path in sorted(corpus_dir.glob("*.json")):
        loaded = load_system(path)
        if not isinstance(loaded, PHSystem):
            loaded = canonicalize.split_commensurate(canonicalize.reflect_positive(loaded))
        systems.append(loaded)
    rng = np.random.default_rng(3)
    systems += [_unit_ring(64, d, rng) for d in (8, 16, 24)]
    for sysr in systems:
        zd_reduce(sysr)

    # random tops whose leading block repeats a column, so no swap is
    # admissible and only the scored swaps remain
    for d in (3, 5, 12):
        top = rng.standard_normal((d - 1, d))
        top[:, d - 2] = top[:, 0]
        tops.append((top, 1e-10))

    kinds = set()
    for top, tol in tops:
        expected = column_candidates_eager(top, tol)
        assert list(lazy(top, tol)) == expected
        kinds.add(bool(expected) and expected[0] is None)
    assert kinds == {True, False}


def test_vstar_and_friend_mimo(rng):
    # the subspace machinery and the invariance feedback are not tied to
    # single-input systems
    for i in range(10):
        sysr = random_square_system(rng, n=5, m=2, singular_stack=bool(i % 2))
        d = discrete_reduce(sysr)
        v1 = vstar_discrete(*output_nulling_stacks(sysr))
        v2 = vstar_from_quadruple(d)
        assert v1.dim == v2.dim and v1.same_as(v2, tol=1e-8)
        fr = nulling_friend(d, v1)
        if v1.dim:
            closed = (d.Ad + d.Bd @ fr.Fd) @ v1.basis
            assert np.abs(closed - v1.project(closed)).max() <= 1e-10 * max(1, np.abs(closed).max())
            assert np.abs((d.Cd + d.Dd @ fr.Fd) @ v1.basis).max() <= 1e-10


# ---------------------------------------------------------------- cross check

def test_cross_check_corpus(split_sys, ring_sys, sparse_ten):
    rep = cross_check(split_sys)
    assert rep.k == rep.vstar_dim == 2
    golden = sorted([(-1 - np.sqrt(5)) / 2, (-1 + np.sqrt(5)) / 2])
    assert_allclose(sorted(z.real for z in rep.w_roots_reduced), golden, atol=1e-9)
    assert_allclose(sorted(z.real for z in rep.w_roots_scan), golden, atol=1e-9)

    rep = cross_check(ring_sys)
    assert rep.k == rep.vstar_dim == 1
    assert rep.w_roots_reduced == () and rep.w_roots_scan == ()

    rep = cross_check(sparse_ten)
    assert rep.k == rep.vstar_dim == 9


def test_cross_check_random(rng):
    done = 0
    for i in range(60):
        sysr = random_siso_system(rng, reduction_depth=i % 2, sparse=bool(i % 3 == 0))
        try:
            rep = cross_check(sysr)
        except ReductionError:
            assert scan_zeros(sysr).identically_zero
            continue
        assert rep.k == rep.vstar_dim
        done += 1
    assert done >= 40


def test_cross_check_certifies_every_zero_of_a_large_pencil():
    # the pencil has full normal rank and 19 finite nonzero roots; no
    # identically-zero verdict may hide them
    sysr = random_siso_system(np.random.default_rng(20), n=20)
    rep = cross_check(sysr)
    assert rep.k == rep.vstar_dim == 19
    assert len(rep.w_roots_reduced) == len(rep.w_roots_scan) == 19
    for w in rep.w_roots_scan:
        assert is_transmission_zero(sysr, -np.log(w) / sysr.p)


def test_cross_check_rejects_identically_zero_verdict(split_sys, monkeypatch):
    from phzero import analysis

    silent = analysis.TransmissionZeros((), (), True, 2 * np.pi)
    monkeypatch.setattr(analysis, "scan_zeros", lambda sys: silent)
    with pytest.raises(ConsistencyError, match="identically singular"):
        cross_check(split_sys)


def test_reduced_pencil_matches_full_pencil_roots(split_sys):
    res = zd_reduce(split_sys)
    reduced, vanishes = pencil_roots(res.Kw, res.Lw)
    assert not vanishes
    full, _ = pencil_roots(np.vstack([split_sys.K0, split_sys.Ky]),
                           np.vstack([split_sys.L0, split_sys.Ly]))
    assert_allclose(sorted(z.real for z in reduced), sorted(z.real for z in full), atol=1e-9)
