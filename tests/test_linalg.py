import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from phzero.errors import SingularMatrixError
from phzero.linalg import Subspace, rank, spectral_radius

from oracles import (
    lu_decompose,
    nullspace,
    preimage,
    same_as,
    schur_block_inverse,
    subspace_intersect,
)

finite_entries = st.floats(min_value=-10, max_value=10, allow_nan=False)
integer_entries = st.integers(min_value=-9, max_value=9).map(float)


def square(n):
    return arrays(np.float64, (n, n), elements=finite_entries)


# ---------------------------------------------------------------- LU

def test_lu_identity():
    fac = lu_decompose(np.eye(3))
    assert np.array_equal(fac.perm, np.arange(3))
    assert np.array_equal(fac.lower, np.eye(3))
    assert np.array_equal(fac.upper, np.eye(3))


def test_lu_already_upper_triangular(split_sys):
    fac = lu_decompose(split_sys.K)
    assert np.array_equal(fac.upper, split_sys.K)
    assert np.array_equal(fac.lower, np.eye(3))
    assert np.array_equal(fac.perm, np.arange(3))


def test_lu_random_reconstruction(rng):
    m = rng.standard_normal((5, 5))
    fac = lu_decompose(m)
    assert np.abs(fac.reconstruct() - m).max() <= 1e-12 * np.abs(m).max()


def test_lu_rank_deficient_zero_rows_at_bottom():
    m = np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 1]])
    fac = lu_decompose(m)
    assert np.abs(fac.upper[2]).max() == 0.0
    assert np.abs(fac.reconstruct() - m).max() == 0.0


def test_lu_rejects_tall():
    with pytest.raises(ValueError):
        lu_decompose(np.zeros((3, 2)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 6).flatmap(lambda n: arrays(np.float64, (n, n + 1), elements=finite_entries)))
def test_lu_reconstructs_wide(m):
    fac = lu_decompose(m)
    scale = max(np.abs(m).max(), 1.0)
    assert np.abs(fac.reconstruct() - m).max() <= 1e-12 * scale


# ---------------------------------------------------------------- rank

def test_rank_simple():
    assert rank(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])) == 1


def test_rank_stacked_zero_dynamics_matrix(ring_sys):
    stacked = np.vstack([ring_sys.K0, ring_sys.Ky])
    assert rank(stacked) == 2


def test_rank_product_construction(rng):
    m = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
    assert rank(m) == 3


def test_rank_requires_positive_tol():
    with pytest.raises(ValueError):
        rank(np.eye(2), tol=0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(arrays(np.float64, (4, 4), elements=integer_entries),
       st.sampled_from([1.0, -2.0, 0.5, 3.0]))
def test_rank_scaling_and_permutation_invariant(m, c):
    # integer-valued matrices keep rank decisions far from the threshold,
    # where the invariance is exact
    p1 = np.eye(4)[[2, 0, 3, 1]]
    p2 = np.eye(4)[[1, 3, 0, 2]]
    assert rank(m) == rank(c * p1 @ m @ p2)


# ---------------------------------------------------------------- nullspace

def test_nullspace_zero_matrix():
    ns = nullspace(np.zeros((2, 2)))
    assert ns.dim == 2


def test_nullspace_single_constraint():
    ns = nullspace(np.array([[1.0, 1.0, 0.0]]))
    assert ns.dim == 2
    assert np.abs(np.array([1.0, 1.0, 0.0]) @ ns.basis).max() <= 1e-12


def test_nullspace_residuals(rng):
    m = rng.standard_normal((8, 5)) @ rng.standard_normal((5, 8))
    ns = nullspace(m)
    assert ns.dim == 3
    assert np.abs(m @ ns.basis).max() <= 1e-10 * np.abs(m).max()


# ---------------------------------------------------------------- subspaces

def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_intersect_self(rng):
    v = Subspace.from_span(rng.standard_normal((5, 2)))
    w = subspace_intersect(v, v)
    assert w.dim == v.dim and same_as(w, v)


def test_intersect_coordinate_planes():
    e = np.eye(3)
    v = Subspace(e[:, :2])
    w = Subspace(e[:, 1:])
    inter = subspace_intersect(v, w)
    assert inter.dim == 1
    assert same_as(inter, Subspace(e[:, 1:2]))


def test_intersect_dimension_formula(rng):
    for _ in range(20):
        v = Subspace.from_span(rng.standard_normal((6, rng.integers(1, 5))))
        w = Subspace.from_span(rng.standard_normal((6, rng.integers(1, 5))))
        inter = subspace_intersect(v, w)
        dim_sum = rank(np.hstack([v.basis, w.basis]))
        assert inter.dim == v.dim + w.dim - dim_sum


@settings(max_examples=50, deadline=None, derandomize=True)
@given(arrays(np.float64, (5, 2), elements=integer_entries),
       arrays(np.float64, (5, 2), elements=integer_entries))
def test_intersect_dimension_formula_exact_on_integers(a, b):
    v = Subspace.from_span(a)
    w = Subspace.from_span(b)
    inter = subspace_intersect(v, w)
    dim_sum = rank(np.hstack([a, b])) if (a.any() or b.any()) else 0
    assert inter.dim == v.dim + w.dim - dim_sum


def test_intersect_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_intersect(Subspace(np.eye(2)), Subspace(np.eye(3)))


def test_preimage_identity_and_zero(rng):
    w = Subspace.from_span(rng.standard_normal((4, 2)))
    assert same_as(preimage(np.eye(4), w), w)
    assert preimage(np.zeros((4, 4)), w).dim == 4


def test_preimage_membership(rng):
    f = rng.standard_normal((8, 8))
    w = Subspace.from_span(rng.standard_normal((8, 5)))
    pre = preimage(f, w)
    mapped = f @ pre.basis
    assert np.abs(mapped - w.project(mapped)).max() <= 1e-10 * max(1.0, np.abs(mapped).max())


def test_preimage_shape_mismatch():
    with pytest.raises(ValueError):
        preimage(np.zeros((3, 2)), Subspace(np.eye(2)))


# ---------------------------------------------------------------- eigen / schur

def test_spectral_radius_zero_and_diagonal():
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    assert spectral_radius(np.diag([0.5, -0.25])) == pytest.approx(0.5, abs=1e-14)


def test_spectral_radius_cyclic_permutation():
    perm = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert spectral_radius(perm) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(square(4))
def test_spectral_radius_below_sigma_max(m):
    assert spectral_radius(m) <= np.linalg.norm(m, 2) + 1e-9 * (1 + np.abs(m).max())


def test_schur_identity():
    x11, x21 = schur_block_inverse(np.eye(4), 2)
    assert_allclose(x11, np.eye(2), atol=1e-14)
    assert_allclose(x21, np.zeros((2, 2)), atol=1e-14)


def test_schur_two_by_two_by_hand():
    t = np.array([[2.0, 1.0], [1.0, 1.0]])
    x11, x21 = schur_block_inverse(t, 1)
    inv = np.linalg.inv(t)  # [[1, -1], [-1, 2]]
    assert_allclose(x11, inv[:1, :1], atol=1e-12)
    assert_allclose(x21, inv[1:, :1], atol=1e-12)


def test_schur_random_matches_direct_inverse(rng):
    t = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    x11, x21 = schur_block_inverse(t, 4)
    inv = np.linalg.inv(t)
    assert np.abs(x11 - inv[:4, :4]).max() <= 1e-10
    assert np.abs(x21 - inv[4:, :4]).max() <= 1e-10


def test_schur_singular_leading_block():
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        schur_block_inverse(t, 1)
