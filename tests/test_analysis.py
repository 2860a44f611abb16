import numpy as np
import pytest
from numpy.testing import assert_allclose

from phzero import (
    PHSystem,
    SingularMatrixError,
    UnsupportedSystemError,
    check_well_posed,
    discrete_reduce,
    feedthrough,
    is_exponentially_stable,
    is_transmission_zero,
    scan_zeros,
    simulate,
    transfer_eval,
)
from phzero.analysis import pencil_roots, transfer_eval_resolvent
from phzero.ensembles import random_square_system

PHI = (1 + np.sqrt(5)) / 2


def split_transfer(z: complex) -> complex:
    """Resolvent of the split three-channel system, eliminated by hand."""
    return (-z**2 + z + 1) / (z**2 * (z + 1))


# ------------------------------------------------------------ well-posedness

def test_well_posed_ring(ring_sys):
    assert check_well_posed(ring_sys)


def test_well_posed_two_by_two():
    sys2 = PHSystem(p=1.0, K0=[[1.0, 0.0]], L0=[[0.0, 0.0]],
                    Ku=[[0.0, 1.0]], Lu=[[0.0, 0.0]],
                    Ky=[[1.0, 0.0]], Ly=[[0.0, 0.0]])
    assert check_well_posed(sys2)


def test_ill_posed_duplicate_row(split_sys):
    bad = PHSystem(p=1.0, K0=split_sys.K0, L0=split_sys.L0,
                   Ku=split_sys.K0[:1], Lu=split_sys.L0[:1],
                   Ky=split_sys.Ky, Ly=split_sys.Ly)
    assert not check_well_posed(bad)


# ------------------------------------------------------------ feedthrough

def test_feedthrough_zero_output_row(split_sys):
    assert_allclose(feedthrough(split_sys), [[0.0]], atol=0)


def test_feedthrough_scalar():
    sys1 = PHSystem(p=1.0, K0=np.zeros((0, 1)), L0=np.zeros((0, 1)),
                    Ku=[[1.0]], Lu=[[0.0]], Ky=[[3.5]], Ly=[[2.0]])
    assert feedthrough(sys1)[0, 0] == 3.5


def test_feedthrough_is_high_frequency_limit(rng):
    for _ in range(5):
        sysr = random_square_system(rng, n=5, m=2)
        e = feedthrough(sysr)
        lim = transfer_eval(sysr, 40.0 / sysr.p).value
        assert np.abs(e - lim).max() <= 1e-8 * max(1.0, np.abs(e).max())


def test_feedthrough_equals_dd(split_sys, ring_sys, sparse_ten):
    for sysx in (split_sys, ring_sys, sparse_ten):
        assert np.array_equal(feedthrough(sysx), discrete_reduce(sysx).Dd)


# ------------------------------------------------------------ discretization

def test_quadruple_split_golden(split_sys):
    d = discrete_reduce(split_sys)
    assert_allclose(d.Ad, [[-1, 0, 0], [0, 0, 1], [0, 0, 0]], atol=1e-14)
    assert_allclose(d.Bd, [[-1], [0], [1]], atol=1e-14)
    assert_allclose(d.Cd, [[1, 1, 0]], atol=1e-14)
    assert_allclose(d.Dd, [[0]], atol=1e-14)


def test_quadruple_ring_golden(ring_sys):
    d = discrete_reduce(ring_sys)
    assert_allclose(d.Ad, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], atol=1e-14)
    assert_allclose(d.Bd, [[0], [-1], [0]], atol=1e-14)
    assert_allclose(d.Cd, [[1, 0, 0]], atol=1e-14)


def test_quadruple_residuals_random(rng):
    for _ in range(20):
        sysr = random_square_system(rng)
        d = discrete_reduce(sysr)
        k, l = sysr.K, sysr.L
        scale = max(1.0, np.linalg.norm(k, 2) * max(np.linalg.norm(d.Ad, 2), 1.0))
        assert np.linalg.norm(k @ d.Ad + l, 2) <= 1e-12 * scale
        rhs = np.zeros_like(d.Bd)
        rhs[sysr.n - sysr.m:] = np.eye(sysr.m)
        assert np.linalg.norm(k @ d.Bd - rhs, 2) <= 1e-12 * scale


def test_zero_l_reaches_zero_in_one_traversal(rng):
    sysz = PHSystem(p=1.0, K0=[[1.0, 0.0]], L0=np.zeros((1, 2)),
                    Ku=[[0.0, 1.0]], Lu=np.zeros((1, 2)),
                    Ky=[[1.0, 1.0]], Ly=np.zeros((1, 2)))
    d = discrete_reduce(sysz)
    assert np.abs(d.Ad).max() == 0.0
    tr = simulate(sysz, rng.uniform(-1, 1, (2, 8)), None, steps=3)
    assert np.abs(tr.states[1:]).max() == 0.0


# ------------------------------------------------------------ stability

def test_stability_zero_l():
    sysz = PHSystem(p=1.0, K0=[[1.0, 0.0]], L0=np.zeros((1, 2)),
                    Ku=[[0.0, 1.0]], Lu=np.zeros((1, 2)),
                    Ky=[[1.0, 0.0]], Ly=np.zeros((1, 2)))
    stable, r = is_exponentially_stable(sysz)
    assert stable and r == 0.0


def test_stability_ring_marginal(ring_sys):
    stable, r = is_exponentially_stable(ring_sys)
    assert not stable
    assert abs(r - 1.0) <= 1e-12


def test_stability_ring_halved(ring_sys):
    # scaling the outgoing-trace matrix by 1/2 scales the traversal map by
    # 1/2, so the spectral radius of the scaled cyclic permutation is 1/2
    halved = PHSystem(p=1.0, K0=ring_sys.K0, L0=ring_sys.L0 / 2,
                      Ku=ring_sys.Ku, Lu=ring_sys.Lu / 2,
                      Ky=ring_sys.Ky, Ly=ring_sys.Ly)
    stable, r = is_exponentially_stable(halved)
    assert stable
    assert abs(r - 0.5) <= 1e-10


# ------------------------------------------------------------ transfer function

def test_transfer_split_golden(split_sys):
    for s in (0.3 + 0.4j, 1.0 + 0.0j, -0.2 + 2.1j, 0.05 - 1.3j):
        value = transfer_eval(split_sys, s).value[0, 0]
        gold = split_transfer(np.exp(s * split_sys.p))
        assert abs(value - gold) <= 1e-12 * max(1.0, abs(gold))


def test_transfer_matches_resolvent_route(split_sys, ring_sys, sparse_ten, rng):
    for sysx in (split_sys, ring_sys, sparse_ten):
        d = discrete_reduce(sysx)
        checked = 0
        while checked < 100:
            s = complex(rng.uniform(-1, 1), rng.uniform(-np.pi, np.pi) / sysx.p)
            try:
                a = transfer_eval(sysx, s).value
            except SingularMatrixError:
                continue
            b = transfer_eval_resolvent(d, s)
            scale = max(np.abs(a).max(), 1e-30)
            assert np.abs(a - b).max() / scale < 1e-10
            checked += 1


def test_transfer_pole_detected(ring_sys):
    # e^{s p} a cube root of unity makes the boundary pencil singular
    with pytest.raises(SingularMatrixError):
        transfer_eval(ring_sys, 0.0)


# ------------------------------------------------------------ zeros

def test_transmission_zero_golden_point(split_sys):
    assert is_transmission_zero(split_sys, np.log(PHI) / split_sys.p)
    assert not is_transmission_zero(split_sys, 0.0)


def test_transmission_zero_identically_zero_output():
    sysz = PHSystem(p=1.0, K0=[[1.0, 0.0]], L0=[[0.0, 0.5]],
                    Ku=[[0.0, 1.0]], Lu=[[0.0, 0.0]],
                    Ky=np.zeros((1, 2)), Ly=np.zeros((1, 2)))
    for s in (0.0, 1.0, 0.5 + 2.0j):
        assert is_transmission_zero(sysz, s)
    assert scan_zeros(sysz).identically_zero


def test_scan_zeros_split(split_sys):
    scan = scan_zeros(split_sys)
    assert not scan.identically_zero
    roots = sorted(z.real for z in scan.w_roots)
    assert_allclose(roots, [(-1 - np.sqrt(5)) / 2, (-1 + np.sqrt(5)) / 2], atol=1e-9)
    assert max(abs(z.imag) for z in scan.w_roots) <= 1e-9
    positive = [s for s in scan.s_values if s.real > 0]
    assert len(positive) == 1
    assert abs(positive[0] - np.log(PHI)) <= 1e-9


def test_scan_zeros_ring_none(ring_sys):
    scan = scan_zeros(ring_sys)
    assert not scan.identically_zero
    assert scan.w_roots == ()


def test_scan_zeros_agrees_with_singularity_test(split_sys):
    scan = scan_zeros(split_sys)
    for s in scan.s_values:
        assert is_transmission_zero(split_sys, s)
        g = transfer_eval(split_sys, s).value
        assert np.abs(g).max() <= 1e-8


def test_scan_zeros_requires_siso(rng):
    with pytest.raises(UnsupportedSystemError):
        scan_zeros(random_square_system(rng, n=4, m=2))


def test_pencil_roots_multiplicity_and_dropped_eigenvalues():
    # det(K + L w) = (1 - w)^2 w: the double root is listed twice, the root
    # at w = 0 and the infinite eigenvalue of the last block are dropped
    kmat = np.diag([1.0, 1.0, 0.0, 1.0])
    lmat = np.diag([-1.0, -1.0, 1.0, 0.0])
    kmat[0, 1] = 1.0
    roots, vanishes = pencil_roots(kmat, lmat)
    assert not vanishes
    assert_allclose(roots, [1.0, 1.0], atol=1e-9)


# ------------------------------------------------------------ feedthrough <-> stack

def feedthrough_invertible(sysr, tol=1e-8):
    """sigma_min of E against the scale of the defining product, so an
    identically-zero E classifies as singular."""
    e = feedthrough(sysr)
    d = discrete_reduce(sysr)
    anchor = max(
        np.linalg.norm(e, 2),
        np.linalg.norm(sysr.Ky, 2) * np.linalg.norm(d.Bd, 2),
        1e-300,
    )
    return np.linalg.svd(e, compute_uv=False)[-1] > tol * anchor


def stack_invertible(sysr, tol=1e-8):
    stacked = np.vstack([sysr.K0, sysr.Ky])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return sv[-1] > tol * max(sv[0], 1e-300)


def test_feedthrough_invertibility_matches_stack(rng):
    # invertibility of E and of [K0; Ky] always agree (small seeded sample;
    # the thousand-system suite lives in the acceptance module)
    for i in range(50):
        sysr = random_square_system(rng, singular_stack=bool(i % 2))
        assert feedthrough_invertible(sysr) == stack_invertible(sysr)
