import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phzero import (
    MultiSpeedSystem,
    RationalSpeed,
    RawConstantSystem,
    UnsupportedSystemError,
    check_well_posed,
    diagonalize_constant,
    reflect_positive,
    simulate,
    split_commensurate,
)
from phzero.canonicalize import common_travel_time, split_initial_profile

from oracles import multispeed_output, reflect_profile


# ---------------------------------------------------------------- diagonalize

def test_diagonalize_swap_coupling():
    raw = RawConstantSystem(P1=[[0.0, 1], [1, 0]], H=np.eye(2),
                            WB1=[[1.0, 0, 0, 0]], WB2=[[0.0, 0, 0, 1]],
                            WC=[[0.0, 1, 0, 0]])
    diag, ms = diagonalize_constant(raw)
    assert_allclose(np.diag(diag.Delta), [1.0, -1.0], atol=1e-12)
    # rows proportional to the characteristic combinations (x1 +- x2)/sqrt(2)
    for row, expect in zip(diag.S, np.array([[1.0, 1.0], [1.0, -1.0]])):
        scaled = row / row[np.argmax(np.abs(row))]
        assert_allclose(np.abs(scaled), np.abs(expect / expect[0]), atol=1e-12)
    assert [s.direction for s in ms.speeds] == [1, -1]
    assert all((s.num, s.den) == (1, 1) for s in ms.speeds)


def test_diagonalize_already_diagonal():
    raw = RawConstantSystem(P1=np.diag([1.0, -1.0]), H=np.eye(2),
                            WB1=[[1.0, 0, 0, 0]], WB2=[[0.0, 0, 0, 1]],
                            WC=[[0.0, 1, 0, 0]])
    diag, _ = diagonalize_constant(raw)
    assert_allclose(np.abs(diag.S), np.eye(2), atol=1e-12)
    assert diag.k_pos == 1 and diag.l_neg == 1


def test_diagonalize_random_residual(rng):
    a = rng.standard_normal((4, 4))
    p1 = (a + a.T) / 2 + np.diag([2.0, 1.0, -1.0, -2.0])
    b = rng.standard_normal((4, 4))
    h = b @ b.T + 4 * np.eye(4)
    raw = RawConstantSystem(P1=p1, H=h, WB1=rng.standard_normal((3, 8)),
                            WB2=rng.standard_normal((1, 8)),
                            WC=rng.standard_normal((1, 8)))
    diag, _ = diagonalize_constant(raw)
    prod = p1 @ h
    resid = np.linalg.norm(diag.S @ prod - diag.Delta @ diag.S, 2)
    assert resid <= 1e-10 * np.linalg.norm(prod, 2)


def test_diagonalize_rejects_nonsymmetric():
    raw = RawConstantSystem(P1=[[0.0, 1], [2, 0]], H=np.eye(2),
                            WB1=[[1.0, 0, 0, 0]], WB2=[[0.0, 0, 0, 1]],
                            WC=[[0.0, 1, 0, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        diagonalize_constant(raw)


def test_diagonalize_rejects_indefinite_h():
    raw = RawConstantSystem(P1=[[0.0, 1], [1, 0]], H=np.diag([1.0, -1.0]),
                            WB1=[[1.0, 0, 0, 0]], WB2=[[0.0, 0, 0, 1]],
                            WC=[[0.0, 1, 0, 0]])
    with pytest.raises(ValueError, match="positive definite"):
        diagonalize_constant(raw)


# ---------------------------------------------------------------- reflect

def test_reflect_noop_when_all_leftward(two_speed):
    assert reflect_positive(two_speed) is two_speed


def test_reflect_single_channel_swaps_columns():
    ms = MultiSpeedSystem(speeds=(RationalSpeed(1, 1, 1),),
                          K=[[1.0]], L=[[0.0]], Ky=[[2.0]], Ly=[[3.0]], m=1)
    ref = reflect_positive(ms)
    assert ref.speeds[0].direction == -1
    assert ref.K[0, 0] == 0.0 and ref.L[0, 0] == 1.0
    assert ref.Ky[0, 0] == 3.0 and ref.Ly[0, 0] == 2.0


def test_reflect_preserves_io(rng):
    ms = MultiSpeedSystem(
        speeds=(RationalSpeed(1, 1, 1), RationalSpeed(1, 2, -1)),
        K=[[1.0, 1.0], [0.3, 1.0]], L=[[1.0, 0.0], [0.0, 0.7]],
        Ky=[[0.2, 0.0]], Ly=[[1.0, 1.0]], m=1,
    )
    grid = 4
    z0 = [rng.uniform(-1, 1, 1 * grid), rng.uniform(-1, 1, 2 * grid)]
    u = rng.uniform(-1, 1, (6 * grid, 1))
    y_orig = multispeed_output(ms, z0, u, grid)
    ref = reflect_positive(ms)
    y_ref = multispeed_output(ref, reflect_profile(ms, z0), u, grid)
    assert np.abs(y_orig - y_ref).max() <= 1e-12


# ---------------------------------------------------------------- split

def test_split_two_speed_golden(two_speed):
    split = split_commensurate(two_speed)
    assert split.p == 1.0 and split.n == 3
    assert np.array_equal(split.K, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert np.array_equal(split.L, [[1, 0, 0], [0, 0, -1], [0, 0, 0]])
    assert np.array_equal(split.Ky, [[0, 0, 0]])
    assert np.array_equal(split.Ly, [[1, 1, 0]])


def test_split_uniform_is_identity_shape(two_speed):
    ms = MultiSpeedSystem(speeds=(RationalSpeed(1, 2, -1), RationalSpeed(1, 2, -1)),
                          K=two_speed.K, L=two_speed.L, Ky=two_speed.Ky,
                          Ly=two_speed.Ly, m=1)
    split = split_commensurate(ms)
    assert split.n == 2 and split.p == 2.0
    assert np.array_equal(split.K, ms.K)
    assert np.array_equal(split.L, ms.L)


def test_split_one_and_one_third():
    ms = MultiSpeedSystem(speeds=(RationalSpeed(1, 1, -1), RationalSpeed(1, 3, -1)),
                          K=[[1.0, 1.0], [0.0, 1.0]], L=[[1.0, 0.0], [0.0, 0.0]],
                          Ky=[[0.0, 0.0]], Ly=[[1.0, 1.0]], m=1)
    split = split_commensurate(ms)
    assert split.n == 4 and split.p == 1.0


def test_split_requires_leftward():
    ms = MultiSpeedSystem(speeds=(RationalSpeed(1, 1, 1),), K=[[1.0]], L=[[0.0]],
                          Ky=[[1.0]], Ly=[[0.0]], m=1)
    with pytest.raises(UnsupportedSystemError, match="reflect_positive"):
        split_commensurate(ms)


def test_split_preserves_well_posedness(two_speed):
    assert check_well_posed(split_commensurate(two_speed))


@pytest.mark.parametrize("speeds", [
    (RationalSpeed(1, 1, -1), RationalSpeed(1, 2, -1)),
    (RationalSpeed(1, 1, -1), RationalSpeed(1, 3, -1)),
    (RationalSpeed(2, 1, -1), RationalSpeed(3, 1, -1)),
])
def test_split_preserves_io(rng, speeds):
    n = len(speeds)
    for _ in range(50):
        k = rng.uniform(-1, 1, (n, n))
        if np.linalg.cond(k) < 1e6:
            break
    ms = MultiSpeedSystem(speeds=speeds, K=k, L=rng.uniform(-1, 1, (n, n)),
                          Ky=rng.uniform(-1, 1, (1, n)), Ly=rng.uniform(-1, 1, (1, n)), m=1)
    g = common_travel_time(ms.speeds)
    grid = 4
    traversals = 5
    z0 = [rng.uniform(-1, 1, int(s.travel_time / g) * grid) for s in ms.speeds]
    u = rng.uniform(-1, 1, (traversals * grid, 1))
    y_oracle = multispeed_output(ms, z0, u, grid)

    split = split_commensurate(ms)
    z0_split = split_initial_profile(ms.speeds, z0, g)
    u_blocks = u.reshape(traversals, grid, 1).transpose(0, 2, 1)
    tr = simulate(split, z0_split, u_blocks, steps=traversals)
    y_split = tr.outputs.transpose(0, 2, 1).reshape(-1, 1)
    assert np.abs(y_oracle - y_split).max() <= 1e-12


def test_common_travel_time_exact():
    speeds = (RationalSpeed(2, 1, -1), RationalSpeed(3, 1, -1))
    assert common_travel_time(speeds) * 6 == 1  # gcd(1/2, 1/3) = 1/6


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=5))
def test_common_travel_time_divides_every_channel(pairs):
    speeds = [RationalSpeed(num, den, -1) for num, den in pairs]
    g = common_travel_time(speeds)
    assert g > 0
    ratios = [s.travel_time / g for s in speeds]
    # g divides every travel time ...
    assert all(r.denominator == 1 for r in ratios)
    # ... and is the largest such: the segment counts have no common factor
    assert math.gcd(*(int(r) for r in ratios)) == 1 if len(ratios) > 1 else ratios[0] == 1
