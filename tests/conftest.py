import os
from pathlib import Path

import numpy as np
import pytest

from phzero import MultiSpeedSystem, PHSystem, RationalSpeed

from ensembles import random_siso_system

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

GLOBAL_SEED = int(os.environ.get("PHZERO_SEED", 20240901))


def build_two_speed() -> MultiSpeedSystem:
    return MultiSpeedSystem(
        speeds=(RationalSpeed(1, 1, -1), RationalSpeed(1, 2, -1)),
        K=[[1, 1], [0, 1]], L=[[1, 0], [0, 0]],
        Ky=[[0, 0]], Ly=[[1, 1]], m=1,
    )


def build_split() -> PHSystem:
    return PHSystem(
        p=1.0,
        K0=[[1, 0, 1], [0, 1, 0]], L0=[[1, 0, 0], [0, 0, -1]],
        Ku=[[0, 0, 1]], Lu=[[0, 0, 0]],
        Ky=[[0, 0, 0]], Ly=[[1, 1, 0]],
    )


def build_ring() -> PHSystem:
    return PHSystem(
        p=1.0,
        K0=[[0, 0, -1], [-1, 0, 0]], L0=[[1, 0, 0], [0, 1, 0]],
        Ku=[[0, -1, 0]], Lu=[[0, 0, 1]],
        Ky=[[0, 0, 0]], Ly=[[1, 0, 0]],
    )


def build_sparse_ten() -> PHSystem:
    k0 = np.zeros((9, 10))
    for i, j, v in [
        (1, 2, 1), (1, 9, -3), (2, 3, 1), (2, 2, -1), (3, 6, 1), (3, 10, 2),
        (4, 1, -5), (4, 6, 2), (5, 10, 6), (5, 9, -4), (6, 8, 4), (6, 1, -2),
        (7, 6, 1), (7, 7, 3), (8, 3, -2), (8, 8, 1), (8, 5, -5),
        (9, 1, 1), (9, 6, 5), (9, 9, -1),
    ]:
        k0[i - 1, j - 1] = v
    ku = np.zeros((1, 10))
    ku[0, 3] = 1.0
    ly = np.zeros((1, 10))
    ly[0, 1] = 1.0
    ly[0, 3] = -2.0
    return PHSystem(p=1.0, K0=k0, L0=np.zeros((9, 10)), Ku=ku,
                    Lu=np.zeros((1, 10)), Ky=np.zeros((1, 10)), Ly=ly)


def criterion_6_ensemble():
    """The 200 seeded SISO systems of acceptance criterion 6: every tenth
    has a zero output map (an identically zero transfer function), the
    rest alternate dense/sparse and full/singular ``[K0; Ky]``."""
    rng = np.random.default_rng(GLOBAL_SEED + 6)
    for i in range(200):
        if i % 10 == 9:
            n = int(rng.integers(2, 7))
            sysr = random_siso_system(rng, n=n, reduction_depth=0)
            yield PHSystem(p=1.0, K0=sysr.K0, L0=sysr.L0, Ku=sysr.Ku, Lu=sysr.Lu,
                           Ky=np.zeros((1, n)), Ly=np.zeros((1, n)))
        else:
            yield random_siso_system(rng, reduction_depth=i % 2, sparse=bool(i % 3 == 0))


@pytest.fixture
def two_speed():
    return build_two_speed()


@pytest.fixture
def split_sys():
    return build_split()


@pytest.fixture
def ring_sys():
    return build_ring()


@pytest.fixture
def sparse_ten():
    return build_sparse_ten()


@pytest.fixture
def rng():
    return np.random.default_rng(GLOBAL_SEED)


@pytest.fixture
def corpus_dir():
    return CORPUS_DIR
