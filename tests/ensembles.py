"""Seeded random-system generators for the property suites.

All generators take a ``numpy.random.Generator`` so that every ensemble
is reproducible from a single seed.  Systems are returned in the uniform
boundary form with travel time 1 unless stated otherwise.
"""

import numpy as np

from phzero import linalg
from phzero.model import PHSystem

#: Condition limit for the boundary matrix of generated systems.
GEN_COND_LIMIT = 1e6


def _well_conditioned(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    for _ in range(100):
        mat = rng.standard_normal((rows, cols))
        if linalg.cond2(mat) < GEN_COND_LIMIT:
            return mat
    raise RuntimeError("failed to draw a well-conditioned matrix")


def from_boundary(k, l, ky, ly, m: int, p: float = 1.0) -> PHSystem:
    """Assemble a PHSystem from full boundary matrices (rows ordered
    [constraints; inputs])."""
    k = np.atleast_2d(np.asarray(k, dtype=float))
    l = np.atleast_2d(np.asarray(l, dtype=float))
    n = k.shape[1]
    return PHSystem(
        p=p, K0=k[: n - m], L0=l[: n - m], Ku=k[n - m :], Lu=l[n - m :],
        Ky=np.atleast_2d(np.asarray(ky, dtype=float)),
        Ly=np.atleast_2d(np.asarray(ly, dtype=float)),
    )


def random_square_system(
    rng: np.random.Generator,
    n: int | None = None,
    m: int | None = None,
    singular_stack: bool = False,
) -> PHSystem:
    """Random well-posed system with as many inputs as outputs.

    With ``singular_stack`` the output rows are drawn inside the row space
    of ``K0``, which makes the stacked matrix ``[K0; Ky]`` exactly
    singular (the interesting branch of the feedthrough test).
    """
    if n is None:
        n = int(rng.integers(2, 7))
    if m is None:
        m = int(rng.integers(1, min(2, n - 1) + 1))
    k = _well_conditioned(rng, n, n)
    l = rng.standard_normal((n, n))
    if singular_stack:
        ky = rng.standard_normal((m, n - m)) @ k[: n - m]
    else:
        ky = rng.standard_normal((m, n))
    ly = rng.standard_normal((m, n))
    return from_boundary(k, l, ky, ly, m)


def random_siso_system(
    rng: np.random.Generator,
    n: int | None = None,
    reduction_depth: int = 1,
    sparse: bool = False,
) -> PHSystem:
    """Random well-posed SISO system whose zero dynamics need a reduction.

    ``reduction_depth`` > 0 plants the output row inside the row space of
    ``K0`` so the stacked matrix is singular; ``sparse`` draws small
    integer matrices, which is how coupled networks usually look and
    exercises exact rank deficiencies.
    """
    if n is None:
        n = int(rng.integers(2, 7))
    if sparse:
        for _ in range(200):
            k = rng.integers(-2, 3, size=(n, n)).astype(float)
            if linalg.cond2(k) < GEN_COND_LIMIT:
                break
        l = rng.integers(-2, 3, size=(n, n)).astype(float)
        mask = rng.random((n, n)) < 0.5
        l[mask] = 0.0
    else:
        k = _well_conditioned(rng, n, n)
        l = rng.standard_normal((n, n))
    if reduction_depth > 0:
        coeff = rng.standard_normal((1, n - 1))
        if sparse:
            coeff = rng.integers(-2, 3, size=(1, n - 1)).astype(float)
        ky = coeff @ k[: n - 1]
    else:
        ky = rng.standard_normal((1, n))
    ly = rng.standard_normal((1, n))
    if sparse:
        ly = rng.integers(-2, 3, size=(1, n)).astype(float)
    return from_boundary(k, l, ky, ly, 1)


def random_stable_system(
    rng: np.random.Generator, n: int | None = None, radius: float = 0.8
) -> tuple[PHSystem, float]:
    """Random system whose traversal map is normal with spectral radius
    exactly ``radius`` (so open-loop trajectories decay like
    ``radius**step``).  Returns the system and the radius."""
    if n is None:
        n = int(rng.integers(2, 7))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mags = rng.uniform(0.2, 1.0, size=n)
    mags[0] = 1.0
    eigs = mags * radius
    ad = q @ np.diag(eigs) @ q.T
    k = _well_conditioned(rng, n, n)
    l = -k @ ad
    ky = rng.standard_normal((1, n))
    ly = rng.standard_normal((1, n))
    return from_boundary(k, l, ky, ly, 1), radius


def random_nulling_profile(
    rng: np.random.Generator, basis: np.ndarray, grid_n: int
) -> np.ndarray:
    """Piecewise-constant profile with every cell in span(basis columns)."""
    n, dim = basis.shape
    if dim == 0:
        return np.zeros((n, grid_n))
    return basis @ rng.uniform(-1.0, 1.0, size=(dim, grid_n))
