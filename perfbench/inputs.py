"""Seeded input generation for the benchmark workloads.

Every input is drawn here with numpy alone and written as a JSON document
in the package's documented file format, so a change to the package can
change neither the inputs nor the analytic facts recorded about them.
Each case keeps, next to its document path, the closed-form knowledge the
checks use: the normal of the output-nulling hyperplane, the known order
of the zero dynamics, and so on.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: siso-reduce: system order and systems per cycle.
SISO_N = 80
SISO_SYSTEMS = 16
#: Condition limit for the drawn boundary matrix ``K``.
SISO_COND_LIMIT = 1e6

#: ring-network: channels, relative degrees cycled through, and the
#: closed-loop run (about 2N traversals on 256 cells).
RING_N = 64
RING_DEGREES = (4, 8, 12, 16, 24)
RING_STEPS = 2 * RING_N
RING_GRID = 256

#: cli-export: speeds 1 and 1/16 split into 1 + 16 = 17 channels.
CLI_SLOW_DEN = 16
CLI_GRID = 1024
#: Traversals exported per call kind.  The CSV call exports a quarter of
#: the traversals of the JSON call, so the three call kinds have clearly
#: separated costs and the median latency sits inside one kind.
CLI_JSON_STEPS = 16
CLI_CSV_STEPS = 4


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _uniform_doc(k0, l0, ku, lu, ky, ly) -> dict:
    n = k0.shape[1]
    return {
        "n": n, "m": ku.shape[0], "travel_time": 1.0,
        "K0": k0.tolist(), "L0": l0.tolist(), "Ku": ku.tolist(),
        "Lu": lu.tolist(), "Ky": ky.tolist(), "Ly": ly.tolist(),
    }


def _hyperplane_basis(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the hyperplane ``normal . x = 0``."""
    _, _, vt = np.linalg.svd(normal.reshape(1, -1))
    return vt[1:].T


@dataclass(frozen=True)
class SisoCase:
    """Dense random SISO system whose output row lies in the row space of
    ``K0``; ``normal`` is ``Ly - c L0`` for ``Ky = c K0``, so the
    output-nulling set is the hyperplane ``normal . x = 0`` and the zero
    dynamics have order ``n - 1`` after exactly one elimination."""

    path: Path
    matrices: dict
    normal: np.ndarray
    vstar_basis: np.ndarray

    @property
    def n(self) -> int:
        return self.normal.size

    @property
    def expected_order(self) -> int:
        return self.n - 1


def siso_cases(seed: int, workdir: Path) -> list[SisoCase]:
    rng = np.random.default_rng([seed, 1])
    n = SISO_N
    cases = []
    for index in range(SISO_SYSTEMS):
        while True:
            k = rng.standard_normal((n, n))
            if np.linalg.cond(k) < SISO_COND_LIMIT:
                break
        l = rng.standard_normal((n, n))
        coeff = rng.standard_normal((1, n - 1))
        ky = coeff @ k[: n - 1]
        ly = rng.standard_normal((1, n))
        mats = {"K0": k[: n - 1], "L0": l[: n - 1], "Ku": k[n - 1 :],
                "Lu": l[n - 1 :], "Ky": ky, "Ly": ly}
        normal = (ly - coeff @ l[: n - 1]).ravel()
        basis = _hyperplane_basis(normal)
        path = _write(workdir / f"siso_{index:02d}.json", _uniform_doc(**{
            "k0": mats["K0"], "l0": mats["L0"], "ku": mats["Ku"],
            "lu": mats["Lu"], "ky": ky, "ly": ly}))
        cases.append(SisoCase(path, mats, normal, basis))
    return cases


@dataclass(frozen=True)
class RingCase:
    """Unidirectional ring ``z_i(0) = s_i z_{i-1}(1)`` with the input
    entering channel 0 and ``y = c z_{d-1}(1)``.  Its transfer function is
    ``c s_1...s_{d-1} w^d / (1 - s_0...s_{N-1} w^N)``; the output-nulling
    set is ``{x : x_0 = ... = x_{d-1} = 0}`` of dimension ``N - d``, and
    the zero dynamics shift signed copies of the profile along the ring,
    so no closed-loop state exceeds the largest initial value."""

    path: Path
    matrices: dict
    degree: int
    vstar_basis: np.ndarray
    z0: np.ndarray

    @property
    def n(self) -> int:
        return self.vstar_basis.shape[0]

    @property
    def expected_order(self) -> int:
        return self.n - self.degree


def ring_cases(seed: int, workdir: Path) -> list[RingCase]:
    rng = np.random.default_rng([seed, 2])
    n = RING_N
    cases = []
    for d in RING_DEGREES:
        signs = rng.choice([-1.0, 1.0], size=n)
        gain = float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
        k = np.zeros((n, n))
        l = np.zeros((n, n))
        # rows: constraints for channels 1..N-1, then the input row (channel 0)
        for row, i in enumerate(list(range(1, n)) + [0]):
            k[row, i] = 1.0
            l[row, i - 1] = -signs[i]
        ky = np.zeros((1, n))
        ly = np.zeros((1, n))
        ly[0, d - 1] = gain
        mats = {"K0": k[: n - 1], "L0": l[: n - 1], "Ku": k[n - 1 :],
                "Lu": l[n - 1 :], "Ky": ky, "Ly": ly}
        basis = np.eye(n)[:, d:]
        z0 = np.zeros((n, RING_GRID))
        z0[d:] = rng.uniform(-1.0, 1.0, size=(n - d, RING_GRID))
        path = _write(workdir / f"ring_d{d:02d}.json", _uniform_doc(
            k[: n - 1], l[: n - 1], k[n - 1 :], l[n - 1 :], ky, ly))
        cases.append(RingCase(path, mats, d, basis, z0))
    return cases


@dataclass(frozen=True)
class TwoSpeedCase:
    """Two-channel network with speeds 1 (channel a) and 1/16 (channel b),
    ``Ky = 0`` and ``y = ly_a a(1) + ly_b b(1)``.

    After splitting (channel a in slot 0, the 16 segments of b in slots
    1..16, outgoing segment first) the output-nulling set is the
    hyperplane ``ly_a x_0 + ly_b x_1 = 0``, so the zero dynamics have
    order 16 of 17.  ``z0_split`` is the initial profile in the split
    layout the CLI reads.
    """

    system_path: Path
    profile_path: Path
    K: np.ndarray
    L: np.ndarray
    Ky: np.ndarray
    Ly: np.ndarray
    z0_split: np.ndarray

    @property
    def split_n(self) -> int:
        return 1 + CLI_SLOW_DEN

    @property
    def nulling_normal(self) -> np.ndarray:
        normal = np.zeros(self.split_n)
        normal[0], normal[1] = self.Ly[0, 0], self.Ly[0, 1]
        return normal / np.linalg.norm(normal)


def two_speed_case(seed: int, workdir: Path) -> TwoSpeedCase:
    """Small-integer couplings chosen so ``K`` is invertible and the zero
    dynamics recurrence ``b_new = alpha s_1 + beta s_0`` has
    ``|alpha| + |beta| <= 2``, which keeps the exported traversals far
    from overflow."""
    rng = np.random.default_rng([seed, 3])
    r = CLI_SLOW_DEN
    while True:
        k = rng.integers(-2, 3, size=(2, 2)).astype(float)
        l = rng.integers(-2, 3, size=(2, 2)).astype(float)
        ly = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(1, 2))
        if abs(np.linalg.det(k)) < 0.5 or k[0, 1] == 0.0:
            continue
        c = ly[0, 1] / ly[0, 0]
        alpha = k[0, 0] * c / k[0, 1]
        beta = (l[0, 0] * c - l[0, 1]) / k[0, 1]
        if abs(alpha) + abs(beta) <= 2.0:
            break
    grid = CLI_GRID
    b_cells = rng.uniform(-1.0, 1.0, size=r * grid)
    # outgoing segment of b = the last `grid` cells of its physical profile
    a_cells = -(ly[0, 1] / ly[0, 0]) * b_cells[(r - 1) * grid :]
    split = np.empty((1 + r, grid))
    split[0] = a_cells
    for j in range(r):
        split[1 + j] = b_cells[(r - 1 - j) * grid : (r - j) * grid]
    sys_path = _write(workdir / "two_speed.json", {
        "n": 2, "m": 1,
        "speeds": [{"num": 1, "den": 1, "direction": -1},
                   {"num": 1, "den": r, "direction": -1}],
        "K": k.tolist(), "L": l.tolist(), "Ky": [[0.0, 0.0]], "Ly": ly.tolist(),
    })
    prof_path = _write(workdir / "two_speed_z0.json", {"z0": split.tolist()})
    return TwoSpeedCase(sys_path, prof_path, k, l, np.zeros((1, 2)), ly, split)
