"""Checks of program outputs against computations made apart from it.

Nothing here calls the package except :func:`certified_zeros`, which
certifies the independently computed zeros with the package's own
``is_transmission_zero`` test.  Each check returns a :class:`Verdict`;
``fault`` names the kept program fault a failed check belongs to (see
``KEPT_FAULTS``), or is ``None`` for a failure nobody expects, which makes
the whole run incorrect.
"""

import csv
import io
import json
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.linalg

#: Relative threshold separating finite from infinite generalized
#: eigenvalues (``|beta| <= tol * |(alpha, beta)|``) and zero roots.
EIG_TOL = 1e-9
#: Relative distance at which a reported root matches a reference root.
ROOT_TOL = 1e-6
#: Relative tolerance for spectral radii.
RADIUS_TOL = 1e-8
#: Closed-loop output bound relative to the largest state reached: about
#: 1e8 machine epsilons, room for the condition of the reduction's
#: transforms (``linalg.COND_LIMIT`` is 1e8) and no more.
FLOOR = 1e-8
#: Rank threshold for the zero pencil at random points.
RANK_TOL = 1e-10

#: The program faults this benchmark keeps in its workloads, counted as
#: failed calls without making the run incorrect.
KEPT_FAULTS = {
    "A": "scan_zeros reports an identically zero transfer function for a "
         "pencil of full normal rank (loose bound in analysis.pencil_roots)",
    "B": "reduce stops above the order of V* (near-singular Kw accepted as "
         "full rank on deep ring reductions)",
}


@dataclass(frozen=True)
class Verdict:
    name: str
    ok: bool
    detail: str = ""
    fault: str | None = None


def _verdict(name, ok, detail, fault=None):
    return Verdict(name, bool(ok), detail, None if ok else fault)


def stacks(m: dict) -> tuple[np.ndarray, np.ndarray]:
    """``[K0; Ky]`` and ``[L0; Ly]`` from a case's matrices."""
    return np.vstack([m["K0"], m["Ky"]]), np.vstack([m["L0"], m["Ly"]])


def finite_eig_count(m: dict) -> int:
    """Number of finite generalized eigenvalues of ``([L0;Ly], -[K0;Ky])``,
    which is the dimension of V* for a regular pencil."""
    ks, ls = stacks(m)
    alpha, beta = scipy.linalg.eig(ls, -ks, right=False, homogeneous_eigvals=True)
    size = np.hypot(np.abs(alpha), np.abs(beta))
    return int(np.count_nonzero(np.abs(beta) > EIG_TOL * size))


def reference_zeros(m: dict) -> np.ndarray:
    """Finite nonzero generalized eigenvalues ``w`` of
    ``([K0;Ky], -[L0;Ly])``: the roots of ``det([K0;Ky] + w [L0;Ly])``."""
    ks, ls = stacks(m)
    alpha, beta = scipy.linalg.eig(ks, -ls, right=False, homogeneous_eigvals=True)
    size = np.hypot(np.abs(alpha), np.abs(beta))
    keep = (np.abs(beta) > EIG_TOL * size) & (np.abs(alpha) > EIG_TOL * size)
    return alpha[keep] / beta[keep]


def certified_zeros(sys_, m: dict) -> tuple[np.ndarray, int]:
    """Reference zeros and how many of them ``is_transmission_zero``
    fails to certify."""
    from phzero import SingularMatrixError, is_transmission_zero

    zeros = reference_zeros(m)
    uncertified = 0
    for w in zeros:
        try:
            ok = is_transmission_zero(sys_, -np.log(w) / sys_.p)
        except SingularMatrixError:
            ok = False
        uncertified += not ok
    return zeros, uncertified


def pencil_full_rank(m: dict, rng: np.random.Generator, points: int = 3) -> bool:
    """True when ``[K0;Ky] + w [L0;Ly]`` is nonsingular at any of a few
    seeded random complex ``w``, i.e. the transfer function is not
    identically zero."""
    ks, ls = stacks(m)
    for _ in range(points):
        w = complex(*rng.uniform(-1.0, 1.0, size=2))
        sv = np.linalg.svd(ks + w * ls, compute_uv=False)
        if sv[-1] > RANK_TOL * sv[0]:
            return True
    return False


def spectral_radius(m: dict) -> float:
    k = np.vstack([m["K0"], m["Ku"]])
    l = np.vstack([m["L0"], m["Lu"]])
    return float(np.abs(np.linalg.eigvals(-np.linalg.solve(k, l))).max())


def _in_span(vectors: np.ndarray, basis: np.ndarray) -> float:
    """Largest residual of the columns of ``vectors`` off span(basis)."""
    if vectors.size == 0:
        return 0.0
    return float(np.abs(vectors - basis @ (basis.T @ vectors)).max())


# -- in-process checks -------------------------------------------------------

def check_load(sys_, m: dict) -> Verdict:
    same = all(np.array_equal(getattr(sys_, name), m[name]) for name in m)
    return _verdict("load", same, "loaded matrices differ from the generated ones")


def check_well_posed(verdict: bool, m: dict) -> Verdict:
    k = np.vstack([m["K0"], m["Ku"]])
    expected = np.linalg.matrix_rank(k) == k.shape[0]
    return _verdict("well_posed", verdict == expected,
                    f"verdict {verdict}, numpy rank says {expected}")


def check_stability(stable: bool, radius: float, ref: float) -> Verdict:
    """``ref`` is :func:`spectral_radius` of the same system."""
    close = abs(radius - ref) <= RADIUS_TOL * max(1.0, ref)
    verdict_ok = stable == (ref < 1.0 - 1e-6) or abs(ref - 1.0) <= 1e-6
    return _verdict("stability", close and verdict_ok,
                    f"radius {radius!r} vs numpy {ref!r}, stable={stable}")


def check_reduce(res, ref: int, basis: np.ndarray, expected: int) -> Verdict:
    """Order against the QZ count ``ref`` (:func:`finite_eig_count`) and
    the known order, dimension accounting, and constraint rows
    annihilating the known V* basis."""
    n = basis.shape[0]
    problems = []
    if res.k != ref:
        problems.append(f"k={res.k} but QZ finds {ref} finite eigenvalues")
    if res.k != expected:
        problems.append(f"k={res.k} but the structure gives {expected}")
    if res.k + res.constraints.shape[0] != n:
        problems.append("k + constraint rows != n")
    residual = 0.0
    if res.constraints.size and basis.size:
        residual = float(np.abs(res.constraints @ basis).max())
    if residual > FLOOR:
        problems.append(f"constraints leave V* residual {residual:.2e}")
    fault = "B" if res.k > ref else None
    return _verdict("reduce", not problems, "; ".join(problems), fault)


def check_vstar(v, ref: int, basis: np.ndarray, expected: int) -> Verdict:
    problems = []
    if v.dim != ref:
        problems.append(f"dim={v.dim} but QZ finds {ref}")
    if v.dim != expected:
        problems.append(f"dim={v.dim} but the structure gives {expected}")
    off = _in_span(v.basis, basis)
    if off > FLOOR:
        problems.append(f"basis leaves the known V* by {off:.2e}")
    return _verdict("vstar", not problems, "; ".join(problems))


def check_zeros(scan, m: dict, rng: np.random.Generator, reference) -> Verdict:
    """``reference`` is the ``(zeros, uncertified)`` pair from
    :func:`certified_zeros`."""
    zeros, uncertified = reference
    if uncertified:
        return _verdict("zeros", False, f"{uncertified} QZ zeros not certified")
    if scan.identically_zero:
        regular = pencil_full_rank(m, rng)
        return _verdict("zeros", not regular,
                        f"reported identically zero; the pencil has full rank "
                        f"at random w and QZ finds {zeros.size} zeros", "A")
    return _verdict("zeros", *match_roots(np.asarray(scan.w_roots, dtype=complex), zeros))


def match_roots(found: np.ndarray, ref: np.ndarray) -> tuple[bool, str]:
    if found.size != ref.size:
        return False, f"{found.size} roots reported, {ref.size} expected"
    left = list(ref)
    for w in found:
        dist = [abs(w - r) for r in left]
        best = int(np.argmin(dist))
        if dist[best] > ROOT_TOL * (1.0 + abs(w)):
            return False, f"root {w} has no reference within tolerance"
        left.pop(best)
    return True, ""


def check_closed_loop(name: str, traj, z0: np.ndarray) -> Verdict:
    """Output at the rounding floor relative to the largest state reached,
    and no state above the largest initial value: the zero dynamics of the
    benchmark's rings move signed copies of the profile."""
    x_max = float(np.abs(traj.states).max())
    y_max = traj.max_output()
    problems = []
    if not (np.isfinite(x_max) and np.isfinite(y_max)):
        problems.append("non-finite trajectory")
    elif y_max > FLOOR * max(1.0, x_max):
        problems.append(f"max|y| {y_max:.2e} above floor for max|x| {x_max:.2e}")
    if not x_max <= (1.0 + FLOOR) * float(np.abs(z0).max()):
        problems.append(f"state grew to {x_max:.2e}")
    return _verdict(name, not problems, "; ".join(problems))


# -- cli-export checks -------------------------------------------------------

def _channel_cells(state: np.ndarray) -> list[np.ndarray]:
    """Traveling state of the split network -> per original channel, the
    physical profile on ``r_i * grid`` cells (segment ``j`` of the slow
    channel covers its cells ``[(r-1-j) grid, (r-j) grid)``)."""
    phys = state[:, ::-1]
    return [phys[0], np.concatenate(phys[:0:-1])]


def delay_line_traversal(case, cells: list, inputs: np.ndarray):
    """One traversal of the unsplit two-speed network, simulated as exact
    delay lines and driven by ``inputs`` (one value per cell step, in time
    order).  Returns the outputs and the channel profiles afterwards;
    never forms the split system."""
    k, l, ky, ly = case.K, case.L, case.Ky, case.Ly
    buffers = [deque(np.asarray(c, dtype=float)[::-1]) for c in cells]
    lu = scipy.linalg.lu_factor(k)
    ys = np.empty(inputs.size)
    for t, u in enumerate(inputs):
        outflow = np.array([buf[0] for buf in buffers])
        inflow = scipy.linalg.lu_solve(lu, np.array([0.0, u]) - l @ outflow)
        ys[t] = (ky @ inflow + ly @ outflow)[0]
        for buf, value in zip(buffers, inflow):
            buf.popleft()
            buf.append(value)
    return ys, [np.array(buf)[::-1] for buf in buffers]


def check_json_export(case, text: str) -> tuple[Verdict, dict]:
    """Exported trajectory: it starts from the supplied profile, and
    traversal by traversal the exported inputs drive the unsplit
    delay-line network from the exported state to the exported outputs
    and the next exported state.  Restarting from the exported state each
    traversal keeps the open loop's amplification of rounding error to
    one traversal.  The outputs are not held to the floor here: on some
    couplings the program lets them drift off it (see README)."""
    doc = json.loads(text)
    traj = doc["trajectory"]
    states = np.asarray(traj["states"], dtype=float)
    inputs = np.asarray(traj["inputs"], dtype=float)
    outputs = np.asarray(traj["outputs"], dtype=float)
    x_max = float(np.abs(states).max())
    tol = FLOOR * max(1.0, x_max)
    problems = []
    if not np.array_equal(states[0], case.z0_split[:, ::-1]):
        problems.append("initial state is not the supplied profile")
    for step in range(inputs.shape[0]):
        ys, cells = delay_line_traversal(case, _channel_cells(states[step]),
                                         inputs[step, 0])
        gap_y = float(np.abs(ys - outputs[step, 0]).max())
        expected = _channel_cells(states[step + 1])
        gap_x = max(float(np.abs(c - e).max()) for c, e in zip(cells, expected))
        if gap_y > tol or gap_x > tol:
            problems.append(f"traversal {step}: delay-line outputs differ by {gap_y:.2e}, "
                            f"states by {gap_x:.2e}")
            break
    arrays = {"state": states, "input": inputs, "output": outputs}
    return _verdict("simulate_json", not problems, "; ".join(problems)), arrays


def check_csv_export(text: str, arrays: dict | None) -> Verdict:
    """Every CSV value equals the JSON export's value at the same
    (kind, step, cell, channel); the CSV covers a prefix of the steps."""
    if arrays is None:
        return _verdict("simulate_csv", False, "no verified JSON export to compare with")
    reader = csv.reader(io.StringIO(text))
    if next(reader) != ["kind", "step", "cell", "channel", "value"]:
        return _verdict("simulate_csv", False, "unexpected CSV header")
    seen = dict.fromkeys(arrays, 0)
    for kind, step, cell, channel, value in reader:
        if arrays[kind][int(step), int(channel), int(cell)] != float(value):
            return _verdict("simulate_csv", False,
                            f"{kind} step {step} cell {cell} channel {channel} differs")
        seen[kind] += 1
    steps = seen["input"] // arrays["input"][0].size
    expected = {kind: (steps + (kind == "state")) * arrays[kind][0].size for kind in arrays}
    return _verdict("simulate_csv", steps > 0 and seen == expected,
                    f"row counts {seen} do not cover {steps} whole steps")


def check_zerodyn_report(case, text: str) -> Verdict:
    """Order n - 1 and the single constraint row along the normal of the
    known nulling hyperplane."""
    result = json.loads(text)["findings"]["result"]
    problems = []
    if result["k"] != case.split_n - 1:
        problems.append(f"k={result['k']}, expected {case.split_n - 1}")
    rows = np.asarray(result["constraints"], dtype=float).reshape(-1, case.split_n)
    normal = case.nulling_normal
    if rows.shape[0] != 1 or min(np.abs(rows[0] - normal).max(),
                                 np.abs(rows[0] + normal).max()) > FLOOR:
        problems.append("constraint row is not the nulling hyperplane's normal")
    return _verdict("zerodyn", not problems, "; ".join(problems))
