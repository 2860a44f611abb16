"""System data model and the on-disk JSON schema.

Two system flavours exist:

* :class:`MultiSpeedSystem` -- a network of scalar transport channels with
  rational per-channel speeds and full ``K``/``L`` boundary matrices,
* :class:`PHSystem` -- the uniform-speed boundary form every analysis
  routine consumes, with the boundary rows split into constraint rows
  (``K0``/``L0``) and input rows (``Ku``/``Lu``).

The boundary convention is unweighted throughout::

    [0; u(t)] = K z(0, t) + L z(1, t),      K = [K0; Ku], L = [L0; Lu]
    y(t)      = Ky z(0, t) + Ly z(1, t)

i.e. the constant speed factors are absorbed into the matrices, which is
the form in which coupled-channel examples are usually written down.  The
trace ``z(0, t)`` is the incoming one (determined by the boundary
condition), ``z(1, t)`` the outgoing one.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import SchemaError

SCHEMA_VERSION = "2"


def _mat(a) -> np.ndarray:
    return np.atleast_2d(np.asarray(a, dtype=float))


@dataclass(frozen=True)
class RationalSpeed:
    """Transport speed ``direction * num/den`` of one channel.

    ``direction`` is the sign of the channel's diagonal coefficient in the
    first-order system: -1 channels obey ``z_t = -(num/den) z_zeta`` (the
    uniform-speed target form), +1 channels the reflected equation.
    """

    num: int
    den: int
    direction: int = -1

    def __post_init__(self):
        if self.num < 1 or self.den < 1:
            raise ValueError("num and den must be positive integers")
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        g = math.gcd(self.num, self.den)
        object.__setattr__(self, "num", self.num // g)
        object.__setattr__(self, "den", self.den // g)

    @property
    def magnitude(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def travel_time(self) -> Fraction:
        """Time for one traversal of the unit interval."""
        return Fraction(self.den, self.num)


@dataclass(frozen=True)
class MultiSpeedSystem:
    """Boundary-coupled channels with (possibly) different rational speeds.

    ``K`` and ``L`` are the full n-by-n boundary matrices with rows ordered
    [constraint rows; input rows]; the partition index is ``n - m``.
    """

    speeds: tuple
    K: np.ndarray
    L: np.ndarray
    Ky: np.ndarray
    Ly: np.ndarray
    m: int

    def __post_init__(self):
        object.__setattr__(self, "speeds", tuple(self.speeds))
        for name in ("K", "L", "Ky", "Ly"):
            object.__setattr__(self, name, _mat(getattr(self, name)))

    @property
    def n(self) -> int:
        return len(self.speeds)

    @property
    def K0(self) -> np.ndarray:
        return self.K[: self.n - self.m]

    @property
    def Ku(self) -> np.ndarray:
        return self.K[self.n - self.m :]

    @property
    def L0(self) -> np.ndarray:
        return self.L[: self.n - self.m]

    @property
    def Lu(self) -> np.ndarray:
        return self.L[self.n - self.m :]


@dataclass(frozen=True)
class PHSystem:
    """Uniform-speed boundary-form system with travel time ``p``."""

    p: float
    K0: np.ndarray
    L0: np.ndarray
    Ku: np.ndarray
    Lu: np.ndarray
    Ky: np.ndarray
    Ly: np.ndarray

    def __post_init__(self):
        for name in ("K0", "L0", "Ku", "Lu", "Ky", "Ly"):
            object.__setattr__(self, name, _mat(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.Ku.shape[1]

    @property
    def m(self) -> int:
        return self.Ku.shape[0]

    @property
    def K(self) -> np.ndarray:
        return np.vstack([self.K0, self.Ku])

    @property
    def L(self) -> np.ndarray:
        return np.vstack([self.L0, self.Lu])


@dataclass(frozen=True)
class RawConstantSystem:
    """First-order system ``x_t = P1 (H x)_zeta`` with boundary/output rows.

    ``WB1`` (constraints), ``WB2`` (inputs) and ``WC`` (outputs) act on the
    stacked traces ``[(H x)(1); (H x)(0)]``.
    """

    P1: np.ndarray
    H: np.ndarray
    WB1: np.ndarray
    WB2: np.ndarray
    WC: np.ndarray

    def __post_init__(self):
        for name in ("P1", "H", "WB1", "WB2", "WC"):
            object.__setattr__(self, name, _mat(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.P1.shape[0]


def validate(sys: PHSystem) -> list[str]:
    """Return a list of findings; an empty list means the system is usable.

    Checks shapes, finiteness and well-posedness (the latter delegated to
    :func:`phzero.analysis.check_well_posed`).  Never raises and never
    mutates ``sys``.
    """
    findings = []
    n = sys.n
    m = sys.m
    if not (np.isfinite(sys.p) and sys.p > 0):
        findings.append(f"travel time must be positive and finite, got {sys.p}")
    for name in ("K0", "L0", "Ku", "Lu", "Ky", "Ly"):
        mat = getattr(sys, name)
        if mat.size and not np.all(np.isfinite(mat)):
            findings.append(f"non-finite entries in {name}")
    if sys.K0.shape[0] != n - m or (n - m > 0 and sys.K0.shape[1] != n):
        findings.append(f"shape mismatch: K0 is {sys.K0.shape}, expected {(n - m, n)}")
    if sys.K0.shape != sys.L0.shape:
        findings.append(f"shape mismatch: L0 is {sys.L0.shape}, expected {sys.K0.shape}")
    for name in ("Lu", "Ky", "Ly"):
        mat = getattr(sys, name)
        if mat.shape != (m, n):
            findings.append(f"shape mismatch: {name} is {mat.shape}, expected {(m, n)}")
    if n < m or m < 1:
        findings.append(f"need 1 <= m <= n, got n={n}, m={m}")
    if not findings:
        from . import analysis  # deferred; analysis imports this module

        if not analysis.check_well_posed(sys):
            findings.append("K singular: boundary matrix [K0; Ku] does not have full rank")
    return findings


# ---------------------------------------------------------------------------
# JSON documents
#
# System file (UTF-8 JSON).  Exactly one of "travel_time" / "speeds":
#   uniform   {"n", "m", "travel_time", "K0", "L0", "Ku", "Lu", "Ky", "Ly"}
#   multirate {"n", "m", "speeds": [{"num", "den", "direction"}...],
#              "K", "L", "Ky", "Ly", "constraint_rows"?}
# Matrices are nested row-major lists of decimal numbers; a matrix with
# zero rows is written as [].  For multirate files the first n-m rows of
# K/L are constraint rows and the last m rows input rows; the optional
# "constraint_rows" field must equal n-m when present.
# ---------------------------------------------------------------------------


def _load_json(path) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level value must be an object")
    return doc


def _float_array(raw, name: str) -> np.ndarray:
    """``raw`` as a float array; non-numeric, ragged or non-finite data is
    a schema error."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"field '{name}': expected a matrix of numbers ({exc})") from exc
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"field '{name}': entries must be finite")
    return arr


def _field_matrix(doc: dict, name: str, rows: int, cols: int) -> np.ndarray:
    if name not in doc:
        raise SchemaError(f"missing field '{name}'")
    raw = doc[name]
    if not isinstance(raw, list):
        raise SchemaError(f"field '{name}': expected a list of rows")
    if rows == 0:
        if raw not in ([], [[]]):
            raise SchemaError(f"field '{name}': expected an empty matrix")
        return np.zeros((0, cols))
    arr = _float_array(raw, name)
    if arr.ndim != 2 or arr.shape != (rows, cols):
        raise SchemaError(
            f"field '{name}': expected a {rows}x{cols} matrix, got shape "
            f"{arr.shape if arr.ndim == 2 else raw!r}"
        )
    return arr


def _field_int(doc: dict, name: str) -> int:
    if name not in doc:
        raise SchemaError(f"missing field '{name}'")
    value = doc[name]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"field '{name}': expected an integer, got {value!r}")
    return value


def _matrix_doc(mat: np.ndarray):
    return mat.tolist()


def load_system(path):
    """Load a system document; returns PHSystem or MultiSpeedSystem."""
    doc = _load_json(path)
    n = _field_int(doc, "n")
    m = _field_int(doc, "m")
    if n < 1 or not 1 <= m <= n:
        raise SchemaError(f"need 1 <= m <= n, got n={n}, m={m}")
    has_p = "travel_time" in doc
    has_speeds = "speeds" in doc
    if has_p == has_speeds:
        raise SchemaError("exactly one of 'travel_time' or 'speeds' must be present")
    if has_p:
        p = doc["travel_time"]
        if not isinstance(p, (int, float)) or isinstance(p, bool) or not p > 0:
            raise SchemaError(f"field 'travel_time': expected a positive number, got {p!r}")
        return PHSystem(
            p=float(p),
            K0=_field_matrix(doc, "K0", n - m, n),
            L0=_field_matrix(doc, "L0", n - m, n),
            Ku=_field_matrix(doc, "Ku", m, n),
            Lu=_field_matrix(doc, "Lu", m, n),
            Ky=_field_matrix(doc, "Ky", m, n),
            Ly=_field_matrix(doc, "Ly", m, n),
        )
    raw_speeds = doc["speeds"]
    if not isinstance(raw_speeds, list) or len(raw_speeds) != n:
        raise SchemaError(f"field 'speeds': expected a list of {n} entries")
    speeds = []
    for i, entry in enumerate(raw_speeds):
        if not isinstance(entry, dict):
            raise SchemaError(f"field 'speeds[{i}]': expected an object")
        try:
            speeds.append(
                RationalSpeed(
                    num=_field_int(entry, "num"),
                    den=_field_int(entry, "den"),
                    direction=_field_int(entry, "direction"),
                )
            )
        except ValueError as exc:
            raise SchemaError(f"field 'speeds[{i}]': {exc}") from exc
    if "constraint_rows" in doc and _field_int(doc, "constraint_rows") != n - m:
        raise SchemaError(
            f"field 'constraint_rows': expected {n - m}, got {doc['constraint_rows']}"
        )
    return MultiSpeedSystem(
        speeds=tuple(speeds),
        K=_field_matrix(doc, "K", n, n),
        L=_field_matrix(doc, "L", n, n),
        Ky=_field_matrix(doc, "Ky", m, n),
        Ly=_field_matrix(doc, "Ly", m, n),
        m=m,
    )


def system_doc(sys) -> dict:
    """The JSON document (as a dict) for a system value."""
    if isinstance(sys, PHSystem):
        return {
            "n": sys.n,
            "m": sys.m,
            "travel_time": sys.p,
            "K0": _matrix_doc(sys.K0),
            "L0": _matrix_doc(sys.L0),
            "Ku": _matrix_doc(sys.Ku),
            "Lu": _matrix_doc(sys.Lu),
            "Ky": _matrix_doc(sys.Ky),
            "Ly": _matrix_doc(sys.Ly),
        }
    if isinstance(sys, MultiSpeedSystem):
        return {
            "n": sys.n,
            "m": sys.m,
            "speeds": [
                {"num": s.num, "den": s.den, "direction": s.direction}
                for s in sys.speeds
            ],
            "constraint_rows": sys.n - sys.m,
            "K": _matrix_doc(sys.K),
            "L": _matrix_doc(sys.L),
            "Ky": _matrix_doc(sys.Ky),
            "Ly": _matrix_doc(sys.Ly),
        }
    raise TypeError(f"cannot serialize {type(sys).__name__}")


def save_system(sys, path) -> None:
    Path(path).write_text(dumps(system_doc(sys)), encoding="utf-8")


def dumps(doc: dict, compact: bool = False) -> str:
    """Deterministic JSON encoding (sorted keys, trailing newline).

    The default indents by two spaces.  ``compact=True`` writes one line
    with no spaces and rejects NaN and infinities; it is the form for
    large documents, because CPython's ``json`` encodes it in C while any
    ``indent`` falls back to the pure-Python encoder.
    """
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def result_doc(res) -> dict:
    """JSON document for a reduction result (see phzero.zerodyn)."""
    return {
        "k": res.k,
        "p": res.p,
        "full_state": res.full_state,
        "Kw": _matrix_doc(res.Kw),
        "Lw": _matrix_doc(res.Lw),
        "constraints": _matrix_doc(res.constraints),
        "transform_chain": [m.tolist() for m in res.transform_chain],
        "Ku_tilde": _matrix_doc(res.Ku_tilde),
        "Lu_tilde": _matrix_doc(res.Lu_tilde),
        "deflation_residual": res.deflation_residual,
        "schema_version": SCHEMA_VERSION,
    }


def save_result(res, path) -> None:
    Path(path).write_text(dumps(result_doc(res)), encoding="utf-8")


def load_result(path):
    from .zerodyn import ZeroDynamicsResult  # deferred; zerodyn imports this module

    doc = _load_json(path)
    k = _field_int(doc, "k")
    for name in ("p", "full_state", "Kw", "Lw", "constraints",
                 "transform_chain", "Ku_tilde", "Lu_tilde", "deflation_residual"):
        if name not in doc:
            raise SchemaError(f"missing field '{name}'")
    constraints = doc["constraints"]
    n_constraints = len(constraints) if constraints else 0
    n = k + n_constraints
    m = len(doc["Ku_tilde"]) if doc["Ku_tilde"] else 1
    return ZeroDynamicsResult(
        k=k,
        Kw=_field_matrix(doc, "Kw", k, k),
        Lw=_field_matrix(doc, "Lw", k, k),
        p=float(doc["p"]),
        constraints=_field_matrix(doc, "constraints", n_constraints, n),
        transform_chain=tuple(np.asarray(mat, dtype=float) for mat in doc["transform_chain"]),
        Ku_tilde=_field_matrix(doc, "Ku_tilde", m, k),
        Lu_tilde=_field_matrix(doc, "Lu_tilde", m, k),
        full_state=bool(doc["full_state"]),
        deflation_residual=float(doc["deflation_residual"]),
    )
