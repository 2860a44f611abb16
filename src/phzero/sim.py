"""Exact method-of-characteristics simulation of uniform-speed systems.

The state is stored as the traveling profile sampled on cell midpoints:
``states[step][:, j]`` is the profile value on cell ``j`` after ``step``
traversals, with ``states[0][:, j] = z0(1 - zeta_j)`` (the initial
physical profile read against the transport direction).  One step is one
traversal time ``p`` and applies the quadruple columnwise::

    states[s+1] = Ad states[s] + Bd inputs[s]
    outputs[s]  = Cd states[s] + Dd inputs[s]

For data that is piecewise constant per cell this recursion *is* the
dynamics; there is no discretization error, and refining the grid leaves
every value both grids represent unchanged.  Time samples line up as
``inputs[s][:, j] = u((s + zeta_j) p)`` and likewise for the outputs.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import UnsupportedSystemError
from .model import PHSystem
from .zerodyn import ZeroDynamicsResult, nulling_friend

#: Relative distance bound for initial profiles that must lie in the
#: output-nulling set.
MEMBERSHIP_TOL = 1e-10

#: Most float64 values one numpy array can index; numpy rejects a larger
#: shape with a ValueError before it tries to allocate.
_MAX_FLOATS = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class Trajectory:
    """Sampled traveling-profile evolution over whole traversals."""

    states: np.ndarray   # (steps+1, n, grid_n)
    inputs: np.ndarray   # (steps,   m, grid_n)
    outputs: np.ndarray  # (steps,   m, grid_n)
    p: float

    @property
    def steps(self) -> int:
        return self.inputs.shape[0]

    @property
    def grid_n(self) -> int:
        return self.states.shape[2]

    def max_output(self) -> float:
        return float(np.abs(self.outputs).max()) if self.outputs.size else 0.0

    def rows(self):
        """Long-format (kind, step, cell, channel, value) records, in the
        line order of :meth:`csv_chunks`: states, inputs, outputs; then
        step, channel, cell."""
        for kind, block in self._blocks():
            for step in range(block.shape[0]):
                for channel in range(block.shape[1]):
                    for cell in range(block.shape[2]):
                        yield kind, step, cell, channel, float(block[step, channel, cell])

    def _blocks(self):
        return (("state", self.states), ("input", self.inputs), ("output", self.outputs))

    def csv_chunks(self):
        """The records of :meth:`rows` as CSV text, one chunk per header
        and step: a ``kind,step,cell,channel,value`` header, one line per
        record with the value's ``repr``, and a trailing newline.

        Two steps of one kind differ only in the ``kind,step`` head and
        the values, so each kind gets one ``%s`` template, with NUL
        marking the head, and each step is one ``%`` of it over the
        values' ``repr`` from :func:`_step_reprs`.
        """
        yield "kind,step,cell,channel,value\n"
        for kind, block in self._blocks():
            if not block.size:
                continue
            _, channels, cells = block.shape
            template = "".join(
                f"\0,{cell},{channel},%s\n" for channel in range(channels) for cell in range(cells)
            )
            for step, values in enumerate(_step_reprs(block)):
                yield template.replace("\0", f"{kind},{step}") % values

    def json_chunks(self):
        """``json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))``
        in chunks of at most one step of one array.

        Raises :class:`ValueError`, as that call does, when a value is
        not finite.
        """
        yield '{"grid_n":' + json.dumps(self.grid_n) + ',"inputs":'
        yield from _json_array(self.inputs)
        yield ',"max_abs_output":' + json.dumps(self.max_output(), allow_nan=False) + ',"outputs":'
        yield from _json_array(self.outputs)
        yield ',"p":' + json.dumps(self.p, allow_nan=False) + ',"states":'
        yield from _json_array(self.states)
        yield ',"steps":' + json.dumps(self.steps) + "}"

    def first_nonfinite_step(self) -> int | None:
        """The first step whose state, input or output has a non-finite
        value, or None when the whole trajectory is finite."""
        bad = ~np.isfinite(self.states).all(axis=(1, 2))
        bad[:-1] |= ~(np.isfinite(self.inputs).all(axis=(1, 2))
                      & np.isfinite(self.outputs).all(axis=(1, 2)))
        return int(bad.argmax()) if bad.any() else None

    def to_doc(self) -> dict:
        return {
            "p": self.p,
            "grid_n": self.grid_n,
            "steps": self.steps,
            "states": self.states.tolist(),
            "inputs": self.inputs.tolist(),
            "outputs": self.outputs.tolist(),
            "max_abs_output": self.max_output(),
        }


def _step_reprs(block: np.ndarray):
    """Per step (first axis) of the float block, the ``repr`` of each of
    its values as one tuple, in C order.

    ``repr`` runs once per distinct value of the whole block: values
    repeat across steps, because a traversal moves most of them along a
    delay chain unchanged.  Values are told apart by their bits, which
    keeps ``-0.0`` apart from ``0.0``.
    """
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.int64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    for step in texts[inverse].reshape(block.shape[0], math.prod(block.shape[1:])):
        yield tuple(step.tolist())


def _json_array(block: np.ndarray):
    """Compact JSON of ``block.tolist()`` for a 3-d float block, one
    chunk per step after the opening bracket."""
    if not np.isfinite(block).all():
        raise ValueError("Out of range float values are not JSON compliant")
    _, rows, cols = block.shape
    row = "[" + ",".join(["%s"] * cols) + "]"
    template = "[" + ",".join([row] * rows) + "]"
    yield "["
    for step, values in enumerate(_step_reprs(block)):
        yield ("," if step else "") + template % values
    yield "]"


def initial_profile_to_state(z0) -> np.ndarray:
    """Physical profile ``z0(zeta)`` on cell midpoints -> traveling profile."""
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    return z0[:, ::-1].copy()


def _fits(*shape: int) -> tuple:
    """``shape``, after checking that numpy can index a float array of it.

    Raises :class:`MemoryError` otherwise, as numpy does for a size it
    can index but the machine cannot hold.
    """
    if math.prod(shape) > _MAX_FLOATS:
        raise MemoryError(f"a float array of shape {shape} is too large to allocate")
    return shape


def _input_series(u, steps: int, m: int, grid_n: int) -> np.ndarray:
    if u is None:
        return np.zeros(_fits(steps, m, grid_n))
    if callable(u):
        series = np.stack([np.atleast_2d(np.asarray(u(s), dtype=float)) for s in range(steps)])
    else:
        series = np.asarray(u, dtype=float)
        if series.ndim == 2:  # constant-in-time input block
            series = np.broadcast_to(series, (steps,) + series.shape).copy()
    if series.shape != (steps, m, grid_n):
        raise ValueError(
            f"input series has shape {series.shape}, expected {(steps, m, grid_n)}"
        )
    return series


def _run(d: analysis.DiscreteSystem, state0: np.ndarray, steps: int,
         inputs: np.ndarray | None = None, feedback: np.ndarray | None = None) -> Trajectory:
    n, grid_n = state0.shape
    m = d.m
    states = np.empty(_fits(steps + 1, n, grid_n))
    outs = np.empty((steps, m, grid_n))
    ins = np.empty((steps, m, grid_n))
    states[0] = state0
    current = state0
    for s in range(steps):
        u = feedback @ current if feedback is not None else inputs[s]
        ins[s] = u
        outs[s] = d.Cd @ current + d.Dd @ u
        current = d.Ad @ current + d.Bd @ u
        states[s + 1] = current
    return Trajectory(states=states, inputs=ins, outputs=outs, p=d.p)


def simulate(sys: PHSystem, z0, u=None, steps: int = 20) -> Trajectory:
    """Evolve the system for ``steps`` traversals from the physical profile
    ``z0`` (n-by-grid cells), with input ``u`` given as None (zero), an
    (steps, m, grid) array, an (m, grid) constant block, or a callable
    ``step -> (m, grid)``."""
    d = analysis.discrete_reduce(sys)
    state0 = initial_profile_to_state(z0)
    if state0.shape[0] != sys.n:
        raise ValueError(f"initial profile has {state0.shape[0]} channels, system has {sys.n}")
    inputs = _input_series(u, steps, sys.m, state0.shape[1])
    return _run(d, state0, steps, inputs=inputs)


def simulate_zeroing(
    sys: PHSystem,
    zd: ZeroDynamicsResult,
    z0,
    steps: int = 20,
    mode: str = "reduction",
) -> Trajectory:
    """Closed-loop run keeping the output at zero from ``z0`` in the
    nulling set.

    ``mode`` selects how the zeroing input is generated: ``"reduction"``
    uses the reduced-boundary functional of ``zd``; ``"friend"`` solves
    for an invariance feedback on ``zd.nulling_subspace()``.  Both must
    produce an identically zero output; the inputs themselves may differ.

    Neither feedback corrects rounding error off the nulling subspace: that
    error grows at the open-loop rate, so on networks whose open loop
    amplifies by a factor ``g`` per traversal the output leaves the
    rounding floor and grows roughly like ``eps * g**steps`` times the
    initial profile.  A per-step projection onto the nulling subspace
    would hold it at the floor; this loop does not project.

    Raises :class:`UnsupportedSystemError` (a ``ValueError``, reporting
    the projection distance) when any cell of ``z0`` is outside the
    nulling set.
    """
    d = analysis.discrete_reduce(sys)
    state0 = initial_profile_to_state(z0)
    v = zd.nulling_subspace()
    scale = max(1.0, float(np.abs(state0).max()) if state0.size else 0.0)
    distance = v.distance(state0)
    if distance > MEMBERSHIP_TOL * scale:
        raise UnsupportedSystemError(
            f"initial profile is outside the output-nulling set "
            f"(projection distance {distance:.3e})"
        )
    if mode == "reduction":
        feedback = zd.zeroing_feedback()
    elif mode == "friend":
        feedback = nulling_friend(d, v).Fd
    else:
        raise UnsupportedSystemError(f"unknown zeroing mode {mode!r}")
    return _run(d, state0, steps, feedback=feedback)
