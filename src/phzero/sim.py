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

from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import UnsupportedSystemError
from .model import PHSystem
from .zerodyn import ZeroDynamicsResult, nulling_friend, vstar_discrete

#: Relative distance bound for initial profiles that must lie in the
#: output-nulling set.
MEMBERSHIP_TOL = 1e-10


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
        row order of :meth:`to_csv`: states, inputs, outputs; then step,
        channel, cell."""
        for kind, block in (("state", self.states), ("input", self.inputs), ("output", self.outputs)):
            for step in range(block.shape[0]):
                for channel in range(block.shape[1]):
                    for cell in range(block.shape[2]):
                        yield kind, step, cell, channel, float(block[step, channel, cell])

    def to_csv(self) -> str:
        """The records of :meth:`rows` as CSV text: a ``kind,step,cell,
        channel,value`` header, one line per record with the value's
        ``repr``, and a trailing newline.

        Two steps of one kind differ only in the ``kind,step`` head and
        the values, so each kind gets one ``%r`` template, with NUL
        marking the head, and each step is one ``%`` of it: every value
        costs one C-level ``repr``.
        """
        parts = ["kind,step,cell,channel,value"]
        for kind, block in (("state", self.states), ("input", self.inputs), ("output", self.outputs)):
            if not block.size:
                continue
            _, channels, cells = block.shape
            template = "\n".join(
                f"\0,{cell},{channel},%r" for channel in range(channels) for cell in range(cells)
            )
            for step in range(block.shape[0]):
                lines = template.replace("\0", f"{kind},{step}")
                parts.append(lines % tuple(block[step].ravel().tolist()))
        return "\n".join(parts) + "\n"

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


def initial_profile_to_state(z0) -> np.ndarray:
    """Physical profile ``z0(zeta)`` on cell midpoints -> traveling profile."""
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    return z0[:, ::-1].copy()


def _input_series(u, steps: int, m: int, grid_n: int) -> np.ndarray:
    if u is None:
        return np.zeros((steps, m, grid_n))
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
    states = np.empty((steps + 1, n, grid_n))
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
    for an invariance feedback on the output-nulling subspace.  Both must
    produce an identically zero output; the inputs themselves may differ.

    The realized output sits at the rounding floor relative to the state
    the trajectory actually reaches, so for networks whose open loop or
    zero dynamics amplify by a factor ``g`` per traversal the output can
    only be kept below roughly ``eps * g**steps`` times the initial
    profile; no floating-point evolution can do better.

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
        friend = nulling_friend(d, vstar_discrete(*analysis.output_nulling_stacks(sys)))
        feedback = friend.Fd
    else:
        raise UnsupportedSystemError(f"unknown zeroing mode {mode!r}")
    return _run(d, state0, steps, feedback=feedback)
