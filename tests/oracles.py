"""Independent oracles used by the test suite.

:func:`column_candidates_eager` scores every column swap up front, which
is how ``reduce`` ranked its candidates before the scoring became lazy;
it pins the candidate order of ``zerodyn._column_candidates``.

The multirate simulator below never forms the split system: each channel
is an exact delay line of ``travel_time / h`` cells (``h`` divides every
travel time), and the boundary condition is solved per step for the
incoming traces.  It is the reference against which both the splitting
transformation and the uniform-grid simulator are checked.
"""

import numpy as np

from phzero import linalg
from phzero.canonicalize import common_travel_time


def column_candidates_eager(top, tol):
    """All admissible column swaps of ``top`` in ``reduce``'s order:
    ``None`` (no swap) first if the leading block has full rank, then the
    swaps with the last column by decreasing last LU pivot, ties by
    column index."""
    d = top.shape[1]
    out = []
    if d == 1 or linalg.rank(top[:, : d - 1], tol) == d - 1:
        out.append(None)
    if d == 1:
        return out
    scored = []
    for col in range(d - 1):
        order = list(range(d))
        order[col], order[d - 1] = order[d - 1], order[col]
        block = top[:, order[: d - 1]]
        if linalg.rank(block, tol) != d - 1:
            continue
        last_pivot = float(np.abs(np.diag(linalg.lu_decompose(block).upper))[-1])
        scored.append((-last_pivot, col))
    scored.sort()
    out.extend(col for _, col in scored)
    return out


def multispeed_output(ms, z0_cells, u_seq, grid_n):
    """Exact outputs of a multirate network under piecewise-constant data.

    ``z0_cells[i]`` holds channel ``i``'s initial profile on
    ``r_i * grid_n`` equal cells in physical order; ``u_seq`` is an
    ``(steps, m)`` array of inputs, constant on each step of length
    ``h = g / grid_n`` (``g`` the common travel time).  Returns the
    ``(steps, m)`` array of outputs, constant on the same steps.
    """
    g = common_travel_time(ms.speeds)
    n, m = ms.n, ms.m
    u_seq = np.atleast_2d(np.asarray(u_seq, dtype=float))
    steps = u_seq.shape[0]

    buffers = []
    for i, s in enumerate(ms.speeds):
        r = s.travel_time / g
        cells = np.asarray(z0_cells[i], dtype=float)
        assert cells.shape == (int(r) * grid_n,), f"channel {i} cell count"
        # Pop order = first value to leave through the outgoing end.
        buffers.append(list(cells[::-1]) if s.direction < 0 else list(cells))

    directions = np.array([s.direction for s in ms.speeds])
    m_in = np.where(directions < 0, 1.0, 0.0) * ms.K + np.where(directions > 0, 1.0, 0.0) * ms.L
    m_out = np.where(directions < 0, 1.0, 0.0) * ms.L + np.where(directions > 0, 1.0, 0.0) * ms.K

    ys = np.empty((steps, m))
    rhs0 = np.zeros(n)
    for k in range(steps):
        outflow = np.array([buf[0] for buf in buffers])
        rhs = rhs0.copy()
        rhs[n - m :] = u_seq[k]
        inflow = np.linalg.solve(m_in, rhs - m_out @ outflow)
        trace0 = np.where(directions < 0, inflow, outflow)
        trace1 = np.where(directions < 0, outflow, inflow)
        ys[k] = ms.Ky @ trace0 + ms.Ly @ trace1
        for buf, value in zip(buffers, inflow):
            buf.pop(0)
            buf.append(value)
    return ys


def reflect_profile(ms, z0_cells):
    """Initial data of the reflected network (profiles of +1 channels
    reversed)."""
    return [
        np.asarray(cells, dtype=float)[::-1] if s.direction > 0 else np.asarray(cells, dtype=float)
        for s, cells in zip(ms.speeds, z0_cells)
    ]
