import json

import numpy as np
import pytest

from phzero import PHSystem, discrete_reduce, simulate, simulate_zeroing
from phzero.canonicalize import reflect_positive, split_commensurate
from phzero.sim import Trajectory
from phzero.zerodyn import reduce as zd_reduce

from ensembles import random_nulling_profile, random_stable_system


def test_zero_l_dies_in_one_step(rng):
    sysz = PHSystem(p=1.0, K0=[[1.0, 0.0]], L0=np.zeros((1, 2)),
                    Ku=[[0.0, 1.0]], Lu=np.zeros((1, 2)),
                    Ky=[[1.0, 1.0]], Ly=np.zeros((1, 2)))
    tr = simulate(sysz, rng.uniform(-1, 1, (2, 8)), None, steps=4)
    assert np.abs(tr.states[1:]).max() == 0.0


def test_ring_cycles_with_period_three(ring_sys):
    z0 = np.zeros((3, 8))
    z0[2] = np.linspace(-1.0, 1.0, 8)
    tr = simulate(ring_sys, z0, None, steps=9)
    assert np.array_equal(tr.states[3], tr.states[0])
    assert np.array_equal(tr.states[9], tr.states[6])
    assert not np.array_equal(tr.states[1], tr.states[0])


def test_generic_profile_produces_output(split_sys, rng):
    z0 = rng.uniform(-1, 1, (3, 8))
    tr = simulate(split_sys, z0, None, steps=2)
    assert np.abs(tr.outputs[:2]).max() > 1e-6


def test_refinement_invariance(split_sys, rng):
    z0 = rng.uniform(-1, 1, (3, 4))
    coarse = simulate(split_sys, z0, None, steps=6)
    fine = simulate(split_sys, np.repeat(z0, 4, axis=1), None, steps=6)
    assert np.array_equal(np.repeat(coarse.states, 4, axis=2), fine.states)


def test_recursion_invariant_bitwise(split_sys, rng):
    d = discrete_reduce(split_sys)
    z0 = rng.uniform(-1, 1, (3, 8))
    u = rng.uniform(-1, 1, (5, 1, 8))
    tr = simulate(split_sys, z0, u, steps=5)
    for s in range(5):
        step = d.Ad @ tr.states[s] + d.Bd @ tr.inputs[s]
        assert np.array_equal(tr.states[s + 1], step)
        out = d.Cd @ tr.states[s] + d.Dd @ tr.inputs[s]
        assert np.array_equal(tr.outputs[s], out)


def test_zeroing_split_trace_rule(split_sys, rng):
    res = zd_reduce(split_sys)
    z0 = random_nulling_profile(rng, res.nulling_subspace().basis, 16)
    tr = simulate_zeroing(split_sys, res, z0, steps=20)
    scale = max(1.0, np.abs(z0).max())
    assert tr.max_output() <= 1e-10 * scale
    # the applied input is the incoming trace of the third channel
    assert np.abs(tr.inputs[:, 0, :] - tr.states[1:, 2, :]).max() <= 1e-12 * scale


def test_zeroing_ring_trace_rule(ring_sys, rng):
    res = zd_reduce(ring_sys)
    z0 = np.zeros((3, 16))
    z0[2] = rng.uniform(-1, 1, 16)
    tr = simulate_zeroing(ring_sys, res, z0, steps=20)
    assert tr.max_output() == 0.0
    # the applied input reproduces the outgoing trace of the third channel
    assert np.abs(tr.inputs[:, 0, :] - tr.states[:-1, 2, :]).max() == 0.0


def test_zeroing_zero_profile(split_sys):
    res = zd_reduce(split_sys)
    tr = simulate_zeroing(split_sys, res, np.zeros((3, 8)), steps=5)
    assert np.abs(tr.inputs).max() == 0.0
    assert tr.max_output() == 0.0


def test_zeroing_rejects_profile_outside_subspace(split_sys, rng):
    res = zd_reduce(split_sys)
    with pytest.raises(ValueError, match="projection distance"):
        simulate_zeroing(split_sys, res, rng.uniform(1.0, 2.0, (3, 8)), steps=5)


def test_zeroing_friend_and_reduction_agree_on_nulling(split_sys, ring_sys, sparse_ten, rng):
    for sysx in (split_sys, ring_sys, sparse_ten):
        res = zd_reduce(sysx)
        z0 = random_nulling_profile(rng, res.nulling_subspace().basis, 16)
        scale = max(1.0, np.abs(z0).max())
        for mode in ("reduction", "friend"):
            tr = simulate_zeroing(sysx, res, z0, steps=20, mode=mode)
            assert tr.max_output() <= 1e-10 * scale


def test_open_loop_decay(rng):
    sysr, radius = random_stable_system(rng, n=4, radius=0.7)
    z0 = rng.uniform(-1, 1, (4, 8))
    tr = simulate(sysr, z0, None, steps=30)
    norms = np.linalg.norm(tr.states.reshape(31, -1), axis=1)
    base = radius + 0.05
    c = max(norms[s] / base**s for s in range(5))
    assert all(norms[s] <= c * base**s for s in range(4, 31))


def test_trajectory_export_round_trip(split_sys, rng):
    tr = simulate(split_sys, rng.uniform(-1, 1, (3, 4)), None, steps=2)
    doc = tr.to_doc()
    assert doc["steps"] == 2 and doc["grid_n"] == 4
    rows = list(tr.rows())
    assert len(rows) == (3 * 3 * 4) + 2 * (1 * 4) * 2
    kinds = {r[0] for r in rows}
    assert kinds == {"state", "input", "output"}


def _csv_from_rows(tr):
    """The row-by-row CSV the export must reproduce byte for byte."""
    rows = ["kind,step,cell,channel,value"]
    rows += [f"{k},{s},{c},{ch},{v!r}" for k, s, c, ch, v in tr.rows()]
    return "\n".join(rows) + "\n"


AWKWARD = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 2.0, 0.1 + 0.2]

EXPORT_SHAPES = pytest.mark.parametrize(
    "steps,n,m,grid", [(2, 3, 1, 7), (0, 3, 1, 4), (3, 2, 1, 0), (2, 3, 2, 5)],
    ids=["awkward-values", "steps-0", "no-cells", "m-2"])


def _awkward_trajectory(steps, n, m, grid):
    def block(*shape):
        return np.resize(np.array(AWKWARD), shape)

    return Trajectory(states=block(steps + 1, n, grid), inputs=block(steps, m, grid),
                      outputs=block(steps, m, grid), p=1.0)


def _compact_json(tr):
    """The compact sorted-key JSON the chunks must reproduce byte for byte."""
    return json.dumps(tr.to_doc(), sort_keys=True, separators=(",", ":"))


@EXPORT_SHAPES
def test_to_csv_matches_rows(steps, n, m, grid):
    tr = _awkward_trajectory(steps, n, m, grid)
    text = tr.to_csv()
    assert text == _csv_from_rows(tr)
    assert len(text.splitlines()) == 1 + ((steps + 1) * n + 2 * steps * m) * grid
    if grid == len(AWKWARD):
        for value in ("-0.0", "0.0", "5e-324", "1e-05", "1e+16", "2.0", "0.30000000000000004"):
            assert f",0,{value}\n" in text


@EXPORT_SHAPES
def test_json_chunks_match_dumps(steps, n, m, grid):
    tr = _awkward_trajectory(steps, n, m, grid)
    text = "".join(tr.json_chunks())
    assert text == _compact_json(tr)
    if grid == len(AWKWARD):
        assert "[-0.0,0.0,5e-324,1e-05,1e+16,2.0,0.30000000000000004]" in text


def test_json_chunks_reject_nonfinite():
    tr = _awkward_trajectory(1, 2, 1, 3)
    tr.states[1, 0, 2] = np.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        "".join(tr.json_chunks())


def test_to_csv_matches_rows_on_a_simulation(split_sys, rng):
    tr = simulate(split_sys, rng.uniform(-1, 1, (3, 7)), None, steps=5)
    assert tr.to_csv() == _csv_from_rows(tr)


def test_exports_match_on_a_split_two_speed_network(two_speed, rng):
    """The split chain carries values along unchanged, so most of them
    repeat from step to step and are formatted from one ``repr``."""
    system = split_commensurate(reflect_positive(two_speed))
    z0 = rng.uniform(-1, 1, (system.n, 6))
    z0[0, :2] = [-0.0, 0.0]
    tr = simulate(system, z0, None, steps=8)
    assert np.unique(tr.states.view(np.int64)).size < tr.states.size / 2
    assert tr.to_csv() == _csv_from_rows(tr)
    assert "".join(tr.json_chunks()) == _compact_json(tr)


def test_first_nonfinite_step():
    states = np.ones((4, 2, 3))
    inputs = np.zeros((3, 1, 3))
    outputs = np.zeros((3, 1, 3))
    tr = Trajectory(states=states, inputs=inputs, outputs=outputs, p=1.0)
    assert tr.first_nonfinite_step() is None
    states[3, 1, 2] = np.inf
    assert tr.first_nonfinite_step() == 3
    outputs[1, 0, 0] = np.nan
    assert tr.first_nonfinite_step() == 1
    inputs[0, 0, 2] = -np.inf
    assert tr.first_nonfinite_step() == 0
    empty = Trajectory(states=np.ones((1, 2, 0)), inputs=np.zeros((0, 1, 0)),
                       outputs=np.zeros((0, 1, 0)), p=1.0)
    assert empty.first_nonfinite_step() is None
