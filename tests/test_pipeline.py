"""End-to-end integration: raw first-order system through canonicalization,
reduction, zero scan and closed-loop certification, plus loader fuzzing
and a larger-order smoke run."""

import json
import time

import numpy as np
import pytest

from phzero import (
    RawConstantSystem,
    SchemaError,
    check_well_posed,
    cross_check,
    diagonalize_constant,
    load_system,
    reflect_positive,
    simulate,
    simulate_zeroing,
    split_commensurate,
    vstar_discrete,
    output_nulling_stacks,
)
from phzero.canonicalize import common_travel_time, split_initial_profile
from phzero.cli import main
from phzero.ensembles import random_nulling_profile, random_siso_system
from phzero.model import dumps, system_doc
from phzero.zerodyn import reduce as zd_reduce

from conftest import CORPUS_DIR
from oracles import multispeed_output, reflect_profile


def mixed_raw_system() -> RawConstantSystem:
    """Constant-coefficient system whose channels travel in opposite
    directions with speeds 1 and 1/2."""
    return RawConstantSystem(
        P1=np.diag([1.0, -1.0]),
        H=np.diag([1.0, 0.5]),
        WB1=[[1.0, -1.0, -1.0, 1.0]],
        WB2=[[1.0, 1.0, 2.0, -1.0]],
        WC=[[1.0, 0.0, 0.0, 1.0]],
    )


def test_full_pipeline_from_raw_system(rng):
    diag, ms = diagonalize_constant(mixed_raw_system())
    assert [(s.num, s.den, s.direction) for s in ms.speeds] == [(1, 1, 1), (1, 2, -1)]

    reflected = reflect_positive(ms)
    split = split_commensurate(reflected)
    assert split.n == 3 and split.p == 1.0
    assert check_well_posed(split)

    # splitting certified against the mixed-direction delay-line oracle
    grid, traversals = 4, 6
    g = common_travel_time(ms.speeds)
    z0 = [rng.uniform(-1, 1, int(s.travel_time / g) * grid) for s in ms.speeds]
    u = rng.uniform(-1, 1, (traversals * grid, 1))
    y_oracle = multispeed_output(ms, z0, u, grid)
    z0_ref = reflect_profile(ms, z0)
    tr = simulate(split, split_initial_profile(reflected.speeds, z0_ref, g),
                  u.reshape(traversals, grid, 1).transpose(0, 2, 1), steps=traversals)
    assert np.abs(y_oracle - tr.outputs.transpose(0, 2, 1).reshape(-1, 1)).max() <= 1e-12

    # genuine reduction that needs a nonzero shift
    res = zd_reduce(split)
    assert not res.full_state and res.k == 2
    assert res.s0_used == (0.5,)
    rep = cross_check(split)
    assert rep.k == rep.vstar_dim == 2
    assert any(abs(w - 1.0) <= 1e-9 for w in rep.w_roots_scan)

    z0v = random_nulling_profile(rng, res.nulling_subspace().basis, 32)
    for mode in ("reduction", "friend"):
        traj = simulate_zeroing(split, res, z0v, steps=20, mode=mode)
        assert traj.max_output() <= 1e-10 * max(1.0, np.abs(z0v).max())


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(n=2.5), "'n'"),
    (lambda d: d.update(travel_time=True), "'travel_time'"),
    (lambda d: d.update(travel_time=-1.0), "'travel_time'"),
    (lambda d: d.update(K0=[[float("nan"), 0, 0], [0, 1, 0]]), "finite"),
    (lambda d: d.pop("Ly"), "'Ly'"),
    (lambda d: d.update(Ku="not a matrix"), "'Ku'"),
    (lambda d: d["L0"].__setitem__(1, ["a", 0, 1]), "'L0'.*numbers"),
    (lambda d: d["L0"].__setitem__(1, [1.0]), "'L0'.*numbers"),
])
def test_loader_rejects_malformed_documents(tmp_path, split_sys, mutate, message):
    doc = system_doc(split_sys)
    mutate(doc)
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=message):
        load_system(path)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["speeds"].pop(), "speeds"),
    (lambda d: d["speeds"][0].update(num=0), "speeds"),
    (lambda d: d.update(constraint_rows=3), "constraint_rows"),
])
def test_loader_rejects_malformed_multirate(tmp_path, two_speed, mutate, message):
    doc = system_doc(two_speed)
    mutate(doc)
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=message):
        load_system(path)


def test_cli_s0_max_exhaustion(capsys, tmp_path):
    # the zero pencil is singular exactly at w = 1, so capping the scan at
    # the zero shift must exhaust it
    doc = {"n": 2, "m": 1, "travel_time": 1.0,
           "K0": [[1.0, 0.0]], "L0": [[1.0, 1.0]],
           "Ku": [[0.0, 1.0]], "Lu": [[0.0, 0.0]],
           "Ky": [[1.0, 0.0]], "Ly": [[3.0, 2.0]]}
    path = tmp_path / "shifty.json"
    path.write_text(dumps(doc))
    code = main(["zerodyn", str(path), "--s0-max", "0.0"])
    err = capsys.readouterr().err
    assert code == 3
    assert "identically zero" in err
    assert main(["zerodyn", str(path)]) == 0


def test_larger_order_smoke(rng):
    # desk-scale "large" network: the reduction stays exact and fast
    started = time.perf_counter()
    sysr = random_siso_system(rng, n=100, reduction_depth=1)
    res = zd_reduce(sysr)
    v = vstar_discrete(*output_nulling_stacks(sysr))
    elapsed = time.perf_counter() - started
    assert res.k == v.dim == 99
    assert res.constraints.shape == (1, 100)
    assert elapsed < 5.0


def test_corpus_dir_exists():
    assert CORPUS_DIR.is_dir() and list(CORPUS_DIR.glob("*.json"))


def test_public_names_are_explicit():
    import types

    import phzero

    assert len(phzero.__all__) == len(set(phzero.__all__)) == 50
    for name in phzero.__all__:
        assert not isinstance(getattr(phzero, name), types.ModuleType), name
