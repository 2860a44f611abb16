import json

import numpy as np
import pytest

from phzero import (
    MultiSpeedSystem,
    PHSystem,
    RationalSpeed,
    SchemaError,
    load_result,
    load_system,
    save_result,
    save_system,
    validate,
)
from phzero.model import dumps, result_doc, system_doc
from phzero.zerodyn import reduce as zd_reduce


def test_rational_speed_reduces():
    s = RationalSpeed(4, 6, -1)
    assert (s.num, s.den) == (2, 3)
    assert s.travel_time.numerator == 3 and s.travel_time.denominator == 2


@pytest.mark.parametrize("bad", [dict(num=0, den=1), dict(num=1, den=0), dict(num=1, den=1, direction=2)])
def test_rational_speed_rejects(bad):
    with pytest.raises(ValueError):
        RationalSpeed(**{"direction": -1, **bad})


def test_roundtrip_uniform(tmp_path, split_sys):
    path = tmp_path / "sys.json"
    save_system(split_sys, path)
    loaded = load_system(path)
    assert isinstance(loaded, PHSystem)
    assert loaded.p == split_sys.p
    for name in ("K0", "L0", "Ku", "Lu", "Ky", "Ly"):
        assert np.array_equal(getattr(loaded, name), getattr(split_sys, name))
    # byte-identical re-save
    save_system(loaded, tmp_path / "sys2.json")
    assert (tmp_path / "sys.json").read_bytes() == (tmp_path / "sys2.json").read_bytes()


def test_roundtrip_multirate(tmp_path, two_speed):
    path = tmp_path / "ms.json"
    save_system(two_speed, path)
    loaded = load_system(path)
    assert isinstance(loaded, MultiSpeedSystem)
    assert loaded.speeds == two_speed.speeds
    assert np.array_equal(loaded.K, two_speed.K)
    assert np.array_equal(loaded.L, two_speed.L)


def test_minimal_scalar_system(tmp_path):
    doc = {"n": 1, "m": 1, "travel_time": 1.0, "K0": [], "L0": [],
           "Ku": [[1.0]], "Lu": [[0.0]], "Ky": [[1.0]], "Ly": [[0.5]]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    sys1 = load_system(path)
    assert sys1.n == 1 and sys1.m == 1 and sys1.K0.shape == (0, 1)


def test_corpus_file_equals_hand_built(corpus_dir, split_sys):
    loaded = load_system(corpus_dir / "split_three_channel.json")
    for name in ("K0", "L0", "Ku", "Lu", "Ky", "Ly"):
        assert np.array_equal(getattr(loaded, name), getattr(split_sys, name))


def test_corpus_files_match_builders_bytewise(tmp_path, corpus_dir):
    # the shipped documents are exactly what the builders serialize
    from conftest import build_ring, build_sparse_ten, build_split, build_two_speed

    builders = {
        "two_speed_network.json": build_two_speed,
        "split_three_channel.json": build_split,
        "ring_three_channel.json": build_ring,
        "sparse_ten_channel.json": build_sparse_ten,
    }
    for name, build in builders.items():
        save_system(build(), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (corpus_dir / name).read_bytes(), name


def test_truncated_file_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3, "m": 1, "travel_time": 1.0, "K0": [[1, 0')
    with pytest.raises(SchemaError, match=r"line \d+, column \d+"):
        load_system(path)


def test_schema_violation_names_field(tmp_path, split_sys):
    doc = system_doc(split_sys)
    doc["K0"] = [[1.0, 0.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="'K0'"):
        load_system(path)


def test_schema_requires_exactly_one_time_spec(tmp_path, split_sys):
    doc = system_doc(split_sys)
    doc["speeds"] = [{"num": 1, "den": 1, "direction": -1}] * 3
    path = tmp_path / "both.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="exactly one"):
        load_system(path)


def test_validate_clean_system(split_sys):
    assert validate(split_sys) == []


def test_validate_flags_singular_boundary(split_sys):
    bad = PHSystem(p=split_sys.p, K0=split_sys.K0, L0=split_sys.L0,
                   Ku=split_sys.K0[:1], Lu=split_sys.L0[:1],
                   Ky=split_sys.Ky, Ly=split_sys.Ly)
    findings = validate(bad)
    assert any("K singular" in f for f in findings)


def test_validate_flags_shape_mismatch():
    bad = PHSystem(p=1.0, K0=np.zeros((2, 3)), L0=np.zeros((2, 3)),
                   Ku=np.zeros((1, 4)), Lu=np.zeros((1, 4)),
                   Ky=np.zeros((1, 4)), Ly=np.zeros((1, 4)))
    assert any("shape mismatch" in f for f in validate(bad))


def test_validate_does_not_mutate(split_sys):
    before = split_sys.K0.copy()
    validate(split_sys)
    assert np.array_equal(split_sys.K0, before)


def test_result_roundtrip_full_state(tmp_path, rng):
    from ensembles import random_square_system

    res = zd_reduce(random_square_system(rng, n=4, m=2, singular_stack=False))
    assert res.full_state
    path = tmp_path / "full.json"
    save_result(res, path)
    loaded = load_result(path)
    assert loaded.full_state and loaded.k == res.k
    assert loaded.constraints.shape == (0, res.k)
    assert np.array_equal(loaded.reduced_state_map, np.eye(res.k))


def test_result_roundtrip_fully_constrained(tmp_path):
    scalar = PHSystem(p=1.0, K0=np.zeros((0, 1)), L0=np.zeros((0, 1)),
                      Ku=[[1.0]], Lu=[[0.0]], Ky=[[0.0]], Ly=[[1.0]])
    res = zd_reduce(scalar)
    assert res.k == 0 and res.constraints.shape == (1, 1)
    path = tmp_path / "pinned.json"
    save_result(res, path)
    loaded = load_result(path)
    assert loaded.k == 0
    assert np.array_equal(loaded.constraints, res.constraints)
    assert loaded.Ku_tilde.shape == (1, 0)
    assert res.reduced_state_map.shape == (0, 1)
    assert np.array_equal(loaded.reduced_state_map, res.reduced_state_map)


def test_result_of_an_older_schema_is_rejected(tmp_path, split_sys):
    # schema "2" stored a chain of eliminations, not the state map
    doc = json.loads(dumps(result_doc(zd_reduce(split_sys))))
    doc["schema_version"] = "2"
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="schema_version"):
        load_result(path)
    del doc["schema_version"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="schema_version"):
        load_result(path)


@pytest.mark.parametrize("field, value", [
    ("constraints", 3),
    ("Ku_tilde", 1.5),
    ("p", "fast"),
    ("p", float("nan")),
    ("p", float("inf")),
    ("deflation_residual", "small"),
    ("deflation_residual", -1.0),
    ("full_state", "no"),
])
def test_result_rejects_malformed_fields(tmp_path, split_sys, field, value):
    doc = json.loads(dumps(result_doc(zd_reduce(split_sys))))
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=f"'{field}'"):
        load_result(path)


def test_result_roundtrip(tmp_path, split_sys):
    res = zd_reduce(split_sys)
    path = tmp_path / "res.json"
    save_result(res, path)
    loaded = load_result(path)
    assert loaded.k == res.k
    assert loaded.full_state == res.full_state
    assert np.array_equal(loaded.Kw, res.Kw)
    assert np.array_equal(loaded.Lw, res.Lw)
    assert np.array_equal(loaded.constraints, res.constraints)
    assert np.array_equal(loaded.Ku_tilde, res.Ku_tilde)
    assert loaded.deflation_residual == res.deflation_residual
    assert all(np.array_equal(a, b) for a, b in zip(loaded.transform_chain, res.transform_chain))
    assert np.array_equal(loaded.reduced_state_map, res.reduced_state_map)


def test_dumps_compact_and_indented_forms():
    doc = {"b": [[1.0, -0.0], [5e-324, 0.1 + 0.2]], "a": {"z": 1, "y": "x"}}
    compact = dumps(doc, compact=True)
    assert compact == '{"a":{"y":"x","z":1},"b":[[1.0,-0.0],[5e-324,0.30000000000000004]]}\n'
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert json.loads(compact) == json.loads(dumps(doc))
    with pytest.raises(ValueError):
        dumps({"x": [float("inf")]}, compact=True)
