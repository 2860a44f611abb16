"""The benchmark's checks reject wrong answers.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import phzero as pz  # noqa: E402
from phzero import cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402


@pytest.fixture(scope="module")
def siso(tmp_path_factory):
    case = inputs.siso_cases(7, tmp_path_factory.mktemp("siso"))[0]
    s = pz.load_system(case.path)
    return case, s, checks.certified_zeros(s, case.matrices)


@pytest.fixture(scope="module")
def rings(tmp_path_factory):
    return {c.degree: c for c in inputs.ring_cases(7, tmp_path_factory.mktemp("ring"))}


def test_reference_zeros_are_certified(siso):
    case, _, (zeros, uncertified) = siso
    assert zeros.size == case.n - 1 and uncertified == 0


def test_fault_a_flagged(siso):
    case, s, ref = siso
    scan = pz.scan_zeros(s)
    v = checks.check_zeros(scan, case.matrices, np.random.default_rng(0), ref)
    assert not v.ok and v.fault == "A"


def test_exact_roots_accepted_and_shifted_root_rejected(siso):
    case, s, ref = siso
    zeros = ref[0]
    good = SimpleNamespace(identically_zero=False, w_roots=tuple(zeros[::-1]))
    rng = np.random.default_rng(0)
    assert checks.check_zeros(good, case.matrices, rng, ref).ok
    shifted = zeros.copy()
    shifted[3] += 1e-3 * (1 + abs(shifted[3]))
    bad = SimpleNamespace(identically_zero=False, w_roots=tuple(shifted))
    v = checks.check_zeros(bad, case.matrices, rng, ref)
    assert not v.ok and v.fault is None
    missing = SimpleNamespace(identically_zero=False, w_roots=tuple(zeros[1:]))
    assert not checks.check_zeros(missing, case.matrices, rng, ref).ok


def test_identically_zero_accepted_only_for_singular_pencil():
    m = {"K0": np.zeros((1, 2)), "Ky": np.zeros((1, 2)),
         "L0": np.ones((1, 2)), "Ly": np.ones((1, 2))}
    assert not checks.pencil_full_rank(m, np.random.default_rng(0))


def test_siso_reduction_accepted_and_perturbed_k_rejected(siso):
    case, s, _ = siso
    res = pz.reduce(s)
    count = checks.finite_eig_count(case.matrices)
    assert checks.check_reduce(res, count, case.vstar_basis, case.expected_order).ok
    for k in (res.k - 1, res.k + 1):
        v = checks.check_reduce(replace(res, k=k), count, case.vstar_basis, case.expected_order)
        assert not v.ok and v.fault == ("B" if k > count else None)
    tilted = replace(res, constraints=res.constraints + 1e-4)
    assert not checks.check_reduce(tilted, count, case.vstar_basis, case.expected_order).ok


def test_fault_b_flagged(rings):
    case = rings[24]
    res = pz.reduce(pz.load_system(case.path))
    count = checks.finite_eig_count(case.matrices)
    v = checks.check_reduce(res, count, case.vstar_basis, case.expected_order)
    assert not v.ok and v.fault == "B"


def test_qz_count_matches_ring_structure(rings):
    for d, case in rings.items():
        assert checks.finite_eig_count(case.matrices) == case.expected_order == inputs.RING_N - d


def test_vstar_checked_against_known_subspace(rings):
    case = rings[8]
    v = pz.vstar_discrete(*pz.output_nulling_stacks(pz.load_system(case.path)))
    count = checks.finite_eig_count(case.matrices)
    assert checks.check_vstar(v, count, case.vstar_basis, case.expected_order).ok
    rotated = pz.Subspace(np.roll(v.basis, 1, axis=0))
    assert not checks.check_vstar(rotated, count, case.vstar_basis, case.expected_order).ok


def test_closed_loop_checks(rings):
    case = rings[4]
    s = pz.load_system(case.path)
    traj = pz.simulate_zeroing(s, pz.reduce(s), case.z0, steps=8)
    assert checks.check_closed_loop("c", traj, case.z0).ok
    loud = replace(traj, outputs=traj.outputs + 1e-6)
    assert not checks.check_closed_loop("c", loud, case.z0).ok
    grown = replace(traj, states=traj.states * 2.0)
    assert not checks.check_closed_loop("c", grown, case.z0).ok


def test_stability_radius_checked(rings):
    case = rings[4]
    stable, r = pz.is_exponentially_stable(pz.load_system(case.path))
    ref = checks.spectral_radius(case.matrices)
    assert checks.check_stability(stable, r, ref).ok
    assert not checks.check_stability(stable, r * 1.01, ref).ok


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    case = inputs.two_speed_case(7, work)
    sim = ["simulate", str(case.system_path), "--initial", str(case.profile_path),
           "--mode", "zeroing"]
    out_json, out_csv = work / "o.json", work / "o.csv"
    assert cli.main(sim + ["--steps", "6", "--format", "json", "-o", str(out_json)]) == 0
    assert cli.main(sim + ["--steps", "3", "--format", "csv", "-o", str(out_csv)]) == 0
    return case, out_json.read_text(), out_csv.read_text()


def test_cli_exports_accepted(exports, capsys):
    case, text_json, text_csv = exports
    verdict, arrays = checks.check_json_export(case, text_json)
    assert verdict.ok, verdict.detail
    assert checks.check_csv_export(text_csv, arrays).ok
    capsys.readouterr()
    assert cli.main(["zerodyn", str(case.system_path), "--json"]) == 0
    assert checks.check_zerodyn_report(case, capsys.readouterr().out).ok


def test_wrong_zeroing_input_rejected_by_delay_line(exports):
    case, text_json, _ = exports
    import json

    doc = json.loads(text_json)
    doc["trajectory"]["inputs"][2][0][5] += 0.5
    verdict, _ = checks.check_json_export(case, json.dumps(doc))
    assert not verdict.ok and "delay-line" in verdict.detail


def test_csv_value_mismatch_rejected(exports):
    case, text_json, text_csv = exports
    _, arrays = checks.check_json_export(case, text_json)
    lines = text_csv.splitlines()
    kind, step, cell, channel, value = lines[7].split(",")
    lines[7] = ",".join([kind, step, cell, channel, repr(float(value) + 1e-9)])
    assert not checks.check_csv_export("\n".join(lines) + "\n", arrays).ok
    assert not checks.check_csv_export("\n".join(lines[:-5]) + "\n", arrays).ok


def test_zerodyn_report_with_wrong_order_rejected(exports, capsys):
    case = exports[0]
    import json

    capsys.readouterr()
    cli.main(["zerodyn", str(case.system_path), "--json"])
    doc = json.loads(capsys.readouterr().out)
    doc["findings"]["result"]["k"] += 1
    assert not checks.check_zerodyn_report(case, json.dumps(doc)).ok
