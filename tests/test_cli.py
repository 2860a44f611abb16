import argparse
import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phzero
from phzero import discrete_reduce, load_result, load_system
from phzero.cli import build_parser, main
from phzero.model import dumps, system_doc

from conftest import CORPUS_DIR
from oracles import vstar_from_quadruple

CORPUS_FILES = sorted(p.name for p in CORPUS_DIR.glob("*.json"))
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_is_complete():
    assert CORPUS_FILES == [
        "colocated_string.json",
        "ring_three_channel.json",
        "sparse_ten_channel.json",
        "split_three_channel.json",
        "two_speed_network.json",
    ]


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_end_to_end(capsys, name):
    path = str(CORPUS_DIR / name)
    for command in (["validate"], ["analyze"], ["zerodyn"], ["vstar"], ["zeros"]):
        code, out, err = run(capsys, *command, path, "--json")
        assert code == 0, (command, err)
        doc = json.loads(out)
        assert doc["command"] == command[0]
        assert doc["inputs"]
        assert doc["versions"]["schema"] == "3"


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_machine_output_is_deterministic(capsys, name):
    path = str(CORPUS_DIR / name)
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "zerodyn", path, "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize("command", ["validate", "split", "analyze", "zerodyn", "vstar", "zeros"])
@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_json_matches_golden(capsys, monkeypatch, command, name):
    """Every corpus ``--json`` report is byte-identical to its committed
    golden, ``tests/golden/<command>_<stem>.json``.  The goldens are the
    stdout of ``phzero <command> corpus/<name> --json`` run from the
    repository root (the relative path is the ``inputs`` key).  A change
    of any report is a reviewed regeneration of these files, never a
    test switch."""
    monkeypatch.chdir(CORPUS_DIR.parent)
    code, out, err = run(capsys, command, f"corpus/{name}", "--json")
    assert code == 0, err
    golden = GOLDEN_DIR / f"{command}_{Path(name).stem}.json"
    assert out.encode("utf-8") == golden.read_bytes()


def test_analyze_inaccurate_solve_is_internal_error(capsys, monkeypatch):
    """A solve off by 1e-8 relative fails the discretization residual
    check: exit 4, one ``internal error:`` line, no report."""
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-8))
    code, out, err = run(capsys, "analyze", str(CORPUS_DIR / "ring_three_channel.json"))
    assert code == 4
    assert out == ""
    assert err.splitlines() == ["internal error: discretization residual exceeds 1e-12"]


def test_analyze_discretizes_once(capsys, monkeypatch):
    from phzero import analysis

    calls = []
    discrete_reduce = analysis.discrete_reduce
    monkeypatch.setattr(analysis, "discrete_reduce",
                        lambda system: calls.append(system) or discrete_reduce(system))
    code, _, err = run(capsys, "analyze", str(CORPUS_DIR / "sparse_ten_channel.json"), "--json")
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["zerodyn", "vstar"])
def test_failed_qz_reordering_is_internal_error(capsys, monkeypatch, command):
    """``ordqz`` raises ValueError when LAPACK cannot reorder the pencil;
    the commands print one line and exit 4.  The ring's zero pencil has
    index two, so the staircase step leaves it to the QZ."""
    import scipy.linalg

    def ordqz(*args, **kwargs):
        raise ValueError("Reordering of (A, B) failed")

    monkeypatch.setattr(scipy.linalg, "ordqz", ordqz)
    code, out, err = run(capsys, command, str(CORPUS_DIR / "ring_three_channel.json"), "--json")
    assert code == 4
    assert out == ""
    assert err.splitlines() == [
        "internal error: ordered QZ of the zero pencil failed: Reordering of (A, B) failed"]


def _twenty_part_chain(path):
    """Writes a seeded chain of 20 float SISO parts of order 10 (n = 200)
    to ``path`` and returns the parts."""
    from ensembles import random_siso_system, series_chain
    from phzero.model import save_system

    rng = np.random.default_rng(0)
    parts = [random_siso_system(rng, n=10) for _ in range(20)]
    save_system(series_chain(parts), path)
    return parts


@pytest.mark.parametrize("command", ["zerodyn", "vstar"])
def test_twenty_part_float_chain_is_internal_error(capsys, tmp_path, command):
    """The 20-part chain's zero pencil LAPACK cannot reorder: its root at
    w = 0 has multiplicity 20."""
    path = tmp_path / "chain.json"
    _twenty_part_chain(path)
    code, out, err = run(capsys, command, str(path), "--json")
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: ordered QZ of the zero pencil failed: Reordering")


@pytest.mark.xfail(strict=True, reason="spurious roots at w≈0 (ROADMAP items 1/3)")
def test_twenty_part_float_chain_zeros_are_the_parts_zeros(capsys, tmp_path):
    """The chain's transfer function is the product of its parts', so its
    zeros are theirs: 180.  ``zeros`` exits 0 and lists 199, because
    rounding splits the Jordan block at w = 0 into roots that clear
    ``EIG_DROP_TOL``."""
    from phzero import scan_zeros

    path = tmp_path / "chain.json"
    parts = _twenty_part_chain(path)
    code, out, err = run(capsys, "zeros", str(path), "--json")
    assert code == 0, err
    roots = json.loads(out)["findings"]["w_roots"]
    assert len(roots) == sum(len(scan_zeros(part).w_roots) for part in parts) == 180


def test_validate_flags_singular_boundary(capsys, tmp_path, split_sys):
    doc = system_doc(split_sys)
    doc["Ku"] = doc["K0"][0:1]
    doc["Lu"] = doc["L0"][0:1]
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 3
    assert "K singular" in out


def test_analyze_ill_posed_exit_code(capsys, tmp_path, split_sys):
    doc = system_doc(split_sys)
    doc["Ku"] = doc["K0"][0:1]
    doc["Lu"] = doc["L0"][0:1]
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc))
    code, out, _ = run(capsys, "analyze", str(bad))
    assert code == 3
    assert "well_posed: false" in out


@pytest.mark.parametrize("command", ["vstar", "zeros"])
def test_vstar_and_zeros_refuse_an_ill_posed_document(capsys, tmp_path, split_sys, command):
    # with [K0; Ku] singular the system has no dynamics, so there is no
    # subspace or zero to report: the same one-line refusal as zerodyn
    doc = system_doc(split_sys)
    doc["Ku"] = doc["K0"][0:1]
    doc["Lu"] = doc["L0"][0:1]
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(doc))
    for argv in ([command, str(bad)], [command, str(bad), "--json"]):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "error: boundary matrix [K0; Ku] is singular\n"


def test_validate_parse_error_exit_code(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"n": 3,')
    code, _, err = run(capsys, "validate", str(broken))
    assert code == 2
    assert "parse error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "no_such_file.json")
    assert code == 2


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_split_writes_golden_file(capsys, tmp_path):
    out_path = tmp_path / "uniform.json"
    code, _, _ = run(capsys, "split", str(CORPUS_DIR / "two_speed_network.json"),
                     "-o", str(out_path))
    assert code == 0
    written = load_system(out_path)
    golden = load_system(CORPUS_DIR / "split_three_channel.json")
    for name in ("K0", "L0", "Ku", "Lu", "Ky", "Ly"):
        assert np.array_equal(getattr(written, name), getattr(golden, name))
    assert written.p == golden.p


def test_split_passes_through_uniform_files(capsys, tmp_path):
    out_path = tmp_path / "same.json"
    code, _, _ = run(capsys, "split", str(CORPUS_DIR / "split_three_channel.json"),
                     "-o", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (CORPUS_DIR / "split_three_channel.json").read_bytes()


def test_analyze_ring_report(capsys):
    code, out, _ = run(capsys, "analyze", str(CORPUS_DIR / "ring_three_channel.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    f = doc["findings"]
    assert f["well_posed"] is True
    assert f["exponentially_stable"] is False
    assert abs(f["spectral_radius"] - 1.0) <= 1e-12
    assert f["feedthrough"] == [[0.0]]


def test_zerodyn_split_report(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, out, _ = run(capsys, "zerodyn", str(CORPUS_DIR / "split_three_channel.json"),
                       "--json", "-o", str(out_path))
    assert code == 0
    doc = json.loads(out)
    result = doc["findings"]["result"]
    assert result["k"] == 2
    constraint = np.asarray(result["constraints"][0])
    assert np.allclose(np.abs(constraint), np.array([1, 1, 0]) / np.sqrt(2), atol=1e-12)
    # u is the third incoming trace modulo the constraint row
    fk = np.asarray(doc["findings"]["input_on_original_traces"]["incoming"][0])
    residual = fk - [0, 0, 1]
    residual -= (residual @ constraint) * constraint
    assert np.abs(residual).max() <= 1e-12
    loaded = load_result(out_path)
    assert loaded.k == 2


def test_zerodyn_and_zeros_mimo_document(capsys, tmp_path, rng):
    from ensembles import random_square_system
    from phzero.model import save_system

    sysr = random_square_system(rng, n=6, m=3, singular_stack=True)
    path = tmp_path / "mimo.json"
    save_system(sysr, path)
    code, out, err = run(capsys, "zerodyn", str(path), "--json")
    assert code == 0, err
    result = json.loads(out)["findings"]["result"]
    assert result["k"] + len(result["constraints"]) == 6 and not result["full_state"]
    assert np.asarray(result["Ku_tilde"]).shape == (3, result["k"])
    code, out, err = run(capsys, "zeros", str(path), "--json")
    assert code == 0, err
    assert not json.loads(out)["findings"]["identically_zero"]


SILENT_DOC = {"n": 2, "m": 1, "travel_time": 1.0,
              "K0": [[1.0, 0.0]], "L0": [[0.0, 0.5]],
              "Ku": [[0.0, 1.0]], "Lu": [[0.0, 0.0]],
              "Ky": [[0.0, 0.0]], "Ly": [[0.0, 0.0]]}


def test_zeros_identically_zero_output(capsys, tmp_path):
    path = tmp_path / "silent.json"
    path.write_text(json.dumps(SILENT_DOC))
    code, out, _ = run(capsys, "zeros", str(path))
    assert code == 0
    assert "identically zero" in out


def test_singular_pencil_commands_agree(capsys, tmp_path):
    # a zero output map makes the stacked zero pencil singular: zeros
    # reports it, zerodyn refuses it, and vstar takes the iteration route
    path = tmp_path / "silent.json"
    path.write_text(json.dumps(SILENT_DOC))
    code, out, _ = run(capsys, "zeros", str(path), "--json")
    assert code == 0 and json.loads(out)["findings"]["identically_zero"]
    code, out, err = run(capsys, "zerodyn", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, err = run(capsys, "vstar", str(path), "--json")
    assert code == 0, err
    expected = vstar_from_quadruple(discrete_reduce(load_system(path))).dim
    assert json.loads(out)["findings"]["dim"] == expected == 2


def test_zeros_split_values(capsys):
    code, out, _ = run(capsys, "zeros", str(CORPUS_DIR / "split_three_channel.json"), "--json")
    doc = json.loads(out)
    roots = sorted(w[0] for w in doc["findings"]["w_roots"])
    assert np.allclose(roots, [(-1 - np.sqrt(5)) / 2, (-1 + np.sqrt(5)) / 2], atol=1e-9)


def test_zeros_reports_have_no_negative_zero(capsys):
    """``-log(w) / p`` gives ``-0.0`` parts at real ``w``; the reports
    write ``0.0``."""
    for name in CORPUS_FILES:
        code, out, _ = run(capsys, "zeros", str(CORPUS_DIR / name), "--json")
        assert code == 0
        parts = np.array(json.loads(out)["findings"]["s_values"]).ravel()
        assert not np.signbit(parts[parts == 0.0]).any(), name


def test_zeros_large_random_system(capsys, tmp_path):
    from ensembles import random_siso_system
    from phzero.model import save_system

    path = tmp_path / "n160.json"
    save_system(random_siso_system(np.random.default_rng(5), n=160), path)
    code, out, err = run(capsys, "zeros", str(path), "--json")
    assert code == 0, err
    findings = json.loads(out)["findings"]
    assert not findings["identically_zero"]
    assert len(findings["w_roots"]) == 159


def test_zerodyn_deep_ring_document(capsys, tmp_path):
    # 64-channel unit ring with relative degree 63: transfer function
    # w^63 / (1 - w^64), zero dynamics of order 1
    n = 64
    k = np.zeros((n, n))
    l = np.zeros((n, n))
    for row, i in enumerate(list(range(1, n)) + [0]):
        k[row, i] = 1.0
        l[row, i - 1] = -1.0
    ly = np.zeros((1, n))
    ly[0, n - 2] = 1.0
    doc = {"n": n, "m": 1, "travel_time": 1.0,
           "K0": k[: n - 1].tolist(), "L0": l[: n - 1].tolist(),
           "Ku": k[n - 1 :].tolist(), "Lu": l[n - 1 :].tolist(),
           "Ky": np.zeros((1, n)).tolist(), "Ly": ly.tolist()}
    path = tmp_path / "ring64.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "zerodyn", str(path), "--json")
    assert code == 0, err
    result = json.loads(out)["findings"]["result"]
    assert result["k"] == 1 and len(result["constraints"]) == 63
    code, out, _ = run(capsys, "zerodyn", str(path))
    assert code == 0
    assert "reduced order k = 1 of n = 64" in out
    assert "eliminations: 63  deflation residual: " in out


def test_vstar_report(capsys):
    code, out, _ = run(capsys, "vstar", str(CORPUS_DIR / "two_speed_network.json"), "--json")
    doc = json.loads(out)
    assert doc["findings"]["dim"] == 2
    assert doc["findings"]["canonicalized"] is True


def test_simulate_open_csv(capsys, tmp_path, rng):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": rng.uniform(-1, 1, (3, 4)).tolist()}))
    code, out, err = run(capsys, "simulate", str(CORPUS_DIR / "split_three_channel.json"),
                         "--initial", str(profile), "--steps", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,step,cell,channel,value"
    assert len(lines) == 1 + 4 * 3 * 4 + 2 * 3 * 4
    assert "max |y|" in err


def test_simulate_zeroing_json(capsys, tmp_path):
    from ensembles import random_nulling_profile
    from phzero.zerodyn import reduce as zd_reduce

    split = load_system(CORPUS_DIR / "split_three_channel.json")
    res = zd_reduce(split)
    rng = np.random.default_rng(5)
    z0 = random_nulling_profile(rng, res.nulling_subspace().basis, 8)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": z0.tolist()}))
    out_path = tmp_path / "traj.json"
    code, out, _ = run(capsys, "simulate", str(CORPUS_DIR / "split_three_channel.json"),
                       "--initial", str(profile), "--steps", "20",
                       "--mode", "zeroing", "-o", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["findings"]["max_abs_output"] <= 1e-10 * max(1.0, np.abs(z0).max())
    assert doc["trajectory"]["steps"] == 20


@pytest.mark.parametrize("mode", ["open", "zeroing"])
def test_simulate_unallocatable_run_is_a_precondition_error(capsys, tmp_path, mode):
    # numpy refuses this many values before allocating anything
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": np.zeros((3, 4)).tolist()}))
    code, out, err = run(capsys, "simulate", str(CORPUS_DIR / "split_three_channel.json"),
                         "--initial", str(profile), "--mode", mode,
                         "--steps", "100000000000000000000")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("steps", ["-3", "-1", "2.5"])
def test_simulate_bad_steps_is_a_usage_error(capsys, tmp_path, steps):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": np.zeros((3, 4)).tolist()}))
    code, out, err = run(capsys, "simulate", str(CORPUS_DIR / "split_three_channel.json"),
                         "--initial", str(profile), "--steps", steps)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and "--steps" in err
    assert len(err.splitlines()) == 1


def test_simulate_profile_shape_error(capsys, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": [[1.0, 2.0]]}))
    code, _, err = run(capsys, "simulate", str(CORPUS_DIR / "split_three_channel.json"),
                       "--initial", str(profile))
    assert code == 2
    assert "z0" in err


def test_simulate_zeroing_outside_nulling_set_exit_code(capsys, tmp_path):
    profile = tmp_path / "ones.json"
    profile.write_text(json.dumps({"z0": np.ones((10, 4)).tolist()}))
    code, _, err = run(capsys, "simulate", str(CORPUS_DIR / "sparse_ten_channel.json"),
                       "--initial", str(profile), "--mode", "zeroing")
    assert code == 3
    assert err.startswith("error: ") and "projection distance" in err
    assert len(err.splitlines()) == 1


ALL_COMMANDS = ["validate", "split", "analyze", "zerodyn", "vstar", "zeros", "simulate"]

#: Every argument of every subcommand, ``-h`` aside.  A new flag is added
#: here on purpose, together with the command that reads it.
OPTIONS = {
    "validate": ["file", "--json"],
    "split": ["file", "--json", "-o/--output"],
    "analyze": ["file", "--json"],
    "zerodyn": ["file", "--json", "-o/--output"],
    "vstar": ["file", "--json"],
    "zeros": ["file", "--json"],
    "simulate": ["file", "--json", "--initial", "--steps", "--mode", "--format",
                 "-o/--output"],
}


def _argv(command, *extra):
    path = str(CORPUS_DIR / "split_three_channel.json")
    initial = ["--initial", "z0.json"] if command == "simulate" else []
    return [command, path, *initial, *extra]


def test_option_inventory_is_pinned():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {
        command: ["/".join(action.option_strings) or action.dest
                  for action in parser._actions
                  if not isinstance(action, argparse._HelpAction)]
        for command, parser in sub.choices.items()
    }
    assert options == OPTIONS


def test_no_src_module_reads_the_environment():
    """Nor does the test data: ``conftest.py`` seeds the ensembles with a
    constant."""
    src = Path(phzero.__file__).resolve().parent
    for path in [*sorted(src.glob("*.py")), Path(__file__).resolve().parent / "conftest.py"]:
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names.add(getattr(node, "attr", None) or getattr(node, "id", None)
                      or getattr(node, "name", None))
        assert not names & {"environ", "environb", "getenv", "getenvb"}, path.name


def _loads_scipy(cwd, *argv):
    """Runs ``phzero`` with ``argv`` in a fresh interpreter (only
    ``import phzero.cli`` when ``argv`` is empty) and tells whether
    ``scipy`` was imported."""
    src = str(Path(phzero.__file__).resolve().parent.parent)
    script = ("import sys\n"
              f"sys.path.insert(0, {src!r})\n"
              "import phzero.cli\n"
              "code = phzero.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "print(code, 'scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    code, loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return loaded == "True"


def test_scipy_loads_only_for_zeros_and_the_qz(tmp_path):
    """The staircase step reduces the index-one network in numpy; scipy
    serves ``zeros`` and pencils that need the ordered QZ, like the
    ring's."""
    network = str(CORPUS_DIR / "two_speed_network.json")
    profile = tmp_path / "z0.json"
    profile.write_text(json.dumps({"z0": np.zeros((3, 4)).tolist()}))
    assert not _loads_scipy(tmp_path)
    for command in ("validate", "split", "analyze", "zerodyn", "vstar"):
        assert not _loads_scipy(tmp_path, command, network, "--json"), command
    assert not _loads_scipy(tmp_path, "simulate", network, "--initial", str(profile),
                            "--mode", "zeroing")
    assert _loads_scipy(tmp_path, "zeros", network, "--json")
    assert _loads_scipy(tmp_path, "zerodyn", str(CORPUS_DIR / "ring_three_channel.json"), "--json")


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "abc"])
def test_nonpositive_tol_is_a_usage_error(capsys, tol):
    code, out, err = run(capsys, *_argv("analyze", "--tol", tol))
    assert code == 1
    assert out == ""
    assert err == f"usage error: unrecognized arguments: --tol {tol}\n"


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_tol_is_a_usage_error_where_nothing_reads_it(capsys, command):
    code, out, err = run(capsys, *_argv(command, "--tol", "1e-3"))
    assert code == 1
    assert out == ""
    assert err == "usage error: unrecognized arguments: --tol 1e-3\n"


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_tol_env_is_not_read_where_nothing_uses_it(capsys, monkeypatch, tmp_path, command):
    profile = tmp_path / "z0.json"
    profile.write_text(json.dumps({"z0": np.zeros((3, 4)).tolist()}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PHZERO_TOL", "abc")
    code, _, err = run(capsys, *_argv(command))
    assert code == 0, err


def test_seed_flag_is_gone(capsys):
    code, out, err = run(capsys, "analyze", str(CORPUS_DIR / "ring_three_channel.json"),
                         "--seed", "7")
    assert code == 1
    assert out == ""
    assert err == "usage error: unrecognized arguments: --seed 7\n"


@pytest.mark.parametrize(
    "z0",
    [[["a", 1.0]] * 3, [[1.0, 2.0], [3.0], [4.0, 5.0]], [[float("nan"), 1.0]] * 3],
    ids=["non-numeric", "ragged", "non-finite"],
)
def test_simulate_unreadable_profile_is_a_schema_error(capsys, tmp_path, z0):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": z0}))
    code, _, err = run(capsys, "simulate", str(CORPUS_DIR / "split_three_channel.json"),
                       "--initial", str(profile))
    assert code == 2
    assert err.startswith("error: field 'z0'")
    assert len(err.splitlines()) == 1


def _zeroing_profile(system, cells, seed):
    from ensembles import random_nulling_profile
    from phzero.zerodyn import reduce as zd_reduce

    return random_nulling_profile(np.random.default_rng(seed),
                                  zd_reduce(system).nulling_subspace().basis, cells)


def test_simulate_json_export_is_compact_sorted_and_exact(capsys, tmp_path):
    from phzero import simulate_zeroing
    from phzero.zerodyn import reduce as zd_reduce

    path = str(CORPUS_DIR / "sparse_ten_channel.json")
    system = load_system(path)
    z0 = _zeroing_profile(system, 6, 11)
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": z0.tolist()}))
    argv = ["simulate", path, "--initial", str(profile), "--steps", "7", "--mode", "zeroing"]
    texts = []
    for name in ("a.json", "b.json"):
        code, _, err = run(capsys, *argv, "-o", str(tmp_path / name))
        assert code == 0, err
        texts.append((tmp_path / name).read_text(encoding="utf-8"))
    code, out, err = run(capsys, *argv)
    assert code == 0 and "max |y|" in err
    texts.append(out)
    assert texts[0] == texts[1] == texts[2]
    text = texts[0]
    assert text.endswith("\n") and text.count("\n") == 1
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    tr = simulate_zeroing(system, zd_reduce(system), z0, steps=7)
    for key, arr in (("states", tr.states), ("inputs", tr.inputs), ("outputs", tr.outputs)):
        assert np.array_equal(np.asarray(doc["trajectory"][key]), arr)
    assert doc["findings"] == {"canonicalized": False, "mode": "zeroing", "steps": 7,
                               "grid_n": 6, "max_abs_output": tr.max_output()}
    assert set(doc) == {"command", "findings", "inputs", "trajectory", "versions"}
    assert set(doc["trajectory"]) == {"grid_n", "inputs", "max_abs_output", "outputs",
                                      "p", "states", "steps"}


def test_simulate_csv_export_matches_rows(capsys, tmp_path):
    from phzero import simulate
    from phzero.canonicalize import reflect_positive, split_commensurate

    path = str(CORPUS_DIR / "two_speed_network.json")
    system = split_commensurate(reflect_positive(load_system(path)))
    z0 = np.random.default_rng(3).uniform(-1, 1, (system.n, 5))
    z0[0, 0] = -0.0
    z0[1, 1] = 1e16
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": z0.tolist()}))
    code, out, _ = run(capsys, "simulate", path, "--initial", str(profile), "--steps", "4",
                       "--format", "csv")
    assert code == 0
    tr = simulate(system, z0, None, steps=4)
    rows = ["kind,step,cell,channel,value"]
    rows += [f"{k},{s},{c},{ch},{v!r}" for k, s, c, ch, v in tr.rows()]
    assert out == "\n".join(rows) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_file_and_stdout_exports_are_the_same_bytes(capsys, tmp_path, fmt):
    path = str(CORPUS_DIR / "two_speed_network.json")
    z0 = np.random.default_rng(4).uniform(-1, 1, (3, 5))
    z0[0, :2] = [-0.0, 0.0]
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": z0.tolist()}))
    argv = ["simulate", path, "--initial", str(profile), "--steps", "6", "--format", fmt]
    out_path = tmp_path / f"traj.{fmt}"
    code, _, err = run(capsys, *argv, "-o", str(out_path))
    assert code == 0, err
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out.encode("utf-8") == out_path.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_simulate_nonfinite_trajectory_exits_4(capsys, tmp_path, fmt, to_file):
    system = tmp_path / "diverging.json"
    system.write_text(json.dumps({"n": 1, "m": 1, "travel_time": 1.0, "K0": [], "L0": [],
                                  "Ku": [[1.0]], "Lu": [[-1e200]], "Ky": [[0.0]], "Ly": [[1.0]]}))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": [[1.0, 2.0]]}))
    out_path = tmp_path / f"traj.{fmt}"
    argv = ["simulate", str(system), "--initial", str(profile), "--steps", "3",
            "--format", fmt, "--json"] + (["-o", str(out_path)] if to_file else [])
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert not out_path.exists()
    assert err.startswith("internal error: ") and "non-finite at step 2" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag,value,error", [
    ("--steps", "abc", "argument --steps: expected a non-negative integer, got 'abc'"),
    # --grid is gone (z0 fixes the cell count), so a value its own check used to
    # refuse is now refused with the flag; the ids quote that old complaint
    ("--grid", "-3", "unrecognized arguments: --grid -3"),
    ("--grid", "0", "unrecognized arguments: --grid 0"),
    ("--grid", "2.5", "unrecognized arguments: --grid 2.5"),
], ids=[
    "--steps-abc-expected a non-negative integer, got 'abc'",
    "--grid--3-expected a positive integer, got '-3'",
    "--grid-0-expected a positive integer, got '0'",
    "--grid-2.5-expected a positive integer, got '2.5'",
])
def test_simulate_bad_flag_values_are_plain_usage_errors(capsys, tmp_path, flag, value, error):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": np.zeros((3, 4)).tolist()}))
    code, out, err = run(capsys, "simulate", str(CORPUS_DIR / "split_three_channel.json"),
                         "--initial", str(profile), flag, value)
    assert code == 1
    assert out == ""
    assert err == f"usage error: {error}\n"


@pytest.mark.parametrize("flag,value", [("--feedback", "friend")])
def test_removed_simulate_flags_are_usage_errors(capsys, tmp_path, flag, value):
    # friend feedback is a library route only
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"z0": np.zeros((3, 4)).tolist()}))
    code, out, err = run(capsys, "simulate", str(CORPUS_DIR / "split_three_channel.json"),
                         "--initial", str(profile), flag, value)
    assert code == 1
    assert out == ""
    assert err == f"usage error: unrecognized arguments: {flag} {value}\n"
