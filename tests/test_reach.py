"""Every function defined in ``src/phzero`` serves a command.

The commands run in-process through :func:`phzero.cli.main` under
:func:`sys.setprofile`: every corpus document through each report
command, in text and ``--json``; the ``-o`` writers; ``simulate`` in
both modes, both formats and both feedbacks, to stdout and to a file;
the singular-pencil document of ``test_cli.py``; and an ill-posed
document, a malformed one, a usage error and a diverging run.  The
functions no call reaches must be exactly :data:`ALLOWED_UNREACHED`,
each with its reason.  A function that loses its last command fails the
test until it is deleted, moved to ``tests/`` or listed; an entry that
becomes reachable fails it too, so the list never goes stale.
"""

import ast
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

import phzero
from phzero.cli import main

from conftest import CORPUS_DIR, build_split
from ensembles import random_nulling_profile
from test_cli import SILENT_DOC

SRC_DIR = Path(phzero.__file__).resolve().parent

_ITEM_12 = "port-Hamiltonian documents have no loader or command yet (ROADMAP item 12)"

ALLOWED_UNREACHED = {
    "analysis.is_transmission_zero":
        "perfbench's checks.certified_zeros and scripts/run_examples.py call it; "
        "ROADMAP item 2 decides its fate",
    "sim.Trajectory.rows": "perfbench's traced replay calls it (ROADMAP item 4)",
    "sim.Trajectory.to_doc": "perfbench's traced replay calls it (ROADMAP item 4)",
    "model.load_result":
        "the library reader of the document that `zerodyn -o` writes (README, Library)",
    "canonicalize.diagonalize_constant": _ITEM_12,
    "canonicalize._symmetric_sqrt": _ITEM_12,
    "canonicalize.split_initial_profile": _ITEM_12,
    "model.RawConstantSystem.__post_init__": _ITEM_12,
    "model.RawConstantSystem.n": _ITEM_12,
}


def src_defs() -> dict:
    """``{(file, first line): "module.qualified.name"}`` of every function,
    method and nested function in ``src/phzero``.

    The first line is that of the first decorator if there is one, which
    is the ``co_firstlineno`` of the compiled def.
    """
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(str(path), first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC_DIR.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return defs


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def command_runs(tmp: Path):
    """The ``(argv, expected exit code)`` pairs the test drives."""
    runs = []
    for doc in sorted(CORPUS_DIR.glob("*.json")):
        for command in ("validate", "split", "analyze", "zerodyn", "vstar", "zeros"):
            runs += [([command, str(doc)], 0), ([command, str(doc), "--json"], 0)]
    runs += [(["split", str(CORPUS_DIR / "two_speed_network.json"),
               "-o", str(tmp / "uniform.json")], 0),
             (["zerodyn", str(CORPUS_DIR / "split_three_channel.json"),
               "-o", str(tmp / "result.json")], 0)]

    split = build_split()
    nulling = phzero.reduce(split).nulling_subspace().basis
    rng = np.random.default_rng(0)
    profiles = {
        "open": _write(tmp / "open.json", {"z0": rng.uniform(-1, 1, (3, 4)).tolist()}),
        "zeroing": _write(tmp / "zeroing.json",
                          {"z0": random_nulling_profile(rng, nulling, 4).tolist()}),
    }
    split_doc = str(CORPUS_DIR / "split_three_channel.json")
    for mode, profile in profiles.items():
        for fmt in ("json", "csv"):
            argv = ["simulate", split_doc, "--initial", profile, "--steps", "3",
                    "--mode", mode, "--format", fmt]
            runs += [(argv, 0), (argv + ["-o", str(tmp / f"trajectory-{mode}.{fmt}")], 0)]
    runs.append((["simulate", split_doc, "--initial", profiles["zeroing"], "--steps", "3",
                  "--mode", "zeroing", "--feedback", "friend"], 0))

    silent = _write(tmp / "silent.json", SILENT_DOC)
    for command, code in (("zerodyn", 3), ("vstar", 0), ("zeros", 0)):
        runs += [([command, silent], code), ([command, silent, "--json"], code)]

    ill = phzero.model.system_doc(split)
    ill["Ku"], ill["Lu"] = ill["K0"][:1], ill["L0"][:1]
    ill = _write(tmp / "ill.json", ill)
    runs += [([command, ill], 3) for command in ("validate", "analyze", "zerodyn")]
    broken = tmp / "broken.json"
    broken.write_text('{"n": 3,', encoding="utf-8")
    runs += [(["validate", str(broken)], 2), (["frobnicate"], 1)]
    diverging = _write(tmp / "diverging.json", {
        "n": 1, "m": 1, "travel_time": 1.0, "K0": [], "L0": [],
        "Ku": [[1.0]], "Lu": [[-1e200]], "Ky": [[0.0]], "Ly": [[1.0]]})
    one = _write(tmp / "one.json", {"z0": [[1.0, 2.0]]})
    runs.append((["simulate", diverging, "--initial", one, "--steps", "3"], 4))
    return runs


def reached_lines(runs) -> set:
    """``(file, co_firstlineno)`` of every Python function entered while
    ``main`` runs ``runs``; asserts each run's exit code."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    for argv, expected in runs:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
            sys.setprofile(profile)
            try:
                code = main(argv)
            finally:
                sys.setprofile(previous)
        assert code == expected, (argv, code, err.getvalue())
    return {(str(Path(name).resolve()), line) for name, line in seen}


def test_every_src_function_serves_a_command(tmp_path):
    defs = src_defs()
    assert len(set(defs.values())) == len(defs)  # no name stands for two defs
    reached = reached_lines(command_runs(tmp_path))
    unreached = {name for key, name in defs.items() if key not in reached}
    assert unreached == set(ALLOWED_UNREACHED)
