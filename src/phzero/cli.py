"""Command-line front end.

Subcommands::

    validate <file>                     loadability + well-posedness findings
    split <file> [-o out]               uniform-travel-time system file
    analyze <file>                      well-posedness, feedthrough, traversal
                                        quadruple, spectral radius, stability
    zerodyn <file> [-o out]             zero-dynamics reduction report
    vstar <file>                        output-nulling subspace basis
    zeros <file>                        transmission zeros (w roots, s values)
    simulate <file> --initial F [...]   trajectory export + max |y| summary

Exit codes: 0 success, 1 usage, 2 schema/parse error, 3 precondition
failure (ill-posed, unsupported, singular zero pencil, or a simulation
too large for memory), 4 internal assertion or a simulated trajectory
that goes non-finite.
Machine-readable reports (``--json``) are byte-identical for identical
inputs and flags.  Every rank decision uses
:data:`phzero.linalg.DEFAULT_TOL`, so a report depends only on its input
files, its flags and the version; no environment variable is read.

``simulate`` writes its export to ``-o`` or to stdout (the summary then
goes to stderr).  ``--format json`` is the report plus a ``trajectory``
object on one line with sorted keys; ``--format csv`` is one
``kind,step,cell,channel,value`` line per sample
(:meth:`phzero.sim.Trajectory.csv_chunks`).
"""

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, canonicalize, linalg, model, sim, zerodyn
from .errors import (
    ConsistencyError,
    IllPosedError,
    ReductionError,
    SchemaError,
    SingularMatrixError,
    UnsupportedSystemError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCHEMA = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _report(command: str, inputs: dict, findings: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "findings": findings,
        "versions": {"tool": __version__, "schema": model.SCHEMA_VERSION},
    }


def _emit(report: dict, as_json: bool, human_lines) -> None:
    if as_json:
        sys.stdout.write(model.dumps(report))
    else:
        for line in human_lines:
            print(line)


def _matrix_lines(name: str, mat: np.ndarray):
    yield f"{name} ="
    for row in np.atleast_2d(mat):
        yield "    [" + ", ".join(f"{v:.12g}" for v in row) + "]"


def _load_uniform(path: str) -> tuple[model.PHSystem, bool]:
    """Load a system file; multirate documents are canonicalized."""
    loaded = model.load_system(path)
    if isinstance(loaded, model.PHSystem):
        return loaded, False
    return canonicalize.split_commensurate(canonicalize.reflect_positive(loaded)), True


def _cmd_validate(args) -> int:
    sys_loaded, canonicalized = _load_uniform(args.file)
    findings = model.validate(sys_loaded)
    doc = _report(
        "validate",
        {args.file: _digest(args.file)},
        {"findings": findings, "canonicalized": canonicalized, "loadable": True},
    )
    lines = [f"loaded {args.file} (n={sys_loaded.n}, m={sys_loaded.m})"]
    lines += [f"finding: {f}" for f in findings]
    if not findings:
        lines.append("ok: loadable and well-posed")
    _emit(doc, args.json, lines)
    return EXIT_OK if not findings else EXIT_PRECONDITION


def _cmd_split(args) -> int:
    uniform, _ = _load_uniform(args.file)
    out_doc = model.system_doc(uniform)
    if args.output:
        model.save_system(uniform, args.output)
    doc = _report(
        "split",
        {args.file: _digest(args.file)},
        {"n": uniform.n, "m": uniform.m, "travel_time": uniform.p, "system": out_doc},
    )
    lines = [f"uniform system: n={uniform.n}, m={uniform.m}, travel_time={uniform.p}"]
    if args.output:
        lines.append(f"wrote {args.output}")
    else:
        lines.extend(model.dumps(out_doc).splitlines())
    _emit(doc, args.json, lines)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    system, canonicalized = _load_uniform(args.file)
    if not analysis.check_well_posed(system):
        doc = _report(
            "analyze", {args.file: _digest(args.file)},
            {"well_posed": False, "canonicalized": canonicalized},
        )
        _emit(doc, args.json, ["well_posed: false (boundary matrix singular)"])
        return EXIT_PRECONDITION
    d = analysis.discrete_reduce(system)
    e = d.Dd
    stable, radius = analysis.is_exponentially_stable(d)
    sigma = linalg.two_norm(d.Ad)
    findings = {
        "well_posed": True,
        "canonicalized": canonicalized,
        "n": system.n,
        "m": system.m,
        "travel_time": system.p,
        "feedthrough": e.tolist(),
        "feedthrough_invertible": bool(e.size and linalg.is_invertible(e, 1e8)),
        "Ad": d.Ad.tolist(),
        "Bd": d.Bd.tolist(),
        "Cd": d.Cd.tolist(),
        "Dd": d.Dd.tolist(),
        "spectral_radius": radius,
        "sigma_max": sigma,
        "exponentially_stable": stable,
    }
    doc = _report("analyze", {args.file: _digest(args.file)}, findings)
    lines = [
        f"well_posed: true (n={system.n}, m={system.m}, travel_time={system.p})",
        *_matrix_lines("feedthrough E", e),
        f"spectral_radius(Ad) = {radius:.12g}   sigma_max(Ad) = {sigma:.12g}",
        f"exponentially_stable: {str(stable).lower()}",
    ]
    _emit(doc, args.json, lines)
    return EXIT_OK


def _cmd_zerodyn(args) -> int:
    system, canonicalized = _load_uniform(args.file)
    result = zerodyn.reduce(system)
    fk, fl = result.input_functional_original()
    res_doc = model.result_doc(result)
    if args.output:
        model.save_result(result, args.output)
    findings = {
        "canonicalized": canonicalized,
        "result": res_doc,
        "input_on_original_traces": {"incoming": fk.tolist(), "outgoing": fl.tolist()},
    }
    doc = _report("zerodyn", {args.file: _digest(args.file)}, findings)
    lines = [
        f"reduced order k = {result.k} of n = {system.n}"
        + (" (full state space)" if result.full_state else ""),
        f"eliminations: {result.constraints.shape[0]}  "
        f"deflation residual: {result.deflation_residual:.3e}",
        *_matrix_lines("Kw", result.Kw),
        *_matrix_lines("Lw", result.Lw),
        *_matrix_lines("constraints (unit rows, vanish on the zero dynamics)", result.constraints),
        *_matrix_lines("zeroing input, incoming-trace part", fk),
        *_matrix_lines("zeroing input, outgoing-trace part", fl),
    ]
    if args.output:
        lines.append(f"wrote {args.output}")
    _emit(doc, args.json, lines)
    return EXIT_OK


def _load_well_posed(path: str) -> tuple[model.PHSystem, bool]:
    """:func:`_load_uniform` that refuses an ill-posed system as ``reduce`` does."""
    system, canonicalized = _load_uniform(path)
    if not analysis.check_well_posed(system):
        raise IllPosedError("boundary matrix [K0; Ku] is singular")
    return system, canonicalized


def _cmd_vstar(args) -> int:
    system, canonicalized = _load_well_posed(args.file)
    v = zerodyn.vstar_discrete(*analysis.output_nulling_stacks(system))
    doc = _report(
        "vstar",
        {args.file: _digest(args.file)},
        {"canonicalized": canonicalized, "dim": v.dim, "basis": v.basis.tolist()},
    )
    lines = [f"output-nulling subspace dimension: {v.dim} (ambient {v.ambient_dim})"]
    lines += _matrix_lines("orthonormal basis (columns)", v.basis)
    _emit(doc, args.json, lines)
    return EXIT_OK


def _cmd_zeros(args) -> int:
    system, canonicalized = _load_well_posed(args.file)
    scan = analysis.scan_zeros(system)
    findings = {
        "canonicalized": canonicalized,
        "identically_zero": scan.identically_zero,
        "w_roots": [[z.real, z.imag] for z in scan.w_roots],
        "s_values": [[z.real, z.imag] for z in scan.s_values],
        "s_period_imag": scan.s_period,
    }
    doc = _report("zeros", {args.file: _digest(args.file)}, findings)
    if scan.identically_zero:
        lines = ["det G identically zero: the transfer matrix is singular at every s"]
    elif not scan.w_roots:
        lines = ["no transmission zeros"]
    else:
        lines = [f"{len(scan.w_roots)} transmission zero(s); the s list repeats "
                 f"with period {scan.s_period:.12g}i"]
        for w, s in zip(scan.w_roots, scan.s_values):
            lines.append(f"  w = {w.real:.12g}{w.imag:+.12g}i   s = {s.real:.12g}{s.imag:+.12g}i")
    _emit(doc, args.json, lines)
    return EXIT_OK


def _load_profile(path: str, n: int) -> np.ndarray:
    doc = model._load_json(path)
    if "z0" not in doc:
        raise SchemaError(f"{path}: expected an object with field 'z0'")
    z0 = model._float_array(doc["z0"], "z0")
    if z0.ndim != 2 or z0.shape[0] != n:
        raise SchemaError(f"field 'z0': expected {n} rows, got shape {z0.shape}")
    return z0


def _cmd_simulate(args) -> int:
    system, canonicalized = _load_uniform(args.file)
    z0 = _load_profile(args.initial, system.n)
    # a diverging run is reported below, once, instead of by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if args.mode == "open":
            trajectory = sim.simulate(system, z0, u=None, steps=args.steps)
        else:
            result = zerodyn.reduce(system)
            trajectory = sim.simulate_zeroing(system, result, z0, steps=args.steps)
    bad_step = trajectory.first_nonfinite_step()
    if bad_step is not None:
        raise ConsistencyError(
            f"the trajectory goes non-finite at step {bad_step} "
            f"(the run diverges); nothing was exported"
        )
    findings = {
        "canonicalized": canonicalized,
        "mode": args.mode,
        "max_abs_output": trajectory.max_output(),
        "steps": trajectory.steps,
        "grid_n": trajectory.grid_n,
    }
    doc = _report("simulate", {args.file: _digest(args.file),
                               args.initial: _digest(args.initial)}, findings)
    if args.format == "json":
        # the report's keys sort before and after "trajectory", whose
        # compact JSON is streamed in between
        head, tail = model.dumps({**doc, "trajectory": None}, compact=True).rsplit(
            '"trajectory":null', 1)
        chunks = itertools.chain((head, '"trajectory":'), trajectory.json_chunks(), (tail,))
    else:
        chunks = trajectory.csv_chunks()
    lines = [f"simulated {trajectory.steps} traversals on {trajectory.grid_n} cells "
             f"({args.mode} loop)",
             f"max |y| = {trajectory.max_output():.12g}"]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(chunks)
        lines.append(f"wrote {args.output}")
        _emit(doc, args.json, lines)
    else:
        # the export itself is the stdout payload; summary goes to stderr
        sys.stdout.writelines(chunks)
        for line in lines:
            print(line, file=sys.stderr)
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    # argparse words a ValueError from a ``type`` by the function's name,
    # so this raises ArgumentTypeError with the whole message instead
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="phzero", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"phzero {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="system document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable report on stdout")
        return p

    common(sub.add_parser("validate", help="check loadability and well-posedness"))
    p = common(sub.add_parser("split", help="rewrite as a uniform-travel-time network"))
    p.add_argument("-o", "--output", help="write the uniform system document here")
    common(sub.add_parser("analyze", help="well-posedness, feedthrough, stability"))
    p = common(sub.add_parser("zerodyn", help="construct the zero dynamics"))
    p.add_argument("-o", "--output", help="write the reduction result document here")
    common(sub.add_parser("vstar", help="output-nulling subspace"))
    common(sub.add_parser("zeros", help="transmission zeros"))
    p = common(sub.add_parser("simulate", help="exact characteristics simulation"))
    p.add_argument("--initial", required=True, help="initial profile document (JSON with 'z0')")
    p.add_argument("--steps", type=_nonnegative_int, default=20,
                   help="traversals to simulate")
    p.add_argument("--mode", choices=["open", "zeroing"], default="open")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("-o", "--output", help="write the trajectory export here")
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "split": _cmd_split,
    "analyze": _cmd_analyze,
    "zerodyn": _cmd_zerodyn,
    "vstar": _cmd_vstar,
    "zeros": _cmd_zeros,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (IllPosedError, UnsupportedSystemError, ReductionError, SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ConsistencyError, np.linalg.LinAlgError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
