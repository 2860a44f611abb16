"""The three benchmark workloads.

A workload generates its inputs once (``prepare``), then yields the same
cycle of operations again and again (``cycle``).  An operation is one
system taken through the workload's call sequence, or one CLI call.  Its
outputs are checked by ``check`` right after it ran, outside its timer.
With a :class:`~tracing.Tracer` every call into the package is a span
named ``<module>.<function>``, and ``layer_metrics`` folds the spans into
the per-layer metrics.
"""

import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import phzero as pz
from phzero import cli as pz_cli
from phzero import model as pz_model

import checks
import inputs

#: Per-layer time metrics: metric name -> span names summed per operation.
LAYER_TIMES = {
    "model.load_s": ("model.load_system",),
    "model.serialize_s": ("model.serialize",),
    "canonicalize.split_s": ("canonicalize.reflect_positive", "canonicalize.split_commensurate"),
    "analysis.discretize_s": ("analysis.discrete_reduce",),
    "analysis.stability_s": ("analysis.is_exponentially_stable",),
    "analysis.zeros_s": ("analysis.scan_zeros",),
    "zerodyn.reduce_s": ("zerodyn.reduce",),
    "zerodyn.vstar_s": ("zerodyn.vstar_discrete",),
    "sim.zeroing_reduction_s": ("sim.simulate_zeroing.reduction",),
    "sim.zeroing_friend_s": ("sim.simulate_zeroing.friend",),
}

#: Per-layer failure counts: metric name -> check names counted per cycle.
LAYER_FAILURES = {
    "analysis.zeros_failed": ("zeros",),
    "zerodyn.reduce_failed": ("reduce",),
    "sim.failed": ("closed_loop.reduction", "closed_loop.friend"),
}


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[Any], Any]
    case: Any = None


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Workload:
    """Seed, input directory and the counters the per-layer metrics read;
    the counters only grow in ``check``, so warm-up is not counted."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.eliminations = 0
        self.cell_steps = 0
        self.bytes_out = 0


class InProcessWorkload(Workload):
    """Shared call sequence of ``siso-reduce`` and ``ring-network``: load,
    analysis, reduction, V*, then closed-loop runs in ``modes``."""

    modes: tuple = ()
    steps = 0
    scan_zeros = False

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.rng = np.random.default_rng([seed, 11])
        self._refs: dict[Path, dict] = {}

    def cases(self) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        self._cases = self.cases()

    def cycle(self, tracer) -> list[Op]:
        return [Op(c.path.stem, self._run, c) for c in self._cases]

    def _run(self, case, t) -> dict:
        s = t.call("model.load_system", pz.load_system, case.path)
        out = {"sys": s}
        out["well_posed"] = t.call("analysis.check_well_posed", pz.check_well_posed, s)
        t.call("analysis.discrete_reduce", pz.discrete_reduce, s)
        out["stability"] = t.call("analysis.is_exponentially_stable", pz.is_exponentially_stable, s)
        out["reduce"] = t.call("zerodyn.reduce", pz.reduce, s)
        out["vstar"] = t.call("zerodyn.vstar_discrete",
                              lambda: pz.vstar_discrete(*pz.output_nulling_stacks(s)))
        if self.scan_zeros:
            out["zeros"] = t.call("analysis.scan_zeros", pz.scan_zeros, s)
        for mode in self.modes:
            out[mode] = t.call(f"sim.simulate_zeroing.{mode}", pz.simulate_zeroing,
                               s, out["reduce"], case.z0, steps=self.steps, mode=mode)
        return out

    def _reference(self, case, s) -> dict:
        """Independent reference values of a case, computed once."""
        if case.path not in self._refs:
            m = case.matrices
            self._refs[case.path] = {
                "count": checks.finite_eig_count(m),
                "radius": checks.spectral_radius(m),
                "zeros": checks.certified_zeros(s, m) if self.scan_zeros else None,
            }
        return self._refs[case.path]

    def check(self, op: Op, out: dict) -> list[checks.Verdict]:
        case, m = op.case, op.case.matrices
        ref = self._reference(case, out["sys"])
        basis, expected = case.vstar_basis, case.expected_order
        red = checks.check_reduce(out["reduce"], ref["count"], basis, expected)
        verdicts = [
            checks.check_load(out["sys"], m),
            checks.check_well_posed(out["well_posed"], m),
            checks.check_stability(*out["stability"], ref["radius"]),
            red,
            checks.check_vstar(out["vstar"], ref["count"], basis, expected),
        ]
        if self.scan_zeros:
            verdicts.append(checks.check_zeros(out["zeros"], m, self.rng, ref["zeros"]))
        for mode in self.modes:
            v = checks.check_closed_loop(f"closed_loop.{mode}", out[mode], case.z0)
            if not v.ok and mode == "reduction" and red.fault:
                # a closed loop built on a reduction of the wrong order
                v = replace(v, fault=red.fault)
            verdicts.append(v)
            self.cell_steps += out[mode].states[1:].size
        self.eliminations += len(out["reduce"].transform_chain)
        return verdicts


class SisoReduce(InProcessWorkload):
    scan_zeros = True

    def cases(self):
        return inputs.siso_cases(self.seed, self.workdir)


class RingNetwork(InProcessWorkload):
    modes = ("reduction", "friend")
    steps = inputs.RING_STEPS

    def cases(self):
        return inputs.ring_cases(self.seed, self.workdir)


def _env() -> dict:
    env = dict(os.environ)
    src = str(Path(pz.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_process_seconds(code: str, repeats: int = 3) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=_env(), check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CliExport(Workload):
    """Fresh-process ``phzero`` calls on a multirate two-speed document,
    one at a time.  Traced, each cycle also replays the same calls
    in-process through the package's public functions (spans per layer)
    and through ``cli.main``."""

    KINDS = ("simulate_json", "simulate_csv", "zerodyn")

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._verified: dict[str, str] = {}
        self._arrays = None
        self._zerodyn_result = None

    def prepare(self) -> None:
        self.case = inputs.two_speed_case(self.seed, self.workdir)
        sys_path, prof = str(self.case.system_path), str(self.case.profile_path)
        sim = ["simulate", sys_path, "--initial", prof, "--mode", "zeroing"]
        self.argv = {
            "simulate_json": sim + ["--steps", str(inputs.CLI_JSON_STEPS), "--format", "json"],
            "simulate_csv": sim + ["--steps", str(inputs.CLI_CSV_STEPS), "--format", "csv"],
            "zerodyn": ["zerodyn", sys_path, "--json"],
        }
        self.env = _env()

    def _out_path(self, kind: str, route: str) -> Path | None:
        suffix = {"simulate_json": "json", "simulate_csv": "csv"}.get(kind)
        return self.workdir / f"{route}_{kind}.{suffix}" if suffix else None

    def _argv(self, kind: str, route: str) -> list[str]:
        path = self._out_path(kind, route)
        return self.argv[kind] + (["-o", str(path)] if path else [])

    def cycle(self, tracer) -> list[Op]:
        ops = [Op(f"fresh.{k}", self._fresh, k) for k in self.KINDS]
        if tracer.enabled:
            ops += [Op(f"replay.{k}", self._replay, k) for k in self.KINDS]
            ops += [Op(f"main.{k}", self._main, k) for k in self.KINDS]
        return ops

    # -- the three routes ------------------------------------------------

    def _fresh(self, kind: str, t) -> dict:
        proc = subprocess.run(
            [sys.executable, "-m", "phzero.cli", *self._argv(kind, "fresh")],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def _main(self, kind: str, t) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pz_cli.main(self._argv(kind, "main"))
        return {"code": code, "stdout": buf.getvalue(), "stderr": ""}

    def _replay(self, kind: str, t) -> dict:
        """The public calls ``phzero simulate`` / ``phzero zerodyn`` make."""
        loaded = t.call("model.load_system", pz.load_system, self.case.system_path)
        reflected = t.call("canonicalize.reflect_positive", pz.reflect_positive, loaded)
        s = t.call("canonicalize.split_commensurate", pz.split_commensurate, reflected)
        res = t.call("zerodyn.reduce", pz.reduce, s)
        out = {"eliminations": len(res.transform_chain), "cell_steps": 0}
        if kind == "zerodyn":
            fk, fl = res.input_functional_original()
            doc = t.call("model.serialize", pz_model.result_doc, res)
            payload = t.call("model.serialize", pz_model.dumps, {
                "result": doc,
                "input_on_original_traces": {"incoming": fk.tolist(), "outgoing": fl.tolist()},
            })
            return {**out, "bytes": len(payload), "result": doc}
        steps = inputs.CLI_JSON_STEPS if kind == "simulate_json" else inputs.CLI_CSV_STEPS
        traj = t.call("sim.simulate_zeroing.reduction", pz.simulate_zeroing,
                      s, res, self.case.z0_split, steps=steps, mode="reduction")
        out["cell_steps"] = traj.states[1:].size
        if kind == "simulate_json":
            payload = t.call("model.serialize", lambda: pz_model.dumps(
                {"trajectory": traj.to_doc()}))
        else:
            payload = t.call("model.serialize", lambda: "\n".join(
                ["kind,step,cell,channel,value"]
                + [f"{k},{st},{c},{ch},{v!r}" for k, st, c, ch, v in traj.rows()]) + "\n")
        return {**out, "bytes": len(payload), "traj": traj, "payload": payload}

    # -- checks ----------------------------------------------------------

    def _export_text(self, kind: str, route: str, out: dict) -> str:
        path = self._out_path(kind, route)
        return path.read_text(encoding="utf-8") if path else out["stdout"]

    def check(self, op: Op, out: dict) -> list[checks.Verdict]:
        route, kind = op.kind.split(".")
        name = f"{route}.{kind}"
        if route == "replay":
            self.eliminations += out["eliminations"]
            self.cell_steps += out["cell_steps"]
            self.bytes_out += out["bytes"]
            return [self._check_replay(name, kind, out)]
        if out["code"] != 0:
            return [checks.Verdict(name, False, f"exit {out['code']}: {out['stderr'][-300:]}")]
        text = self._export_text(kind, route, out)
        digest = _sha(text)
        if kind in self._verified:
            same = digest == self._verified[kind]
            return [checks.Verdict(name, same, "" if same else "output differs from the "
                                   "verified output of the same call (not byte-identical)")]
        if route != "fresh":
            return [checks.Verdict(name, False, "no verified fresh-process output yet")]
        if kind == "simulate_json":
            verdict, self._arrays = checks.check_json_export(self.case, text)
        elif kind == "simulate_csv":
            verdict = checks.check_csv_export(text, self._arrays)
        else:
            verdict = checks.check_zerodyn_report(self.case, text)
        if verdict.ok:
            self._verified[kind] = digest
            if kind == "zerodyn":
                self._zerodyn_result = json.loads(text)["findings"]["result"]
        return [replace(verdict, name=name)]

    def _check_replay(self, name: str, kind: str, out: dict) -> checks.Verdict:
        if kind not in self._verified:
            return checks.Verdict(name, False, "no verified fresh-process output yet")
        if kind == "zerodyn":
            ok = json.loads(pz_model.dumps(out["result"])) == self._zerodyn_result
            return checks.Verdict(name, ok, "reduction result differs from the CLI's")
        if kind == "simulate_csv":
            ok = _sha(out["payload"]) == self._verified[kind]
            return checks.Verdict(name, ok, "CSV differs from the CLI's")
        traj = out["traj"]
        ok = all(np.array_equal(arr, self._arrays[k]) for k, arr in
                 (("state", traj.states), ("input", traj.inputs), ("output", traj.outputs)))
        return checks.Verdict(name, ok, "trajectory differs from the CLI's")


def layer_metrics(wl, tracer, records: list, verdicts: list, cycles: int) -> dict:
    """Per-layer metrics of a traced run.

    ``records`` holds ``(op_id, kind, seconds)`` per timed operation.  A
    time is the median, over the operations that call the layer, of the
    layer's summed span time in the operation (0 when no operation of the
    workload calls it); a count is per cycle.
    """
    per_op = tracer.durations_by_op()
    out = {}
    for metric, names in LAYER_TIMES.items():
        values = [sum(d[n] for n in names if n in d) for d in per_op.values()
                  if any(n in d for n in names)]
        out[metric] = (_median(values), "s")
    for metric, names in LAYER_FAILURES.items():
        failed = sum(1 for v in verdicts if not v.ok and v.name in names)
        out[metric] = (failed / cycles, "count")
    sim_time = sum(d.get(n, 0.0) for d in per_op.values()
                   for n in LAYER_TIMES["sim.zeroing_reduction_s"] + LAYER_TIMES["sim.zeroing_friend_s"])
    out["sim.cell_steps_per_s"] = (wl.cell_steps / sim_time if sim_time else 0.0, "1/s")
    out["zerodyn.eliminations"] = (wl.eliminations / cycles, "count")
    out["model.bytes_out"] = (wl.bytes_out / cycles, "B")
    for kind in CliExport.KINDS:
        out[f"cli.{kind}_s"] = (_median(s for _, k, s in records if k == f"fresh.{kind}"), "s")
    out["cli.main_s"] = (_median(s for _, k, s in records if k.startswith("main.")), "s")
    startup = fresh_process_seconds("pass")
    out["cli.startup_s"] = (startup, "s")
    out["cli.import_s"] = (fresh_process_seconds("import phzero.cli") - startup, "s")
    return out
