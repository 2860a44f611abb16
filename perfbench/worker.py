"""One benchmark process, started by ``run.py``.

It imports the package from the checkout's ``src``, generates the
workload's inputs, runs one untimed warm-up cycle and prints ``READY``.
Unless ``--setup-only`` is given it then times whole cycles until
``--seconds`` have been measured, checks every output right after its
operation (outside the timer), runs the reference kernel after that, and
prints one JSON line with the counts, the metrics and a record of the run.
End-to-end times are scaled to reference speed cycle by cycle (see
``reference.py``).
"""

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "siso-reduce": workloads.SisoReduce,
    "ring-network": workloads.RingNetwork,
    "cli-export": workloads.CliExport,
}

OUT = Path(__file__).resolve().parent / "out"


def _peak_rss_mb(workload: str) -> float:
    # cli-export: the largest CLI child; otherwise this process
    who = resource.RUSAGE_CHILDREN if workload == "cli-export" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run(args) -> dict:
    workdir = OUT / "inputs" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.prepare()
    plain = tracing.NullTracer()
    for op in wl.cycle(plain):
        op.run(op.case, plain)
    reference.kernel()
    print("READY", flush=True)
    if args.setup_only:
        return {}

    tracer = tracing.Tracer() if args.trace else plain
    records, verdicts, cycle_times, factors = [], [], [], []
    while not cycle_times or sum(cycle_times) < args.seconds:
        ops = wl.cycle(tracer)
        cycle_time = 0.0
        kernel_times = []
        kernel_runs = -(-reference.RUNS_PER_CYCLE // len(ops))
        for op in ops:
            tracer.op = len(records)
            start = time.perf_counter()
            try:
                out = tracer.call(f"op.{op.kind}", op.run, op.case, tracer)
            except Exception as exc:  # a call that raises fails its check
                out = exc
            elapsed = time.perf_counter() - start
            records.append((tracer.op, op.kind, elapsed))
            cycle_time += elapsed
            if isinstance(out, Exception):
                verdicts.append(checks.Verdict(op.kind, False, f"raised {out!r}"))
            else:
                try:
                    verdicts.extend(wl.check(op, out))
                except Exception as exc:  # unreadable output fails its check
                    verdicts.append(checks.Verdict(op.kind, False, f"check raised {exc!r}"))
            del out  # keep one operation's outputs alive at a time
            kernel_times += [reference.seconds() for _ in range(kernel_runs)]
        cycle_times.append(cycle_time)
        factors.append(reference.factor(kernel_times))
    cycles = len(cycle_times)
    # throughput of the median cycle, each cycle scaled to reference speed
    # by the kernel runs between its operations
    ops_per_s = len(ops) / statistics.median(t * f for t, f in zip(cycle_times, factors))
    raw_ops_per_s = len(ops) / statistics.median(cycle_times)
    per_cycle = len(records) // cycles

    failed = [v for v in verdicts if not v.ok]
    correct = all(v.fault in checks.KEPT_FAULTS for v in failed)
    latencies = [s for _, _, s in records]
    scaled = [s * factors[i // per_cycle] for i, s in enumerate(latencies)]
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = workloads.layer_metrics(wl, tracer, records, verdicts, cycles)
    else:
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (_peak_rss_mb(args.workload), "MB"),
        }
    failures: dict[str, dict] = {}
    for v in failed:
        entry = failures.setdefault(v.name, {"count": 0, "fault": v.fault, "detail": v.detail})
        entry["count"] += 1
    return {
        "correct": correct,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": {
            "cycles": cycles,
            "operations": len(records),
            "cycle_times_s": cycle_times,
            "reference_factors": factors,
            "raw_ops_per_s": raw_ops_per_s,
            "raw_op_p50_s": statistics.median(latencies),
            "latencies_s": latencies,
            "kinds": [k for _, k, _ in records],
            "failures": failures,
            "kept_faults": checks.KEPT_FAULTS,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    if result:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
