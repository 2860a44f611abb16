"""Benchmark of the phzero zero-dynamics pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload siso-reduce --seed 1 --seconds 10 --trace 0

Workloads: ``siso-reduce``, ``ring-network``, ``cli-export`` (see
``perfbench/README.md``).  BLAS and OpenMP run one thread, here and in
every child.  Untraced, the benchmark starts ``SETUP_SAMPLES`` workers one
after another; each sets up from a fresh interpreter, the first ones stop
there and the last one goes on to the timed run.  ``setup_s`` is the
median set-up time, each one scaled to reference speed by kernel runs
made just before it (see ``reference.py``); the whole process tree runs
on one CPU.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the run goes to ``perfbench/out/results/``, spans of a traced run to
``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load;
#: set before numpy is first imported, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("siso-reduce", "ring-network", "cli-export")

#: Fresh-process set-ups measured per untraced run; the median is setup_s.
SETUP_SAMPLES = 3

#: Wall-clock budget of one run, all workers included.
TIME_LIMIT_S = 170.0


def git_commit(root: Path) -> str:
    """Commit of the checkout from ``.git`` itself, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, setup_only: bool, env: dict, deadline: float) -> tuple[float, str]:
    """Start one worker; return its set-up seconds and its remaining
    standard output."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker failed (exit {code})")
    return setup, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "phzero" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'phzero'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    # one CPU for the whole process tree, so that the reference kernel runs
    # where the measured work runs; the processes never run at once
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + TIME_LIMIT_S
    samples = SETUP_SAMPLES if not args.trace else 1
    setups, factors = [], []
    try:
        for i in range(samples):
            factors.append(reference.sample_factor())
            setup, rest = run_worker(args, i < samples - 1, env, deadline)
            setups.append(setup)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(rest.strip().splitlines()[-1])
    record = result.pop("record")
    if not args.trace:
        setup_s = statistics.median(s * f for s, f in zip(setups, factors))
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup_samples_s=setups, setup_reference_factors=factors,
        raw_setup_s=statistics.median(setups), nproc=nproc, cpu=max(os.sched_getaffinity(0)),
        threads={var: env[var] for var in THREAD_VARS}, commit=git_commit(ROOT),
        correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
        metrics=result["metrics"],
    )
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"{args.workload} unscaled: setup_s = {record['raw_setup_s']:.6g} s, "
              f"ops_per_s = {record['raw_ops_per_s']:.6g} 1/s, "
              f"op_p50_s = {record['raw_op_p50_s']:.6g} s; reference speed "
              f"{statistics.median(record['reference_factors']):.4g} × measured")
    print(f"{args.workload} checked calls: {result['attempted']} attempted, "
          f"{result['failed']} failed ({record['failures']})")
    print(f"numpy {record['numpy']}, scipy {record['scipy']}, nproc {record['nproc']}, "
          f"threads 1, commit {record['commit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
