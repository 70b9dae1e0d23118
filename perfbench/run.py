"""Benchmark of pinchcast's solvers and Monte-Carlo harness.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(see README.md).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a
record of the run go to ``perfbench/out/``.
"""
from __future__ import annotations

import os

# one BLAS thread: the solves are small and the sweep runs its own workers
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7        # fresh processes timed for setup_s, besides this one
PROBE_TIMEOUT_S = 60


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("reference", "high-power", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help="time set-up only and print it")
    return ap.parse_args(argv)


def import_program():
    """Import pinchcast from this checkout's ``src``, never from elsewhere."""
    package = SRC / "pinchcast"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pinchcast sources at {package}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import pinchcast

    if Path(pinchcast.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported pinchcast from {pinchcast.__file__}, not {package}")
    return pinchcast


def set_up(workload: str, seed: int):
    """Import the program and make the workload's inputs."""
    pc = import_program()
    import workloads

    return pc, workloads, workloads.Inputs(pc, workload, seed)


def _probe_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def _environment(pc) -> dict:
    import numpy as np

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pinchcast": pc.__version__,
    }


def main(argv=None) -> int:
    args = _args(argv)
    t0 = time.perf_counter()
    pc, workloads, inputs = set_up(args.workload, args.seed)
    setup_here = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(setup_here))
        return 0

    from metrics import END_TO_END, per_layer
    from tracing import Tracer

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        if args.workload == "sweep":
            tally, values = workloads.trace_sweep(pc, inputs, args.seconds, tracer, out_dir / "csv")
        else:
            tally, values = workloads.trace_drops(pc, inputs, args.seconds, tracer)
        tracer.write(out_dir / "spans.csv")
        wanted = per_layer()
    else:
        setup = _probe_setup(args) + [setup_here]
        if args.workload == "sweep":
            tally, values = workloads.run_sweep(pc, inputs, args.seconds, out_dir / "csv")
        else:
            tally, values = workloads.run_drops(pc, inputs, args.seconds)
        values["setup_s"] = statistics.median(setup)
        wanted = END_TO_END

    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in wanted}
    # a failed operation counts in "failed"; "correct" speaks of the others
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=_environment(pc), errors=tally.errors,
                  failures=tally.failures, missing_wraps=sorted(tracer.missing) if tracer else [])
    (out_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for e in (tally.failures + tally.errors)[:20]:
        print(f"perfbench: {e}", file=sys.stderr)
    if tracer and tracer.missing:
        print(f"perfbench: not traced, missing: {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
