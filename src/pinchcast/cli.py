"""Command-line interface.

Verbs:
  solve       optimize one topology under one scheme and print the solution
  experiment  run a Monte-Carlo sweep from a spec file or preset
  trace       emit convergence traces for all schemes on one random drop
  validate    run quick self-checks
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments
from .config import SystemConfig
from .errors import PinchcastError
from .experiments import (
    PRESETS,
    SCHEMES,
    TOPOLOGY_MODES,
    ExperimentSpec,
    emit,
    emit_traces,
    generate_topology,
    preset_spec,
    run_experiment,
)
from .fileio import _load_yaml, load_config, load_topology
from .records import SchemeSolution
from .topology import Topology
from .validate import run_validation


def _load_cfg(path: str | None) -> SystemConfig:
    return load_config(path) if path else SystemConfig()


def _seed(args) -> int:
    """The ``--seed`` value; numpy takes only non-negative seeds."""
    if args.seed < 0:
        raise PinchcastError(f"seed must be >= 0, got {args.seed}")
    return args.seed


def _solve(topology: Topology, scheme: str, config: SystemConfig, args) -> SchemeSolution:
    rng = np.random.default_rng(_seed(args))
    return experiments._solve_one(scheme, args.baseline, topology, config, rng, args.equal_time)


def _cmd_solve(args) -> int:
    config = _load_cfg(args.config)
    topology = load_topology(args.topology, config)
    sol = _solve(topology, args.scheme, config, args)
    print(f"scheme        : {sol.scheme}" + ("  (fixed-array baseline)" if sol.baseline else ""))
    print(f"mmf rate      : {sol.mmf_rate:.6f} bit/s/Hz")
    print(f"group rates   : {np.array2string(sol.per_group_rates, precision=6)}")
    print(f"powers (W)    : {np.array2string(sol.power_w, precision=4)}")
    print(f"time fractions: {np.array2string(sol.tau, precision=4)}")
    for i, p in enumerate(sol.placements):
        label = f"placement[{i}]" if len(sol.placements) > 1 else "placement"
        print(f"{label:14s}: {np.array2string(p, precision=3)}")
    print(f"sweeps        : {sol.iterations} (converged: {sol.converged})")
    if args.out:
        try:
            Path(args.out).write_text(sol.to_json(), encoding="utf-8")
        except OSError as exc:
            raise PinchcastError(f"failed to write {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    config = _load_cfg(args.config)
    # the command line overrides the preset or the spec file alike
    overrides = {k: v for k, v in (("trials", args.trials), ("seed", args.seed)) if v is not None}
    if args.baseline:
        overrides["baseline"] = True
    if args.preset:
        spec = preset_spec(args.preset, **overrides)
    else:
        spec = ExperimentSpec.from_dict({**_load_yaml(args.spec), **overrides})
    t0 = time.time()

    def progress(done: int, total: int) -> None:
        if done % max(1, total // 20) == 0 or done == total:
            rate = (time.time() - t0) / done
            print(f"  trial {done}/{total} ({rate:.2f} s/trial)", file=sys.stderr)

    result = run_experiment(spec, config, workers=args.workers, progress=progress)
    paths = emit(result, args.out, per_trial=args.per_trial)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_trace(args) -> int:
    config = _load_cfg(args.config)
    rng = np.random.default_rng(_seed(args))
    if args.topology:
        topology = load_topology(args.topology, config)
    else:
        topology = generate_topology(
            args.mode, config, rng, num_groups=args.groups, num_users=args.users
        )
    schemes = args.schemes.split(",") if args.schemes else list(SCHEMES)
    solutions = []
    for scheme in schemes:
        sol = _solve(topology, scheme.strip(), config, args)
        solutions.append(sol)
        print(f"{scheme:8s} rate {sol.mmf_rate:.6f} after {sol.iterations} sweeps")
    path = emit_traces(solutions, args.out)
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    return 0 if run_validation(_seed(args)) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pinchcast", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one topology under one scheme")
    p.add_argument("--topology", required=True, help="topology YAML file")
    p.add_argument("--config", help="system config YAML file")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--baseline", action="store_true", help="use the fixed-array baseline")
    p.add_argument("--equal-time", action="store_true", help="pin equal slot lengths (tdma-pm)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the solution as JSON")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("experiment", help="run a Monte-Carlo sweep")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="experiment spec YAML file")
    src.add_argument("--preset", choices=sorted(PRESETS), help="built-in figure recipe")
    p.add_argument("--config", help="system config YAML file")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--trials", type=int, help="override trial count")
    p.add_argument("--seed", type=int, help="override seed")
    p.add_argument("--baseline", action="store_true", help="also run the fixed-array baseline")
    p.add_argument("--per-trial", action="store_true", help="also write per-trial rows")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("trace", help="emit convergence traces")
    p.add_argument("--topology", help="topology YAML file (default: random drop)")
    p.add_argument("--config", help="system config YAML file")
    p.add_argument("--schemes", help="comma-separated schemes (default: all)")
    p.add_argument("--mode", default="uniform_random", choices=TOPOLOGY_MODES)
    p.add_argument("--groups", type=int, default=4)
    p.add_argument("--users", type=int, default=12)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--equal-time", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="trace.csv")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("validate", help="run quick self-checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_validate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PinchcastError as exc:
        print(f"pinchcast: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
