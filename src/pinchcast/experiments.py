"""Scenario generation, Monte-Carlo sweeps and CSV emission.

A fixed seed fully determines every emitted byte: each trial owns a child
seed sequence, and each (trial, sweep point) pair spawns independent streams
for the topology draw and for every scheme run, so trials and sweep points
can execute in any order (or in parallel) without changing the results.
"""
from __future__ import annotations

import csv
import math
import numbers
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .config import SystemConfig
from .errors import PinchcastError
from .noma import solve_noma
from .records import SchemeSolution
from .tdma import solve_tdma_pm, solve_tdma_ps
from .tin import solve_tin
from .topology import Topology
from .ula import solve_ula

SWEEP_VARIABLES = ("power_dbm", "region_dx", "num_antennas", "num_groups")
TOPOLOGY_MODES = ("uniform_random", "heterogeneous_clusters")
SCHEMES = ("tin", "noma", "tdma-ps", "tdma-pm")


def generate_topology(
    mode: str,
    config: SystemConfig,
    rng: np.random.Generator,
    *,
    num_groups: int,
    num_users: int,
) -> Topology:
    """Draw user positions on the service region.

    ``uniform_random`` scatters all users i.i.d. over the full region;
    ``heterogeneous_clusters`` slices the aperture into equal x-intervals and
    confines each group to its own slice (full depth).
    """
    if mode not in TOPOLOGY_MODES:
        raise PinchcastError(f"unknown topology mode {mode!r}")
    if num_groups < 1 or num_users < num_groups:
        raise PinchcastError("need at least one user per group")
    base, rem = divmod(num_users, num_groups)
    sizes = [base + (gi < rem) for gi in range(num_groups)]
    unit = rng.random((num_users, 2))
    if mode == "uniform_random":
        x = unit[:, 0] * config.waveguide_length_m
    else:
        group_of = np.repeat(np.arange(num_groups), sizes)
        x = (group_of + unit[:, 0]) * (config.waveguide_length_m / num_groups)
    xyz = np.column_stack([x, unit[:, 1] * config.region_depth_m, np.zeros(num_users)])
    groups = tuple(tuple(range(end - size, end)) for size, end in zip(sizes, np.cumsum(sizes)))
    return Topology(groups=groups, user_xyz_m=xyz, noise_w=np.full(num_users, config.noise_w))


def _is_number(v: Any, kind: type = numbers.Real) -> bool:
    """Whether ``v`` is a ``kind`` number; a bool is not one."""
    return isinstance(v, kind) and not isinstance(v, bool)


@dataclass
class ExperimentSpec:
    """One Monte-Carlo sweep: which variable, which values, which schemes."""

    sweep: str
    values: list[float]
    schemes: list[str] = field(default_factory=lambda: list(SCHEMES))
    topology_mode: str = "uniform_random"
    trials: int = 1000
    seed: int = 0
    num_groups: int = 4
    num_users: int = 12
    users_per_group: int | None = None
    num_antennas: int = 10
    baseline: bool = False
    equal_time: bool = False

    def __post_init__(self) -> None:
        if self.sweep not in SWEEP_VARIABLES:
            raise PinchcastError(f"sweep must be one of {SWEEP_VARIABLES}, got {self.sweep!r}")
        if not (isinstance(self.values, list) and self.values and all(map(_is_number, self.values))):
            raise PinchcastError(f"values must be a non-empty list of numbers, got {self.values!r}")
        if self.sweep in ("num_antennas", "num_groups") and not all(float(v).is_integer() for v in self.values):
            raise PinchcastError(f"{self.sweep} sweep values must be whole numbers, got {self.values!r}")
        for name in ("trials", "seed", "num_groups", "num_users", "num_antennas", "users_per_group"):
            v = getattr(self, name)
            if not (_is_number(v, numbers.Integral) or (v is None and name == "users_per_group")):
                raise PinchcastError(f"{name} must be an integer, got {v!r}")
        for name in ("baseline", "equal_time"):
            if not isinstance(getattr(self, name), bool):
                raise PinchcastError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.trials < 1:
            raise PinchcastError("trials must be >= 1")
        if self.seed < 0:
            raise PinchcastError("seed must be >= 0")
        for s in self.schemes:
            if s not in SCHEMES:
                raise PinchcastError(f"unknown scheme {s!r}")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentSpec":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise PinchcastError(f"unknown spec keys: {sorted(unknown)}")
        required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
        missing = [name for name in required if name not in data]
        if missing:
            raise PinchcastError(f"missing spec keys: {missing}")
        return cls(**data)

    @property
    def runs(self) -> list[tuple[str, bool]]:
        """The (scheme, baseline) solves at every sweep value, in row order."""
        return [(s, b) for b in ((False, True) if self.baseline else (False,)) for s in self.schemes]


def spec_point_config(spec: ExperimentSpec, base: SystemConfig, value: float) -> SystemConfig:
    cfg = replace(base, num_antennas=spec.num_antennas)
    if spec.sweep == "power_dbm":
        return cfg.with_power_dbm(value)
    if spec.sweep == "region_dx":
        return replace(cfg, waveguide_length_m=float(value))
    if spec.sweep == "num_antennas":
        return replace(cfg, num_antennas=int(value))
    return cfg  # num_groups changes the topology, not the config


def spec_point_group_count(spec: ExperimentSpec, value: float) -> tuple[int, int]:
    g = int(value) if spec.sweep == "num_groups" else spec.num_groups
    k = spec.users_per_group * g if spec.users_per_group is not None else spec.num_users
    return g, k


def _solve_one(
    scheme: str,
    baseline: bool,
    topology: Topology,
    config: SystemConfig,
    rng: np.random.Generator,
    equal_time: bool,
) -> SchemeSolution:
    if baseline:
        return solve_ula(topology, scheme, config, equal_time=equal_time)
    if scheme == "tin":
        return solve_tin(topology, config, rng=rng)
    if scheme == "noma":
        return solve_noma(topology, config, rng=rng)
    if scheme == "tdma-ps":
        return solve_tdma_ps(topology, config, rng=rng)
    if scheme == "tdma-pm":
        return solve_tdma_pm(topology, config, rng=rng, equal_time=equal_time)
    raise PinchcastError(f"unknown scheme {scheme!r}")


def _run_trial(spec: ExperimentSpec, base: SystemConfig, trial: int, trial_seq) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []
    value_seqs = trial_seq.spawn(len(spec.values))
    runs = spec.runs
    for v_idx, value in enumerate(spec.values):
        cfg = spec_point_config(spec, base, value)
        g, k = spec_point_group_count(spec, value)
        children = value_seqs[v_idx].spawn(1 + len(runs))
        topo = generate_topology(
            spec.topology_mode, cfg, np.random.default_rng(children[0]), num_groups=g, num_users=k
        )
        for r_idx, (scheme, is_baseline) in enumerate(runs):
            row: dict[str, Any] = {
                "sweep_value": value,
                "scheme": scheme,
                "baseline": is_baseline,
                "trial": trial,
            }
            try:
                sol = _solve_one(
                    scheme, is_baseline, topo, cfg,
                    np.random.default_rng(children[1 + r_idx]), spec.equal_time,
                )
                row["mmf_rate"] = sol.mmf_rate
                row["converged"] = sol.converged
                row["error"] = ""
            except Exception as exc:  # per-trial failures are recorded, never dropped
                row["mmf_rate"] = math.nan
                row["converged"] = False
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    return rows


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list[dict[str, Any]]

    def summary(self) -> list[dict[str, Any]]:
        """Mean and standard error per (sweep value, scheme, baseline)."""
        groups: dict[tuple[float, str, bool], list[dict[str, Any]]] = defaultdict(list)
        for r in self.rows:
            groups[r["sweep_value"], r["scheme"], r["baseline"]].append(r)
        out: list[dict[str, Any]] = []
        for value in self.spec.values:
            for scheme, is_baseline in self.spec.runs:
                matching = groups.get((value, scheme, is_baseline), [])
                rates = [r["mmf_rate"] for r in matching if not r["error"]]
                failed = sum(1 for r in matching if r["error"])
                n = len(rates)
                mean = float(np.mean(rates)) if n else math.nan
                stderr = float(np.std(rates, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
                out.append(
                    {
                        "sweep_value": value,
                        "scheme": scheme,
                        "baseline": is_baseline,
                        "mean_rate": mean,
                        "stderr": stderr,
                        "trials_ok": n,
                        "trials_failed": failed,
                    }
                )
        return out

    def mean_rate(self, value: float, scheme: str, baseline: bool = False) -> float:
        for row in self.summary():
            if row["sweep_value"] == value and row["scheme"] == scheme and row["baseline"] == baseline:
                return row["mean_rate"]
        raise KeyError((value, scheme, baseline))


def run_experiment(
    spec: ExperimentSpec,
    config: SystemConfig | None = None,
    *,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> ExperimentResult:
    """Execute every (value, scheme, trial) combination of a sweep spec."""
    base = config if config is not None else SystemConfig()
    trial = partial(_run_trial, spec, base)
    trial_seqs = np.random.SeedSequence(spec.seed).spawn(spec.trials)
    rows: list[dict[str, Any]] = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(trial, range(spec.trials), trial_seqs)
        for done, trial_rows in enumerate(results, start=1):
            rows.extend(trial_rows)
            if progress is not None:
                progress(done, spec.trials)
    return ExperimentResult(spec=spec, rows=rows)


SUMMARY_HEADER = ("sweep_value", "scheme", "baseline", "mean_rate", "stderr", "trials_ok", "trials_failed")
TRIAL_HEADER = ("sweep_value", "scheme", "baseline", "trial", "mmf_rate", "converged", "error")


def emit(result: ExperimentResult, out_dir: str | Path, *, per_trial: bool = False) -> list[Path]:
    """Write summary (and optionally per-trial) CSV files; returns the paths."""
    if not result.rows:
        raise PinchcastError("refusing to emit empty results")
    out = Path(out_dir)
    summary = ([row[k] for k in SUMMARY_HEADER] for row in result.summary())
    paths = [_write_csv(out / "summary.csv", SUMMARY_HEADER, summary)]
    if per_trial:
        trials = ([row[k] for k in TRIAL_HEADER] for row in result.rows)
        paths.append(_write_csv(out / "trials.csv", TRIAL_HEADER, trials))
    return paths


def emit_traces(solutions: list[SchemeSolution], path: str | Path) -> Path:
    """Convergence traces as long-format CSV (scheme, sweep index, objective)."""
    rows = (
        (sol.scheme, sol.baseline, t_idx, s_idx, obj)
        for sol in solutions
        for t_idx, tr in enumerate(sol.traces)
        for s_idx, obj in enumerate(tr["objective"])
    )
    return _write_csv(Path(path), ("scheme", "baseline", "trace", "sweep", "objective"), rows)


def _write_csv(path: Path, header: tuple[str, ...], rows: Iterable[Iterable[Any]]) -> Path:
    """Write a header and rows, each cell through :func:`_fmt`, creating the
    parent directory; any failure to write raises :class:`PinchcastError`."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([_fmt(v) for v in row] for row in rows)
    except OSError as exc:
        raise PinchcastError(f"failed to write {path}: {exc}") from exc
    return path


def _fmt(v: Any) -> Any:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return v


PRESETS: dict[str, dict[str, Any]] = {
    # power sweeps, overlapping vs clustered user drops
    "power-uniform": dict(
        sweep="power_dbm", values=[-20.0, -10.0, 0.0, 10.0, 20.0, 30.0],
        topology_mode="uniform_random", num_groups=4, num_users=12, num_antennas=10,
    ),
    "power-hetero": dict(
        sweep="power_dbm", values=[-20.0, -10.0, 0.0, 10.0, 20.0, 30.0],
        topology_mode="heterogeneous_clusters", num_groups=4, num_users=12, num_antennas=10,
    ),
    "region": dict(
        sweep="region_dx", values=[10.0, 15.0, 20.0, 25.0, 30.0],
        num_groups=3, num_users=12, num_antennas=10,
    ),
    "antennas": dict(
        sweep="num_antennas", values=[2.0, 4.0, 6.0, 8.0, 10.0],
        num_groups=3, num_users=12,
    ),
    "groups": dict(
        sweep="num_groups", values=[2.0, 3.0, 4.0, 5.0],
        users_per_group=4, num_antennas=10,
    ),
}


def preset_spec(name: str, **overrides: Any) -> ExperimentSpec:
    if name not in PRESETS:
        raise PinchcastError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    params = dict(PRESETS[name])
    params.update(overrides)
    return ExperimentSpec(**params)
