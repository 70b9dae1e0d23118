"""The benchmark's workloads: inputs made from the seed, timed solves, checks.

``reference`` and ``high-power`` solve every scheme, the four movable ones
and the four fixed-array baselines, on one topology after another in a
single process, each solve starting when the previous one ends.  ``sweep``
runs the harness (``run_experiment`` with a process pool, then ``emit``) on
the ``groups`` recipe, re-runs its first trial in-process, and times direct
solves on drops of the same recipe.
"""
from __future__ import annotations

import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
from metrics import LAYERS, MOVABLE, SCHEMES, TIMED, layer_metric
from tracing import SOLVE_PREFIX, Tracer, layer_totals


@dataclass(frozen=True)
class Drop:
    """How a workload draws its topologies."""

    clustered: bool         # each group in its own slice of the aperture
    num_groups: int
    num_users: int
    power_dbm: float
    grid_points: int
    rated: int              # topologies every run solves; they give rate.*


DROPS = {
    # the reference configuration: N=10, G=4, K=12, L=200, -10 dBm
    "reference": Drop(False, 4, 12, -10.0, 200, 36),
    # loose screening bounds; the regime where NOMA and TDMA part ways.
    # L=100 fits about 40 topologies in a 35 s run where L=200 fits 14, too
    # few for steady per-scheme times (solve times vary by a CV of 0.4-0.6
    # from topology to topology).
    "high-power": Drop(True, 6, 18, 30.0, 100, 24),
}
WORKLOADS = ("reference", "high-power", "sweep")
SWEEP_PRESET = "groups"       # G = 2..5, four users per group, N = 10
SWEEP_GRID = 100
SWEEP_TRIALS = 4              # harness trials per round
SWEEP_RATED_ROUNDS = 3        # rounds whose harness rows give rate.*
SWEEP_USERS_PER_GROUP = 4
SWEEP_GROUPS = (2, 3, 4, 5)


@dataclass
class Case:
    """One topology with the seeds of the random start placements."""

    topology: object
    config: object
    starts: dict


def _drop_users(pc, rng, clustered: bool, num_groups: int, num_users: int, config):
    """Users uniform over the region, or group g in the g-th x-slice."""
    base, rem = divmod(num_users, num_groups)
    sizes = [base + (g < rem) for g in range(num_groups)]
    unit = rng.random((num_users, 2))
    group_of = np.repeat(np.arange(num_groups), sizes)
    if clustered:
        x = (group_of + unit[:, 0]) * config.waveguide_length_m / num_groups
    else:
        x = unit[:, 0] * config.waveguide_length_m
    xyz = np.column_stack([x, unit[:, 1] * config.region_depth_m, np.zeros(num_users)])
    ends = np.cumsum(sizes)
    groups = tuple(tuple(range(e - s, e)) for s, e in zip(sizes, ends))
    return pc.Topology(groups=groups, user_xyz_m=xyz, noise_w=np.full(num_users, config.noise_w))


def _case(pc, seq, config, clustered, num_groups, num_users) -> Case:
    topo_seq, *start_seqs = seq.spawn(1 + len(MOVABLE))
    topo = _drop_users(pc, np.random.default_rng(topo_seq), clustered, num_groups, num_users, config)
    return Case(topo, config, dict(zip(MOVABLE, start_seqs)))


class Inputs:
    """A workload's inputs: the i-th draw depends only on the seed and i.

    Set-up makes the draws every run uses, the rated topologies or rounds;
    later draws are made as the run reaches them.
    """

    def __init__(self, pc, workload: str, seed: int) -> None:
        self.pc = pc
        self.entropy = [seed, WORKLOADS.index(workload)]
        self.drop = DROPS.get(workload)
        if self.drop is not None:
            self.config = pc.SystemConfig(grid_points=self.drop.grid_points).with_power_dbm(self.drop.power_dbm)
            self.rated = [self._case(i) for i in range(self.drop.rated)]
        else:
            self.config = pc.SystemConfig(grid_points=SWEEP_GRID)
            self.spec = pc.preset_spec(SWEEP_PRESET, trials=SWEEP_TRIALS)
            self.rated = [self._round(r) for r in range(SWEEP_RATED_ROUNDS)]

    def _seq(self, i: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.entropy, spawn_key=(i,))

    def _case(self, i: int) -> Case:
        d = self.drop
        return _case(self.pc, self._seq(i), self.config, d.clustered, d.num_groups, d.num_users)

    def _round(self, r: int):
        spec_seq, drop_seq = self._seq(r).spawn(2)
        spec = replace(self.spec, seed=int(spec_seq.generate_state(1)[0]))
        cases = [
            _case(self.pc, s, self.config, False, g, SWEEP_USERS_PER_GROUP * g)
            for s, g in zip(drop_seq.spawn(len(SWEEP_GROUPS)), SWEEP_GROUPS)
        ]
        return spec, cases

    def case(self, i: int) -> Case:
        return self.rated[i] if i < len(self.rated) else self._case(i)

    def sweep_round(self, r: int):
        """Round ``r`` of ``sweep``: the harness spec and the direct-solve drops."""
        return self.rated[r] if r < len(self.rated) else self._round(r)


def solve(pc, scheme: str, case: Case):
    if scheme.startswith("ula-"):
        return pc.solve_ula(case.topology, scheme[4:], case.config)
    solver = {
        "tin": pc.solve_tin,
        "noma": pc.solve_noma,
        "tdma-ps": pc.solve_tdma_ps,
        "tdma-pm": pc.solve_tdma_pm,
    }[scheme]
    rng = np.random.default_rng(case.starts[scheme])
    return solver(case.topology, case.config, rng=rng).to_solution()


def _fingerprint(sol) -> tuple:
    phases = None if sol.phases is None else np.asarray(sol.phases).tobytes()
    return (sol.mmf_rate, tuple(p.tobytes() for p in sol.placements), phases)


class Tally:
    """Attempts, failures, check messages, solve times and kept solutions."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []   # operations that raised
        self.errors: list[str] = []     # outputs that failed a check
        self.times: dict[str, list[float]] = defaultdict(list)
        self.first: dict[tuple, tuple] = {}   # (case id, scheme) -> (solution, case)
        self.solved = 0
        self.wall = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failures.append(f"{what} raised {type(exc).__name__}: {exc}")

    def absorb(self, *others: "Tally") -> "Tally":
        for t in others:
            self.attempted += t.attempted
            self.failures += t.failures
            self.errors += t.errors
        return self

    def keep(self, key: tuple, sol, case: Case) -> None:
        if key not in self.first:
            self.first[key] = (sol, case)
        elif _fingerprint(self.first[key][0]) != _fingerprint(sol):
            self.errors.append(f"{key}: a repeated solve gave another result")

    def check_kept(self) -> None:
        for (cid, scheme), (sol, case) in self.first.items():
            self.errors += [f"case {cid}: {e}" for e in checks.check_solution(sol, case.topology, case.config)]


def solve_round(pc, cid, case: Case, tally: Tally, tracer: Tracer | None = None, schemes=SCHEMES) -> None:
    """Every scheme on one case; adds their wall time to ``tally.wall``."""
    start = time.perf_counter()
    for scheme in schemes:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                sol = solve(pc, scheme, case)
            else:
                with tracer.span(SOLVE_PREFIX + scheme):
                    sol = solve(pc, scheme, case)
                tracer.results.append((SOLVE_PREFIX + scheme, sol))
        except Exception as exc:  # a failed solve is counted, not fatal
            tally.fail(f"case {cid} {scheme}", exc)
            continue
        tally.times[scheme].append(time.perf_counter() - t0)
        tally.solved += 1
        tally.keep((cid, scheme), sol, case)
    tally.wall += time.perf_counter() - start


# -- end-to-end ---------------------------------------------------------------


def _solve_ms(tally: Tally) -> dict[str, float]:
    # the geometric mean, not the median: solve times vary by a CV of
    # 0.3-0.6 between topologies and cluster by sweep count, so a median
    # jumps between clusters from one draw of topologies to the next, and
    # a few solves that hit the sweep cap pull an arithmetic mean
    return {
        f"solve_ms.{s}": 1e3 * math.exp(math.fsum(map(math.log, tally.times[s])) / len(tally.times[s]))
        for s in TIMED
    }


def run_drops(pc, inputs: Inputs, seconds: float) -> tuple[Tally, dict]:
    """One round of eight solves on each new topology until ``seconds`` have
    passed and the rated topologies have all run."""
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while i < len(inputs.rated) or time.perf_counter() - start < seconds:
        solve_round(pc, i, inputs.case(i), tally)
        i += 1
    tally.check_kept()
    metrics = {"solves_per_s": tally.solved / tally.wall}
    metrics.update(_solve_ms(tally))
    for s in MOVABLE:
        rates = [tally.first[(i, s)][0].mmf_rate for i in range(len(inputs.rated)) if (i, s) in tally.first]
        metrics[f"rate.{s}"] = math.fsum(rates) / len(rates)
    return tally, metrics


def _harness_rates(rows) -> dict[str, float]:
    out = {}
    for s in MOVABLE:
        rates = [r["mmf_rate"] for r in rows if r["scheme"] == s and not r["error"]]
        out[f"rate.{s}"] = math.fsum(rates) / len(rates)
    return out


def _harness_round(pc, spec, config, workers: int, out_dir: Path, tally: Tally):
    """One pooled harness run plus ``emit``; returns the result and wall time."""
    t0 = time.perf_counter()
    result = pc.run_experiment(spec, config, workers=workers)
    pc.emit(result, out_dir, per_trial=True)
    wall = time.perf_counter() - t0
    _count_rows(result.rows, tally)
    tally.errors += checks.check_emitted(out_dir)
    return result, wall


def _count_rows(rows, tally: Tally) -> None:
    tally.attempted += len(rows)
    for r in rows:
        if r["error"]:
            tally.failures.append(f"harness row {r['scheme']} trial {r['trial']}: {r['error']}")


def _compare_rows(again, rows, tally: Tally, what: str) -> None:
    if again != rows[: len(again)]:
        tally.errors.append(f"{what} gave other rows than the pool")


def pool_workers() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def run_sweep(pc, inputs: Inputs, seconds: float, out_dir: Path) -> tuple[Tally, dict]:
    """Rounds of the harness through the pool, then direct solves of the
    timed schemes on one drop per group count.  The rated rounds' harness
    rows give the rates; the first trial is also re-run in-process."""
    config = inputs.config
    workers = pool_workers()
    harness = Tally()   # harness solves: throughput
    direct = Tally()    # direct solves: per-solve times and checks
    rated_rows = []
    start = time.perf_counter()
    r = 0
    while r < len(inputs.rated) or time.perf_counter() - start < seconds:
        spec, cases = inputs.sweep_round(r)
        result, wall = _harness_round(pc, spec, config, workers, out_dir, harness)
        harness.wall += wall
        harness.solved += sum(1 for row in result.rows if not row["error"])
        if r < len(inputs.rated):
            rated_rows += result.rows
        if r == 0:
            again = pc.run_experiment(replace(spec, trials=1), config, workers=1).rows
            _count_rows(again, harness)
            _compare_rows(again, result.rows, harness, "the in-process re-run of trial 0")
        for cid, case in enumerate(cases):
            solve_round(pc, (r, cid), case, direct, schemes=TIMED)
        r += 1
    direct.check_kept()
    tally = Tally().absorb(harness, direct)
    metrics = {"solves_per_s": harness.solved / harness.wall}
    metrics.update(_solve_ms(direct))
    metrics.update(_harness_rates(rated_rows))
    return tally, metrics


# -- per layer ----------------------------------------------------------------


def _layer_metrics(tracer: Tracer) -> dict[str, float]:
    totals = layer_totals(tracer.spans)
    metrics = {}
    for layer, quantities, schemes in LAYERS:
        for s in schemes:
            n = totals.get(("solve", s), [0.0, 0.0, 0])[2]
            self_s, _, calls = totals.get((layer, s), [0.0, 0.0, 0])
            for q in quantities:
                value = 1e3 * self_s if q == "ms" else calls
                metrics[layer_metric(layer, q, s)] = value / n if n else 0.0
    counts = {s: np.zeros(3) for s in SCHEMES}   # candidates, exact evals, sweeps
    solves = defaultdict(int)
    for span_name, sol in tracer.results:
        s = span_name.removeprefix(SOLVE_PREFIX)
        solves[s] += 1
        for t in sol.traces:
            counts[s] += (t["total_candidates"], t["stage2_evals"], t["sweeps"])
    for s in SCHEMES:
        cand, evals, sweeps = counts[s]
        n = solves[s]
        metrics[f"seo.candidates.{s}"] = cand / n if n else 0.0
        metrics[f"seo.exact_evals.{s}"] = evals / n if n else 0.0
        metrics[f"seo.retention.{s}"] = evals / cand if cand else 0.0
        metrics[f"seo.sweeps.{s}"] = sweeps / n if n else 0.0
    for name, key in (("experiments.trial_ms", "experiments.trial"), ("experiments.emit_ms", "experiments.emit")):
        _, total_s, calls = totals.get((key, None), [0.0, 0.0, 0])
        metrics[name] = 1e3 * total_s / calls if calls else 0.0
    return metrics


def trace_drops(pc, inputs: Inputs, seconds: float, tracer: Tracer) -> tuple[Tally, dict]:
    """Each new topology once untraced, then once traced, until ``seconds``
    pass; both solves must give the same result."""
    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        case = inputs.case(i)
        solve_round(pc, i, case, plain)
        with tracer:
            solve_round(pc, i, case, traced, tracer)
        i += 1
    plain.check_kept()
    for key, (sol, case) in traced.first.items():
        plain.keep(key, sol, case)
    tally = Tally().absorb(plain, traced)
    metrics = _layer_metrics(tracer)
    metrics["experiments.pool_efficiency"] = 0.0
    metrics["tracing.overhead_pct"] = 100.0 * (
        (plain.solved / plain.wall) / (traced.solved / traced.wall) - 1.0
    )
    return tally, metrics


def trace_sweep(pc, inputs: Inputs, seconds: float, tracer: Tracer, out_dir: Path) -> tuple[Tally, dict]:
    """Rounds of: the harness through the pool, the same trials in-process
    untraced, then in-process traced.  The pool hides its workers' spans."""
    config = inputs.config
    workers = pool_workers()
    tally = Tally()
    wall_pool = wall_plain = wall_traced = 0.0
    solved_plain = solved_traced = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        spec, _ = inputs.sweep_round(r)
        result, wall = _harness_round(pc, spec, config, workers, out_dir, tally)
        wall_pool += wall
        t0 = time.perf_counter()
        plain = pc.run_experiment(spec, config, workers=1).rows
        wall_plain += time.perf_counter() - t0
        with tracer:
            t0 = time.perf_counter()
            traced = pc.run_experiment(spec, config, workers=1)
            wall_traced += time.perf_counter() - t0
            with tracer.span("experiments.emit"):
                pc.emit(traced, out_dir, per_trial=True)
        for rows, what in ((plain, "the in-process run"), (traced.rows, "the traced in-process run")):
            _count_rows(rows, tally)
            _compare_rows(rows, result.rows, tally, what)
        solved_plain += sum(1 for row in plain if not row["error"])
        solved_traced += sum(1 for row in traced.rows if not row["error"])
        r += 1
    metrics = _layer_metrics(tracer)
    metrics["experiments.pool_efficiency"] = wall_plain / (workers * wall_pool)
    metrics["tracing.overhead_pct"] = 100.0 * (
        (solved_plain / wall_plain) / (solved_traced / wall_traced) - 1.0
    )
    return tally, metrics
