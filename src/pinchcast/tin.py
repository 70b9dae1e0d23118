"""Interference-as-noise solver.

With fixed antenna positions the max-min power split has a closed form that
equalizes every group's SINR, so placement optimization reduces to minimizing
the sum of inverse bottleneck CNRs (equivalently, maximizing their harmonic
mean).  Simultaneous transmission caps the achievable rate at
log2(1 + 1/(G-1)) regardless of placement once interference dominates.
"""
from __future__ import annotations

import math

import numpy as np

from . import seo
from .channel import group_gains
from .config import SystemConfig
from .records import SchemeSolution
from .seo import SweepObjective, SweepTrace, random_placement
from .topology import Placement, Topology


def tin_power(gains: np.ndarray, p_t: float) -> tuple[float, np.ndarray]:
    """Equalized SINR and per-group powers for fixed bottleneck CNRs.

    Returns (gamma, powers) with all group SINRs equal to gamma and the
    powers summing to ``p_t``.
    """
    a = np.asarray(gains, dtype=float)
    if np.any(a <= 0) or p_t <= 0:
        raise ValueError("gains and power budget must be positive")
    g = a.size
    gamma = 1.0 / (g - 1.0 + float(np.sum(1.0 / (p_t * a))))
    powers = gamma * (p_t + 1.0 / a) / (1.0 + gamma)
    return gamma, powers


def tin_ceiling(num_groups: int) -> float:
    """Interference-limited rate cap log2(1 + 1/(G-1)); needs G >= 2."""
    if num_groups < 2:
        raise ValueError("the interference ceiling is defined for two or more groups")
    return math.log2(1.0 + 1.0 / (num_groups - 1.0))


def tin_sinrs(gains: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Per-group SINRs under simultaneous transmission for given powers."""
    a = np.asarray(gains, dtype=float)
    p = np.asarray(powers, dtype=float)
    total = p.sum()
    return p / ((total - p) + 1.0 / a)


def tin_placement_objective(placement: Placement, topology: Topology, config: SystemConfig) -> float:
    """Sum of inverse bottleneck CNRs; smaller is better."""
    return group_gains(placement, topology, config).inv_sum


def inv_cnr_sum_batch(gain_matrix: np.ndarray) -> np.ndarray:
    """Vectorized placement objective over candidate gain columns."""
    return np.sum(1.0 / gain_matrix, axis=0)


def tin_objective() -> SweepObjective:
    """Placement (or phase) sweep objective: minimize the inverse-CNR sum."""
    return SweepObjective.monotone(inv_cnr_sum_batch, maximize=False)


def tin_solution(placement: Placement, trace: SweepTrace, config: SystemConfig) -> SchemeSolution:
    """Closed-form power split for the gains a sweep ended on."""
    a = trace.gains
    gamma, powers = tin_power(a, config.power_budget_w)
    g = a.size
    return SchemeSolution.from_sweeps(
        "tin", [placement], [trace],
        mmf_rate=math.log2(1.0 + gamma),
        per_group_rates=np.log2(1.0 + tin_sinrs(a, powers)),
        power_w=powers,
        tau=np.ones(g),
        extras={"equalized_sinr": gamma, "ceiling_rate": tin_ceiling(g) if g >= 2 else math.inf},
    )


def solve_tin(
    topology: Topology,
    config: SystemConfig,
    *,
    placement: Placement | None = None,
    rng: np.random.Generator | None = None,
) -> SchemeSolution:
    """Optimize antenna positions for the harmonic-mean objective, then apply
    the closed-form power split."""
    if placement is None:
        rng = np.random.default_rng() if rng is None else rng
        placement = random_placement(config, rng)
    best, trace = seo._run_sweeps(placement, topology, config, tin_objective())
    return tin_solution(best, trace, config)
