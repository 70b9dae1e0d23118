"""Fixed uniform linear array baseline with quantized analog beamforming.

The antennas sit at half-wavelength spacing centered on the aperture and
cannot move; the only degrees of freedom are per-element phase shifts drawn
from a uniform codebook.  Phases are optimized element by element with the
placement search's loop (:func:`~pinchcast.seo._sweep`) against the same
scheme objectives as the movable-antenna solvers, and the resource
allocation is shared unchanged.

The phase search has no block moves.  A pass over every pair of elements
and every pair of codebook levels made the fixed-array solves 4.5 to 20
times slower and hit the sweep cap more often, so each sweep moves one
element at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import free_space_terms
from .config import SystemConfig
from .errors import PinchcastError
from .noma import noma_objective, noma_solution
from .records import SchemeSolution
from .seo import CandidateSet, SweepObjective, SweepTrace, _gains_of, _sweep, group_layout
from .tdma import pm_objective, tdma_solution
from .tin import tin_objective, tin_solution
from .topology import Placement, Topology

# unused here since the schemes' objectives and allocations moved to their
# modules, the phase search to seo._sweep and its gains to the sweep's
# selection step; perfbench/tracing.py still wraps these names in this module
from .noma import _mmf_gamma, mmf_rate_bound_batch, noma_mmf_bisection  # noqa: F401
from .seo import _candidate_gains, _select  # noqa: F401
from .tdma import pm_rate_bound_batch, pm_resource_allocation  # noqa: F401


@dataclass(frozen=True)
class UlaConfig:
    """Geometry and codebook of the fixed array."""

    num_elements: int
    center_m: float
    spacing_m: float
    phase_levels: int

    @classmethod
    def from_system(cls, config: SystemConfig, n_elements: int | None = None) -> "UlaConfig":
        n = config.num_antennas if n_elements is None else int(n_elements)
        return cls(
            num_elements=n,
            center_m=config.waveguide_length_m / 2.0,
            spacing_m=config.wavelength_m / 2.0,
            phase_levels=config.grid_points,
        )

    def positions(self) -> np.ndarray:
        n = self.num_elements
        offsets = (np.arange(1, n + 1) - (n + 1) / 2.0) * self.spacing_m
        return self.center_m + offsets

    def codebook(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.phase_levels) / self.phase_levels


def ula_effective_channel(phases: np.ndarray, user_xyz, config: SystemConfig) -> complex:
    """Channel seen by one user under phase weights exp(j*theta)/sqrt(N)."""
    phases = np.asarray(phases, dtype=float)
    elem = free_space_terms(UlaConfig.from_system(config, phases.size).positions(), user_xyz, config)[0]
    weights = np.exp(1j * phases) / math.sqrt(phases.size)
    return complex(elem @ weights)


def _phase_sweep(
    topology: Topology, config: SystemConfig, ula: UlaConfig, objective: SweepObjective
) -> tuple[np.ndarray, SweepTrace]:
    """Element-wise search over each element's codebook phase, every phase
    starting at zero: one move per element, no block moves.  Every element's
    term at every level is computed once, and the state ``level`` holds each
    element's codebook index."""
    n = ula.num_elements
    level = np.zeros(n, dtype=np.intp)
    order, spans = group_layout(topology)
    elem = free_space_terms(ula.positions(), topology.user_xyz_m, config)[order]  # (K, N), group by group
    codebook = ula.codebook()
    terms = elem.T[:, :, None] * np.exp(1j * codebook)     # (N, K, L): element i at each level
    t_re, t_im = np.ascontiguousarray(terms.real), np.ascontiguousarray(terms.imag)
    noise = topology.noise_w[order]
    den = n * noise[:, None]
    base = np.zeros(codebook.size, dtype=np.intp)
    levels = np.arange(codebook.size)

    def element_moves():
        for i in range(n):
            w = np.exp(1j * codebook[level])
            w[i] = 0.0
            h_bar = (elem * w[None, :]).sum(axis=1)[:, None]
            c = CandidateSet(h_bar.real, h_bar.imag, t_re[i], t_im[i], base, levels, den)
            level[i] = yield c, level[i]

    trace = _sweep(_gains_of(elem.sum(axis=1), noise, n, spans), objective, config, spans, element_moves)
    return codebook[level], trace


def solve_ula(
    topology: Topology,
    scheme: str,
    config: SystemConfig,
    *,
    equal_time: bool = False,
) -> SchemeSolution:
    """Optimize the fixed array's phases for the chosen scheme.

    The phase sweep runs the same objective as the scheme's movable-antenna
    solver, and the gains it ended on go through the same resource
    allocation.  The slot-switched protocol re-optimizes phases per group on
    that group's users, since phase shifts are electronic and can change
    between slots.
    """
    ula = UlaConfig.from_system(config)
    array = Placement(x_m=ula.positions())
    g = topology.num_groups
    if scheme == "tdma-ps":
        runs = [_phase_sweep(topology.subset(gi), config, ula, pm_objective(1, config)) for gi in range(g)]
        sol = tdma_solution("PS", [array] * g, [tr for _, tr in runs], config)
        return replace(sol, baseline=True, phases=np.array([ph for ph, _ in runs]))

    if scheme == "tin":
        objective, solution = tin_objective(), lambda tr: tin_solution(array, tr, config)
    elif scheme == "noma":
        objective, solution = noma_objective(g, config), lambda tr: noma_solution(array, tr, config)
    elif scheme == "tdma-pm":
        objective = pm_objective(g, config, equal_time=equal_time)
        solution = lambda tr: tdma_solution("PM", [array], [tr], config, equal_time=equal_time)  # noqa: E731
    else:
        raise PinchcastError(f"unknown scheme {scheme!r}")
    phases, trace = _phase_sweep(topology, config, ula, objective)
    return replace(solution(trace), baseline=True, phases=phases)
