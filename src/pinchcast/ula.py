"""Fixed uniform linear array baseline with quantized analog beamforming.

The antennas sit at half-wavelength spacing centered on the aperture and
cannot move; the only degrees of freedom are per-element phase shifts drawn
from a uniform codebook.  Phases are optimized element-by-element against the
same scheme objectives used for the movable-antenna solvers, and the
resource allocation is shared unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import distances
from .config import SystemConfig
from .errors import PinchcastError
from .noma import noma_objective, noma_solution
from .records import SchemeSolution
from .seo import SweepObjective, SweepTrace, _candidate_gains, _group_min, _select, group_layout
from .tdma import pm_objective, tdma_solution
from .tin import tin_objective, tin_solution
from .topology import GroupGains, Placement, Topology

# unused here since the schemes' objectives and allocations moved to their
# modules; perfbench/tracing.py still wraps these names in this module
from .noma import _mmf_gamma, mmf_rate_bound_batch, noma_mmf_bisection  # noqa: F401
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


def _element_channels(ula: UlaConfig, topology: Topology, config: SystemConfig) -> np.ndarray:
    """Per-element free-space channels (no phase weights), shape (K, N)."""
    d = distances(ula.positions(), topology.user_xyz_m, config)
    amp = np.sqrt(config.path_gain_m2) / d
    return amp * np.exp(-1j * config.free_space_wavenumber * d)


def ula_effective_channel(phases: np.ndarray, user_xyz, config: SystemConfig) -> complex:
    """Channel seen by one user under phase weights exp(j*theta)/sqrt(N)."""
    phases = np.asarray(phases, dtype=float)
    ula = UlaConfig.from_system(config, phases.size)
    d = distances(ula.positions(), np.asarray(user_xyz, dtype=float).reshape(1, 3), config)[0]
    elem = np.sqrt(config.path_gain_m2) / d * np.exp(-1j * config.free_space_wavenumber * d)
    weights = np.exp(1j * phases) / math.sqrt(phases.size)
    return complex(elem @ weights)


def _phase_sweep(
    topology: Topology, config: SystemConfig, ula: UlaConfig, objective: SweepObjective
) -> tuple[np.ndarray, SweepTrace]:
    """Element-wise phase search mirroring the placement sweep mechanics."""
    n = ula.num_elements
    phases = np.zeros(n)
    order, spans = group_layout(topology)
    elem = _element_channels(ula, topology, config)[order]  # (K, N), group by group
    codebook = ula.codebook()
    phasors = np.exp(1j * codebook)                        # (L,)
    noise = topology.noise_w[order]
    trace = SweepTrace()

    h = elem.sum(axis=1)  # every phase starts at zero
    f_prev = v = objective.value(_group_min((h.real**2 + h.imag**2) / (n * noise), spans))
    trace.objective.append(f_prev)
    for _ in range(config.max_outer_iters):
        for i in range(n):
            w = np.exp(1j * phases)
            w[i] = 0.0
            h_bar = (elem * w[None, :]).sum(axis=1)
            cand_terms = elem[:, i][:, None] * phasors[None, :]   # (K, L)
            inc_hits = np.nonzero(codebook == phases[i])[0]
            inc_j = int(inc_hits[0]) if inc_hits.size else None
            A = _candidate_gains(h_bar, cand_terms, noise, n, spans)
            j, v, evals = _select(A, inc_j, objective, v)  # v: the incumbent's exact value
            trace.total_candidates += A.shape[1]
            trace.stage2_evals += evals
            phases[i] = codebook[j]
        trace.sweeps += 1
        f_new = v
        trace.objective.append(f_new)
        if abs(f_new - f_prev) <= config.tol * min(1.0, abs(f_prev)):
            trace.converged = True
            break
        f_prev = f_new
    return phases, trace


def _group_gains_for_phases(
    phases: np.ndarray, topology: Topology, config: SystemConfig, ula: UlaConfig
) -> np.ndarray:
    elem = _element_channels(ula, topology, config)
    h = (elem * np.exp(1j * phases)[None, :]).sum(axis=1)
    cnr = (h.real**2 + h.imag**2) / (ula.num_elements * topology.noise_w)
    return np.array([cnr[idx].min() for idx in topology.group_indices()])


def solve_ula(
    topology: Topology,
    scheme: str,
    config: SystemConfig,
    *,
    n_elements: int | None = None,
    equal_time: bool = False,
    use_hoe: bool = True,
) -> SchemeSolution:
    """Optimize the fixed array's phases for the chosen scheme.

    The phase sweep runs the same objective as the scheme's movable-antenna
    solver and the swept gains go through the same resource allocation.  The
    slot-switched protocol re-optimizes phases per group on that group's
    users, since phase shifts are electronic and can change between slots.
    """
    ula = UlaConfig.from_system(config, n_elements)
    array = Placement(x_m=ula.positions())
    g = topology.num_groups
    if scheme == "tdma-ps":
        runs = [_phase_sweep(topology.subset(gi), config, ula, pm_objective(1, config)) for gi in range(g)]
        phases = np.array([ph for ph, _ in runs])
        gains = np.array(
            [_group_gains_for_phases(ph, topology, config, ula)[gi] for gi, (ph, _) in enumerate(runs)]
        )
        sol = tdma_solution("PS", [array] * g, gains, [tr for _, tr in runs], config)
        return replace(sol.to_solution(), baseline=True, phases=phases)

    if scheme == "tin":
        objective = tin_objective()
    elif scheme == "noma":
        objective = noma_objective(g, config, use_hoe=use_hoe)
    elif scheme == "tdma-pm":
        objective = pm_objective(g, config, use_hoe=use_hoe, equal_time=equal_time)
    else:
        raise PinchcastError(f"unknown scheme {scheme!r}")
    phases, trace = _phase_sweep(topology, config, ula, objective)
    gains = GroupGains(a=_group_gains_for_phases(phases, topology, config, ula))
    if scheme == "tin":
        sol = tin_solution(array, gains, trace, config)
    elif scheme == "noma":
        sol = noma_solution(array, gains, trace, config)
    else:
        sol = tdma_solution("PM", [array], gains.a, [trace], config, equal_time=equal_time)
    return replace(sol.to_solution(), baseline=True, phases=phases)
