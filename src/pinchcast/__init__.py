"""Max-min fair multicast rates for a pinching-antenna waveguide.

A single radio chain feeds movable antennas along a dielectric waveguide that
serve several multicast groups.  This package jointly optimizes the antenna
positions and the per-group resource split under three access schemes
(interference-as-noise, superposition with cancellation, orthogonal slots)
plus a fixed-array baseline, and ships a Monte-Carlo harness for sweep
experiments.
"""

from .channel import (
    effective_channel,
    effective_channels,
    free_space_channel,
    group_gains,
    in_waveguide_phase,
)
from .config import SPEED_OF_LIGHT, SystemConfig, dbm_to_watts, watts_to_dbm
from .errors import (
    ConfigError,
    InfeasiblePlacementError,
    PinchcastError,
    PlacementError,
    TopologyError,
)
from .experiments import (
    ExperimentResult,
    ExperimentSpec,
    emit,
    emit_traces,
    generate_topology,
    preset_spec,
    run_experiment,
)
from .fileio import load_config, load_topology, save_topology
from .noma import (
    DecodingOrder,
    decoding_order,
    noma_mmf_bisection,
    noma_upper_bound,
    recursive_power,
    sic_feasibility_margin,
    single_pa_asymptotic_objective,
    single_pa_required_power,
    solve_noma,
    two_group_power,
)
from .records import SchemeSolution
from .seo import (
    CandidateGrid,
    SweepTrace,
    feasible_candidates,
    hoe_sweep,
    random_placement,
    seo_sweep,
)
from .tdma import (
    TimeEnergyAllocation,
    equal_time_power,
    min_energy,
    min_total_energy,
    pm_rate,
    pm_resource_allocation,
    single_pa_pm,
    solve_tdma_pm,
    solve_tdma_ps,
    tau_from_nu,
)
from .tin import solve_tin, tin_ceiling, tin_placement_objective, tin_power
from .topology import GroupGains, Placement, Topology
from .ula import UlaConfig, solve_ula, ula_effective_channel

__version__ = "0.1.0"
