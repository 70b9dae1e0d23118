"""Waveguide and free-space line-of-sight channel evaluation.

The effective channel seen by a user is the inner product of the free-space
element channels with the in-waveguide response of the antennas.  With equal
power scaling 1/N across antennas the magnitude factorizes, so the sweep
machinery works with unscaled per-antenna path terms and applies the 1/N
power split once at CNR time.
"""
from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .errors import TopologyError
from .topology import MIN_USER_DISTANCE_M, GroupGains, Placement, Topology


def antenna_positions_xyz(x_m: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Lift antenna x-coordinates to 3-D points on the waveguide."""
    x = np.atleast_1d(np.asarray(x_m, dtype=float))
    out = np.empty((x.size, 3))
    out[:, 0] = x
    out[:, 1] = config.waveguide_y_m
    out[:, 2] = config.height_m
    return out


def distances(x_m: np.ndarray, user_xyz: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Euclidean distances from antennas at ``x_m`` to users, shape (K, M)."""
    ant = antenna_positions_xyz(x_m, config)          # (M, 3)
    users = np.atleast_2d(np.asarray(user_xyz, dtype=float))  # (K, 3)
    d = np.linalg.norm(users[:, None, :] - ant[None, :, :], axis=2)
    if np.any(d < MIN_USER_DISTANCE_M):
        raise TopologyError(
            f"user coincides with an antenna (distance < {MIN_USER_DISTANCE_M} m)"
        )
    return d


def in_waveguide_phase(placement: Placement, config: SystemConfig) -> np.ndarray:
    """In-waveguide response vector: sqrt(1/N) * exp(-j * k_guided * x_n)."""
    x = placement.x_m
    n = x.size
    return np.sqrt(1.0 / n) * np.exp(-1j * config.guided_wavenumber * x)


def free_space_terms(x_m: np.ndarray, user_xyz: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Free-space LoS element channels from antennas at ``x_m``, shape (K, M).

    Entry (k, m) is sqrt(eta) / D * exp(-j * k0 * D) with D the distance
    from antenna m to user k.
    """
    d = distances(x_m, user_xyz, config)
    amp = np.sqrt(config.path_gain_m2) / d
    return amp * np.exp(-1j * config.free_space_wavenumber * d)


def free_space_channel(
    placement: Placement, user_xyz: np.ndarray, config: SystemConfig
) -> np.ndarray:
    """Free-space LoS element channels to one user, shape (N,)."""
    return free_space_terms(placement.x_m, user_xyz, config)[0]


def effective_channel(placement: Placement, user_xyz, config: SystemConfig) -> complex:
    """Cascaded waveguide-to-user channel (scalar inner product)."""
    h = free_space_channel(placement, user_xyz, config)
    psi = in_waveguide_phase(placement, config)
    return complex(h @ psi)


def path_terms(x_m: np.ndarray, user_xyz: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Unscaled per-antenna path terms, shape (K, M).

    Entry (k, m) is sqrt(eta)/D * exp(-j*(k0*D + kg*x_m)); the effective
    channel of a placement is sqrt(1/N) times the row sum over its antennas.
    """
    x = np.atleast_1d(np.asarray(x_m, dtype=float))
    d = distances(x, user_xyz, config)
    amp = np.sqrt(config.path_gain_m2) / d
    phase = config.free_space_wavenumber * d + config.guided_wavenumber * x[None, :]
    return amp * np.exp(-1j * phase)


def effective_channels(placement: Placement, topology: Topology, config: SystemConfig) -> np.ndarray:
    """Effective channel for every user, shape (K,)."""
    terms = path_terms(placement.x_m, topology.user_xyz_m, config)
    return np.sqrt(1.0 / placement.num_antennas) * terms.sum(axis=1)


def user_cnrs(placement: Placement, topology: Topology, config: SystemConfig) -> np.ndarray:
    """Per-user channel-to-noise ratios |h_k|^2 / sigma_k^2, shape (K,)."""
    h = effective_channels(placement, topology, config)
    return (h.real**2 + h.imag**2) / topology.noise_w


def group_gains(placement: Placement, topology: Topology, config: SystemConfig) -> GroupGains:
    """Bottleneck (worst-user) CNR of each group for one placement."""
    cnr = user_cnrs(placement, topology, config)
    g = topology.num_groups
    a = np.empty(g)
    bottleneck = np.empty(g, dtype=int)
    for gi, members in enumerate(topology.group_indices()):
        vals = cnr[members]
        local = int(np.argmin(vals))
        a[gi] = vals[local]
        bottleneck[gi] = members[local]
    return GroupGains(a=a, bottleneck_user=bottleneck)
