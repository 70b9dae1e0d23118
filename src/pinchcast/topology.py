"""User topology and antenna placement containers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import PlacementError, TopologyError

MIN_USER_DISTANCE_M = 1e-6  # users closer than this to an antenna are rejected


def _frozen_array(a, dtype=float) -> np.ndarray:
    arr = np.asarray(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Topology:
    """Group-partitioned user positions with per-user noise powers.

    ``groups`` holds disjoint tuples of user indices whose union covers all
    users.  ``user_xyz_m`` is (K, 3) with every z equal to 0 (user plane) and
    ``noise_w`` is the per-user noise power in watts.
    """

    groups: tuple[tuple[int, ...], ...]
    user_xyz_m: np.ndarray
    noise_w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(tuple(int(i) for i in g) for g in self.groups))
        object.__setattr__(self, "user_xyz_m", _frozen_array(self.user_xyz_m))
        object.__setattr__(self, "noise_w", _frozen_array(self.noise_w))
        xyz = self.user_xyz_m
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise TopologyError(f"user_xyz_m must be (K, 3), got {xyz.shape}")
        k = xyz.shape[0]
        if self.noise_w.shape != (k,):
            raise TopologyError(f"noise_w must have shape ({k},), got {self.noise_w.shape}")
        if not np.all(np.isfinite(xyz)):
            raise TopologyError("user coordinates must be finite")
        if not np.all((self.noise_w > 0) & np.isfinite(self.noise_w)):
            raise TopologyError("noise_w must be positive and finite for every user")
        if np.any(xyz[:, 2] != 0.0):
            raise TopologyError("users must lie on the ground plane (z = 0)")
        seen: list[int] = []
        for g, members in enumerate(self.groups):
            if not members:
                raise TopologyError(f"group {g} is empty")
            seen.extend(members)
        if sorted(seen) != list(range(k)):
            raise TopologyError("groups must be disjoint and cover every user exactly once")

    @property
    def num_users(self) -> int:
        return self.user_xyz_m.shape[0]

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def group_indices(self) -> list[np.ndarray]:
        return [np.asarray(g, dtype=int) for g in self.groups]

    def subset(self, group: int) -> "Topology":
        """The single-group topology holding only the users of ``group``."""
        members = list(self.groups[group])
        return Topology(
            groups=(tuple(range(len(members))),),
            user_xyz_m=self.user_xyz_m[members],
            noise_w=self.noise_w[members],
        )


@dataclass(frozen=True)
class Placement:
    """Sorted antenna x-coordinates along the waveguide."""

    x_m: np.ndarray

    def __post_init__(self) -> None:
        arr = np.atleast_1d(np.asarray(self.x_m, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise PlacementError(f"x_m must be a nonempty 1-D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PlacementError(f"x_m must be finite, got {arr}")
        arr = _frozen_array(np.sort(arr))
        object.__setattr__(self, "x_m", arr)

    @property
    def num_antennas(self) -> int:
        return self.x_m.size

    def validate(self, config: SystemConfig) -> None:
        x = self.x_m
        if x[0] < 0.0 or x[-1] > config.waveguide_length_m:
            raise PlacementError(
                f"antenna positions must lie in [0, {config.waveguide_length_m}], got "
                f"[{x[0]}, {x[-1]}]"
            )
        if x.size > 1:
            gaps = np.diff(x)
            if np.any(gaps < config.min_spacing_m):
                raise PlacementError(
                    f"minimum spacing {config.min_spacing_m:.6g} m violated "
                    f"(smallest gap {gaps.min():.6g} m)"
                )


@dataclass(frozen=True)
class GroupGains:
    """Per-group bottleneck channel-to-noise ratios for one placement.

    ``a`` holds the worst-user CNR of each group (1/W) and ``bottleneck_user``
    the global index of that user.
    """

    a: np.ndarray
    bottleneck_user: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _frozen_array(self.a))
        object.__setattr__(self, "bottleneck_user", _frozen_array(self.bottleneck_user, dtype=int))
        if np.any(self.a <= 0):
            raise TopologyError("bottleneck CNRs must be positive")

    @property
    def inv_sum(self) -> float:
        """Sum of inverse bottleneck CNRs (watts); the placement objective."""
        return float(np.sum(1.0 / self.a))
