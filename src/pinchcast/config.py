"""System configuration and unit helpers.

All powers are stored in linear watts internally.  dBm only appears at the
parsing boundary (config/topology files and CLI flags).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def is_number(v: object, kind: type = numbers.Real) -> bool:
    """Whether ``v`` is a ``kind`` number; a bool is not one."""
    return isinstance(v, kind) and not isinstance(v, bool)


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_w: float) -> float:
    if p_w <= 0.0:
        raise ValueError(f"power must be positive to convert to dBm, got {p_w}")
    return 10.0 * math.log10(p_w) + 30.0


@dataclass(frozen=True)
class SystemConfig:
    """Physical constants, waveguide geometry, grid resolution and solver knobs.

    ``min_spacing_m`` defaults to half the free-space wavelength and
    ``waveguide_y_m`` to the middle of the service region; pass explicit
    values to override.
    """

    waveguide_length_m: float = 20.0      # aperture along x
    region_depth_m: float = 6.0           # service region along y
    height_m: float = 5.0                 # waveguide height above user plane
    waveguide_y_m: float = field(default=math.nan)   # nan -> region_depth_m / 2
    carrier_hz: float = 28e9
    refractive_index: float = 1.44        # effective index of the dielectric guide
    min_spacing_m: float = field(default=math.nan)   # nan -> wavelength / 2
    grid_points: int = 200
    power_budget_w: float = dbm_to_watts(-10.0)
    noise_w: float = dbm_to_watts(-90.0)  # default per-user noise power
    num_antennas: int = 10
    tol: float = 1e-4                     # sweep convergence tolerance
    max_outer_iters: int = 20             # cap on full placement sweeps

    def __post_init__(self) -> None:
        for f in fields(self):  # annotations are strings here
            whole = f.type == "int"
            v = getattr(self, f.name)
            if not is_number(v, numbers.Integral if whole else numbers.Real):
                raise ConfigError(f"{f.name} must be {'an integer' if whole else 'a number'}, got {v!r}")
        if math.isnan(self.waveguide_y_m):
            object.__setattr__(self, "waveguide_y_m", self.region_depth_m / 2.0)
        if math.isnan(self.min_spacing_m):
            object.__setattr__(self, "min_spacing_m", self.wavelength_m / 2.0)
        self._check()

    def _check(self) -> None:
        for f in fields(self):
            if f.type != "int" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        checks = [
            (self.waveguide_length_m > 0, "waveguide_length_m must be > 0"),
            (self.region_depth_m > 0, "region_depth_m must be > 0"),
            (self.height_m > 0, "height_m must be > 0"),
            (self.carrier_hz > 0, "carrier_hz must be > 0"),
            (self.refractive_index >= 1.0, "refractive_index must be >= 1"),
            (self.min_spacing_m > 0, "min_spacing_m must be > 0"),
            (self.grid_points >= 2, "grid_points must be >= 2"),
            (self.power_budget_w > 0, "power_budget_w must be > 0"),
            (self.noise_w > 0, "noise_w must be > 0"),
            (self.num_antennas >= 1, "num_antennas must be >= 1"),
            (self.tol > 0, "tol must be > 0"),
            (self.max_outer_iters >= 1, "max_outer_iters must be >= 1"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)

    # ---- derived quantities -------------------------------------------------

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def guided_wavelength_m(self) -> float:
        return self.wavelength_m / self.refractive_index

    @property
    def free_space_wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength_m

    @property
    def guided_wavenumber(self) -> float:
        return 2.0 * math.pi / self.guided_wavelength_m

    @property
    def path_gain_m2(self) -> float:
        """Free-space power gain at 1 m: (c / (4 pi f_c))^2."""
        return (SPEED_OF_LIGHT / (4.0 * math.pi * self.carrier_hz)) ** 2

    def with_power_dbm(self, p_dbm: float) -> "SystemConfig":
        return replace(self, power_budget_w=dbm_to_watts(p_dbm))

    def replace(self, **kwargs) -> "SystemConfig":
        return replace(self, **kwargs)


CONFIG_FIELD_NAMES = tuple(f.name for f in fields(SystemConfig))
