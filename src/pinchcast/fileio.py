"""YAML readers for system configs, topologies and experiment specs.

Config files use the :class:`SystemConfig` field names; ``power_budget_dbm``
and ``noise_dbm`` are accepted as dBm aliases and converted at parse time.

Topology files list one entry per group, each a list of users given as
``[x, y]`` or ``[x, y, noise_dbm]`` (meters; dBm overrides the default noise):

    groups:
      - [[3.2, 1.0], [14.0, 5.2]]
      - [[8.0, 3.0, -85.0]]
    noise_dbm: -90     # optional file-wide default
"""
from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .config import CONFIG_FIELD_NAMES, SystemConfig, dbm_to_watts, is_number, watts_to_dbm
from .errors import ConfigError, PinchcastError, TopologyError
from .topology import Topology


def _load_yaml(path: str | Path) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        # a YAML error spans several lines; the message is kept to one
        raise ConfigError(f"cannot read {path}: {' '.join(str(exc).split())}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return data


def _dbm_watts(v: Any, key: str, error: type[PinchcastError]) -> float:
    """The dBm value ``v`` given under ``key``, in watts."""
    if not is_number(v):
        raise error(f"{key} must be a number, got {v!r}")
    return dbm_to_watts(float(v))


def config_from_dict(data: dict[str, Any]) -> SystemConfig:
    data = dict(data)
    for alias, key in (("power_budget_dbm", "power_budget_w"), ("noise_dbm", "noise_w")):
        if alias in data:
            if key in data:
                raise ConfigError(f"give {alias} or {key}, not both")
            data[key] = _dbm_watts(data.pop(alias), alias, ConfigError)
    unknown = set(data) - set(CONFIG_FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return SystemConfig(**data)


def load_config(path: str | Path) -> SystemConfig:
    data = _load_yaml(path)
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def topology_from_dict(data: dict[str, Any], default_noise_w: float) -> Topology:
    if "groups" not in data:
        raise TopologyError("topology file needs a 'groups' key")
    if not isinstance(data["groups"], list):
        raise TopologyError(f"groups must be a list of groups, got {data['groups']!r}")
    file_noise = data.get("noise_dbm")
    base_noise = default_noise_w if file_noise is None else _dbm_watts(file_noise, "noise_dbm", TopologyError)
    xyz: list[list[float]] = []
    noise: list[float] = []
    groups: list[tuple[int, ...]] = []
    idx = 0
    for gi, users in enumerate(data["groups"]):
        if not isinstance(users, list):
            raise TopologyError(f"group {gi} must be a list of users, got {users!r}")
        members = []
        for ui, entry in enumerate(users):
            if not (isinstance(entry, list) and len(entry) in (2, 3) and all(map(is_number, entry))):
                raise TopologyError(
                    f"group {gi}, user {ui}: expected numbers [x, y] or [x, y, noise_dbm], got {entry!r}"
                )
            xyz.append([float(entry[0]), float(entry[1]), 0.0])
            noise.append(dbm_to_watts(float(entry[2])) if len(entry) == 3 else base_noise)
            members.append(idx)
            idx += 1
        groups.append(tuple(members))
    return Topology(groups=tuple(groups), user_xyz_m=np.array(xyz), noise_w=np.array(noise))


def load_topology(path: str | Path, config: SystemConfig | None = None) -> Topology:
    default_noise = (config or SystemConfig()).noise_w
    data = _load_yaml(path)
    try:
        return topology_from_dict(data, default_noise)
    except TopologyError as exc:
        raise TopologyError(f"{path}: {exc}") from exc


def topology_to_dict(topology: Topology) -> dict[str, Any]:
    """The file form of ``topology``.  The noise goes in a file-wide
    ``noise_dbm`` when every user has the same, else in each user's entry, so
    it reloads the same whatever default noise the reader has."""
    noise_dbm = [watts_to_dbm(w) for w in topology.noise_w]
    per_user = len(set(noise_dbm)) > 1

    def user(k: int) -> list[float]:
        x, y, _ = topology.user_xyz_m[k]
        return [float(x), float(y), noise_dbm[k]] if per_user else [float(x), float(y)]

    out: dict[str, Any] = {"groups": [[user(k) for k in members] for members in topology.groups]}
    if not per_user:
        out["noise_dbm"] = noise_dbm[0]
    return out


def save_topology(topology: Topology, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(topology_to_dict(topology), fh, sort_keys=False)
