"""Common solution record emitted by every scheme solver."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .seo import SweepTrace

RATE_CONSISTENCY_RTOL = 1e-6


def trace_summary(trace: SweepTrace) -> dict[str, Any]:
    return {
        "objective": [float(v) for v in trace.objective],
        "sweeps": trace.sweeps,
        "converged": trace.converged,
        "stage2_evals": trace.stage2_evals,
        "total_candidates": trace.total_candidates,
        "retention": trace.retention,
    }


@dataclass
class SchemeSolution:
    """Scheme-agnostic result: placements, resource split and achieved rates.

    ``placements`` holds one coordinate array per configured placement (a
    single entry except for slot-switched TDMA, which has one per group).
    ``tau`` is the time fraction each group transmits in (all ones for the
    full-frame schemes).  ``phases`` holds a fixed array's phase weights,
    (N,) or, for slot-switched TDMA, (G, N).
    """

    scheme: str
    mmf_rate: float
    per_group_rates: np.ndarray
    power_w: np.ndarray
    tau: np.ndarray
    placements: list[np.ndarray]
    baseline: bool = False
    iterations: int = 0
    converged: bool = True
    traces: list[dict[str, Any]] = field(default_factory=list)
    phases: np.ndarray | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.per_group_rates = np.asarray(self.per_group_rates, dtype=float)
        self.power_w = np.asarray(self.power_w, dtype=float)
        self.tau = np.asarray(self.tau, dtype=float)
        self.placements = [np.asarray(p, dtype=float) for p in self.placements]
        lo = float(self.per_group_rates.min())
        scale = max(abs(lo), abs(self.mmf_rate), 1e-300)
        if abs(self.mmf_rate - lo) > RATE_CONSISTENCY_RTOL * scale:
            raise ValueError(
                f"mmf_rate {self.mmf_rate} inconsistent with min group rate {lo}"
            )

    @property
    def num_groups(self) -> int:
        return self.per_group_rates.size

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "scheme": self.scheme,
            "baseline": self.baseline,
            "mmf_rate": float(self.mmf_rate),
            "per_group_rates": [float(r) for r in self.per_group_rates],
            "power_w": [float(p) for p in self.power_w],
            "tau": [float(t) for t in self.tau],
            "placements": [[float(x) for x in p] for p in self.placements],
            "iterations": self.iterations,
            "converged": self.converged,
            "traces": self.traces,
        }
        if self.phases is not None:
            out["phases"] = np.asarray(self.phases).tolist()
        if self.extras:
            out["extras"] = {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.extras.items()
            }
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
