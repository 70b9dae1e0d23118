"""The one result record of a solve.

Every solver (``solve_tin``, ``solve_noma``, ``solve_tdma_ps``,
``solve_tdma_pm``, ``solve_ula``) and every gains-to-solution step
(``tin_solution``, ``noma_solution``, ``tdma_solution``) returns a
:class:`SchemeSolution`; scheme-specific values go to its ``extras``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .seo import SweepTrace
from .topology import Placement

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

    @classmethod
    def from_sweeps(
        cls, scheme: str, placements: list[Placement], traces: list[SweepTrace], **resources: Any
    ) -> "SchemeSolution":
        """The record of the placements the sweeps in ``traces`` ended on,
        with the resource split (rates, powers, slot fractions, extras)."""
        return cls(
            scheme=scheme,
            placements=[p.x_m for p in placements],
            iterations=max(t.sweeps for t in traces),
            converged=all(t.converged for t in traces),
            traces=[trace_summary(t) for t in traces],
            **resources,
        )

    def to_solution(self) -> "SchemeSolution":
        # the record itself, kept only for perfbench/workloads.py, which calls
        # it on every movable solve's result; it goes with that call
        # (ROADMAP item 3)
        return self

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
            out["extras"] = {k: _json_value(v) for k, v in self.extras.items()}
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)


def _json_value(v: Any) -> Any:
    # strict JSON has no inf or nan: a one-group TIN ceiling (inf) or an
    # equal-slot multiplier (nan) is written as null
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v
