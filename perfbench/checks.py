"""Checks of solver outputs, computed apart from the program.

Bottleneck gains are recomputed here from the returned placement or phases
with the line-of-sight channel written out below, not with
``pinchcast.channel``.  Antenna n sits on the waveguide at
(x_n, y_w, h) and user k on the ground at (u_x, u_y, 0), so

    D_kn = sqrt((u_x - x_n)^2 + (u_y - y_w)^2 + h^2)
    h_k  = (1/sqrt(N)) * sum_n sqrt(eta) / D_kn * exp(-j k0 D_kn) * w_n
    CNR_k = |h_k|^2 / sigma_k^2,   a_g = min over the members of group g

with lambda = c / f_c, k0 = 2 pi / lambda, eta = (lambda / (4 pi))^2 and
w_n = exp(-j kg x_n), kg = 2 pi n_eff / lambda, for the pinching antennas
(the in-waveguide phase from the feed at x = 0), or w_n = exp(j theta_n) for
the fixed array, whose elements sit lambda/2 apart around the middle of the
aperture.

Each check returns a list of messages, empty when the output passes.
"""
from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

C_M_PER_S = 299_792_458.0

# Tolerances, relative unless named _ATOL.  The solvers stop their own
# iterations at about 1e-12; gains computed here differ from the program's
# by rounding in the phase of terms about 1e3 rad long.
RATE_RTOL = 1e-9        # a rate against its closed form or the MMF rate
# The NOMA solver's bisection stops at a bracket of 1e-12 * p_t * a_min, not
# relative to the SINR it finds, so its SINR falls short of the root by up
# to about 2e-9 relative on these workloads' inputs.
NOMA_RTOL = 1e-7        # the NOMA SINR and rate against the root found here
POWER_RTOL = 1e-7       # a power or energy total against the budget
TAU_ATOL = 1e-9         # the slot lengths against a unit frame
TRACE_RTOL = 1e-12      # slack of a monotone sweep trace
POSITION_ATOL = 1e-12   # fixed-array element positions, metres
MEAN_RTOL = 1e-12       # a summary mean against the mean of its trials


def wavelength(config) -> float:
    return C_M_PER_S / config.carrier_hz


def _cnr(ant_x: np.ndarray, weights: np.ndarray, topology, config) -> np.ndarray:
    lam = wavelength(config)
    k0 = 2.0 * math.pi / lam
    eta = (lam / (4.0 * math.pi)) ** 2
    users = np.asarray(topology.user_xyz_m, dtype=float)
    dx = users[:, 0:1] - ant_x[None, :]
    dy = users[:, 1:2] - config.waveguide_y_m
    d = np.sqrt(dx * dx + dy * dy + config.height_m ** 2)
    h = (math.sqrt(eta) / d * np.exp(-1j * k0 * d)) @ weights / math.sqrt(ant_x.size)
    return np.abs(h) ** 2 / np.asarray(topology.noise_w, dtype=float)


def _bottlenecks(cnr: np.ndarray, topology) -> np.ndarray:
    return np.array([cnr[list(members)].min() for members in topology.groups])


def pinching_gains(x_m, topology, config) -> np.ndarray:
    """Bottleneck CNR of every group for antennas at ``x_m``."""
    x = np.asarray(x_m, dtype=float)
    kg = 2.0 * math.pi * config.refractive_index / wavelength(config)
    return _bottlenecks(_cnr(x, np.exp(-1j * kg * x), topology, config), topology)


def ula_positions(n: int, config) -> np.ndarray:
    offsets = (np.arange(n) - (n - 1) / 2.0) * wavelength(config) / 2.0
    return config.waveguide_length_m / 2.0 + offsets


def ula_gains(phases, topology, config) -> np.ndarray:
    """Bottleneck CNR of every group for the fixed array with ``phases``."""
    theta = np.asarray(phases, dtype=float)
    x = ula_positions(theta.size, config)
    return _bottlenecks(_cnr(x, np.exp(1j * theta), topology, config), topology)


def _close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * max(abs(ref), 1e-300)


def _placement_errors(x, config) -> list[str]:
    x = np.asarray(x, dtype=float)
    errs = []
    if x.size != config.num_antennas:
        errs.append(f"placement has {x.size} antennas, config has {config.num_antennas}")
    if np.any(x < 0.0) or np.any(x > config.waveguide_length_m):
        errs.append(f"placement leaves the aperture [0, {config.waveguide_length_m}]: {x}")
    gaps = np.diff(np.sort(x))
    if gaps.size and gaps.min() < config.min_spacing_m:
        errs.append(f"antennas {gaps.min():.6g} m apart, minimum {config.min_spacing_m:.6g} m")
    return errs


def _phase_errors(phases, config) -> list[str]:
    levels = config.grid_points
    steps = np.asarray(phases, dtype=float) * levels / (2.0 * math.pi)
    index = np.round(steps)
    if np.any(np.abs(steps - index) > 1e-9) or np.any(index < 0) or np.any(index >= levels):
        return [f"phases outside the {levels}-level codebook: {np.asarray(phases)}"]
    return []


def _ula_geometry_errors(positions, n: int, config) -> list[str]:
    ref = ula_positions(n, config)
    if np.asarray(positions).shape != ref.shape or not np.allclose(positions, ref, rtol=0.0, atol=POSITION_ATOL):
        return [f"fixed-array positions {positions} differ from {ref}"]
    return []


def _trace_errors(traces, minimize: bool) -> list[str]:
    errs = []
    for t_idx, trace in enumerate(traces):
        obj = np.asarray(trace["objective"], dtype=float)
        step = np.diff(obj)
        slack = TRACE_RTOL * np.abs(obj[:-1])
        worse = step > slack if minimize else step < -slack
        if not np.all(np.isfinite(obj)) or np.any(worse):
            errs.append(f"sweep trace {t_idx} is not monotone: {obj.tolist()}")
    return errs


def tin_rate(gains: np.ndarray, p_t: float) -> float:
    """Max-min rate of interference-as-noise: log2(1 + gamma) with
    gamma = 1 / (G - 1 + sum_g 1 / (p_t a_g))."""
    gamma = 1.0 / (gains.size - 1.0 + float(np.sum(1.0 / (p_t * gains))))
    return math.log2(1.0 + gamma)


def noma_gamma(gains: np.ndarray, p_t: float) -> float:
    """Root of sum_k gamma (1 + gamma)^k / a_(k) = p_t, gains ascending,
    by bisection to the last representable midpoint."""
    a = np.sort(np.asarray(gains, dtype=float))

    def required(gamma: float) -> float:
        return sum(gamma * (1.0 + gamma) ** k / ak for k, ak in enumerate(a))

    lo, hi = 0.0, p_t * float(a[0])
    if required(hi) <= p_t:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if required(mid) <= p_t:
            lo = mid
        else:
            hi = mid


def _sic_sinrs(gains: np.ndarray, powers: np.ndarray) -> np.ndarray:
    # decode in ascending gain order; a group still hears every stronger group
    order = np.argsort(gains, kind="stable")
    sinr = np.empty(gains.size)
    stronger = 0.0
    for g in order[::-1]:
        sinr[g] = powers[g] * gains[g] / (1.0 + gains[g] * stronger)
        stronger += powers[g]
    return sinr


def _tin_errors(sol, gains, p_t) -> list[str]:
    errs = []
    ref = tin_rate(gains, p_t)
    if not _close(sol.mmf_rate, ref, RATE_RTOL):
        errs.append(f"tin rate {sol.mmf_rate!r}, closed form {ref!r}")
    p = sol.power_w
    if not _close(float(p.sum()), p_t, POWER_RTOL):
        errs.append(f"tin powers sum to {float(p.sum())!r}, budget {p_t!r}")
    sinr = p * gains / (1.0 + gains * (p.sum() - p))
    if not _close(math.log2(1.0 + float(sinr.min())), ref, RATE_RTOL):
        errs.append(f"tin SINRs {sinr} do not give rate {ref!r}")
    return errs


def _noma_errors(sol, gains, p_t) -> list[str]:
    errs = []
    gamma = noma_gamma(gains, p_t)
    ref = math.log2(1.0 + gamma)
    if not _close(float(sol.extras.get("equalized_sinr", math.nan)), gamma, NOMA_RTOL):
        errs.append(f"noma SINR {sol.extras.get('equalized_sinr')!r}, root {gamma!r}")
    if not _close(sol.mmf_rate, ref, NOMA_RTOL):
        errs.append(f"noma rate {sol.mmf_rate!r}, from root {ref!r}")
    p = sol.power_w
    if not _close(float(p.sum()), p_t, POWER_RTOL):
        errs.append(f"noma powers sum to {float(p.sum())!r}, budget {p_t!r}")
    sinr = _sic_sinrs(gains, p)
    if not np.allclose(sinr, gamma, rtol=NOMA_RTOL, atol=0.0):
        errs.append(f"noma SIC SINRs {sinr} differ from {gamma!r}")
    if not _close(math.log2(1.0 + float(sinr.min())), sol.mmf_rate, RATE_RTOL):
        errs.append(f"noma SIC SINRs {sinr} do not give rate {sol.mmf_rate!r}")
    tin = tin_rate(gains, p_t)
    if sol.mmf_rate < tin * (1.0 - RATE_RTOL):
        errs.append(f"noma rate {sol.mmf_rate!r} below tin {tin!r} at its placement")
    return errs


def _tdma_errors(sol, gains, p_t) -> list[str]:
    errs = []
    tau = sol.tau
    energy = sol.power_w * tau
    if np.any(tau <= 0.0) or abs(float(tau.sum()) - 1.0) > TAU_ATOL:
        errs.append(f"slot lengths {tau} do not fill a unit frame")
    if np.any(energy <= 0.0) or not _close(float(energy.sum()), p_t, POWER_RTOL):
        errs.append(f"energies {energy} do not sum to the budget {p_t!r}")
    slot = tau * np.log2(1.0 + energy * gains / tau)
    if not np.allclose(slot, sol.mmf_rate, rtol=RATE_RTOL, atol=0.0):
        errs.append(f"slot rates {slot} differ from the MMF rate {sol.mmf_rate!r}")
    return errs


def check_solution(sol, topology, config) -> list[str]:
    """Every check that applies to ``sol`` (a ``SchemeSolution``)."""
    p_t = config.power_budget_w
    g = len(topology.groups)
    scheme = sol.scheme
    errs: list[str] = []
    if not (math.isfinite(sol.mmf_rate) and sol.mmf_rate > 0.0):
        return [f"{scheme}: rate {sol.mmf_rate!r} is not a positive number"]
    if sol.baseline:
        # one row of phases, or one per slot for slot-switched TDMA
        per_slot = np.atleast_2d(sol.phases)
        for positions in sol.placements:
            errs += _ula_geometry_errors(positions, per_slot.shape[1], config)
        for phases in per_slot:
            errs += _phase_errors(phases, config)
        gain_rows = [ula_gains(phases, topology, config) for phases in per_slot]
    else:
        for x in sol.placements:
            errs += _placement_errors(x, config)
        gain_rows = [pinching_gains(x, topology, config) for x in sol.placements]
    if scheme == "tdma-ps":
        # slot g uses its own placement (or phases); only group g counts there
        gains = np.array([row[gi] for gi, row in enumerate(gain_rows)])
    else:
        gains = gain_rows[0]
    if gains.size != g:
        return errs + [f"{scheme}: {gains.size} gains for {g} groups"]
    errs += _trace_errors(sol.traces, minimize=(scheme == "tin"))
    if scheme == "tin":
        errs += _tin_errors(sol, gains, p_t)
    elif scheme == "noma":
        errs += _noma_errors(sol, gains, p_t)
    elif scheme in ("tdma-ps", "tdma-pm"):
        errs += _tdma_errors(sol, gains, p_t)
    else:
        errs.append(f"unknown scheme {scheme!r}")
    label = ("ula-" if sol.baseline else "") + scheme
    return [f"{label}: {e}" for e in errs]


def _read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_emitted(out_dir) -> list[str]:
    """``summary.csv`` against the means and counts recomputed from
    ``trials.csv``, both as written by ``emit``."""
    out = Path(out_dir)
    summary = _read_csv(out / "summary.csv")
    trials = _read_csv(out / "trials.csv")
    groups: dict[tuple, list[dict[str, str]]] = defaultdict(list)
    for row in trials:
        groups[(float(row["sweep_value"]), row["scheme"], row["baseline"])].append(row)
    errs = []
    if len(summary) != len(groups):
        errs.append(f"summary.csv has {len(summary)} rows for {len(groups)} trial groups")
    for row in summary:
        key = (float(row["sweep_value"]), row["scheme"], row["baseline"])
        members = groups.get(key, [])
        rates = [float(m["mmf_rate"]) for m in members if not m["error"]]
        failed = sum(1 for m in members if m["error"])
        mean = math.fsum(rates) / len(rates) if rates else math.nan
        if int(row["trials_ok"]) != len(rates) or int(row["trials_failed"]) != failed:
            errs.append(f"summary counts {key} differ from trials.csv")
        if not _close(float(row["mean_rate"]), mean, MEAN_RTOL):
            errs.append(f"summary mean {key} {row['mean_rate']} differs from trials.csv mean {mean!r}")
    return errs
