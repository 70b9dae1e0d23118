"""The benchmark's own tests, on tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import copy
import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import metrics
import pinchcast as pc
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
TINY = pc.SystemConfig(grid_points=40, num_antennas=3)


def _tiny_case(num_groups: int, seed: int = 0, config=TINY, clustered=False) -> workloads.Case:
    seq = np.random.SeedSequence([seed, num_groups])
    return workloads._case(pc, seq, config, clustered, num_groups, 2 * num_groups)


@pytest.fixture(scope="module")
def solved():
    """Every scheme on a tiny G=3 drop at -10 dBm and a clustered one at 30 dBm."""
    hot = TINY.with_power_dbm(30.0)
    out = []
    for case in (_tiny_case(3), _tiny_case(3, seed=1, config=hot, clustered=True)):
        out += [(s, workloads.solve(pc, s, case), case) for s in metrics.SCHEMES]
    return out


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_lists_the_metrics_and_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == metrics.per_layer()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert len(bounds) == 12 and all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# -- independent checks ------------------------------------------------------


def test_channel_formula_matches_the_program_model():
    case = _tiny_case(3)
    x = pc.random_placement(TINY, np.random.default_rng(3)).x_m
    ours = checks.pinching_gains(x, case.topology, TINY)
    theirs = pc.group_gains(pc.Placement(x), case.topology, TINY).a
    np.testing.assert_allclose(ours, theirs, rtol=1e-9)


def test_noma_root_solves_the_power_equation():
    a = np.array([3.0e3, 1.0e4, 5.0e4])
    gamma = checks.noma_gamma(a, 0.1)
    required = sum(gamma * (1 + gamma) ** k / ak for k, ak in enumerate(np.sort(a)))
    assert required == pytest.approx(0.1, rel=1e-14)
    assert checks.noma_gamma(np.array([7.0]), 0.1) == pytest.approx(0.7)


def test_every_tiny_solution_passes(solved):
    for scheme, sol, case in solved:
        assert checks.check_solution(sol, case.topology, case.config) == [], scheme


@pytest.mark.parametrize("scheme", ["tin", "noma", "tdma-ps", "tdma-pm", "ula-noma", "ula-tdma-pm"])
def test_a_perturbed_rate_is_rejected(solved, scheme):
    sol, case = next((s, c) for name, s, c in solved if name == scheme)
    bad = copy.deepcopy(sol)
    bad.mmf_rate *= 1.0 + 1e-6
    assert checks.check_solution(bad, case.topology, case.config)


def test_an_antenna_inside_the_minimum_spacing_is_rejected(solved):
    sol, case = next((s, c) for name, s, c in solved if name == "tin")
    bad = copy.deepcopy(sol)
    x = bad.placements[0].copy()
    x[1] = x[0] + 0.5 * TINY.min_spacing_m
    bad.placements[0] = x
    errs = checks.check_solution(bad, case.topology, case.config)
    assert any("apart" in e for e in errs)


def test_a_placement_outside_the_aperture_is_rejected(solved):
    sol, case = next((s, c) for name, s, c in solved if name == "noma")
    bad = copy.deepcopy(sol)
    bad.placements[0] = bad.placements[0] + TINY.waveguide_length_m
    assert any("aperture" in e for e in checks.check_solution(bad, case.topology, case.config))


def test_a_phase_off_the_codebook_is_rejected(solved):
    sol, case = next((s, c) for name, s, c in solved if name == "ula-tin")
    bad = copy.deepcopy(sol)
    bad.phases = bad.phases + 0.25 * 2 * math.pi / TINY.grid_points
    assert any("codebook" in e for e in checks.check_solution(bad, case.topology, case.config))


@pytest.mark.parametrize("scheme", ["tdma-ps", "tdma-pm", "ula-tdma-ps"])
def test_slot_lengths_that_do_not_fill_the_frame_are_rejected(solved, scheme):
    sol, case = next((s, c) for name, s, c in solved if name == scheme)
    bad = copy.deepcopy(sol)
    bad.tau = bad.tau * (1.0 + 1e-6)
    assert any("unit frame" in e for e in checks.check_solution(bad, case.topology, case.config))


def test_noma_powers_off_the_budget_are_rejected(solved):
    sol, case = next((s, c) for name, s, c in solved if name == "noma")
    bad = copy.deepcopy(sol)
    bad.power_w = bad.power_w * (1.0 + 1e-5)
    assert checks.check_solution(bad, case.topology, case.config)


def test_a_trace_that_gets_worse_is_rejected(solved):
    sol, case = next((s, c) for name, s, c in solved if name == "tdma-pm")
    bad = copy.deepcopy(sol)
    bad.traces[0]["objective"] = list(bad.traces[0]["objective"]) + [bad.traces[0]["objective"][-1] * 0.9]
    assert any("monotone" in e for e in checks.check_solution(bad, case.topology, case.config))


def test_emitted_summary_is_checked_against_trials(tmp_path):
    spec = pc.preset_spec("groups", trials=2, values=[2.0, 3.0], seed=5)
    result = pc.run_experiment(spec, TINY, workers=1)
    pc.emit(result, tmp_path, per_trial=True)
    assert checks.check_emitted(tmp_path) == []
    path = tmp_path / "summary.csv"
    rows = list(csv.reader(path.open()))
    rows[1][3] = repr(float(rows[1][3]) * (1.0 + 1e-9))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert checks.check_emitted(tmp_path)


# -- inputs -------------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    a, b, c = (workloads.Inputs(pc, "high-power", s) for s in (4, 4, 5))
    for i in (0, 30):
        np.testing.assert_array_equal(a.case(i).topology.user_xyz_m, b.case(i).topology.user_xyz_m)
    assert not np.array_equal(a.case(0).topology.user_xyz_m, c.case(0).topology.user_xyz_m)
    xyz = a.case(0).topology.user_xyz_m
    width = a.config.waveguide_length_m / 6
    for g, members in enumerate(a.case(0).topology.groups):
        assert np.all((xyz[list(members), 0] >= g * width) & (xyz[list(members), 0] <= (g + 1) * width))
    s1, s2 = workloads.Inputs(pc, "sweep", 4), workloads.Inputs(pc, "sweep", 4)
    assert s1.sweep_round(7)[0] == s2.sweep_round(7)[0]
    assert s1.sweep_round(0)[0].seed != s1.sweep_round(1)[0].seed


# -- tracing ------------------------------------------------------------------


def test_layer_self_time_subtracts_children():
    spans = [
        ["solve.tin", 0, 100, -1],
        ["seo.sweep", 10, 90, 0],
        ["seo.gains", 20, 50, 1],
        ["seo.gains", 60, 70, 1],
        ["experiments.emit", 200, 230, -1],
    ]
    totals = tracing.layer_totals(spans)
    assert totals[("seo.sweep", "tin")] == pytest.approx([40e-9, 80e-9, 1])
    assert totals[("seo.gains", "tin")] == pytest.approx([40e-9, 40e-9, 2])
    assert totals[("solve", "tin")][2] == 1
    assert totals[("experiments.emit", None)] == pytest.approx([30e-9, 30e-9, 1])


def test_a_missing_name_is_reported_not_raised():
    tracer = tracing.Tracer()
    with tracer.install([("pinchcast.seo", "no_such_function", "seo.x", "call"),
                         ("pinchcast.no_such_module", "f", "x", "call")]):
        pass
    assert tracer.missing == {"pinchcast.seo.no_such_function", "pinchcast.no_such_module.f"}


def test_tracing_restores_the_program_and_records_each_layer():
    originals = {(m, a): _lookup(m, a) for m, a, _, _ in tracing.WRAPS}
    tracer = tracing.Tracer()
    tally = workloads.Tally()
    with tracer:
        workloads.solve_round(pc, 0, _tiny_case(3), tally, tracer)
    assert {(m, a): _lookup(m, a) for m, a, _, _ in tracing.WRAPS} == originals
    assert not tracer.missing and tally.failed == 0
    names = {name for name, *_ in tracer.spans}
    for layer, _, _ in metrics.LAYERS:
        assert layer in names, layer
    values = workloads._layer_metrics(tracer)
    assert values["seo.gains_ms.tin"] > 0 and values["tdma.alloc_calls.tdma-ps"] == 1


def _lookup(module, attr):
    owner = sys.modules[module]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


# -- the command --------------------------------------------------------------


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
