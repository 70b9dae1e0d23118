import csv
import itertools
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import yaml

from pinchcast import (
    ExperimentSpec,
    PinchcastError,
    SchemeSolution,
    SystemConfig,
    dbm_to_watts,
    emit,
    emit_traces,
    generate_topology,
    load_config,
    load_topology,
    preset_spec,
    run_experiment,
    save_topology,
    solve_noma,
    solve_tdma_pm,
    solve_tdma_ps,
    solve_tin,
    solve_ula,
    watts_to_dbm,
)
from pinchcast.experiments import SCHEMES, TOPOLOGY_MODES, ExperimentResult, _solve_one, spec_point_config


class TestUnits:
    def test_dbm_round_trip(self):
        assert dbm_to_watts(-10.0) == pytest.approx(1e-4, rel=1e-12)
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
        assert watts_to_dbm(dbm_to_watts(7.3)) == pytest.approx(7.3, rel=1e-12)


class TestGenerateTopology:
    def test_deterministic_under_fixed_seed(self):
        cfg = SystemConfig()
        t1 = generate_topology("uniform_random", cfg, np.random.default_rng(5), num_groups=3, num_users=9)
        t2 = generate_topology("uniform_random", cfg, np.random.default_rng(5), num_groups=3, num_users=9)
        assert np.array_equal(t1.user_xyz_m, t2.user_xyz_m)
        assert t1.groups == t2.groups

    def test_heterogeneous_clusters_partition_aperture(self):
        cfg = SystemConfig(waveguide_length_m=20.0)
        topo = generate_topology(
            "heterogeneous_clusters", cfg, np.random.default_rng(0), num_groups=4, num_users=40
        )
        for gi, members in enumerate(topo.groups):
            xs = topo.user_xyz_m[list(members), 0]
            assert np.all(xs >= 5.0 * gi)
            assert np.all(xs < 5.0 * (gi + 1))

    def test_uniform_mean_near_center(self):
        cfg = SystemConfig(waveguide_length_m=20.0)
        topo = generate_topology(
            "uniform_random", cfg, np.random.default_rng(1), num_groups=2, num_users=100_000
        )
        assert topo.user_xyz_m[:, 0].mean() == pytest.approx(10.0, rel=0.01)
        assert topo.user_xyz_m[:, 1].mean() == pytest.approx(3.0, rel=0.01)

    def test_uneven_split_covers_all_users(self):
        cfg = SystemConfig()
        topo = generate_topology("uniform_random", cfg, np.random.default_rng(2), num_groups=3, num_users=10)
        sizes = sorted(len(g) for g in topo.groups)
        assert sizes == [3, 3, 4]

    def test_rejects_unknown_mode(self):
        cfg = SystemConfig()
        with pytest.raises(PinchcastError):
            generate_topology("gridded", cfg, np.random.default_rng(0), num_groups=2, num_users=4)


class TestFileIo:
    def test_config_round_trip(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            "waveguide_length_m: 15.0\npower_budget_dbm: 0.0\nnoise_dbm: -80.0\n"
            "grid_points: 64\nnum_antennas: 4\n"
        )
        cfg = load_config(path)
        assert cfg.waveguide_length_m == 15.0
        assert cfg.power_budget_w == pytest.approx(1e-3, rel=1e-12)
        assert cfg.noise_w == pytest.approx(1e-11, rel=1e-12)
        assert cfg.grid_points == 64

    def test_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("wavelength: 0.01\n")
        with pytest.raises(Exception):
            load_config(path)

    def test_topology_file_with_noise_overrides(self, tmp_path):
        path = tmp_path / "topo.yaml"
        path.write_text(
            "groups:\n"
            "  - [[3.0, 1.0], [14.0, 5.0, -85.0]]\n"
            "  - [[8.0, 3.0]]\n"
            "noise_dbm: -92.0\n"
        )
        topo = load_topology(path)
        assert topo.num_users == 3
        assert topo.groups == ((0, 1), (2,))
        assert topo.noise_w[0] == pytest.approx(dbm_to_watts(-92.0), rel=1e-12)
        assert topo.noise_w[1] == pytest.approx(dbm_to_watts(-85.0), rel=1e-12)
        assert np.all(topo.user_xyz_m[:, 2] == 0.0)

    def test_topology_save_load_round_trip(self, tmp_path):
        # noise uniform at a non-default level, per-user values 2e-6 apart,
        # and the default; each reloads the same under the reader's default
        # noise or another one
        cfg = SystemConfig()
        topo = generate_topology("uniform_random", cfg, np.random.default_rng(3), num_groups=2, num_users=6)
        k = topo.num_users
        noises = {
            "uniform": np.full(k, dbm_to_watts(-85.0)),
            "per-user": dbm_to_watts(-85.0) * (1.0 + 2e-6 * np.arange(k)),
            "default": topo.noise_w,
        }
        for name, noise in noises.items():
            path = tmp_path / f"{name}.yaml"
            save_topology(replace(topo, noise_w=noise), path)
            for reader in (cfg, cfg.replace(noise_w=dbm_to_watts(-80.0))):
                back = load_topology(path, reader)
                assert np.allclose(back.user_xyz_m, topo.user_xyz_m, rtol=0, atol=1e-12)
                assert back.groups == topo.groups
                assert np.allclose(back.noise_w, noise, rtol=1e-12, atol=0), name


class TestRunExperiment:
    def _tiny_spec(self, **over):
        base = dict(
            sweep="power_dbm", values=[-10.0, 0.0], schemes=["tin"],
            trials=3, seed=7, num_groups=2, num_users=4, num_antennas=2,
        )
        base.update(over)
        return ExperimentSpec(**base)

    def _tiny_config(self):
        return SystemConfig(waveguide_length_m=10.0, grid_points=30, num_antennas=2)

    def test_single_row_per_combination(self):
        spec = self._tiny_spec(values=[-10.0], trials=1)
        res = run_experiment(spec, self._tiny_config())
        assert len(res.rows) == 1
        summary = res.summary()
        assert len(summary) == 1
        assert summary[0]["trials_ok"] == 1
        assert summary[0]["trials_failed"] == 0

    def test_deterministic_under_seed(self):
        spec = self._tiny_spec()
        r1 = run_experiment(spec, self._tiny_config())
        r2 = run_experiment(spec, self._tiny_config())
        assert r1.rows == r2.rows

    def test_sweep_applies_config_overrides(self):
        spec = self._tiny_spec(sweep="num_antennas", values=[2.0, 3.0])
        cfg = spec_point_config(spec, self._tiny_config(), 3.0)
        assert cfg.num_antennas == 3
        spec2 = self._tiny_spec(sweep="region_dx", values=[10.0, 12.0])
        cfg2 = spec_point_config(spec2, self._tiny_config(), 12.0)
        assert cfg2.waveguide_length_m == 12.0

    def test_group_sweep_scales_users(self):
        spec = self._tiny_spec(sweep="num_groups", values=[2.0, 3.0], users_per_group=2)
        res = run_experiment(spec, self._tiny_config())
        assert {r["sweep_value"] for r in res.rows} == {2.0, 3.0}

    def test_baseline_runs_included(self):
        spec = self._tiny_spec(values=[-10.0], trials=1, baseline=True)
        res = run_experiment(spec, self._tiny_config())
        flags = {r["baseline"] for r in res.rows}
        assert flags == {False, True}

    def test_every_scheme_solves_across_powers_and_group_counts(self):
        # movable and fixed-array solves give a finite positive rate well
        # beyond the presets' -20..30 dBm, for one to six groups
        for mode, dbm, g in itertools.product(TOPOLOGY_MODES, np.arange(-40.0, 51.0, 10.0), range(1, 7)):
            cfg = SystemConfig(grid_points=30, num_antennas=3).with_power_dbm(dbm)
            topo = generate_topology(mode, cfg, np.random.default_rng(g), num_groups=g, num_users=2 * g)
            for baseline, scheme in itertools.product((False, True), SCHEMES):
                sol = _solve_one(scheme, baseline, topo, cfg, np.random.default_rng(0), False)
                case = (mode, dbm, g, scheme, baseline)
                assert math.isfinite(sol.mmf_rate) and sol.mmf_rate > 0, case

    def test_parallel_matches_serial(self):
        spec = self._tiny_spec(trials=4)
        serial = run_experiment(spec, self._tiny_config(), workers=1)
        parallel = run_experiment(spec, self._tiny_config(), workers=2)
        assert serial.rows == parallel.rows

    def test_failures_recorded_not_dropped(self):
        spec = self._tiny_spec(values=[-10.0], trials=2)
        # a config whose spacing cannot fit two antennas triggers per-trial failures
        bad = SystemConfig(
            waveguide_length_m=0.004, grid_points=4, num_antennas=2, min_spacing_m=0.01
        )
        res = run_experiment(spec, bad)
        summary = res.summary()
        assert summary[0]["trials_failed"] == 2
        assert summary[0]["trials_ok"] == 0
        assert math.isnan(summary[0]["mean_rate"])
        assert all(r["error"] for r in res.rows)


class TestEmit:
    def _result(self):
        spec = ExperimentSpec(
            sweep="power_dbm", values=[-10.0, 0.0, 10.0], schemes=["tin", "tdma-pm"],
            trials=2, seed=3, num_groups=2, num_users=4, num_antennas=2,
        )
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=30, num_antennas=2)
        return run_experiment(spec, cfg)

    def test_summary_schema_and_row_count(self, tmp_path):
        res = self._result()
        paths = emit(res, tmp_path, per_trial=True)
        lines = paths[0].read_text().strip().splitlines()
        assert lines[0] == "sweep_value,scheme,baseline,mean_rate,stderr,trials_ok,trials_failed"
        assert len(lines) == 1 + 3 * 2  # three values, two schemes
        trial_lines = paths[1].read_text().strip().splitlines()
        assert len(trial_lines) == 1 + 3 * 2 * 2

    def test_rerun_is_byte_identical(self, tmp_path):
        p1 = emit(self._result(), tmp_path / "a")[0]
        p2 = emit(self._result(), tmp_path / "b")[0]
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_results_rejected(self, tmp_path):
        res = ExperimentResult(spec=preset_spec("groups"), rows=[])
        with pytest.raises(PinchcastError):
            emit(res, tmp_path)

    def _trace_solution(self):
        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=30, num_antennas=2)
        topo = generate_topology("uniform_random", cfg, np.random.default_rng(0), num_groups=2, num_users=4)
        return solve_tin(topo, cfg, rng=np.random.default_rng(1))

    def test_trace_emission(self, tmp_path):
        sol = self._trace_solution()
        path = emit_traces([sol], tmp_path / "trace.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scheme,baseline,trace,sweep,objective"
        assert len(lines) == 1 + len(sol.traces[0]["objective"])

    def test_unusable_output_paths_raise_pinchcast_error(self, tmp_path):
        res = self._result()
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(PinchcastError, match="summary.csv"):
            emit(res, blocker)
        (tmp_path / "out" / "trials.csv").mkdir(parents=True)
        with pytest.raises(PinchcastError, match="trials.csv"):
            emit(res, tmp_path / "out", per_trial=True)
        with pytest.raises(PinchcastError, match="trace.csv"):
            emit_traces([self._trace_solution()], blocker / "trace.csv")


class TestSolutionRecord:
    EXTRAS = {
        "tin": {"equalized_sinr", "ceiling_rate"},
        "noma": {"equalized_sinr", "decoding_order", "sic_feasibility_margin"},
        "tdma-ps": {"nu", "equal_time"},
        "tdma-pm": {"nu", "equal_time"},
    }
    SOLVERS = {"tin": solve_tin, "noma": solve_noma, "tdma-ps": solve_tdma_ps, "tdma-pm": solve_tdma_pm}

    @pytest.mark.parametrize("baseline", [False, True], ids=["movable", "baseline"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_solve_returns_one_record(self, scheme, baseline):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        cfg = SystemConfig(waveguide_length_m=10.0, grid_points=30, num_antennas=2)
        topo = generate_topology("uniform_random", cfg, np.random.default_rng(3), num_groups=3, num_users=6)
        if baseline:
            direct = solve_ula(topo, scheme, cfg)
        else:
            direct = self.SOLVERS[scheme](topo, cfg, rng=np.random.default_rng(7))
        harness = _solve_one(scheme, baseline, topo, cfg, np.random.default_rng(7), False)
        for sol in (direct, harness):
            assert type(sol) is SchemeSolution
            assert (sol.scheme, sol.baseline) == (scheme, baseline)
            assert set(sol.extras) == self.EXTRAS[scheme]
            assert json.loads(sol.to_json(), parse_constant=reject) == sol.to_dict()
        assert direct.to_json() == harness.to_json()


class TestExperimentSpec:
    def test_from_dict_rejects_unknown_keys(self):
        data = {"sweep": "power_dbm", "values": [0.0], "trials": 3}
        assert ExperimentSpec.from_dict(data).trials == 3
        with pytest.raises(PinchcastError, match="'trial'"):
            ExperimentSpec.from_dict({**data, "trial": 3})

    def test_from_dict_rejects_malformed_values(self):
        with pytest.raises(PinchcastError, match="missing spec keys: \\['values'\\]"):
            ExperimentSpec.from_dict({"sweep": "power_dbm"})
        with pytest.raises(PinchcastError, match="non-empty list of numbers"):
            ExperimentSpec.from_dict({"sweep": "power_dbm", "values": 5})
        with pytest.raises(PinchcastError, match="non-empty list of numbers"):
            ExperimentSpec.from_dict({"sweep": "power_dbm", "values": [True]})
        base = {"sweep": "power_dbm", "values": [0.0]}
        for key, value in [
            ("trials", "3"), ("trials", True), ("seed", 1.5), ("seed", -1), ("num_groups", 2.5),
            ("num_users", "12"), ("users_per_group", 2.0), ("num_antennas", "4"),
            ("baseline", "no"), ("equal_time", 1),
        ]:
            with pytest.raises(PinchcastError, match=key):
                ExperimentSpec.from_dict({**base, key: value})
        assert ExperimentSpec.from_dict({**base, "trials": np.int64(3), "users_per_group": 2}).trials == 3
        # a group or antenna count is whole; 2.5 would run as 2
        for sweep in ("num_groups", "num_antennas"):
            with pytest.raises(PinchcastError, match=sweep):
                ExperimentSpec.from_dict({"sweep": sweep, "values": [2.0, 2.5]})
            assert ExperimentSpec.from_dict({"sweep": sweep, "values": [2.0, 3]}).values == [2.0, 3]


class TestPresets:
    def test_known_presets_build(self):
        for name in ("power-uniform", "power-hetero", "region", "antennas", "groups"):
            spec = preset_spec(name, trials=5)
            assert spec.trials == 5
            assert spec.values

    def test_unknown_preset_rejected(self):
        with pytest.raises(PinchcastError):
            preset_spec("does-not-exist")


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "pinchcast.cli", *args],
            capture_output=True, text=True, timeout=300,
        )

    def test_solve_and_json_output(self, tmp_path):
        topo_path = tmp_path / "topo.yaml"
        topo_path.write_text("groups:\n  - [[2.0, 1.0], [4.0, 5.0]]\n  - [[8.0, 3.0]]\n")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("waveguide_length_m: 10.0\ngrid_points: 30\nnum_antennas: 2\n")
        out = tmp_path / "sol.json"
        r = self._run(
            "solve", "--topology", str(topo_path), "--config", str(cfg_path),
            "--scheme", "tin", "--seed", "3", "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        assert "mmf rate" in r.stdout
        data = json.loads(out.read_text())
        assert data["scheme"] == "tin"
        assert data["mmf_rate"] > 0

    def test_baseline_slot_switched_json_round_trip(self, tmp_path):
        # slot-switched phases are (G, N) and are written as nested lists
        topo_path = tmp_path / "topo.yaml"
        topo_path.write_text("groups:\n  - [[2.0, 1.0], [4.0, 5.0]]\n  - [[8.0, 3.0]]\n")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("waveguide_length_m: 10.0\ngrid_points: 30\nnum_antennas: 3\n")
        out = tmp_path / "sol.json"
        r = self._run(
            "solve", "--topology", str(topo_path), "--config", str(cfg_path),
            "--scheme", "tdma-ps", "--baseline", "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        data = json.loads(out.read_text())
        assert data["scheme"] == "tdma-ps" and data["baseline"]
        assert np.asarray(data["phases"]).shape == (2, 3)
        assert data["mmf_rate"] == pytest.approx(min(data["per_group_rates"]), rel=1e-6)

    def test_one_group_tin_json_is_strict(self, tmp_path):
        # a lone group has no interference ceiling (inf); strict JSON has no
        # Infinity token, so the file must carry null there
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        topo_path = tmp_path / "topo.yaml"
        topo_path.write_text("groups:\n  - [[2.0, 1.0], [4.0, 5.0]]\n")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("waveguide_length_m: 10.0\ngrid_points: 30\nnum_antennas: 2\n")
        for extra in ((), ("--baseline",)):
            out = tmp_path / "sol.json"
            r = self._run(
                "solve", "--topology", str(topo_path), "--config", str(cfg_path),
                "--scheme", "tin", "--seed", "3", "--out", str(out), *extra,
            )
            assert r.returncode == 0, r.stderr
            data = json.loads(out.read_text(), parse_constant=reject)
            assert data["baseline"] == bool(extra)
            assert data["extras"]["ceiling_rate"] is None

    def test_experiment_with_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.yaml"
        yaml.safe_dump(
            dict(sweep="power_dbm", values=[-10.0], schemes=["tin"], trials=2,
                 seed=1, num_groups=2, num_users=4, num_antennas=2),
            spec_path.open("w"),
        )
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("waveguide_length_m: 10.0\ngrid_points: 30\n")
        r = self._run(
            "experiment", "--spec", str(spec_path), "--config", str(cfg_path),
            "--out", str(tmp_path / "results"),
        )
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "results" / "summary.csv").exists()

    def test_experiment_preset_takes_the_overrides(self, tmp_path):
        # --trials, --seed and --baseline apply to a preset as to a spec file:
        # the files match an in-process run of the preset with those values
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("waveguide_length_m: 10.0\ngrid_points: 20\n")
        r = self._run(
            "experiment", "--preset", "groups", "--trials", "1", "--seed", "5", "--baseline",
            "--per-trial", "--config", str(cfg_path), "--out", str(tmp_path / "cli"),
        )
        assert r.returncode == 0, r.stderr
        spec = preset_spec("groups", trials=1, seed=5, baseline=True)
        emit(run_experiment(spec, load_config(cfg_path)), tmp_path / "direct", per_trial=True)
        for name in ("summary.csv", "trials.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()
        rows = list(csv.DictReader((tmp_path / "cli" / "trials.csv").open()))
        assert len(rows) == 4 * 8  # four group counts, four schemes, movable and fixed
        assert {row["trial"] for row in rows} == {"0"}

    def test_trace_verb(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("waveguide_length_m: 10.0\ngrid_points: 30\nnum_antennas: 2\n")
        out = tmp_path / "trace.csv"
        r = self._run(
            "trace", "--config", str(cfg_path), "--schemes", "tin,tdma-pm",
            "--groups", "2", "--users", "4", "--seed", "2", "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        assert out.exists()

    @pytest.mark.parametrize(
        "spec, config",
        [
            ({"sweep": "power_dbm", "values": [0.0]}, {"grid_points": 20, "bogus": 1}),
            ({"sweep": "power_dbm", "values": [0.0], "trial": 3}, {}),
            ({"sweep": "power_dbm"}, {}),
            ({"sweep": "power_dbm", "values": 5}, {}),
            ({"sweep": "power_dbm", "values": [0.0], "trials": "3"}, {}),
            ({"sweep": "power_dbm", "values": [0.0]}, None),
            (None, {}),
            ("sweep: [power_dbm\nvalues: [0.0]\n", {}),
        ],
        ids=[
            "unknown-config-key", "unknown-spec-key", "missing-values", "scalar-values",
            "string-trials", "missing-config-file", "missing-spec-file", "malformed-yaml",
        ],
    )
    def test_input_errors_end_in_one_line(self, tmp_path, spec, config):
        # None leaves the file out; a string is written as it stands
        spec_path, cfg_path = tmp_path / "spec.yaml", tmp_path / "cfg.yaml"
        for path, content in ((spec_path, spec), (cfg_path, config)):
            if content is not None:
                path.write_text(content if isinstance(content, str) else yaml.safe_dump(content))
        r = self._run(
            "experiment", "--spec", str(spec_path), "--config", str(cfg_path),
            "--out", str(tmp_path / "results"),
        )
        self._assert_one_line_error(r)

    @pytest.mark.parametrize(
        "case", ["missing-topology", "malformed-topology", "undecodable-topology", "missing-out-dir"]
    )
    def test_solve_input_errors_end_in_one_line(self, tmp_path, case):
        topology = {
            "malformed-topology": b"groups: [[[2.0, 1.0]]\n",
            "undecodable-topology": b"\xff\xfe groups\n",
            "missing-out-dir": b"groups:\n  - [[2.0, 1.0]]\n",
        }.get(case)
        topo_path, cfg_path = tmp_path / "topo.yaml", tmp_path / "cfg.yaml"
        cfg_path.write_text("waveguide_length_m: 10.0\ngrid_points: 20\nnum_antennas: 2\n")
        if topology is not None:
            topo_path.write_bytes(topology)
        r = self._run(
            "solve", "--topology", str(topo_path), "--config", str(cfg_path), "--scheme", "tin",
            "--out", str(tmp_path / "nodir" / "sol.json"),
        )
        self._assert_one_line_error(r)
        assert ("sol.json" if case == "missing-out-dir" else "topo.yaml") in r.stderr

    @pytest.mark.parametrize("verb", ["solve", "trace", "validate"])
    def test_negative_seed_ends_in_one_line(self, tmp_path, verb):
        topo_path = tmp_path / "topo.yaml"
        topo_path.write_text("groups:\n  - [[2.0, 1.0]]\n")
        args = {"solve": ["--topology", str(topo_path), "--scheme", "tin"], "trace": ["--out", str(tmp_path / "t.csv")]}
        r = self._run(verb, *args.get(verb, []), "--seed", "-1")
        self._assert_one_line_error(r)
        assert "seed" in r.stderr

    @staticmethod
    def _assert_one_line_error(r):
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        lines = r.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("pinchcast: "), r.stderr

    def test_validate_verb(self):
        r = self._run("validate")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "PASS" in r.stdout
        assert "FAIL" not in r.stdout
