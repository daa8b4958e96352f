import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qoctl import _kernels, shapes
from qoctl._kernels import _fallback
from qoctl.core import ControlledHamiltonian, Operator, QuantumState
from qoctl.scenarios import (SCENARIOS, ConfigError, ScenarioError,
                             emit_plot_data, load_config, qubit_reset_purity,
                             reset_model, run_scenario)
from qoctl.dynamics import ControlField, TimeGrid, propagate_ket


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# Each case is merged over {"scenario": "rabi"}; a case that names its own
# scenario is a whole config.  Every one must exit 2 before any numerics.
CONFIG_ERRORS = [
    {"cost": {}},
    {"fields": []},
    {"system": {"rabi0": "abc"}},
    {"system": {"rabi0": 0}},
    {"scenario": "stirap", "system": {"tau": "abc"}},
    {"scenario": "landau_zener", "system": {"rates": 5}},
    {"seed": "abc"},
    {"system": 5},
    {"scenario": "controllability",
     "system": {"name": "ladder", "levels": 0}},
    {"scenario": "stirap", "system": {"gamma": -1}},
    {"scenario": "landau_zener", "system": {"rates": [0.0]}},
    {"scenario": "qubit_reset", "system": {"duration_fractions": [-1.0]}},
    {"outputs": ["bogus"]},
    {"system": {"detuning": float("nan")}},
    {"scenario": "bichromatic", "system": {"n_phases": 0}},
    {"scenario": "landau_zener",
     "system": {"with_counterdiabatic": "false"}},
    {"scenario": "bichromatic", "system": {"n_phases": 2.7}},
    {"scenario": "gate_opt", "optimizer": {"budget": -3}},
    {"schema_version": 99},
    # a removed key: lambda changes only on a rejected step
    {"scenario": "qubit_reset", "optimizer": {"stall_shrink": "abc"}},
    {"scenario": "qubit_reset", "optimizer": {"dj_threshold": "abc"}},
    {"optimizer": {"max_iters": 2}},
    {"scenario": "controllability", "system": {"name": "tls"},
     "grid": {"t0": 0.0, "tf": 1.0, "nt": 11}},
    {"outputs": ["trajectory"]},
    {"outputs": ["fields"]},
    {"grid": {"t0": 0.0, "tf": 1.0, "nt": True}},
    {"grid": {"t0": 0.0, "tf": 1.0, "nt": 10 ** 9}},
    # grids the floats cannot step: an infinite step, a step of zero
    {"grid": {"t0": -1e308, "tf": 1e308, "nt": 11}},
    {"grid": {"t0": 0.0, "tf": 5e-324, "nt": 11}},
    {"scenario": "qubit_reset", "system": {"duration_fractions": [1.0, 1.0]}},
    {"scenario": "qubit_reset", "system": {"duration_fractions": [1.2, 0.6]}},
    # inline controllability operators: non-finite, boolean and fractional
    # numbers, and more than MAX_LEVELS levels
    {"scenario": "controllability", "system": {
        "drift": {"dim": 1, "entries": [[[float("nan"), 0.0]]]}}},
    {"scenario": "controllability", "system": {
        "drift": {"dim": 1, "entries": [[[float("inf"), 0.0]]]}}},
    {"scenario": "controllability", "system": {
        "drift": {"dim": 1, "entries": [[[True, 0.0]]]}}},
    {"scenario": "controllability", "system": {
        "drift": {"dim": 2.7, "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                          [[0.0, 0.0], [1.0, 0.0]]]}}},
    {"scenario": "controllability", "system": {
        "drift": {"dim": 17, "entries": [[[0.0, 0.0]] * 17] * 17}}},
    # one midpoint, where the update shape vanishes: nothing to optimize
    {"scenario": "qubit_reset", "system": {"nt": 2}},
    {"scenario": "gate_opt", "grid": {"t0": 0, "tf": 2, "nt": 2}},
    # a non-Hermitian drift, which no ket step would read as unitary
    {"scenario": "controllability", "system": {
        "drift": {"dim": 2, "entries": [[[0.0, 0.0], [1.0, 0.0]],
                                        [[0.0, 0.0], [0.0, 0.0]]]}}},
]

# --seed-field files that a {"scenario": "rabi"} run (no config grid) must
# reject with exit 2: bad value, one row, empty, one column, non-finite
# value, decreasing times, unevenly spaced times, two control columns, a
# pulse-shape sample outside [0, 1].
SEED_FIELD_ERRORS = {
    "bad_value": "time,u\n0.5,abc\n",
    "one_row": "time,u\n0.5,0.1\n",
    "empty": "",
    "one_column": "time\n0.5\n1.5\n",
    "non_finite": "time,u\n0.5,nan\n1.5,0.1\n",
    "decreasing": "time,u\n1.5,0.1\n0.5,0.2\n",
    "uneven": "time,u\n0.5,0.1\n1.5,0.2\n3.5,0.1\n",
    "two_controls": "time,u_0,u_1\n0.5,0.1,0.2\n1.5,0.1,0.2\n",
    "shape_out_of_range": "time,u\n0.5,0.25\n1.5,2.0\n",
}

# A well-formed --seed-field that the configs below must reject with exit 2
# before any numerics: four scenarios take no seed field, and its times lie
# on none of the qubit_reset duration grids (midpoints 2.6 and 7.9).
SEED_FIELD_TWO_ROWS = "time,u\n0.5,0.1\n1.5,0.2\n"
SEED_FIELD_SCENARIO_ERRORS = {
    "landau_zener": {"scenario": "landau_zener"},
    "stirap": {"scenario": "stirap"},
    "bichromatic": {"scenario": "bichromatic"},
    "controllability": {"scenario": "controllability",
                        "system": {"name": "tls"}},
    "qubit_reset_off_grid": {"scenario": "qubit_reset", "system": {
        "duration_fractions": [1.0], "nt": 3}},
}


@pytest.fixture
def no_numerics(monkeypatch):
    """Make every kernel entry point raise, so a run that reaches the
    numerics exits 3 instead of 2."""
    from qoctl import _kernels

    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for name in dir(_kernels):
        if not name.startswith("_") and callable(getattr(_kernels, name)):
            monkeypatch.setattr(_kernels, name, kernel)


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "rabi", "wat": 1})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_scenario_rejected(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "frobnicate"})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_system_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"scenario": "rabi",
                                       "system": {"rabi0": 1.0, "oops": 2}})
        with pytest.raises(ConfigError):
            run_scenario(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


def test_gaussian_shape():
    grid = TimeGrid(0.0, 1.0, 101)
    gauss = shapes.gaussian(grid, 2.0, 0.5, 0.1)
    t = grid.midpoints
    np.testing.assert_allclose(
        gauss.samples, 2.0 * np.exp(-0.5 * ((t - 0.5) / 0.1) ** 2),
        rtol=1e-15)
    assert gauss.samples.max() <= 2.0
    assert gauss.samples[0] < 1e-4


class TestRabiScenario:
    def test_matches_closed_form(self, tmp_path):
        path = write_config(tmp_path, {
            "scenario": "rabi", "seed": 3,
            "system": {"rabi0": 2 * np.pi, "periods": 10.0},
            "outputs": ["population_vs_time"]})
        bundle = run_scenario(path, out_dir=tmp_path / "out")
        dev = bundle.summary["results"]["max_deviation_from_rabi_formula"]
        assert dev <= 1e-6
        assert bundle.summary["invariants"]["norm_drift"] <= 1e-9
        csv_path = tmp_path / "out" / "population_vs_time.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "time,level,population"

    def test_empty_outputs_no_plot_files(self, tmp_path):
        path = write_config(tmp_path, {
            "scenario": "rabi", "system": {"periods": 2.0},
            "grid": {"t0": 0.0, "tf": 2.0, "nt": 201}})
        bundle = run_scenario(path, out_dir=tmp_path / "out")
        assert not (tmp_path / "out" / "population_vs_time.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        assert bundle.summary_path is not None


class TestLandauZenerScenario:
    def test_formula_agreement_and_cd(self, tmp_path):
        path = write_config(tmp_path, {
            "scenario": "landau_zener",
            "system": {"adiabaticity": 1.0, "rates": [1.0],
                       "span": 60.0, "with_counterdiabatic": True},
            "grid": {"t0": -60.0, "tf": 60.0, "nt": 20001},
            "outputs": ["probability_vs_sweep_rate"]})
        bundle = run_scenario(path, out_dir=tmp_path / "out")
        entry = bundle.summary["results"][0]
        assert entry["relative_error"] <= 0.02
        assert entry["cd_max_infidelity"] < 1e-6

    @pytest.mark.parametrize("gap", [21.6, 30.0])
    def test_deep_adiabatic_limit_has_no_relative_error(self, tmp_path,
                                                        gap):
        # the formula is subnormal at gap 21.6 and 0.0 at gap 30
        path = write_config(tmp_path, {
            "scenario": "landau_zener", "system": {"gap": gap},
            "grid": {"t0": -60.0, "tf": 60.0, "nt": 2001}})
        entry = run_scenario(path, out_dir=tmp_path / "out") \
            .summary["results"][0]
        assert entry["p_formula"] < np.finfo(float).tiny
        assert entry["relative_error"] is None
        assert entry["p_diabatic"] < 1e-6


class TestStirapScenario:
    @pytest.mark.parametrize("ordering,check", [
        ("counterintuitive", lambda p: p >= 0.99),
        ("intuitive", lambda p: p < 0.5)])
    def test_orderings(self, tmp_path, ordering, check):
        path = write_config(tmp_path, {
            "scenario": "stirap",
            "system": {"ordering": ordering}})
        bundle = run_scenario(path)
        assert check(bundle.summary["results"]["p3_final"])
        inv = bundle.summary["invariants"]
        assert abs(inv["trace_drift"]) <= 1e-10
        assert inv["min_eigenvalue"] >= -1e-9


class TestBichromaticScenario:
    def test_visibility_against_formula(self, tmp_path):
        path = write_config(tmp_path, {
            "scenario": "bichromatic",
            "system": {"n_phases": 12},
            "outputs": ["population_vs_phase"]})
        bundle = run_scenario(path, out_dir=tmp_path / "out")
        res = bundle.summary["results"]
        assert res["relative_error"] <= 0.05
        rows = (tmp_path / "out" / "population_vs_phase.csv") \
            .read_text().splitlines()
        assert rows[0] == "phase,population"
        assert len(rows) == 13

    @staticmethod
    def model():
        """The scenario's default Hamiltonian, with its two couplings as
        two controls, and its initial state."""
        psi0 = QuantumState.from_ket(
            np.array([np.sqrt(0.7), np.sqrt(0.3), 0.0], dtype=complex)
            / np.hypot(np.sqrt(0.7), np.sqrt(0.3)))
        h = ControlledHamiltonian(
            Operator(np.diag([0.0, 1.0, 40.0]).astype(complex)),
            [(Operator([[0, 0, 1], [0, 0, 0], [1, 0, 0]]), 0),
             (Operator([[0, 0, 0], [0, 0, 1], [0, 1, 0]]), 1)])
        return h, psi0

    @staticmethod
    def drives(grid, rabi_peak):
        """``(phase, drive)`` of the default 16 phases on ``grid``."""
        t = grid.midpoints
        envelope = np.sin(np.pi * (t - grid.t0) / (grid.tf - grid.t0)) ** 2
        for phi in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
            yield float(phi), rabi_peak * envelope * (
                np.cos(40.0 * t) + np.cos(39.0 * t + phi))

    def test_equals_per_phase_propagation(self, tmp_path):
        # A peak of 1e3 on 101 points: a table over the drive's box would
        # need more nodes than the run's 1,600 steps of 16 phases, so the
        # steps are the series' of propagate_ket, bit for bit.
        grid = TimeGrid(0.0, 60.0, 101)
        path = write_config(tmp_path, {
            "scenario": "bichromatic", "system": {"rabi_peak": 1e3},
            "grid": {"t0": grid.t0, "tf": grid.tf, "nt": grid.nt}})
        summary = run_scenario(path).summary
        h, psi0 = self.model()
        pops, drift = [], 0.0
        for phi, drive in self.drives(grid, 1e3):
            traj = propagate_ket(h, [ControlField(grid, drive)] * 2, grid,
                                 psi0)
            pops.append([phi, float(traj.populations()[-1, 2])])
            drift = max(drift, traj.max_norm_drift())
        assert summary["results"]["populations_vs_phase"] == pops
        assert summary["invariants"]["max_norm_drift"] == drift

    def test_table_steps_against_expm(self, tmp_path):
        # The steps are read off one table over the drive's box, whose
        # errors are smooth in the drive: populations within 1e-12 of an
        # expm per step, in segments of 113 steps for 16 phases, the last
        # one partial
        grid = TimeGrid(0.0, 60.0, 1001)
        assert (grid.nt - 1) % _kernels.block_rows(3, 16) != 0
        path = write_config(tmp_path, {
            "scenario": "bichromatic", "system": {"rabi_peak": 0.05},
            "grid": {"t0": grid.t0, "tf": grid.tf, "nt": grid.nt}})
        summary = run_scenario(path).summary
        h, psi0 = self.model()
        pops = []
        for phi, drive in self.drives(grid, 0.05):
            hams = h.drift_matrix \
                + drive[:, None, None] * h.coupling_stack.sum(axis=0)
            steps = expm(-1j * grid.dt * hams)
            psi = psi0.ket
            for step in steps:
                psi = step @ psi
            pops.append(abs(psi[2]) ** 2)
        got = [p for _, p in summary["results"]["populations_vs_phase"]]
        assert np.max(np.abs(np.subtract(got, pops))) <= 1e-12
        assert summary["invariants"]["max_norm_drift"] <= 1e-11

    def test_default_run_exponentiates_one_table(self, tmp_path,
                                                 monkeypatch):
        # 16 phases x 24,000 steps read off a table of a few nodes: at most
        # 16 matrices go through the series, where one per step made
        # 384,000
        counted = []
        series = _fallback.step_stack_ket

        def counting(hams, dt):
            counted.append(np.prod(np.shape(hams)[:-2], dtype=int))
            return series(hams, dt)

        for module in (_kernels, _fallback):
            monkeypatch.setattr(module, "step_stack_ket", counting)
        run_scenario(write_config(tmp_path, {"scenario": "bichromatic"}))
        assert 0 < sum(counted) <= 16

    def test_overflowing_box_takes_the_series(self, tmp_path, capsys):
        # a box of +-2e307 needs more nodes than any table may hold: the
        # series overflows as it did before there was a table
        from qoctl import cli
        path = write_config(tmp_path, {
            "scenario": "bichromatic", "system": {"rabi_peak": 1e307},
            "grid": {"t0": 0.0, "tf": 60.0, "nt": 101}})
        assert cli.main(["run", str(path)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "numerics",
            "message": "numerics aborted: overflow encountered in matmul"}

    def test_memory_grows_with_neither_grid_nor_phases(self, tmp_path):
        # a (nt, P, 3) trajectory of 400 phases on 2001 points is 38 MB
        path = write_config(tmp_path, {
            "scenario": "bichromatic", "system": {"n_phases": 400},
            "grid": {"t0": 0.0, "tf": 60.0, "nt": 2001}})
        tracemalloc.start()
        try:
            run_scenario(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestQubitResetScenario:
    def test_short_sweep(self, tmp_path):
        # two-point sweep keeps the module test fast; the full knee sweep
        # runs in the acceptance suite
        path = write_config(tmp_path, {
            "scenario": "qubit_reset",
            "system": {"coupling": 0.15,
                       "duration_fractions": [0.5, 1.0],
                       "nt": 201},
            "optimizer": {"max_iters": 120}})
        bundle = run_scenario(path)
        res = bundle.summary["results"]
        assert res["purities"][1] - res["purities"][0] >= 0.05
        assert bundle.summary["invariants"]["krotov_monotonic"]

    def test_default_knee_on_t_min(self, tmp_path):
        # The default fractions are decimals, so the "1.0" duration is t_min
        # exactly and a knee on it is 0 steps off.  The default system with
        # the iterations cut from 200 to 25 keeps the default knee.
        path = write_config(tmp_path, {"scenario": "qubit_reset",
                                       "optimizer": {"max_iters": 25}})
        fractions = load_config(path)["system"]["duration_fractions"]
        assert fractions == [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3]
        res = run_scenario(path).summary["results"]
        assert res["durations"][5] == res["t_min_theory"]
        assert res["knee_duration"] == res["t_min_theory"]
        assert res["knee_offset_steps"] == 0.0

    def test_swap_reaches_auxiliary_purity(self):
        # direct propagation at T = pi/(2J) on resonance (no optimization)
        from qoctl.dynamics import ControlField, propagate_density
        from qoctl.core import Liouvillian
        h, jumps, rho0, target, resonance = reset_model(0.15)
        t_min = np.pi / (2 * 0.15)
        grid = TimeGrid(0.0, t_min, 501)
        traj = propagate_density(Liouvillian(h, jumps),
                                 [ControlField.constant(grid, resonance)],
                                 grid, rho0)
        aux_purity = 0.95 ** 2 + 0.05 ** 2
        assert abs(qubit_reset_purity(traj.array[-1]) - aux_purity) <= 1e-3


class TestGateOptScenario:
    def test_reaches_cnot_class(self, tmp_path):
        path = write_config(tmp_path, {
            "scenario": "gate_opt",
            "optimizer": {"max_iters": 800, "j_threshold": 2e-7,
                          "budget": 40},
            "outputs": ["j_vs_iteration"]})
        bundle = run_scenario(path, out_dir=tmp_path / "out")
        res = bundle.summary["results"]
        assert res["pe_distance"] < 1e-3
        assert bundle.summary["invariants"]["krotov_monotonic"]
        # at the default lambda the record holds 40 simplex evaluations
        # and 42 Krotov iterations; lambda 2.0 took 299 Krotov iterations
        assert res["converged_reason"] == "j_threshold"
        assert res["iterations"] < 150
        rows = (tmp_path / "out" / "j_vs_iteration.csv") \
            .read_text().splitlines()
        assert rows[0] == "iter,J_tf"
        assert (tmp_path / "out" / "fields.csv").exists()


class TestControllabilityScenario:
    def test_caption_examples_not_controllable(self, tmp_path):
        for name in ("identical_coupled_qubits", "zz_coupled_qubits"):
            path = write_config(tmp_path, {
                "scenario": "controllability",
                "system": {"name": name}}, name=f"{name}.json")
            bundle = run_scenario(path, out_dir=tmp_path / name)
            assert bundle.summary["results"]["controllable"] is False
            assert (tmp_path / name / "graph.txt").exists()

    def test_ladder_controllable_and_lie_full(self, tmp_path):
        path = write_config(tmp_path, {
            "scenario": "controllability",
            "system": {"name": "ladder", "levels": 4}})
        bundle = run_scenario(path)
        res = bundle.summary["results"]
        assert res["controllable"] is True
        assert res["lie_full_rank"] is True

    def test_inline_system(self, tmp_path):
        from qoctl import core
        path = write_config(tmp_path, {
            "scenario": "controllability",
            "system": {
                "drift": core.sigma_z().to_dict(),
                "couplings": [{"operator": core.sigma_x().to_dict(),
                               "control_index": 0}]}})
        bundle = run_scenario(path)
        assert bundle.summary["results"]["lie_dimension"] == 3

    @pytest.mark.parametrize("system, message", [
        ({"drift": {"dim": 17, "entries": [[[0.0, 0.0]] * 17] * 17}},
         "config.system.drift.dim must be a finite int in [1, 16], got 17"),
        ({"name": "ladder", "levels": 40},
         "config.system.levels must be a finite int in [2, 16], got 40"),
        ({"name": "tls", "wat": 1},
         "config.system must be a JSON object with keys from ['name', "
         "'omega'], got {'name': 'tls', 'wat': 1}"),
        # an error of Operator.from_dict keeps the prefix of its key
        ({"drift": {"dim": 2, "entries": [[[1.0, 0.0]]]}},
         "invalid config.system.drift: entries shape (1, 1) contradicts "
         "dim=2"),
    ], ids=["inline_dim", "ladder_levels", "unknown_key", "inline_shape"])
    def test_system_error_reported_once(self, tmp_path, capsys, system,
                                        message):
        from qoctl import cli
        path = write_config(tmp_path, {"scenario": "controllability",
                                       "system": system})
        assert cli.main(["run", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] \
            == {"type": "config", "message": message}


class TestCliProcess:
    def run_cli(self, *argv):
        return subprocess.run([sys.executable, "-m", "qoctl.cli", *argv],
                              capture_output=True, text=True)

    def test_exit_zero_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "rabi", "seed": 1,
            "grid": {"t0": 0.0, "tf": 5.0, "nt": 501},
            "system": {"periods": 2.0}})
        out = tmp_path / "out"
        result = self.run_cli("run", str(cfg), "--out", str(out))
        assert result.returncode == 0
        assert (out / "summary.json").exists()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": "stirap", "seed": 11,
            "system": {"ordering": "counterintuitive"}})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run_cli("run", str(cfg), "--out",
                            str(out_a)).returncode == 0
        assert self.run_cli("run", str(cfg), "--out",
                            str(out_b)).returncode == 0
        assert (out_a / "summary.json").read_bytes() \
            == (out_b / "summary.json").read_bytes()

    def test_schema_violation_exit_code_and_error_json(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "rabi", "nope": True})
        out = tmp_path / "out"
        result = self.run_cli("run", str(cfg), "--out", str(out))
        assert result.returncode == 2
        payload = json.loads(result.stdout)
        assert payload["error"]["type"] == "config"
        assert (out / "error.json").exists()

    @pytest.mark.parametrize("extra", CONFIG_ERRORS)
    def test_config_error_exit_code(self, tmp_path, extra):
        cfg = write_config(tmp_path, {"scenario": "rabi", **extra})
        result = self.run_cli("run", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2, result.stderr
        assert json.loads(result.stdout)["error"]["type"] == "config"

    @pytest.mark.parametrize("extra", CONFIG_ERRORS)
    def test_config_error_before_numerics(self, tmp_path, no_numerics,
                                          capsys, extra):
        from qoctl import cli
        cfg = write_config(tmp_path, {"scenario": "rabi", **extra})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] \
            == "config"

    @pytest.mark.parametrize("scenario", sorted(
        set(SCENARIOS) - {"controllability"}))
    def test_no_numerics_stops_every_propagating_scenario(
            self, tmp_path, no_numerics, capsys, scenario):
        from qoctl import cli
        cfg = write_config(tmp_path, {"scenario": scenario})
        assert cli.main(["run", str(cfg)]) == 3
        assert json.loads(capsys.readouterr().out)["error"] \
            == {"type": "numerics", "message": "a kernel ran"}

    @pytest.mark.parametrize("config", SEED_FIELD_SCENARIO_ERRORS.values(),
                             ids=SEED_FIELD_SCENARIO_ERRORS.keys())
    def test_seed_field_rejected_before_numerics(self, tmp_path,
                                                 no_numerics, capsys,
                                                 config):
        from qoctl import cli
        seed_path = tmp_path / "seed.csv"
        seed_path.write_text(SEED_FIELD_TWO_ROWS)
        cfg = write_config(tmp_path, config)
        assert cli.main(["run", str(cfg), "--seed-field",
                         str(seed_path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] \
            == "config"

    @pytest.mark.parametrize("config", [
        {"scenario": "qubit_reset",
         "system": {"nt": 3, "duration_fractions": [1.0]}},
        {"scenario": "gate_opt", "grid": {"t0": 0, "tf": 2, "nt": 3}},
    ], ids=["qubit_reset", "gate_opt"])
    def test_optimized_grid_of_two_midpoints_runs(self, tmp_path, config):
        # the update shape pins both midpoints; one midpoint (nt 2) is a
        # config error (CONFIG_ERRORS)
        from qoctl import cli
        cfg = write_config(tmp_path, {**config,
                                      "optimizer": {"max_iters": 1}})
        assert cli.main(["run", str(cfg)]) == 0

    def test_zero_update_stops_after_one_pass(self, tmp_path, monkeypatch):
        # at nt 3 the update shape is zero, so the first accepted pass
        # improves by nothing and stops with dj_threshold: lambda is not
        # shrunk to retry until max_iters
        calls = []
        kernel = _kernels.krotov_forward_dm

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)
        monkeypatch.setattr(_kernels, "krotov_forward_dm", counting)
        cfg = write_config(tmp_path, {
            "scenario": "qubit_reset",
            "system": {"nt": 3, "duration_fractions": [1.0]},
            "optimizer": {"max_iters": 50}})
        run_scenario(cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("fraction", [5e-324, 1e-320, 1.7e308])
    def test_unresolvable_reset_grid_is_named(self, tmp_path, capsys,
                                              fraction):
        # fraction * pi / (2 coupling) underflows to a duration whose step
        # is zero or subnormal, or overflows to an infinite one
        from qoctl import cli
        cfg = write_config(tmp_path, {
            "scenario": "qubit_reset",
            "system": {"duration_fractions": [fraction]},
            "optimizer": {"max_iters": 1}})
        assert cli.main(["run", str(cfg)]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "numerics"
        assert "TimeGrid(t0=0.0" in error["message"]

    def test_unresolvable_reset_grid_is_named_with_seed_field(
            self, tmp_path, capsys):
        # the seed field is matched against the duration grids, which the
        # floats cannot step: a numerics failure, named like one
        from qoctl import cli
        seed_path = tmp_path / "seed.csv"
        seed_path.write_text("time,value\n0.5,0.1\n")
        cfg = write_config(tmp_path, {
            "scenario": "qubit_reset",
            "system": {"duration_fractions": [1e-320], "nt": 5}})
        with pytest.raises(ScenarioError,
                           match=r"^numerics aborted: TimeGrid\("):
            run_scenario(cfg, seed_field_path=seed_path)
        assert cli.main(["run", str(cfg), "--seed-field",
                         str(seed_path)]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["message"].startswith(
            "numerics aborted: TimeGrid(")
        assert captured.err == ""

    @pytest.mark.parametrize("grid, frame, cause", [
        ({"tf": 1.0, "nt": 11}, "carrier", "omega0 must be finite, got inf"),
        # the default grid, 10 periods of a Rabi frequency of 8.2e307, has
        # a subnormal step
        (None, "carrier", "is not a finite normal float"),
        ({"tf": 1.0, "nt": 11}, "lab", "omega0 must be finite, got inf"),
    ], ids=["config_grid", "default_grid", "lab_frame"])
    def test_overflowing_rabi_frequency_is_named(self, tmp_path, capsys,
                                                 grid, frame, cause):
        # 100 * rabi0 overflows to an infinite transition frequency
        from qoctl import cli
        cfg = write_config(tmp_path, {"scenario": "rabi", "grid": grid,
                                      "system": {"rabi0": 8.2e307,
                                                 "frame": frame}})
        assert cli.main(["run", str(cfg)]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "numerics"
        assert cause in error["message"]

    def test_tiny_lambda_is_named(self, tmp_path, capsys):
        # the first Krotov sweep's update overflows; the error says at
        # which lambda
        from qoctl import cli
        cfg = write_config(tmp_path, {
            "scenario": "gate_opt",
            "optimizer": {"lambda": 1e-300, "budget": 0, "max_iters": 3}})
        assert cli.main(["run", str(cfg)]) == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "numerics", "message":
                         "numerics aborted: overflow encountered in multiply"
                         " (Krotov step size lambda 1e-300)"}

    def test_outputs_need_out_dir(self, tmp_path, no_numerics, capsys):
        from qoctl import cli
        cfg = write_config(tmp_path, {"scenario": "rabi",
                                      "outputs": ["population_vs_time"]})
        assert cli.main(["run", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] \
            == "config"

    def test_unexpected_failure_reported_as_json(self, tmp_path,
                                                 monkeypatch, capsys):
        from qoctl import cli

        def boom(*args, **kwargs):
            raise ZeroDivisionError("unexpected")

        monkeypatch.setattr(cli, "run_scenario", boom)
        cfg = write_config(tmp_path, {"scenario": "rabi"})
        assert cli.main(["run", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == {"type": "numerics",
                                                     "message": "unexpected"}
        # a failure of no known kind leaves its traceback on stderr
        assert "ZeroDivisionError: unexpected" in captured.err

    def test_non_finite_result_is_numerics_failure(self, tmp_path, capsys):
        # c1 = 5e-324 makes the formula visibility underflow, so the
        # relative error is infinite and has no JSON literal
        cfg = write_config(tmp_path, {
            "scenario": "bichromatic",
            "grid": {"t0": 0, "tf": 60, "nt": 241},
            "system": {"c1": 5e-324, "n_phases": 3}})
        out = tmp_path / "out"
        result = self.run_cli("run", str(cfg), "--out", str(out))
        assert result.returncode == 3, result.stderr
        assert json.loads(result.stdout)["error"]["type"] == "numerics"
        assert (out / "error.json").exists()
        assert not (out / "summary.json").exists()
        from qoctl import cli
        assert cli.main(["run", str(cfg)]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] \
            == "numerics"

    def test_cli_pins_blas_threads(self):
        # records the environment at the moment numpy starts to import
        probe = (
            "import json, os, sys\n"
            "names = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS',"
            " 'MKL_NUM_THREADS')\n"
            "seen = {}\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.update((v, os.environ.get(v)) for v in names)\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import qoctl\n"
            "package_loads_numpy = 'numpy' in sys.modules\n"
            "import qoctl.cli\n"
            "print(json.dumps({'seen': seen, 'backend': "
            "qoctl.kernel_backend(), 'package_loads_numpy': "
            "package_loads_numpy}))\n")
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        for preset, expect in ((None, "1"), ("2", "2")):
            if preset is not None:
                env["OPENBLAS_NUM_THREADS"] = preset
            result = subprocess.run([sys.executable, "-c", probe], env=env,
                                    capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            got = json.loads(result.stdout)
            assert got["backend"] == "python"
            assert not got["package_loads_numpy"]
            assert got["seen"] == {"OPENBLAS_NUM_THREADS": expect,
                                   "OMP_NUM_THREADS": "1",
                                   "MKL_NUM_THREADS": "1"}

    def test_no_run_loads_scipy_optimize(self, tmp_path):
        # a fresh interpreter: neither a run nor a three-level dressed frame
        # imports scipy.optimize
        configs = {
            "bichromatic": {"scenario": "bichromatic",
                            "grid": {"t0": 0, "tf": 60, "nt": 241},
                            "system": {"n_phases": 3}},
            "qubit_reset": {"scenario": "qubit_reset",
                            "system": {"duration_fractions": [1.0],
                                       "nt": 5},
                            "optimizer": {"max_iters": 1}},
            "gate_opt": {"scenario": "gate_opt",
                         "grid": {"t0": 0, "tf": 2, "nt": 21},
                         "optimizer": {"budget": 2, "max_iters": 1,
                                       "n_fourier": 1}},
        }
        paths = {name: str(write_config(tmp_path, config, f"{name}.json"))
                 for name, config in configs.items()}
        probe = (
            "import contextlib, io, json, sys\n"
            "import qoctl.cli, qoctl.optimize\n"
            "seen = {'import': 'scipy.optimize' in sys.modules}\n"
            f"for name, path in {paths!r}.items():\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = qoctl.cli.main(['run', path])\n"
            "    seen[name] = (code, 'scipy.optimize' in sys.modules)\n"
            "import numpy as np\n"
            "from qoctl.adiabatic import dressed_frame\n"
            "from qoctl.core import ControlledHamiltonian, Operator\n"
            "from qoctl.dynamics import ControlField, TimeGrid\n"
            "grid = TimeGrid(-4.0, 4.0, 41)\n"
            "ladder = Operator(0.4 * (np.eye(3, k=1) + np.eye(3, k=-1)))\n"
            "h = ControlledHamiltonian(ladder,"
            " [(Operator(np.diag([-1.0, 0.0, 1.0])), 0)])\n"
            "frame = dressed_frame(h, [ControlField(grid, grid.midpoints)],"
            " grid)\n"
            "seen['dressed_frame'] = (frame.dim,"
            " 'scipy.optimize' in sys.modules)\n"
            "print(json.dumps(seen))\n")
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {
            "import": False, "bichromatic": [0, False],
            "qubit_reset": [0, False], "gate_opt": [0, False],
            "dressed_frame": [3, False]}

    def test_no_run_loads_scipy(self, tmp_path):
        # a fresh interpreter runs every scenario, the GKLS ones (qubit_reset
        # and stirap) included, one after another: none loads any part of
        # scipy
        small = {"grid": {"t0": 0, "tf": 2, "nt": 21}}
        configs = {
            "rabi": {"scenario": "rabi"},
            "landau_zener": {"scenario": "landau_zener"},
            "controllability": {"scenario": "controllability",
                                "system": {"name": "tls"}},
            "bichromatic": {"scenario": "bichromatic",
                            "grid": {"t0": 0, "tf": 60, "nt": 241},
                            "system": {"n_phases": 3}},
            "gate_opt_budget_0": {"scenario": "gate_opt", **small,
                                  "optimizer": {"budget": 0,
                                                "max_iters": 1}},
            "gate_opt": {"scenario": "gate_opt", **small,
                         "optimizer": {"budget": 2, "max_iters": 1,
                                       "n_fourier": 1}},
            "qubit_reset": {"scenario": "qubit_reset",
                            "system": {"duration_fractions": [1.0],
                                       "nt": 5},
                            "optimizer": {"max_iters": 1}},
            "stirap": {"scenario": "stirap",
                       "grid": {"t0": 0, "tf": 20, "nt": 201}},
        }
        paths = {name: str(write_config(tmp_path, config, f"{name}.json"))
                 for name, config in configs.items()}
        probe = (
            "import contextlib, io, json, sys\n"
            "import qoctl.cli, qoctl.optimize\n"
            "def scipy_loaded():\n"
            "    return any(m.startswith('scipy') for m in sys.modules)\n"
            "seen = {'import': scipy_loaded()}\n"
            f"for name, path in {paths!r}.items():\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = qoctl.cli.main(['run', path])\n"
            "    seen[name] = (code, scipy_loaded())\n"
            "print(json.dumps(seen))\n")
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"import": False, **{
            name: [0, False] for name in configs}}

    def test_missing_config_file_io_error(self, tmp_path):
        result = self.run_cli("run", str(tmp_path / "absent.json"))
        assert result.returncode == 4
        payload = json.loads(result.stdout)
        assert payload["error"]["type"] == "io"

    def test_seed_field_round_trip(self, tmp_path):
        # export a field CSV, feed it back via --seed-field
        from qoctl.dynamics import ControlField
        from qoctl.optimize import fields_to_csv
        grid = TimeGrid(0.0, 5.0, 501)
        field = ControlField(grid,
                             0.3 * np.sin(np.pi * grid.midpoints / 5.0) ** 2)
        seed_path = tmp_path / "seed.csv"
        fields_to_csv([field], seed_path)
        cfg = write_config(tmp_path, {
            "scenario": "rabi",
            "grid": {"t0": 0.0, "tf": 5.0, "nt": 501},
            "system": {"rabi0": 1.0}})
        result = self.run_cli("run", str(cfg), "--out",
                              str(tmp_path / "out"),
                              "--seed-field", str(seed_path))
        assert result.returncode == 0

    @pytest.mark.parametrize("text", SEED_FIELD_ERRORS.values(),
                             ids=SEED_FIELD_ERRORS.keys())
    def test_seed_field_config_error(self, tmp_path, text):
        seed_path = tmp_path / "seed.csv"
        seed_path.write_text(text)
        cfg = write_config(tmp_path, {"scenario": "rabi"})
        result = self.run_cli("run", str(cfg), "--seed-field",
                              str(seed_path))
        assert result.returncode == 2, result.stderr
        assert json.loads(result.stdout)["error"]["type"] == "config"
        assert result.stderr == ""

    @pytest.mark.parametrize("offset, code", [(1e-9, 0), (1e-3, 2)])
    def test_seed_field_times_on_config_grid(self, tmp_path, offset, code):
        # the grid's midpoints are 0.25 and 0.75 (step 0.5); times more
        # than 1e-6 of a step off them are rejected
        seed_path = tmp_path / "seed.csv"
        seed_path.write_text(f"time,u\n{0.25 + offset},0.1\n"
                             f"{0.75 - offset},0.2\n")
        cfg = write_config(tmp_path, {
            "scenario": "rabi", "grid": {"t0": 0.0, "tf": 1.0, "nt": 3}})
        result = self.run_cli("run", str(cfg), "--seed-field",
                              str(seed_path))
        assert result.returncode == code, result.stderr
        if code:
            assert json.loads(result.stdout)["error"]["type"] == "config"

    @pytest.mark.parametrize("config", [
        {"scenario": "rabi"},
        {"scenario": "gate_opt", "optimizer": {"budget": 0, "max_iters": 0}},
    ], ids=["rabi", "gate_opt"])
    def test_seed_field_sets_grid_without_config_grid(self, tmp_path,
                                                      config):
        seed_path = tmp_path / "seed.csv"
        seed_path.write_text(SEED_FIELD_TWO_ROWS)
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = self.run_cli("run", str(cfg), "--out", str(out),
                              "--seed-field", str(seed_path))
        assert result.returncode == 0, result.stdout
        if config["scenario"] == "rabi":
            rows = (out / "trajectory.csv").read_text().splitlines()
            assert [float(r.split(",")[0]) for r in rows[1:]] \
                == [0.0, 1.0, 2.0]
        else:
            rows = (out / "fields.csv").read_text().splitlines()
            assert rows[1:] == ["0.5,0.1,0.1", "1.5,0.2,0.2"]

    def test_qubit_reset_seed_field_on_a_duration_grid(self, tmp_path):
        # the seed field is the guess of the duration whose grid it lies
        # on: the same run as with that constant guess amplitude
        config = {"scenario": "qubit_reset",
                  "system": {"duration_fractions": [0.8, 1.0], "nt": 11},
                  "optimizer": {"max_iters": 0}}
        t_min = np.pi / (2 * 0.15)
        grid = TimeGrid(0.0, t_min, 11)
        from qoctl.optimize import fields_to_csv
        seed_path = tmp_path / "seed.csv"
        fields_to_csv([ControlField.constant(grid, 0.5)], seed_path)
        seeded = run_scenario(write_config(tmp_path, config),
                              seed_field_path=seed_path)
        config["optimizer"]["guess_amplitude"] = 0.5
        plain = run_scenario(write_config(tmp_path, config))
        default = run_scenario(write_config(tmp_path, {
            **config, "optimizer": {"max_iters": 0}}))
        purities = seeded.summary["results"]["purities"]
        assert purities[1] == plain.summary["results"]["purities"][1]
        assert purities[0] == default.summary["results"]["purities"][0]
        assert purities[1] != default.summary["results"]["purities"][1]

    def test_one_row_seed_field_on_config_grid(self, tmp_path):
        seed_path = tmp_path / "seed.csv"
        seed_path.write_text(SEED_FIELD_ERRORS["one_row"])
        cfg = write_config(tmp_path, {
            "scenario": "rabi", "grid": {"t0": 0.0, "tf": 1.0, "nt": 2}})
        bundle = run_scenario(cfg, seed_field_path=seed_path)
        assert bundle.summary["results"]["final_populations"]


def test_emit_plot_data_missing_series(tmp_path):
    from qoctl.scenarios import ResultBundle, ScenarioError
    bundle = ResultBundle(summary={}, out_dir=tmp_path)
    with pytest.raises(ScenarioError):
        emit_plot_data(bundle, "j_vs_iteration")


class TestFrameChoiceAndAliases:
    def test_rabi_frame_enum(self, tmp_path):
        for frame in ("carrier", "drift", "instantaneous"):
            path = write_config(tmp_path, {
                "scenario": "rabi",
                "grid": {"t0": 0.0, "tf": 2.0, "nt": 801},
                "system": {"rabi0": 6.283185307179586, "periods": 2.0,
                           "frame": frame}}, name=f"rabi_{frame}.json")
            bundle = run_scenario(path)
            assert bundle.summary["results"]["frame"] == frame
            assert bundle.summary["results"][
                "max_deviation_from_rabi_formula"] <= 1e-6
        bad = write_config(tmp_path, {
            "scenario": "rabi", "system": {"frame": "galilean"}},
            name="rabi_bad.json")
        with pytest.raises(ConfigError):
            run_scenario(bad)

    def test_qubit_reset_purity(self, tmp_path):
        path = write_config(tmp_path, {
            "scenario": "qubit_reset",
            "system": {"coupling": 0.3, "duration_fractions": [1.0],
                       "nt": 151},
            "optimizer": {"max_iters": 40}})
        bundle = run_scenario(path)
        assert bundle.summary["results"]["purities"][0] > 0.85
