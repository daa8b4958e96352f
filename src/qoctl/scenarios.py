"""Config-driven reference scenarios.

Each scenario parses a strict JSON config (unknown keys rejected before any
numerics), runs deterministically for a given seed field, re-asserts the
dynamics invariants (trace/norm drift, positivity, monotonicity) and
records them in the summary.  Summaries contain no wall-clock data, so
identical configs produce byte-identical JSON.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import _kernels, core, shapes
from .adiabatic import counterdiabatic_tls, landau_zener
from .controllability import build_graph, graph_controllability, lie_rank
from .core import ControlledHamiltonian, Liouvillian, Operator, QuantumState
from .dynamics import (ControlField, TimeGrid, propagate_density,
                       propagate_ket)
from .frames import (ThreeLevelDriveSpec, TwoLevelDriveSpec, chirped_field,
                     rwa_three_level, rwa_two_level)
from .functionals import (CostSpec, bichromatic_visibility, pe_distance,
                          weyl_coordinates)
from .optimize import (ControlProblem, KrotovSettings, Parametrization,
                       fields_to_csv, hybrid_optimize, krotov_ensemble)

SCHEMA_VERSION = 1

SCENARIOS = ("rabi", "landau_zener", "stirap", "bichromatic", "qubit_reset",
             "gate_opt", "controllability")


class ConfigError(ValueError):
    """The scenario config violates the schema."""


class ScenarioError(RuntimeError):
    """The scenario aborted during numerics."""


@dataclass
class ResultBundle:
    """Summary dict plus the paths of every artifact written."""

    summary: dict
    summary_path: Optional[Path] = None
    trajectories: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    series: dict = field(default_factory=dict)
    out_dir: Optional[Path] = None


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def _grid_from(config: dict, default=None) -> TimeGrid:
    section = config.get("grid", default)
    if section is None:
        raise ConfigError("missing 'grid' section")
    _check_keys(section, {"t0", "tf", "nt"}, "grid")
    try:
        return TimeGrid(float(section.get("t0", 0.0)),
                        float(_require(section, "tf", "grid")),
                        int(_require(section, "nt", "grid")))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def build_field(spec: dict, grid: TimeGrid) -> ControlField:
    """Named guess-field builder: flat, gaussian, sin2_ramp or chirped."""
    _check_keys(spec, {"shape", "amplitude", "center", "width",
                       "ramp_fraction", "e0", "omega_l", "alpha",
                       "envelope"}, "field spec")
    name = _require(spec, "shape", "field spec")
    if name == "flat":
        return shapes.flat(grid, float(spec.get("amplitude", 1.0)))
    if name == "gaussian":
        return shapes.gaussian(grid, float(spec.get("amplitude", 1.0)),
                               float(_require(spec, "center", "gaussian")),
                               float(_require(spec, "width", "gaussian")))
    if name == "sin2_ramp":
        return shapes.sin2_ramp(grid, float(spec.get("amplitude", 1.0)),
                                float(spec.get("ramp_fraction", 0.05)))
    if name == "chirped":
        envelope = build_field(spec.get("envelope", {"shape": "flat"}), grid)
        return chirped_field(float(spec.get("e0", 1.0)), envelope,
                             float(_require(spec, "omega_l", "chirped")),
                             float(spec.get("alpha", 0.0)))
    raise ConfigError(f"unknown field shape {name!r}")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_summary(bundle: ResultBundle):
    if bundle.out_dir is None:
        return
    path = bundle.out_dir / "summary.json"
    with open(path, "w") as fh:
        json.dump(bundle.summary, fh, sort_keys=True, indent=2,
                  default=_json_default)
        fh.write("\n")
    bundle.summary_path = path


def _write_tidy_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(x)) if isinstance(x, (int, float,
                                                              np.floating))
                             else x for x in row])


def emit_plot_data(bundle: ResultBundle, kind: str) -> Path:
    """Tidy plot-ready CSV (one observation per row) from a result bundle.

    Kinds: ``population_vs_time``, ``j_vs_iteration``,
    ``probability_vs_sweep_rate``, ``population_vs_phase``.
    """
    if bundle.out_dir is None:
        raise ScenarioError("bundle has no output directory")
    if kind not in bundle.series:
        raise ScenarioError(f"series {kind!r} not produced by this "
                            f"scenario; have {sorted(bundle.series)}")
    headers = {
        "population_vs_time": ("time", "level", "population"),
        "j_vs_iteration": ("iter", "J_tf"),
        "probability_vs_sweep_rate": ("rate", "probability"),
        "population_vs_phase": ("phase", "population"),
    }
    if kind not in headers:
        raise ScenarioError(f"unknown plot kind {kind!r}")
    path = bundle.out_dir / f"{kind}.csv"
    _write_tidy_csv(path, headers[kind], bundle.series[kind])
    return path


# Scenario implementations ---------------------------------------------------

def _rabi(config, bundle, seed_field):
    system = config.get("system", {})
    _check_keys(system, {"rabi0", "detuning", "periods", "frame"}, "system")
    try:
        rabi0 = float(system.get("rabi0", 2 * np.pi))
        detuning = float(system.get("detuning", 0.0))
        periods = float(system.get("periods", 10.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid rabi system value: {exc}") from exc
    if not rabi0 > 0.0:
        raise ConfigError(f"rabi0 must be positive, got {rabi0}")
    frame = system.get("frame", "carrier")
    default_grid = {"t0": 0.0, "tf": periods * 2 * np.pi / rabi0,
                    "nt": 2001}
    grid = _grid_from(config, default_grid)
    spec = TwoLevelDriveSpec(omega0=100 * rabi0,
                             omegaL=100 * rabi0 - detuning, rabi0=rabi0,
                             shape=seed_field or shapes.flat(grid, 1.0))
    try:
        res = rwa_two_level(spec, frame=frame)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    traj = propagate_ket(res.hamiltonian, res.fields, grid,
                         core.basis_ket(2, 0))
    pops = traj.populations()
    oracle = np.sin(0.5 * rabi0 * grid.times) ** 2
    # the closed form applies on resonance within the RWA; lab-frame runs
    # carry the full carrier and are reported without the comparison
    max_dev = float(np.max(np.abs(pops[:, 1] - oracle))) \
        if detuning == 0.0 and frame != "lab" else None
    bundle.summary["results"] = {
        "frame": frame,
        "final_populations": pops[-1].tolist(),
        "max_deviation_from_rabi_formula": max_dev,
        "validity_ratio": res.validity_ratio,
    }
    bundle.summary["invariants"] = {
        "norm_drift": traj.max_norm_drift(),
    }
    bundle.series["population_vs_time"] = [
        (t, lvl, pops[k, lvl]) for k, t in enumerate(grid.times)
        for lvl in range(2)]
    if bundle.out_dir is not None:
        path = bundle.out_dir / "trajectory.csv"
        traj.to_csv(path)
        bundle.trajectories.append(path)


def _landau_zener(config, bundle, seed_field):
    system = config.get("system", {})
    _check_keys(system, {"gap", "rates", "adiabaticity", "span",
                         "with_counterdiabatic"}, "system")
    rates = [float(r) for r in system.get("rates", [1.0])]
    span = float(system.get("span", 60.0))
    with_cd = bool(system.get("with_counterdiabatic", False))
    adiab = system.get("adiabaticity")
    results = []
    prob_rows = []
    for rate in rates:
        gap = float(system.get("gap", 1.0)) if adiab is None \
            else float(np.sqrt(float(adiab) * rate))
        grid = _grid_from(config, {"t0": -span / rate, "tf": span / rate,
                                   "nt": 40001})
        h, fields = landau_zener(grid, gap, rate)
        theta0 = np.arctan2(gap, rate * grid.t0)
        thetaf = np.arctan2(gap, rate * grid.tf)
        lower0 = np.array([-np.sin(theta0 / 2), np.cos(theta0 / 2)],
                          dtype=complex)
        upperf = np.array([np.cos(thetaf / 2), np.sin(thetaf / 2)],
                          dtype=complex)
        traj = propagate_ket(h, fields, grid,
                             QuantumState.from_ket(lower0))
        p_dia = float(abs(np.vdot(upperf, traj.array[-1])) ** 2)
        formula = float(np.exp(-np.pi * gap ** 2 / (2 * rate)))
        entry = {"rate": rate, "gap": gap, "p_diabatic": p_dia,
                 "p_formula": formula,
                 "relative_error": abs(p_dia - formula) / formula,
                 "norm_drift": traj.max_norm_drift()}
        if with_cd:
            entry["cd_max_infidelity"] = _lz_cd_infidelity(grid, gap, rate)
        results.append(entry)
        prob_rows.append((rate, p_dia))
    bundle.summary["results"] = results
    bundle.summary["invariants"] = {
        "max_norm_drift": max(r["norm_drift"] for r in results)}
    bundle.series["probability_vs_sweep_rate"] = prob_rows


def _lz_cd_infidelity(grid, gap, rate) -> float:
    nt = grid.nt
    ucd = counterdiabatic_tls(
        ControlField.constant(grid, gap),
        ControlField(grid, rate * grid.midpoints),
        rabi_dot=np.zeros(nt - 1), detuning_dot=np.full(nt - 1, rate))
    h = ControlledHamiltonian(
        Operator(np.zeros((2, 2))),
        [(core.sigma_z(), 0), (core.sigma_x(), 1), (core.sigma_y(), 2)])
    fields = [ControlField(grid, 0.5 * rate * grid.midpoints),
              ControlField.constant(grid, 0.5 * gap), ucd]
    theta = np.arctan2(gap, rate * grid.times)
    upper = np.stack([np.cos(theta / 2), np.sin(theta / 2)], axis=1)
    traj = propagate_ket(h, fields, grid,
                         QuantumState.from_ket(upper[0].astype(complex)))
    overlap = np.einsum("ki,ki->k", upper.astype(complex).conj(),
                        traj.array)
    return float(np.max(1.0 - np.abs(overlap) ** 2))


def _stirap_pulses(grid, rabi0, tau, delay, ordering):
    tc = 0.5 * (grid.t0 + grid.tf)
    sign = 1.0 if ordering == "counterintuitive" else -1.0
    t = grid.midpoints
    pump = rabi0 * np.exp(-0.5 * ((t - (tc + sign * delay / 2)) / tau) ** 2)
    stokes = rabi0 * np.exp(-0.5 * ((t - (tc - sign * delay / 2))
                                    / tau) ** 2)
    return ControlField(grid, pump), ControlField(grid, stokes)


def _stirap(config, bundle, seed_field):
    system = config.get("system", {})
    _check_keys(system, {"rabi0", "tau", "delay", "gamma", "ordering"},
                "system")
    rabi0 = float(system.get("rabi0", 12.0))
    tau = float(system.get("tau", 2.5))
    delay = float(system.get("delay", 3.0))
    gamma = float(system.get("gamma", 1.0))
    ordering = system.get("ordering", "counterintuitive")
    if ordering not in ("counterintuitive", "intuitive"):
        raise ConfigError("ordering must be counterintuitive or intuitive")
    grid = _grid_from(config, {"t0": 0.0, "tf": 20.0, "nt": 2001})
    pump, stokes = _stirap_pulses(grid, rabi0, tau, delay, ordering)
    spec = ThreeLevelDriveSpec(energies=(0.0, 30.0, 60.0),
                               rabi=(pump, stokes), carriers=(30.0, 30.0))
    h, fields = rwa_three_level(spec)
    jump = np.zeros((3, 3), dtype=complex)
    jump[0, 1] = 1.0
    liou = Liouvillian(h, [np.sqrt(gamma) * Operator(jump)])
    traj = propagate_density(liou, fields, grid,
                             core.basis_ket(3, 0).to_density())
    pops = traj.populations()
    bundle.summary["results"] = {
        "ordering": ordering,
        "final_populations": pops[-1].tolist(),
        "p3_final": float(pops[-1, 2]),
        "max_p2": float(np.max(pops[:, 1])),
    }
    bundle.summary["invariants"] = {
        "trace_drift": traj.max_norm_drift(),
        "min_eigenvalue": traj.min_eigenvalue(),
    }
    bundle.series["population_vs_time"] = [
        (t, lvl, pops[k, lvl]) for k, t in enumerate(grid.times)
        for lvl in range(3)]
    if bundle.out_dir is not None:
        path = bundle.out_dir / "trajectory.csv"
        traj.to_csv(path)
        bundle.trajectories.append(path)
        fpath = bundle.out_dir / "fields.csv"
        fields_to_csv(fields, fpath)
        bundle.fields.append(fpath)


def _bichromatic(config, bundle, seed_field):
    system = config.get("system", {})
    _check_keys(system, {"splitting", "omega_f", "rabi_peak", "c1", "c2",
                         "n_phases"}, "system")
    splitting = float(system.get("splitting", 1.0))
    omega_f = float(system.get("omega_f", 40.0))
    rabi_peak = float(system.get("rabi_peak", 0.01))
    c1 = complex(system.get("c1", np.sqrt(0.7)))
    c2 = complex(system.get("c2", np.sqrt(0.3)))
    n_phases = int(system.get("n_phases", 16))
    grid = _grid_from(config, {"t0": 0.0, "tf": 60.0, "nt": 24001})

    psi0 = QuantumState.from_ket(np.array([c1, c2, 0.0])
                                 / np.hypot(abs(c1), abs(c2)))
    drift = Operator(np.diag([0.0, splitting, omega_f]).astype(complex))
    c1f = Operator([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    c2f = Operator([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    h = ControlledHamiltonian(drift, [(c1f, 0), (c2f, 1)])
    envelope = np.sin(np.pi * (grid.midpoints - grid.t0)
                      / (grid.tf - grid.t0)) ** 2
    omega1, omega2 = omega_f, omega_f - splitting
    phases = np.linspace(0.0, 2 * np.pi, n_phases, endpoint=False)
    pf = []
    worst_drift = 0.0
    for phi in phases:
        drive = rabi_peak * envelope * (np.cos(omega1 * grid.midpoints)
                                        + np.cos(omega2 * grid.midpoints
                                                 + phi))
        fields = [ControlField(grid, drive), ControlField(grid, drive)]
        traj = propagate_ket(h, fields, grid, psi0)
        pf.append(float(traj.populations()[-1, 2]))
        worst_drift = max(worst_drift, traj.max_norm_drift())
    pf = np.array(pf)
    design = np.stack([np.ones_like(phases), np.cos(phases),
                       np.sin(phases)], axis=1)
    a0, ac, a_s = np.linalg.lstsq(design, pf, rcond=None)[0]
    vis_sim = float(np.hypot(ac, a_s) / a0)
    vis_form = bichromatic_visibility(1.0, 1.0, c1, c2)
    bundle.summary["results"] = {
        "visibility_simulated": vis_sim,
        "visibility_formula": vis_form,
        "relative_error": abs(vis_sim - vis_form) / vis_form,
        "populations_vs_phase": [[float(p), float(v)]
                                 for p, v in zip(phases, pf)],
    }
    bundle.summary["invariants"] = {"max_norm_drift": worst_drift}
    bundle.series["population_vs_phase"] = list(zip(phases, pf))


def reset_model(coupling_j, omega_s=10.0, omega_b=12.0, kappa=2e-4,
                p_exc=0.05, qubit_populations=(0.6, 0.4)):
    """Qubit + auxiliary TLS with XX coupling and z-drive on the qubit."""
    sx, sz, eye = core.sigma_x(), core.sigma_z(), core.identity(2)
    drift = 0.5 * omega_s * core.tensor_product(sz, eye) \
        + 0.5 * omega_b * core.tensor_product(eye, sz) \
        + coupling_j * core.tensor_product(sx, sx)
    h = ControlledHamiltonian(drift, [(core.tensor_product(sz, eye), 0)])
    jump = np.sqrt(kappa) * core.tensor_product(eye, core.sigma_minus())
    rho_s = np.diag(qubit_populations).astype(complex)
    rho_b = np.diag([1 - p_exc, p_exc]).astype(complex)
    rho0 = QuantumState.from_density(np.kron(rho_s, rho_b))
    target = QuantumState.from_density(np.kron(rho_b, rho_s))
    resonance = (omega_b - omega_s) / 2.0
    return h, (jump,), rho0, target, resonance


def qubit_reset_purity(rho_joint: np.ndarray) -> float:
    """Purity of the qubit after tracing out the auxiliary TLS."""
    rho_s = rho_joint.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    return float(np.trace(rho_s @ rho_s).real)


def _qubit_reset(config, bundle, seed_field):
    system = config.get("system", {})
    _check_keys(system, {"coupling", "omega_s", "omega_b", "kappa",
                         "p_exc", "duration_fractions", "nt"}, "system")
    coupling = float(system.get("coupling", 0.15))
    fractions = [float(f) for f in system.get(
        "duration_fractions", np.arange(0.5, 1.35, 0.1).tolist())]
    nt = int(system.get("nt", 301))
    opt = config.get("optimizer", {})
    _check_keys(opt, {"lambda", "max_iters", "dj_threshold",
                      "stall_shrink", "guess_amplitude"}, "optimizer")
    t_min = np.pi / (2 * coupling)
    durations, purities, monotone = [], [], True
    for frac in fractions:
        duration = frac * t_min
        h, jumps, rho0, target, resonance = reset_model(
            coupling,
            omega_s=float(system.get("omega_s", 10.0)),
            omega_b=float(system.get("omega_b", 12.0)),
            kappa=float(system.get("kappa", 2e-4)),
            p_exc=float(system.get("p_exc", 0.05)))
        grid = TimeGrid(0.0, duration, nt)
        problem = ControlProblem(h, grid, [rho0],
                                 CostSpec("state_to_state", target=target),
                                 jump_operators=jumps)
        guess_amp = float(opt.get("guess_amplitude", 0.9 * resonance))
        guess = [seed_field if seed_field is not None and
                 seed_field.grid == grid else
                 ControlField.constant(grid, guess_amp)]
        record = krotov_ensemble(problem, guess, KrotovSettings(
            lambda_=float(opt.get("lambda", 0.2)),
            max_iters=int(opt.get("max_iters", 200)),
            dj_threshold=float(opt.get("dj_threshold", 1e-9)),
            stall_shrink=opt.get("stall_shrink", 0.7)))
        monotone = monotone and record.monotonic(1e-12)
        traj = propagate_density(problem.liouvillian(), record.final_fields,
                                 grid, rho0)
        durations.append(duration)
        purities.append(qubit_reset_purity(traj.array[-1]))
    purities_arr = np.array(purities)
    plateau = float(purities_arr[-1])
    knee_idx = int(np.argmax(purities_arr >= plateau - 0.002))
    bundle.summary["results"] = {
        "coupling": coupling,
        "t_min_theory": t_min,
        "durations": durations,
        "purities": purities,
        "knee_duration": durations[knee_idx],
        "knee_offset_steps": abs(durations[knee_idx] - t_min)
        / (durations[1] - durations[0]) if len(durations) > 1 else 0.0,
    }
    bundle.summary["invariants"] = {"krotov_monotonic": monotone}
    bundle.series["probability_vs_sweep_rate"] = list(zip(durations,
                                                          purities))


def _gate_opt(config, bundle, seed_field):
    from qoctl.functionals import canonical_gate
    system = config.get("system", {})
    _check_keys(system, {"coupling"}, "system")
    coupling = float(system.get("coupling", 1.0))
    grid = _grid_from(config, {"t0": 0.0, "tf": 2.0, "nt": 401})
    opt = config.get("optimizer", {})
    _check_keys(opt, {"lambda", "max_iters", "j_threshold", "budget",
                      "n_fourier"}, "optimizer")
    sx, sz, eye = core.sigma_x(), core.sigma_z(), core.identity(2)
    drift = coupling * core.tensor_product(sx, sx)
    h = ControlledHamiltonian(drift, [(core.tensor_product(sz, eye), 0),
                                      (core.tensor_product(eye, sz), 1)])
    target = canonical_gate(np.pi / 2, 0, 0)
    basis = [core.basis_ket(4, k) for k in range(4)]
    problem = ControlProblem(h, grid, basis, CostSpec("gate", target=target))
    settings = KrotovSettings(lambda_=float(opt.get("lambda", 2.0)),
                              max_iters=int(opt.get("max_iters", 800)),
                              j_threshold=float(opt.get("j_threshold",
                                                        2e-7)))
    budget = int(opt.get("budget", 40))
    n_fourier = int(opt.get("n_fourier", 2))
    par = Parametrization(basis="fourier", n_controls=2, n_terms=n_fourier,
                          bounds=[(-2.0, 2.0)] * (2 * n_fourier),
                          baseline=[seed_field, seed_field]
                          if seed_field is not None else None)
    record = hybrid_optimize(problem, par, settings, budget=budget)
    realized = _realized_gate(problem, record.final_fields)
    coords = weyl_coordinates(realized)
    krotov_js = [e.j_tf for e in record.iterations if e.phase == "krotov"]
    mono = bool(np.all(np.diff(krotov_js) <= 1e-12)) if krotov_js else True
    bundle.summary["results"] = {
        "final_cost": record.final_j,
        "converged_reason": record.converged_reason,
        "weyl_coordinates": coords.as_array().tolist(),
        "pe_distance": pe_distance(coords),
        "iterations": len(record.iterations) - 1,
    }
    bundle.summary["invariants"] = {"krotov_monotonic": mono}
    bundle.series["j_vs_iteration"] = [(e.index, e.j_tf)
                                       for e in record.iterations]
    if bundle.out_dir is not None:
        fpath = bundle.out_dir / "fields.csv"
        fields_to_csv(record.final_fields, fpath)
        bundle.fields.append(fpath)


def _realized_gate(problem: ControlProblem, fields) -> Operator:
    """Final-time propagator: the basis columns stepped as one block."""
    h = problem.hamiltonian
    coups = np.stack([op.matrix for op in h.control_operators()])
    amps = np.stack([f.samples for f in fields], axis=1)
    finals = _kernels.propagate_pwc_ket(h.drift.matrix, coups, amps,
                                        problem.grid.dt,
                                        np.eye(h.dim, dtype=complex), 1)[-1]
    return Operator(finals.T)


_SYSTEM_BUILDERS = {}


def _register_system(name):
    def wrap(func):
        _SYSTEM_BUILDERS[name] = func
        return func
    return wrap


@_register_system("tls")
def _sys_tls(params):
    _check_keys(params, {"name", "omega"}, "system")
    return ControlledHamiltonian(0.5 * float(params.get("omega", 1.0))
                                 * core.sigma_z(), [(core.sigma_x(), 0)])


@_register_system("ladder")
def _sys_ladder(params):
    _check_keys(params, {"name", "levels", "anharmonicity"}, "system")
    n = int(params.get("levels", 3))
    anh = float(params.get("anharmonicity", 0.11))
    energies = np.array([k + 0.5 * anh * k * (k - 1) for k in range(n)])
    coupling = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        coupling[k, k + 1] = coupling[k + 1, k] = 1.0
    return ControlledHamiltonian(Operator(np.diag(energies).astype(complex)),
                                 [(Operator(coupling), 0)])


@_register_system("identical_coupled_qubits")
def _sys_identical(params):
    _check_keys(params, {"name", "omega", "coupling"}, "system")
    omega = float(params.get("omega", 1.0))
    g = float(params.get("coupling", 0.2))
    sz, sx, eye = core.sigma_z(), core.sigma_x(), core.identity(2)
    drift = 0.5 * omega * (core.tensor_product(sz, eye)
                           + core.tensor_product(eye, sz)) \
        + g * core.tensor_product(sx, sx)
    return ControlledHamiltonian(drift, [(core.tensor_product(sx, eye), 0)])


@_register_system("zz_coupled_qubits")
def _sys_zz(params):
    _check_keys(params, {"name", "omega1", "omega2", "coupling"}, "system")
    sz, sx, eye = core.sigma_z(), core.sigma_x(), core.identity(2)
    drift = 0.5 * float(params.get("omega1", 1.0)) \
        * core.tensor_product(sz, eye) \
        + 0.5 * float(params.get("omega2", 1.7)) \
        * core.tensor_product(eye, sz) \
        + float(params.get("coupling", 0.2)) * core.tensor_product(sz, sz)
    return ControlledHamiltonian(drift, [(core.tensor_product(sx, eye), 0)])


def _system_from_config(section: dict) -> ControlledHamiltonian:
    if "name" in section:
        name = section["name"]
        if name not in _SYSTEM_BUILDERS:
            raise ConfigError(f"unknown system builder {name!r}; known: "
                              f"{sorted(_SYSTEM_BUILDERS)}")
        return _SYSTEM_BUILDERS[name](section)
    _check_keys(section, {"drift", "couplings"}, "system")
    try:
        drift = Operator.from_dict(_require(section, "drift", "system"))
        couplings = [(Operator.from_dict(c["operator"]),
                      int(c.get("control_index", i)))
                     for i, c in enumerate(section.get("couplings", []))]
        return ControlledHamiltonian(drift, couplings)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid inline system: {exc}") from exc


def _controllability(config, bundle, seed_field):
    system = config.get("system")
    if system is None:
        raise ConfigError("controllability scenario needs a 'system'")
    h = _system_from_config(system)
    graph = build_graph(h)
    result = graph_controllability(graph)
    lie = lie_rank(h)
    bundle.summary["results"] = {
        **result.to_dict(),
        "graph_verdict": "controllable" if result.controllable
        else "not established by graph test",
        "lie_dimension": lie.dimension_found,
        "lie_target_dimension": lie.target_dimension,
        "lie_full_rank": lie.full_rank,
        "lie_truncated": lie.truncated,
    }
    bundle.summary["invariants"] = {
        "graph_positive_implies_lie_full":
            (not result.controllable) or lie.full_rank}
    if bundle.out_dir is not None:
        path = bundle.out_dir / "graph.txt"
        path.write_text(graph.to_text() + "\n")
        bundle.trajectories.append(path)


_RUNNERS = {
    "rabi": _rabi,
    "landau_zener": _landau_zener,
    "stirap": _stirap,
    "bichromatic": _bichromatic,
    "qubit_reset": _qubit_reset,
    "gate_opt": _gate_opt,
    "controllability": _controllability,
}

_TOP_KEYS = {"schema_version", "scenario", "seed", "grid", "system",
             "optimizer", "outputs"}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(config, _TOP_KEYS, "config")
    scenario = _require(config, "scenario", "config")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; "
                          f"known: {list(SCENARIOS)}")
    return config


def qubit_reset_scenario(config_path, out_dir=None,
                         seed_field_path=None) -> ResultBundle:
    """Run a ``qubit_reset`` config: optimize the drive at each duration
    and locate the purity threshold against ``pi/(2J)``."""
    config = load_config(config_path)
    if config["scenario"] != "qubit_reset":
        raise ConfigError("qubit_reset_scenario needs a qubit_reset config")
    return run_scenario(config_path, out_dir=out_dir,
                        seed_field_path=seed_field_path)


def run_scenario(config_path, out_dir=None,
                 seed_field_path=None) -> ResultBundle:
    """Execute a scenario config; write summary, CSVs and plot data."""
    config = load_config(config_path)
    np.random.seed(int(config.get("seed", 0)))
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    bundle = ResultBundle(summary={
        "schema_version": SCHEMA_VERSION,
        "scenario": config["scenario"],
        "seed": int(config.get("seed", 0)),
    }, out_dir=out)
    seed_field = None
    if seed_field_path is not None:
        grid = _grid_from(config) if "grid" in config else None
        seed_field = _load_seed_field(seed_field_path, grid)
    runner = _RUNNERS[config["scenario"]]
    try:
        runner(config, bundle, seed_field)
    except ConfigError:
        raise
    except (FloatingPointError, np.linalg.LinAlgError, ValueError) as exc:
        raise ScenarioError(f"numerics aborted: {exc}") from exc
    for kind in config.get("outputs", []):
        if kind in ("trajectory", "fields"):
            continue  # written by the runner when applicable
        emit_plot_data(bundle, kind)
    _write_summary(bundle)
    return bundle


def _load_seed_field(path, grid: Optional[TimeGrid]) -> ControlField:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    times = data[:, 0]
    samples = data[:, 1]
    if grid is None:
        dt = times[1] - times[0]
        grid = TimeGrid(times[0] - dt / 2, times[-1] + dt / 2,
                        len(times) + 1)
    if len(samples) != grid.nt - 1:
        raise ConfigError(f"seed field has {len(samples)} samples, "
                          f"grid needs {grid.nt - 1}")
    return ControlField(grid, samples)
