"""Config-driven reference scenarios.

Each config is checked against one schema table (``SCHEMA``) before any
numerics run, runs deterministically for a given seed field, re-asserts the
dynamics invariants (trace/norm drift, positivity, monotonicity) and
records them in the summary.  Summaries contain no wall-clock data, so
identical configs produce byte-identical JSON.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import _kernels, core, shapes
from .adiabatic import counterdiabatic_tls, landau_zener
from .controllability import build_graph, graph_controllability, lie_rank
from .core import ControlledHamiltonian, Liouvillian, Operator, QuantumState
from .dynamics import (ControlField, TimeGrid, _sample_matrix,
                       propagate_density, propagate_ket, write_csv)
from .frames import (FRAME_CHOICES, ThreeLevelDriveSpec, TwoLevelDriveSpec,
                     rwa_three_level, rwa_two_level)
from .functionals import (CostSpec, bichromatic_visibility, canonical_gate,
                          pe_distance, weyl_coordinates)
from .optimize import (ControlProblem, KrotovSettings, Parametrization,
                       fields_to_csv, hybrid_optimize, krotov_ensemble)

SCHEMA_VERSION = 1

# Caps on the keys that set the work of a run, above every default, test
# and benchmark value
MAX_NT = 100_001        # grid points of one propagation
MAX_COUNT = 10_000      # iterations, Nelder-Mead evaluations, phases
MAX_FOURIER = 64        # Fourier terms per control
MAX_LEVELS = 16         # ladder levels; the Lie closure grows as levels**6
# The optimizers' update shape vanishes at the first and last midpoint, so
# an optimized grid needs two midpoints or more
MIN_OPTIMIZED_NT = 3

# a --seed-field time may be this many steps off its grid midpoint
SEED_TIME_TOL = 1e-6

REQUIRED = object()     # default of a key that must be given
_HUGE = np.finfo(float).max
_TINY = np.finfo(float).tiny     # the smallest normal float


class ConfigError(ValueError):
    """The scenario config violates the schema."""


class ScenarioError(RuntimeError):
    """The scenario aborted during numerics."""


@dataclass
class ResultBundle:
    """Summary dict, plot series and where the artifacts were written."""

    summary: dict
    summary_path: Optional[Path] = None
    series: dict = field(default_factory=dict)
    out_dir: Optional[Path] = None


@dataclass(frozen=True)
class Key:
    """One row of the schema table: a key's default, JSON type and range.

    ``kind`` is ``float`` (ints accepted), ``int``, a tuple of the allowed
    values, a list ``[row]`` (at least ``lo`` entries), a dict of rows (a
    section) or ``None`` (left to ``build``, which makes what the runners
    use; its errors are config errors).  Numbers are finite, lie in
    ``[lo, hi]`` and are above 0 if ``positive``; null needs ``nullable``.
    """

    default: object
    kind: object = float
    lo: float = -np.inf
    hi: float = np.inf
    positive: bool = False
    nullable: bool = False
    build: Optional[Callable] = None


def _check(value, row: Key, where: str):
    """``value`` checked against ``row``, with its defaults filled in."""
    if value is REQUIRED:
        raise ConfigError(f"{where} is required")
    if value is None and row.nullable:
        return None
    if isinstance(row.kind, dict):
        if not isinstance(value, dict) or set(value) - set(row.kind):
            raise ConfigError(f"{where} must be a JSON object with keys from "
                              f"{sorted(row.kind)}, got {value!r}")
        value = {k: _check(value.get(k, r.default), r, f"{where}.{k}")
                 for k, r in row.kind.items()}
    elif isinstance(row.kind, list):
        if not isinstance(value, list) or len(value) < row.lo:
            raise ConfigError(f"{where} must be a list, length >= {row.lo:g}")
        value = [_check(entry, row.kind[0], f"{where}[{i}]")
                 for i, entry in enumerate(value)]
    elif isinstance(row.kind, tuple):
        if not any(type(value) is type(c) and value == c for c in row.kind):
            raise ConfigError(f"{where} must be one of {list(row.kind)}")
    elif row.kind is not None:
        # json.load reads NaN, Infinity and 1e400 as floats; bools are ints
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not -_HUGE <= value <= _HUGE \
                or not row.lo <= value <= row.hi \
                or row.positive and value <= 0 \
                or row.kind is int and value % 1:
            low = "(0" if row.positive else f"[{row.lo:g}"
            raise ConfigError(f"{where} must be a finite {row.kind.__name__} "
                              f"in {low}, {row.hi:g}], got {value!r}")
        value = row.kind(value)
    if row.build is None:
        return value
    try:
        return row.build(value)
    except ConfigError:  # a build that checks its own rows, as _system does
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _summary_text(summary: dict) -> str:
    """The text of ``summary.json``.  JSON has no literal for an infinite or
    NaN number, so one in the results is a numerics failure."""
    try:
        return json.dumps(summary, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise ScenarioError(f"non-finite result: {exc}") from exc


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
    write_csv(path, headers[kind], bundle.series[kind])
    return path


# Scenario implementations ---------------------------------------------------

def _rabi(config, bundle, seed_field=None):
    system = config["system"]
    rabi0, detuning = system["rabi0"], system["detuning"]
    frame = system["frame"]
    grid = config["grid"] or TimeGrid(
        0.0, system["periods"] * 2 * np.pi / rabi0, 2001)
    spec = TwoLevelDriveSpec(omega0=100 * rabi0,
                             omegaL=100 * rabi0 - detuning, rabi0=rabi0,
                             shape=seed_field
                             or ControlField.constant(grid, 1.0))
    res = rwa_two_level(spec, frame=frame)
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
        traj.to_csv(bundle.out_dir / "trajectory.csv")


def _landau_zener(config, bundle):
    system = config["system"]
    span, adiab = system["span"], system["adiabaticity"]
    results = []
    prob_rows = []
    for rate in system["rates"]:
        gap = system["gap"] if adiab is None else float(np.sqrt(adiab * rate))
        grid = config["grid"] or TimeGrid(-span / rate, span / rate, 40001)
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
        # deep in the adiabatic limit the formula underflows below the
        # normal floats, where no relative error is meaningful
        entry = {"rate": rate, "gap": gap, "p_diabatic": p_dia,
                 "p_formula": formula,
                 "relative_error": abs(p_dia - formula) / formula
                 if formula >= _TINY else None,
                 "norm_drift": traj.max_norm_drift()}
        if system["with_counterdiabatic"]:
            entry["cd_max_infidelity"] = _lz_cd_infidelity(h, fields, gap,
                                                           rate)
        results.append(entry)
        prob_rows.append((rate, p_dia))
    bundle.summary["results"] = results
    bundle.summary["invariants"] = {
        "max_norm_drift": max(r["norm_drift"] for r in results)}
    bundle.series["probability_vs_sweep_rate"] = prob_rows


def _lz_cd_infidelity(sweep, fields, gap, rate) -> float:
    """Worst infidelity to the adiabatic state with counterdiabatic driving."""
    (detuning, rabi), grid = fields, fields[0].grid
    # the sweep's fields are half its detuning and Rabi frequency
    ucd = counterdiabatic_tls(
        2 * rabi, 2 * detuning, rabi_dot=np.zeros(grid.nt - 1),
        detuning_dot=np.full(grid.nt - 1, rate))
    h = ControlledHamiltonian(sweep.drift,
                              [*sweep.couplings, (core.sigma_y(), 2)])
    theta = np.arctan2(gap, rate * grid.times)
    upper = np.stack([np.cos(theta / 2), np.sin(theta / 2)], axis=1)
    traj = propagate_ket(h, [detuning, rabi, ucd], grid,
                         QuantumState.from_ket(upper[0].astype(complex)))
    overlap = np.einsum("ki,ki->k", upper.astype(complex).conj(),
                        traj.array)
    return float(np.max(1.0 - np.abs(overlap) ** 2))


def _stirap(config, bundle):
    system = config["system"]
    ordering = system["ordering"]
    grid = config["grid"] or TimeGrid(0.0, 20.0, 2001)
    # the counterintuitive order sends the Stokes pulse first
    tc = 0.5 * (grid.t0 + grid.tf)
    shift = (1.0 if ordering == "counterintuitive" else -1.0) \
        * system["delay"] / 2
    pump, stokes = (shapes.gaussian(grid, system["rabi0"], tc + s,
                                    system["tau"]) for s in (shift, -shift))
    spec = ThreeLevelDriveSpec(energies=(0.0, 30.0, 60.0),
                               rabi=(pump, stokes), carriers=(30.0, 30.0))
    h, fields = rwa_three_level(spec)
    jump = np.zeros((3, 3), dtype=complex)
    jump[0, 1] = 1.0
    liou = Liouvillian(h, [np.sqrt(system["gamma"]) * Operator(jump)])
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
        traj.to_csv(bundle.out_dir / "trajectory.csv")
        fields_to_csv(fields, bundle.out_dir / "fields.csv")


def _bichromatic(config, bundle):
    system = config["system"]
    splitting, omega_f = system["splitting"], system["omega_f"]
    rabi_peak, c1, c2 = system["rabi_peak"], system["c1"], system["c2"]
    grid = config["grid"] or TimeGrid(0.0, 60.0, 24001)

    psi0 = QuantumState.from_ket(np.array([c1, c2, 0.0], dtype=complex)
                                 / np.hypot(c1, c2))
    # both couplings carry the drive: one control
    h = ControlledHamiltonian(
        Operator(np.diag([0.0, splitting, omega_f])),
        [(Operator([[0, 0, 1], [0, 0, 0], [1, 0, 0]]), 0),
         (Operator([[0, 0, 0], [0, 0, 1], [0, 1, 0]]), 0)])
    mid = grid.midpoints[:, None]
    envelope = np.sin(np.pi * (mid - grid.t0) / (grid.tf - grid.t0)) ** 2
    omega1, omega2 = omega_f, omega_f - splitting
    phases = np.linspace(0.0, 2 * np.pi, system["n_phases"],
                         endpoint=False)
    # The phases are independent trajectories: step them as one (P, 1, 3)
    # block through (rows, P, 3, 3) stacks built a segment at a time, so
    # that memory grows with neither the grid nor the number of phases.
    # |envelope (cos + cos)| <= 2 bounds every drive sample: the stacks
    # are read off one table over that box where it needs no more nodes
    # than a segment's stack has matrices.
    rows = _kernels.block_rows(3, len(phases))
    stack_of = _kernels.ket_stack_builder(
        h.drift_matrix, h.coupling_stack, grid.dt, [-2 * rabi_peak],
        [2 * rabi_peak], min(rows, grid.nt - 1) * len(phases))
    state = np.repeat(psi0.ket[None, None], len(phases), axis=0)
    worst_drift = np.abs(np.linalg.norm(state, axis=-1) - 1.0).max()
    for k0 in range(0, grid.nt - 1, rows):
        t = mid[k0:k0 + rows]
        drive = rabi_peak * envelope[k0:k0 + rows] * (
            np.cos(omega1 * t) + np.cos(omega2 * t + phases))
        steps = stack_of(drive[..., None])
        block = _kernels.propagate_steps(steps, state, 1)
        worst_drift = max(worst_drift, np.abs(
            np.linalg.norm(block[1:], axis=-1) - 1.0).max())
        state = block[-1]
    pf = np.abs(state[:, 0, 2]) ** 2
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
    bundle.summary["invariants"] = {"max_norm_drift": float(worst_drift)}
    bundle.series["population_vs_phase"] = list(zip(phases, pf))


def reset_model(coupling_j, omega_s=10.0, omega_b=12.0, kappa=2e-4,
                p_exc=0.05):
    """Qubit + auxiliary TLS with XX coupling and z-drive on the qubit.

    The qubit starts with populations ``(0.6, 0.4)``."""
    sx, sz, eye = core.sigma_x(), core.sigma_z(), core.identity(2)
    drift = 0.5 * omega_s * core.tensor_product(sz, eye) \
        + 0.5 * omega_b * core.tensor_product(eye, sz) \
        + coupling_j * core.tensor_product(sx, sx)
    h = ControlledHamiltonian(drift, [(core.tensor_product(sz, eye), 0)])
    jump = np.sqrt(kappa) * core.tensor_product(eye, core.sigma_minus())
    rho_s = np.diag([0.6, 0.4]).astype(complex)
    rho_b = np.diag([1 - p_exc, p_exc]).astype(complex)
    rho0 = QuantumState.from_density(np.kron(rho_s, rho_b))
    target = QuantumState.from_density(np.kron(rho_b, rho_s))
    resonance = (omega_b - omega_s) / 2.0
    return h, (jump,), rho0, target, resonance


def qubit_reset_purity(rho_joint: np.ndarray) -> float:
    """Purity of the qubit after tracing out the auxiliary TLS."""
    rho_s = rho_joint.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    return float(np.trace(rho_s @ rho_s).real)


def _reset_grids(config) -> list:
    """The grid of each duration a ``qubit_reset`` run optimizes."""
    system = config["system"]
    t_min = np.pi / (2 * system["coupling"])
    return [TimeGrid(0.0, frac * t_min, system["nt"])
            for frac in system["duration_fractions"]]


def _qubit_reset(config, bundle, seed_field=None):
    system, opt = config["system"], config["optimizer"]
    coupling = system["coupling"]
    t_min = np.pi / (2 * coupling)
    h, jumps, rho0, target, resonance = reset_model(
        coupling, omega_s=system["omega_s"], omega_b=system["omega_b"],
        kappa=system["kappa"], p_exc=system["p_exc"])
    durations, purities, monotone = [], [], True
    for grid in _reset_grids(config):
        problem = ControlProblem(h, grid, [rho0],
                                 CostSpec("state_to_state", target=target),
                                 jump_operators=jumps)
        amp = opt["guess_amplitude"]
        guess = [seed_field if seed_field is not None and
                 seed_field.grid == grid else
                 ControlField.constant(grid, 0.9 * resonance if amp is None
                                       else amp)]
        record = krotov_ensemble(problem, guess, KrotovSettings(
            lambda_=opt["lambda"], max_iters=opt["max_iters"],
            dj_threshold=opt["dj_threshold"]))
        monotone = monotone and record.monotonic()
        traj = propagate_density(problem.liouvillian(), record.final_fields,
                                 grid, rho0)
        durations.append(grid.tf)
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


def _gate_opt(config, bundle, seed_field=None):
    opt = config["optimizer"]
    grid = config["grid"] or TimeGrid(0.0, 2.0, 401)
    sx, sz, eye = core.sigma_x(), core.sigma_z(), core.identity(2)
    drift = config["system"]["coupling"] * core.tensor_product(sx, sx)
    h = ControlledHamiltonian(drift, [(core.tensor_product(sz, eye), 0),
                                      (core.tensor_product(eye, sz), 1)])
    target = canonical_gate(np.pi / 2, 0, 0)
    basis = [core.basis_ket(4, k) for k in range(4)]
    problem = ControlProblem(h, grid, basis, CostSpec("gate", target=target))
    settings = KrotovSettings(lambda_=opt["lambda"],
                              max_iters=opt["max_iters"],
                              j_threshold=opt["j_threshold"])
    n_fourier = opt["n_fourier"]
    par = Parametrization(n_controls=2, n_terms=n_fourier,
                          bounds=[(-2.0, 2.0)] * (2 * n_fourier),
                          baseline=[seed_field, seed_field]
                          if seed_field is not None else None)
    record = hybrid_optimize(problem, par, settings, budget=opt["budget"])
    realized = _realized_gate(problem, record.final_fields)
    coords = weyl_coordinates(realized)
    bundle.summary["results"] = {
        "final_cost": record.final_j,
        "converged_reason": record.converged_reason,
        "weyl_coordinates": coords.as_array().tolist(),
        "pe_distance": pe_distance(coords),
        "iterations": len(record.iterations) - 1,
    }
    bundle.summary["invariants"] = {"krotov_monotonic": record.monotonic()}
    bundle.series["j_vs_iteration"] = list(enumerate(record.j_history))
    if bundle.out_dir is not None:
        fields_to_csv(record.final_fields, bundle.out_dir / "fields.csv")


def _realized_gate(problem: ControlProblem, fields) -> Operator:
    """Final-time propagator: the basis columns stepped as one block."""
    h, grid = problem.hamiltonian, problem.grid
    finals = _kernels.propagate_pwc_ket(
        h.drift_matrix, h.coupling_stack,
        _sample_matrix(fields, grid, h.n_controls), grid.dt,
        np.eye(h.dim, dtype=complex), 1)[-1]
    return Operator(finals.T)


def _sys_tls(params):
    return ControlledHamiltonian(0.5 * params["omega"] * core.sigma_z(),
                                 [(core.sigma_x(), 0)])


def _sys_ladder(params):
    n, anh = params["levels"], params["anharmonicity"]
    energies = np.array([k + 0.5 * anh * k * (k - 1) for k in range(n)])
    coupling = np.zeros((n, n), dtype=complex)
    for k in range(n - 1):
        coupling[k, k + 1] = coupling[k + 1, k] = 1.0
    return ControlledHamiltonian(Operator(np.diag(energies).astype(complex)),
                                 [(Operator(coupling), 0)])


def _sys_identical(params):
    omega, g = params["omega"], params["coupling"]
    sz, sx, eye = core.sigma_z(), core.sigma_x(), core.identity(2)
    drift = 0.5 * omega * (core.tensor_product(sz, eye)
                           + core.tensor_product(eye, sz)) \
        + g * core.tensor_product(sx, sx)
    return ControlledHamiltonian(drift, [(core.tensor_product(sx, eye), 0)])


def _sys_zz(params):
    sz, sx, eye = core.sigma_z(), core.sigma_x(), core.identity(2)
    drift = 0.5 * params["omega1"] * core.tensor_product(sz, eye) \
        + 0.5 * params["omega2"] * core.tensor_product(eye, sz) \
        + params["coupling"] * core.tensor_product(sz, sz)
    return ControlledHamiltonian(drift, [(core.tensor_product(sx, eye), 0)])


def _sys_inline(params):
    return ControlledHamiltonian(params["drift"], [
        (c["operator"], i if c["control_index"] is None
         else c["control_index"]) for i, c in enumerate(params["couplings"])])


# an Operator.to_dict: dim plus rows of [re, im] entry pairs; its dim is
# capped like the ladder's levels
_ENTRY = Key(REQUIRED, [Key(REQUIRED)], lo=2)
_OPERATOR = Key(REQUIRED, {
    "dim": Key(REQUIRED, int, lo=1, hi=MAX_LEVELS),
    "entries": Key(REQUIRED, [Key(REQUIRED, [_ENTRY], lo=1)], lo=1)},
    build=Operator.from_dict)
# controllability systems: name (None: inline) -> (builder, section rows)
_SYSTEMS = {
    "tls": (_sys_tls, {"omega": Key(1.0, positive=True)}),
    "ladder": (_sys_ladder, {"levels": Key(3, int, lo=2, hi=MAX_LEVELS),
                             "anharmonicity": Key(0.11)}),
    "identical_coupled_qubits": (_sys_identical, {
        "omega": Key(1.0, positive=True), "coupling": Key(0.2)}),
    "zz_coupled_qubits": (_sys_zz, {
        "omega1": Key(1.0, positive=True), "omega2": Key(1.7, positive=True),
        "coupling": Key(0.2)}),
    None: (_sys_inline, {"drift": _OPERATOR, "couplings": Key([], [
        Key(REQUIRED, {"operator": _OPERATOR,
                       "control_index": Key(None, int, lo=0, nullable=True)})],
        lo=0)}),
}
_SYSTEM_NAME = Key(None, tuple(_SYSTEMS))


def _system(section) -> ControlledHamiltonian:
    """A controllability system, named or given inline."""
    name = section.get("name") if isinstance(section, dict) else None
    builder, rows = _SYSTEMS[_check(name, _SYSTEM_NAME, "config.system.name")]
    return builder(_check(section, Key(REQUIRED, {"name": _SYSTEM_NAME,
                                                  **rows}), "config.system"))


def _controllability(config, bundle):
    h = config["system"]
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
    }
    bundle.summary["invariants"] = {
        "graph_positive_implies_lie_full":
            (not result.controllable) or lie.full_rank}
    if bundle.out_dir is not None:
        (bundle.out_dir / "graph.txt").write_text(graph.to_text() + "\n")


def _config_grid(config) -> list:
    return [] if config["grid"] is None else [config["grid"]]


# Scenarios that take a --seed-field, with the grids it may lie on (none:
# its times set the grid) and the range of its samples.  rabi reads it as
# the pulse shape, gate_opt as the baseline of both controls, qubit_reset
# as the guess of the duration whose grid it lies on.
SEED_FIELDS = {
    "rabi": (_config_grid, Key(REQUIRED, lo=0.0, hi=1.0)),
    "gate_opt": (_config_grid, Key(REQUIRED)),
    "qubit_reset": (_reset_grids, Key(REQUIRED)),
}

_RUNNERS = {
    "rabi": _rabi,
    "landau_zener": _landau_zener,
    "stirap": _stirap,
    "bichromatic": _bichromatic,
    "qubit_reset": _qubit_reset,
    "gate_opt": _gate_opt,
    "controllability": _controllability,
}

# Schema table ---------------------------------------------------------------

def _grid(min_nt: int) -> Key:
    """A nullable ``grid`` row of at least ``min_nt`` points."""
    return Key(None, {"t0": Key(0.0), "tf": Key(REQUIRED),
                      "nt": Key(REQUIRED, int, lo=min_nt, hi=MAX_NT)},
               nullable=True, build=lambda grid: TimeGrid(**grid))


_GRID = _grid(2)


def _increasing(values: list) -> list:
    """``values``, which must increase strictly: the qubit_reset knee is
    measured against the last duration, in steps of the first spacing."""
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"must increase strictly, got {values!r}")
    return values


def _scenario(plots, system: dict, **sections) -> dict:
    """Top-level rows of a scenario whose ``outputs`` may name ``plots``."""
    return {"schema_version": Key(SCHEMA_VERSION, int, lo=SCHEMA_VERSION,
                                  hi=SCHEMA_VERSION),
            "scenario": Key(REQUIRED, None),  # checked by load_config
            "seed": Key(0, int, lo=0),
            "outputs": Key([], [Key(REQUIRED, plots)], lo=0),
            "system": Key({}, system),
            **sections}


SCHEMA = {
    "rabi": _scenario(("population_vs_time",), {
        "rabi0": Key(2 * np.pi, positive=True),
        "detuning": Key(0.0),
        "periods": Key(10.0, positive=True),
        "frame": Key("carrier", FRAME_CHOICES)}, grid=_GRID),
    "landau_zener": _scenario(("probability_vs_sweep_rate",), {
        "gap": Key(1.0, positive=True),
        "rates": Key([1.0], [Key(REQUIRED, positive=True)], lo=1),
        "adiabaticity": Key(None, positive=True, nullable=True),
        "span": Key(60.0, positive=True),
        "with_counterdiabatic": Key(False, (False, True))}, grid=_GRID),
    "stirap": _scenario(("population_vs_time",), {
        "rabi0": Key(12.0, positive=True),
        "tau": Key(2.5, positive=True),
        "delay": Key(3.0, lo=0.0),
        "gamma": Key(1.0, lo=0.0),
        "ordering": Key("counterintuitive",
                        ("counterintuitive", "intuitive"))}, grid=_GRID),
    "bichromatic": _scenario(("population_vs_phase",), {
        "splitting": Key(1.0, positive=True),
        "omega_f": Key(40.0, positive=True),
        "rabi_peak": Key(0.01, positive=True),
        "c1": Key(np.sqrt(0.7), positive=True),
        "c2": Key(np.sqrt(0.3), positive=True),
        "n_phases": Key(16, int, lo=3, hi=MAX_COUNT)}, grid=_GRID),
    "qubit_reset": _scenario(("probability_vs_sweep_rate",), {
        "coupling": Key(0.15, positive=True),
        "omega_s": Key(10.0, positive=True),
        "omega_b": Key(12.0, positive=True),
        "kappa": Key(2e-4, lo=0.0),
        "p_exc": Key(0.05, lo=0.0, hi=1.0),
        "duration_fractions": Key([0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2,
                                   1.3],
                                  [Key(REQUIRED, positive=True)], lo=1,
                                  build=_increasing),
        "nt": Key(301, int, lo=MIN_OPTIMIZED_NT, hi=MAX_NT)},
        optimizer=Key({}, {
        "lambda": Key(0.2, positive=True),
        "max_iters": Key(200, int, lo=0, hi=MAX_COUNT),
        "dj_threshold": Key(1e-9, lo=0.0),
        "guess_amplitude": Key(None, nullable=True)})),  # None: 0.9 resonance
    "gate_opt": _scenario(("j_vs_iteration",), {"coupling": Key(1.0)},
                          grid=_grid(MIN_OPTIMIZED_NT), optimizer=Key({}, {
        # the step is 1/lambda: 0.25 rejects nothing over coupling 0.5-2 and
        # nt 101-1001, where 2.0 needs 7-10x the Krotov iterations (README)
        "lambda": Key(0.25, positive=True),
        "max_iters": Key(800, int, lo=0, hi=MAX_COUNT),
        "j_threshold": Key(2e-7, lo=0.0),
        "budget": Key(40, int, lo=0, hi=MAX_COUNT),
        "n_fourier": Key(2, int, lo=0, hi=MAX_FOURIER)})),
    "controllability": _scenario((), {}) | {
        "system": Key(REQUIRED, None, build=_system)},
}
SCENARIOS = tuple(SCHEMA)


def load_config(path) -> dict:
    """Parse a config and check it against ``SCHEMA``; returns it with every
    default filled in, ``grid`` as a :class:`TimeGrid` or ``None``."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except ValueError as exc:  # also non-UTF-8 bytes
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    scenario = _check(config.get("scenario"), Key(REQUIRED, SCENARIOS),
                      "config.scenario")
    return _check(config, Key(REQUIRED, SCHEMA[scenario]), "config")


def run_scenario(config_path, out_dir=None,
                 seed_field_path=None) -> ResultBundle:
    """Execute a scenario config; write summary, CSVs and plot data."""
    config = load_config(config_path)
    if config["outputs"] and out_dir is None:
        raise ConfigError("outputs need an output directory (--out)")
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    bundle = ResultBundle(summary={
        "schema_version": SCHEMA_VERSION,
        "scenario": config["scenario"],
        "seed": config["seed"],
    }, out_dir=out)
    scenario = config["scenario"]
    if seed_field_path is not None and scenario not in SEED_FIELDS:
        raise ConfigError(f"scenario {scenario!r} takes no seed field; "
                          f"{', '.join(SEED_FIELDS)} do")
    seed = {}
    try:
        if seed_field_path is not None:
            # the grids a valid config sets may still be unresolvable
            # (numerics); a malformed seed field is a config error
            grids, row = SEED_FIELDS[scenario]
            seed["seed_field"] = _load_seed_field(seed_field_path,
                                                  grids(config), row)
            if "grid" in config:  # the config's grid, or the times' grid
                config["grid"] = seed["seed_field"].grid
        # a valid config may still leave the floats: an overflow, an invalid
        # operation or a division by zero aborts the run with its name
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _RUNNERS[scenario](config, bundle, **seed)
    except ConfigError:
        raise
    except (ArithmeticError, np.linalg.LinAlgError, ValueError) as exc:
        raise ScenarioError(f"numerics aborted: {exc}") from exc
    text = _summary_text(bundle.summary)
    for kind in config["outputs"]:
        emit_plot_data(bundle, kind)
    if out is not None:
        bundle.summary_path = out / "summary.json"
        bundle.summary_path.write_text(text)
    return bundle


def _load_seed_field(path, grids, row: Key) -> ControlField:
    """A one-control CSV as ``fields_to_csv`` writes it, each sample checked
    against ``row``.  The field lies on the first of ``grids`` whose
    midpoints are its times to within ``SEED_TIME_TOL`` of a step; without
    ``grids`` the times set the grid.  Anything else is a config error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty file fails below
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 2 or not np.isfinite(data).all() \
                or (not grids and len(data) < 2):
            raise ValueError("need finite time,u rows with one control "
                             "column, two rows without a config grid")
        times, samples = data[:, 0], data[:, 1]
        if not grids:
            dt = times[1] - times[0]
            grids = [TimeGrid(times[0] - dt / 2, times[-1] + dt / 2,
                              len(times) + 1)]
    except ValueError as exc:
        raise ConfigError(f"seed field {path}: {exc}") from exc
    for k, value in enumerate(samples):
        _check(float(value), row, f"seed field sample {k}")
    for grid in grids:
        if len(samples) == grid.nt - 1 and np.max(np.abs(
                times - grid.midpoints)) <= SEED_TIME_TOL * grid.dt:
            return ControlField(grid, samples)
    raise ConfigError(f"seed field {path}: its times are not the evenly "
                      f"spaced midpoints of {' or '.join(map(str, grids))}")
