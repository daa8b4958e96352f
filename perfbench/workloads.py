"""The four benchmark workloads: seeded inputs, the solve call, output checks.

Inputs are generated here from the workload seed and written to files;
qoctl only ever sees those files (scenario configs, a ``--seed-field`` CSV)
or the values read back from them (the GRAPE guess).  numpy and qoctl are
imported inside the functions, because the set-up probe times those imports
itself.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

WORKLOADS = ("closed_sweep", "gate_krotov", "gate_grape", "open_reset")
DEFAULT_SEED = 1
SCENARIO_WORKLOADS = ("closed_sweep", "gate_krotov", "open_reset")

GATE_TF = 2.0
GATE_NT = 401
# GRAPE guess: per control, coefficients of sin(pi t/T) and sin(2 pi t/T);
# the seed perturbs each by at most GRAPE_JITTER.
GRAPE_BASE = (0.5, 0.2, -0.3, 0.1)
GRAPE_JITTER = 0.02
GRAPE_STEP = 400.0
GRAPE_J = 1e-4
GRAPE_MAX_ITERS = 200


def make_inputs(name: str, seed: int, smoke: bool = False) -> dict:
    """JSON-serializable inputs of one workload, derived from ``seed`` only.

    ``smoke`` shrinks every grid and iteration budget so the harness itself
    can be tested in seconds.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    spec = {"workload": name, "seed": seed, "smoke": smoke}
    if name == "closed_sweep":
        # bichromatic reference config with seeded initial amplitudes and
        # peak Rabi frequency (weak enough for the perturbative formula)
        p1 = float(rng.uniform(0.6, 0.8))
        system = {"c1": math.sqrt(p1), "c2": math.sqrt(1.0 - p1),
                  "rabi_peak": 0.01 * float(rng.uniform(0.9, 1.1)),
                  "n_phases": 3 if smoke else 16}
        spec["config"] = {"scenario": "bichromatic", "seed": seed,
                          "system": system,
                          "outputs": ["population_vs_phase"]}
        if smoke:
            spec["config"]["grid"] = {"t0": 0.0, "tf": 60.0, "nt": 241}
    elif name == "gate_krotov":
        nt = 41 if smoke else GATE_NT
        coeffs = rng.uniform(-1.0, 1.0, 3) * 0.02
        t = (np.arange(nt - 1) + 0.5) * GATE_TF / (nt - 1)
        baseline = sum(c * np.sin((m + 1) * np.pi * t / GATE_TF)
                       for m, c in enumerate(coeffs))
        spec["seed_field"] = [[float(a), float(b)]
                              for a, b in zip(t, baseline)]
        optimizer = {"j_threshold": 1e-3}
        if smoke:
            optimizer.update(max_iters=2, budget=4)
        spec["config"] = {"scenario": "gate_opt", "seed": seed,
                          "grid": {"t0": 0.0, "tf": GATE_TF, "nt": nt},
                          "optimizer": optimizer,
                          "outputs": ["j_vs_iteration"]}
    elif name == "gate_grape":
        jitter = rng.uniform(-GRAPE_JITTER, GRAPE_JITTER, len(GRAPE_BASE))
        spec["grape"] = {"nt": 41 if smoke else GATE_NT,
                         "coefficients": [float(b + j) for b, j
                                          in zip(GRAPE_BASE, jitter)],
                         "max_iters": 2 if smoke else GRAPE_MAX_ITERS}
    elif name == "open_reset":
        # the default model's resonance is (omega_b - omega_s)/2 = 1.0
        amplitude = 0.9 * (1.0 + float(rng.uniform(-0.02, 0.02)))
        spec["config"] = {"scenario": "qubit_reset", "seed": seed,
                          "system": {"duration_fractions": [1.0],
                                     "nt": 21 if smoke else 301},
                          "optimizer": {"max_iters": 2 if smoke else 200,
                                        "guess_amplitude": amplitude},
                          "outputs": ["probability_vs_sweep_rate"]}
    else:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    return spec


def write_inputs(spec: dict, directory: Path):
    """Write the generated inputs as the files the program reads."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "spec.json").write_text(json.dumps(spec, indent=1) + "\n")
    if "config" in spec:
        (directory / "config.json").write_text(json.dumps(spec["config"]))
    if "seed_field" in spec:
        lines = ["time,value"] + [f"{t!r},{u!r}"
                                  for t, u in spec["seed_field"]]
        (directory / "seed_field.csv").write_text("\n".join(lines) + "\n")


def load_inputs(directory: Path) -> dict:
    return json.loads((directory / "spec.json").read_text())


def grape_problem(nt: int):
    """Two-qubit CNOT-class gate problem of the ``gate_opt`` scenario."""
    import numpy as np
    from qoctl import core
    from qoctl.dynamics import TimeGrid
    from qoctl.functionals import CostSpec, canonical_gate
    from qoctl.optimize import ControlProblem

    sx, sz, eye = core.sigma_x(), core.sigma_z(), core.identity(2)
    h = core.ControlledHamiltonian(
        core.tensor_product(sx, sx),
        [(core.tensor_product(sz, eye), 0), (core.tensor_product(eye, sz), 1)])
    return ControlProblem(h, TimeGrid(0.0, GATE_TF, nt),
                          [core.basis_ket(4, k) for k in range(4)],
                          CostSpec("gate", target=canonical_gate(np.pi / 2,
                                                                 0, 0)))


def setup(name: str, spec: dict, directory: Path):
    """What a run does before numerics: validate the config, or build the
    GRAPE workload's ``ControlProblem``."""
    if name == "gate_grape":
        grape_problem(spec["grape"]["nt"])
    else:
        from qoctl.scenarios import load_config
        load_config(directory / "config.json")


def solve(name: str, spec: dict, directory: Path, out_dir: Path):
    """The timed call: one solve, writing summary.json and the CSVs."""
    if name in SCENARIO_WORKLOADS:
        from qoctl import scenarios
        seed_field = directory / "seed_field.csv"
        scenarios.run_scenario(
            directory / "config.json", out_dir=out_dir,
            seed_field_path=seed_field if seed_field.exists() else None)
        return
    import numpy as np
    from qoctl import optimize
    from qoctl.dynamics import ControlField

    grape = spec["grape"]
    problem = grape_problem(grape["nt"])
    grid = problem.grid
    t = grid.midpoints - grid.t0
    span = grid.tf - grid.t0
    a1, a2, b1, b2 = grape["coefficients"]
    guess = [ControlField(grid, a1 * np.sin(np.pi * t / span)
                          + a2 * np.sin(2 * np.pi * t / span)),
             ControlField(grid, b1 * np.sin(np.pi * t / span)
                          + b2 * np.sin(2 * np.pi * t / span))]
    settings = optimize.KrotovSettings(max_iters=grape["max_iters"],
                                       grape_step=GRAPE_STEP,
                                       j_threshold=GRAPE_J)
    record = optimize.grape_concurrent(problem, guess, settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"converged_reason": record.converged_reason,
               "final_j": float(record.final_j),
               "iterations": len(record.iterations) - 1,
               "j_history": [float(j) for j in record.j_history]}
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    optimize.fields_to_csv(record.final_fields, out_dir / "fields.csv")


def artifacts(out_dir: Path) -> dict:
    """``file name -> bytes`` of everything a solve wrote."""
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.is_file()}


def check(name: str, files: dict, smoke: bool) -> list:
    """Problems with one solve's outputs; empty when they are correct.

    Tolerances come from the repository's tests.  Smoke runs use grids too
    coarse for them and only require a summary.
    """
    if "summary.json" not in files:
        return ["no summary.json written"]
    summary = json.loads(files["summary.json"])
    if smoke:
        return []
    problems = []
    if name == "closed_sweep":
        # criterion 12 and TestBichromaticScenario
        rel = summary["results"]["relative_error"]
        drift = summary["invariants"]["max_norm_drift"]
        if not rel <= 0.05:
            problems.append(f"visibility relative error {rel} > 0.05")
        if not drift <= 1e-9:
            problems.append(f"norm drift {drift} > 1e-9")
    elif name == "gate_krotov":
        reason = summary["results"]["converged_reason"]
        if reason != "j_threshold":
            problems.append(f"stopped by {reason!r}, not j_threshold")
        if summary["invariants"]["krotov_monotonic"] is not True:
            problems.append("Krotov cost not monotonic")
    elif name == "gate_grape":
        if not summary["final_j"] <= GRAPE_J:
            problems.append(f"final J {summary['final_j']} > {GRAPE_J}")
    elif name == "open_reset":
        if summary["invariants"]["krotov_monotonic"] is not True:
            problems.append("Krotov cost not monotonic")
        purities = summary["results"]["purities"]
        if not all(math.isfinite(p) for p in purities):
            problems.append(f"non-finite purity in {purities}")
    return problems
