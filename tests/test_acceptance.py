"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
from scipy.optimize import minimize

from qoctl import core, shapes
from qoctl.adiabatic import counterdiabatic_tls, landau_zener
from qoctl.controllability import (build_graph, graph_controllability,
                                   lie_rank)
from qoctl.core import (ControlledHamiltonian, Liouvillian, Operator,
                        QuantumState, hilbert_schmidt_distance,
                        hilbert_schmidt_overlap, tensor_product)
from qoctl.dynamics import (ControlField, TimeGrid, propagate_density,
                            propagate_ket)
from qoctl.frames import (ThreeLevelDriveSpec, TwoLevelDriveSpec,
                          rwa_three_level, rwa_two_level)
from qoctl.functionals import (CostSpec, bichromatic_visibility,
                               bloch_match_cost, canonical_gate,
                               local_invariants, pe_distance,
                               three_state_gate_fidelity,
                               verification_states, weyl_coordinates)
from qoctl.optimize import (ControlProblem, KrotovSettings, grape_gradient,
                            evaluate_cost, krotov_ensemble)
from qoctl.scenarios import qubit_reset_purity, reset_model

from conftest import random_unitary

CNOT = Operator([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
CPHASE_PI = Operator(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))
YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
              dtype=complex)


def report(number: int, description: str, passed: bool, detail: str = ""):
    line = f"{'PASS' if passed else 'FAIL'}: criterion {number} - " \
           f"{description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_rabi_oracle():
    rabi0 = 2 * np.pi
    grid = TimeGrid(0.0, 10.0, 4001)  # 10 Rabi periods
    spec = TwoLevelDriveSpec(omega0=200 * np.pi, omegaL=200 * np.pi,
                             rabi0=rabi0, shape=shapes.flat(grid, 1.0))
    start = time.perf_counter()
    res = rwa_two_level(spec, frame="carrier")
    traj = propagate_ket(res.hamiltonian, res.fields, grid,
                         core.basis_ket(2, 0))
    elapsed = time.perf_counter() - start
    oracle = np.sin(0.5 * rabi0 * grid.times) ** 2
    dev = float(np.max(np.abs(traj.populations()[:, 1] - oracle)))
    report(1, "resonant Rabi propagation matches sin^2(O0 t/2) to 1e-6 "
              "in under 1 s", dev <= 1e-6 and elapsed < 1.0,
           f"max dev {dev:.2e}, {elapsed:.2f} s")


def test_criterion_02_gkls_conservation():
    worst_trace, worst_eig = 0.0, 0.0

    def track(traj):
        nonlocal worst_trace, worst_eig
        worst_trace = max(worst_trace, traj.max_norm_drift())
        worst_eig = min(worst_eig, traj.min_eigenvalue())

    # decay
    grid = TimeGrid(0.0, 10.0, 2001)
    h = ControlledHamiltonian(core.sigma_z(), [])
    track(propagate_density(Liouvillian(h, [np.sqrt(0.4)
                                            * core.sigma_minus()]),
                            [], grid, core.basis_ket(2, 1).to_density()))
    # dephasing
    rho0 = QuantumState.from_density([[0.6, 0.2], [0.2, 0.4]])
    track(propagate_density(Liouvillian(h, [np.sqrt(0.3)
                                            * core.sigma_z()]),
                            [], grid, rho0))
    # qubit reset (resonant swap protocol)
    h_r, jumps, rho0_r, _, resonance = reset_model(0.15)
    grid_r = TimeGrid(0.0, np.pi / 0.3, 1001)
    track(propagate_density(Liouvillian(h_r, jumps),
                            [ControlField.constant(grid_r, resonance)],
                            grid_r, rho0_r))
    report(2, "GKLS trace within 1e-10 and positivity above -1e-9 on "
              "decay, dephasing and reset scenarios",
           worst_trace <= 1e-10 and worst_eig >= -1e-9,
           f"trace drift {worst_trace:.1e}, min eig {worst_eig:.1e}")


def _tls_problem(nt=501, tf=3 * np.pi):
    grid = TimeGrid(0.0, tf, nt)
    h = ControlledHamiltonian(Operator(np.zeros((2, 2))),
                              [(core.sigma_x(), 0)])
    return ControlProblem(h, grid, [core.basis_ket(2, 0)],
                          CostSpec("state_to_state",
                                   target=core.basis_ket(2, 1)))


def _three_level_problem():
    grid = TimeGrid(0.0, 20.0, 401)
    zero = ControlField.constant(grid, 0.0)
    spec = ThreeLevelDriveSpec(energies=(0.0, 30.0, 60.0),
                               rabi=(zero, zero), carriers=(30.0, 30.0))
    h, _ = rwa_three_level(spec)
    return ControlProblem(h, grid, [core.basis_ket(3, 0)],
                          CostSpec("state_to_state",
                                   target=core.basis_ket(3, 2)))


def _two_qubit_problem():
    drift = tensor_product(core.sigma_x(), core.sigma_x())
    h = ControlledHamiltonian(
        drift, [(tensor_product(core.sigma_z(), core.identity(2)), 0),
                (tensor_product(core.identity(2), core.sigma_z()), 1)])
    grid = TimeGrid(0.0, 2.0, 401)
    return ControlProblem(h, grid, [core.basis_ket(4, k) for k in range(4)],
                          CostSpec("gate",
                                   target=canonical_gate(np.pi / 2, 0, 0)))


def _reset_problem(duration, nt=251):
    h, jumps, rho0, target, _ = reset_model(0.15)
    grid = TimeGrid(0.0, duration, nt)
    return ControlProblem(h, grid, [rho0],
                          CostSpec("state_to_state", target=target),
                          jump_operators=jumps)


def _dephasing_gate_problem():
    from scipy.linalg import expm
    gate = Operator(expm(-1j * np.pi / 4 * core.sigma_y().matrix))
    vset = verification_states(2)
    h = ControlledHamiltonian(Operator(np.zeros((2, 2))),
                              [(core.sigma_x(), 0), (core.sigma_y(), 1)])
    grid = TimeGrid(0.0, 4.0, 201)
    return ControlProblem(h, grid, [vset.rho_b, vset.rho_p, vset.rho_id],
                          CostSpec("gate", target=gate),
                          jump_operators=(np.sqrt(0.01) * core.sigma_z(),))


def test_criterion_03_krotov_monotonic_convergence():
    runs = []
    # 1) TLS state transfer: fidelity >= 0.999 within 50 iterations, < 5 s
    problem = _tls_problem()
    start = time.perf_counter()
    rec = krotov_ensemble(problem,
                          [ControlField.constant(problem.grid, 0.1)],
                          KrotovSettings(lambda_=1.0, max_iters=50,
                                         j_threshold=1e-3))
    tls_elapsed = time.perf_counter() - start
    tls_ok = rec.final_j <= 1e-3 and len(rec.iterations) - 1 <= 50 \
        and tls_elapsed < 5.0
    runs.append(("tls_transfer", rec))
    # 2) three-level transfer (closed)
    p3 = _three_level_problem()
    runs.append(("three_level_transfer", krotov_ensemble(
        p3, [shapes.sin2_ramp(p3.grid, 2.0, 0.1),
             shapes.sin2_ramp(p3.grid, 2.0, 0.1)],
        KrotovSettings(lambda_=1.0, max_iters=60))))
    # 3) two-qubit gate (closed)
    p4 = _two_qubit_problem()
    runs.append(("two_qubit_gate", krotov_ensemble(
        p4, [shapes.sin2_ramp(p4.grid, 0.5, 0.1),
             shapes.sin2_ramp(p4.grid, -0.3, 0.1)],
        KrotovSettings(lambda_=2.0, max_iters=200, j_threshold=1e-5))))
    # 4) qubit reset (open)
    p5 = _reset_problem(0.9 * np.pi / 0.3)
    runs.append(("qubit_reset", krotov_ensemble(
        p5, [ControlField.constant(p5.grid, 0.9)],
        KrotovSettings(lambda_=0.2, max_iters=80, dj_threshold=1e-9,
                       stall_shrink=0.7))))
    # 5) gate under dephasing (open)
    p6 = _dephasing_gate_problem()
    runs.append(("dephasing_gate", krotov_ensemble(
        p6, [shapes.sin2_ramp(p6.grid, 0.05, 0.1),
             shapes.sin2_ramp(p6.grid, 0.0, 0.1)],
        KrotovSettings(lambda_=0.5, max_iters=60))))
    non_monotone = [name for name, r in runs if not r.monotonic()]
    report(3, "Krotov J non-increasing (1e-12) on five scenarios; TLS "
              "transfer hits 0.999 within 50 iterations in under 5 s",
           not non_monotone and tls_ok,
           f"TLS J {rec.final_j:.1e} in {len(rec.iterations) - 1} iters, "
           f"{tls_elapsed:.2f} s; non-monotone: {non_monotone or 'none'}")


def test_criterion_04_gradient_check(rng):
    def worst_fd_error(problem, fields, n_probe=20, eps=1e-6):
        grad = grape_gradient(problem, fields)
        amps = np.stack([f.samples for f in fields], axis=1)
        worst = 0.0
        for _ in range(n_probe):
            k = rng.integers(0, amps.shape[0])
            j = rng.integers(0, amps.shape[1])
            up, dn = amps.copy(), amps.copy()
            up[k, j] += eps
            dn[k, j] -= eps
            cols = range(amps.shape[1])
            fd = (evaluate_cost(problem, [ControlField(problem.grid,
                                                       up[:, c])
                                          for c in cols])
                  - evaluate_cost(problem, [ControlField(problem.grid,
                                                         dn[:, c])
                                            for c in cols])) / (2 * eps)
            worst = max(worst, abs(grad[k, j] - fd) / max(abs(fd), 1e-10))
        return worst

    grid = TimeGrid(0.0, 4.0, 101)
    h = ControlledHamiltonian(0.5 * core.sigma_z(),
                              [(core.sigma_x(), 0), (core.sigma_y(), 1)])
    fields = [ControlField(grid, 0.3 * np.sin(grid.midpoints)),
              ControlField(grid, 0.2 * np.cos(2 * grid.midpoints))]
    closed = ControlProblem(h, grid, [core.basis_ket(2, 0)],
                            CostSpec("state_to_state",
                                     target=core.basis_ket(2, 1)))
    open_p = ControlProblem(h, grid, [core.basis_ket(2, 0).to_density()],
                            CostSpec("state_to_state",
                                     target=core.basis_ket(2, 1)
                                     .to_density()),
                            jump_operators=(np.sqrt(0.15)
                                            * core.sigma_minus(),))
    err_c = worst_fd_error(closed, fields)
    err_o = worst_fd_error(open_p, fields)
    report(4, "GRAPE gradient matches central finite differences to 1e-5 "
              "at 20 random midpoints, closed and open",
           err_c <= 1e-5 and err_o <= 1e-5,
           f"closed {err_c:.1e}, open {err_o:.1e}")


def test_criterion_05_landau_zener():
    worst_rel = 0.0
    for adiab in (0.1, 0.5, 1.0, 2.0, 3.0):
        oracle = np.exp(-np.pi * adiab / 2)
        rate, span, nt = 1.0, 60.0, 40001
        gap = np.sqrt(adiab * rate)
        grid = TimeGrid(-span, span, nt)
        h, fields = landau_zener(grid, gap, rate)
        th0 = np.arctan2(gap, rate * grid.t0)
        thf = np.arctan2(gap, rate * grid.tf)
        lower0 = np.array([-np.sin(th0 / 2), np.cos(th0 / 2)],
                          dtype=complex)
        upperf = np.array([np.cos(thf / 2), np.sin(thf / 2)],
                          dtype=complex)
        traj = propagate_ket(h, fields, grid,
                             QuantumState.from_ket(lower0))
        sim = abs(np.vdot(upperf, traj.array[-1])) ** 2
        worst_rel = max(worst_rel, abs(sim - oracle) / oracle)
    worst_cd = 0.0
    for rate in (0.5, 5.0, 50.0):
        gap, span, nt = 1.0, 20.0, 4001
        grid = TimeGrid(-span / rate, span / rate, nt)
        ucd = counterdiabatic_tls(
            ControlField.constant(grid, gap),
            ControlField(grid, rate * grid.midpoints),
            rabi_dot=np.zeros(nt - 1), detuning_dot=np.full(nt - 1, rate))
        h = ControlledHamiltonian(
            Operator(np.zeros((2, 2))),
            [(core.sigma_z(), 0), (core.sigma_x(), 1),
             (core.sigma_y(), 2)])
        fields = [ControlField(grid, 0.5 * rate * grid.midpoints),
                  ControlField.constant(grid, 0.5 * gap), ucd]
        theta = np.arctan2(gap, rate * grid.times)
        upper = np.stack([np.cos(theta / 2), np.sin(theta / 2)], axis=1)
        traj = propagate_ket(h, fields, grid,
                             QuantumState.from_ket(upper[0]
                                                   .astype(complex)))
        overlap = np.einsum("ki,ki->k", upper.astype(complex).conj(),
                            traj.array)
        worst_cd = max(worst_cd, float(np.max(1 - np.abs(overlap) ** 2)))
    report(5, "Landau-Zener probabilities within 2% of the exponential "
              "formula; counterdiabatic drive keeps eigenstate infidelity "
              "below 1e-6",
           worst_rel <= 0.02 and worst_cd < 1e-6,
           f"worst rel {worst_rel:.3f}, worst CD infidelity {worst_cd:.1e}")


def test_criterion_06_stirap_ordering():
    def final_p3(ordering):
        grid = TimeGrid(0.0, 20.0, 2001)
        tc, delay, tau, rabi0 = 10.0, 3.0, 2.5, 12.0
        sign = 1.0 if ordering == "counterintuitive" else -1.0
        t = grid.midpoints
        pump = rabi0 * np.exp(-0.5 * ((t - (tc + sign * delay / 2))
                                      / tau) ** 2)
        stokes = rabi0 * np.exp(-0.5 * ((t - (tc - sign * delay / 2))
                                        / tau) ** 2)
        spec = ThreeLevelDriveSpec(energies=(0.0, 30.0, 60.0),
                                   rabi=(ControlField(grid, pump),
                                         ControlField(grid, stokes)),
                                   carriers=(30.0, 30.0))
        h, fields = rwa_three_level(spec)
        jump = np.zeros((3, 3), dtype=complex)
        jump[0, 1] = 1.0
        traj = propagate_density(Liouvillian(h, [Operator(jump)]), fields,
                                 grid, core.basis_ket(3, 0).to_density())
        return float(traj.populations()[-1, 2])

    p_ci = final_p3("counterintuitive")
    p_iu = final_p3("intuitive")
    report(6, "STIRAP with decay: Stokes-before-pump reaches P3 >= 0.99, "
              "pump-before-Stokes stays below 0.5",
           p_ci >= 0.99 and p_iu < 0.5,
           f"counterintuitive {p_ci:.4f}, intuitive {p_iu:.4f}")


def _product_state(x):
    a = np.array([np.cos(x[0]), np.exp(1j * x[1]) * np.sin(x[0])])
    b = np.array([np.cos(x[2]), np.exp(1j * x[3]) * np.sin(x[2])])
    return np.outer(a, b).ravel()  # bit-identical to np.kron(a, b), cheaper


def _max_output_concurrence(u, rng, n_starts=3, presample=300):
    def neg_c(x):
        psi = u @ _product_state(x)
        return -abs(psi @ (YY @ psi))

    xs = rng.uniform(0, 2 * np.pi, size=(presample, 4))
    vals = np.array([neg_c(x) for x in xs])
    order = np.argsort(vals)
    best = -vals[order[0]]
    for idx in order[:n_starts]:
        res = minimize(neg_c, xs[idx], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14,
                                "maxiter": 4000})
        best = max(best, -res.fun)
    return best


def test_criterion_07_local_equivalence(rng):
    inv_ok = np.max(np.abs(local_invariants(CNOT)
                           - local_invariants(CPHASE_PI))) <= 1e-10
    w_id = weyl_coordinates(core.identity(4)).as_array()
    w_cnot = weyl_coordinates(CNOT).as_array()
    points_ok = np.allclose(w_id, [0, 0, 0], atol=1e-10) and \
        np.allclose(w_cnot, [np.pi / 2, 0, 0], atol=1e-10)
    # PE membership vs the concurrence sweep oracle on 200 sampled gates.
    # Gates within 0.03 pi of the polyhedron boundary are resampled: right
    # on the boundary the binary membership and the 1e-6 concurrence
    # threshold are both ill-conditioned, so the comparison is only
    # meaningful at a finite margin.
    checked = 0
    disagreements = 0
    while checked < 200:
        u = random_unitary(rng, 4)
        w = weyl_coordinates(Operator(u))
        d = pe_distance(w)
        p = w.as_array() / np.pi
        depth = min(p[0] + p[1] - 0.5, 0.5 - (p[0] - p[1]),
                    0.5 - (p[1] + p[2]))
        if (0 < d < 0.03 * np.pi) or (d == 0 and depth < 0.03):
            continue
        c = _max_output_concurrence(u, rng)
        if (d == 0.0) != (c >= 1 - 1e-6):
            disagreements += 1
        checked += 1
    report(7, "CNOT and CPHASE(pi) share invariants; identity at O, CNOT "
              "at L; PE membership agrees with the concurrence oracle on "
              "200 gates",
           inv_ok and points_ok and disagreements == 0,
           f"disagreements {disagreements}/200")


def test_criterion_08_three_state_verification(rng):
    vset = verification_states(4)
    gate = Operator(random_unitary(rng, 4))

    def conjugation(u):
        def channel(state):
            return QuantumState._wrap("density",
                                      u @ state.rho @ u.conj().T)
        return channel

    def process_fidelity(u):
        basis = [np.eye(4, dtype=complex) / 2.0]
        basis.extend(core.gellmann_basis(4))
        acc = 0.0
        for b in basis:
            target = gate.matrix @ b @ gate.matrix.conj().T
            acc += np.trace(target.conj().T @ (u @ b @ u.conj().T)).real
        return acc / 16.0

    unitaries = [random_unitary(rng, 4) for _ in range(99)]
    unitaries.append(gate.matrix)  # exercise the fidelity-one branch
    f3 = np.array([three_state_gate_fidelity(conjugation(u), gate, vset)
                   for u in unitaries])
    fp = np.array([process_fidelity(u) for u in unitaries])
    max_gap = float(np.max(np.abs(f3 - fp)))
    iff_ok = all((abs(a - 1.0) <= 1e-10) == (abs(b - 1.0) <= 1e-10)
                 for a, b in zip(f3, fp))
    rankings_ok = np.array_equal(np.argsort(f3), np.argsort(fp))
    report(8, "three-state fidelity equals 1 iff full-basis process "
              "fidelity does, rankings agree within 1e-8 on 100 channels",
           iff_ok and (max_gap <= 1e-8) and rankings_ok,
           f"max |F3 - Fpro| {max_gap:.1e}")


def test_criterion_09_mixed_target_ordering():
    def along_z(length):
        rho = 0.5 * (np.eye(2) + length * core.sigma_z().matrix)
        return QuantumState.from_density(rho)

    target = along_z(0.4)
    rho1 = along_z(0.6)     # closer
    rho2 = along_z(0.95)    # over-pure
    overlap_prefers_overpure = hilbert_schmidt_overlap(rho2, target) \
        > hilbert_schmidt_overlap(rho1, target)
    cost_prefers_closer = bloch_match_cost(rho1, target) \
        < bloch_match_cost(rho2, target)
    distance_prefers_closer = hilbert_schmidt_distance(rho1, target) \
        < hilbert_schmidt_distance(rho2, target)
    report(9, "mixed-target pathology: HS overlap rewards the over-pure "
              "state; matching cost and HS distance prefer the closer one",
           overlap_prefers_overpure and cost_prefers_closer
           and distance_prefers_closer)


def test_criterion_10_qubit_reset_speed_limit():
    details = []
    ok = True
    for coupling in (0.15, 0.30):
        t_min = np.pi / (2 * coupling)
        fractions = np.arange(0.7, 1.25, 0.1)
        purities = []
        for frac in fractions:
            problem = _reset_problem_for(coupling, frac * t_min)
            guess = [ControlField.constant(problem.grid, 0.9)]
            rec = krotov_ensemble(problem, guess, KrotovSettings(
                lambda_=0.2, max_iters=150, dj_threshold=1e-9,
                stall_shrink=0.7))
            traj = propagate_density(problem.liouvillian(),
                                     rec.final_fields, problem.grid,
                                     problem.initial_states[0])
            purities.append(qubit_reset_purity(traj.array[-1]))
        purities = np.array(purities)
        plateau = purities[-1]
        knee = fractions[int(np.argmax(purities >= plateau - 0.002))]
        ok = ok and abs(knee - 1.0) <= 0.1 + 1e-9
        details.append(f"J={coupling}: knee at {knee:.2f} T_min")
    report(10, "optimized reset purity knees at pi/(2J) within one grid "
               "step for J and 2J", ok, "; ".join(details))


def _reset_problem_for(coupling, duration, nt=251):
    h, jumps, rho0, target, _ = reset_model(coupling)
    grid = TimeGrid(0.0, duration, nt)
    return ControlProblem(h, grid, [rho0],
                          CostSpec("state_to_state", target=target),
                          jump_operators=jumps)


def test_criterion_11_controllability():
    pauli_pair = ControlledHamiltonian(core.sigma_z(),
                                       [(core.sigma_x(), 0)])
    lie_ok = lie_rank(pauli_pair).full_rank \
        and lie_rank(pauli_pair).dimension_found == 3

    sz, sx, eye = core.sigma_z(), core.sigma_x(), core.identity(2)
    identical = ControlledHamiltonian(
        0.5 * (tensor_product(sz, eye) + tensor_product(eye, sz))
        + 0.2 * tensor_product(sx, sx), [(tensor_product(sx, eye), 0)])
    zz = ControlledHamiltonian(
        0.5 * tensor_product(sz, eye) + 0.85 * tensor_product(eye, sz)
        + 0.2 * tensor_product(sz, sz), [(tensor_product(sx, eye), 0)])
    fig_ok = not graph_controllability(build_graph(identical)).controllable \
        and not graph_controllability(build_graph(zz)).controllable

    implication_ok = True
    fixtures = [pauli_pair, identical, zz]
    for n in (2, 3, 4, 5, 6):
        energies = np.array([k + 0.055 * k * (k - 1) for k in range(n)])
        coupling = np.zeros((n, n), dtype=complex)
        for k in range(n - 1):
            coupling[k, k + 1] = coupling[k + 1, k] = 1.0
        fixtures.append(ControlledHamiltonian(
            Operator(np.diag(energies).astype(complex)),
            [(Operator(coupling), 0)]))
    for h in fixtures:
        if graph_controllability(build_graph(h)).controllable:
            implication_ok = implication_ok and lie_rank(h).full_rank
    report(11, "lie_rank finds su(2); both caption example systems are "
               "not controllable by the graph test; graph-positive "
               "implies Lie-full on N<=6 fixtures",
           lie_ok and fig_ok and implication_ok)


def test_criterion_12_bichromatic_interference():
    splitting, omega_f, rabi_peak = 1.0, 40.0, 0.01
    c1, c2 = np.sqrt(0.7), np.sqrt(0.3)
    grid = TimeGrid(0.0, 60.0, 24001)
    psi0 = QuantumState.from_ket(np.array([c1, c2, 0.0], dtype=complex))
    drift = Operator(np.diag([0.0, splitting, omega_f]).astype(complex))
    c1f = Operator([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    c2f = Operator([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    h = ControlledHamiltonian(drift, [(c1f, 0), (c2f, 1)])
    envelope = np.sin(np.pi * grid.midpoints / 60.0) ** 2
    omega1, omega2 = omega_f, omega_f - splitting
    phases = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    pf = []
    for phi in phases:
        drive = rabi_peak * envelope * (np.cos(omega1 * grid.midpoints)
                                        + np.cos(omega2 * grid.midpoints
                                                 + phi))
        fields = [ControlField(grid, drive), ControlField(grid, drive)]
        pf.append(propagate_ket(h, fields, grid, psi0)
                  .populations()[-1, 2])
    pf = np.array(pf)
    design = np.stack([np.ones_like(phases), np.cos(phases),
                       np.sin(phases)], axis=1)
    a0, ac, a_s = np.linalg.lstsq(design, pf, rcond=None)[0]
    vis_sim = float(np.hypot(ac, a_s) / a0)
    vis_form = bichromatic_visibility(1.0, 1.0, c1, c2)
    rel = abs(vis_sim - vis_form) / vis_form
    report(12, "weak-field three-level propagation reproduces the "
               "perturbative phase dependence within 5% visibility",
           rel <= 0.05, f"sim {vis_sim:.4f} vs formula {vis_form:.4f}, "
           f"rel {rel:.4f}")


def test_criterion_13_frame_rwa_consistency():
    def final_error(ratio, periods=2.0):
        rabi0 = 1.0
        omega0 = ratio * rabi0
        tf = periods * 2 * np.pi / rabi0
        nt = int(160 * omega0 * tf / (2 * np.pi)) + 1
        grid = TimeGrid(0.0, tf, nt)
        spec = TwoLevelDriveSpec(omega0=omega0, omegaL=omega0, rabi0=rabi0,
                                 shape=shapes.flat(grid, 1.0))
        lab_h, lab_fields = spec.lab_hamiltonian()
        lab = propagate_ket(lab_h, lab_fields, grid, core.basis_ket(2, 0))
        res = rwa_two_level(spec, frame="carrier")
        rwa = propagate_ket(res.hamiltonian, res.fields, grid,
                            core.basis_ket(2, 0))
        return float(np.max(np.abs(lab.populations()[-1]
                                   - rwa.populations()[-1])))

    errors = [final_error(r) for r in (10.0, 30.0, 100.0)]
    ok = errors[2] <= 1e-3 and errors[0] > errors[1] > errors[2]
    report(13, "lab vs RWA populations agree within 1e-3 at ratio 100 and "
               "the error decreases across ratios 10/30/100", ok,
           "errors " + ", ".join(f"{e:.2e}" for e in errors))
