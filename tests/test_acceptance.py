"""Acceptance gate: one test per shipping criterion, each printing a PASS
line and enforcing its wall-clock budget."""

import json
import math
import time
from pathlib import Path

import numpy as np

import oracles
from checkout import CROSS_SUMS, TSP, UNIT_KAKURO, UNSAT, python
from problem_gen import generate_corpus, instance_from_rows
from qsolve.circuit import Circuit, execute
from qsolve.grover_sat import (
    build_oracle,
    build_search_circuit,
    decode_bitstring,
    qubit_layout,
)
from qsolve.grover_sat import solve as grover_solve
from qsolve.qpe_tsp import (
    build_phase_unitary,
    decode_phase,
    encode_eigenstate,
    enumerate_cycles,
    phase_scale,
    tour_length,
)
from qsolve.qpe_tsp import solve as tsp_solve
from qsolve.statevector import Gate, apply_gate_in_place, init_zero
from qsolve.circuit import build_qft
from test_qpe_tsp import reference_estimate
from qsolve import cli

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def apply_gate(state, gate, controls=(), targets=()) -> np.ndarray:
    out = state.copy()
    apply_gate_in_place(out, gate, controls, targets)
    return out


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def test_criterion_1_unit_sum_kakuro_amplitudes():
    with Stopwatch() as watch:
        problem = cli.parse_problem(UNIT_KAKURO).sat
        report = grover_solve(problem)
        solutions = {tuple(sorted(a.items())) for a in report.solutions}
        assert solutions == {
            (("a", 0), ("b", 1), ("c", 1), ("d", 0)),
            (("a", 1), ("b", 0), ("c", 0), ("d", 1)),
        }

        layout = qubit_layout(problem)
        state, _ = execute(build_search_circuit(problem, layout, 2))
        per_index = (np.abs(state) ** 2).reshape(16, -1).sum(axis=1)
        theta = math.asin(math.sqrt(2 / 16))
        marked_each = math.sin(5 * theta) ** 2 / 2
        unmarked_each = (1 - math.sin(5 * theta) ** 2) / 14
        for index in range(16):
            expected = marked_each if index in (0b0110, 0b1001) else unmarked_each
            assert abs(per_index[index] - expected) < 1e-9, f"index {index:04b}"
    assert watch.elapsed < 1.0
    print(f"PASS criterion 1: unit-sum kakuro, two solutions, "
          f"two-round amplitudes match closed form ({watch.elapsed:.2f}s)")


def test_criterion_2_cross_sum_kakuro_unique_solution():
    with Stopwatch() as watch:
        problem = cli.parse_problem(CROSS_SUMS).sat
        report = grover_solve(problem)
        assert report.solutions == [{"a": 3, "b": 1, "c": 2, "d": 3}]

        specs = [
            ("sum_equals", ("a", "c"), 5),
            ("not_equal", "a", "c"),
            ("sum_equals", ("b", "d"), 4),
            ("not_equal", "b", "d"),
            ("sum_equals", ("a", "b"), 4),
            ("not_equal", "a", "b"),
            ("sum_equals", ("c", "d"), 5),
            ("not_equal", "c", "d"),
        ]
        brute = oracles.enumerate_satisfying(
            {"a": 2, "b": 2, "c": 2, "d": 2}, specs
        )
        assert brute == [{"a": 3, "b": 1, "c": 2, "d": 3}]
    assert watch.elapsed < 60.0
    print(f"PASS criterion 2: cross-sum kakuro unique solution confirmed "
          f"against the 256-assignment scan ({watch.elapsed:.2f}s)")


def test_criterion_3_iteration_count_formula():
    assert oracles.grover_iterations(4, 2) == 2
    assert oracles.grover_iterations(2, 1) == 1
    assert oracles.grover_iterations(8, 1) == 12
    print("PASS criterion 3: optimal iteration counts (4,2)->2 (2,1)->1 (8,1)->12")


def test_criterion_4_oracle_diagonal_on_generated_corpus():
    with Stopwatch() as watch:
        corpus = generate_corpus(22, seed=20260814)
        assert len(corpus) >= 20
        for problem, specs in corpus:
            layout = qubit_layout(problem)
            assert layout.search_width <= 10
            circ = Circuit(layout.num_qubits)
            for q in layout.search_qubits:
                circ.h(q)
            circ.extend(build_oracle(problem, layout))
            state, _ = execute(circ)
            n = layout.search_width
            table = state.reshape(1 << n, -1)
            if table.shape[1] > 1:
                assert float(np.max(np.abs(table[:, 1:]))) < 1e-9, "ancilla leakage"
            signs = table[:, 0] * math.sqrt(1 << n)
            for index in range(1 << n):
                assignment = decode_bitstring(format(index, f"0{n}b"), problem)
                expected = -1.0 if oracles.assignment_satisfies(assignment, specs) else 1.0
                assert abs(signs[index] - expected) < 1e-9
    assert watch.elapsed < 30.0
    print(f"PASS criterion 4: oracle diagonal matches classical truth on "
          f"{len(corpus)} generated problems, leakage < 1e-9 ({watch.elapsed:.2f}s)")


def test_criterion_5_four_city_tour():
    with Stopwatch() as watch:
        instance = cli.parse_problem(TSP).tsp
        first = tsp_solve(instance)
        second = tsp_solve(instance)
        assert oracles.canonical_tour(first.best_tour) == oracles.canonical_tour((1, 4, 2, 3))
        assert first.best_length == 7
        assert first.lengths == [11, 8, 7]
        assert first.best_tour == second.best_tour
        assert first.lengths == second.lengths
        assert [e.raw for e in first.estimates] == [e.raw for e in second.estimates]
    assert watch.elapsed < 5.0
    print(f"PASS criterion 5: four-city tour [1, 4, 2, 3] of length 7, "
          f"deterministic per-cycle readouts 11/8/7 ({watch.elapsed:.2f}s)")


def test_criterion_6_random_instances_match_brute_force():
    with Stopwatch() as watch:
        rng = np.random.default_rng(617)
        for seed in range(10):
            n = 3 + seed % 3
            weights = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    weights[i][j] = weights[j][i] = int(rng.integers(0, 10))
            instance = instance_from_rows(weights)
            scale, m = phase_scale(instance)
            unitary = build_phase_unitary(instance, scale)
            for tour in enumerate_cycles(n):
                eigenstate = encode_eigenstate(tour, n)
                estimate = reference_estimate(unitary, eigenstate, m, shots=512, seed=seed)
                assert decode_phase(estimate, scale) == tour_length(instance, tour)
            report = tsp_solve(instance, seed=seed)
            brute_best = min(length for _, length in oracles.brute_force_tours(weights))
            assert report.best_length == brute_best
    assert watch.elapsed < 60.0
    print(f"PASS criterion 6: 10 random instances, every cycle length decoded "
          f"exactly and minima match brute force ({watch.elapsed:.2f}s)")


def test_criterion_7_simulator_property_suite():
    rng = np.random.default_rng(99)
    names = ["h", "x", "z", "phase", "swap"]
    for _ in range(40):
        name = rng.choice(names)
        need = 2 if name == "swap" else 1
        n = int(rng.integers(need, 5))
        lam = float(rng.uniform(-math.pi, math.pi)) if name == "phase" else 0.0
        order = rng.permutation(n)
        targets = tuple(int(q) for q in order[:need])
        controls = tuple(int(q) for q in order[need : need + rng.integers(0, n - need + 1)])
        gate = Gate(name, lam)
        dim = 1 << n

        mat = oracles.embedded_op(n, name, lam, controls, targets)
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) < 1e-12

        built = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            amps = np.zeros(dim, dtype=complex)
            amps[col] = 1.0
            built[:, col] = apply_gate(amps, gate, controls, targets)
        assert np.max(np.abs(built - mat)) < 1e-12

        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = amps / np.linalg.norm(amps)
        once = apply_gate(state, gate, controls, targets)
        assert abs(np.linalg.norm(once) - 1.0) < 1e-9
        back = apply_gate(once, gate.inverse(), controls, targets)
        assert np.max(np.abs(back - state)) < 1e-12

    for m in range(1, 6):
        frag = build_qft(m)
        assert np.max(np.abs(oracles.circuit_matrix(frag) - oracles.dft_matrix(m))) < 1e-12

    state = init_zero(4)
    for _ in range(30):
        q = int(rng.integers(0, 4))
        state = apply_gate(state, Gate("h"), targets=(q,))
    assert abs(np.linalg.norm(state) - 1.0) < 1e-9
    print("PASS criterion 7: kernels match explicit matrices, stay unitary, "
          "invert exactly; fourier transform matches the DFT up to 5 qubits")


def test_criterion_8_cli_runs_are_reproducible():
    def run(*args):
        return python("-m", "qsolve", *args)

    for fixture in (CROSS_SUMS, TSP):
        first = run("solve", "--input", str(fixture), "--seed", "7", "--output", "json")
        second = run("solve", "--input", str(fixture), "--seed", "7", "--output", "json")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stderr == b"" and second.stderr == b""
        assert first.stdout == second.stdout  # byte-identical
        json.loads(first.stdout)  # and well-formed

    unsat = run("solve", "--input", str(UNSAT))
    assert unsat.returncode == 1
    assert unsat.stdout == b"no solution found\n"
    print("PASS criterion 8: seeded runs byte-identical with exit 0; "
          "unsatisfiable fixture exits 1")
