import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from checkout import EIGHT_CITIES, TSP
from problem_gen import instance_from_rows
from qsolve import cli
from qsolve import statevector as sv
from qsolve.qpe_tsp import (
    PhaseEstimate,
    bits_per_node,
    build_phase_unitary,
    decode_phase,
    decode_successors,
    display_tour,
    encode_eigenstate,
    enumerate_cycles,
    estimate_phases,
    inverse_qft,
    phase_scale,
    qpe_circuit,
    solve,
    tour_length,
)
from qsolve.problems import ProblemValidationError, QubitBudgetError, validate_instance
from qsolve.circuit import CircuitOp, execute
from qsolve.statevector import probabilities

FOUR_CITIES = instance_from_rows(
    [[0, 2, 1, 3], [2, 0, 2, 1], [1, 2, 0, 4], [3, 1, 4, 0]]
)


def reference_estimate(unitary, eigenstate, precision_bits, shots=4096, seed=0):
    """One eigenstate's phase estimate from its own circuit: the modal readout
    of the oracle's seeded histogram of its state (count ties broken by
    bitstring) and its exact probability."""
    state, _ = execute(qpe_circuit(unitary, eigenstate, precision_bits), shots=0)
    counts = oracles.choice_histogram(state, shots, seed)
    raw = int(min(counts, key=lambda bits: (-counts[bits], bits)), 2)
    phase = raw / (1 << precision_bits)
    return PhaseEstimate(raw, precision_bits, phase, float(probabilities(state)[raw]))


def random_instance(n, seed, max_weight=9):
    rng = np.random.default_rng(seed)
    weights = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            weights[i][j] = weights[j][i] = int(rng.integers(0, max_weight + 1))
    return instance_from_rows(weights)


# --- validation ----------------------------------------------------------------


def test_validate_accepts_well_formed_instance():
    assert validate_instance(FOUR_CITIES) == []


@pytest.mark.parametrize(
    "rows, fragment",
    [
        ([[0, 1], [1, 0]], "node count"),
        ([[0, 1, 2], [1, 0, 3], [2, 3]], "expected 3 entries"),
        ([[0, 1, 2], [1, 0, 3], [2, 3, 1]], "diagonal"),
        ([[0, 1, 2], [1, 0, -3], [2, -3, 0]], "non-negative"),
        ([[0, 1, 2], [1, 0, 3], [9, 3, 0]], "symmetric"),
    ],
)
def test_validate_reports_defects(rows, fragment):
    diags = validate_instance(instance_from_rows(rows))
    assert any(fragment in d for d in diags)


def test_validate_oversized_instance():
    rows = [[0] * 9 for _ in range(9)]
    assert any("node count" in d for d in validate_instance(instance_from_rows(rows)))


# --- cycle enumeration -----------------------------------------------------------


def test_enumerate_cycles_counts():
    assert len(enumerate_cycles(3)) == 1
    assert len(enumerate_cycles(4)) == 3
    assert len(enumerate_cycles(5)) == 12
    assert len(enumerate_cycles(6)) == 60


def test_enumerate_cycles_canonical_and_sorted():
    tours = enumerate_cycles(5)
    assert tours == sorted(tours)
    assert len(set(tours)) == len(tours)
    for tour in tours:
        assert tour[0] == 1
        assert tour[1] < tour[-1]
        assert sorted(tour) == [1, 2, 3, 4, 5]


def test_enumerate_cycles_four_nodes():
    assert enumerate_cycles(4) == [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4)]


def test_enumerate_cycles_bounds():
    with pytest.raises(ValueError):
        enumerate_cycles(2)
    with pytest.raises(ValueError):
        enumerate_cycles(9)


def test_canonical_tour_collapses_rotations_and_reversals():
    for variant in [(1, 3, 2, 4), (3, 2, 4, 1), (4, 1, 3, 2), (1, 4, 2, 3), (4, 2, 3, 1)]:
        assert oracles.canonical_tour(variant) == (1, 3, 2, 4)


def test_display_tour_reverses_direction():
    assert display_tour((1, 3, 2, 4)) == (1, 4, 2, 3)
    assert oracles.canonical_tour(display_tour((1, 3, 2, 4))) == (1, 3, 2, 4)


def test_tour_length_on_known_matrix():
    assert tour_length(FOUR_CITIES, (1, 2, 3, 4)) == 11
    assert tour_length(FOUR_CITIES, (1, 2, 4, 3)) == 8
    assert tour_length(FOUR_CITIES, (1, 3, 2, 4)) == 7


# --- scale and encoding ------------------------------------------------------------


def test_bits_per_node():
    assert bits_per_node(3) == 2
    assert bits_per_node(4) == 2
    assert bits_per_node(5) == 3
    assert bits_per_node(8) == 3


def test_phase_scale_known_values():
    # four largest edges of the known matrix sum to 4+3+2+2 = 11
    assert phase_scale(FOUR_CITIES) == (16, 4)
    # all-ones: the four largest edges sum to 4, and 4 itself is reachable,
    # so the scale must step past it to 8
    ones = instance_from_rows([[0 if i == j else 1 for j in range(4)] for i in range(4)])
    assert phase_scale(ones) == (8, 3)
    zeros = instance_from_rows([[0] * 4 for _ in range(4)])
    assert phase_scale(zeros) == (2, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.integers(0, 2**32 - 1))
def test_phase_scale_strictly_bounds_every_tour(n, seed):
    instance = random_instance(n, seed)
    scale, m = phase_scale(instance)
    assert scale == 1 << m
    longest = max(length for _, length in oracles.brute_force_tours(instance.weights))
    assert longest < scale


def test_encode_eigenstate_known_values():
    # successors of (1,2,3,4): 1->2, 2->3, 3->4, 4->1 -> blocks 01 10 11 00
    assert encode_eigenstate((1, 2, 3, 4), 4) == 0b01101100
    # successors of (1,3,2,4): 1->3, 2->4, 3->2, 4->1 -> blocks 10 11 01 00
    assert encode_eigenstate((1, 3, 2, 4), 4) == 0b10110100
    with pytest.raises(ValueError):
        encode_eigenstate((1, 2, 2, 4), 4)


def test_decode_successors_inverts_blocks():
    assert decode_successors(0b01101100, 4) == [2, 3, 4, 1]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tour_encoding_round_trip(n):
    for tour in enumerate_cycles(n):
        successors = [tour[(tour.index(node) + 1) % n] for node in range(1, n + 1)]
        assert decode_successors(encode_eigenstate(tour, n), n) == successors


# --- the diagonal operator ------------------------------------------------------------


def test_diagonal_exponents_vectorized_matches_scalar():
    scale, _ = phase_scale(FOUR_CITIES)
    diag = build_phase_unitary(FOUR_CITIES, scale)
    table = oracles.diagonal_exponents(FOUR_CITIES.weights)
    assert table.shape == (256,)
    for index in range(256):
        assert table[index] == diag.exponent(index)


@pytest.mark.parametrize("instance", [FOUR_CITIES, random_instance(5, 11)])
def test_oracle_diagonal_equals_tour_length_on_encoded_cycles(instance):
    table = oracles.diagonal_exponents(instance.weights)
    for tour in enumerate_cycles(instance.n_nodes):
        enc = encode_eigenstate(tour, instance.n_nodes)
        assert table[enc] == tour_length(instance, tour)


# --- phase estimation ------------------------------------------------------------------


def test_qpe_circuit_shape():
    scale, m = phase_scale(FOUR_CITIES)
    diag = build_phase_unitary(FOUR_CITIES, scale)
    circ = qpe_circuit(diag, encode_eigenstate((1, 3, 2, 4), 4), m)
    assert circ.num_qubits == m
    assert circ.registers[0].name == "precision"
    with pytest.raises(ValueError):
        qpe_circuit(diag, 0, 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_inverse_qft_is_the_inverse_dft(m):
    # applied gate by gate: W^dagger[j, l] = exp(-2*pi*i*j*l / 2**m) / sqrt(2**m)
    matrix = np.eye(1 << m, dtype=complex)
    for gate, controls, targets in inverse_qft(m):
        matrix = oracles.embedded_op(m, gate.name, gate.lam, controls, targets) @ matrix
    assert np.max(np.abs(matrix - oracles.dft_matrix(m).conj().T)) < 1e-12


@pytest.mark.parametrize("path", [TSP, EIGHT_CITIES], ids=lambda p: p.stem)
def test_the_dumped_tour_circuit_ends_with_the_transform_the_batch_runs(path):
    # the H layer, one kickback phase per precision qubit, then inverse_qft's triples
    instance = cli.parse_problem(path).tsp
    scale, m = phase_scale(instance)
    unitary = build_phase_unitary(instance, scale)
    eigenstate = encode_eigenstate(enumerate_cycles(instance.n_nodes)[0], instance.n_nodes)
    ops = qpe_circuit(unitary, eigenstate, m).ops
    assert [op.gate.name for op in ops[: 2 * m]] == ["h"] * m + ["phase"] * m
    assert ops[2 * m :] == tuple(CircuitOp(*op) for op in inverse_qft(m))


@pytest.mark.parametrize(
    "instance", [FOUR_CITIES, instance_from_rows([[0 if i == j else 1 for j in range(4)] for i in range(4)])]
)
def test_qpe_register_matches_textbook_joint_simulation(instance):
    """The precision-register shortcut must reproduce the readout
    distribution of full phase estimation on the joint register."""
    scale, m = phase_scale(instance)
    diag = build_phase_unitary(instance, scale)
    exponents = oracles.diagonal_exponents(instance.weights)
    for tour in enumerate_cycles(instance.n_nodes):
        enc = encode_eigenstate(tour, instance.n_nodes)
        circ = qpe_circuit(diag, enc, m)
        state, _ = execute(circ)
        reference = oracles.reference_qpe_distribution(exponents, enc, scale, m)
        assert np.max(np.abs(probabilities(state) - reference)) < 1e-9


def test_qpe_reads_exact_dyadic_phase_with_certainty():
    scale, m = phase_scale(FOUR_CITIES)
    diag = build_phase_unitary(FOUR_CITIES, scale)
    tours = enumerate_cycles(4)
    lengths = [tour_length(FOUR_CITIES, tour) for tour in tours]
    batched = estimate_phases(lengths, scale, m, 256, 0, sv)
    for tour, length, batch_estimate in zip(tours, lengths, batched):
        estimate = reference_estimate(diag, encode_eigenstate(tour, 4), m, shots=256, seed=0)
        assert batch_estimate == estimate
        assert estimate.raw == length
        assert estimate.probability > 1.0 - 1e-9
        assert estimate.phase == estimate.raw / scale


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_batch_reads_every_exponent_residue_as_its_own_circuit(m):
    """All 2**m residues in one batch; at m <= 2 a phase op fixes every qubit
    axis of a row, so it turns one amplitude per row, as in a lone state."""
    scale = 1 << m
    batched = estimate_phases(range(scale), scale, m, 64, 5, sv)
    for e, estimate in zip(range(scale), batched):
        unitary = SimpleNamespace(exponent=lambda _, e=e: e, scale=scale)
        assert estimate == reference_estimate(unitary, 0, m, shots=64, seed=5)


@pytest.mark.parametrize("shots", [1, 2, 3, 64, 4096])
@pytest.mark.parametrize("m", range(1, 10))
def test_batch_readout_is_the_oracle_mode_of_each_row(m, shots):
    """A scale that is not a power of two leaves phases between readouts, so
    each row spreads over several outcomes and small shot counts tie."""
    scale = 3 * (1 << m) // 2 + 1
    exponents = range(0, scale, max(1, scale // 9))
    seed = m * shots
    batched = estimate_phases(exponents, scale, m, shots, seed, sv)
    for e, estimate in zip(exponents, batched):
        unitary = SimpleNamespace(exponent=lambda _, e=e: e, scale=scale)
        assert estimate == reference_estimate(unitary, 0, m, shots, seed)


def test_decode_phase_rounds_scaled_phase():
    assert decode_phase(PhaseEstimate(7, 4, 7 / 16, 1.0), 16) == 7
    assert decode_phase(PhaseEstimate(5, 3, 5 / 8, 1.0), 8) == 5


# --- solve ---------------------------------------------------------------------------


def test_solve_four_cities():
    report = solve(FOUR_CITIES)
    assert report.best_tour == (1, 3, 2, 4)
    assert display_tour(report.best_tour) == (1, 4, 2, 3)
    assert report.best_length == 7
    assert report.precision_bits == 4
    assert report.scale == 16
    assert report.lengths == [11, 8, 7]
    assert report.tours == enumerate_cycles(4)


def test_solve_is_seed_independent_for_exact_phases():
    reports = [solve(FOUR_CITIES, seed=seed) for seed in (0, 1, 2)]
    for report in reports[1:]:
        assert report.best_tour == reports[0].best_tour
        assert report.lengths == reports[0].lengths


def test_solve_breaks_ties_lexicographically():
    ones = instance_from_rows([[0 if i == j else 1 for j in range(4)] for i in range(4)])
    report = solve(ones)
    assert set(report.lengths) == {4}
    assert report.best_tour == (1, 2, 3, 4)


def test_solve_rejects_invalid_instances():
    with pytest.raises(ProblemValidationError):
        solve(instance_from_rows([[0, 1, 2], [1, 0, 3], [9, 3, 0]]))


@pytest.mark.parametrize("shots", [0, -1])
def test_solve_rejects_non_positive_shots(shots):
    with pytest.raises(ValueError, match=f"^--shots must be positive, got {shots}$"):
        solve(FOUR_CITIES, shots=shots)


def test_solve_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^--seed must be non-negative, got -1$"):
        solve(FOUR_CITIES, seed=-1)


def test_solve_respects_qubit_cap():
    # 16 shots of draws fill the 128-byte budget of a 3-qubit cap
    with pytest.raises(QubitBudgetError, match="4 precision qubits requested but the cap is 3"):
        solve(FOUR_CITIES, shots=16, max_qubits=3)


@pytest.mark.parametrize("seed", range(5))
def test_solve_matches_brute_force(seed):
    """Every length matches enumeration, and the best tour is the
    lexicographically first of least length, on 3 to 5 nodes; five nodes
    with weights of 0 or 1 have 12 cycles over at most 6 lengths, so lengths
    tie."""
    instances = [random_instance(n, seed) for n in (3, 4, 5)]
    for instance in (*instances, random_instance(5, seed, max_weight=1)):
        report = solve(instance)
        brute = oracles.brute_force_tours(instance.weights)
        shortest = min(length for _, length in brute)
        assert report.tours == [tour for tour, _ in brute]
        assert report.lengths == [length for _, length in brute]
        assert report.best_length == shortest
        assert report.best_tour == min(tour for tour, length in brute if length == shortest)


ALL_ONES_5 = instance_from_rows([[0 if i == j else 1 for j in range(5)] for i in range(5)])
# one and two precision qubits: a phase op there turns one amplitude per row
ONE_BIT = instance_from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
TWO_BITS = instance_from_rows([[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 0, 1, 0]])


@pytest.mark.parametrize(
    "instance, cycles, distinct",
    [
        (ALL_ONES_5, 12, 1),
        (random_instance(6, 3, max_weight=3), 60, 8),
        (FOUR_CITIES, 3, 3),
        (ONE_BIT, 3, 2),
        (TWO_BITS, 3, 3),
    ],
    ids=["all_ones_5", "ties_6", "four_cities", "one_bit", "two_bits"],
)
def test_solve_runs_one_estimate_per_distinct_exponent(
    monkeypatch, kernels, instance, cycles, distinct
):
    """All distinct exponents share one pass of the ops, and every cycle's
    result equals the reference of its own circuit exactly, whichever
    kernels run the batch."""
    n = instance.n_nodes
    scale, m = phase_scale(instance)
    unitary = build_phase_unitary(instance, scale)
    tours = enumerate_cycles(n)

    expected = [
        reference_estimate(unitary, encode_eigenstate(t, n), m, shots=512, seed=3)
        for t in tours
    ]
    assert len(tours) == cycles
    assert len({unitary.exponent(encode_eigenstate(t, n)) for t in tours}) == distinct

    calls = [0]
    real_apply = sv.apply_unchecked

    def counting_apply(*args):
        calls[0] += 1
        return real_apply(*args)

    monkeypatch.setattr(sv, "apply_unchecked", counting_apply)
    report = solve(instance, shots=512, seed=3)
    # the inverse Fourier transform, once, however many rows; the uniform
    # start is built by value and the kickback runs on views; the
    # pure-Python rows run no numpy kernel
    assert calls[0] == (len(inverse_qft(m)) if kernels is sv else 0)
    assert report.tours == tours
    assert report.estimates == expected
    assert report.lengths == [decode_phase(estimate, scale) for estimate in expected]
    # cycles of one exponent share its estimate
    assert len({id(estimate) for estimate in report.estimates}) == distinct


def test_solve_in_chunks_matches_one_batch_and_holds_one_state_at_the_cap(monkeypatch):
    """A qubit cap one above the precision register allows two rows per pass:
    the readouts must not change, and the batch must never hold more than the
    16 * 2**max_qubits bytes of one state at the cap."""
    instance = random_instance(6, 1, max_weight=300)
    _, m = phase_scale(instance)
    cap = m + 1
    whole = solve(instance, shots=256)
    assert len(set(whole.lengths)) > 2

    held = []
    real_apply = sv.apply_unchecked

    def measuring_apply(state, gate, controls, targets):
        if gate.name == "h" and targets == (0,):
            # the last op of a pass: numpy array data of at least one row
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
            held.append(sum(t.size for t in snapshot.traces if t.size >= 16 << m))
        return real_apply(state, gate, controls, targets)

    monkeypatch.setattr(sv, "apply_unchecked", measuring_apply)
    tracemalloc.start()
    try:
        chunked = solve(instance, shots=256, max_qubits=cap)
    finally:
        tracemalloc.stop()
    assert chunked.tours == whole.tours
    assert chunked.lengths == whole.lengths
    assert chunked.estimates == whole.estimates
    assert max(held) == 16 << cap

