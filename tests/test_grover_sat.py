import itertools
import math
import tracemalloc
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from checkout import traced_peak
from problem_gen import generate_corpus
import qsolve.circuit as qc
from qsolve import cli, grover_sat
from qsolve import statevector as sv
from qsolve.circuit import Circuit, execute
from qsolve.grover_sat import (
    build_diffuser,
    build_oracle,
    build_search_circuit,
    classical_check,
    decode_bitstring,
    encode_assignment,
    iteration_schedule,
    qubit_layout,
    schedule_states,
    solve,
    synth_not_equal,
    synth_sum_equals,
)
from qsolve.problems import (
    EqualConst,
    NotEqual,
    ProblemValidationError,
    QubitBudgetError,
    SatProblem,
    SumEquals,
    VarDecl,
    validate_problem,
)

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"

UNIT_KAKURO = SatProblem(
    tuple(VarDecl(name, 1) for name in "abcd"),
    (NotEqual("a", "b"), NotEqual("b", "d"), NotEqual("c", "d")),
)

CROSS_SUM_KAKURO = SatProblem(
    tuple(VarDecl(name, 2) for name in "abcd"),
    (
        SumEquals(("a", "c"), 5),
        NotEqual("a", "c"),
        SumEquals(("b", "d"), 4),
        NotEqual("b", "d"),
        SumEquals(("a", "b"), 4),
        NotEqual("a", "b"),
        SumEquals(("c", "d"), 5),
        NotEqual("c", "d"),
    ),
)


# --- validation -------------------------------------------------------------------


def test_validate_accepts_well_formed_problems():
    assert validate_problem(UNIT_KAKURO) == []
    assert validate_problem(CROSS_SUM_KAKURO) == []


@pytest.mark.parametrize(
    "problem, fragment",
    [
        pytest.param(SatProblem((), (EqualConst("a", 0),)), "no variables", id="no_variables"),
        pytest.param(SatProblem((VarDecl("a", 1),), ()), "no constraints", id="no_constraints"),
        pytest.param(
            SatProblem((VarDecl("a", 1), VarDecl("a", 2)), (EqualConst("a", 0),)),
            "duplicate variable",
            id="duplicate_name",
        ),
        pytest.param(
            SatProblem((VarDecl("a", 0),), (EqualConst("a", 0),)),
            "width",
            id="zero_width",
        ),
        pytest.param(
            SatProblem((VarDecl("2x", 1),), (EqualConst("2x", 0),)),
            "identifier",
            id="name_not_an_identifier",
        ),
        pytest.param(
            SatProblem((VarDecl("a", 1),), (NotEqual("a", "z"),)),
            "undeclared",
            id="undeclared_variable",
        ),
        pytest.param(
            SatProblem((VarDecl("a", 1), VarDecl("b", 2)), (NotEqual("a", "b"),)),
            "equal widths",
            id="unequal_widths",
        ),
        pytest.param(
            SatProblem((VarDecl("a", 2),), (EqualConst("a", 4),)),
            "outside the range",
            id="value_above_the_range",
        ),
        pytest.param(
            SatProblem((VarDecl("a", 2),), (EqualConst("a", -1),)),
            "outside the range",
            id="value_below_the_range",
        ),
        pytest.param(
            SatProblem((VarDecl("a", 2),), (SumEquals(("a", "a"), 7),)),
            "achievable sum",
            id="sum_above_the_range",
        ),
        pytest.param(
            SatProblem((VarDecl("a", 2),), (SumEquals((), 0),)),
            "at least one",
            id="sum_of_no_variables",
        ),
    ],
)
def test_validate_reports_defects(problem, fragment):
    diags = validate_problem(problem)
    assert diags
    assert any(fragment in d for d in diags)


@pytest.mark.parametrize("widths", [(1,), (2,), (1, 1), (1, 3), (3, 2, 2)])
def test_range_diagnostics_follow_the_integer_bounds(widths):
    decls = tuple(VarDecl(f"v{i}", w) for i, w in enumerate(widths))
    top = sum((1 << w) - 1 for w in widths)
    for value in range(-2, top + 3):
        constraints = (SumEquals(tuple(d.name for d in decls), value), EqualConst("v0", value))
        expected = []
        if not 0 <= value <= top:
            expected.append(
                f"constraints[0]: value {value} outside the achievable sum range (0..{top})"
            )
        if not 0 <= value < 1 << widths[0]:
            expected.append(
                f"constraints[1]: value {value} outside the range of 'v0' "
                f"(0..{(1 << widths[0]) - 1})"
            )
        assert validate_problem(SatProblem(decls, constraints)) == expected


def test_validate_indexes_offending_constraint():
    problem = SatProblem(
        (VarDecl("a", 1),), (EqualConst("a", 0), NotEqual("a", "zz"))
    )
    assert any(d.startswith("constraints[1]") for d in validate_problem(problem))


def test_classical_check():
    problem = SatProblem(
        (VarDecl("a", 2), VarDecl("b", 2)),
        (NotEqual("a", "b"), SumEquals(("a", "b"), 4), EqualConst("a", 3)),
    )
    assert classical_check({"a": 3, "b": 1}, problem)
    assert not classical_check({"a": 2, "b": 2}, problem)  # a == b
    assert not classical_check({"a": 3, "b": 2}, problem)  # sum != 4
    assert not classical_check({"a": 1, "b": 3}, problem)  # a != 3


# --- layout -----------------------------------------------------------------------


def test_layout_places_vars_flags_then_scratch():
    layout = qubit_layout(CROSS_SUM_KAKURO)
    assert [(r.name, r.offset, r.width) for r in layout.registers] == [
        ("a", 0, 2), ("b", 2, 2), ("c", 4, 2), ("d", 6, 2), ("flags", 8, 8), ("scratch", 16, 3)
    ]
    assert layout.search_width == 8
    assert layout.flag_qubits == tuple(range(8, 16))
    # widest sum is 2-bit + 2-bit with top value 6, needing 3 scratch bits
    assert layout.scratch_width == 3
    assert layout.num_qubits == 19


def test_layout_without_sums_has_no_scratch():
    layout = qubit_layout(UNIT_KAKURO)
    assert layout.scratch_width == 0
    assert layout.num_qubits == 7


def test_layout_enforces_qubit_budget():
    # the cap counts the 8-qubit search register, not the 19-qubit layout
    assert qubit_layout(CROSS_SUM_KAKURO, max_qubits=8).num_qubits == 19
    with pytest.raises(
        QubitBudgetError, match="^the search register alone needs 8 qubits but the cap is 7$"
    ):
        qubit_layout(CROSS_SUM_KAKURO, max_qubits=7)


def test_layout_rejects_invalid_problem():
    with pytest.raises(ProblemValidationError):
        qubit_layout(SatProblem((VarDecl("a", 1),), ()))


# --- constraint fragments -----------------------------------------------------------


def _run_on_basis(layout, fragment, values: dict) -> int:
    """Apply a fragment to a computational basis input; the output must be a
    single basis state, whose index is returned."""
    circ = Circuit(layout.num_qubits)
    for name, value in values.items():
        qubits = tuple(layout.var_qubits(name))
        width = len(qubits)
        for i, q in enumerate(qubits):
            if (value >> (width - 1 - i)) & 1:
                circ.x(q)
    prepared, _ = execute(circ)
    prep_index = int(np.flatnonzero(prepared)[0])
    circ.extend(fragment)
    state, _ = execute(circ)
    hot = np.flatnonzero(np.abs(state) > 1e-9)
    assert hot.shape == (1,), "fragment must map basis states to basis states"
    assert abs(abs(state[hot[0]]) - 1.0) < 1e-9
    return int(hot[0]), prep_index


def _flag_mask(layout, flag):
    return 1 << (layout.num_qubits - 1 - flag)


def test_not_equal_fragment_exhaustive():
    problem = SatProblem((VarDecl("a", 2), VarDecl("b", 2)), (NotEqual("a", "b"),))
    layout = qubit_layout(problem)
    flag = layout.flag_qubits[0]
    frag = Circuit(layout.num_qubits)
    synth_not_equal(frag, layout, "a", "b", flag)
    for a in range(4):
        for b in range(4):
            out, prep = _run_on_basis(layout, frag, {"a": a, "b": b})
            expected = prep | _flag_mask(layout, flag) if a != b else prep
            assert out == expected, f"a={a} b={b}"


def test_not_equal_same_variable_is_empty():
    problem = SatProblem((VarDecl("a", 2),), (NotEqual("a", "a"),))
    layout = qubit_layout(problem)
    frag = Circuit(layout.num_qubits)
    assert synth_not_equal(frag, layout, "a", "a", layout.flag_qubits[0]) is None
    assert frag.ops == ()


def test_equal_const_fragment_exhaustive():
    problem = SatProblem((VarDecl("a", 3),), (EqualConst("a", 5),))
    layout = qubit_layout(problem)
    flag = layout.flag_qubits[0]
    frag = Circuit(layout.num_qubits)
    grover_sat._match_constant(frag, layout.var_qubits("a"), 5, flag)
    for a in range(8):
        out, prep = _run_on_basis(layout, frag, {"a": a})
        expected = prep | _flag_mask(layout, flag) if a == 5 else prep
        assert out == expected, f"a={a}"


def test_sum_equals_fragment_exhaustive():
    problem = SatProblem(
        (VarDecl("a", 2), VarDecl("b", 2)), (SumEquals(("a", "b"), 4),)
    )
    layout = qubit_layout(problem)
    flag = layout.flag_qubits[0]
    frag = Circuit(layout.num_qubits)
    synth_sum_equals(frag, layout, ("a", "b"), 4, flag)
    for a in range(4):
        for b in range(4):
            out, prep = _run_on_basis(layout, frag, {"a": a, "b": b})
            expected = prep | _flag_mask(layout, flag) if a + b == 4 else prep
            assert out == expected, f"a={a} b={b}"


def test_sum_equals_with_repeated_operand():
    problem = SatProblem((VarDecl("a", 2),), (SumEquals(("a", "a"), 2),))
    layout = qubit_layout(problem)
    flag = layout.flag_qubits[0]
    frag = Circuit(layout.num_qubits)
    synth_sum_equals(frag, layout, ("a", "a"), 2, flag)
    for a in range(4):
        out, prep = _run_on_basis(layout, frag, {"a": a})
        expected = prep | _flag_mask(layout, flag) if 2 * a == 2 else prep
        assert out == expected, f"a={a}"


def test_sum_equals_three_operands():
    problem = SatProblem(
        (VarDecl("a", 1), VarDecl("b", 2), VarDecl("c", 1)),
        (SumEquals(("a", "b", "c"), 3),),
    )
    layout = qubit_layout(problem)
    flag = layout.flag_qubits[0]
    frag = Circuit(layout.num_qubits)
    synth_sum_equals(frag, layout, ("a", "b", "c"), 3, flag)
    for a in range(2):
        for b in range(4):
            for c in range(2):
                out, prep = _run_on_basis(layout, frag, {"a": a, "b": b, "c": c})
                want_flag = a + b + c == 3
                expected = prep | _flag_mask(layout, flag) if want_flag else prep
                assert out == expected, f"a={a} b={b} c={c}"


# --- oracle ------------------------------------------------------------------------


def _oracle_signs_and_leak(problem):
    """Run the oracle on a uniform search superposition; return the per-index
    amplitude signs and the worst ancilla-subspace amplitude."""
    layout = qubit_layout(problem)
    circ = Circuit(layout.num_qubits)
    for q in layout.search_qubits:
        circ.h(q)
    circ.extend(build_oracle(problem, layout))
    state, _ = execute(circ)
    n = layout.search_width
    ancilla_bits = layout.num_qubits - n
    table = state.reshape(1 << n, 1 << ancilla_bits)
    leak = float(np.max(np.abs(table[:, 1:]))) if ancilla_bits else 0.0
    signs = table[:, 0] * math.sqrt(1 << n)
    return signs, leak


def test_oracle_flips_exactly_the_satisfying_states():
    signs, leak = _oracle_signs_and_leak(UNIT_KAKURO)
    for index in range(16):
        expected = -1.0 if index in (0b0110, 0b1001) else 1.0
        assert abs(signs[index] - expected) < 1e-9
    assert leak < 1e-9


def test_oracle_of_contradiction_is_identity():
    problem = SatProblem((VarDecl("a", 2),), (NotEqual("a", "a"),))
    signs, leak = _oracle_signs_and_leak(problem)
    assert np.max(np.abs(signs - 1.0)) < 1e-9
    assert leak < 1e-9


@pytest.mark.parametrize("problem,specs", generate_corpus(22, seed=20260814))
def test_oracle_diagonal_matches_classical_on_random_problems(problem, specs):
    signs, leak = _oracle_signs_and_leak(problem)
    names = [v.name for v in problem.vars]
    n = problem.search_width
    for index in range(1 << n):
        assignment = decode_bitstring(format(index, f"0{n}b"), problem)
        expected = -1.0 if oracles.assignment_satisfies(assignment, specs) else 1.0
        assert abs(signs[index] - expected) < 1e-9
    assert leak < 1e-9
    assert set(assignment) == set(names)


# --- sign table ---------------------------------------------------------------------

_KINDS = {
    "not_equal": lambda rule: NotEqual(rule[1], rule[2]),
    "equal_const": lambda rule: EqualConst(rule[1], rule[2]),
    "sum_equals": lambda rule: SumEquals(tuple(rule[1]), rule[2]),
}


def unpack(mask, bits):
    """One bool per assignment of a ``bits``-bit register from a packed sign
    table, whose bits past the register must be clear."""
    flags = np.unpackbits(mask.view(np.uint8), bitorder="little").view(bool)
    assert not flags[1 << bits :].any()
    return flags[: 1 << bits]


def problem_from_specs(widths, specs) -> SatProblem:
    return SatProblem(
        tuple(VarDecl(name, bits) for name, bits in widths.items()),
        tuple(_KINDS[rule[0]](rule) for rule in specs),
    )


# (widths, specs): 1-5 search bits fill part of one 64-bit word, 6 fill it
# exactly, and from 12 bits on the high bits set whole words
SIGN_TABLE_CASES = {
    1: ({"a": 1}, [("equal_const", "a", 1)]),
    2: ({"a": 1, "b": 1}, [("not_equal", "a", "b")]),
    3: ({"a": 1, "b": 2}, [("sum_equals", ("a", "b"), 2)]),
    4: ({"a": 2, "b": 2}, [("not_equal", "a", "b"), ("sum_equals", ("a", "b"), 3)]),
    5: ({"a": 2, "b": 3}, [("sum_equals", ("a", "b", "a"), 6), ("equal_const", "b", 4)]),
    6: (
        {"a": 2, "b": 2, "c": 2},
        [("not_equal", "a", "b"), ("not_equal", "b", "c"), ("sum_equals", ("a", "b", "c"), 5)],
    ),
    # the bundled kakuro_cross_sums.json
    8: (
        dict.fromkeys("abcd", 2),
        [
            ("sum_equals", ("a", "c"), 5), ("not_equal", "a", "c"),
            ("sum_equals", ("b", "d"), 4), ("not_equal", "b", "d"),
            ("sum_equals", ("a", "b"), 4), ("not_equal", "a", "b"),
            ("sum_equals", ("c", "d"), 5), ("not_equal", "c", "d"),
        ],
    ),
    12: (
        {"a": 3, "b": 3, "c": 3, "d": 3},
        [("not_equal", "a", "b"), ("not_equal", "c", "d"), ("sum_equals", tuple("abcd"), 14)],
    ),
    16: (
        {"a": 4, "b": 4, "c": 4, "d": 4},
        [
            ("not_equal", "a", "b"),
            ("not_equal", "b", "c"),
            ("equal_const", "d", 9),
            ("sum_equals", tuple("abcd"), 30),
        ],
    ),
}


@pytest.mark.parametrize("bits", sorted(SIGN_TABLE_CASES))
def test_sign_table_marks_exactly_the_brute_force_solutions(bits):
    widths, specs = SIGN_TABLE_CASES[bits]
    problem = problem_from_specs(widths, specs)
    assert problem.search_width == bits
    expected = np.zeros(1 << bits, bool)
    for assignment in oracles.enumerate_satisfying(widths, specs):
        index = 0
        for name, width in widths.items():  # declaration order, MSB-first
            index = index << width | assignment[name]
        expected[index] = True
    assert expected.any()
    if bits == 8:  # the one answer that the golden report of the bundled problem prints
        assert problem == cli.parse_problem(PROBLEMS / "kakuro_cross_sums.json").sat
        assert oracles.enumerate_satisfying(widths, specs) == [{"a": 3, "b": 1, "c": 2, "d": 3}]
    mask = grover_sat._marked(problem, qubit_layout(problem))
    assert mask.dtype == np.dtype("<u8")
    assert mask.shape == (max(1, 1 << bits >> 6),)
    assert np.array_equal(unpack(mask, bits), expected)


def test_sign_table_of_a_20_bit_register_peaks_under_8_mib():
    names = [f"v{i}" for i in range(5)]
    specs = [("not_equal", a, b) for a, b in zip(names, names[1:])]
    specs.append(("sum_equals", tuple(names), 35))
    problem = problem_from_specs(dict.fromkeys(names, 4), specs)
    layout = qubit_layout(problem)  # 20 search + 5 flags + 7 scratch
    assert layout.search_width == 20
    mask, peak = traced_peak(grover_sat._marked, problem, layout)
    assert int(np.bitwise_count(mask).sum()) == 31134
    assert peak < 8 << 20


# --- diffuser ------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diffuser_is_reflection_about_uniform_state(n):
    mat = oracles.circuit_matrix(build_diffuser(n))
    uniform_projector = np.full((1 << n, 1 << n), 1.0 / (1 << n))
    expected = np.eye(1 << n) - 2.0 * uniform_projector
    assert np.max(np.abs(mat - expected)) < 1e-12


# --- iteration counts -----------------------------------------------------------------


def test_grover_iterations_known_values():
    assert oracles.grover_iterations(4, 2) == 2
    assert oracles.grover_iterations(2, 1) == 1
    assert oracles.grover_iterations(8, 1) == 12


def test_iteration_schedule_known_values():
    assert iteration_schedule(2) == [1, 2]
    assert iteration_schedule(4) == [1, 2, 3, 4]
    assert iteration_schedule(8) == [1, 2, 3, 4, 6, 8, 12, 13]
    assert iteration_schedule(10) == [1, 2, 3, 4, 6, 8, 12, 16, 23, 26]


@pytest.mark.parametrize("n", range(1, 21))
def test_iteration_schedule_matches_exact_ceiling_formula(n):
    # independent route: the least t with t * t >= 2**j
    cap = math.ceil((math.pi / 4) * math.sqrt(1 << n))
    expected = []
    j = 0
    while True:
        t = isqrt(1 << j)
        t += t * t < 1 << j
        if t >= cap:
            break
        if not expected or t > expected[-1]:
            expected.append(t)
        j += 1
    expected.append(cap)
    assert iteration_schedule(n) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 18))
def test_iteration_schedule_strictly_increasing(n):
    schedule = iteration_schedule(n)
    assert all(a < b for a, b in zip(schedule, schedule[1:]))
    assert schedule[-1] == math.ceil((math.pi / 4) * math.sqrt(1 << n))


# --- amplification dynamics ------------------------------------------------------------


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_marked_probability_follows_closed_form(iterations):
    layout = qubit_layout(UNIT_KAKURO)
    circ = build_search_circuit(UNIT_KAKURO, layout, iterations)
    state, _ = execute(circ)
    table = (np.abs(state) ** 2).reshape(16, -1).sum(axis=1)
    marked = table[0b0110] + table[0b1001]
    expected = oracles.amplification_probability(4, 2, iterations)
    assert abs(marked - expected) < 1e-9
    assert abs(table[0b0110] - table[0b1001]) < 1e-9
    assert np.abs(np.delete(table, [0b0110, 0b1001]) - (1 - expected) / 14).max() < 1e-9


def test_search_circuit_registers():
    layout = qubit_layout(CROSS_SUM_KAKURO)
    circ = build_search_circuit(CROSS_SUM_KAKURO, layout, 1)
    assert [r.name for r in circ.registers] == ["a", "b", "c", "d", "flags", "scratch"]
    assert circ.registers[-1].width == 3


def test_search_circuit_builds_its_op_tuple_once():
    """20,000 rounds of unsat_pair (200,002 ops): building the tuple once
    peaks near what the circuit then holds, where a second copy of the
    repeated rounds would double it."""
    problem = cli.parse_problem(PROBLEMS / "unsat_pair.json").sat
    layout = qubit_layout(problem)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        circ = build_search_circuit(problem, layout, 20_000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(circ.ops) == 200_002
    assert peak - start < 1.5 * (held - start)


def test_search_circuit_register_names_avoid_collisions():
    problem = SatProblem(
        (VarDecl("flags", 1), VarDecl("scratch", 1)),
        (NotEqual("flags", "scratch"), SumEquals(("flags", "scratch"), 1)),
    )
    layout = qubit_layout(problem)
    circ = build_search_circuit(problem, layout, 0)
    names = [r.name for r in circ.registers]
    assert names == ["flags", "scratch", "_flags", "_scratch"]
    assert layout.registers == circ.registers
    assert layout.var_qubits("flags") == range(0, 1)


# --- solve --------------------------------------------------------------------------


def test_solve_unit_kakuro_finds_both_solutions():
    report = solve(UNIT_KAKURO)
    assert report.found
    assert report.solutions == [
        {"a": 0, "b": 1, "c": 1, "d": 0},
        {"a": 1, "b": 0, "c": 0, "d": 1},
    ] or report.solutions == [
        {"a": 1, "b": 0, "c": 0, "d": 1},
        {"a": 0, "b": 1, "c": 1, "d": 0},
    ]
    assert report.iterations_used == 1
    assert report.schedule_trace == [(1, 2)]
    assert sum(report.histogram.counts.values()) == report.shots == 4096


def test_solve_orders_solutions_by_count_then_bitstring():
    report = solve(UNIT_KAKURO)
    counts = [
        report.histogram.counts[encode_assignment(a, UNIT_KAKURO)]
        for a in report.solutions
    ]
    assert counts == sorted(counts, reverse=True)
    if counts[0] == counts[1]:
        keys = [encode_assignment(a, UNIT_KAKURO) for a in report.solutions]
        assert keys == sorted(keys)


def test_solve_exhausts_schedule_on_contradiction():
    problem = SatProblem((VarDecl("a", 2),), (NotEqual("a", "a"),))
    report = solve(problem)
    assert not report.found
    assert report.solutions == []
    assert report.iterations_used == 2
    assert report.schedule_trace == [(1, 0), (2, 0)]


def test_solve_draws_once_over_the_whole_schedule(monkeypatch):
    calls = []
    real_doubles = sv._pcg64_doubles

    def counting_doubles(shots, seed):
        calls.append((shots, seed))
        return real_doubles(shots, seed)

    monkeypatch.setattr(sv, "_pcg64_doubles", counting_doubles)
    sv.sorted_draws.cache_clear()
    # nothing reaches a threshold of 1, so all four steps sample
    report = solve(UNIT_KAKURO, shots=1000, seed=5, frequency_threshold=1.0)
    assert not report.found
    assert len(report.schedule_trace) == len(iteration_schedule(4))
    assert calls == [(1000, 5)]


def test_solve_samples_an_unchanged_level_once(monkeypatch):
    # with nothing marked, a round maps the miss level b to exactly -b, so
    # unsat_pair's second step reads the levels its first step sampled
    sampled = []
    real_sample = grover_sat.sample_two_levels
    monkeypatch.setattr(
        grover_sat, "sample_two_levels", lambda *args: sampled.append(args) or real_sample(*args)
    )
    report = solve(cli.parse_problem(PROBLEMS / "unsat_pair.json").sat)
    assert report.schedule_trace == [(1, 0), (2, 0)]
    assert len(sampled) == 1


def test_solve_synthesizes_the_oracle_once(monkeypatch):
    calls = [0]
    real_compute = grover_sat._compute

    def counting_compute(*args):
        calls[0] += 1
        return real_compute(*args)

    monkeypatch.setattr(grover_sat, "_compute", counting_compute)
    problem = SatProblem((VarDecl("a", 4),), (NotEqual("a", "a"),))
    report = solve(problem)
    assert report.schedule_trace == [(1, 0), (2, 0), (3, 0), (4, 0)]
    assert calls[0] == 1


def test_solve_applies_the_largest_round_count_not_the_sum(monkeypatch):
    # a != a never holds, so nothing is marked and each round negates the
    # uniform amplitude 1/2: the whole schedule [1, 2] ends at +1/2 after 2
    # rounds, at -1/2 after 1 + 2; and the walk runs no gate kernel
    problem = SatProblem((VarDecl("a", 2),), (NotEqual("a", "a"),))
    applied = [0]
    real_apply = qc.apply_unchecked

    def counting_apply(*args):
        applied[0] += 1
        return real_apply(*args)

    monkeypatch.setattr(qc, "apply_unchecked", counting_apply)
    report = solve(problem)
    assert report.schedule_trace == [(1, 0), (2, 0)]
    walk = list(schedule_states(problem, qubit_layout(problem)))
    assert [(t, int(unpack(mask, 2).sum()), b) for t, mask, _, b in walk] == [
        (1, 0, -0.5),
        (2, 0, 0.5),
    ]
    assert applied[0] == 0


def test_solve_refuses_a_compute_block_that_is_not_only_x(monkeypatch):
    real_synth = grover_sat.synth_not_equal
    sampled = [0]
    real_sample = grover_sat.sample_two_levels

    def synth_with_h(frag, layout, a, b, flag):
        real_synth(frag, layout, a, b, flag)
        frag.h(0)

    def counting_sample(*args):
        sampled[0] += 1
        return real_sample(*args)

    monkeypatch.setattr(grover_sat, "sample_two_levels", counting_sample)
    solve(UNIT_KAKURO)
    assert sampled[0] == 1
    sampled[0] = 0
    monkeypatch.setattr(grover_sat, "synth_not_equal", synth_with_h)
    with pytest.raises(ValueError, match="X gates only, got .h."):
        solve(UNIT_KAKURO)
    assert sampled[0] == 0


# 15 search + 4 flag + 6 scratch = 25 qubits: a 512 MiB state at full width
WIDE_SPECS = (
    ("not_equal", "a", "b"),
    ("not_equal", "c", "d"),
    ("sum_equals", tuple("abcde"), 20),
    ("equal_const", "e", 4),
)
WIDE = SatProblem(
    tuple(VarDecl(name, 3) for name in "abcde"),
    (NotEqual("a", "b"), NotEqual("c", "d"), SumEquals(tuple("abcde"), 20), EqualConst("e", 4)),
)


def test_wide_layout_is_searched_on_the_search_register_alone():
    layout = qubit_layout(WIDE)
    assert (layout.search_width, len(layout.flag_qubits), layout.scratch_width) == (15, 4, 6)
    report, peak = traced_peak(solve, WIDE)
    accepted = oracles.enumerate_satisfying(WIDE.widths(), WIDE_SPECS)
    assert report.iterations_used == 1
    assert report.solutions
    assert all(solution in accepted for solution in report.solutions)
    assert peak < 32 << 20


def assert_walk_matches_fresh_circuits(problem, steps=None):
    """The walk's two amplitudes, spread over the marked and unmarked search
    assignments, are at each schedule step within 1e-12 of the
    flags-and-scratch-zero column of the search circuit's state for that
    round count, run from |0...0>, and their squares sample to the column's
    histograms at seeds 0, 7 and 123; every other column is exactly 0."""
    layout = qubit_layout(problem)
    s = layout.search_width
    for t, mask, a, b in itertools.islice(schedule_states(problem, layout), steps):
        fresh, _ = execute(build_search_circuit(problem, layout, t))
        table = fresh.reshape(1 << s, -1)
        column = np.ascontiguousarray(table[:, 0])
        state = np.where(unpack(mask, s), a, b) + 0j
        assert np.abs(state - column).max() <= 1e-12, f"differs after {t} rounds"
        for seed in (0, 7, 123):
            walk = sv.sample_two_levels(mask, s, a * a, b * b, 4096, seed)
            assert walk == sv.sample(column, 4096, seed), (t, seed)
        assert not table[:, 1:].any(), f"ancillas set after {t} rounds"


@pytest.mark.parametrize("problem,specs", generate_corpus(12, seed=7))
def test_schedule_states_match_fresh_circuits_on_random_problems(problem, specs):
    assert_walk_matches_fresh_circuits(problem)


SAT_PROBLEMS = [p for p in sorted(PROBLEMS.glob("*.json")) if cli.parse_problem(p).kind == "sat"]


@pytest.mark.parametrize("path", SAT_PROBLEMS, ids=lambda p: p.stem)
def test_schedule_states_match_fresh_circuits_on_bundled_problems(path):
    # 19 qubits: each fresh reference round takes about a second, so only
    # the first two steps (the first carried one included) are compared
    steps = 2 if path.stem == "kakuro_cross_sums" else None
    assert_walk_matches_fresh_circuits(cli.parse_problem(path).sat, steps)


def test_a_full_20_bit_schedule_follows_the_closed_form():
    """After t rounds the marked mass is sin^2((2t+1)theta), where
    sin^2(theta) is the marked fraction (Nielsen and Chuang, section 6.1):
    all 805 rounds of a 20-bit schedule keep it, and the norm, within 1e-9."""
    names = ["a", "b", "c", "d"]
    widths = dict.fromkeys(names, 5)
    specs = [("not_equal", a, b) for a, b in zip(names, names[1:])]
    specs.append(("sum_equals", tuple(names), 50))
    problem = problem_from_specs(widths, specs)
    expected_marked = oracles.satisfying_mask(widths, specs)
    solutions = int(expected_marked.sum())
    assert 0 < solutions < expected_marked.size == 1 << 20
    steps = []
    for t, mask, a, b in schedule_states(problem, qubit_layout(problem)):
        if not steps:
            assert np.array_equal(unpack(mask, 20), expected_marked)
        expected = oracles.amplification_probability(20, solutions, t)
        assert abs(solutions * a * a - expected) < 1e-9, t
        assert abs(solutions * a * a + ((1 << 20) - solutions) * b * b - 1.0) < 1e-9, t
        steps.append(t)
    assert steps == iteration_schedule(20)
    assert steps[-1] == 805


def marked_count_by_dp(bits, total):
    """Assignments of six ``bits``-bit values, each unequal to the one before,
    that sum to ``total``: a walk over (last value, running sum), which
    shares nothing with the oracle or the walk."""
    top = 1 << bits
    ways = {(v, v): 1 for v in range(top)}
    for _ in range(5):
        step = {}
        for (last, acc), count in ways.items():
            for v in range(top):
                if v != last and acc + v <= total:
                    step[v, acc + v] = step.get((v, acc + v), 0) + count
        ways = step
    return sum(count for (_, acc), count in ways.items() if acc == total)


def test_a_whole_24_bit_schedule_stays_on_the_closed_form():
    """sat_wide24's walk, all 24 steps and 3,217 rounds, on two scalars: the
    norm within 1e-12 and the marked mass within 1e-10 of sin^2((2t+1)theta)."""
    problem = cli.parse_problem(GOLDEN / "sat_wide24.json").sat
    solutions = marked_count_by_dp(4, 42)
    assert solutions == 426_636
    steps = []
    for t, mask, a, b in schedule_states(problem, qubit_layout(problem)):
        if not steps:
            assert int(np.bitwise_count(mask).sum()) == solutions
        mass = solutions * a * a
        assert abs(mass + ((1 << 24) - solutions) * b * b - 1.0) < 1e-12, t
        assert abs(mass - oracles.amplification_probability(24, solutions, t)) < 1e-10, t
        steps.append(t)
    assert len(steps) == 24
    assert steps == iteration_schedule(24)
    assert steps[-1] == 3217


def test_a_20_bit_solve_holds_no_complex_state():
    """needle20 (one solution of 2**20, found at t = 6): the search register's
    amplitudes are two floats, so the peak is one block of sign-table columns
    and the 128 KiB packed mask, not a 16 MiB complex128 state or an 8 MiB
    float64 array of probabilities."""
    problem = cli.parse_problem(GOLDEN / "needle20.json").sat
    report, peak = traced_peak(solve, problem)
    assert report.solutions == [{"a": 5, "b": 9, "c": 17, "d": 30}]
    assert report.iterations_used == 6
    assert peak < 4 << 20


def test_a_24_bit_solve_holds_no_array_of_an_element_per_assignment():
    """sat_wide24: 37 columns of one 128 KiB block, the 2 MiB packed mask and
    one 2 MiB chunk of the CDF; a bool per assignment alone would be 16 MiB."""
    problem = cli.parse_problem(GOLDEN / "sat_wide24.json").sat
    report, peak = traced_peak(solve, problem)
    assert (report.iterations_used, len(report.solutions)) == (1, 875)
    assert peak < 16 << 20


def test_solve_filters_unverified_candidates():
    # a tiny threshold lets every measured bitstring through to verification
    report = solve(UNIT_KAKURO, frequency_threshold=1e-9)
    assert len(report.solutions) == 2
    assert all(classical_check(a, UNIT_KAKURO) for a in report.solutions)


def test_solve_config_validation():
    with pytest.raises(ValueError):
        solve(UNIT_KAKURO, shots=0)
    with pytest.raises(ValueError):
        solve(UNIT_KAKURO, frequency_threshold=1.5)
    # 256 shots of draws fill the 2 KiB budget of a 7-qubit cap
    with pytest.raises(QubitBudgetError, match="needs 8 qubits but the cap is 7$"):
        solve(CROSS_SUM_KAKURO, shots=256, max_qubits=7)


def test_solve_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^--seed must be non-negative, got -1$"):
        solve(UNIT_KAKURO, seed=-1)


# --- encode / decode -------------------------------------------------------------------


def test_decode_bitstring_splits_declaration_order():
    problem = SatProblem(
        (VarDecl("x", 2), VarDecl("y", 3)), (EqualConst("x", 0),)
    )
    assert decode_bitstring("10110", problem) == {"x": 2, "y": 6}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_encode_decode_round_trip(data):
    widths = data.draw(
        st.lists(st.integers(1, 4), min_size=1, max_size=4), label="widths"
    )
    decls = tuple(VarDecl(f"v{i}", w) for i, w in enumerate(widths))
    problem = SatProblem(decls, (EqualConst("v0", 0),))
    assignment = {
        d.name: data.draw(st.integers(0, (1 << d.bits) - 1), label=d.name)
        for d in decls
    }
    assert decode_bitstring(encode_assignment(assignment, problem), problem) == assignment


def test_decode_bitstring_validation():
    with pytest.raises(ValueError):
        decode_bitstring("010", UNIT_KAKURO)
    with pytest.raises(ValueError):
        decode_bitstring("01x0", UNIT_KAKURO)


def test_encode_assignment_validation():
    with pytest.raises(ValueError):
        encode_assignment({"a": 2, "b": 0, "c": 0, "d": 0}, UNIT_KAKURO)
