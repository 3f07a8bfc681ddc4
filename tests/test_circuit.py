import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from problem_gen import instance_from_rows
import qsolve.circuit as qc
import qsolve.statevector as sv
from qsolve import cli, qpe_tsp
from qsolve.circuit import Circuit, CircuitOp, QubitRegister
from qsolve.grover_sat import build_search_circuit, qubit_layout
from qsolve.problems import EqualConst, SatProblem, VarDecl, validate_problem
from qsolve.statevector import Gate, X, Z, phase

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


@st.composite
def circuits(draw, max_qubits=4, max_ops=10):
    n = draw(st.integers(2, max_qubits))
    circ = Circuit(n)
    for _ in range(draw(st.integers(0, max_ops))):
        name = draw(st.sampled_from(["h", "x", "z", "phase", "swap"]))
        need = 2 if name == "swap" else 1
        lam = 0.0
        if name == "phase":
            lam = draw(st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
        qubits = draw(st.permutations(range(n)))
        targets = tuple(qubits[:need])
        controls = tuple(qubits[need : need + draw(st.integers(0, n - need))])
        circ.add(Gate(name, lam), controls=controls, targets=targets)
    return circ


# --- construction and validation ------------------------------------------------


def test_ops_cannot_be_appended_to_unchecked():
    with pytest.raises(AttributeError):
        Circuit(3).ops.append(CircuitOp(X, targets=(-2,)))


def test_builder_methods_record_ops_in_order():
    circ = (
        Circuit(3)
        .h(0)
        .mcx((0,), 1)
        .add(Z, controls=(0, 1), targets=(2,))
        .swap(1, 2)
        .phase_on(0.25, 0)
    )
    kinds = [op.gate.name for op in circ.ops]
    assert kinds == ["h", "x", "z", "swap", "phase"]
    assert circ.ops[1] == CircuitOp(X, frozenset({0}), (1,))


def test_register_validation():
    with pytest.raises(ValueError, match="overlaps"):
        Circuit(3, registers=(QubitRegister("a", 0, 2), QubitRegister("b", 1, 2)))
    with pytest.raises(ValueError, match="duplicate"):
        Circuit(4, registers=(QubitRegister("a", 0, 2), QubitRegister("a", 2, 2)))
    with pytest.raises(ValueError, match="past"):
        Circuit(2, registers=(QubitRegister("a", 1, 2),))
    with pytest.raises(ValueError):
        QubitRegister("not an identifier", 0, 1)
    with pytest.raises(ValueError):
        QubitRegister("a", 0, 0)


@pytest.mark.parametrize("name", ["a", "_x1", "é", "変数", "", "1a", "a b", "a-b"])
def test_register_names_follow_the_variable_name_rule(name):
    valid = not validate_problem(SatProblem((VarDecl(name, 1),), (EqualConst(name, 1),)))
    try:
        QubitRegister(name, 0, 1)
    except ValueError:
        assert not valid
    else:
        assert valid


def test_extend_appends_fragment_ops():
    frag = Circuit(2).h(0).mcx((0,), 1)
    circ = Circuit(3).x(2)
    circ.extend(frag)
    assert len(circ.ops) == 3
    with pytest.raises(ValueError, match="3-qubit circuit does not fit in 2 qubits"):
        Circuit(2).extend(Circuit(3).x(2))


def test_extend_is_all_or_nothing():
    # a wider fragment is refused whole, even where each of its ops would fit
    circ = Circuit(2)
    with pytest.raises(ValueError, match="does not fit"):
        circ.extend(Circuit(4).x(0).x(1))
    assert circ.ops == ()


# --- validation happens once per op --------------------------------------------------


@pytest.fixture
def operand_checks(monkeypatch):
    """Counts every check_operands call made by the circuit and simulator modules."""
    calls = [0]
    real = sv.check_operands

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(qc, "check_operands", counting)
    monkeypatch.setattr(sv, "check_operands", counting)
    return calls


def test_search_circuit_ops_are_validated_once(operand_checks, monkeypatch):
    # every op is built by ``add``; extending, inverting and executing reuse it
    adds = [0]
    real_add = Circuit.add

    def counting_add(self, *args, **kwargs):
        adds[0] += 1
        return real_add(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "add", counting_add)
    problem = cli.parse_problem(PROBLEMS / "kakuro_cross_sums.json").sat
    circ = build_search_circuit(problem, qubit_layout(problem), 2)
    qc.execute(circ)
    assert 0 < operand_checks[0] == adds[0] < len(circ.ops)


def test_tsp_solve_validates_each_executed_op_once(operand_checks, monkeypatch):
    executed = [0]
    real_apply = qc.apply_unchecked

    def counting_apply(*args):
        executed[0] += 1
        return real_apply(*args)

    monkeypatch.setattr(qc, "apply_unchecked", counting_apply)
    rows = [[0, 3, 4, 2, 7], [3, 0, 4, 6, 3], [4, 4, 0, 5, 8], [2, 6, 5, 0, 6], [7, 3, 8, 6, 0]]
    qpe_tsp.solve(instance_from_rows(rows))
    assert 0 < operand_checks[0] == executed[0]


# --- inversion ---------------------------------------------------------------------


def test_inverse_reverses_and_negates():
    circ = Circuit(2).h(0).phase_on(0.3, 1).mcx((0,), 1)
    inv = qc.inverse(circ)
    assert [op.gate.name for op in inv.ops] == ["x", "phase", "h"]
    assert inv.ops[1].gate.lam == -0.3


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_inverse_is_exact_right_inverse(circ):
    combined = Circuit(circ.num_qubits)
    combined.extend(circ)
    combined.extend(qc.inverse(circ))
    state, _ = qc.execute(combined)
    expected = np.zeros(1 << circ.num_qubits)
    expected[0] = 1.0
    assert np.max(np.abs(state - expected)) < 1e-9


# --- Fourier transform ---------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_qft_matrix_matches_dft(m):
    frag = qc.build_qft(m)
    assert np.max(np.abs(oracles.circuit_matrix(frag) - oracles.dft_matrix(m))) < 1e-12


def test_qft_two_qubits_on_basis_one():
    circ = Circuit(2).x(1)  # prepare |01>
    circ.extend(qc.build_qft(2))
    state, _ = qc.execute(circ)
    expected = np.array([1, 1j, -1, -1j]) / 2
    assert np.max(np.abs(state - expected)) < 1e-12


def test_qft_argument_validation():
    with pytest.raises(ValueError):
        qc.build_qft(0)


# --- execution ----------------------------------------------------------------------


def test_execute_zero_shots_skips_sampler(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("sampler must not run for shots=0")

    monkeypatch.setattr(qc, "sample", boom)
    state, hist = qc.execute(Circuit(2).h(0))
    assert hist is None
    assert state.dtype == np.complex128 and state.shape == (4,)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-9


def test_execute_rejects_negative_shots():
    with pytest.raises(ValueError):
        qc.execute(Circuit(1).h(0), shots=-1)


def test_execute_is_deterministic():
    circ = Circuit(3).h(0).h(1).mcx((1,), 2)
    _, first = qc.execute(circ, shots=500, seed=9)
    _, second = qc.execute(circ, shots=500, seed=9)
    assert first == second


# --- text format ----------------------------------------------------------------------


def test_export_text_golden():
    lam = 2 * math.pi / 3
    assert float(f"{lam:.16g}") != lam  # its repr needs all 17 digits
    registers = (QubitRegister("v", 0, 2), QubitRegister("anc", 2, 1), QubitRegister("é", 3, 7))
    circ = Circuit(10, registers=registers)
    circ.h(0).mcx((0, 1), 2).phase_on(0.5, 1).swap(0, 1)
    circ.mcx((8, 1), 9).phase_on(lam, 3)
    circ.extend(qc.inverse(Circuit(10).phase_on(lam, 3, controls=(1,))))
    assert list(circ.ops[4].controls) == [8, 1]  # a set; the line lists it sorted
    assert "".join(qc.export_text(circ)) == (
        "qsolve-circuit v1 qubits=10\n"
        "register v 0 2\n"
        "register anc 2 1\n"
        "register é 3 7\n"
        "h controls=[] targets=[0]\n"
        "x controls=[0,1] targets=[2]\n"
        "phase(0.5) controls=[] targets=[1]\n"
        "swap controls=[] targets=[0,1]\n"
        "x controls=[1,8] targets=[9]\n"
        "phase(2.0943951023931953) controls=[] targets=[3]\n"
        "phase(-2.0943951023931953) controls=[1] targets=[3]\n"
    )
