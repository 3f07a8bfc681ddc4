import math
from pathlib import Path

import numpy as np
import pytest

from problem_gen import instance_from_rows
import qsolve.circuit as qc
import qsolve.statevector as sv
from qsolve import cli, grover_sat, qpe_tsp
from qsolve.circuit import Circuit, CircuitOp, QubitRegister
from qsolve.grover_sat import build_search_circuit, qubit_layout
from qsolve.problems import EqualConst, SatProblem, VarDecl, validate_problem
from qsolve.statevector import SWAP, X, Z, phase

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


# --- construction and validation ------------------------------------------------


def test_ops_cannot_be_appended_to_unchecked():
    with pytest.raises(AttributeError):
        Circuit(3).ops.append(CircuitOp(X, targets=(-2,)))


def test_builder_methods_record_ops_in_order():
    circ = (
        Circuit(3)
        .h(0)
        .add(X, controls=(0,), targets=(1,))
        .add(Z, controls=(0, 1), targets=(2,))
        .add(SWAP, targets=(1, 2))
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
    frag = Circuit(2).h(0).add(X, controls=(0,), targets=(1,))
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
    """Counts every check_operands call made by the circuit, SAT synthesis,
    inverse Fourier transform and simulator modules."""
    calls = [0]
    real = sv.check_operands

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(qc, "check_operands", counting)
    monkeypatch.setattr(grover_sat, "check_operands", counting)
    monkeypatch.setattr(qpe_tsp, "check_operands", counting)
    monkeypatch.setattr(sv, "check_operands", counting)
    return calls


def test_search_circuit_ops_are_validated_once(operand_checks, monkeypatch):
    # an op is built by ``add`` or checked as a distinct pair of the compute
    # block; the pair's repeats, extending, repeating and executing reuse it
    adds = [0]
    real_add = Circuit.add

    def counting_add(self, *args, **kwargs):
        adds[0] += 1
        return real_add(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "add", counting_add)
    problem = cli.parse_problem(PROBLEMS / "kakuro_cross_sums.json").sat
    layout = qubit_layout(problem)
    grover_sat._compute.cache_clear()  # an earlier test may have synthesized this block
    circ = build_search_circuit(problem, layout, 2)
    qc.execute(circ)
    checks = operand_checks[0]
    pairs = grover_sat._compute(problem, layout)
    distinct = len({id(pair) for pair in pairs})
    assert distinct == len(set(pairs)) < len(pairs)
    assert 0 < adds[0] < distinct
    assert checks == distinct + adds[0]


def test_tsp_solve_validates_each_executed_op_once(operand_checks, monkeypatch, numpy_kernels):
    # numpy kernels: the pure-Python rows execute no op to count
    executed = [0]
    real_apply = sv.apply_unchecked

    def counting_apply(*args):
        executed[0] += 1
        return real_apply(*args)

    monkeypatch.setattr(sv, "apply_unchecked", counting_apply)
    rows = [[0, 3, 4, 2, 7], [3, 0, 4, 6, 3], [4, 4, 0, 5, 8], [2, 6, 5, 0, 6], [7, 3, 8, 6, 0]]
    qpe_tsp.solve(instance_from_rows(rows))
    assert 0 < operand_checks[0] == executed[0]


# --- execution ----------------------------------------------------------------------


def test_execute_zero_shots_skips_sampler(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("sampler must not run for shots=0")

    monkeypatch.setattr(sv, "sample", boom)
    state, hist = qc.execute(Circuit(2).h(0))
    assert hist is None
    assert state.dtype == np.complex128 and state.shape == (4,)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-9


def test_execute_rejects_negative_shots():
    with pytest.raises(ValueError):
        qc.execute(Circuit(1).h(0), shots=-1)


def test_execute_is_deterministic():
    circ = Circuit(3).h(0).h(1).add(X, controls=(1,), targets=(2,))
    _, first = qc.execute(circ, shots=500, seed=9)
    _, second = qc.execute(circ, shots=500, seed=9)
    assert first == second


# --- text format ----------------------------------------------------------------------


def test_export_text_golden():
    lam = 2 * math.pi / 3
    assert float(f"{lam:.16g}") != lam  # its repr needs all 17 digits
    registers = (QubitRegister("v", 0, 2), QubitRegister("anc", 2, 1), QubitRegister("é", 3, 7))
    circ = Circuit(10, registers=registers)
    circ.h(0).add(X, controls=(0, 1), targets=(2,)).phase_on(0.5, 1).add(SWAP, targets=(0, 1))
    circ.add(X, controls=(8, 1), targets=(9,)).phase_on(lam, 3)
    circ.add(phase(-lam), controls=(1,), targets=(3,))
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
