import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsolve import cli, grover_sat, qpe_tsp
from qsolve import statevector as sv
from qsolve.circuit import export_text
from qsolve.grover_sat import build_search_circuit, qubit_layout
from qsolve.grover_sat import solve as grover_solve
from qsolve.problems import AlgorithmMismatchError, NotEqual, ProblemFileError, SumEquals

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

UNIT_KAKURO = PROBLEMS / "kakuro_unit_sums.json"
CROSS_SUMS = PROBLEMS / "kakuro_cross_sums.json"
UNSAT = PROBLEMS / "unsat_pair.json"
TSP = PROBLEMS / "tsp_four_cities.json"
# the benchmark's tsp_n8 problem at workload seed 0: 2,520 cycles sharing 64
# exponents, so its output pins which batch row each cycle reads. It lives
# here, not in problems/, so the smoke loop and the benchmark's list keep
# their files.
EIGHT_CITIES = GOLDEN / "tsp_n8_seed0.json"
# the README's example problem, the one golden case with an equal_const
README_EXAMPLE = GOLDEN / "readme_example.json"
GOLDEN_PROBLEMS = [*sorted(PROBLEMS.glob("*.json")), EIGHT_CITIES, README_EXAMPLE]


def write_problem(tmp_path, payload) -> Path:
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return path


# --- problem parsing ---------------------------------------------------------------


def test_parse_sat_fixture():
    parsed = cli.parse_problem(CROSS_SUMS)
    assert parsed.kind == "sat"
    assert [v.name for v in parsed.sat.vars] == ["a", "b", "c", "d"]
    assert parsed.sat.constraints[0] == SumEquals(("a", "c"), 5)
    assert parsed.sat.constraints[1] == NotEqual("a", "c")


def test_parse_tsp_fixture():
    parsed = cli.parse_problem(TSP)
    assert parsed.kind == "tsp"
    assert parsed.tsp.weights[0] == (0, 2, 1, 3)
    assert parsed.tsp.n_nodes == 4


def test_parse_missing_file(tmp_path):
    with pytest.raises(ProblemFileError, match="nope.json"):
        cli.parse_problem(tmp_path / "nope.json")


def test_parse_invalid_json_reports_location(tmp_path):
    path = write_problem(tmp_path, '{"type": "sat",')
    with pytest.raises(ProblemFileError, match=r":1:\d+: invalid JSON"):
        cli.parse_problem(path)


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ([], "expected an object"),
        ({}, "missing required field 'type'"),
        ({"type": "maze"}, "unknown problem type 'maze'"),
        ({"type": 3}, "expected a string"),
        ({"type": "sat", "variables": {}, "constraints": []}, "expected an array"),
        (
            {"type": "sat", "variables": [[]], "constraints": []},
            "variables\\[0\\]: expected an object",
        ),
        (
            {"type": "sat", "variables": [{"bits": 1}], "constraints": []},
            "missing required field 'name'",
        ),
        (
            {"type": "sat", "variables": [{"name": "a"}], "constraints": []},
            "missing required field 'bits'",
        ),
        (
            {"type": "sat", "variables": [{"name": "a", "bits": True}], "constraints": []},
            "bits: expected an integer, got bool",
        ),
        (
            {"type": "sat", "variables": [{"name": "a", "bits": 1}]},
            "missing required field 'constraints'",
        ),
        (
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "frobnicate", "args": ["a"]}],
            },
            "constraints\\[0\\]: unknown constraint kind 'frobnicate'",
        ),
        (
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "not_equal", "args": ["a", "a", "a"]}],
            },
            "exactly 2 args, got 3",
        ),
        (
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "not_equal", "args": ["a", "a"], "value": 1}],
            },
            "takes no 'value'",
        ),
        (
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "equal_const", "args": ["a"]}],
            },
            "missing required field 'value'",
        ),
        (
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "sum_equals", "args": [], "value": 0}],
            },
            "at least 1 arg",
        ),
        (
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "equal_const", "args": [7], "value": 0}],
            },
            "args\\[0\\]: expected a string",
        ),
        (
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "equal_const", "args": ["z"], "value": 0}],
            },
            "undeclared variable 'z'",
        ),
        ({"type": "tsp"}, "missing required field 'adjacency'"),
        ({"type": "tsp", "adjacency": [[0, 1.5], [1.5, 0]]}, "expected an integer, got float"),
        (
            {"type": "tsp", "adjacency": [[0, 1, 2], [1, 0, 3], [9, 3, 0]]},
            "symmetric",
        ),
    ],
)
def test_parse_rejects_malformed_problems(tmp_path, payload, fragment):
    path = write_problem(tmp_path, payload)
    with pytest.raises(ProblemFileError, match=fragment):
        cli.parse_problem(path)


# --- algorithm selection ----------------------------------------------------------------


def test_select_algorithm_auto():
    assert cli.select_algorithm("sat", "auto") == "grover"
    assert cli.select_algorithm("tsp", "auto") == "qpe"
    assert cli.select_algorithm("sat", "grover") == "grover"
    assert cli.select_algorithm("tsp", "qpe") == "qpe"


def test_select_algorithm_mismatch():
    with pytest.raises(AlgorithmMismatchError, match="grover"):
        cli.select_algorithm("sat", "qpe")
    with pytest.raises(AlgorithmMismatchError, match="qpe"):
        cli.select_algorithm("tsp", "grover")


# --- end-to-end through main() ------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_sat_text_output(capsys):
    code, out, err = run_cli(capsys, "solve", "--input", str(CROSS_SUMS))
    assert code == 0
    assert out == "a = 3\nb = 1\nc = 2\nd = 3\n"
    assert err == ""


def test_solve_sat_multiple_solutions_are_blocks(capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", str(UNIT_KAKURO))
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert sorted(blocks) == [
        "a = 0\nb = 1\nc = 1\nd = 0",
        "a = 1\nb = 0\nc = 0\nd = 1",
    ]


def test_solve_unsat_exits_one(capsys):
    code, out, err = run_cli(capsys, "solve", "--input", str(UNSAT))
    assert code == 1
    assert out == "no solution found\n"
    assert err == ""


def test_solve_tsp_text_output(capsys):
    code, out, err = run_cli(capsys, "solve", "--input", str(TSP))
    assert code == 0
    assert out == "[1, 4, 2, 3] length 7\n"
    assert err == ""


def test_solve_sat_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--input", str(CROSS_SUMS), "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["solutions"] == [{"a": 3, "b": 1, "c": 2, "d": 3}]
    assert payload["iterations_used"] >= 1
    assert sum(payload["histogram"].values()) == payload["shots"]


def test_solve_unsat_json_output(capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", str(UNSAT), "--output", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["found"] is False
    assert payload["solutions"] == []


def test_solve_tsp_json_output(capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", str(TSP), "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_tour"] == [1, 3, 2, 4]
    assert payload["best_tour_display"] == [1, 4, 2, 3]
    assert payload["best_length"] == 7
    assert [entry["length"] for entry in payload["per_cycle"]] == [11, 8, 7]
    assert all(entry["probability"] > 1.0 - 1e-9 for entry in payload["per_cycle"])


def test_algorithm_mismatch_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--input", str(CROSS_SUMS), "--algorithm", "qpe"
    )
    assert code == 2
    assert out == ""
    assert "grover" in err
    code, _, err = run_cli(capsys, "solve", "--input", str(TSP), "--algorithm", "grover")
    assert code == 2
    assert "qpe" in err


def test_bad_option_values_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--input", str(UNIT_KAKURO), "--threshold", "1.5"
    )
    assert (code, err) == (2, "error: --threshold must be in (0, 1], got 1.5\n")
    code, out, err = run_cli(capsys, "solve", "--input", str(TSP), "--threshold", "0.5")
    assert (code, out, err) == (
        2, "", "error: --threshold applies to the grover solver only, not to qpe\n"
    )
    # a bad --seed is refused before a bad --threshold
    code, _, err = run_cli(
        capsys, "solve", "--input", str(UNIT_KAKURO), "--seed", "-1", "--threshold", "0"
    )
    assert (code, err) == (2, "error: --seed must be non-negative, got -1\n")
    code, _, err = run_cli(capsys, "solve", "--input", str(UNIT_KAKURO), "--shots", "0")
    assert code == 2
    assert "--shots" in err
    # a bad --shots is refused before a bad --seed
    code, _, err = run_cli(
        capsys, "solve", "--input", str(UNIT_KAKURO), "--shots", "0", "--seed", "-1"
    )
    assert (code, err) == (2, "error: --shots must be positive, got 0\n")
    code, _, err = run_cli(
        capsys, "solve", "--input", str(UNIT_KAKURO), "--shots", str(10**12), "--seed", "-1"
    )
    assert (code, err) == (2, f"error: --shots {10**12} needs more memory than a 26-qubit state\n")
    # an empty dump path would otherwise write nothing and still exit 0
    code, out, err = run_cli(capsys, "solve", "--input", str(UNIT_KAKURO), "--dump-circuit", "")
    assert (code, out, err) == (2, "", "error: --dump-circuit needs a file path\n")


def test_negative_seed_exits_two(capsys):
    code, out, err = run_cli(capsys, "solve", "--input", str(TSP), "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be non-negative, got -1\n"


@pytest.mark.parametrize("problem", [UNIT_KAKURO, TSP], ids=["sat", "tsp"])
def test_shots_past_the_state_budget_are_refused_before_solving(capsys, monkeypatch, problem):
    def never(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(grover_sat, "solve", never)
    monkeypatch.setattr(qpe_tsp, "solve", never)
    for shots, max_qubits in ((10**15, 26), (8193, 12)):
        code, out, err = run_cli(
            capsys, "solve", "--input", str(problem),
            "--shots", str(shots), "--max-qubits", str(max_qubits),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --shots ") and err.count("\n") == 1
    monkeypatch.undo()
    # 8 * 8192 bytes of draws is exactly the 16 * 2**12 bytes of a 12-qubit state
    code, _, err = run_cli(
        capsys, "solve", "--input", str(problem), "--shots", "8192", "--max-qubits", "12"
    )
    assert (code, err) == (0, "")
    # a cap far wider than the shot count is compared without building 2**cap
    tracemalloc.start()
    try:
        code, _, err = run_cli(
            capsys, "solve", "--input", str(problem), "--max-qubits", str(10**7)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak < 1 << 20


def test_parse_failures_exit_two(capsys, tmp_path):
    code, out, err = run_cli(capsys, "solve", "--input", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == ""
    assert "missing.json" in err
    bad = write_problem(tmp_path, "{nope")
    code, _, err = run_cli(capsys, "solve", "--input", str(bad))
    assert code == 2
    assert ":1:" in err


@pytest.mark.parametrize("problem", [CROSS_SUMS, TSP], ids=["sat", "tsp"])
def test_out_of_memory_exits_two_without_traceback(capsys, monkeypatch, problem):
    real_zeros = sv.zeros

    def refuse_states(shape, dtype):
        # only the complex128 state, which both solvers allocate through sv.uniform
        if dtype == np.complex128:
            raise MemoryError()
        return real_zeros(shape, dtype)

    monkeypatch.setattr(sv, "zeros", refuse_states)
    code, out, err = run_cli(capsys, "solve", "--input", str(problem))
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_huge_variable_widths_are_refused_without_allocating(capsys, tmp_path):
    path = write_problem(
        tmp_path,
        {
            "type": "sat",
            "variables": [{"name": n, "bits": 100_000_000} for n in ("a", "b")],
            "constraints": [
                {"kind": "equal_const", "args": ["a"], "value": 5},
                {"kind": "sum_equals", "args": ["a", "b"], "value": 3},
            ],
        },
    )
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "solve", "--input", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == "error: the search register alone needs 200000000 qubits but the cap is 26\n"
    assert peak < 1 << 20


# a 59-qubit precision register (3 nodes, one 2**58 edge) and a 64-bit search
# register: numpy cannot address either, and raises ValueError if asked
WIDE_PROBLEMS = {
    "tsp_59": {"type": "tsp", "adjacency": [[0, 2**58, 1], [2**58, 0, 1], [1, 1, 0]]},
    "sat_64": {
        "type": "sat",
        "variables": [{"name": "a", "bits": 64}],
        "constraints": [{"kind": "equal_const", "args": ["a"], "value": 5}],
    },
}


@pytest.mark.parametrize("name", sorted(WIDE_PROBLEMS))
def test_registers_too_wide_for_numpy_exit_two_without_allocating(capsys, tmp_path, name):
    path = write_problem(tmp_path, WIDE_PROBLEMS[name])
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "solve", "--input", str(path), "--max-qubits", "100")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert peak < 1 << 20


@pytest.mark.parametrize("name", sorted(WIDE_PROBLEMS))
def test_solvers_raise_memory_error_on_registers_too_wide_for_numpy(tmp_path, name):
    parsed = cli.parse_problem(write_problem(tmp_path, WIDE_PROBLEMS[name]))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError):
            if parsed.kind == "sat":
                grover_sat.solve(parsed.sat, max_qubits=100)
            else:
                qpe_tsp.solve(parsed.tsp, max_qubits=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def sat_file(tmp_path, bits, constraint) -> Path:
    """One variable ``a`` of width ``bits`` plus a 2-bit ``b``, one constraint."""
    variables = [{"name": "a", "bits": bits}, {"name": "b", "bits": 2}]
    return write_problem(
        tmp_path, {"type": "sat", "variables": variables, "constraints": [constraint]}
    )


CONSTRAINTS_ON_A = {
    "equal_const": {"kind": "equal_const", "args": ["a"], "value": 1},
    "sum_equals": {"kind": "sum_equals", "args": ["a", "b"], "value": 9},
}


@pytest.mark.parametrize("kind", sorted(CONSTRAINTS_ON_A))
@pytest.mark.parametrize("bits", [-1, 0])
def test_widths_below_one_skip_range_checks(capsys, tmp_path, kind, bits):
    path = sat_file(tmp_path, bits, CONSTRAINTS_ON_A[kind])
    code, out, err = run_cli(capsys, "solve", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: variables[0]: width must be at least 1, got {bits}\n"


@pytest.mark.parametrize("kind", sorted(CONSTRAINTS_ON_A))
@pytest.mark.parametrize("bits", [20_000, 200_000_000])
def test_wide_range_bounds_are_written_without_building_them(capsys, tmp_path, kind, bits):
    path = sat_file(tmp_path, bits, {**CONSTRAINTS_ON_A[kind], "value": -1})
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "solve", "--input", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = f"2**{bits}-1" if kind == "equal_const" else f"2**{bits}+2**2-2"
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: constraints[0]: value -1 outside ")
    assert err.endswith(f" (0..{bound})\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("bits, cap", [(200_000_000, 400_000_000), (10**11, 2 * 10**11)])
def test_search_states_past_the_address_space_are_refused_before_sizing_sums(
    capsys, tmp_path, bits, cap
):
    """A search register of 59 or more qubits is refused before any operand
    range is built, within the cap or not."""
    path = sat_file(tmp_path, bits, CONSTRAINTS_ON_A["sum_equals"])
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "solve", "--input", str(path), "--max-qubits", str(cap))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (
        f"error: a {bits + 2}-qubit search state needs 2**{bits + 6} bytes, "
        "past the address space\n"
    )
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "content, fragment",
    [
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
        (
            b'{"type": "sat", "variables": [{"name": "a", "bits": 2}], '
            b'"constraints": [{"kind": "equal_const", "args": ["a"], "value": BIG}]}',
            "4301 digits",
        ),
        (b'{"type": "tsp", "adjacency": [[0, BIG, 1], [1, 0, 1], [1, 1, 0]]}', "4301 digits"),
    ],
    ids=["not_utf8", "huge_value", "huge_weight"],
)
def test_unreadable_json_exits_two(capsys, tmp_path, content, fragment):
    path = tmp_path / "problem.json"
    path.write_bytes(content.replace(b"BIG", b"9" * 4301))
    code, out, err = run_cli(capsys, "solve", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: unreadable JSON: ")
    assert fragment in err


# --- random problem files through main() -------------------------------------------

BIG = "@big@"  # stands for an integer literal past the int-to-str digit limit
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3), st.just([]), st.just({})
)
NAMES = st.sampled_from(["a", "b", "c"])


def mostly(strategy, rare, one_in: int):
    """``strategy``, except that about one draw in ``one_in`` comes from ``rare``;
    ``rare`` sits at the last index because Hypothesis favours the first."""
    return st.sampled_from(range(one_in)).flatmap(
        lambda k: rare if k == one_in - 1 else strategy
    )


def or_junk(strategy):
    return mostly(strategy, JUNK, 10)


EXTREMES = st.sampled_from([-(2**70), 2**70, 20_000, 200_000_000, BIG])
WIDTHS = mostly(st.integers(-1, 3), EXTREMES, 6)
INTS = mostly(st.integers(-1, 6), EXTREMES, 6)


def symmetric_matrix(n: int):
    def build(upper):
        rows = [[0] * n for _ in range(n)]
        cells = ((i, j) for i in range(n) for j in range(i + 1, n))
        for (i, j), w in zip(cells, upper):
            rows[i][j] = rows[j][i] = w
        return rows

    pairs = n * (n - 1) // 2
    return st.lists(or_junk(INTS), min_size=pairs, max_size=pairs).map(build)


CONSTRAINTS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("not_equal"), "args": or_junk(st.lists(NAMES, min_size=2, max_size=2))},
        optional={"value": INTS},
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("equal_const"),
            "args": or_junk(st.lists(NAMES, min_size=1, max_size=1)),
            "value": or_junk(INTS),
        }
    ),
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["sum_equals", "bogus"]),
            "args": or_junk(st.lists(or_junk(NAMES), max_size=3)),
            "value": or_junk(INTS),
        }
    ),
)
SAT_FILES = st.fixed_dictionaries(
    {
        "type": st.just("sat"),
        "variables": or_junk(
            st.lists(
                or_junk(st.fixed_dictionaries({"name": or_junk(NAMES), "bits": or_junk(WIDTHS)})),
                max_size=3,
            )
        ),
        "constraints": or_junk(st.lists(or_junk(CONSTRAINTS), max_size=3)),
    }
)
IDENTIFIERS = st.one_of(
    st.sampled_from(["a", "é", "flags"]),  # "flags" also names the flag register
    st.text(st.characters(categories=["L", "Nd", "Pc"]), min_size=1, max_size=3).filter(
        str.isidentifier
    ),
)


@st.composite
def declared_sat_files(draw):
    """SAT files whose constraints name only declared variables, so that many
    reach the solver and the circuit dump; names include non-ASCII ones."""
    names = draw(st.lists(IDENTIFIERS, min_size=1, max_size=3, unique=True))
    declared = st.sampled_from(names)
    constraint = st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("not_equal"), "args": st.lists(declared, min_size=2, max_size=2)}
        ),
        st.fixed_dictionaries(
            {
                "kind": st.just("equal_const"),
                "args": st.lists(declared, min_size=1, max_size=1),
                "value": st.integers(0, 3),
            }
        ),
        st.fixed_dictionaries(
            {
                "kind": st.just("sum_equals"),
                "args": st.lists(declared, min_size=1, max_size=3),
                "value": st.integers(0, 6),
            }
        ),
    )
    return {
        "type": "sat",
        "variables": [{"name": n, "bits": draw(st.integers(1, 2))} for n in names],
        "constraints": draw(st.lists(constraint, min_size=1, max_size=3)),
    }


TSP_FILES = st.fixed_dictionaries(
    {
        "type": st.just("tsp"),
        "adjacency": or_junk(
            st.one_of(
                st.integers(3, 4).flatmap(symmetric_matrix),
                st.lists(or_junk(st.lists(or_junk(INTS), max_size=5)), max_size=5),
            )
        ),
    }
)


def encode(doc) -> bytes:
    return json.dumps(doc).replace(json.dumps(BIG), "9" * 4301).encode()


PROBLEM_BYTES = mostly(
    st.one_of(SAT_FILES, declared_sat_files(), TSP_FILES).map(encode),
    st.one_of(JUNK.map(encode), st.binary(max_size=8)),
    4,
)


@settings(max_examples=100, deadline=None)
@given(PROBLEM_BYTES, st.booleans())
def test_random_problem_files_never_escape_the_cli(tmp_path_factory, content, dump):
    path = tmp_path_factory.getbasetemp() / "random_problem.json"
    path.write_bytes(content)
    circuit = tmp_path_factory.getbasetemp() / "random_circuit.txt"
    circuit.unlink(missing_ok=True)
    argv = ["solve", "--input", str(path), "--max-qubits", "12", "--shots", "64"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + (["--dump-circuit", str(circuit)] if dump else []))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
    else:
        assert err.getvalue() == ""
        if dump:
            assert circuit.read_text(encoding="utf-8").startswith("qsolve-circuit v1 ")


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize(
    "problem", GOLDEN_PROBLEMS, ids=lambda p: p.stem
)
def test_solve_output_matches_golden(capsys, problem, output):
    """Exit code and stdout at seed 0 are pinned byte for byte; a change to
    either must be deliberate and regenerate the files in tests/golden/."""
    name = f"{problem.stem}.{output}.out"
    code, out, _ = run_cli(
        capsys, "solve", "--input", str(problem), "--output", output, "--seed", "0"
    )
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "problem", GOLDEN_PROBLEMS, ids=lambda p: p.stem
)
def test_dump_circuit_matches_golden(capsys, tmp_path, problem):
    """The --dump-circuit file at seed 0 is pinned byte for byte, op order
    included: the dump tests below compare it with the very builders it
    comes from, so only this one sees a reordered op."""
    dump = tmp_path / "circuit.txt"
    code, _, _ = run_cli(
        capsys, "solve", "--input", str(problem), "--seed", "0", "--dump-circuit", str(dump)
    )
    assert code in (0, 1)
    assert dump.read_bytes() == (GOLDEN / f"{problem.stem}.dump").read_bytes()


def test_usage_errors_raise_system_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--input", "x.json", "--output", "xml"])
    assert exc.value.code == 2


def test_dump_circuit_grover(capsys, tmp_path):
    dump = tmp_path / "circuit.txt"
    code, _, _ = run_cli(
        capsys, "solve", "--input", str(UNIT_KAKURO), "--dump-circuit", str(dump)
    )
    assert code == 0
    # the dump reflects the iteration count the solver actually stopped at
    problem = cli.parse_problem(UNIT_KAKURO).sat
    report = grover_solve(problem)
    reference = build_search_circuit(problem, qubit_layout(problem), report.iterations_used)
    assert dump.read_bytes() == export_text(reference).encode()
    lines = dump.read_text().splitlines()
    assert lines[0] == "qsolve-circuit v1 qubits=7"
    registers = [line.split()[1] for line in lines if line.startswith("register ")]
    assert registers == ["a", "b", "c", "d", "flags"]
    flips = sum(1 for line in lines if line.startswith("z controls=[") and "[]" not in line)
    assert flips == 2 * report.iterations_used  # one oracle + one diffuser flip each


def test_dump_circuit_tsp(capsys, tmp_path):
    dump = tmp_path / "circuit.txt"
    code, _, _ = run_cli(
        capsys, "solve", "--input", str(TSP), "--dump-circuit", str(dump)
    )
    assert code == 0
    instance = cli.parse_problem(TSP).tsp
    report = qpe_tsp.solve(instance)
    unitary = qpe_tsp.build_phase_unitary(instance, report.scale)
    eigenstate = qpe_tsp.encode_eigenstate(report.best_tour, instance.n_nodes)
    reference = qpe_tsp.qpe_circuit(unitary, eigenstate, report.precision_bits)
    assert dump.read_bytes() == export_text(reference).encode()
    lines = dump.read_text().splitlines()
    assert lines[:2] == ["qsolve-circuit v1 qubits=4", "register precision 0 4"]


def test_non_ascii_variable_names_solve_and_dump(capsys, tmp_path):
    path = write_problem(
        tmp_path,
        {
            "type": "sat",
            "variables": [{"name": "é", "bits": 2}, {"name": "b", "bits": 2}],
            "constraints": [
                {"kind": "equal_const", "args": ["é"], "value": 2},
                {"kind": "equal_const", "args": ["b"], "value": 1},
            ],
        },
    )
    assert run_cli(capsys, "solve", "--input", str(path)) == (0, "é = 2\nb = 1\n", "")
    dump = tmp_path / "circuit.txt"
    assert run_cli(capsys, "solve", "--input", str(path), "--dump-circuit", str(dump)) == (
        0, "é = 2\nb = 1\n", ""
    )
    assert dump.read_text(encoding="utf-8").splitlines()[1] == "register é 0 2"


def test_text_report_is_utf8_under_an_ascii_locale(tmp_path):
    path = write_problem(
        tmp_path,
        {
            "type": "sat",
            "variables": [{"name": "é", "bits": 2}, {"name": "b", "bits": 2}],
            "constraints": [
                {"kind": "equal_const", "args": ["é"], "value": 1},
                {"kind": "equal_const", "args": ["b"], "value": 2},
            ],
        },
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "qsolve", "solve", "--input", str(path)],
        capture_output=True, env=env,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "é = 1\nb = 2\n".encode("utf-8"), b""
    )


@pytest.mark.parametrize(
    "problem, solver, other",
    [(TSP, "qsolve.qpe_tsp", "qsolve.grover_sat"), (UNIT_KAKURO, "qsolve.grover_sat", "qsolve.qpe_tsp")],
    ids=["tsp", "sat"],
)
def test_a_solve_process_imports_only_the_solver_its_problem_names(problem, solver, other):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qsolve", "solve", "--input", str(problem)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    imported = {line.rpartition("|")[2].strip() for line in result.stderr.splitlines()}
    assert solver in imported
    assert other not in imported


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


PARSE_ONLY = (
    "import sys\n"
    "from qsolve import cli\n"
    "print(cli.parse_problem(sys.argv[1]).kind)\n"
    "print(sorted({'numpy', 'dataclasses'} & set(sys.modules)))\n"
)


@pytest.mark.parametrize(
    "problem", [*sorted(PROBLEMS.glob("*.json")), EIGHT_CITIES], ids=lambda path: path.name
)
def test_parsing_a_problem_loads_neither_numpy_nor_dataclasses(problem):
    result = subprocess.run(
        [sys.executable, "-c", PARSE_ONLY, str(problem)],
        capture_output=True, text=True, env=src_env(),
    )
    kind = json.loads(problem.read_text())["type"]
    assert (result.returncode, result.stdout, result.stderr) == (0, f"{kind}\n[]\n", "")


REFUSALS = {
    "shots_0": ["--input", str(UNIT_KAKURO), "--shots", "0"],
    "empty_dump_path": ["--input", str(TSP), "--dump-circuit", ""],
    "algorithm_mismatch": ["--input", str(UNIT_KAKURO), "--algorithm", "qpe"],
    # only the search solver has a frequency threshold
    "threshold_on_tsp": ["--input", str(TSP), "--threshold", "0.5"],
}


@pytest.mark.parametrize("case", ["invalid_file", *REFUSALS])
def test_a_refusal_exits_two_before_numpy_loads(tmp_path, case):
    if case == "invalid_file":
        args = ["--input", str(write_problem(tmp_path, {"type": "tsp", "adjacency": [[0]]}))]
    else:
        args = REFUSALS[case]
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qsolve", "solve", *args],
        capture_output=True, text=True, env=src_env(),
    )
    lines = result.stderr.splitlines()
    assert result.returncode == 2
    assert result.stdout == ""
    assert len([line for line in lines if line.startswith("error:")]) == 1
    assert [line for line in lines if "numpy" in line] == []
    assert [line for line in lines if "grover_sat" in line or "qpe_tsp" in line] == []


LAZY_SUBMODULES = (
    "import sys, qsolve\n"
    "print('numpy' in sys.modules)\n"
    "print(qsolve.grover_sat.__name__, qsolve.circuit.__name__)\n"
    "try:\n"
    "    qsolve.nope\n"
    "except AttributeError as exc:\n"
    "    print(exc)\n"
)


def test_import_qsolve_loads_the_solvers_on_first_attribute_access():
    result = subprocess.run(
        [sys.executable, "-c", LAZY_SUBMODULES], capture_output=True, text=True, env=src_env()
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == [
        "False",
        "qsolve.grover_sat qsolve.circuit",
        "module 'qsolve' has no attribute 'nope'",
    ]


@pytest.mark.parametrize("problem", [UNIT_KAKURO, TSP], ids=["sat", "tsp"])
def test_dump_circuit_unwritable_path_exits_two(capsys, tmp_path, problem):
    code, out, err = run_cli(
        capsys,
        "solve",
        "--input",
        str(problem),
        "--dump-circuit",
        str(tmp_path / "no_dir" / "c.txt"),
    )
    assert code == 2
    # the dump is written before the report, so a failed dump prints no report
    assert out == ""
    assert err.startswith("error:")


def test_a_report_stdout_cannot_take_exits_two():
    # buffered, the report reaches the pipe only when stdout is flushed
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "qsolve", "solve", "--input", str(UNIT_KAKURO)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    lines = result.stderr.splitlines()
    assert result.returncode == 2
    assert len([line for line in lines if line.startswith("error:")]) == 1
    assert "Exception ignored" not in result.stderr


@pytest.mark.parametrize("problem", [UNSAT, TSP], ids=["sat", "tsp"])
def test_a_closed_stdout_is_refused_before_numpy_loads(problem):
    # `>&-`: Python starts with sys.stdout None, and the report has nowhere to go
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh",
         sys.executable, "-X", "importtime", "-m", "qsolve", "solve", "--input", str(problem)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env(),
    )
    lines = result.stderr.splitlines()
    assert result.returncode == 2
    assert [line for line in lines if line.startswith("error:")] == [
        "error: stdout is closed, so no report can be written"
    ]
    assert "Traceback" not in result.stderr
    assert [line for line in lines if "numpy" in line] == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("command", [[], ["solve"]], ids=["qsolve", "solve"])
def test_help_stdout_cannot_take_exits_two(command):
    # buffered, argparse's help would reach the disk only at the exit-time flush
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "qsolve", *command, "--help"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert result.returncode == 2
    assert result.stderr.splitlines() == ["error: [Errno 28] No space left on device"]


@pytest.mark.parametrize("command", [[], ["solve"]], ids=["qsolve", "solve"])
def test_help_prints_the_parser_text_and_exits_zero(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    result = subprocess.run(
        [sys.executable, "-m", "qsolve", *command, "--help"],
        capture_output=True, text=True, env=src_env(),
    )
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--help"])
    assert exc.value.code == 0
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == capsys.readouterr().out
    assert result.stdout.startswith(" ".join(["usage: qsolve", *command]) + " [-h]")


def test_help_to_a_closed_stdout_is_refused():
    # argparse alone would print the help to stderr and exit 0
    result = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "qsolve", "--help"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env(),
    )
    assert result.returncode == 2
    assert result.stderr.splitlines() == ["error: stdout is closed, so no report can be written"]
