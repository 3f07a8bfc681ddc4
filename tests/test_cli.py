import json
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from qsolve import cli
from qsolve.circuit import parse_text
from qsolve.errors import AlgorithmMismatchError, ProblemFileError
from qsolve.grover_sat import GroverConfig, NotEqual, SumEquals
from qsolve.grover_sat import solve as grover_solve

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
GOLDEN = Path(__file__).resolve().parent / "golden"

UNIT_KAKURO = PROBLEMS / "kakuro_unit_sums.json"
CROSS_SUMS = PROBLEMS / "kakuro_cross_sums.json"
UNSAT = PROBLEMS / "unsat_pair.json"
TSP = PROBLEMS / "tsp_four_cities.json"


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
    jsonschema.validate(payload, cli.SAT_REPORT_SCHEMA)
    assert payload["found"] is True
    assert payload["solutions"] == [{"a": 3, "b": 1, "c": 2, "d": 3}]
    assert payload["iterations_used"] >= 1
    assert sum(payload["histogram"].values()) == payload["shots"]


def test_solve_unsat_json_output(capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", str(UNSAT), "--output", "json")
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, cli.SAT_REPORT_SCHEMA)
    assert payload["found"] is False
    assert payload["solutions"] == []


def test_solve_tsp_json_output(capsys):
    code, out, _ = run_cli(capsys, "solve", "--input", str(TSP), "--output", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, cli.TSP_REPORT_SCHEMA)
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
    assert code == 2
    assert "--threshold" in err
    code, _, err = run_cli(capsys, "solve", "--input", str(UNIT_KAKURO), "--shots", "0")
    assert code == 2
    assert "--shots" in err


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
    def refuse(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("qsolve.circuit.init_zero", refuse)
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


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("problem", sorted(PROBLEMS.glob("*.json")), ids=lambda p: p.stem)
def test_solve_output_matches_golden(capsys, problem, output):
    """Exit code and stdout at seed 0 are pinned byte for byte; a change to
    either must be deliberate and regenerate the files in tests/golden/."""
    name = f"{problem.stem}.{output}.out"
    code, out, _ = run_cli(
        capsys, "solve", "--input", str(problem), "--output", output, "--seed", "0"
    )
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out.encode() == (GOLDEN / name).read_bytes()


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
    circuit = parse_text(dump.read_text())
    assert circuit.num_qubits == 7
    assert [r.name for r in circuit.registers] == ["a", "b", "c", "d", "flags"]
    # the dump reflects the iteration count the solver actually stopped at
    report = grover_solve(cli.parse_problem(UNIT_KAKURO).sat, GroverConfig())
    flips = sum(1 for op in circuit.ops if op.gate.name == "z" and op.controls)
    assert flips == 2 * report.iterations_used  # one oracle + one diffuser flip each


def test_dump_circuit_tsp(capsys, tmp_path):
    dump = tmp_path / "circuit.txt"
    code, _, _ = run_cli(
        capsys, "solve", "--input", str(TSP), "--dump-circuit", str(dump)
    )
    assert code == 0
    circuit = parse_text(dump.read_text())
    assert circuit.num_qubits == 4
    assert circuit.registers[0].name == "precision"


def test_dump_circuit_unwritable_path_exits_two(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "solve",
        "--input",
        str(UNIT_KAKURO),
        "--dump-circuit",
        str(tmp_path / "no_dir" / "c.txt"),
    )
    assert code == 2
    assert err.startswith("error:")
