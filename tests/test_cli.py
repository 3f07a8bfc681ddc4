import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkout import CROSS_SUMS, EIGHT_CITIES, PROBLEMS, TSP, UNIT_KAKURO, python, traced_peak
from qsolve import cli, grover_sat, qpe_tsp
from qsolve import problems as model
from qsolve.problems import AlgorithmMismatchError, NotEqual, ProblemFileError, SumEquals
from test_refusals import SAT_66, TSP_59


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
        pytest.param([], "expected an object", id="not_an_object"),
        pytest.param({}, "missing required field 'type'", id="no_type"),
        pytest.param({"type": "maze"}, "unknown problem type 'maze'", id="unknown_type"),
        pytest.param({"type": 3}, "expected a string", id="type_not_a_string"),
        pytest.param(
            {"type": "sat", "variables": {}, "constraints": []},
            "expected an array",
            id="variables_not_an_array",
        ),
        pytest.param(
            {"type": "sat", "variables": [[]], "constraints": []},
            "variables\\[0\\]: expected an object",
            id="variable_not_an_object",
        ),
        pytest.param(
            {"type": "sat", "variables": [{"bits": 1}], "constraints": []},
            "missing required field 'name'",
            id="variable_without_name",
        ),
        pytest.param(
            {"type": "sat", "variables": [{"name": "a"}], "constraints": []},
            "missing required field 'bits'",
            id="variable_without_bits",
        ),
        pytest.param(
            {"type": "sat", "variables": [{"name": "a", "bits": True}], "constraints": []},
            "bits: expected an integer, got bool",
            id="bool_bits",
        ),
        pytest.param(
            {"type": "sat", "variables": [{"name": "a", "bits": 1}]},
            "missing required field 'constraints'",
            id="no_constraints_field",
        ),
        pytest.param(
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "frobnicate", "args": ["a"]}],
            },
            "constraints\\[0\\]: unknown constraint kind 'frobnicate'",
            id="unknown_constraint_kind",
        ),
        pytest.param(
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "not_equal", "args": ["a", "a", "a"]}],
            },
            "exactly 2 args, got 3",
            id="not_equal_with_three_args",
        ),
        pytest.param(
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "not_equal", "args": ["a", "a"], "value": 1}],
            },
            "takes no 'value'",
            id="not_equal_with_a_value",
        ),
        pytest.param(
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "equal_const", "args": ["a"]}],
            },
            "missing required field 'value'",
            id="equal_const_without_value",
        ),
        pytest.param(
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "sum_equals", "args": [], "value": 0}],
            },
            "at least 1 arg",
            id="sum_equals_without_args",
        ),
        pytest.param(
            {
                "type": "sat",
                "variables": [{"name": "a", "bits": 1}],
                "constraints": [{"kind": "equal_const", "args": [7], "value": 0}],
            },
            "args\\[0\\]: expected a string",
            id="arg_not_a_string",
        ),
        pytest.param(
            {"type": "tsp"},
            "missing required field 'adjacency'",
            id="tsp_without_adjacency",
        ),
        pytest.param(
            {"type": "tsp", "adjacency": [[0, 1.5], [1.5, 0]]},
            "expected an integer, got float",
            id="float_weight",
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


@pytest.mark.parametrize("problem", [UNIT_KAKURO, TSP], ids=["sat", "tsp"])
def test_shots_within_the_state_budget_are_solved(capsys, problem):
    # 8 * 8192 bytes of draws is exactly the 16 * 2**12 bytes of a 12-qubit state
    code, _, err = run_cli(
        capsys, "solve", "--input", str(problem), "--shots", "8192", "--max-qubits", "12"
    )
    assert (code, err) == (0, "")
    # the widest cap, whose 2**62-byte budget holds far more than the solve needs
    (code, _, err), peak = traced_peak(
        run_cli, capsys, "solve", "--input", str(problem), "--max-qubits", "58"
    )
    assert (code, err) == (0, "")
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "problem, refused",
    # each solver's first large array: the SAT sign table's packed uint64
    # mask, and the TSP batch's complex128 rows (in statevector.uniform)
    [(CROSS_SUMS, np.uint64), (TSP, np.complex128)],
    ids=["sat", "tsp"],
)
def test_out_of_memory_exits_two_without_traceback(
    capsys, monkeypatch, numpy_kernels, problem, refused
):
    # numpy kernels: the pure-Python ones allocate no numpy array to refuse
    real_zeros = np.zeros

    def refuse_states(shape, dtype=float, **kwargs):
        if dtype == refused:
            raise MemoryError()
        return real_zeros(shape, dtype, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse_states)
    code, out, err = run_cli(capsys, "solve", "--input", str(problem))
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize(
    "problem, calls",
    [
        (CROSS_SUMS, ("validate_problem", "qubit_layout")),
        (TSP, ("validate_instance", "precision_plan")),
    ],
    ids=["sat", "tsp"],
)
def test_a_solve_validates_and_plans_its_problem_once(capsys, monkeypatch, problem, calls):
    """The CLI plans the problem, and the plan validates it; the solver takes
    that plan: nothing validates or plans again."""
    made = []
    for name in calls:
        def counting(*args, real=getattr(model, name), name=name, **kwargs):
            made.append(name)
            return real(*args, **kwargs)

        for module in (model, cli, grover_sat, qpe_tsp):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    assert run_cli(capsys, "solve", "--input", str(problem))[0] == 0
    assert sorted(made) == sorted(calls)


def test_a_dump_and_its_solve_synthesize_the_compute_block_once(capsys, monkeypatch, tmp_path):
    """The solve's sign table and the dumped oracle read one synthesis: each
    distinct pair of the compute block is checked once per ``main``."""
    checks = [0]
    real_check = grover_sat.check_operands

    def counting_check(*args):
        checks[0] += 1
        return real_check(*args)

    monkeypatch.setattr(grover_sat, "check_operands", counting_check)
    grover_sat._compute.cache_clear()  # an earlier test may have synthesized this block
    dump = tmp_path / "cross_sums.txt"
    assert run_cli(capsys, "solve", "--input", str(CROSS_SUMS), "--dump-circuit", str(dump))[0] == 0
    synthesized = checks[0]
    problem = cli.parse_problem(CROSS_SUMS).sat
    assert synthesized == len(set(grover_sat._compute(problem, model.qubit_layout(problem))))


@pytest.mark.parametrize(
    "problems, options, error",
    [
        # draws of 8 MiB against the 256-byte budget of a 4-qubit cap
        ({"sat": UNIT_KAKURO, "tsp": TSP}, {"shots": 2**20, "max_qubits": 4},
         "--shots 1048576 needs more memory than a 4-qubit state"),
        # registers numpy could not address, refused with their cap before they are sized
        ({"sat": SAT_66, "tsp": TSP_59}, {"max_qubits": 59},
         "--max-qubits must be in 1..58, got 59"),
    ],
    ids=["shots_2**20_cap_4", "cap_59"],
)
@pytest.mark.parametrize("kind", ["sat", "tsp"])
def test_library_solvers_refuse_what_the_cli_refuses(tmp_path, kind, problems, options, error):
    problem = problems[kind]
    parsed = cli.parse_problem(problem if isinstance(problem, Path) else
                               write_problem(tmp_path, problem))
    solve = grover_sat.solve if kind == "sat" else qpe_tsp.solve

    def refuse():
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            solve(getattr(parsed, kind), **options)

    assert traced_peak(refuse)[1] < 1 << 20


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


def test_usage_errors_raise_system_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--input", "x.json", "--output", "xml"])
    assert exc.value.code == 2


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
    result = python(
        "-m", "qsolve", "solve", "--input", str(path),
        env={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        drop=("PYTHONIOENCODING",),
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "é = 1\nb = 2\n".encode("utf-8"), b""
    )


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
    result = python("-c", PARSE_ONLY, str(problem), text=True)
    kind = json.loads(problem.read_text())["type"]
    assert (result.returncode, result.stdout, result.stderr) == (0, f"{kind}\n[]\n", "")


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
    result = python("-c", LAZY_SUBMODULES, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == [
        "False",
        "qsolve.grover_sat qsolve.circuit",
        "module 'qsolve' has no attribute 'nope'",
    ]


@pytest.mark.parametrize("command", [[], ["solve"]], ids=["qsolve", "solve"])
def test_help_prints_the_parser_text_and_exits_zero(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    result = python("-m", "qsolve", *command, "--help", text=True)
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--help"])
    assert exc.value.code == 0
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == capsys.readouterr().out
    assert result.stdout.startswith(" ".join(["usage: qsolve", *command]) + " [-h]")
