"""Every way ``qsolve solve`` refuses a request, as one table of rows and
one runner: exit 2, an empty stdout, one stderr line (the row's ``error:``
line), no traceback, and a traced peak under 1 MiB. One child reruns the
rows refused before a solver runs, and shows that none of them loads numpy
or a solver; so this module imports neither. The rows whose stdout cannot
take the output run in a child each. A new refusal is one row."""

import contextlib
import io
import json
import os
import re
from pathlib import Path
from typing import NamedTuple

import pytest

from checkout import CROSS_SUMS, PROBLEMS, TSP, UNIT_KAKURO, UNSAT, python, traced_peak
from qsolve import cli


def sat(*widths, kind="equal_const", value=5) -> dict:
    """Variables ``a``, ``b``, ... of these widths and one constraint:
    ``equal_const`` on ``a``, or ``sum_equals`` over ``a`` and ``b``."""
    args = ["a"] if kind == "equal_const" else ["a", "b"]
    return {
        "type": "sat",
        "variables": [{"name": n, "bits": bits} for n, bits in zip("abc", widths)],
        "constraints": [{"kind": kind, "args": args, "value": value}],
    }


# a 59-qubit precision register (3 nodes, one 2**58 edge), whose complex128
# batch row would need 2**63 bytes, and a 66-bit search register, whose packed
# mask would: neither fits the widest cap, 58, whose state numpy can address
TSP_59 = {"type": "tsp", "adjacency": [[0, 2**58, 1], [2**58, 0, 1], [1, 1, 0]]}
SAT_66 = sat(66)
# a 58-qubit precision register with three distinct tour lengths, whose
# 2**62-byte rows run one to a batch at the widest cap
B = 2**56
TSP_58 = {"type": "tsp", "adjacency": [[0, B, B, 1], [B, 0, 2, B], [B, 2, 0, 3], [1, B, 3, 0]]}
# one bit, so the mask is one word, and three flags: 8 + 5 * 8 bytes
THREE_FLAGS = {**sat(1, value=1), "constraints": [
    {"kind": "equal_const", "args": ["a"], "value": 1}] * 3}
# two 10**8-bit variables: validation range-checks 5 against a and 3
# against a + b without building either range, then the layout is refused
TWO_1E8 = {
    **sat(10**8, 10**8),
    "constraints": [
        {"kind": "equal_const", "args": ["a"], "value": 5},
        {"kind": "sum_equals", "args": ["a", "b"], "value": 3},
    ],
}


def with_big(doc) -> bytes:
    """``doc`` as JSON, with an integer past the int-to-str digit limit for each "BIG"."""
    return json.dumps(doc).encode().replace(b'"BIG"', b"9" * 4301)


class Refusal(NamedTuple):
    """``qsolve solve --input problem *args`` exits 2 with one stderr line
    that ``error`` matches. ``problem`` is a path, or a payload (a dict as
    JSON, or bytes) written to a scratch directory. ``{tmp}`` stands for
    that directory in ``args`` and ``error``; in ``error``, ``{problem}``
    stands for the problem's path and ``{...}`` for any text, where numpy
    or the interpreter words the message. ``early``: refused before any
    solver runs. ``bounded`` is False only where numpy's own allocation
    fails, whose size tracemalloc counts."""

    name: str
    problem: Path | dict | bytes
    args: tuple[str, ...]
    error: str
    early: bool = True
    bounded: bool = True


SHOTS = "error: --shots {} needs more memory than a {}-qubit state"
MISMATCH = "error: algorithm {!r} cannot solve a {!r} problem; use {!r} or 'auto'"
NO_INT = (
    "error: {problem}: unreadable JSON: Exceeds the limit {...} for integer string conversion: "
    "value has 4301 digits"
)
CAP = "error: --max-qubits must be in 1..58, got {}"
CAP_58 = ("--max-qubits", "58")
SEARCH = "error: the search register alone needs {} qubits but the cap is {}"

ROWS = [
    # the options, in the order they are refused, before the file is read
    Refusal("seed_-1", TSP, ("--seed", "-1"), "error: --seed must be non-negative, got -1"),
    Refusal("shots_0", UNIT_KAKURO, ("--shots", "0"), "error: --shots must be positive, got 0"),
    Refusal("shots_0_seed_-1", UNIT_KAKURO, ("--shots", "0", "--seed", "-1"),
            "error: --shots must be positive, got 0"),
    # a cap outside 1..58 (a wider state is one numpy could not address),
    # whatever the problem: here a 10**11-bit search register, never read
    *(Refusal(f"max_qubits_{cap}", problem, ("--max-qubits", str(cap)), CAP.format(cap))
      for cap, problem in ((0, TSP), (59, UNIT_KAKURO),
                           (10**7, sat(10**11, 2, kind="sum_equals", value=9)))),
    Refusal("shots_1e12_seed_-1", UNIT_KAKURO, ("--shots", str(10**12), "--seed", "-1"),
            SHOTS.format(10**12, 26)),
    # 8 * 8193 bytes of draws is one shot past the 16 * 2**12 bytes of a 12-qubit state
    *(Refusal(f"{kind}_shots_{shots}_cap_{cap}", problem,
              ("--shots", str(shots), "--max-qubits", str(cap)), SHOTS.format(shots, cap))
      for kind, problem in (("sat", UNIT_KAKURO), ("tsp", TSP))
      for shots, cap in ((10**15, 26), (8193, 12))),
    Refusal("threshold_1.5", UNIT_KAKURO, ("--threshold", "1.5"),
            "error: --threshold must be in (0, 1], got 1.5"),
    Refusal("seed_-1_threshold_0", UNIT_KAKURO, ("--seed", "-1", "--threshold", "0"),
            "error: --seed must be non-negative, got -1"),
    # an empty dump path would otherwise write nothing and still exit 0
    Refusal("empty_dump_path", TSP, ("--dump-circuit", ""),
            "error: --dump-circuit needs a file path"),
    # and a dump into a missing directory, before the solve it would follow
    *(Refusal(f"{kind}_dump_in_a_missing_directory", problem, ("--dump-circuit", "{tmp}/no/c"),
              "error: [Errno 2] No such file or directory: '{tmp}/no/c'")
      for kind, problem in (("sat", UNIT_KAKURO), ("tsp", TSP))),
    # the problem file
    Refusal("missing_file", PROBLEMS / "missing.json", (),
            "error: {problem}: No such file or directory"),
    Refusal("invalid_json", b"{nope", (), "error: {problem}:1:2: invalid JSON: "
            "Expecting property name enclosed in double quotes"),
    Refusal("not_utf8", b"\xff\xfe", (), "error: {problem}: unreadable JSON: "
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    Refusal("huge_value", with_big(sat(2, value="BIG")), (), NO_INT),
    Refusal("huge_weight", with_big({"type": "tsp", "adjacency": [[0, "BIG", 1], [1, 0, 1],
                                                                  [1, 1, 0]]}), (), NO_INT),
    Refusal("bool_bits", sat(True), (),
            "error: {problem}.variables[0].bits: expected an integer, got bool"),
    Refusal("one_node", {"type": "tsp", "adjacency": [[0]]}, (),
            "error: {problem}: node count 1 outside the supported range 3..8"),
    # a width below 1 skips the range checks
    *(Refusal(f"{kind}_width_{bits}", sat(bits, 2, kind=kind, value=9), (),
              f"error: {{problem}}: variables[0]: width must be at least 1, got {bits}")
      for kind in ("equal_const", "sum_equals") for bits in (-1, 0)),
    # a range bound is written as a power of two, never built
    *(Refusal(f"equal_const_width_{bits}", sat(bits, 2, value=-1), (),
              "error: {problem}: constraints[0]: value -1 outside the range of 'a' "
              f"(0..2**{bits}-1)")
      for bits in (20_000, 200_000_000)),
    *(Refusal(f"sum_equals_width_{bits}", sat(bits, 2, kind="sum_equals", value=-1), (),
              "error: {problem}: constraints[0]: value -1 outside the achievable sum range "
              f"(0..2**{bits}+2**2-2)")
      for bits in (20_000, 200_000_000)),
    # the algorithm, and an option the chosen solver would ignore
    Refusal("sat_by_qpe", CROSS_SUMS, ("--algorithm", "qpe"),
            MISMATCH.format("qpe", "sat", "grover")),
    Refusal("tsp_by_grover", TSP, ("--algorithm", "grover"),
            MISMATCH.format("grover", "tsp", "qpe")),
    Refusal("threshold_on_tsp", TSP, ("--threshold", "0.5"),
            "error: --threshold applies to the grover solver only, not to qpe"),
    # the size plan, made before numpy loads: the cap counts the register a
    # solve samples, and what the solve holds must fit one state at the cap
    Refusal("two_1e8_bit_variables", TWO_1E8, (), SEARCH.format(200_000_000, 26)),
    # registers past the widest cap, whose arrays numpy could not allocate or address
    *(Refusal(f"sat_{bits}", sat(bits), CAP_58, SEARCH.format(bits, 58)) for bits in (60, 65, 66)),
    # a search register within the cap whose sign table is not
    Refusal("sign_table_past_the_cap", THREE_FLAGS, ("--max-qubits", "1", "--shots", "4"),
            "error: the sign table needs 48 bytes (a mask of 8 and 5 columns of 8) but a "
            "1-qubit cap allows 32"),
    Refusal("tsp_59", TSP_59, CAP_58, "error: 59 precision qubits requested but the cap is 58"),
    # numpy can address this packed mask and this batch row at the widest cap
    # but not allocate them
    Refusal("sat_58", sat(58), CAP_58, "error: Unable to allocate {...} for an array with shape "
            f"({1 << 58 >> 6},) and data type uint64", early=False, bounded=False),
    Refusal("tsp_58", TSP_58, CAP_58, "error: Unable to allocate {...} for an array with shape "
            "(1, 288230376151711744) and data type complex128", early=False, bounded=False),
    # the dump is written before the report, so a dump that cannot be opened
    # prints no report
    Refusal("dump_under_a_file", sat(2, value=1), ("--dump-circuit", "{tmp}/problem.json/c"),
            "error: [Errno 20] Not a directory: '{tmp}/problem.json/c'", early=False),
]

HOLE = re.compile(r"\{(problem|tmp|\.\.\.)\}")


def refuse(row: Refusal, tmp: Path) -> None:
    """Run the row through ``cli.main`` in process under tracemalloc, and
    assert each part of the refusal."""
    problem = row.problem
    if not isinstance(problem, Path):
        problem = tmp / "problem.json"
        problem.write_bytes(row.problem if isinstance(row.problem, bytes) else
                            json.dumps(row.problem).encode())
    args = [arg.replace("{tmp}", str(tmp)) for arg in row.args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, peak = traced_peak(cli.main, ["solve", "--input", str(problem), *args])
    err = err.getvalue()
    assert (code, out.getvalue(), err.count("\n"), err[-1:]) == (2, "", 1, "\n"), err
    assert "Traceback" not in err
    # one rule for every row: the line is the error with its holes filled
    fills = {"problem": re.escape(str(problem)), "tmp": re.escape(str(tmp)), "...": ".+"}
    parts = HOLE.split(row.error)  # text, hole, text, ...
    pattern = "".join(fills[p] if i % 2 else re.escape(p) for i, p in enumerate(parts))
    assert re.fullmatch(pattern, err[:-1]), err
    assert peak < 1 << 20 or not row.bounded, peak


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_refusal(row, tmp_path):
    # the solvers load before tracing, so the peak is the request's own
    from qsolve import grover_sat, qpe_tsp  # noqa: F401

    refuse(row, tmp_path)


LOADED_BY_A_SOLVE = {"numpy", "qsolve.grover_sat", "qsolve.qpe_tsp"}

EARLY_ROWS = """
import sys, tempfile
from pathlib import Path
from test_refusals import LOADED_BY_A_SOLVE, ROWS, refuse
with tempfile.TemporaryDirectory() as tmp:
    for row in ROWS:
        if row.early:
            refuse(row, Path(tmp))
            assert not LOADED_BY_A_SOLVE & set(sys.modules), row.name
            print(row.name)
"""


def test_early_refusals_load_neither_numpy_nor_a_solver():
    result = python("-c", EARLY_ROWS, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.split() == [row.name for row in ROWS if row.early]


NO_SPACE = "error: [Errno 28] No space left on device"
CLOSED = "error: stdout is closed, so no report can be written"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")

# ``qsolve *argv`` whose stdout is a pipe with its read end closed, /dev/full
# or closed (``>&-``), and its one stderr line; early ones load no numpy or
# solver. argparse alone would leave the help for the exit-time flush to
# fail, or print it to stderr and exit 0 where stdout is closed.
STDOUT_ROWS = [
    pytest.param("pipe", ("solve", "--input", str(UNIT_KAKURO)), "error: [Errno 32] Broken pipe",
                 False, id="solve_to_a_closed_pipe"),
    pytest.param("full", ("solve", "--input", str(CROSS_SUMS)), NO_SPACE, False,
                 id="solve_to_a_full_disk", marks=needs_dev_full),
    pytest.param("closed", ("solve", "--input", str(UNSAT)), CLOSED, True,
                 id="sat_solve_to_a_closed_stdout"),
    pytest.param("closed", ("solve", "--input", str(TSP)), CLOSED, True,
                 id="tsp_solve_to_a_closed_stdout"),
    pytest.param("full", ("--help",), NO_SPACE, True, id="help_to_a_full_disk",
                 marks=needs_dev_full),
    pytest.param("full", ("solve", "--help"), NO_SPACE, True, id="solve_help_to_a_full_disk",
                 marks=needs_dev_full),
    pytest.param("closed", ("--help",), CLOSED, True, id="help_to_a_closed_stdout"),
]


@pytest.mark.parametrize("stdout, argv, error, early", STDOUT_ROWS)
def test_stdout_refusal(stdout, argv, error, early):
    with contextlib.ExitStack() as stack:
        if stdout == "pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            stack.callback(os.close, write_end)
            where = {"stdout": write_end}
        elif stdout == "full":
            where = {"stdout": stack.enter_context(open("/dev/full", "w"))}
        else:  # Python starts with sys.stdout None
            where = {"wrap": ("sh", "-c", 'exec "$@" >&-', "sh")}
        # buffered, the output reaches stdout only when it is flushed
        result = python("-X", "importtime", "-m", "qsolve", *argv,
                        drop=("PYTHONUNBUFFERED",), text=True, **where)
    lines = result.stderr.splitlines()
    timed = [line for line in lines if line.startswith("import time:")]
    assert result.returncode == 2
    assert [line for line in lines if line not in timed] == [error]
    assert "Traceback" not in result.stderr
    assert not early or not LOADED_BY_A_SOLVE & {line.rpartition("|")[2].strip() for line in timed}
