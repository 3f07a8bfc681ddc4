"""Every pinned CLI report, exit code and ``--dump-circuit`` file, as one
table of cases run through one runner: natively, with numpy's SIMD loops
held to the x86-64 baseline, and with the smallest sign-table blocks and
CDF chunks. A new golden is one row of ``CASES``; generate its files with
the code as it was before the change under test, never with the change."""

import contextlib
import io
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

from checkout import CROSS_SUMS, EIGHT_CITIES, GOLDEN, TSP, UNIT_KAKURO, UNSAT, python
from qsolve import cli, problems
from qsolve import statevector as sv

# the README's example problem, the one golden case with an equal_const
README_EXAMPLE = GOLDEN / "readme_example.json"
# one solution of 2**20, found at t = 6: the golden case whose walk carries
# its amplitudes across schedule steps
NEEDLE = GOLDEN / "needle20.json"
# a 24-bit search register in a 37-qubit layout, within the default cap,
# which counts the search register: its 2**24 outcome probabilities are
# summed into the sampling CDF, where a sum that depends on the SIMD level
# would show in the report
WIDE = GOLDEN / "sat_wide24.json"
JSON = ("--output", "json")


class Case(NamedTuple):
    """``qsolve solve --input problem *args --seed seed``: its stdout is the
    golden file ``output`` and its exit code ``code``; when ``dump`` names a
    golden file, the run also writes ``--dump-circuit``, which must equal it."""

    problem: Path
    args: tuple[str, ...]
    seed: int
    output: str
    code: int
    dump: str | None


CASES = [
    Case(CROSS_SUMS, (), 0, "kakuro_cross_sums.text.out", 0, None),
    Case(CROSS_SUMS, JSON, 0, "kakuro_cross_sums.json.out", 0, None),
    Case(CROSS_SUMS, (), 0, "kakuro_cross_sums.text.out", 0, "kakuro_cross_sums.dump"),
    Case(UNIT_KAKURO, (), 0, "kakuro_unit_sums.text.out", 0, None),
    Case(UNIT_KAKURO, JSON, 0, "kakuro_unit_sums.json.out", 0, None),
    Case(UNIT_KAKURO, (), 0, "kakuro_unit_sums.text.out", 0, "kakuro_unit_sums.dump"),
    Case(TSP, (), 0, "tsp_four_cities.text.out", 0, None),
    Case(TSP, JSON, 0, "tsp_four_cities.json.out", 0, None),
    Case(TSP, (), 0, "tsp_four_cities.text.out", 0, "tsp_four_cities.dump"),
    Case(UNSAT, (), 0, "unsat_pair.text.out", 1, None),
    Case(UNSAT, JSON, 0, "unsat_pair.json.out", 1, None),
    Case(UNSAT, (), 0, "unsat_pair.text.out", 1, "unsat_pair.dump"),
    Case(EIGHT_CITIES, (), 0, "tsp_n8_seed0.text.out", 0, None),
    Case(EIGHT_CITIES, JSON, 0, "tsp_n8_seed0.json.out", 0, None),
    Case(EIGHT_CITIES, (), 0, "tsp_n8_seed0.text.out", 0, "tsp_n8_seed0.dump"),
    Case(README_EXAMPLE, (), 0, "readme_example.text.out", 0, None),
    Case(README_EXAMPLE, JSON, 0, "readme_example.json.out", 0, None),
    Case(README_EXAMPLE, (), 0, "readme_example.text.out", 0, "readme_example.dump"),
    Case(NEEDLE, (), 0, "needle20.text.out", 0, None),
    Case(NEEDLE, JSON, 0, "needle20.json.out", 0, None),
    Case(NEEDLE, (), 0, "needle20.text.out", 0, "needle20.dump"),
    Case(WIDE, (), 0, "sat_wide24.text.out", 0, None),
    Case(WIDE, JSON, 0, "sat_wide24.json.out", 0, None),
]


def run(case: Case) -> tuple[int, str, str, bytes | None]:
    """``cli.main`` on the case, in process: the exit code, stdout, stderr,
    and the dump's bytes (None for a case without a dump)."""
    argv = ["solve", "--input", str(case.problem), *case.args, "--seed", str(case.seed)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "circuit.txt"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--dump-circuit", str(dump)] if case.dump else argv)
        return code, out.getvalue(), err.getvalue(), dump.read_bytes() if case.dump else None


def row_id(case: Case) -> str:
    return case.dump or case.output


def golden(case: Case) -> tuple[int, str, str, bytes | None]:
    """What ``run`` must return for the case: stderr stays empty."""
    dump = (GOLDEN / case.dump).read_bytes() if case.dump else None
    return case.code, (GOLDEN / case.output).read_bytes().decode(), "", dump


@pytest.mark.parametrize("case", CASES, ids=row_id)
def test_row_prints_its_golden_report(case):
    assert run(case) == golden(case)


# numpy picks each loop's SIMD level at import; this holds it below AVX2 and FMA
BASELINE_DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}


def dispatched_features() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1
        return []
    return __cpu_dispatch__


needs_baseline_dispatch = pytest.mark.skipif(
    not set(BASELINE_DISPATCH["NPY_DISABLE_CPU_FEATURES"].split()) <= set(dispatched_features()),
    reason="numpy does not dispatch these x86-64 feature groups",
)

BASELINE_ROWS = """
from numpy._core._multiarray_umath import __cpu_features__
assert not __cpu_features__["X86_V3"], "AVX2/FMA loops are still dispatched"
from test_goldens import CASES, golden, row_id, run
for case in CASES:
    if case.seed == 0:
        assert run(case) == golden(case), row_id(case)
"""


@needs_baseline_dispatch
def test_seed_0_rows_hold_at_the_baseline_simd_level():
    """The same seed prints the same bytes whichever SIMD loops numpy runs."""
    result = python("-c", BASELINE_ROWS, env=BASELINE_DISPATCH, text=True)
    assert result.returncode == 0, result.stderr


def small_sat_json(case: Case) -> bool:
    """A JSON row of a SAT problem of at most 20 search bits, whose samples
    run in at most 2**13 chunks of 2**7 outcomes."""
    parsed = cli.parse_problem(case.problem)
    return "json" in case.args and parsed.kind == "sat" and (
        sum(var.bits for var in parsed.sat.vars) <= 20
    )


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("case", [case for case in CASES if small_sat_json(case)], ids=row_id)
def test_sat_output_holds_with_the_smallest_blocks_and_chunks(monkeypatch, case, seed):
    """Sign-table blocks of 2 words and CDF chunks of 2**7 outcomes change no
    byte of the JSON report, histogram included: the row's own seed against
    its golden, seeds 7 and 123 against an unpatched run. The carries and
    edges between them are crossed, and a register under 6 bits keeps its
    unused mask bits clear."""
    reseeded = case._replace(seed=seed)
    expected = golden(case) if seed == case.seed else run(reseeded)
    monkeypatch.setattr(problems, "TABLE_BLOCK", 2)
    monkeypatch.setattr(sv, "_CDF_CHUNK", 1 << 7)
    assert run(reseeded) == expected
