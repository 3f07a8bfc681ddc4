"""The demo scripts' stdout, byte for byte, against reports pinned in
tests/golden/, and their refusal of bad input; every golden report again
with numpy's SIMD loops held to the x86-64 baseline; the 24-bit search
register's reports at both SIMD levels; and the benchmark's op-by-op
replay against the same reports."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# tsp_demo.py on the 8-node golden problem prints 2,520 rows (146 KB)
TSP_N8_DEMO_SHA256 = "098f4639de3df51c21abfd1036234c51f79d9e5a0d8b27619cd26a601b1d29b3"


# numpy picks each loop's SIMD level at import; this holds it below AVX2 and FMA
BASELINE_DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}


def dispatched_features() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1
        return []
    return __cpu_dispatch__


def child_env(extra=()) -> dict:
    env = {**os.environ, **dict(extra)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def demo_process(script, *args, env=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, env=child_env(env),
    )


def run_demo(script, *args, env=()) -> bytes:
    result = demo_process(script, *args, env=env)
    assert (result.returncode, result.stderr) == (0, b"")
    return result.stdout


@pytest.mark.parametrize("script", ["tsp_demo.py", "kakuro_demo.py"])
def test_demo_prints_its_golden_report(script):
    golden = GOLDEN / script.replace(".py", ".out")
    assert run_demo(script) == golden.read_bytes()


# the CLI golden cases of test_cli.py, run in one child
BASELINE_CLI = """
import contextlib, io, json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
assert not __cpu_features__["X86_V3"], "AVX2/FMA loops are still dispatched"
from qsolve import cli
golden = Path(sys.argv[1])
codes = json.loads((golden / "exit_codes.json").read_text())
for problem in sys.argv[2:]:
    for output in ("text", "json"):
        name = Path(problem).stem + "." + output + ".out"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["solve", "--input", problem, "--output", output, "--seed", "0"])
        assert code == codes[name], name
        assert out.getvalue().encode() == (golden / name).read_bytes(), name
"""


needs_baseline_dispatch = pytest.mark.skipif(
    not set(BASELINE_DISPATCH["NPY_DISABLE_CPU_FEATURES"].split()) <= set(dispatched_features()),
    reason="numpy does not dispatch these x86-64 feature groups",
)


@needs_baseline_dispatch
def test_goldens_hold_at_the_baseline_simd_level():
    """The same seed prints the same bytes whichever SIMD loops numpy runs."""
    problems = [
        *sorted((ROOT / "problems").glob("*.json")),
        GOLDEN / "tsp_n8_seed0.json",
        GOLDEN / "readme_example.json",
        GOLDEN / "needle20.json",
    ]
    result = subprocess.run(
        [sys.executable, "-c", BASELINE_CLI, str(GOLDEN), *map(str, problems)],
        capture_output=True, env=child_env(BASELINE_DISPATCH),
    )
    assert result.returncode == 0, result.stderr.decode()
    for script in ("tsp_demo.py", "kakuro_demo.py"):
        golden = GOLDEN / script.replace(".py", ".out")
        assert run_demo(script, env=BASELINE_DISPATCH) == golden.read_bytes()


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize(
    "env",
    [
        pytest.param({}, id="native"),
        pytest.param(BASELINE_DISPATCH, id="baseline", marks=needs_baseline_dispatch),
    ],
)
def test_wide_search_register_prints_its_golden_reports(output, env):
    """A 24-bit search register (a 37-qubit layout, run at --max-qubits 64):
    its 16 MiB sign table, and the 2**24 outcome probabilities summed into the
    sampling CDF, where a sum that depends on the SIMD level would show in
    the report."""
    name = f"sat_wide24.{output}.out"
    result = subprocess.run(
        [
            sys.executable, "-m", "qsolve", "solve", "--input", str(GOLDEN / "sat_wide24.json"),
            "--max-qubits", "64", "--output", output,
        ],
        capture_output=True, env=child_env(env),
    )
    assert result.returncode == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert (result.stdout, result.stderr) == ((GOLDEN / name).read_bytes(), b"")


def test_tsp_demo_on_eight_nodes_prints_its_pinned_report():
    out = run_demo("tsp_demo.py", "--input", str(GOLDEN / "tsp_n8_seed0.json"))
    assert hashlib.sha256(out).hexdigest() == TSP_N8_DEMO_SHA256


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("tsp_demo.py", ["--seed", "-1"], "--seed must be non-negative, got -1"),
        ("tsp_demo.py", ["--shots", "0"], "--shots must be positive, got 0"),
        ("tsp_demo.py", ["--shots", "-5"], "--shots must be positive, got -5"),
        ("kakuro_demo.py", ["--seed", "-1"], "--seed must be non-negative, got -1"),
        ("kakuro_demo.py", ["--shots", "0"], "--shots must be positive, got 0"),
        ("kakuro_demo.py", ["--shots", "-5"], "--shots must be positive, got -5"),
        (
            "tsp_demo.py",
            ["--input", str(ROOT / "problems" / "kakuro_unit_sums.json")],
            "a 'sat' problem, not a tour problem",
        ),
        ("tsp_demo.py", ["--input", str(ROOT / "problems" / "missing.json")], "missing.json"),
        # 8 TB of draws, past a state at the default cap
        ("tsp_demo.py", ["--shots", str(10**12)], "needs more memory than a 26-qubit state"),
        ("kakuro_demo.py", ["--shots", str(10**12)], "needs more memory than a 26-qubit state"),
        # a bad --shots is refused before a bad --seed
        ("tsp_demo.py", ["--shots", "0", "--seed", "-1"], "--shots must be positive, got 0"),
        ("kakuro_demo.py", ["--shots", "0", "--seed", "-1"], "--shots must be positive, got 0"),
        (
            "tsp_demo.py",
            ["--shots", str(10**12), "--seed", "-1"],
            "needs more memory than a 26-qubit state",
        ),
        (
            "kakuro_demo.py",
            ["--shots", str(10**12), "--seed", "-1"],
            "needs more memory than a 26-qubit state",
        ),
    ],
    ids=[
        "tsp_seed_-1", "tsp_shots_0", "tsp_shots_-5",
        "kakuro_seed_-1", "kakuro_shots_0", "kakuro_shots_-5",
        "tsp_sat_file", "tsp_missing_file",
        "tsp_shots_1e12", "kakuro_shots_1e12",
        "tsp_shots_0_seed_-1", "kakuro_shots_0_seed_-1",
        "tsp_shots_1e12_seed_-1", "kakuro_shots_1e12_seed_-1",
    ],
)
def test_demo_refuses_bad_input_before_any_output(script, args, message):
    result = demo_process(script, *args)
    assert result.returncode == 2
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    last = result.stderr.decode().splitlines()[-1]
    assert "error: " in last and message in last


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize(
    "script, args",
    [
        ("kakuro_demo.py", []),
        ("tsp_demo.py", []),
        # 146 KB: the write fails mid-report, not at the last flush
        ("tsp_demo.py", ["--input", str(GOLDEN / "tsp_n8_seed0.json")]),
    ],
    ids=["kakuro", "tsp", "tsp_n8"],
)
def test_demo_on_a_full_disk_exits_two(script, args):
    # buffered, the report reaches the disk only when stdout is flushed
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *args],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert result.returncode == 2
    assert [line for line in result.stderr.splitlines() if line.startswith("error:")] == [
        "error: [Errno 28] No space left on device"
    ]
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize("script", ["kakuro_demo.py", "tsp_demo.py"])
def test_demo_help_on_a_full_disk_exits_two(script):
    # buffered, argparse's help would reach the disk only at the exit-time flush
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), "--help"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert result.returncode == 2
    assert result.stderr.splitlines() == ["error: [Errno 28] No space left on device"]


@pytest.mark.parametrize("script", ["kakuro_demo.py", "tsp_demo.py"])
def test_demo_help_prints_its_usage_and_exits_zero(script):
    result = demo_process(script, "--help")
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout.startswith(f"usage: {script} [-h]".encode())
    assert b"--shots SHOTS" in result.stdout


@pytest.mark.parametrize("name", ["kakuro_unit_sums", "tsp_four_cities", "unsat_pair"])
def test_benchmark_replay_prints_the_golden_report(tmp_path, name):
    """`perfbench/traced.py replay` runs each circuit op by op through
    `apply_gate_in_place`; it must print the CLI's report and exit code."""
    out = tmp_path / "record.jsonl"
    traced, problem = ROOT / "perfbench" / "traced.py", ROOT / "problems" / f"{name}.json"
    result = subprocess.run(
        [sys.executable, str(traced), "replay", str(problem), "0", str(out)],
        capture_output=True, env=child_env(),
    )
    golden = f"{name}.text.out"
    assert result.returncode == json.loads((GOLDEN / "exit_codes.json").read_text())[golden]
    assert (result.stdout, result.stderr) == ((GOLDEN / golden).read_bytes(), b"")
    assert json.loads(out.read_text().splitlines()[0])["counts"]["circuit.ops"] > 0
