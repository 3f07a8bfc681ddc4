"""The demo scripts' stdout, byte for byte, against reports pinned in
tests/golden/, natively and with numpy's SIMD loops held to the x86-64
baseline, and their refusal of bad input; and the benchmark's op-by-op
replay against the CLI's golden reports."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_goldens import BASELINE_DISPATCH, CASES, needs_baseline_dispatch

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# tsp_demo.py on the 8-node golden problem prints 2,520 rows (146 KB)
TSP_N8_DEMO_SHA256 = "098f4639de3df51c21abfd1036234c51f79d9e5a0d8b27619cd26a601b1d29b3"


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


@needs_baseline_dispatch
def test_demo_goldens_hold_at_the_baseline_simd_level():
    """The same seed prints the same bytes whichever SIMD loops numpy runs."""
    for script in ("tsp_demo.py", "kakuro_demo.py"):
        golden = GOLDEN / script.replace(".py", ".out")
        assert run_demo(script, env=BASELINE_DISPATCH) == golden.read_bytes()


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
    case = next(case for case in CASES if case.output == f"{name}.text.out")
    assert (result.returncode, result.stdout, result.stderr) == (
        case.code, (GOLDEN / case.output).read_bytes(), b""
    )
    assert json.loads(out.read_text().splitlines()[0])["counts"]["circuit.ops"] > 0
