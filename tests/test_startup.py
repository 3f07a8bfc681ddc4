"""What a fresh interpreter loads: importing qsolve loads OpenBLAS
single-threaded unless told otherwise, and a solve leaves numpy.random out.

Each case runs in a fresh interpreter whose environment is built here
without OPENBLAS_NUM_THREADS: this process has imported qsolve, so its own
environment would pass the package's default down to the child.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

needs_task_list = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task to count threads"
)

REPORT = (
    "import os, qsolve\n"
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


def run_child(code, **env_vars):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update(env_vars)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def import_qsolve(preamble="", **env_vars):
    threads, value = run_child(preamble + REPORT, **env_vars)
    return int(threads), value


@needs_task_list
def test_import_starts_no_blas_worker_threads():
    assert import_qsolve() == (1, "1")


@needs_task_list
def test_a_preset_thread_count_wins():
    assert import_qsolve(OPENBLAS_NUM_THREADS="2")[1] == "2"


@needs_task_list
def test_numpy_loaded_first_leaves_the_variable_unset():
    assert import_qsolve("import numpy\n")[1] == "None"


SOLVE_THEN_REPORT = """\
import contextlib, io, sys
from qsolve import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["solve", "--input", f"problems/{name}.json"])
             for name in ("kakuro_cross_sums", "unsat_pair", "tsp_four_cities")]
print(*codes, "numpy" in sys.modules)
print(*(m for m in ("numpy.random", "secrets", "_hashlib") if m in sys.modules))
"""


def test_a_solve_loads_numpy_but_not_numpy_random():
    # numpy.random imports secrets, whose hmac import loads libcrypto
    assert run_child(SOLVE_THEN_REPORT) == ["0", "1", "0", "True"]
