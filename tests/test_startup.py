"""Importing qsolve loads OpenBLAS single-threaded unless told otherwise.

Each case imports qsolve in a fresh interpreter whose environment is built
here without OPENBLAS_NUM_THREADS: this process has imported qsolve, so
its own environment would pass the package's default down to the child.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task to count threads"
)

REPORT = (
    "import os, qsolve\n"
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


def import_qsolve(preamble="", **env_vars):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update(env_vars)
    result = subprocess.run(
        [sys.executable, "-c", preamble + REPORT], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    threads, value = result.stdout.split()
    return int(threads), value


def test_import_starts_no_blas_worker_threads():
    assert import_qsolve() == (1, "1")


def test_a_preset_thread_count_wins():
    assert import_qsolve(OPENBLAS_NUM_THREADS="2")[1] == "2"


def test_numpy_loaded_first_leaves_the_variable_unset():
    assert import_qsolve("import numpy\n")[1] == "None"
