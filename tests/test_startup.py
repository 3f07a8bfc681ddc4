"""What a fresh interpreter loads, and in what order: importing qsolve loads
OpenBLAS single-threaded unless told otherwise, a small solve loads neither
numpy nor the simulator, a solve loads qsolve.circuit only to dump its
circuit, a wide one leaves numpy.random and dataclasses out,
every qsolve module compiles before numpy loads, and a solve process freezes
its objects out of the exit-time collections yet runs atexit hooks.

Each case runs in a fresh interpreter whose environment is built here
without OPENBLAS_NUM_THREADS: this process has imported qsolve, so its own
environment would pass the package's default down to the child.
"""

import os
from pathlib import Path

import pytest

from checkout import CROSS_SUMS, EIGHT_CITIES, GOLDEN, ROOT, TSP, UNIT_KAKURO, UNSAT, python

needs_task_list = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task to count threads"
)

REPORT = (
    "import os, qsolve\n"
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


def run_child(code, *args, **env_vars):
    result = python(
        "-c", code, *args, env=env_vars, drop=("OPENBLAS_NUM_THREADS",), text=True, cwd=ROOT
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
    code = cli.main(["solve", "--input", *sys.argv[1:]])
watched = ("numpy", "qsolve.circuit", "qsolve.statevector", "numpy.random", "secrets", "_hashlib",
           "dataclasses")
print(code, *(m for m in watched if m in sys.modules))
"""

# one solution of 2**20: a search too wide for the pure-Python kernels
NEEDLE = GOLDEN / "needle20.json"


@pytest.mark.parametrize(
    "args, output",
    [
        # a solve builds no circuit but the one it dumps: a TSP solve runs
        # the inverse Fourier transform as qsolve.qpe_tsp's checked triples
        pytest.param((CROSS_SUMS,), ["0"], id="kakuro_cross_sums-0"),
        pytest.param((UNSAT,), ["1"], id="unsat_pair-1"),
        pytest.param(
            (UNIT_KAKURO, "--dump-circuit", os.devnull), ["0", "qsolve.circuit"],
            id="kakuro_unit_sums-dump-0",
        ),
        pytest.param((TSP,), ["0"], id="tsp_four_cities-0"),
        pytest.param((EIGHT_CITIES,), ["0"], id="tsp_n8_seed0-0"),
        pytest.param(
            (TSP, "--dump-circuit", os.devnull), ["0", "qsolve.circuit"], id="tsp_four_cities-dump"
        ),
    ],
)
def test_a_small_solve_loads_neither_numpy_nor_the_simulator(args, output):
    assert run_child(SOLVE_THEN_REPORT, *map(str, args)) == output


def test_a_wide_solve_loads_numpy_but_not_numpy_random_or_dataclasses():
    # numpy.random imports secrets, whose hmac import loads libcrypto; numpy
    # does not import dataclasses, so only a qsolve record could
    assert run_child(SOLVE_THEN_REPORT, str(NEEDLE)) == ["0", "numpy", "qsolve.statevector"]


COMPILE_ORDER = """\
import contextlib, io, sys
from importlib.machinery import SourceFileLoader

numpy_loaded = {}
compile_source = SourceFileLoader.source_to_code


def source_to_code(self, data, path, *args, **kwargs):
    if self.name.split(".")[0] == "qsolve":
        numpy_loaded[self.name] = "numpy" in sys.modules
    return compile_source(self, data, path, *args, **kwargs)


SourceFileLoader.source_to_code = source_to_code
from qsolve import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["solve", "--input", sys.argv[1]])
print(code, *(f"{name}={loaded}" for name, loaded in sorted(numpy_loaded.items())))
"""


def test_every_qsolve_module_compiles_before_numpy_loads(tmp_path):
    # an empty bytecode cache makes every module compile from source, even
    # where __pycache__ directories hold bytecode from an earlier run; a wide
    # search is the solve that loads numpy, and every module but circuit and qpe_tsp
    modules = ("qsolve", "qsolve.cli", "qsolve.grover_sat", "qsolve.problems", "qsolve.scalar",
               "qsolve.statevector")
    output = run_child(COMPILE_ORDER, str(NEEDLE), PYTHONPYCACHEPREFIX=str(tmp_path))
    assert output == ["0", *(f"{name}=False" for name in modules)]


EXIT_HOOK = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
sys.argv = ["qsolve", "solve", "--input", "problems/tsp_four_cities.json"]
runpy.run_module("qsolve", run_name="__main__", alter_sys=True)
"""


def test_a_solve_process_freezes_its_objects_and_still_runs_atexit():
    *report, word, count = run_child(EXIT_HOOK)
    assert (" ".join(report), word) == ("[1, 4, 2, 3] length 7", "frozen")
    assert int(count) > 0


def test_the_installed_script_enters_where_python_m_does():
    # a text match: tomllib is not in Python 3.10
    assert 'qsolve = "qsolve.cli:process_main"' in (ROOT / "pyproject.toml").read_text()
    assert "sys.exit(process_main())" in (ROOT / "src" / "qsolve" / "__main__.py").read_text()
