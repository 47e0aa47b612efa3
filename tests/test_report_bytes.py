"""Report bytes that must not depend on the BLAS thread count: each command
runs cold, once under one OpenBLAS/OpenMP thread and once under two, and
must print the same bytes both times."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

COMMANDS = [
    pytest.param(["spec", "paley:729", "--closed-form"], id="paley_729"),
    pytest.param(["spec", "paley:1009", "--closed-form"], id="paley_1009"),
    pytest.param(["spec", "cube:11", "--kind", "laplacian", "--closed-form"],
                 id="cube_11_laplacian"),
    pytest.param(["spec", "halved_cube:11", "--closed-form"], id="halved_cube_11"),
    pytest.param(["spec", "decked_cube:11,11100000000", "--closed-form"], id="decked_cube_11"),
]


def _stdout(argv, threads: int) -> bytes:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "specgraph.cli", *argv], env=env,
                          capture_output=True, check=True).stdout


@pytest.mark.parametrize("argv", COMMANDS)
def test_report_bytes_ignore_blas_threads(argv):
    assert _stdout(argv, 1) == _stdout(argv, 2)
