"""Report bytes pinned two ways.

- Each command in COMMANDS runs cold, once with OpenBLAS/OpenMP set to one
  thread and once to two, and must print the same bytes both times: the group
  graphs' spectra call no BLAS, and the CLI pins the dense solves of the
  others to one thread whatever the environment says.
- Each command in DIGEST_COMMANDS runs in-process through `cli.main`, and the
  sha256 of its stdout and of its stderr, and its exit code, must equal those
  in `report_digests.json`. The KERNEL_BOUND reports print a dense solve's
  last bits, so their digests belong to the numpy and BLAS build and the
  OpenBLAS kernel recorded there, and skip under any other. The rest are
  portable: they are required whenever numpy's version is the recorded one,
  and one more test requires them in a child whose OpenBLAS is forced onto
  another kernel. A change that moves report bytes on purpose re-records
  them with `PYTHONPATH=src python tests/test_report_bytes.py`.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from specgraph import cli

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
DIGEST_FILE = pathlib.Path(__file__).with_name("report_digests.json")

COMMANDS = [
    pytest.param(["spec", "paley:729", "--closed-form"], id="paley_729"),
    pytest.param(["spec", "paley:1009", "--closed-form"], id="paley_1009"),
    pytest.param(["spec", "cube:11", "--kind", "laplacian", "--closed-form"],
                 id="cube_11_laplacian"),
    pytest.param(["spec", "halved_cube:11", "--closed-form"], id="halved_cube_11"),
    pytest.param(["spec", "decked_cube:11,11100000000", "--closed-form"], id="decked_cube_11"),
    # graphs without a group: a dense solve, which the CLI pins to one thread
    pytest.param(["spec", "sum_product:31", "--closed-form"], id="sum_product_31"),
    pytest.param(["spec", "full_sum_product:23", "--closed-form"], id="full_sum_product_23"),
    pytest.param(["spec", "wheel:2000", "--closed-form"], id="wheel_2000"),
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


# -- digests of every command kind --------------------------------------------

# written into the working directory, so that the echoed source is the bare name;
# petersen_relabelled.txt is Petersen with vertex v renamed [5, 2, 7, 1, 8, 4, 3,
# 6, 0, 9][v], so that the pinned iso mapping is not the identity and a change
# to the search that picks another isomorphism shows here
EDGE_LISTS = {"k1.txt": "1 0\n", "edgeless.txt": "4 0\n",
              "petersen_relabelled.txt": "10 15\n0 4\n0 5\n0 7\n1 4\n1 6\n1 8\n2 3\n2 4\n"
                                         "2 9\n3 6\n3 7\n5 6\n5 9\n7 8\n8 9\n"}

DIGEST_COMMANDS = {
    "verify": ["verify"],
    "chars_7": ["chars", "7"],
    "chars_9": ["chars", "9"],
    "chars_5_ext_2": ["chars", "5", "--ext", "2"],
    "spec_paley_13_closed_form": ["spec", "paley:13", "--closed-form"],
    "spec_petersen": ["spec", "petersen"],
    "spec_tutte_coxeter_laplacian": ["spec", "tutte_coxeter", "--kind", "laplacian"],
    "spec_sum_product_5_closed_form": ["spec", "sum_product:5", "--closed-form"],
    "spec_cube_4_laplacian_closed_form": ["spec", "cube:4", "--kind", "laplacian",
                                          "--closed-form"],
    "spec_halved_cube_5_closed_form": ["spec", "halved_cube:5", "--closed-form"],
    "spec_frucht_no_closed_form": ["spec", "frucht", "--closed-form"],
    "audit_petersen": ["audit", "petersen"],
    "audit_bi_paley_19_beta_16": ["audit", "bi_paley:19", "--caps", "beta=16"],
    "audit_k1_edge_list": ["audit", "k1.txt"],
    "audit_edgeless_edge_list": ["audit", "edgeless.txt"],
    "audit_sum_product_4": ["audit", "sum_product:4"],
    "audit_paley_17": ["audit", "paley:17"],
    "audit_incidence_3_3": ["audit", "incidence:3,3"],
    # the distance walk from every vertex of an asymmetric graph, from one
    # vertex farthest from 0 on a forest, and from vertex 0 of odd and even
    # cycles, which close inside the last layer and through a vertex with two
    # neighbours in it; cycle:3143 pins the group route (FFT spectra, one
    # root), which keeps a cycle of that size well under a second
    "audit_frucht": ["audit", "frucht"],
    "audit_tree_3_3": ["audit", "tree:3,3"],
    "audit_cycle_61": ["audit", "cycle:61"],
    "audit_cycle_64": ["audit", "cycle:64"],
    "audit_cycle_3143": ["audit", "cycle:3143"],
    "iso_heawood_bi_paley_7": ["iso", "heawood", "bi_paley:7"],
    "iso_shrikhande_rook_twin": ["iso", "shrikhande", "rook_twin"],
    "iso_petersen_relabelled": ["iso", "petersen", "petersen_relabelled.txt"],
    "gen_paley_13": ["gen", "paley:13"],
    "gen_shrikhande_dot": ["gen", "shrikhande", "--out", "dot"],
    "gen_cayley_json": ["gen", "cayley", "4,4", "1,0;3,0;0,1;0,3;1,1;3,3", "--out", "json"],
    "refuse_spec_cube_16": ["spec", "cube:16"],
    "refuse_gen_paley_15": ["gen", "paley:15"],
}

# the reports whose bytes moved under the forced Haswell, Sandybridge and
# Katmai kernels, each time the same 8; the other 23 held under all three
KERNEL_BOUND = {"verify", "spec_petersen", "audit_petersen", "spec_sum_product_5_closed_form",
                "audit_sum_product_4", "spec_frucht_no_closed_form", "audit_frucht",
                "audit_tree_3_3"}
PORTABLE = sorted(set(DIGEST_COMMANDS) - KERNEL_BOUND)
FORCED_CORE = "Katmai"  # an OpenBLAS kernel that no current x86-64 CPU picks


def blas_core() -> str | None:
    """The kernel that OpenBLAS's DYNAMIC_ARCH picked for this CPU (or that
    OPENBLAS_CORETYPE forced), from the scipy-openblas library that numpy
    ships in numpy.libs; None for another BLAS."""
    libs = pathlib.Path(np.__file__).resolve().parent.with_name("numpy.libs")
    lib = next(libs.glob("libscipy_openblas*"), None)
    corename = lib and getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
    if not corename:
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def build() -> dict:
    """The numpy version, the BLAS that numpy was built against and the
    kernel it runs: the last bits of a dense solve follow the kernel."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"],
            "blas_core": blas_core()}


def digest(argv) -> dict:
    """sha256 of stdout and of stderr, and the exit code, of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


def write_edge_lists(directory) -> None:
    for name, text in EDGE_LISTS.items():
        pathlib.Path(directory, name).write_text(text)


@pytest.mark.parametrize("name", sorted(DIGEST_COMMANDS))
def test_report_digest(name, tmp_path, monkeypatch):
    recorded = json.loads(DIGEST_FILE.read_text())
    keys = recorded["build"] if name in KERNEL_BOUND else ["numpy"]
    if any(build()[key] != recorded["build"][key] for key in keys):
        pytest.skip(f"digests were recorded under {recorded['build']}, this is {build()}")
    write_edge_lists(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert digest(DIGEST_COMMANDS[name]) == recorded["commands"][name]


def test_portable_digests_under_another_kernel(tmp_path):
    """The portable reports, run in one child whose OpenBLAS is forced onto
    FORCED_CORE, print the recorded bytes: a dense solve that reaches one of
    them fails here."""
    recorded = json.loads(DIGEST_FILE.read_text())
    if np.__version__ != recorded["build"]["numpy"] or blas_core() in (None, FORCED_CORE):
        pytest.skip(f"needs numpy {recorded['build']['numpy']} on OpenBLAS off {FORCED_CORE}")
    script = ("import json, sys, test_report_bytes as t; t.write_edge_lists('.'); "
              "got = {name: t.digest(t.DIGEST_COMMANDS[name]) for name in t.PORTABLE}; "
              "print(json.dumps({'core': t.blas_core(), 'commands': got}))")
    path = os.pathsep.join(filter(None, [str(SRC), str(pathlib.Path(__file__).parent),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE=FORCED_CORE, PYTHONPATH=path)
    child = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                           capture_output=True, text=True, check=True)
    got = json.loads(child.stdout)
    assert got["core"] == FORCED_CORE
    assert got["commands"] == {name: recorded["commands"][name] for name in PORTABLE}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        write_edge_lists(workdir)
        here = os.getcwd()
        os.chdir(workdir)
        try:
            commands = {name: digest(argv) for name, argv in sorted(DIGEST_COMMANDS.items())}
        finally:
            os.chdir(here)
    DIGEST_FILE.write_text(json.dumps({"build": build(), "commands": commands}, indent=2) + "\n")
