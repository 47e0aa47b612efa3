"""Tests of the benchmark itself: self-time arithmetic on nested spans, the
metric names against BENCHMARK.json, and proof that tracing leaves report
bytes unchanged.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("graph_core.chromatic_number", 1.0, 6.0, 0),
        ("graph_core.clique_number", 2.0, 5.0, 1),
        ("spectra.eig_symmetric", 7.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 3.0, 2.0]
    m = layer_metrics(spans, {})
    # clique_number nested inside chromatic_number counts only once
    assert (m["graph_core.chi_s"], m["graph_core.omega_s"]) == (2.0, 3.0)
    assert m["graph_core.omega_calls"] == 1
    assert m["cli.self_s"] == 3.0
    assert sum(self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 4.0, 12.0, 0)]
    assert self_times(spans)[0] == 1.0


def test_tracer_records_nesting_with_its_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    def outer():
        return tracer.span("graph_core.clique_number", inner, (), {}) + 1

    assert tracer.span("graph_core.chromatic_number", outer, (), {}) == 8
    assert tracer.spans == [("graph_core.chromatic_number", 0.0, 3.0, -1),
                            ("graph_core.clique_number", 1.0, 2.0, 0)]
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _run_child(tmp_path, tag, op, trace):
    report, result = tmp_path / f"{tag}.{trace}.report", tmp_path / f"{tag}.{trace}.result"
    spec = {"src": str(ROOT / "src"), "trace": trace, "report": str(report),
            "result": str(result), "env": False, **op}
    if op["kind"] == "cli":
        spec["argv"] = [*op["argv"], "--path", str(report)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                   cwd=ROOT, env=env, check=True, timeout=120)
    res = json.loads(result.read_text())
    assert res["error"] is None and res["rc"] == 0
    return report.read_bytes(), res["layers"]


@pytest.fixture(scope="module")
def petersen_file(tmp_path_factory):
    from specgraph import graph_core, graph_families
    path = tmp_path_factory.mktemp("graphs") / "petersen.txt"
    path.write_text(graph_core.to_edge_list(graph_families.petersen()))
    return path


@pytest.mark.parametrize("tag, argv", [
    ("verify", ["verify", "--families", "petersen,K_4,paley_9,I_3_2,C_5"]),
    ("chars", ["chars", "5", "--ext", "2"]),
    ("spec", ["spec", "paley:13", "--closed-form"]),
    ("iso", ["iso", "shrikhande", "rook_twin"]),
])
def test_tracing_leaves_report_bytes_unchanged(tmp_path, tag, argv):
    op = {"kind": "cli", "argv": argv}
    plain, none = _run_child(tmp_path, tag, op, False)
    traced, layers = _run_child(tmp_path, tag, op, True)
    assert none is None
    assert traced == plain
    assert layers["spans"] > 0
    assert set(layers) >= set(run.PER_LAYER) - {"graph_core.cap_refusals", "bounds.skip_ratio",
                                                 "cli.report_bytes", "trace.overhead_s",
                                                 "error_rate"}


def test_traced_automorphism_count_is_unchanged(tmp_path, petersen_file):
    op = {"kind": "aut", "graph": str(petersen_file), "name": "petersen.txt"}
    plain, _ = _run_child(tmp_path, "aut", op, False)
    traced, layers = _run_child(tmp_path, "aut", op, True)
    assert traced == plain
    assert json.loads(plain)["automorphisms"] == 120
    assert layers["graph_core.aut_s"] > 0
