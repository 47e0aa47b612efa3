"""Command-line front end: artifact schemas, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgraph import __version__
from specgraph import bounds as bd
from specgraph import characters as ch
from specgraph import cli
from specgraph import corpus as corpus_mod
from specgraph import finite_field as ff
from specgraph import graph_core as gc
from specgraph import graph_families as gf
from specgraph import groups
from specgraph import spectra as sp

import graph_fixtures as fx

_RECORD_SCHEMA = {
    "type": "object",
    "required": ["name", "status"],
    "properties": {
        "name": {"type": "string"},
        "status": {"enum": ["pass", "fail", "skipped"]},
    },
}

# The shape of each command's JSON report, by command name.
SCHEMAS = {
    "gen": {
        "type": "object",
        "required": ["version", "config", "n", "edges"],
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "edges": {"type": "array", "items": {"type": "array",
                                                 "items": {"type": "integer"}}},
        },
    },
    "spec": {
        "type": "object",
        "required": ["version", "config", "spectrum"],
        "properties": {
            "spectrum": {
                "type": "object",
                "required": ["kind", "entries"],
                "properties": {"entries": {"type": "array"}},
            },
        },
    },
    "chars": {
        "type": "object",
        "required": ["version", "config", "rows"],
        "properties": {
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["field", "sum_type", "indices", "re", "im",
                                 "magnitude", "bound", "pass"],
                },
            },
        },
    },
    "audit": {
        "type": "object",
        "required": ["version", "config", "audit"],
        "properties": {"audit": {"type": "object",
                                 "properties": {"records": {"type": "array",
                                                            "items": _RECORD_SCHEMA}}}},
    },
    "verify": {
        "type": "object",
        "required": ["version", "config", "graphs", "summary"],
    },
    "iso": {
        "type": "object",
        "required": ["version", "config", "verdict"],
    },
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strict_json(text: str):
    """Parse a report, refusing the NaN and Infinity tokens strict JSON lacks."""
    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [
    ["gen", "cycle", "5", "--out", "json"],
    ["spec", "petersen"],
    ["spec", "paley:13", "--closed-form"],
    ["spec", "cube:4", "--kind", "laplacian", "--closed-form"],
    ["chars", "5"],
    ["chars", "3", "--ext", "2"],
    ["audit", "petersen"],
    ["verify"],
    ["iso", "heawood", "bi_paley:7"],
], ids=lambda argv: "_".join(argv))
def test_report_matches_its_schema(argv, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    jsonschema.validate(strict_json(out), SCHEMAS[argv[0]])


def test_emit_refuses_nan(capsys):
    with pytest.raises(ValueError):
        cli._emit({"value": float("nan")}, {}, None)


@pytest.mark.parametrize("argv", [["verify"], ["audit", "sum_product:4"], ["chars", "27"],
                                  ["chars", "5", "--ext", "3"]],
                         ids=["verify", "audit_sum_product_4", "chars_27", "chars_5_ext_3"])
def test_report_bytes_repeat(argv, capsys):
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("argv,calls", [
    (["spec", "paley:29", "--closed-form"], 0),
    (["spec", "cube:4", "--kind", "laplacian", "--closed-form"], 0),
    (["spec", "petersen", "--closed-form"], 1),
    (["verify", "--families", "petersen"], 1),
    (["verify", "--families", "paley_5"], 1),
], ids=["spec_paley_29", "spec_cube_4_laplacian", "spec_petersen", "verify_one_graph",
        "verify_one_group_graph"])
def test_each_matrix_is_solved_once(argv, calls, capsys, monkeypatch):
    """The closed-form check and the audit reuse the spectra already solved,
    and a regular graph's laplacian spectrum comes from its adjacency solve.
    A group graph's spectrum needs no solve; verify solves its edges once, to
    check the character sums."""
    solve = sp._solve
    seen = []

    def counted(m, singular):
        seen.append((m.shape, singular))
        return solve(m, singular)

    monkeypatch.setattr(sp, "_solve", counted)
    code, out = run(capsys, *argv)
    assert code == 0 and len(seen) == calls, seen
    doc = json.loads(out)
    if "--closed-form" in argv:
        assert doc["closed_form"]["match"]["ok"]
    else:
        assert doc["graphs"][0]["closed_form"]["ok"]


@pytest.mark.parametrize("source", ["star:6", "complete_bipartite:3,4", "path:6"])
def test_bipartite_spectra_carry_no_negative_zero(source, capsys):
    """The zero padding and exactly-zero singular values come out as +0.0."""
    code, out = run(capsys, "spec", source)
    assert code == 0
    values = [e["value"] for e in json.loads(out)["spectrum"]["entries"]]
    assert not any(v == 0 and math.copysign(1.0, v) < 0 for v in values)


@pytest.fixture
def row_builds(monkeypatch):
    """The groups.translate calls made: a group graph builds its neighbour
    rows from one, and nothing else calls it."""
    calls = []
    translate = groups.translate

    def counted(orders, steps):
        calls.append(orders)
        return translate(orders, steps)

    monkeypatch.setattr(groups, "translate", counted)
    return calls


def test_group_spec_builds_no_rows(capsys, row_builds):
    """spec of a group graph reads n, the edge count, the degree and the
    spectrum from its group: no rows and far less memory than cube:11's
    rows alone (2.7 MB)."""
    tracemalloc.start()
    try:
        code, out = run(capsys, "spec", "cube:11", "--kind", "laplacian", "--closed-form")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["closed_form"]["match"]["ok"]
    assert row_builds == []
    assert peak < 2**21


@pytest.mark.parametrize("source", ["halved_cube:11", "decked_cube:11,11100000000"])
def test_cube_family_closed_form_needs_no_rows_or_solve(source, capsys, row_builds,
                                                        monkeypatch):
    """spec --closed-form of a halved or decked cube checks the group's
    character sums against the family's closed form, exactly."""
    monkeypatch.setattr(sp, "_solve", None)
    code, out = run(capsys, "spec", source, "--closed-form")
    match = json.loads(out)["closed_form"]["match"]
    assert code == 0 and match["ok"] and match["max_error"] == 0.0
    assert row_builds == []


def test_spec_refuses_a_group_graph_past_the_cap_without_rows(capsys, row_builds):
    """Neither the rows nor the element labels of cube:16 are built, so the
    refusal holds far less memory than its 65,536 labels (about 18 MB)."""
    tracemalloc.start()
    try:
        code = cli.main(["spec", "cube:16"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == "error: SizeOverflow: n = 65536 over eigensolver cap 4096\n"
    assert row_builds == []
    assert peak < 2**21


def test_group_graph_labels_are_built_on_first_read(monkeypatch):
    calls = []
    labels = groups.Group.labels
    monkeypatch.setattr(groups.Group, "labels", lambda group: calls.append(group) or labels(group))
    g, h = gf.cube(3), gf.heawood()
    assert calls == []
    assert g.labels[:2] == ("(0, 0, 0)", "(0, 0, 1)") and len(g.labels) == 8
    assert h.labels[0] == "(0,)b" and h.labels[7] == "(0,)w"
    assert calls == [g.group, h.group]
    assert gf.paley(5).labels == ("0", "1", "2", "3", "4") and gf.bi_paley(7).labels is None


def test_verify_builds_and_solves_each_graph_once(capsys, monkeypatch):
    """The closed-form sweep reuses the 36 corpus graphs it shares, with
    their spectra and group checks, and builds only the 14 it adds."""
    builds, solves = [], []
    build, solve = gf.build, sp._solve
    monkeypatch.setattr(gf, "build", lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(sp, "_solve",
                        lambda m, singular: solves.append(m.shape) or solve(m, singular))
    code, _ = run(capsys, "verify")
    assert code == 0
    assert len(builds) == len(set(builds)) == 66
    assert len(solves) <= 82


def test_verify_solves_each_graph_and_kind_once(capsys, monkeypatch):
    """Each solve and each group spectrum (one FFT of the connection set) that
    verify makes is the first read of one (graph, kind): the regular graphs'
    laplacian spectra read their adjacency values, and the audit reads those
    that the closed-form check solved. verify made 77 solves and 35 group
    spectra before each graph kept its spectra."""
    reading, made, graphs = [], [], []
    values, solve, group_values = sp._values, sp._solve, sp._group_values

    def read(g, kind):
        graphs.append(g)  # held, so that no two graphs share an id
        reading.append((id(g), kind))
        try:
            return values(g, kind)
        finally:
            reading.pop()

    monkeypatch.setattr(sp, "_values", read)
    monkeypatch.setattr(sp, "_solve",
                        lambda m, singular: made.append(reading[-1]) or solve(m, singular))
    monkeypatch.setattr(sp, "_group_values",
                        lambda group: made.append(reading[-1]) or group_values(group))
    code, _ = run(capsys, "verify")
    assert code == 0
    assert len(made) == len(set(made)) == 77 + 35


def test_verify_work_counts_are_pinned(capsys, monkeypatch):
    """The work one verify does, counted where it happens: 66 builds, 77
    dense solves, 52 beta sweeps and 52 audits (one per corpus graph), 35
    character sums (one per group graph) and 66 breadth-first searches, one
    per graph built: the group check's edge solve reads its graph's
    2-colouring rather than searching the same edges again, which took 98.
    A change that builds, solves, sweeps or searches twice fails here."""
    counts = dict.fromkeys(["build", "_solve", "isoperimetric_constant", "audit_bounds",
                            "character_sum", "_search"], 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    for owner, name in [(gf, "build"), (sp, "_solve"), (gc, "isoperimetric_constant"),
                        (bd, "audit_bounds"), (groups, "character_sum"),
                        (gc.Graph, "_search")]:
        counted(owner, name)
    code, _ = run(capsys, "verify")
    assert code == 0
    assert counts == {"build": 66, "_solve": 77, "isoperimetric_constant": 52,
                      "audit_bounds": 52, "character_sum": 35, "_search": 66}


def test_verify_engine_node_counts_are_pinned(capsys, monkeypatch):
    """The nodes of the exact engines in one verify, counted as time-budget
    checks: 375 inside the clique search and 715 in all. A search that
    visits more nodes fails here."""
    counts = {"all": 0, "clique": 0}
    depth = [0]
    check, max_clique = gc._Deadline.check, gc._max_clique

    def counted_check(self):
        counts["all"] += 1
        counts["clique"] += depth[0] > 0
        return check(self)

    def counted_clique(*args):
        depth[0] += 1
        try:
            return max_clique(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(gc._Deadline, "check", counted_check)
    monkeypatch.setattr(gc, "_max_clique", counted_clique)
    code, _ = run(capsys, "verify")
    assert code == 0
    assert counts == {"all": 715, "clique": 375}


def test_audit_refuses_past_the_eigensolver_cap_before_the_invariants(capsys, monkeypatch):
    monkeypatch.setattr(gc, "invariant_report", None)
    assert cli.main(["audit", "path:5000"]) == 2
    assert capsys.readouterr().err == "error: SizeOverflow: n = 5000 over eigensolver cap 4096\n"


_FREEZE_PROBE = textwrap.dedent("""
    import gc, json, sys, weakref
    import numpy
    import specgraph.cli as cli
    facts = {"enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}
    class Node:
        pass
    a, b = Node(), Node()
    a.other, b.other = b, a
    ref = weakref.ref(a)
    del a, b
    gc.collect()
    facts["cycle_reclaimed"] = ref() is None
    facts["rc"] = cli.main(["verify", "--path", sys.argv[1]])
    gc.collect()
    facts["garbage"] = len(gc.garbage)
    print(json.dumps(facts))
""")


def test_import_freezes_heap_and_keeps_collector(tmp_path):
    """Importing the CLI freezes what is alive at that point and leaves the
    collector on: a cycle made afterwards is reclaimed, and a run leaves
    nothing uncollectable.  A fresh interpreter, as the freeze happens once
    per process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _FREEZE_PROBE, str(tmp_path / "verify.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts["enabled"] and facts["frozen"] > 0
    assert facts["cycle_reclaimed"]
    assert facts["rc"] == 0 and facts["garbage"] == 0


def test_closed_stdout_exits_quietly():
    """A reader that stops early, as `chars 27 | head -c 100` does, gets exit
    1 and no traceback: the report is far longer than a pipe buffer, so the
    writer meets the closed pipe."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "specgraph.cli", "chars", "27"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_gen_edge_list(capsys):
    code, out = run(capsys, "gen", "paley", "13")
    assert code == 0
    g = gc.parse_edge_list(out)
    assert g.n == 13 and g.is_regular and g.max_degree == 6


def test_gen_deterministic(capsys):
    _, first = run(capsys, "gen", "shrikhande", "--out", "json")
    _, second = run(capsys, "gen", "shrikhande", "--out", "json")
    assert first == second


def test_gen_dot(capsys):
    code, out = run(capsys, "gen", "complete", "3", "--out", "dot")
    assert code == 0
    assert out.startswith("graph G {") and "0 -- 1;" in out


def test_gen_json_schema(capsys):
    code, out = run(capsys, "gen", "cycle", "5", "--out", "json")
    doc = json.loads(out)
    assert doc["n"] == 5 and len(doc["edges"]) == 5
    assert doc["version"] and doc["config"]["seed"] == cli.DEFAULT_SEED


def test_spec_with_closed_form(capsys):
    code, out = run(capsys, "spec", "paley:13", "--closed-form")
    doc = json.loads(out)
    assert code == 0
    assert doc["closed_form"]["match"]["ok"]
    entries = doc["spectrum"]["entries"]
    assert sum(e["multiplicity"] for e in entries) == 13


def test_spec_laplacian(capsys):
    code, out = run(capsys, "spec", "petersen", "--kind", "laplacian")
    doc = json.loads(out)
    assert [e["value"] for e in doc["spectrum"]["entries"]] == pytest.approx([5, 2, 0])


def test_spec_accepts_file(tmp_path, capsys):
    target = tmp_path / "pet.el"
    target.write_text(gc.to_edge_list(fx.petersen_drawing_fixture()))
    code, out = run(capsys, "spec", str(target))
    doc = json.loads(out)
    assert code == 0
    assert doc["graph"]["n"] == 10


def test_chars_table(capsys):
    code, out = run(capsys, "chars", "5")
    doc = json.loads(out)
    assert code == 0
    assert all(r["pass"] for r in doc["rows"])
    kinds = {r["sum_type"] for r in doc["rows"]}
    assert kinds == {"gauss", "jacobi", "kloosterman"}


def test_chars_with_extension(capsys):
    code, out = run(capsys, "chars", "3", "--ext", "2")
    doc = json.loads(out)
    assert code == 0
    assert any(r["sum_type"] == "eisenstein" for r in doc["rows"])


def test_audit_exit_zero(capsys):
    code, out = run(capsys, "audit", "petersen")
    doc = json.loads(out)
    assert code == 0
    assert doc["audit"]["failed"] == 0
    assert doc["config"]["seed"] == cli.DEFAULT_SEED


def test_audit_with_lowered_caps(capsys):
    code, out = run(capsys, "audit", "bi_paley:19", "--caps", "beta=16")
    doc = json.loads(out)
    assert code == 0
    skipped = {r["name"] for r in doc["audit"]["records"] if r["status"] == "skipped"}
    assert "alon_milman" in skipped


def test_caps_cannot_be_raised():
    caps = cli._parse_caps("beta=99,chi=70")
    assert caps["beta"] == gc.BETA_CAP and caps["chi"] == gc.CHI_CAP


def test_cap_of_zero_skips_its_engines(capsys):
    """A cap of 0 is accepted, and echoed, and skips its engines; a negative
    cap is a usage error (USAGE_ERRORS)."""
    code, out = run(capsys, "audit", "petersen", "--caps", "chi=0")
    doc = json.loads(out)
    assert code == 0 and doc["config"]["caps"]["chi"] == 0
    notes = {r["note"] for r in doc["audit"]["records"] if r["status"] == "skipped"}
    assert notes == {"chromatic number capped", "independence number capped",
                     "clique number capped"}


def test_iso_isospectral_pair(tmp_path, capsys):
    target = tmp_path / "shri.el"
    target.write_text(gc.to_edge_list(fx.shrikhande_fixture()))
    code, out = run(capsys, "iso", str(target), "rook_twin")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "non-isomorphic; isospectral"


def test_iso_finds_mapping(capsys):
    code, out = run(capsys, "iso", "heawood", "bi_paley:7")
    doc = json.loads(out)
    assert doc["verdict"] == "isomorphic"
    assert len(doc["mapping"]) == 14


@pytest.mark.parametrize("argv,verdict,solves", [
    (["heawood", "bi_paley:7"], "isomorphic", 0),
    (["petersen", "petersen"], "isomorphic", 0),
    (["shrikhande", "rook_twin"], "non-isomorphic; isospectral", 2),
    (["petersen", "heawood"], "non-isomorphic", 2),
    (["shrikhande", "rook_twin", "--caps", "iso=8"], "undecided", 2)])
def test_iso_solves_spectra_only_without_an_isomorphism(argv, verdict, solves, capsys,
                                                        monkeypatch):
    """An isomorphism found makes the pair isospectral with no spectrum
    solve (the graph-core tests check the comparison on every isomorphic
    pair they build); a pair found non-isomorphic or left undecided takes the
    two solves."""
    spectrum, solved = sp.spectrum, []
    monkeypatch.setattr(sp, "spectrum", lambda g: solved.append(g) or spectrum(g))
    code, out = run(capsys, "iso", *argv)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == verdict and len(solved) == solves
    assert doc["isospectral"] is (verdict != "non-isomorphic")


def test_iso_undecided_over_cap(capsys):
    code, out = run(capsys, "iso", "shrikhande", "rook_twin", "--caps", "iso=8")
    doc = json.loads(out)
    assert doc["verdict"] == "undecided"
    assert doc["isospectral"] is True
    assert doc["note"].startswith("over the isomorphism cap;")


def test_iso_undecided_over_budget(capsys, monkeypatch):
    monkeypatch.setattr(gc, "EXACT_BUDGET_SECONDS", 0)
    code, out = run(capsys, "iso", "heawood", "bi_paley:7")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "undecided"
    assert doc["note"].startswith("over the time budget of the isomorphism search;")


def test_verify_subset(capsys):
    code, out = run(capsys, "verify", "--families", "petersen,K_5,paley_13,heawood")
    doc = json.loads(out)
    assert code == 0
    assert doc["summary"] == {"graphs": 4, "failures": 0}


def test_gen_raw_cayley(capsys):
    code, out = run(capsys, "gen", "cayley", "4,4", "1,0;3,0;0,1;0,3;1,1;3,3")
    assert code == 0
    g = gc.parse_edge_list(out)
    assert gc.is_isomorphic(g, gf.shrikhande())[0]


BAD = "error: BadParameters: "
EDGE_LIST = "an edge list is an 'n m' header and 'u v' integer pairs\n"

# id: (argv, the start of the error line; None for an argparse usage error,
# which exits 2 with its own message)
USAGE_ERRORS = {
    "unknown_family": (["gen", "nonesuch"], "error: "),
    "chars_12": (["chars", "12"], "error: "),
    "chars_1": (["chars", "1"], "error: "),
    "chars_ext_0": (["chars", "5", "--ext", "0"], "error: SpecMismatch: "),
    "oversized_cube": (["spec", "cube:25"], "error: SizeOverflow: "),
    "oversized_complete": (["gen", "complete:4097"], "error: SizeOverflow: "),
    "oversized_cayley_group": (["gen", "cayley", "100000000", "1;99999999"],
                               "error: SizeOverflow: "),
    "oversized_cube_of_more_digits_than_python_writes": (["gen", "cube:15000"],
                                                         "error: SizeOverflow: "),
    "parameter_of_more_digits_than_python_reads": (["gen", "complete:" + "9" * 5000],
                                                   BAD + "complete: n has 5000 digits"),
    "decked_cube_digit_not_a_bit": (["gen", "decked_cube:3,013"],
                                    BAD + "extra generator must be bits, got '013'\n"),
    "caps_not_integer": (["audit", "complete:3", "--caps", "beta=abc"], "error: "),
    "caps_unknown_key": (["audit", "complete:3", "--caps", "gamma=1"], "error: "),
    "caps_negative": (["audit", "petersen", "--caps", "chi=-3"],
                      BAD + "cap chi must be at least 0, got -3\n"),
    "empty_edge_list": (["spec", "{empty}"], "error: "),
    "non_integer_edge_list": (["spec", "{non_integer}"], "error: "),
    "weighted_edge_list": (["spec", "{weighted}"], BAD + EDGE_LIST),
    "long_header_edge_list": (["spec", "{long_header}"], BAD + EDGE_LIST),
    "duplicate_edge": (["spec", "{duplicate}"], "error: "),
    "reversed_duplicate_edge": (["spec", "{reversed_duplicate}"], "error: "),
    "huge_header": (["audit", "{huge_header}"], "error: SizeOverflow: edge list header: "),
    "rook_1": (["gen", "rook:1"], BAD + "rook graph needs n >= 2\n"),
    "extended_e_9": (["gen", "extended_ade:E,9"], BAD + "extended E_n needs n in {6,7,8}\n"),
    "missing_parameter": (["gen", "cube"], BAD),
    "extra_parameter": (["gen", "paley:13,5"], BAD),
    "non_integer_parameter": (["gen", "paley:x"], BAD),
    "decimal_fraction_parameter": (["gen", "complete:2.5"], BAD),
    "non_integer_second_parameter": (["gen", "tree:3,x"], BAD),
    "non_integer_group_order": (["gen", "machine:x"], BAD),
    "missing_generators": (["gen", "cayley:4"], BAD),
    "zero_group_order": (["gen", "cayley", "0", "1"], BAD),
    "zero_bi_cayley_group_order": (["gen", "bi_cayley", "0", "0"], BAD),
    "negative_group_order": (["gen", "cayley", "-3", "1"], BAD),
    "negative_machine_orders": (["gen", "machine:-1,-3"], BAD + "group orders must be at least 1"),
    "generator_shorter_than_group": (["gen", "cayley", "4,4", "1"], BAD),
    "generator_longer_than_group": (["gen", "cayley", "4", "1,0"], BAD),
    "non_integer_closed_form_parameter": (["spec", "paley:x", "--closed-form"], BAD),
    "source_is_a_directory": (["spec", "{directory}"], BAD),
    "source_not_utf8": (["spec", "{not_utf8}"], BAD),
    "unwritable_path": (["gen", "paley", "5", "--path", "{directory}/missing/x"], BAD),
    "unwritable_chars_path": (["chars", "5", "--path", "{directory}/missing/x"], BAD),
    "oversized_chars": (["chars", "65536"], "error: SizeOverflow: "),
    "oversized_prime_chars": (["chars", "1000000007"], "error: SizeOverflow: "),
    "oversized_chars_ext": (["chars", "2", "--ext", "24"], "error: SizeOverflow: "),
    "oversized_eisenstein": (["chars", "81", "--ext", "3"], "error: SizeOverflow: "),
    "unknown_corpus_id": (["verify", "--families", "nosuch"], BAD + "unknown corpus id 'nosuch'"),
    "unknown_and_known_corpus_ids": (["verify", "--families", "petersen,nosuch"],
                                     BAD + "unknown corpus id 'nosuch'\n"),
    "caps_on_gen": (["gen", "paley:13", "--caps", "chi=3"], None),
    "caps_on_spec": (["spec", "paley:13", "--caps", "chi=3"], None),
    "caps_on_chars": (["chars", "5", "--caps", "chi=3"], None),
}


@pytest.mark.parametrize("argv,err", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exit_code(argv, err, tmp_path, capsys):
    files = {"empty": "", "non_integer": "3 1\n0 x\n", "duplicate": "3 2\n0 1\n0 1\n",
             "reversed_duplicate": "3 2\n0 1\n1 0\n", "weighted": "3 2\n0 1 5\n1 2 7\n",
             "long_header": "3 2 7\n0 1\n1 2\n", "huge_header": "20000000 1\n0 1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "directory").mkdir()
    (tmp_path / "not_utf8").write_bytes(b"3 1\n0 \xff\n")
    argv = [a.format(**{k: tmp_path / k for k in [*files, "directory", "not_utf8"]})
            for a in argv]
    if err is None:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        return
    code = cli.main(argv)
    assert code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith(err) and "Traceback" not in stderr


@pytest.mark.parametrize("argv", [["spec", "{f}"], ["audit", "{f}"], ["iso", "{f}", "{f}"]],
                         ids=["spec", "audit", "iso"])
def test_edge_list_past_the_eigensolver_cap_is_refused_before_any_row(argv, tmp_path, capsys,
                                                                      monkeypatch):
    """spec, audit and iso refuse an edge list whose header n the eigensolver
    would refuse, with its message, before the graph's n rows exist; building
    them took seconds and hundreds of MB at n = 10^6."""
    path = tmp_path / "wide"
    path.write_text("1000000 1\n0 1\n")
    monkeypatch.setattr(gc, "_frozen", None)
    assert cli.main([a.format(f=path) for a in argv]) == 2
    assert capsys.readouterr().err == "error: SizeOverflow: n = 1000000 over eigensolver cap 4096\n"


@pytest.mark.parametrize("source", ["path:101", "star:101", "complete_bipartite:50,51"])
@pytest.mark.parametrize("argv", [["spec", "{f}"], ["audit", "{f}"], ["iso", "{f}", "{f}"]],
                         ids=["spec", "audit", "iso"])
def test_family_past_the_eigensolver_cap_is_refused_before_any_row(argv, source, capsys,
                                                                    monkeypatch):
    """A family source is refused by the eigensolver's cap as an edge list is,
    before any of its rows is built."""
    monkeypatch.setattr(sp, "EIG_SIZE_CAP", 100)
    monkeypatch.setattr(gc, "_frozen", None)
    assert cli.main([a.format(f=source) for a in argv]) == 2
    assert capsys.readouterr().err == "error: SizeOverflow: n = 101 over eigensolver cap 100\n"


@pytest.mark.parametrize("pair", [("petersen", "path:101"), ("path:101", "petersen")],
                         ids=["second", "first"])
def test_iso_refuses_an_oversized_source_before_any_spectrum(pair, capsys, monkeypatch):
    monkeypatch.setattr(sp, "EIG_SIZE_CAP", 100)
    monkeypatch.setattr(sp, "_solve", None)
    assert cli.main(["iso", *pair]) == 2
    assert capsys.readouterr().err == "error: SizeOverflow: n = 101 over eigensolver cap 100\n"


def test_gen_takes_an_edge_list_past_the_eigensolver_cap(tmp_path, capsys):
    path = tmp_path / "wide"
    text = f"{sp.EIG_SIZE_CAP + 1} 1\n0 1\n"
    path.write_text(text)
    assert run(capsys, "gen", str(path)) == (0, text)


@pytest.mark.parametrize("argv", [["gen", "cube:15000"], ["gen", "complete:" + "9" * 5000]],
                         ids=["order", "parameter"])
def test_huge_integers_are_refused_without_their_digits(argv, capsys):
    """An int past the digits that Python converts is neither written nor
    read in decimal: the refusal is one short line."""
    assert cli.main(argv) == 2
    assert len(capsys.readouterr().err) < 120


HUGE_Q = "1000000000000000000000000000057"  # a prime, 1 mod 4


@pytest.mark.parametrize("argv", [
    ["gen", "path:100000000"], ["gen", "star:100000000"], ["gen", "wheel:100000000"],
    ["gen", "windmill:100000000"], ["gen", "complete_bipartite:100000,100000"],
    ["gen", "tree:3,100000000"], ["gen", "tree:2,100000000"], ["gen", "sum_product:100003"],
    ["gen", "full_sum_product:100003"], ["gen", "ade:A,100000000"],
    ["gen", "extended_ade:D,100000000"], ["gen", "paley:" + HUGE_Q],
    ["gen", "bi_paley:1000000000000000000000000000059"], ["gen", "incidence:3," + HUGE_Q],
    ["gen", f"paley:{10**3999 + 1}"],  # 4,000 digits, which Python still writes
    ["gen", "incidence:1000000000000000,2"],
    ["gen", "cayley", "9" * 5000, "1"],
], ids=lambda argv: argv[1][:24])
def test_oversized_or_unreadable_input_is_refused_at_once(argv, capsys):
    """Sized from the parameters before an edge is built or q is factored,
    and the refusal echoes no more than a short prefix of its text."""
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200


# -- the command table and its argparse parser ----------------------------------

ARGPARSER = cli._argparser()


def _argparse(argv):
    """argparse's namespace of argv, or None where it exits (an error, help or
    --version), with what it prints swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return ARGPARSER.parse_args(argv)
        except SystemExit:
            return None


def _agrees_with_argparse(argv):
    """_parse accepts argv only where argparse does, with the same handler
    and fields; where argparse exits, _parse defers."""
    parsed, expected = cli._parse(argv), _argparse(argv)
    if expected is None:
        assert parsed is None
    elif parsed is not None:
        assert parsed[0] is expected.fn and vars(parsed[1]) == vars(expected)
    return parsed


OPTIONS = sorted({option for *_, options in cli.COMMANDS.values() for option in options})
# values that no type or choice takes, or that argparse may read as an option
ODD_VALUES = ["-3", "x", "1_0", " 7", "", "-", "--", "-h", "--seed", "chi=3"]


@st.composite
def argvs(draw):
    """Mostly a command, its positionals, then options, with values of the
    option's type and choices; and now and then a stray first word, a
    positional too few or too many, an option of another command, an option
    abbreviated, bare or as --name=value, a value that no type takes or that
    starts with "-", or a word moved to another place."""
    def value(usual):  # one time in eight an odd value
        return draw(st.sampled_from(usual if draw(st.integers(0, 7)) else ODD_VALUES))

    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, positionals, options = cli.COMMANDS[command]
    words = [command if draw(st.integers(0, 9)) else draw(st.sampled_from(["-h", "nonesuch"]))]
    extra = draw(st.sampled_from([0] * 5 + [1, 2, -1]))
    kinds = [kind for _, kind in positionals] + [str] * extra
    words += [value(["5", "27"] if kind is int else ["paley:13", "petersen", "3,3"])
              for kind in kinds[:len(kinds) + min(extra, 0)]]
    for _ in range(draw(st.integers(0, 4))):
        own = sorted(options) if draw(st.integers(0, 5)) else OPTIONS
        option = draw(st.sampled_from(own))
        kind, _, choices, _ = options.get(option, (str, None, None, None))
        given = value(choices or (["5", "0", "12"] if kind is int else
                                  ["a.json", "chi=3", "petersen,K_5"]))
        form = draw(st.sampled_from(["exact"] * 9 + ["abbreviated", "equals", "bare"]))
        if form == "abbreviated":
            words += [option[:draw(st.integers(3, len(option) - 1))], given]
        elif form == "equals":
            words.append(f"{option}={given}")
        elif form == "bare" or kind is cli.FLAG:
            words.append(option)
        else:
            words += [option, given]
    if draw(st.integers(0, 9)) == 0:
        word = words.pop(draw(st.integers(0, len(words) - 1)))
        words.insert(draw(st.integers(0, len(words))), word)
    return words


EXACT_CALLS = [["gen", "paley", "13", "--out", "json", "--seed", "1", "--path", "a.json"],
               ["spec", "paley:13", "--kind", "laplacian", "--closed-form", "--kind",
                "adjacency"],
               ["chars", "27"], ["chars", "5", "--ext", "3", "--seed", "1101"],
               ["audit", "petersen", "--caps", "chi=3"], ["verify"],
               ["verify", "--families", "petersen", "--path", "b.json"],
               ["iso", "petersen", "petersen", "--caps", "iso=8"]]


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(argvs())
@example(["spec", "paley:13", "--closed-form", "--closed-form"])
@example(["gen", "cube", "--out", "dot", "--out", "json"])
@example(["chars", "-3"])
@example(["spec", "--kind", "laplacian", "petersen"])
@example(["verify", "--"])
def test_parse_agrees_with_argparse(argv):
    _agrees_with_argparse(argv)


@pytest.mark.parametrize("argv", EXACT_CALLS, ids=" ".join)
def test_exact_calls_take_the_table(argv):
    assert _agrees_with_argparse(argv) is not None


@pytest.mark.parametrize("argv", [argv for argv, _ in USAGE_ERRORS.values()], ids=USAGE_ERRORS)
def test_usage_errors_parse_as_argparse_does(argv):
    """Each handler that refuses a call above sees the fields it saw before."""
    _agrees_with_argparse(argv)


_IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    from specgraph import cli
    modules, argv = sys.argv[1].split(","), sys.argv[2:]
    rc = cli.main(argv)
    print(json.dumps([rc, sorted(set(modules) & set(sys.modules))]))
""")


def _modules_loaded(argv, modules, tmp_path) -> list:
    """Those of modules that a fresh interpreter has loaded after the call."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    report = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, ",".join(modules), *argv,
                           "--seed", "1", "--path", str(report)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout)
    assert rc == 0
    assert report.stat().st_size > 0
    return loaded


@pytest.mark.parametrize("argv", [["gen", "paley", "13"], ["spec", "paley:13", "--closed-form"],
                                  ["chars", "5"], ["audit", "petersen"],
                                  ["verify", "--families", "petersen"],
                                  ["iso", "petersen", "petersen"]], ids=lambda argv: argv[0])
def test_exact_call_loads_neither_argparse_nor_numpy_ma(argv, tmp_path):
    assert _modules_loaded(argv, ["argparse", "numpy.ma"], tmp_path) == []


@pytest.mark.parametrize("argv,module", [
    (["spec", "cube:11", "--kind", "laplacian", "--closed-form"], "numpy.fft"),
    (["spec", "halved_cube:5", "--closed-form"], "numpy.fft"),
    (["spec", "paley:13", "--closed-form"], "array"),
], ids=["cube_11_fft", "halved_cube_5_fft", "paley_13_array"])
def test_group_spectra_skip_the_unused_modules(argv, module, tmp_path):
    """(Z_2)^k character sums take the exact Walsh-Hadamard transform, and
    the field tables are numpy arrays: neither loads its module."""
    assert _modules_loaded(argv, [module], tmp_path) == []


TOP_USAGE = "usage: specgraph [-h] [--version] {gen,spec,chars,audit,verify,iso} ...\n"
SPEC_USAGE = """\
usage: specgraph spec [-h] [--kind {adjacency,laplacian}] [--closed-form]
                      [--seed SEED] [--path PATH]
                      source [params ...]
"""
HELP = TOP_USAGE + """
algebraic graph families, character sums, spectra, and bound audits

positional arguments:
  {gen,spec,chars,audit,verify,iso}
    gen                 generate a family member
    spec                spectrum of a graph source
    chars               character sum tables over GF(q)
    audit               spectral bound audit of one graph
    verify              closed forms + audits over the corpus
    iso                 compare two graph sources

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
SPEC_HELP = SPEC_USAGE + """
positional arguments:
  source
  params

options:
  -h, --help            show this help message and exit
  --kind {adjacency,laplacian}
  --closed-form
  --seed SEED
  --path PATH           write the artifact to this file instead of stdout
"""
UNRECOGNIZED_CAPS = TOP_USAGE + "specgraph: error: unrecognized arguments: --caps chi=3\n"
SHA = "sha256:"  # an expected stdout given by its digest
# id: (argv, exit code, stdout, stderr), as the hand-written argparse parser
# printed them with COLUMNS=80
ARGPARSE_CALLS = {
    "help": (["--help"], 0, HELP, ""),
    "spec_help": (["spec", "-h"], 0, SPEC_HELP, ""),
    "version": (["--version"], 0, "0.1.0\n", ""),
    "abbreviated_flag": (["spec", "paley:13", "--closed"], 0,
                         SHA + "18e84eb52f404860f7f7159fc038a3961c0fb14d184ea7cfe5ba8b5792eea39e",
                         ""),
    "path_with_equals": (["spec", "paley:13", "--path=report.json"], 0, "", ""),
    "caps_on_gen": (["gen", "paley:13", "--caps", "chi=3"], 2, "", UNRECOGNIZED_CAPS),
    "caps_on_spec": (["spec", "paley:13", "--caps", "chi=3"], 2, "", UNRECOGNIZED_CAPS),
    "caps_on_chars": (["chars", "5", "--caps", "chi=3"], 2, "", UNRECOGNIZED_CAPS),
    "invalid_choice": (["spec", "paley:13", "--kind", "x"], 2, "", SPEC_USAGE
                       + "specgraph spec: error: argument --kind: invalid choice: 'x' "
                         "(choose from 'adjacency', 'laplacian')\n"),
    "invalid_int": (["chars", "x"], 2, "",
                    "usage: specgraph chars [-h] [--ext EXT] [--seed SEED] [--path PATH] q\n"
                    "specgraph chars: error: argument q: invalid int value: 'x'\n"),
    "missing_positional": (["iso", "a"], 2, "",
                           "usage: specgraph iso [-h] [--seed SEED] [--path PATH] [--caps CAPS]\n"
                           "                     first second\n"
                           "specgraph iso: error: the following arguments are required: "
                           "second\n"),
}


@pytest.mark.parametrize("argv,code,out,err", ARGPARSE_CALLS.values(), ids=ARGPARSE_CALLS.keys())
def test_argparse_calls_print_as_before(argv, code, out, err, tmp_path, capsys, monkeypatch):
    """Help, --version, an abbreviation, --name=value and usage errors go to
    the parser built from the table, which prints what the parser written out
    by hand printed."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert cli._parse(argv) is None
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    printed = capsys.readouterr()
    if out.startswith(SHA):
        printed = printed._replace(out=SHA + hashlib.sha256(printed.out.encode()).hexdigest())
    assert (got, printed.out, printed.err) == (code, out, err)
    if "--path=report.json" in argv:  # the report of `spec paley:13`
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == "b4c8ff7f65db4d66936a5ae2af2b2fd9268f5e5e678bc74fa42879b7fd2b86ca"


@pytest.mark.parametrize("argv", [["decked_cube:3,011"], ["decked_cube", "3", "011"]],
                         ids=["packed", "separate"])
def test_decked_cube_bit_string_keeps_leading_zero(argv, capsys):
    code, out = run(capsys, "gen", *argv)
    assert code == 0
    assert gc.parse_edge_list(out) == gc.Graph(8, gf.decked_cube(3, (0, 1, 1)).edges())
    code, out = run(capsys, "spec", *argv, "--closed-form")
    doc = json.loads(out)
    assert code == 0 and doc["graph"]["name"] == "DQ_3011"
    assert doc["closed_form"]["match"]["ok"]


def test_spec_closed_form_takes_the_builders_default(capsys):
    """rook's builder defaults to n = 4, and so does its closed form."""
    code, out = run(capsys, "spec", "rook", "--closed-form")
    assert code == 0 and json.loads(out)["closed_form"]["match"]["ok"]


def test_verify_checks_a_closed_form_exactly_for_families_with_one(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    checked = {g["id"] for g in json.loads(out)["graphs"] if "closed_form" in g}
    assert checked == {cid for cid, family, _params in corpus_mod.CORPUS_SPECS
                       if family in sp._CLOSED_FORMS}
    assert len(checked) == 44


def _readme_cli_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("specgraph ")]


@pytest.mark.parametrize("line", _readme_cli_lines(), ids=lambda line: line.split("#")[0].strip())
def test_readme_cli_examples_run(line, capsys):
    argv = shlex.split(line, comments=True)[1:]
    assert cli.main(argv) == 0


def _char_rows_by_scalar_sums(q: int, ext: int | None) -> list[dict]:
    """The rows of `chars q [--ext ext]` with every sum evaluated term by term
    through the character objects.  Their indices, bounds and pass flags are
    the report's; their re, im and magnitude agree with the character tables'
    to rounding (see _table_valued)."""
    spec = ff.field(q)
    rows = []
    sq = math.sqrt(q)

    def row(sum_type, indices, value, bound, ok):
        rows.append({
            "field": f"GF({q})", "sum_type": sum_type, "indices": list(indices),
            "re": value.real, "im": value.imag, "magnitude": abs(value),
            "bound": bound, "pass": bool(ok),
        })

    for t in range(q):
        psi = ch.AdditiveCharacter(spec, spec.element(t))
        for k in range(q - 1):
            chi = ch.MultiplicativeCharacter(spec, k)
            val = ch.gauss_sum(psi, chi)
            if t == 0 and k == 0:
                expected, ok = float(q - 1), abs(val - (q - 1)) <= 1e-9
            elif t == 0:
                expected, ok = 0.0, abs(val) <= 1e-9
            elif k == 0:
                expected, ok = 1.0, abs(val + 1) <= 1e-9
            else:
                expected, ok = sq, abs(abs(val) - sq) <= 1e-9
            row("gauss", (t, k), val, expected, ok)
    for k1 in range(q - 1):
        for k2 in range(q - 1):
            val = ch.jacobi_sum(ch.MultiplicativeCharacter(spec, k1),
                                ch.MultiplicativeCharacter(spec, k2))
            if k1 == 0 and k2 == 0:
                expected, ok = float(q), abs(val - q) <= 1e-9
            elif k1 == 0 or k2 == 0:
                expected, ok = 0.0, abs(val) <= 1e-9
            elif (k1 + k2) % (q - 1) == 0:
                expected, ok = 1.0, abs(abs(val) - 1) <= 1e-9
            else:
                expected, ok = sq, abs(abs(val) - sq) <= 1e-9
            row("jacobi", (k1, k2), val, expected, ok)
    for t1 in range(1, q):
        for t2 in range(1, q):
            val = ch.kloosterman_sum(ch.AdditiveCharacter(spec, spec.element(t1)),
                                     ch.AdditiveCharacter(spec, spec.element(t2)))
            row("kloosterman", (t1, t2), val, 2 * sq, abs(val) <= 2 * sq + 1e-9)
    if ext:
        big = ff.construct_field(spec.p, spec.d * ext)
        emb = ff.subfield_embedding(big, spec)
        for k in range(big.q - 1):
            chi = ch.MultiplicativeCharacter(big, k)
            val = ch.eisenstein_sum(emb, chi)
            if k == 0:
                expected = float(q ** (ext - 1))
                ok = abs(val - expected) <= 1e-9
            elif k % (q - 1) == 0:
                expected = q ** (ext / 2 - 1)
                ok = abs(abs(val) - expected) <= 1e-9
            else:
                expected = q ** ((ext - 1) / 2)
                ok = abs(abs(val) - expected) <= 1e-9
            row("eisenstein", (k,), val, expected, ok)
    return rows


def _rows_text(rows: list[dict]) -> str:
    """The items of a report's "rows" list as json.dumps prints them."""
    text = json.dumps({"rows": rows}, indent=2, sort_keys=True, allow_nan=False)
    return text[len('{\n  "rows": [\n'):-len('\n  ]\n}')]


def _table_valued(rows: list[dict], q: int, ext: int | None) -> list[dict]:
    """The scalar-sum rows with re, im and magnitude read from the character
    tables, after checking that the two agree to 1e-12."""
    spec = ff.field(q)
    tables = [ch.gauss_table(spec), ch.jacobi_table(spec), ch.kloosterman_table(spec)]
    if ext:
        big = ff.construct_field(spec.p, spec.d * ext)
        tables.append(ch.eisenstein_table(ff.subfield_embedding(big, spec)))
    values = np.concatenate([t.ravel() for t in tables])
    columns = {"re": values.real, "im": values.imag, "magnitude": np.abs(values)}
    for key, column in columns.items():
        assert np.abs(column - [r[key] for r in rows]).max() <= 1e-12
    return [dict(row, re=re, im=im, magnitude=magnitude) for row, re, im, magnitude
            in zip(rows, *(c.tolist() for c in columns.values()), strict=True)]


@pytest.mark.parametrize("q,ext", [(5, None), (9, None), (16, None), (27, None), (32, None),
                                   (49, None), (5, 3), (9, 2)])
def test_char_rows_bytes_equal_scalar_sums(q, ext):
    """The rendered rows are the scalar-sum rows byte for byte, but for the
    last bits of re, im and magnitude, which come from the tables."""
    rows, passed = cli._char_rows(q, ext)
    oracle = _char_rows_by_scalar_sums(q, ext)
    assert ",\n".join(rows) == _rows_text(_table_valued(oracle, q, ext))
    assert passed == all(r["pass"] for r in oracle)


@pytest.mark.parametrize("q,ext", [(2, None), (3, None), (4, None), (8, None), (9, None),
                                   (27, None), (32, None), (49, None), (5, 3), (3, 2)])
def test_chars_report_equals_json_dumps(q, ext, tmp_path, capsys):
    """The streamed report, on stdout and at --path, is json.dumps of the
    table-valued scalar-sum rows, byte for byte."""
    rows = _table_valued(_char_rows_by_scalar_sums(q, ext), q, ext)
    doc = {"version": __version__, "rows": rows,
           "config": {"command": "chars", "q": q, "ext": ext, "seed": cli.DEFAULT_SEED}}
    oracle = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    argv = ["chars", str(q)] + (["--ext", str(ext)] if ext else [])
    assert run(capsys, *argv) == (0, oracle)
    path = tmp_path / "report.json"
    assert run(capsys, *argv, "--path", str(path)) == (0, "")
    assert path.read_text() == oracle


@pytest.mark.parametrize("q,ext", [(q, None) for q in range(2, 129)
                                   if ff.prime_power_decomposition(q)]
                         + [(2, 10), (3, 6), (4, 5), (9, 3)])
def test_every_char_row_passes(q, ext):
    _, passed = cli._char_rows(q, ext)
    assert passed


# repr's exponent-notation edges, the signed zero and the subnormals
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.225073858507201e-308, 1e16, 9999999999999998.0,
               1e-5, 0.0001, -1e-05, 1.7976931348623157e308]
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


@st.composite
def synthetic_tables(draw):
    """A table of sums of any kind, with arbitrary finite floats."""
    sum_type = draw(st.sampled_from(["gauss", "jacobi", "kloosterman", "eisenstein"]))
    shape = draw(st.sampled_from([(1,), (3,), (1, 1), (2, 3)]))
    size = math.prod(shape)
    columns = [np.array(draw(st.lists(floats, min_size=size, max_size=size))).reshape(shape)
               for _ in range(4)]
    ok = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(shape)
    values = np.empty(shape, complex)  # re + 1j * im would turn a re of -0.0 into 0.0
    values.real, values.imag, magnitude, bound = columns
    return sum_type, draw(st.integers(0, 1)), values, magnitude, bound, ok


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(2, 1024), synthetic_tables())
@example(2, ("gauss", 0, np.array([complex(-0.0, 5e-324)]), np.array([1e16]),
             np.array([1e-5]), np.array([True])))
# a signed zero beside its twin in every column: one bit pattern each
@example(3, ("jacobi", 1, np.array([[complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)],
                                    [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0)]]),
             np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]]),
             np.array([[-0.0, 0.0, -0.0], [0.0, 0.0, -0.0]]), np.ones((2, 3), bool)))
# one value repeated down each column
@example(27, ("kloosterman", 1, np.full(5, complex(-2.225073858507201e-308, 1e-05)),
              np.full(5, 5.196152422706632), np.full(5, 10.392304845413264),
              np.zeros(5, bool)))
def test_row_template_renders_as_json_dumps(q, table):
    sum_type, first, values, magnitude, bound, ok = table
    rows = [{"field": f"GF({q})", "sum_type": sum_type,
             "indices": [i + first for i in index], "re": float(values[index].real),
             "im": float(values[index].imag), "magnitude": float(magnitude[index]),
             "bound": float(bound[index]), "pass": bool(ok[index])}
            for index in np.ndindex(values.shape)]
    assert ",\n".join(cli._render(q, [table])) == _rows_text(rows)


@pytest.mark.parametrize("block_rows", [1, 2, 7])
def test_render_at_block_edges(block_rows, tmp_path, capsys, monkeypatch):
    """Blocks of 2 or 7 rows split a 2-D table mid-row and leave a short
    last block, and blocks of 1 row format each float alone; the bytes stay
    those of json.dumps."""
    monkeypatch.setattr(cli, "CHARS_BLOCK_ROWS", block_rows)
    rows, _ = cli._char_rows(27, None)
    assert len(list(rows)) == sum(-(-n // block_rows) for n in (27 * 26, 26 * 26, 26 * 26))
    test_row_template_renders_as_json_dumps()
    test_chars_report_equals_json_dumps(27, None, tmp_path, capsys)


@pytest.mark.parametrize("argv,last", [(["chars", "5"], "kloosterman_table"),
                                       (["chars", "3", "--ext", "2"], "eisenstein_table")],
                         ids=["kloosterman", "eisenstein"])
def test_chars_refuses_a_non_finite_sum_before_writing(argv, last, tmp_path, capsys,
                                                       monkeypatch):
    table = getattr(ch, last)

    def with_nan(*args):
        values = table(*args)
        values.flat[-1] = complex(math.nan, 0.0)
        return values

    monkeypatch.setattr(ch, last, with_nan)
    with pytest.raises(ValueError):
        cli.main(argv)
    assert capsys.readouterr().out == ""
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        cli.main([*argv, "--path", str(path)])
    assert not path.exists()


def test_chars_formats_each_distinct_float_of_a_block_once(monkeypatch):
    """`chars 27` prints 8,216 floats but formats 909, one per distinct bit
    pattern of each column of each block: every repeat shares the one text
    that float.__repr__ made for it."""
    float_texts = cli._float_texts
    printed, formatted = [], []

    def counted(column):
        texts = float_texts(column)
        assert texts == [repr(x) for x in column.tolist()]
        printed.append(len(texts))
        formatted.append(len({id(t) for t in texts}))
        assert formatted[-1] == len(set(column.view(np.int64).tolist()))
        return texts

    monkeypatch.setattr(cli, "_float_texts", counted)
    rows, _ = cli._char_rows(27, None)
    assert sum(1 for _ in rows) == 3
    assert (sum(printed), sum(formatted)) == (4 * (27 * 26 + 2 * 26 * 26), 909)
    # a block of one float and its signed twin, each repeated
    texts = float_texts(np.array([0.0, -0.0, 0.0, 1e16, -0.0, 1e16]))
    assert texts == ["0.0", "-0.0", "0.0", "1e+16", "-0.0", "1e+16"]
    assert len({id(t) for t in texts}) == 3


def test_chars_takes_one_trace_per_element(monkeypatch):
    """`chars 9 --ext 3` takes the trace of each non-zero element of GF(729)
    and of GF(9) once, 736 in all, where one per element and character made
    530,721."""
    power_traces = ff.SubfieldEmbedding.power_traces
    traced = []

    def counted(emb, exponents):
        traced.append(np.size(exponents))
        return power_traces(emb, exponents)

    monkeypatch.setattr(ff.SubfieldEmbedding, "power_traces", counted)
    ff.subfield_embedding.cache_clear()  # drop the trace tables of earlier tests
    rows, _ = cli._char_rows(9, 3)
    assert sum(1 for _ in rows) > 0
    assert sum(traced) == 728 + 8
