"""Bound audits, the +-1 Cheeger certificate, mixing lemma, perturbation
interlacing, Motzkin-Straus, and the symmetric-matrix principles."""

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgraph import bounds as bd
from specgraph import corpus as corpus_mod
from specgraph import graph_core as gc
from specgraph import graph_families as gf
from specgraph import spectra as sp
from specgraph.errors import (
    BadParameters,
    BadWeights,
    ColorViolation,
    IndexOutOfRange,
    InvalidOperation,
    NotRegular,
    SizeOverflow,
    SpecgraphError,
)


def audit(g, **caps):
    return bd.audit_bounds(gc.invariant_report(g, **caps))


def record(report, name):
    return next(r for r in report.records if r.name == name)


@pytest.mark.parametrize("spec", ["tree:3,3", "path:5", "petersen", "wheel:6", "sum_product:4",
                                  "paley:13"])
def test_audit_starts_one_search(spec, monkeypatch):
    """The report and the audit read connectivity, the components, the
    2-colouring and the forest root off one breadth-first search."""
    starts = []
    search = gc.Graph._search
    monkeypatch.setattr(gc.Graph, "_search",
                        lambda g, source, dist: starts.append(source) or search(g, source, dist))
    family, _, params = spec.partition(":")
    audit(gf.build(family, *[int(p) for p in params.split(",") if p]))
    assert starts == [0]


# -- audit records ------------------------------------------------------------

@st.composite
def small_graphs(draw, max_n=10):
    """Any simple graph on 1..max_n vertices: connected or not, edgeless or not."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return gc.Graph(n, draw(st.sets(st.sampled_from(pairs))) if pairs else [])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_graphs())
@example(gc.Graph(1, []))
@example(gc.Graph(2, [(0, 1)]))
@example(gc.Graph(6, []))
@example(gc.Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]))  # K3 + C4
def test_audit_never_fails_a_theorem(g):
    """Each bound holds on every graph, or is skipped when its hypotheses do
    not hold; the report is strict JSON.  K3 + C4 has alpha_min = -alpha_max
    from its bipartite component, though the graph is not bipartite."""
    rep = audit(g)
    assert not rep.failed, [(r.name, r.lhs, r.rhs) for r in rep.failed]
    json.dumps(rep.to_json(), allow_nan=False)


def test_paley13_hoffman_records_bracket_sqrt_q():
    rep = audit(gf.paley(13))
    assert rep.ok
    hc = record(rep, "hoffman_chromatic")
    hi = record(rep, "hoffman_independence")
    # both Hoffman bounds evaluate to sqrt(13) for a Paley graph
    assert hc.rhs == pytest.approx(math.sqrt(13), abs=1e-9)
    assert hi.rhs == pytest.approx(math.sqrt(13), abs=1e-9)
    assert hc.lhs == 5 and hi.lhs == 3  # exact chi and iota bracket sqrt(13)


def test_petersen_alon_milman_tight():
    rep = audit(gf.petersen())
    assert rep.ok
    am = record(rep, "alon_milman")
    assert am.lhs == pytest.approx(1.0, abs=1e-9)
    assert am.rhs == pytest.approx(1.0, abs=1e-9)


def test_complete_graph_hoffman_tight():
    rep = audit(gf.complete(6))
    hc = record(rep, "hoffman_chromatic")
    assert hc.lhs == 6 and hc.rhs == pytest.approx(6.0, abs=1e-9)


def test_audit_skips_past_caps():
    rep = audit(gf.bi_paley(19), beta_cap=16)
    assert record(rep, "alon_milman").status == "skipped"
    assert rep.ok  # skips are not failures


@pytest.mark.parametrize("chi,iota,notes", [
    (None, 4, {"chi_iota_product": bd.CHI_CAPPED, "brooks": bd.CHI_CAPPED}),
    (None, None, {"chi_iota_product": bd.CHI_CAPPED, "brooks": bd.CHI_CAPPED}),
    (3, None, {"chi_iota_product": bd.IOTA_CAPPED}),
], ids=["chi", "chi_and_iota", "iota"])
def test_audit_names_the_cap_behind_each_missing_record(chi, iota, notes):
    """A capped chi or iota skips the records that read it, with the cap's
    note, rather than leaving them out."""
    inv = gc.InvariantReport(gf.petersen(), diameter=2, girth=5, chromatic=chi,
                             independence=iota, clique=2, isoperimetric=None, iso_witness=None)
    rep = bd.audit_bounds(inv)
    skipped = {r.name: r.note for r in rep.skipped}
    assert notes.items() <= skipped.items()
    assert ("brooks" in skipped) == (chi is None)
    assert [r.name for r in rep.records].count("chi_iota_product") == 1
    assert [r.name for r in rep.records].count("brooks") == 1


def test_audit_tree_records():
    rep = audit(gf.tree(3, 3))
    assert rep.ok
    assert record(rep, "tree_alpha_max").status == "pass"
    assert record(rep, "tree_lambda2_pendant").status == "pass"


CONNECTED_ONLY = {"alpha_max_regular_iff", "lambda_max_2d_iff", "brooks"}
ISOPERIMETRIC = {"alon_milman", "dodziuk", "mohar_beta", "iso_diameter"}
TREE_DEGREE_TWO = {"tree_alpha_max", "tree_lambda_max"}
TWO_VERTICES = ISOPERIMETRIC | {"tree_lambda2_pendant"}


def notes(names, note):
    return dict.fromkeys(names, note)


# beta is undefined, not capped, on a disconnected graph
DISCONNECTED_NOTES = notes(CONNECTED_ONLY | ISOPERIMETRIC, bd.DISCONNECTED)


@pytest.mark.parametrize("edges,n,skips", [
    ([(0, 1), (2, 3)], 4, DISCONNECTED_NOTES),
    ([(0, 1)], 4, DISCONNECTED_NOTES),
    ([], 3, DISCONNECTED_NOTES),
    ([(0, 1)], 2, notes(TREE_DEGREE_TWO, bd.DEGREE_TWO)),
    ([], 1, notes(TREE_DEGREE_TWO, bd.DEGREE_TWO) | notes(TWO_VERTICES, bd.TWO_VERTICES)),
], ids=["2K2", "K2+2K1", "3K1", "K2", "K1"])
def test_audit_skips_hypotheses_of_disconnected_and_edgeless_graphs(edges, n, skips):
    """skips: the expected note of each bound that must be skipped."""
    g = gc.Graph(n, edges)
    rep = audit(g)
    assert rep.failed == []
    skipped = {r.name: r.note for r in rep.skipped}
    assert skips.items() <= skipped.items()
    assert ("hoffman_chromatic" in skipped) == (not edges)


@pytest.mark.parametrize("family, params", [("andrasfai", (100,)), ("andrasfai", (114,)),
                                             ("wheel", (1183,))])
def test_audit_keeps_distinct_eigenvalues_apart(family, params):
    """A cluster tolerance of 1e-6 times the spectral radius merged distinct
    eigenvalues of these graphs, moved the cluster means and failed theorems
    that hold."""
    assert audit(gf.build(family, *params)).failed == []


def test_audit_tells_an_odd_cycle_from_a_bipartite_graph():
    """On C_3143, alpha_min + alpha_max is 1.0e-6: within an absolute 1e-6,
    alpha_min_bipartite_iff read the odd cycle as bipartite and failed. The
    invariants are given by hand, since invariant_report searches diameter
    and girth from every vertex of a graph without a group."""
    g = gf.cycle(3143)
    inv = gc.InvariantReport(g, diameter=1571, girth=3143, chromatic=3, independence=1571,
                             clique=2, isoperimetric=None, iso_witness=None)
    rep = bd.audit_bounds(inv)
    assert rep.failed == []
    assert record(rep, "alpha_min_bipartite_iff").inputs == {
        "condition": False, "numeric_equality": False}


def test_audit_json_shape():
    rep = audit(gf.cycle(5))
    data = rep.to_json()
    assert data["failed"] == 0
    assert all({"name", "status"} <= set(r) for r in data["records"])


# -- the audit's shape, with no float in it -------------------------------------

LE, GE, IFF, TRACE = "lhs <= rhs", "lhs >= rhs", "equality iff condition", "|lhs - rhs| small"
STRICT = "strict inequality"
# every statement in audit order as (name, relation, sorted input keys, note);
# the PER_K pair repeats for k = 1 .. delta // 2
HEAD = [
    ("wilf_chromatic", LE, "alpha_max chi", ""),
    ("hoffman_chromatic", GE, "alpha_max alpha_min chi", ""),
    ("hoffman_independence", LE, "d_min iota lambda_max", ""),
    ("chi_iota_product", GE, "chi iota", ""),
    ("alon_milman", GE, "beta lambda2", ""),
    ("dodziuk", LE, "beta lambda2", ""),
    ("mohar_beta", LE, "beta", ""),
    ("iso_diameter", LE, "beta delta", ""),
    ("alpha_min_vs_max", GE, "alpha_max alpha_min", ""),
    ("alpha_min_bipartite_iff", IFF, "condition numeric_equality", ""),
    ("average_degree_le_alpha_max", LE, "d_ave", ""),
    ("alpha_max_le_degree", LE, "d", ""),
    ("alpha_max_regular_iff", IFF, "condition numeric_equality", ""),
    ("lambda_max_le_2d", LE, "lambda_max", ""),
    ("lambda_max_2d_iff", IFF, "condition numeric_equality", ""),
    ("lambda_max_ge_d_plus_1", GE, "d lambda_max", ""),
    ("alpha_max_ge_sqrt_d", GE, "alpha_max", ""),
    ("second_laplacian_le_d", LE, "lambda2", ""),
    ("second_adjacency_nonneg", GE, "alpha2", ""),
    ("spectral_turan", LE, "alpha_max omega", ""),
    ("diameter_log", GE, "delta", STRICT),
    ("girth_log", LE, "gamma", STRICT),
    ("girth_vs_diameter", LE, "delta gamma", ""),
]
PER_K = [("urakawa_k{k}", LE, "delta k", ""), ("alon_boppana_k{k}", GE, "delta k", "")]
TAIL = [
    ("tree_alpha_max", LE, "delta", ""),
    ("tree_lambda_max", LE, "delta", ""),
    ("tree_lambda2_pendant", LE, "delta", ""),
    ("chung_diameter_bipartite", LE, "alpha2", ""),
    ("chung_diameter", LE, "alpha", ""),
    ("distinct_adjacency_count", GE, "delta", ""),
    ("distinct_laplacian_count", GE, "delta", ""),
    ("trace_sum_zero", TRACE, "", ""),
    ("trace_square_edges", TRACE, "", ""),
    ("trace_cube_triangles", TRACE, "", ""),
    ("adjacency_interval_low", GE, "", ""),
    ("adjacency_interval_high", LE, "", ""),
    ("laplacian_interval_low", GE, "", ""),
    ("laplacian_interval_high", LE, "", ""),
    ("degree_sandwich_low", GE, "", ""),
    ("degree_sandwich_high", LE, "", ""),
    ("brooks", LE, "chi", ""),
]

COMPLETE = {"second_laplacian_le_d", "second_adjacency_nonneg"}
LOGS = {"diameter_log", "girth_log"}
TREES = {"tree_alpha_max", "tree_lambda_max", "tree_lambda2_pendant"}
CHUNG = {"chung_diameter_bipartite", "chung_diameter"}
ALON_BOPPANA = {f"alon_boppana_k{k}" for k in range(1, 4)}
NO_DIAMETER = LOGS | {"girth_vs_diameter"} | TREES | CHUNG | {
    "distinct_adjacency_count", "distinct_laplacian_count"}
EDGELESS_NOTES = notes({"hoffman_chromatic", "hoffman_independence", "lambda_max_ge_d_plus_1"},
                       bd.NO_EDGES)
CHI_NOTES = notes({"wilf_chromatic", "hoffman_chromatic", "chi_iota_product", "brooks"},
                  bd.CHI_CAPPED)
IOTA_NOTES = notes({"hoffman_independence", "chi_iota_product"}, bd.IOTA_CAPPED)


def _graph(spec):
    family, _, params = spec.partition(":")
    return gf.build(family, *[int(p) for p in params.split(",") if p])


def _by_hand(spec, **changes):
    """spec's invariant report with the given invariants replaced."""
    inv = gc.invariant_report(_graph(spec))
    fields = dict(zip(inv._fields, inv._values)) | changes
    return gc.InvariantReport(**fields)


# (label, report, per-k pairs, statements left out, {skipped statement: note})
SHAPES = [
    ("K1", lambda: gc.invariant_report(gc.Graph(1, [])), 0,
     COMPLETE | LOGS | {"girth_vs_diameter"} | CHUNG | {"brooks"},
     EDGELESS_NOTES | notes(TREE_DEGREE_TWO, bd.DEGREE_TWO)
     | notes(TWO_VERTICES, bd.TWO_VERTICES)),
    ("K2", lambda: gc.invariant_report(gc.Graph(2, [(0, 1)])), 0,
     COMPLETE | LOGS | {"girth_vs_diameter"} | CHUNG | {"brooks"},
     notes(TREE_DEGREE_TWO, bd.DEGREE_TWO)),
    ("3K1", lambda: gc.invariant_report(gc.Graph(3, [])), 0, NO_DIAMETER,
     EDGELESS_NOTES | DISCONNECTED_NOTES | notes({"alpha_min_bipartite_iff"}, bd.DISCONNECTED)),
    ("2K2", lambda: gc.invariant_report(gc.Graph(4, [(0, 1), (2, 3)])), 0, NO_DIAMETER,
     DISCONNECTED_NOTES | notes({"alpha_min_bipartite_iff"}, bd.DISCONNECTED)),
    ("K3+C4", lambda: gc.invariant_report(
        gc.Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])), 0, NO_DIAMETER,
     DISCONNECTED_NOTES | notes({"alpha_min_bipartite_iff"}, bd.DISCONNECTED)),
    ("path:5", None, 2, LOGS | {"girth_vs_diameter"} | ALON_BOPPANA | CHUNG, {}),
    ("star:6", None, 1, {"girth_log", "girth_vs_diameter"} | ALON_BOPPANA | CHUNG, {}),
    ("tree:3,3", None, 3, {"girth_log", "girth_vs_diameter"} | ALON_BOPPANA | CHUNG, {}),
    ("cycle:5", None, 1, LOGS | TREES | {"chung_diameter_bipartite", "brooks"}, {}),
    ("cycle:6", None, 1, LOGS | TREES | {"chung_diameter"}, {}),
    ("complete:5", None, 0, COMPLETE | TREES | {"chung_diameter_bipartite", "brooks"}, {}),
    ("petersen", None, 1, TREES | {"chung_diameter_bipartite"}, {}),
    ("heawood", None, 1, TREES | {"chung_diameter"}, {}),
    ("paley:13", None, 1, TREES | {"chung_diameter_bipartite"}, {}),
    ("wheel:6", None, 1, {"girth_log"} | ALON_BOPPANA | TREES | CHUNG, {}),
    ("windmill:3", None, 1, {"girth_log"} | ALON_BOPPANA | TREES | CHUNG, {}),
    ("frucht", None, 2, TREES | {"chung_diameter_bipartite"}, {}),
    # a capped chi skips brooks before a complete graph or an odd cycle leaves it out
    ("complete:5 chi=None", lambda: _by_hand("complete:5", chromatic=None), 0,
     COMPLETE | TREES | {"chung_diameter_bipartite"}, CHI_NOTES),
    ("cycle:5 chi=None", lambda: _by_hand("cycle:5", chromatic=None), 1,
     LOGS | TREES | {"chung_diameter_bipartite"}, CHI_NOTES),
    ("petersen iota=None", lambda: _by_hand("petersen", independence=None), 1,
     TREES | {"chung_diameter_bipartite"}, IOTA_NOTES),
    ("petersen chi=iota=None", lambda: _by_hand("petersen", chromatic=None, independence=None),
     1, TREES | {"chung_diameter_bipartite"}, IOTA_NOTES | CHI_NOTES),
    ("petersen omega=None", lambda: _by_hand("petersen", clique=None), 1,
     TREES | {"chung_diameter_bipartite"}, {"spectral_turan": "clique number capped"}),
    ("petersen beta=None", lambda: _by_hand("petersen", isoperimetric=None), 1,
     TREES | {"chung_diameter_bipartite"},
     notes(ISOPERIMETRIC, "isoperimetric constant capped")),
]


@pytest.mark.parametrize("label, report, ks, left_out, skips", SHAPES,
                         ids=[s[0] for s in SHAPES])
def test_audit_shape_is_pinned_on_graphs_that_cross_every_gate(label, report, ks, left_out,
                                                               skips):
    """Which statements each audit records, skips with which note, or leaves
    out, pinned as (name, relation, status, note, sorted input keys) with no
    float, so it holds under any numpy, BLAS or kernel. Statement names are
    unique within an audit."""
    inv = report() if report else gc.invariant_report(_graph(label))
    per_k = [(name.format(k=k), *rest) for k in range(1, ks + 1) for name, *rest in PER_K]
    expected = [(name, "", "skipped", skips[name], []) if name in skips
                else (name, relation, "pass", note, keys.split())
                for name, relation, keys, note in HEAD + per_k + TAIL if name not in left_out]
    rep = bd.audit_bounds(inv)
    assert [(r.name, r.relation, r.status, r.note, sorted(r.inputs))
            for r in rep.records] == expected
    names = [r.name for r in rep.records]
    assert len(set(names)) == len(names)


# -- Cheeger +-1 certificates -----------------------------------------------------

@pytest.mark.parametrize("maker,expected", [
    (lambda: gf.cube(3), 1), (lambda: gf.cube(4), 1), (lambda: gf.petersen(), 1),
    (lambda: gf.shrikhande(), 2), (lambda: gf.rook_twin(), 2)])
def test_cheeger_certificates(maker, expected):
    g = maker()
    cert = bd.cheeger_pm1(g)
    assert cert is not None
    assert cert["beta"] == Fraction(expected)
    # the certified value matches the exhaustive isoperimetric constant
    beta, _ = gc.isoperimetric_constant(g)
    assert beta == cert["beta"]


def test_cheeger_certificate_vector_is_exact():
    g = gf.cube(4)
    cert = bd.cheeger_pm1(g)
    lap = sp.laplacian_matrix(g).astype(np.int64)
    assert np.array_equal(lap @ cert["vector"], cert["lambda2"] * cert["vector"])
    assert set(np.unique(cert["vector"])) == {-1, 1}


def test_cheeger_pm1_leaves_numpy_ma_unloaded():
    """cube:4's certificate comes from a character of order 2, checked as +-1
    without np.unique, whose first call imports numpy.ma.  A fresh
    interpreter, since numpy.ma stays loaded once imported."""
    probe = ("import json, sys\n"
             "from specgraph import bounds, graph_families\n"
             "cert = bounds.cheeger_pm1(graph_families.cube(4))\n"
             "print(json.dumps([cert['lambda2'], str(cert['beta']), cert['vector'].tolist(),\n"
             "                  'numpy.ma' in sys.modules]))\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [2, "1", [1, -1] * 8, False]


def test_cheeger_incidence_4_3_both_readings():
    """lambda_2(I_4(3)) = q^2 + 1 = 10; the certificate pins beta = lambda_2/2 = 5,
    so the q^2 + 1 value printed in the source is the laplacian gap, not beta."""
    g = gf.incidence(4, 3)
    lap = sp.eig_symmetric(sp.laplacian_matrix(g), "laplacian")
    assert lap.lambda2 == pytest.approx(10.0, abs=1e-9)  # (13 - 3)
    cert = bd.cheeger_pm1(g)
    assert cert is not None
    assert cert["beta"] == Fraction(5)
    assert cert["beta"] != 10  # beta = lambda_2 / 2, not lambda_2


def _check_pm1(lap_int, lam, vec) -> bool:
    """The dense check that certified L v = lam v before the neighbour-row
    check: one product with the integer laplacian."""
    return bool(np.array_equal(lap_int @ vec, lam * vec))


PM1_GRAPHS = [(family, params) for _, family, params in corpus_mod.CORPUS_SPECS] + [
    ("cube", (5,)), ("cube", (6,)), ("cube", (8,)), ("cube", (11,)), ("halved_cube", (5,)),
    ("paley", (49,)), ("bi_paley", (27,)), ("incidence", (3, 5)), ("machine", (2, 2, 2))]


def test_cheeger_certificates_match_the_dense_check():
    """cheeger_pm1 returns the first candidate that the dense laplacian
    product certifies, and None where none does."""
    found = 0
    for family, params in PM1_GRAPHS:
        g = gf.build(family, *params)
        cert = bd.cheeger_pm1(g)
        lap = sp.spectrum(g, "laplacian")
        lam = round(lap.lambda2)
        if g.n % 2 or abs(lap.lambda2 - lam) > lap.cluster_tol or lam % 2:
            assert cert is None
            continue
        lap = sp.laplacian_matrix(g).astype(np.int64)
        first = next((v for v in bd._pm1_candidates(g, lam) if _check_pm1(lap, lam, v)), None)
        if first is None:
            assert cert is None
        else:
            found += 1
            assert cert["lambda2"] == lam and np.array_equal(cert["vector"], first)
    assert found == 20


def test_cheeger_no_certificate_cases():
    assert bd.cheeger_pm1(gf.cycle(5)) is None  # odd vertex count
    assert bd.cheeger_pm1(gf.star(5)) is None  # lambda_2 = 1 is odd
    # K_4 does admit one: lambda_2 = 4 even, beta = 2 = ceil(n/2)
    assert bd.cheeger_pm1(gf.complete(4))["beta"] == Fraction(2)


def test_cheeger_pm1_refuses_one_vertex():
    with pytest.raises(BadParameters, match="at least two vertices"):
        bd.cheeger_pm1(gc.Graph(1, []))


# -- mixing lemma --------------------------------------------------------------------

def test_mixing_whole_sides_of_complete_bipartite():
    g = gf.complete_bipartite(4, 4)
    res = bd.mixing_lemma(g, bd.MixingQuery(frozenset(range(4)), frozenset(range(4, 8))))
    assert res["count"] == 16 and res["error_bound"] == pytest.approx(0.0, abs=1e-9)
    assert res["pass"]


def test_mixing_color_violation():
    g = gf.complete_bipartite(3, 3)
    with pytest.raises(ColorViolation):
        # T straddles the bipartition {0,1,2} | {3,4,5}
        bd.mixing_lemma(g, bd.MixingQuery(frozenset({0, 1}), frozenset({2, 3})))
    with pytest.raises(ColorViolation):
        # odd-length paths need opposite colours
        bd.mixing_lemma(g, bd.MixingQuery(frozenset({0}), frozenset({1})))
    with pytest.raises(ColorViolation):
        # even-length paths need equal colours
        bd.mixing_lemma(g, bd.MixingQuery(frozenset({0}), frozenset({3}), ell=2))
    with pytest.raises(NotRegular):
        bd.mixing_lemma(gf.star(5), bd.MixingQuery(frozenset({0}), frozenset({1})))


@pytest.mark.parametrize("s,t", [
    (frozenset(range(0, 1006, 2)), frozenset(range(1, 1006, 2))),
    (frozenset(range(503)), frozenset(range(503, 1006))),
], ids=["straddling", "even_length_across"])
def test_mixing_lemma_checks_the_query_first(s, t, monkeypatch):
    """A query refused for its sides is refused before the spectrum and the
    walk count are computed. bi_paley(503) is black 0..502 and white
    503..1005: the even and the odd vertices straddle it, and walks of even
    length cannot go from black to white."""
    calls = []
    monkeypatch.setattr(bd, "spectrum", lambda *args: calls.append("spectrum"))
    monkeypatch.setattr(bd, "path_count_between", lambda *args: calls.append("walks"))
    with pytest.raises(ColorViolation):
        bd.mixing_lemma(gf.bi_paley(503), bd.MixingQuery(s, t, ell=6))
    assert calls == []


def test_mixing_random_queries_incidence():
    g = gf.incidence(3, 5)
    black, white = g.bipartition
    black, white = sorted(black), sorted(white)
    rng = np.random.default_rng(35)
    for _ in range(60):
        s = frozenset(rng.choice(black, size=rng.integers(1, len(black)), replace=False).tolist())
        t = frozenset(rng.choice(white, size=rng.integers(1, len(white)), replace=False).tolist())
        res = bd.mixing_lemma(g, bd.MixingQuery(s, t))
        assert res["pass"]
        # independent edge-count oracle
        direct = sum(1 for u in s for v in g.adj[u] if v in t)
        assert res["count"] == direct


def test_mixing_path_count_against_walk_enumeration():
    g = gf.heawood()
    black, _ = g.bipartition
    s = frozenset(sorted(black)[:3])
    t = frozenset(sorted(black)[3:6])
    res = bd.mixing_lemma(g, bd.MixingQuery(s, t, ell=2))

    def walks(u, length):
        if length == 0:
            return {u: 1}
        prev = walks(u, length - 1)
        out: dict = {}
        for v, cnt in prev.items():
            for w in g.adj[v]:
                out[w] = out.get(w, 0) + cnt
        return out

    direct = sum(walks(u, 2).get(v, 0) for u in s for v in t)
    assert res["count"] == direct
    assert res["pass"]


@pytest.mark.parametrize("family,ell,s,t", [
    ("petersen", 600, {0, 1, 2}, {3, 4, 5}),
    ("heawood", 599, {0, 1}, {7, 8}),
], ids=["general", "bipartite"])
def test_mixing_lemma_refuses_a_bound_past_a_double(family, ell, s, t, monkeypatch):
    """3^600 / 10 fits a double and 3^700 / 10 does not; walks are counted
    only for a length whose main term and bound fit. heawood is black 0..6
    and white 7..13."""
    g = gf.build(family)
    res = bd.mixing_lemma(g, bd.MixingQuery(frozenset(s), frozenset(t), ell=ell))
    assert res["pass"] and res["count"] == bd.path_count_between(g, s, t, ell)
    calls = []
    monkeypatch.setattr(bd, "path_count_between", lambda *args: calls.append(args))
    with pytest.raises(SizeOverflow, match="overflows a double"):
        bd.mixing_lemma(g, bd.MixingQuery(frozenset(s), frozenset(t), ell=ell + 100))
    assert calls == []


def _int64_walk_count(g, S, T, ell) -> int:
    """The dense count that path_count_between replaced: the S x T block of
    the int64 power A^ell, which wraps once an entry passes 2^63."""
    power = np.linalg.matrix_power(sp.adjacency_matrix(g).astype(np.int64), ell)
    return int(power[np.ix_(sorted(S), sorted(T))].sum())


def _check_walk_counts(g, rng):
    for _ in range(3):
        S = rng.choice(g.n, size=int(rng.integers(0, g.n + 1)), replace=False).tolist()
        T = rng.choice(g.n, size=int(rng.integers(0, g.n + 1)), replace=False).tolist()
        for ell in range(5):  # entries stay below n^4 < 2^63: the oracle cannot wrap
            assert bd.path_count_between(g, S, T, ell) == _int64_walk_count(g, S, T, ell)
        assert bd.edge_count_between(g, S, T) == bd.path_count_between(g, S, T, 1)


@pytest.mark.parametrize("cid, family, params", corpus_mod.CORPUS_SPECS,
                         ids=[cid for cid, _, _ in corpus_mod.CORPUS_SPECS])
def test_walk_counts_match_the_int64_power_on_the_corpus(cid, family, params):
    _check_walk_counts(gf.build(family, *params), np.random.default_rng(len(cid)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(small_graphs(), st.integers(0, 2**32 - 1))
def test_walk_counts_match_the_int64_power(g, seed):
    _check_walk_counts(g, np.random.default_rng(seed))


def test_walk_counts_stay_exact_past_int64():
    """From 0 to 1 in K_10 there are (9^ell - (-1)^ell)/10 walks of length
    ell; at ell = 21 that passes 2^63, where the int64 power wrapped."""
    k10 = gf.complete(10)
    assert bd.path_count_between(k10, [0], [1], 20) == (9**20 - 1) // 10
    assert bd.path_count_between(k10, [0], [1], 21) == 10941898913151235921
    assert 10941898913151235921 == (9**21 + 1) // 10 > 2**63


def test_walk_count_sets_and_refusals():
    c6 = gf.cycle(6)
    assert bd.path_count_between(c6, [0, 1, 2], [2, 3], 0) == 1  # |S & T|
    assert bd.path_count_between(c6, [0, 0], [1], 1) == bd.path_count_between(c6, [0], [1], 1)
    with pytest.raises(InvalidOperation, match=">= 0"):
        bd.path_count_between(c6, [0], [1], -1)
    with pytest.raises(IndexOutOfRange, match="no vertex"):
        bd.path_count_between(c6, [0], [6], 2)


def test_walk_count_builds_no_dense_matrix():
    """Two steps on paley(1009) trace far less memory than the 8 MB of a
    dense 1009 x 1009 int64 matrix."""
    g = gf.paley(1009)
    g.adj  # the neighbour rows are built on first use, before the trace starts
    rng = np.random.default_rng(1009)
    S = rng.choice(g.n, size=300, replace=False).tolist()
    T = rng.choice(g.n, size=400, replace=False).tolist()
    tracemalloc.start()
    try:
        bd.path_count_between(g, S, T, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_sum_product_window_small():
    g = gf.incidence_points(3, 7)
    res = bd.sum_product_window_check(g, 7, ([0, 1, 2], [1, 3], [2, 4, 5], [6]), "a+b=cd")
    assert res["agree"] and res["pass"]
    res2 = bd.sum_product_window_check(g, 7, ([1, 2], [1, 3, 4], [2, 5], [1, 6]), "ab+cd=1")
    assert res2["agree"] and res2["pass"]


@pytest.mark.parametrize("equation", ["a+b=cd", "ab+cd=1"])
@pytest.mark.parametrize("q", [4, 8, 9])
def test_sum_product_window_prime_power(q, equation):
    """Over GF(4), GF(8) and GF(9) the point labels go through the subfield
    lift and back; 40 seeded random windows per equation."""
    g = gf.incidence_points(3, q)
    rng = np.random.default_rng(q)
    for _ in range(40):
        window = tuple(sorted(rng.choice(q, size=int(rng.integers(1, q)), replace=False).tolist())
                       for _ in range(4))
        res = bd.sum_product_window_check(g, q, window, equation)
        assert res["agree"] and res["pass"], window


@pytest.mark.parametrize("graph", [gf.incidence(3, 7), gf.incidence_points(3, 5)],
                         ids=["element_labels", "points_of_gf5"])
def test_sum_product_window_refuses_a_graph_without_the_points_of_gf7(graph):
    with pytest.raises(SpecgraphError):
        bd.sum_product_window_check(graph, 7, ([0, 1], [1], [2], [3]), "a+b=cd")


# -- perturbation --------------------------------------------------------------------

def test_petersen_vertex_removal_interlaces():
    assert bd.perturbation_checks(gf.petersen(), "remove_vertex", 0)["ok"]


def test_k5_edge_removal():
    assert bd.perturbation_checks(gf.complete(5), "remove_edge", (0, 1))["ok"]


def test_removing_a_loop_is_refused_as_an_absent_edge():
    with pytest.raises(SpecgraphError, match="not present"):
        bd.perturbation_checks(gf.petersen(), "remove_edge", (2, 2))


C6 = gf.cycle(6)


@pytest.mark.parametrize("call", [
    lambda: gc.remove_edges(C6, [(-1, 0)]),
    lambda: gc.remove_vertex(C6, 99),
    lambda: gc.remove_vertex(C6, -1),
    lambda: bd.perturbation_checks(C6, "remove_vertex", 99),
    lambda: gc.induced_subgraph(C6, [0, 6]),
    lambda: gc.link_graph(C6, -1),
    lambda: gc.boundary_size(C6, [99]),
    lambda: gc.boundary_size(C6, [-1]),
    lambda: bd.edge_count_between(C6, [99], [0]),
    lambda: bd.edge_count_between(C6, [0], [-1]),
    lambda: bd.step_function_rayleigh(C6, [99]),
    lambda: bd.step_function_rayleigh(C6, [-1]),
], ids=["remove_edges_-1", "remove_vertex_99", "remove_vertex_-1", "perturbation_99",
        "induced_subgraph_6", "link_graph_-1", "boundary_99", "boundary_-1",
        "edge_count_S_99", "edge_count_T_-1", "step_function_99", "step_function_-1"])
def test_vertex_arguments_out_of_range_are_refused(call):
    """A vertex outside 0..n-1 is refused, never wrapped nor left out."""
    with pytest.raises(IndexOutOfRange, match="no vertex"):
        call()


def test_petersen_matching_removal_subgraph_bounds():
    g = gf.petersen()
    # a perfect matching: five disjoint edges
    matching = []
    used = set()
    for u, v in g.edges():
        if u not in used and v not in used:
            matching.append((u, v))
            used.update((u, v))
    assert len(matching) == 5
    assert bd.perturbation_checks(g, "remove_subgraph", matching)["ok"]


def test_compare_to_cycle_petersen():
    assert bd.compare_to_cycle(gf.petersen()) == [6, 7]


def test_compare_to_cycle_hamiltonian_cubic_graph_passes():
    # Q_3 is a hamiltonian 3-regular graph: removing a hamiltonian cycle
    # leaves a perfect matching, so the +-1 comparison must hold everywhere
    assert bd.compare_to_cycle(gf.cube(3)) == []


# -- Motzkin-Straus ----------------------------------------------------------------------

def test_motzkin_straus_uniform_k4_tight():
    res = bd.motzkin_straus(gf.complete(4), [0.25] * 4, 4)
    assert res["value"] == pytest.approx(0.75)
    assert res["bound"] == pytest.approx(0.75)
    assert res["pass"]


def test_results_dump_as_strict_json():
    """The mixing, perturbation, sum-product window and Motzkin-Straus results
    hold Python floats and bools, so each dumps as strict JSON."""
    results = [
        bd.mixing_lemma(gf.complete_bipartite(4, 4),
                        bd.MixingQuery(frozenset(range(4)), frozenset(range(4, 8)))),
        bd.perturbation_checks(gf.petersen(), "remove_vertex", 0),
        bd.sum_product_window_check(gf.incidence_points(3, 7), 7,
                                    ([0, 1, 2], [1, 3], [2, 4, 5], [6]), "a+b=cd"),
        bd.motzkin_straus(gf.complete(3), [1 / 3] * 3, 3),
    ]
    for res in results:
        json.dumps(res, allow_nan=False)


def test_motzkin_straus_clique_concentration_tight():
    g = gf.shrikhande()  # omega = 3
    weights = np.zeros(16)
    # vertices 0, adjacency neighbour forming a triangle
    tri = None
    for u in g.adj[0]:
        for w in g.adj[0]:
            if u < w and g.has_edge(u, w):
                tri = (0, u, w)
                break
        if tri:
            break
    for v in tri:
        weights[v] = 1 / 3
    res = bd.motzkin_straus(g, weights, 3)
    assert res["value"] == pytest.approx(2 / 3)
    assert res["bound"] == pytest.approx(2 / 3)


def test_motzkin_straus_random_petersen():
    g = gf.petersen()
    rng = np.random.default_rng(1015)
    for _ in range(100):
        w = rng.dirichlet(np.ones(10))
        res = bd.motzkin_straus(g, w, 2)
        assert res["value"] <= 0.5 + 1e-9


def test_motzkin_straus_bad_weights():
    with pytest.raises(BadWeights):
        bd.motzkin_straus(gf.complete(3), [0.5, 0.5, 0.5], 3)


def test_motzkin_straus_refuses_a_clique_number_below_one():
    with pytest.raises(BadParameters, match="at least 1"):
        bd.motzkin_straus(gf.complete(3), [1 / 3] * 3, 0)


@pytest.mark.parametrize("weights", [[math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0]],
                         ids=["nan", "inf"])
def test_motzkin_straus_refuses_non_finite_weights(weights):
    with pytest.raises(BadWeights, match="finite"):
        bd.motzkin_straus(gf.complete(3), weights, 3)


# -- matrix principles ----------------------------------------------------------------

def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2


def test_matrix_principles_sample():
    rng = np.random.default_rng(424242)
    for _ in range(60):
        n = int(rng.integers(3, 11))
        m = random_symmetric(rng, n)
        other = random_symmetric(rng, n)
        assert bd.cauchy_interlacing_check(m)
        assert bd.weyl_check(m, other)
        assert bd.aronszajn_check(m, int(rng.integers(1, n)))


def test_courant_fischer_spot_check():
    rng = np.random.default_rng(88)
    for _ in range(5):
        m = random_symmetric(rng, 8)
        assert bd.courant_fischer_check(m, rng)


def test_step_function_identity():
    rng = np.random.default_rng(99)
    for g in [gf.petersen(), gf.cube(3), gf.paley(13), gf.wheel(6)]:
        for _ in range(100):
            size = int(rng.integers(1, g.n))
            subset = rng.choice(g.n, size=size, replace=False).tolist()
            ratio, expected = bd.step_function_rayleigh(g, subset)
            assert ratio == pytest.approx(expected, abs=1e-8)


def test_step_function_numerator_matches_the_dense_laplacian():
    """f^T L f summed over the arcs equals the product with the dense
    laplacian that step_function_rayleigh used to build."""
    rng = np.random.default_rng(100)
    for g in [gf.petersen(), gf.cube(3), gf.paley(13), gf.wheel(6), gc.Graph(5, [(0, 1)])]:
        for _ in range(20):
            subset = rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False).tolist()
            f = np.full(g.n, -float(len(subset)))
            f[subset] = g.n - len(subset)
            dense = float(f @ sp.laplacian_matrix(g) @ f) / float(f @ f)
            assert bd.step_function_rayleigh(g, subset)[0] == pytest.approx(dense, rel=1e-12)


# -- Alon-Boppana qualitative ----------------------------------------------------------

def test_alon_boppana_paley_family():
    for q in [5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61, 73, 81, 89, 97, 101]:
        g = gf.paley(q)
        adj = sp.eig_symmetric(sp.adjacency_matrix(g))
        d = g.max_degree
        delta = gc.diameter(g)
        bound = 2 * math.sqrt(d - 1) * math.cos(2 * math.pi / delta)
        assert adj.kth_largest(2) >= bound - 1e-9


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_alon_boppana_small_diameter_family(k):
    g = gf.small_diameter_x(k)
    adj = sp.eig_symmetric(sp.adjacency_matrix(g))
    bound = 2 * math.sqrt(2) * math.cos(2 * math.pi / (2 * k))
    assert adj.kth_largest(2) >= bound - 1e-9


@pytest.mark.parametrize("n", [3, 4])
def test_halved_cube_isoperimetric_conjecture(n):
    # tested as a conjecture fixture: beta(halved cube on n) = n - 1
    beta, _ = gc.isoperimetric_constant(gf.halved_cube(n))
    assert beta == Fraction(n - 1)
