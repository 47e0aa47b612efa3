"""Graph model, exact invariants, structure operations, and isomorphism."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgraph import corpus as corpus_mod
from specgraph import graph_core as gc
from specgraph import graph_families as gf
from specgraph import groups
from specgraph import spectra as sp
from specgraph.errors import (
    BadParameters,
    CapExceeded,
    Disconnected,
    IndexOutOfRange,
    LoopEdge,
    SizeOverflow,
)
from specgraph.graph_core import Graph, k4_at, triangles_at

import graph_fixtures as fx


def test_edge_list_round_trip():
    g = gf.petersen()
    text = gc.to_edge_list(g)
    again = gc.parse_edge_list(text)
    assert again == gc.Graph(g.n, g.edges())
    assert gc.to_edge_list(again) == text


@pytest.mark.parametrize("text", ["3 2 7\n0 1\n1 2\n", "3 2\n0 1 5\n1 2 7\n",
                                  "3 2\n0 1\n1 2 # note\n", "3\n", "3 1\n0\n", ""],
                         ids=["long_header", "weighted", "comment", "short_header", "short_row",
                              "empty"])
def test_edge_list_rows_are_two_integers(text):
    with pytest.raises(BadParameters, match="an edge list is an 'n m' header"):
        gc.parse_edge_list(text)


def test_edge_list_header_is_sized_before_any_row(monkeypatch):
    """n + 2m adjacency entries at most: one past the cap is refused before
    the graph's n rows exist."""
    monkeypatch.setattr(gc, "ADJACENCY_CAP", 100)
    assert gc.parse_edge_list("98 1\n0 1\n").n == 98
    monkeypatch.setattr(gc, "Graph", None)
    for text in ["99 1\n0 1\n", "3 49\n0 1\n"]:
        with pytest.raises(SizeOverflow, match="^edge list header: n [+] 2m over 100 "):
            gc.parse_edge_list(text)


def test_triangle_edge_list():
    g = gc.Graph(3, [(0, 1), (1, 2), (0, 2), (1, 0)])  # duplicate collapsed
    assert g.edge_count == 3
    assert g == gf.complete(3)


def test_petersen_fixture_file_shape():
    g = gc.parse_edge_list(gc.to_edge_list(fx.petersen_drawing_fixture()))
    assert g.n == 10 and g.edge_count == 15 and g.is_regular and g.max_degree == 3
    assert gc.is_isomorphic(g, gf.petersen())[0]


def test_graph_validation():
    with pytest.raises(LoopEdge):
        gc.Graph(3, [(0, 0)])
    with pytest.raises(IndexOutOfRange):
        gc.Graph(3, [(0, 5)])


@pytest.mark.parametrize("pair", [(1, 1), (0, 2)], ids=["loop", "absent"])
def test_remove_edges_refuses_a_pair_that_is_not_an_edge(pair):
    with pytest.raises(IndexOutOfRange):
        gc.remove_edges(gf.cycle(5), [pair])
    assert gc.remove_edges(gf.cycle(5), [(1, 0)]).edge_count == 4


def test_remove_edges_keeps_labels():
    g = gf.petersen()
    (u, v), *_ = g.edges()
    less = gc.remove_edges(g, [(u, v)])
    assert g.labels is not None and less.labels == g.labels and less.name == g.name
    assert less.edge_count == 14 and not less.has_edge(u, v)


def test_labels_number_the_vertices():
    """A label list of another length than n is refused by every constructor;
    a group graph's default labels stay unbuilt until read."""
    with pytest.raises(BadParameters, match=r"^1 labels for 3 vertices$"):
        gc.Graph(3, [(0, 1)], labels=["a"])
    with pytest.raises(BadParameters, match=r"^2 labels for 3 vertices$"):
        gc.Graph.from_rows([[1], [0], []], labels=["a", "b"])
    with pytest.raises(BadParameters, match=r"^1 labels for 3 vertices$"):
        gf.cayley((3,), [(1,), (2,)], labels=["x"])
    with pytest.raises(BadParameters, match=r"^4 labels for 6 vertices$"):
        gf.bi_cayley((3,), [(0,), (1,)], labels=list("abcd"))
    g = gf.cayley((3,), [(1,), (2,)])
    assert "labels" not in g.__dict__
    assert g.labels == ("(0,)", "(1,)", "(2,)")
    assert gc.induced_subgraph(gf.cayley((3,), [(1,), (2,)], labels="xyz"), [2]).labels == ("z",)


def _metrics(g):
    return gc.diameter(g), gc.girth(g), g.bipartition


def test_basic_metrics_table():
    for n in (4, 5, 6):
        diam, gir, bip = _metrics(gf.complete(n))
        assert (diam, gir) == (1, 3) and bip is None
    diam, gir, bip = _metrics(gf.cube(3))
    assert (diam, gir) == (3, 4) and bip is not None
    diam, gir, _ = _metrics(gf.petersen())
    assert (diam, gir) == (2, 5)
    for n in (5, 8):
        diam, gir, _ = _metrics(gf.cycle(n))
        assert diam == n // 2 and gir == n
    diam, gir, bip = _metrics(gf.complete_bipartite(3, 3))
    assert (diam, gir) == (2, 4) and bip is not None


def test_girth_of_tree_is_infinite():
    assert gc.girth(gf.tree(3, 2)) == math.inf
    assert gc.girth(gf.path(5)) == math.inf


def test_diameter_needs_connected():
    g = gc.Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        gc.diameter(g)


def test_chromatic_examples():
    assert gc.chromatic_number(gf.complete(5)) == 5
    assert gc.chromatic_number(gf.petersen()) == 3
    assert gc.chromatic_number(gf.shrikhande()) == 4
    assert gc.chromatic_number(gf.rook_twin()) == 4
    assert gc.chromatic_number(gf.cube(3)) == 2
    assert gc.chromatic_number(gf.cycle(7)) == 3


def test_independence_examples():
    assert gc.independence_number(gf.complete(6)) == 1
    assert gc.independence_number(gf.petersen()) == 4
    assert gc.independence_number(gf.cycle(8)) == 4
    assert gc.independence_number(gf.star(7)) == 6


def test_clique_examples():
    assert gc.clique_number(gf.petersen()) == 2
    assert gc.clique_number(gf.complete(6)) == 6
    assert gc.clique_number(gf.rook_twin()) == 4
    assert gc.clique_number(gf.shrikhande()) == 3


def test_independence_equals_complement_clique():
    rnd = random.Random(11)
    for _ in range(5):
        n = 9
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rnd.random() < 0.45]
        g = gc.Graph(n, edges)
        assert gc.independence_number(g) == gc.clique_number(gc.complement(g))


def test_caps_raise():
    big = gf.cycle(70)
    with pytest.raises(CapExceeded):
        gc.chromatic_number(big)
    with pytest.raises(CapExceeded):
        gc.isoperimetric_constant(gf.cycle(30))
    with pytest.raises(CapExceeded):
        gc.is_isomorphic(gf.cycle(40), gf.cycle(40))


# -- isoperimetric ------------------------------------------------------------

def test_beta_examples():
    beta, _ = gc.isoperimetric_constant(gf.complete(6))
    assert beta == 3
    beta, _ = gc.isoperimetric_constant(gf.petersen())
    assert beta == 1
    beta, _ = gc.isoperimetric_constant(gf.cube(3))
    assert beta == 1


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_beta_cycles(n):
    beta, _ = gc.isoperimetric_constant(gf.cycle(n))
    assert beta == Fraction(2, n // 2)


@pytest.mark.parametrize("n", [3, 4])
def test_beta_complete_bipartite(n):
    beta, _ = gc.isoperimetric_constant(gf.complete_bipartite(n, n))
    assert beta == Fraction(math.ceil(n * n / 2), n)


def test_beta_witness_is_consistent():
    g = gf.shrikhande()
    beta, witness = gc.isoperimetric_constant(g)
    assert 0 < len(witness) <= g.n // 2
    assert Fraction(gc.boundary_size(g, witness), len(witness)) == beta
    assert beta == 2


def test_beta_brute_force_oracle_small():
    g = gf.wheel(7)
    beta, _ = gc.isoperimetric_constant(g)
    best = min(Fraction(gc.boundary_size(g, s), k)
               for k in range(1, g.n // 2 + 1)
               for s in itertools.combinations(range(g.n), k))
    assert beta == best


def _gray_sweep(g):
    """The one-vertex-at-a-time Gray-code sweep the chunked sweep replaced,
    kept as its oracle: it keeps the first minimizer in Gray order."""
    n = g.n
    masks = g.masks
    degs = g.degrees
    half = n // 2
    best_num, best_den = degs[0], 1  # S = {0} as a starting bound
    best_mask = 1
    subset = 0
    cut = 0
    size = 0
    for i in range(1, 1 << n):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        inside = (masks[v] & subset).bit_count()
        if subset & bit:
            subset ^= bit
            size -= 1
            cut -= degs[v] - 2 * (masks[v] & subset).bit_count()
        else:
            subset ^= bit
            size += 1
            cut += degs[v] - 2 * inside
        if 0 < size <= half and cut * best_den < best_num * size:
            best_num, best_den = cut, size
            best_mask = subset
    witness = frozenset(v for v in range(n) if best_mask >> v & 1)
    return Fraction(best_num, best_den), witness


def _assert_matches_gray_sweep(g, got):
    """beta equals the Gray sweep's, and the witness is a minimizer of at most
    n/2 vertices; ties may make it another one than the Gray sweep's."""
    beta, witness = got
    assert beta == _gray_sweep(g)[0]
    assert 0 < len(witness) <= g.n // 2
    assert Fraction(gc.boundary_size(g, witness), len(witness)) == beta


def test_beta_matches_gray_sweep_on_corpus():
    checked = 0
    for _cid, _fam, _params, g in corpus_mod.build_corpus():
        if g.is_connected and g.n <= 16:
            _assert_matches_gray_sweep(g, gc.isoperimetric_constant(g))
            checked += 1
    assert checked >= 30


@st.composite
def connected_graphs(draw, max_n):
    """A random spanning tree plus each other pair with a drawn density; at
    least two vertices, as beta is undefined on one."""
    n = draw(st.integers(2, max_n))
    density = draw(st.integers(0, 10)) / 10
    rng = draw(st.randoms(use_true_random=False))
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    extra = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    return gc.Graph(n, tree + extra)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(connected_graphs(15))
@example(gf.cycle(14))
@example(gf.complete_bipartite(7, 7))
@example(gf.cycle(15))
def test_beta_matches_gray_sweep(g):
    """n <= 15 spans one chunk (n < 14, n = 14) and two (n = 15)."""
    _assert_matches_gray_sweep(g, gc.isoperimetric_constant(g))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(connected_graphs(11), st.integers(0, 4), st.sampled_from([1, 3, 1024]))
def test_beta_matches_gray_sweep_small_chunks(g, bits, block):
    """Chunks of 2^0..2^4 low subsets walk many high subsets of both parities,
    read one, three or up to 1024 steps at a time: blocks of high subsets that
    hold no T of at most n/2 vertices, or no complement, included."""
    saved = gc.BETA_CHUNK_BITS, gc.BETA_BLOCK_STEPS
    gc.BETA_CHUNK_BITS, gc.BETA_BLOCK_STEPS = bits, block
    try:
        got = gc.isoperimetric_constant(g)
    finally:
        gc.BETA_CHUNK_BITS, gc.BETA_BLOCK_STEPS = saved
    _assert_matches_gray_sweep(g, got)


# The tables that the popcount ones replaced, kept as their oracle: |L| for
# every subset L by doubling, gathered at order & mask, and cut(L) by a
# doubling that gathered its inner counts from that table.

def _size_table(k: int) -> np.ndarray:
    size = np.zeros(1, np.int16)
    for _ in range(k):
        size = np.concatenate([size, size + 1])
    return size


def _cut_by_gather(g: Graph, first: int, count: int) -> np.ndarray:
    size, low = _size_table(count), np.arange(1 << count)
    cut = np.zeros(1, np.int16)
    for j in range(count):
        inner = size[low[:1 << j] & (g.masks[first + j] >> first)]
        cut = np.concatenate([cut, cut + (g.degrees[first + j] - 2 * inner)])
    return cut


@pytest.mark.parametrize("k", range(gc.BETA_CHUNK_BITS + 1))
def test_beta_tables_match_the_size_gather(k):
    order, bounds = gc._beta_tables(k)
    size, low = _size_table(k), np.arange(1 << k)
    gray = low ^ low >> 1
    assert (order == gray[np.argsort(size[gray], kind="stable")]).all()
    assert (bounds == np.searchsorted(size[order], np.arange(k + 2))).all()
    rng = random.Random(k)
    for mask in [0, (1 << k) - 1, *(rng.getrandbits(k) for _ in range(20))]:
        assert (np.bitwise_count(order & mask) == size[order & mask]).all()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(connected_graphs(16), st.data())
def test_cut_table_matches_the_gathered_doubling(g, data):
    first = data.draw(st.integers(0, g.n - 1))
    count = data.draw(st.integers(0, g.n - first))
    assert (gc._cut_table(g, first, count) == _cut_by_gather(g, first, count)).all()


@pytest.mark.parametrize("cid,beta,witness", [
    ("SP_4", Fraction(2, 3), [2, 4, 6, 8, 9, 10, 13, 14, 15, 16, 20, 21]),
    ("bipaley_11", Fraction(19, 11), [0, 2, 7, 8, 9, 10, 11, 12, 13, 14, 16]),
    ("smalldiam_3", Fraction(1, 7), [1, 4, 5, 10, 11, 12, 13]),
    ("FSP_3", Fraction(7, 9), [0, 5, 6, 7, 8, 10, 11, 12, 13]),
    ("paley_17", Fraction(7, 2), [0, 1, 2, 4, 6, 8, 9, 10]),
])
def test_beta_pinned_on_largest_corpus_graphs(cid, beta, witness):
    """Values the Gray-code sweep gave on the largest graphs it ran on."""
    (_cid, _fam, _params, g), = corpus_mod.build_corpus([cid])
    assert gc.isoperimetric_constant(g) == (beta, frozenset(witness))


@pytest.mark.parametrize("g,cap,beta,witness", [
    # every minimizer holds vertex n - 1: the witness is a complement
    (gf.frucht(), gc.BETA_CAP, Fraction(3, 5), [0, 1, 2, 3, 11]),
    (gf.paley(25), 32, Fraction(11, 2), range(12)),
    (gf.incidence(3, 3), 32, Fraction(16, 13), [*range(7), *range(13, 19)]),
    # K_8,16 less an edge: 127 edges, the most the int8 tables take, and a
    # low subset, vertices 0..7, whose cut is all 127
    (Graph(24, [(i, 8 + j) for i in range(8) for j in range(16)][1:]), gc.BETA_CAP,
     Fraction(21, 4), [1, 2, 3, 4, *range(8, 16)]),
], ids=["frucht", "paley_25", "I_3_3", "K_8_16_less_an_edge"])
def test_beta_pinned_across_the_half_sweep(g, cap, beta, witness):
    """Values the full 2^n Gray-code sweep gave, kept by the sweep over the
    subsets of the first n - 1 vertices and their complements."""
    assert gc.isoperimetric_constant(g, cap=cap) == (beta, frozenset(witness))


@pytest.mark.parametrize("g", [gf.frucht(), gf.petersen(), gf.cycle(15)],
                         ids=["frucht", "petersen", "cycle_15"])
def test_beta_sweeps_once(g, monkeypatch):
    """One pass: one cut table for the low vertices and one for the high,
    also on frucht, whose minimizers all hold vertex n - 1. A second pass
    over all n vertices for such graphs built four."""
    calls = []
    cut_table = gc._cut_table

    def counted(*args):
        calls.append(args[1:])
        return cut_table(*args)
    monkeypatch.setattr(gc, "_cut_table", counted)
    gc.isoperimetric_constant(g)
    k = min(g.n - 1, gc.BETA_CHUNK_BITS)
    assert calls == [(0, k), (k, g.n - 1 - k)]


def test_beta_honours_budget(monkeypatch):
    monkeypatch.setattr(gc, "EXACT_BUDGET_SECONDS", 0)
    with pytest.raises(CapExceeded):
        gc.isoperimetric_constant(gf.cube(4))
    assert "isoperimetric" in gc.invariant_report(gf.cube(4)).skipped


def test_beta_refused_on_one_vertex():
    """No S has 0 < |S| <= n/2 on one vertex, so beta is undefined there."""
    k1 = Graph(1, [])
    with pytest.raises(BadParameters):
        gc.isoperimetric_constant(k1)
    data = gc.invariant_report(k1).to_json()
    assert data["isoperimetric"] is None and data["isoperimetric_witness"] is None
    assert data["skipped"] == ["isoperimetric (one vertex)"]


# -- structure operations ---------------------------------------------------------

def test_product_is_cube():
    k2 = gf.complete(2)
    q3 = gc.product(gc.product(k2, k2), k2)
    assert gc.is_isomorphic(q3, gf.cube(3))[0]


def test_bipartite_double_of_k4_is_cube():
    assert gc.is_isomorphic(gc.bipartite_double(gf.complete(4)), gf.cube(3))[0]


def test_bipartite_double_of_odd_cycle():
    assert gc.is_isomorphic(gc.bipartite_double(gf.cycle(5)), gf.cycle(10))[0]


def test_bipartite_double_connectivity_rule():
    for g in [gf.petersen(), gf.complete(4), gf.cycle(5), gf.shrikhande()]:
        assert gc.bipartite_double(g).is_connected  # non-bipartite sources
    for g in [gf.cube(3), gf.cycle(6), gf.complete_bipartite(2, 3), gf.tree(3, 2)]:
        assert not gc.bipartite_double(g).is_connected  # bipartite sources


def test_bipartite_double_connectivity_over_corpus():
    for _cid, _fam, _params, g in corpus_mod.build_corpus():
        assert gc.bipartite_double(g).is_connected == (not g.is_bipartite)


def test_complement_of_c5_is_c5():
    assert gc.is_isomorphic(gc.complement(gf.cycle(5)), gf.cycle(5))[0]


def test_cone_over_cycle_is_wheel():
    assert gc.is_isomorphic(gc.cone(gf.cycle(5)), gf.wheel(6))[0]


def test_link_graphs_of_the_twins():
    # rook link: two disjoint triangles; Shrikhande link: a 6-cycle
    link_rook = gc.link_graph(gf.rook_twin(), 0)
    link_shri = gc.link_graph(gf.shrikhande(), 0)
    assert link_rook.edge_count == 6 and len(link_rook.components) == 2
    assert gc.is_isomorphic(link_shri, gf.cycle(6))[0]


def test_complement_and_link():
    g = gf.cycle(5)
    assert gc.complement(gc.complement(g)) == g
    assert gc.is_isomorphic(gc.complement(g), g)[0]  # C_5 is self-complementary
    assert gc.link_graph(gf.petersen(), 0).n == 3


# -- isomorphism ----------------------------------------------------------------

def test_cubic_octet_triple_pairwise_non_isomorphic():
    a, b, c = fx.cubic_octet_triple()
    assert all(g.is_regular and g.max_degree == 3 for g in (a, b, c))
    assert not gc.is_isomorphic(a, b)[0]
    assert not gc.is_isomorphic(a, c)[0]
    assert not gc.is_isomorphic(b, c)[0]


def test_twins_not_isomorphic():
    assert not gc.is_isomorphic(gf.shrikhande(), gf.rook_twin())[0]


def _shuffled(g: Graph, rnd: random.Random) -> Graph:
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return fx.relabel(g, perm)


def _assert_isomorphism(g: Graph, h: Graph, mapping) -> None:
    """mapping is a bijection of the vertices that carries g's edges onto h's,
    and the numeric spectrum comparison, which `iso` skips once the search
    finds an isomorphism, says the two are isospectral."""
    assert sorted(mapping) == list(range(h.n))
    assert fx.relabel(g, mapping) == h
    assert sp.verify_closed_form(sp.spectrum(g), sp.spectrum(h))["ok"]


def test_random_relabeling_is_isomorphic():
    rnd = random.Random(3)
    for g in [gf.frucht(), gf.petersen(), gf.shrikhande()]:
        h = _shuffled(g, rnd)
        ok, mapping = gc.is_isomorphic(g, h)
        assert ok
        _assert_isomorphism(g, h, mapping)


def test_triangular_8_and_chang_graphs():
    """Four strongly regular graphs with parameters (28, 12, 6, 4): pairwise
    non-isomorphic, each isomorphic to a relabelling of itself, with the
    automorphism group orders 8!, 384, 360 and 96."""
    graphs = [fx.triangular_8(), *fx.chang_graphs()]
    for g in graphs:
        assert g.is_regular and g.max_degree == 12
        assert {(g.has_edge(u, v), gc.common_neighbours(g, u, v))
                for u, v in itertools.combinations(range(g.n), 2)} == {(True, 6), (False, 4)}
    assert [gc.automorphism_count(g) for g in graphs] == [40320, 384, 360, 96]
    for a, b in itertools.combinations(graphs, 2):
        assert not gc.is_isomorphic(a, b)[0], (a, b)
    rnd = random.Random(8)
    for g in graphs:
        h = _shuffled(g, rnd)
        ok, mapping = gc.is_isomorphic(g, h)
        assert ok, g
        _assert_isomorphism(g, h, mapping)


def test_isomorphic_rejects_degree_mismatch():
    assert not gc.is_isomorphic(gf.path(4), gf.star(4))[0]


def test_automorphism_counts():
    """Orders from the literature; K_12 is far past what enumeration reaches."""
    for g, order in [
        (gf.frucht(), 1), (gf.complete(4), 24), (gf.cycle(5), 10),
        (gf.complete(12), 479001600), (gf.petersen(), 120), (gf.heawood(), 336),
        (gf.tutte_coxeter(), 1440), (gf.incidence(3, 3), 11232), (gf.cube(5), 3840),
        (gf.paley(29), 406), (gf.andrasfai(8), 46), (gf.complete_bipartite(3, 4), 144),
        (gc.Graph(3, []), 6),
    ]:
        assert gc.automorphism_count(g) == order, g


# An enumerating backtracking search, kept as the oracle for automorphism
# counts and for is_isomorphic's decisions.

def _refined_colors_joint(g: Graph, h: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """1-WL colour refinement over both graphs with a shared palette, seeded
    with (degree, triangle, K4) counts; colour ids are assigned by sorted
    signature so they correspond across the two graphs."""
    def seed(x: Graph):
        return [(x.degree(v), triangles_at(x, v), k4_at(x, v)) for v in range(x.n)]

    sig_g, sig_h = seed(g), seed(h)
    cur_g = cur_h = None
    for _ in range(g.n + 1):
        palette = {s: i for i, s in enumerate(sorted(set(sig_g) | set(sig_h)))}
        nxt_g = [palette[s] for s in sig_g]
        nxt_h = [palette[s] for s in sig_h]
        if nxt_g == cur_g and nxt_h == cur_h:
            break
        cur_g, cur_h = nxt_g, nxt_h
        sig_g = [(cur_g[v], tuple(sorted(cur_g[w] for w in g.adj[v]))) for v in range(g.n)]
        sig_h = [(cur_h[v], tuple(sorted(cur_h[w] for w in h.adj[v]))) for v in range(h.n)]
    return tuple(cur_g), tuple(cur_h)


def _iso_search(g: Graph, h: Graph, count_all: bool = False):
    """Backtracking isomorphism search; returns (count, first_mapping)."""
    cg, ch = _refined_colors_joint(g, h)
    if sorted(cg) != sorted(ch):
        return 0, None
    by_color: dict[int, list[int]] = {}
    for v in range(h.n):
        by_color.setdefault(ch[v], []).append(v)

    mapping = [-1] * g.n
    used = [False] * h.n
    found = [0]
    first: list = [None]

    order: list[int] = []
    placed = set()
    while len(order) < g.n:
        v = max(
            (u for u in range(g.n) if u not in placed),
            key=lambda u: (sum(1 for w in g.adj[u] if w in placed), g.degree(u), -u),
        )
        order.append(v)
        placed.add(v)

    def rec(pos: int) -> bool:
        if pos == g.n:
            found[0] += 1
            if first[0] is None:
                first[0] = list(mapping)
            return not count_all
        v = order[pos]
        for w in by_color.get(cg[v], ()):
            if used[w]:
                continue
            ok = True
            for u in g.adj[v]:
                mu = mapping[u]
                if mu >= 0 and not h.has_edge(w, mu):
                    ok = False
                    break
            if ok:
                for u in range(g.n):
                    mu = mapping[u]
                    if mu >= 0 and u not in g.adj[v] and h.has_edge(w, mu):
                        ok = False
                        break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if rec(pos + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    rec(0)
    return found[0], first[0]


def test_automorphism_count_matches_enumeration_on_corpus():
    checked = 0
    for cid, _fam, _params, g in corpus_mod.build_corpus():
        if g.n <= 24:
            assert gc.automorphism_count(g) == _iso_search(g, g, count_all=True)[0], cid
            checked += 1
    assert checked == 45


@st.composite
def any_graphs(draw, max_n):
    """Each pair an edge with a drawn density: disconnected and edgeless too."""
    n = draw(st.integers(1, max_n))
    density = draw(st.integers(0, 10)) / 10
    rng = draw(st.randoms(use_true_random=False))
    return gc.Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])


def _cycles(*lengths):
    """Disjoint union of cycles: refinement cannot tell their vertices apart."""
    starts = list(itertools.accumulate(lengths, initial=0))
    return gc.Graph(starts[-1], [(s + i, s + (i + 1) % k)
                                 for s, k in zip(starts, lengths) for i in range(k)])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(any_graphs(8))
@example(gc.Graph(8, []))
@example(gc.Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]))
@example(_cycles(4, 4, 8))
@example(_cycles(5, 10))
def test_automorphism_count_matches_enumeration(g):
    """The unions of cycles have refined cells that are not orbits."""
    assert gc.automorphism_count(g) == _iso_search(g, g, count_all=True)[0]


# networkx's VF2 matcher, an independent second oracle for automorphism
# counts; it enumerates at about 10^4 mappings a second, so a count is checked
# exactly up to 6! and only as "over 6!" beyond.
_NX_AUT_LIMIT = 720


def _networkx(g: Graph):
    a = pytest.importorskip("networkx").empty_graph(g.n)
    a.add_edges_from(g.edges())
    return a


@settings(max_examples=150, derandomize=True, deadline=None)
@given(any_graphs(10))
@example(_cycles(3, 3, 4))
@example(gf.petersen())
def test_automorphism_count_matches_networkx(g):
    a = _networkx(g)
    mappings = pytest.importorskip("networkx").isomorphism.GraphMatcher(a, a).isomorphisms_iter()
    found = sum(1 for _ in itertools.islice(mappings, _NX_AUT_LIMIT + 1))
    assert min(gc.automorphism_count(g), _NX_AUT_LIMIT + 1) == found


def _k4_counts_by_subsets(g: Graph) -> list[int]:
    counts = [0] * g.n
    for quad in itertools.combinations(range(g.n), 4):
        if all(g.has_edge(u, w) for u, w in itertools.combinations(quad, 2)):
            for v in quad:
                counts[v] += 1
    return counts


@settings(max_examples=150, derandomize=True, deadline=None)
@given(any_graphs(12))
@example(gf.complete(9))
def test_k4_at_matches_subset_count(g):
    assert [k4_at(g, v) for v in range(g.n)] == _k4_counts_by_subsets(g)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(any_graphs(12))
@example(gf.complete(9))
def test_triangle_count_matches_the_per_vertex_counts(g):
    """triangle_count sums over the arcs in one pass; the per-vertex counts
    it summed before are its oracle."""
    assert gc.triangle_count(g) == sum(triangles_at(g, v) for v in range(g.n)) // 3


def test_k4_at_matches_subset_count_on_corpus():
    checked = 0
    for cid, _fam, _params, g in corpus_mod.build_corpus():
        if g.n <= 30:
            assert [k4_at(g, v) for v in range(g.n)] == _k4_counts_by_subsets(g), cid
            checked += 1
    assert checked == 49


# The depth-first reachability and 2-colouring that the breadth-first ones
# replaced, kept as their oracle.

def _component(g: Graph, start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _components(g: Graph) -> list[frozenset[int]]:
    left = set(range(g.n))
    out = []
    while left:
        comp = _component(g, min(left))
        out.append(frozenset(comp))
        left -= comp
    return out


def _is_connected(g: Graph) -> bool:
    return len(_component(g, 0)) == g.n


def _bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in g.adj[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    black = frozenset(v for v in range(g.n) if color[v] == 0)
    return black, frozenset(range(g.n)) - black


def _assert_traversals_match_dfs(g: Graph):
    assert g.is_connected == _is_connected(g)
    assert g.components == _components(g)
    assert g.bipartition == _bipartition(g)


def test_traversals_match_dfs_on_corpus():
    for _cid, _fam, _params, g in corpus_mod.build_corpus():
        _assert_traversals_match_dfs(g)


K3_C4 = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)], name="K3+C4")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(any_graphs(12))
@example(Graph(1, []))
@example(Graph(3, []))
@example(Graph(4, [(0, 1), (2, 3)]))
@example(K3_C4)
@example(_cycles(5, 10))
@example(_cycles(4, 6))
def test_traversals_match_dfs(g):
    _assert_traversals_match_dfs(g)


def _chromatic_number(g: Graph, cap: int = gc.CHI_CAP) -> int:
    """The chromatic number as it was computed before the greedy DSATUR pass
    became the first descent of the colourability search: a separate greedy
    colouring for the upper bound, then k-colourability backtracking."""
    if g.n > cap:
        raise CapExceeded(f"n = {g.n} over chromatic cap {cap}")
    if g.edge_count == 0:
        return 1
    if g.is_bipartite:
        return 2
    deadline = gc._Deadline()

    def greedy_dsatur() -> int:
        colours = [-1] * g.n
        for _ in range(g.n):
            v = max(
                (u for u in range(g.n) if colours[u] < 0),
                key=lambda u: (len({colours[w] for w in g.adj[u] if colours[w] >= 0}), g.degree(u)),
            )
            used = {colours[w] for w in g.adj[v] if colours[w] >= 0}
            c = 0
            while c in used:
                c += 1
            colours[v] = c
        return max(colours) + 1

    lower = gc.clique_number(g, cap=cap)
    upper = greedy_dsatur()

    def colourable(k: int) -> bool:
        colours = [-1] * g.n

        def rec(done: int) -> bool:
            deadline.check()
            if done == g.n:
                return True
            v = max(
                (u for u in range(g.n) if colours[u] < 0),
                key=lambda u: (len({colours[w] for w in g.adj[u] if colours[w] >= 0}), g.degree(u)),
            )
            used = {colours[w] for w in g.adj[v] if colours[w] >= 0}
            top = min(k, (max((colours[u] for u in range(g.n)), default=-1) + 2))
            for c in range(top):
                if c in used:
                    continue
                colours[v] = c
                if rec(done + 1):
                    return True
                colours[v] = -1
            return False

        return rec(0)

    for k in range(lower, upper):
        if colourable(k):
            return k
    return upper


def _assert_chromatic_number_matches_oracle(g: Graph):
    """The public search, which starts at max(omega, ceil(n/alpha)); the
    search invariant_report runs with omega and alpha known; and its
    fallback when alpha is refused, which starts at omega."""
    chi = _chromatic_number(g)
    assert gc.chromatic_number(g) == chi
    omega, alpha = gc.clique_number(g), gc.independence_number(g)
    assert gc._chromatic_number(g, gc.CHI_CAP, omega, alpha) == chi
    assert gc._chromatic_number(g, gc.CHI_CAP, None, None) == chi


def test_chromatic_number_matches_two_search_oracle_on_corpus():
    checked = 0
    for cid, _fam, _params, g in corpus_mod.build_corpus():
        if g.n <= gc.CHI_CAP:
            _assert_chromatic_number_matches_oracle(g)
            checked += 1
    assert checked == 52


@settings(max_examples=300, derandomize=True, deadline=None)
@given(any_graphs(12))
@example(gc.Graph(12, []))
@example(gc.Graph(1, []))
@example(gc.Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]))
@example(_cycles(5, 7))
@example(gc.Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)]))
def test_chromatic_number_matches_two_search_oracle(g):
    """Edgeless, disconnected and odd-cycle unions included."""
    _assert_chromatic_number_matches_oracle(g)


@pytest.mark.parametrize("q,chi", [(29, 8), (37, 10), (41, 9), (53, 11), (61, 13)])
def test_chromatic_number_of_paley_graphs(q, chi):
    """chi = ceil(q/alpha) on each, so the search from that bound ends at its
    first colouring, inside the default budget; from omega it has to refute
    every k in between."""
    g = gf.paley(q)
    assert chi == -(-q // gc.independence_number(g)) > gc.clique_number(g)
    assert gc.chromatic_number(g) == chi
    assert gc.invariant_report(g, beta_cap=0).chromatic == chi


def _diameter(g: Graph) -> int:
    """The diameter as it was computed before the bitmask BFS: the largest
    distance of a breadth-first search from each vertex."""
    return int(max(max(g.bfs_distances(v)) for v in range(g.n)))


def test_diameter_matches_bfs_oracle_on_corpus():
    checked = 0
    for cid, _fam, _params, g in corpus_mod.build_corpus():
        if g.is_connected:
            assert gc.diameter(g) == _diameter(g), cid
            checked += 1
    assert checked == 52


@settings(max_examples=200, derandomize=True, deadline=None)
@given(connected_graphs(20))
@example(Graph(1, []))
@example(gf.path(20))
def test_diameter_matches_bfs_oracle(g):
    assert gc.diameter(g) == _diameter(g)


# The engines that the orbit-root and bitmask ones replaced, kept as their
# oracles: the list BFS girth from every root, the all-roots diameter above,
# alpha as the clique number of a built complement, and the set-based DSATUR.

def _girth(g: Graph):
    best = math.inf
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            if best < math.inf and dist[u] >= best / 2:
                break
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
        if best == 3:
            break
    return best


def _dsatur_colouring(g: Graph, k: int) -> list[int] | None:
    colours = [-1] * g.n

    def rec(done: int) -> bool:
        if done == g.n:
            return True
        v = max(
            (u for u in range(g.n) if colours[u] < 0),
            key=lambda u: (len({colours[w] for w in g.adj[u] if colours[w] >= 0}), g.degree(u)),
        )
        used = {colours[w] for w in g.adj[v] if colours[w] >= 0}
        top = min(k, (max((colours[u] for u in range(g.n)), default=-1) + 2))
        for c in range(top):
            if c in used:
                continue
            colours[v] = c
            if rec(done + 1):
                return True
            colours[v] = -1
        return False

    return colours if rec(0) else None


def test_dsatur_keeps_its_path_off_the_call_stack():
    """One call per vertex raised RecursionError on cube:10's 1,024 vertices.
    On a connected bipartite graph DSATUR gives the 2-colouring by distance
    from vertex 0, on a cube the parity of each vertex's bits, as the oracle
    does on the cubes it reaches."""
    for d in (1, 3, 5, 10):
        g = gf.cube(d)
        parity = [v.bit_count() & 1 for v in range(g.n)]
        assert gc._dsatur_colouring(g, g.n, gc._Deadline()) == parity
        if d < 10:
            assert _dsatur_colouring(g, g.n) == parity
    assert gc._dsatur_colouring(gf.cube(10), 1, gc._Deadline()) is None


def _assert_engines_match_oracles(g: Graph):
    """girth, diameter, alpha, and every colouring search that chi runs, from
    max(omega, ceil(n/alpha)) up to the greedy DSATUR colouring's size."""
    assert gc.girth(g) == _girth(g)
    if g.is_connected:
        assert gc.diameter(g) == _diameter(g)
    assert gc.basic_metrics(g) == (_diameter(g) if g.is_connected else None, _girth(g))
    alpha = gc.independence_number(g)
    assert alpha == gc.clique_number(gc.complement(g))
    greedy = _dsatur_colouring(g, g.n)
    assert gc._dsatur_colouring(g, g.n, gc._Deadline()) == greedy
    for k in range(max(gc.clique_number(g), -(-g.n // alpha)), max(greedy) + 1):
        assert gc._dsatur_colouring(g, k, gc._Deadline()) == _dsatur_colouring(g, k)


def test_engines_match_oracles_on_corpus_and_sweep():
    """Every corpus graph and every graph of verify's closed-form sweep, which
    hold 24 Cayley and 8 bi-Cayley corpus graphs: each one's orbit roots give
    what every root gives."""
    corpus = [g for *_, g in corpus_mod.build_corpus()]
    sweep = [gf.build(family, *params)
             for family, instances in corpus_mod.SMALLEST_THREE.items() for params in instances]
    for g in corpus + sweep:
        _assert_engines_match_oracles(g)
    bi = [g.group.bi for g in corpus if g.group is not None]
    assert (bi.count(False), bi.count(True)) == (24, 8)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(any_graphs(14))
@example(Graph(1, []))
@example(K3_C4)
@example(_cycles(5, 7))
@example(_cycles(4, 6))
@example(gf.tree(2, 3))
def test_engines_match_oracles(g):
    """Forests, disconnected and odd-cycle unions included."""
    _assert_engines_match_oracles(g)


def _colour_bound_clique(n: int, masks) -> int:
    """The clique search MCQ replaced: each node bounds itself by the number
    of greedy colour classes of its candidates, then branches on the
    highest-index candidate while size + |cand| can beat the best."""
    best = 1

    def colour_bound(cand: int) -> int:
        classes: list[int] = []
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            for i, cls in enumerate(classes):
                if not masks[v] & cls:
                    classes[i] = cls | 1 << v
                    break
            else:
                classes.append(1 << v)
        return len(classes)

    def expand(size: int, cand: int):
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        if size + colour_bound(cand) <= best:
            return
        while cand and size + cand.bit_count() > best:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            expand(size + 1, cand & masks[v])

    expand(0, (1 << n) - 1)
    return best


def _assert_clique_search_matches_colour_bound(g: Graph):
    """omega, and alpha as the clique number of the complement's masks."""
    full = (1 << g.n) - 1
    assert gc._max_clique(g.n, g.masks) == _colour_bound_clique(g.n, g.masks)
    co = [full ^ m ^ 1 << v for v, m in enumerate(g.masks)]
    assert gc._max_clique(g.n, co) == _colour_bound_clique(g.n, co)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(any_graphs(20))
@example(Graph(1, []))
@example(Graph(20, []))
@example(gf.complete(20))
def test_clique_search_matches_colour_bound_search(g):
    _assert_clique_search_matches_colour_bound(g)


def test_clique_search_matches_colour_bound_search_on_corpus_and_dense_graphs():
    corpus = [g for *_, g in corpus_mod.build_corpus() if g.n <= gc.CHI_CAP]
    named = [gf.paley(61), gf.halved_cube(7), gf.machine((8,))]
    rng = random.Random(64)
    dense = [Graph(64, [e for e in itertools.combinations(range(64), 2) if rng.random() < p])
             for p in (0.3, 0.5, 0.7, 0.9)]
    assert len(corpus) == 52
    for g in corpus + named + dense:
        _assert_clique_search_matches_colour_bound(g)


def test_konig_walks_long_augmenting_paths_off_the_call_stack():
    """The matching recursed once per step of an augmenting path, so a path
    of 2,000 vertices raised RecursionError."""
    assert gc.independence_number(gf.path(5000), cap=10**6) == 2500


def test_konig_searches_only_from_the_black_vertices_left_unmatched(monkeypatch):
    """On a path each black vertex takes its free white neighbour, so no
    augmenting search runs. Searching from every black vertex, the matched
    neighbour first, entered the whites of the whole matched prefix again
    from each: 2,346,250 entries."""
    g = gf.path(5000)
    assert g.is_bipartite
    entered = []

    class Seen(set):
        def add(self, w):
            entered.append(w)
            super().add(w)
    monkeypatch.setattr(gc, "set", Seen, raising=False)
    assert gc._max_matching_bipartite(g) == 2500
    assert len(entered) == 0


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 10),
       st.randoms(use_true_random=False))
def test_konig_matching_matches_networkx(a, b, density, rng):
    """Matching sizes against networkx's maximum-cardinality matching, on
    random bipartite graphs with sides 0..a - 1 and a..a + b - 1."""
    edges = [(u, a + v) for u in range(a) for v in range(b) if rng.random() < density / 10]
    g = Graph(a + b, edges)
    largest = pytest.importorskip("networkx").max_weight_matching(_networkx(g), maxcardinality=True)
    assert gc._max_matching_bipartite(g) == len(largest)


@st.composite
def forests(draw, max_n):
    """A forest on shuffled vertex numbers: each vertex after the first joins
    one of the span vertices before it (span 1: a path) or, with a drawn
    chance (0: a tree), starts a tree of its own."""
    n = draw(st.integers(1, max_n))
    span = draw(st.integers(1, max_n))
    fresh = draw(st.integers(0, 10)) / 10
    rng = draw(st.randoms(use_true_random=False))
    perm = rng.sample(range(n), n)
    return Graph(n, [(perm[v], perm[rng.randrange(max(0, v - span), v)])
                     for v in range(1, n) if rng.random() >= fresh])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(forests(60))
@example(Graph(1, []))
@example(gf.path(2))
@example(gf.star(40))
@example(Graph(8, [(0, 1), (1, 2), (2, 3), (5, 6)]))  # 4 and 7 isolated
def test_forest_walks_from_one_root(g):
    """A forest's one root is a vertex farthest from 0, and its walk gives the
    girth and, on a tree, the diameter that every root gives."""
    (root,) = gc._orbit_roots(g)
    dist = g.bfs_distances(0)
    assert dist[root] == max(d for d in dist if d < math.inf)
    assert gc.basic_metrics(g) == (_diameter(g) if g.is_connected else None, _girth(g))


def test_orbit_roots_on_a_tree_a_group_graph_and_neither():
    for g in (gf.tree(3, 4), gf.cycle(9), gf.rook(4), gf.incidence(3, 2)):
        assert len(gc._orbit_roots(g)) == 1, g.name
    assert list(gc._orbit_roots(gf.wheel(6))) == list(range(6))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(any_graphs(14), forests(40)))
@example(Graph(1, []))
@example(Graph(5, []))
@example(Graph(8, [(0, 1), (1, 2), (2, 3), (5, 6)]))  # 4 and 7 isolated
@example(K3_C4)
@example(_cycles(4, 6))
def test_one_search_matches_networkx(g):
    """Connectivity, the components and the 2-colouring that the one search
    forest gives, against networkx."""
    nx = pytest.importorskip("networkx")
    a = _networkx(g)
    comps = sorted((frozenset(c) for c in nx.connected_components(a)), key=min)
    assert g.components == comps
    assert g.is_connected == (len(comps) == 1)
    assert (g.bipartition is None) == (not nx.is_bipartite(a))
    if g.bipartition is not None:
        black, white = g.bipartition
        assert black | white == set(range(g.n)) and not black & white
        assert all((u in black) != (v in black) for u, v in g.edges())
        assert all(min(c) in black for c in comps)


@pytest.mark.parametrize("g", [gf.tree(3, 3), gf.petersen(), K3_C4, Graph(5, []),
                               Graph(8, [(0, 1), (1, 2), (2, 3), (5, 6)])],
                         ids=["tree", "petersen", "K3+C4", "edgeless", "forest"])
def test_one_search_per_component(g, monkeypatch):
    """Reading all four facts starts one search per component, each from the
    component's least vertex."""
    starts = []
    search = Graph._search
    monkeypatch.setattr(Graph, "_search",
                        lambda g, source, dist: starts.append(source) or search(g, source, dist))
    g = Graph(g.n, g.edges())  # nothing cached
    g.is_connected, g.components, g.bipartition, gc._orbit_roots(g)
    assert starts == [min(c) for c in g.components]


@st.composite
def group_graphs(draw, bi=st.booleans()):
    """A Cayley graph on a random symmetric subset, or a bi-Cayley graph on a
    random subset, of Z_m or Z_a x Z_b: connected or not."""
    orders = draw(st.sampled_from([(m,) for m in range(2, 11)] + [(2, 2), (2, 3), (2, 4), (3, 3)]))
    elems = groups.elements(orders)
    bi = draw(bi)
    picked = draw(st.lists(st.sampled_from(range(1, len(elems))), min_size=1, unique=True))
    if not bi:
        picked += [_neg_index(elems, orders, s) for s in picked]
    return Graph.from_group(groups.Group(orders, tuple(sorted(set(picked))), bi))


def _neg_index(elems, orders, i) -> int:
    """The index of -x for the element x at index i, read off the coordinate
    tuples elems in index order."""
    return elems.index(tuple(-x % m for x, m in zip(elems[i], orders)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(group_graphs())
def test_orbit_roots_match_all_roots_on_group_graphs(g):
    assert gc.girth(g) == _girth(g)
    if g.is_connected:
        assert gc.diameter(g) == _diameter(g)
    assert gc.basic_metrics(g) == (_diameter(g) if g.is_connected else None, _girth(g))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(group_graphs(bi=st.just(True)))
def test_bi_cayley_side_swap_is_an_automorphism(g):
    """Black g -> white -g, white h -> black -h keeps h - g in S, so with the
    translations it makes a bi-Cayley graph vertex-transitive: the reason
    one orbit root serves every group graph."""
    orders, half = g.group.orders, g.n // 2
    elems = groups.elements(orders)
    neg = [_neg_index(elems, orders, i) for i in range(half)]
    swap = [half + neg[v] if v < half else neg[v - half] for v in range(g.n)]
    assert fx.relabel(g, swap) == g


def test_is_isomorphic_matches_enumeration():
    """Seeded relabellings of the corpus, and unions of cycles that refinement
    leaves one colour class each, so that backtracking must refute them."""
    rnd = random.Random(5)
    pairs = [(_cycles(8), _cycles(4, 4)), (_cycles(5, 5), _cycles(10))]
    for _cid, _fam, _params, g in corpus_mod.build_corpus():
        if g.n <= 32:
            perm = list(range(g.n))
            rnd.shuffle(perm)
            pairs.append((g, fx.relabel(g, perm)))
    assert len(pairs) == 52
    for g, h in pairs:
        ok, mapping = gc.is_isomorphic(g, h)
        assert ok == (_iso_search(g, h)[0] > 0), g
        if ok:
            _assert_isomorphism(g, h, mapping)


@st.composite
def graph_pairs(draw):
    """A graph and a relabelling of it after one degree-preserving 2-switch
    (u-v, x-y -> u-x, v-y), so that the two share a degree sequence; or, at
    the last index and when no switch exists, of the graph itself."""
    g = draw(any_graphs(8))
    rng = draw(st.randoms(use_true_random=False))
    edges = set(g.edges())
    switches = [(a, b) for a, b in itertools.permutations(sorted(edges), 2)
                if len({*a, *b}) == 4 and not g.has_edge(a[0], b[0]) and not g.has_edge(a[1], b[1])]
    k = draw(st.integers(0, len(switches)))
    if k < len(switches):
        (u, v), (x, y) = switches[k]
        edges = edges - {(u, v), (x, y)} | {(u, x), (v, y)}
    return g, _shuffled(gc.Graph(g.n, edges), rng)


def _networkx_isomorphic(g: Graph, h: Graph) -> bool:
    return pytest.importorskip("networkx").is_isomorphic(_networkx(g), _networkx(h))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graph_pairs())
@example((_cycles(8), _cycles(4, 4)))
@example((_cycles(5, 5), _cycles(10)))
def test_is_isomorphic_matches_networkx(pair):
    g, h = pair
    ok, mapping = gc.is_isomorphic(g, h)
    assert ok == _networkx_isomorphic(g, h) == (_iso_search(g, h)[0] > 0)
    if ok:
        _assert_isomorphism(g, h, mapping)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graph_pairs())
@example((_cycles(8), _cycles(4, 4)))
@example((_cycles(3, 3, 4), _cycles(5, 5)))
@example((gf.shrikhande(), gf.rook_twin()))
@example((gc.Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
          gc.Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])))
def test_following_g_matches_joint_refinement(pair):
    """Replaying g's refinement rounds on h fails exactly when refining both
    under one palette ends with different colour multisets; otherwise the
    two colourings put vertices of either graph in one colour alike. Two
    paths on three vertices against P4 + K2 differ only in the last round,
    which adds no colour to g."""
    g, h = pair
    joint_g, joint_h = _refined_colors_joint(g, h)
    cg, rounds = gc._refine(g, g._local_counts)
    ch = gc._follow(h, h._local_counts, rounds)
    assert (ch is None) == (sorted(joint_g) != sorted(joint_h))
    if ch is not None:
        pairs = set(zip(cg, joint_g)) | set(zip(ch, joint_h))
        assert len(pairs) == len(set(cg)) == len(set(joint_g))


def test_target_cell_is_the_earliest_largest_cell():
    assert gc._target_cell([1, 0, 0, 0, 1, 2, 2, 2]) == [1, 2, 3]
    assert gc._target_cell([2, 0, 1, 1, 0, 3]) == [1, 4]
    assert gc._target_cell([3, 0, 2, 1]) is None
    assert gc._target_cell([0]) is None


@pytest.mark.parametrize("q", [7, 8])
def test_isomorphism_search_decides_projective_planes_within_short_budget(q, monkeypatch):
    """The incidence graph of PG(2, q), whose smallest refined cells hold
    the lines through one point: branching on the largest cell decides it
    in milliseconds."""
    monkeypatch.setattr(gc, "EXACT_BUDGET_SECONDS", 1.0)
    g = gf.incidence(3, q)
    h = _shuffled(g, random.Random(q))
    ok, mapping = gc.is_isomorphic(g, h, cap=200)
    assert ok
    _assert_isomorphism(g, h, mapping)


@pytest.mark.parametrize("q, order", [(5, 744000), (7, 11261376)])
def test_automorphism_count_of_projective_planes(q, order, monkeypatch):
    """Twice |PGL(3, q)| for prime q: the polarity swaps points and lines."""
    monkeypatch.setattr(gc, "ISO_CAP", 200)
    assert order == 2 * (q**3 - 1) * (q**3 - q) * (q**3 - q**2) // (q - 1)
    assert gc.automorphism_count(gf.incidence(3, q)) == order


def test_isomorphism_search_decides_andrasfai_within_short_budget(monkeypatch):
    """Andrasfai graphs leave one refined cell each (they are Cayley graphs);
    refining after each individualisation decides them in milliseconds."""
    monkeypatch.setattr(gc, "EXACT_BUDGET_SECONDS", 0.2)
    rnd = random.Random(4)
    for k in (10, 11):
        g = gf.andrasfai(k)
        h = _shuffled(g, rnd)
        ok, mapping = gc.is_isomorphic(g, h)
        assert ok, g
        _assert_isomorphism(g, h, mapping)


def test_isomorphism_search_honours_budget(monkeypatch):
    monkeypatch.setattr(gc, "EXACT_BUDGET_SECONDS", 0)
    with pytest.raises(CapExceeded):
        gc.is_isomorphic(gf.cube(4), gf.cube(4))
    with pytest.raises(CapExceeded):
        gc.automorphism_count(gf.cube(4))


@pytest.mark.parametrize("engine", [gc.clique_number, gc.independence_number,
                                    gc.chromatic_number], ids=lambda f: f.__name__)
def test_clique_engines_honour_budget(engine, monkeypatch):
    """Petersen is not bipartite, so each engine reaches its timed search."""
    monkeypatch.setattr(gc, "EXACT_BUDGET_SECONDS", 0)
    with pytest.raises(CapExceeded):
        engine(gf.petersen())


def test_invariant_report_records_budget_skips_in_order(monkeypatch):
    monkeypatch.setattr(gc, "EXACT_BUDGET_SECONDS", 0)
    rep = gc.invariant_report(gf.petersen())
    assert rep.skipped == ["chromatic", "independence", "clique", "isoperimetric"]
    assert rep.chromatic is rep.independence is rep.clique is rep.isoperimetric is None


# -- friendship and universality ------------------------------------------------

def test_friendship_windmills():
    verdict, blades = gc.friendship_check(gf.windmill(5))
    assert verdict == "windmill" and blades == 5
    verdict, blades = gc.friendship_check(gf.complete(3))
    assert verdict == "windmill" and blades == 1


def test_friendship_petersen_violation():
    verdict, witness = gc.friendship_check(gf.petersen())
    assert verdict == "violation"
    u, v, count = witness
    assert gc.common_neighbours(gf.petersen(), u, v) == count != 1


def test_small_graph_class_counts():
    assert len(gc.small_graph_classes(3).class_codes) == 4
    assert len(gc.small_graph_classes(4).class_codes) == 11


def test_universality_paley17_k3():
    assert gc.contains_all_small_graphs(gf.paley(17), 3)


def test_universality_complete_graph_fails():
    assert not gc.contains_all_small_graphs(gf.complete(5), 3)


# -- corpus invariants -------------------------------------------------------------

SMALL_CORPUS = None


def small_corpus():
    global SMALL_CORPUS
    if SMALL_CORPUS is None:
        SMALL_CORPUS = [
            gf.complete(5), gf.cycle(6), gf.cycle(7), gf.cube(3), gf.cube(4),
            gf.petersen(), gf.shrikhande(), gf.rook_twin(), gf.heawood(),
            gf.paley(13), gf.bi_paley(7), gf.star(6), gf.wheel(7),
            gf.windmill(3), gf.tree(3, 2), gf.path(6), gf.andrasfai(3),
            gf.complete_bipartite(3, 4), gf.halved_cube(4), gf.frucht(),
        ]
    return SMALL_CORPUS


def test_handshake_on_corpus():
    for g in small_corpus():
        assert sum(g.degrees) == 2 * g.edge_count


def test_mantel_on_triangle_free_corpus():
    for g in small_corpus():
        if gc.girth(g) > 3:
            assert g.edge_count <= g.n * g.n // 4


def test_girth_diameter_relation_on_corpus():
    for g in small_corpus():
        gamma = gc.girth(g)
        if gamma == math.inf:
            continue
        delta = gc.diameter(g)
        assert gamma <= 2 * delta + 1
        if gamma % 2 == 0:
            assert gamma <= 2 * delta


def test_mohar_bound_on_corpus():
    for g in small_corpus():
        if g.n > 16:
            continue
        beta, _ = gc.isoperimetric_constant(g)
        assert beta <= Fraction(g.max_degree, 2) * Fraction(g.n + 1, g.n - 1)


def test_beta_product_bound_cube_chain():
    k2 = gf.complete(2)
    prev = k2
    for _ in range(3):  # Q_2, Q_3, Q_4
        cur = gc.product(prev, k2)
        if cur.n <= 16:
            b_cur, _ = gc.isoperimetric_constant(cur)
            if prev.n >= 3:
                b_prev, _ = gc.isoperimetric_constant(prev)
                assert b_cur <= min(b_prev, 1)
        prev = cur


def test_diameter_log_bound_via_beta():
    for g in small_corpus():
        if g.n > 16:
            continue
        beta, _ = gc.isoperimetric_constant(g)
        delta = gc.diameter(g)
        bound = 2 * math.log(g.n / 2) / math.log(1 + beta / g.max_degree) + 2
        assert delta <= bound + 1e-9


def test_chromatic_times_independence_on_corpus():
    for g in small_corpus():
        assert gc.chromatic_number(g) * gc.independence_number(g) >= g.n


def test_chromatic_bounded_by_degree_plus_one():
    for g in small_corpus():
        assert gc.chromatic_number(g) <= g.max_degree + 1


def test_invariant_report_walks_once(monkeypatch):
    """Diameter and girth come from one basic_metrics walk."""
    calls = []
    for name in ("basic_metrics", "diameter", "girth"):
        fn = getattr(gc, name)
        monkeypatch.setattr(gc, name, lambda g, fn=fn, name=name: calls.append(name) or fn(g))
    rep = gc.invariant_report(gf.petersen(), beta_cap=0)
    assert calls == ["basic_metrics"]
    assert (rep.diameter, rep.girth) == (2, 5)


def test_invariant_report_json():
    rep = gc.invariant_report(gf.petersen())
    data = rep.to_json()
    assert data["chromatic"] == 3 and data["independence"] == 4
    assert data["isoperimetric"] == {"num": 1, "den": 1}
    assert data["girth"] == 5
    tree_rep = gc.invariant_report(gf.tree(3, 2))
    assert tree_rep.to_json()["girth"] == "inf"
    assert gc.invariant_report(K3_C4).to_json() == {
        "name": "K3+C4", "n": 7, "edges": 7,
        "degree": {"min": 2, "max": 2, "avg": {"num": 2, "den": 1}},
        "diameter": None, "girth": 3, "bipartite": False,
        "chromatic": 3, "independence": 3, "clique": 3,
        "isoperimetric": None, "isoperimetric_witness": None,
        "connected": False, "skipped": ["isoperimetric (disconnected)"],
    }
    assert gc.invariant_report(Graph(3, [], name="3K1")).to_json() == {
        "name": "3K1", "n": 3, "edges": 0,
        "degree": {"min": 0, "max": 0, "avg": {"num": 0, "den": 1}},
        "diameter": None, "girth": "inf", "bipartite": True,
        "chromatic": 1, "independence": 3, "clique": 1,
        "isoperimetric": None, "isoperimetric_witness": None,
        "connected": False, "skipped": ["isoperimetric (disconnected)"],
    }
