"""Family constructors against the identifications, parameter formulas and
classification facts stated for them."""

import ast
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgraph import bounds as bd
from specgraph import corpus as corpus_mod
from specgraph import finite_field as ff
from specgraph import graph_core as gc
from specgraph import graph_families as gf
from specgraph import groups
from specgraph import spectra as sp
from specgraph.errors import (
    BadParameters,
    ContainsIdentity,
    IndexOutOfRange,
    SizeOverflow,
    LoopEdge,
    NotDesign,
    NotGenerating,
    NotPartialDesign,
    NotSymmetric,
)

import graph_fixtures as fx


def iso(a, b):
    return gc.is_isomorphic(a, b)[0]


# -- identifications ----------------------------------------------------------

def test_paley_5_is_c5():
    assert iso(gf.paley(5), gf.cycle(5))


def test_paley_9_is_rook_3():
    assert iso(gf.paley(9), gc.product(gf.complete(3), gf.complete(3)))


def test_bipaley_7_heawood_incidence_all_agree():
    bp7 = gf.bi_paley(7)
    assert iso(bp7, gf.heawood())
    assert iso(bp7, gf.incidence(3, 2))
    assert iso(bp7, fx.heawood_fixture())


def test_shrikhande_matches_fixture():
    assert iso(gf.shrikhande(), fx.shrikhande_fixture())


def test_tutte_coxeter_matches_fixture():
    assert iso(gf.tutte_coxeter(), fx.tutte_coxeter_fixture())


def test_incidence_points_picture_agrees():
    for n, q in [(3, 2), (3, 3)]:
        assert iso(gf.incidence(n, q), gf.incidence_points(n, q))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_incidence_point_index_inverts_the_labels(q):
    """Every vertex's normalised coordinates, and each non-zero multiple of
    them, map back to that vertex on its side."""
    g = gf.incidence_points(3, q)
    spec = ff.field(q)
    for v, label in enumerate(g.labels):
        coords = [spec.element(i) for i in ast.literal_eval(label[:-1])]
        side = "black" if label.endswith("b") else "white"
        for c in spec.units():
            scaled = tuple((c * x).index for x in coords)
            assert gf.incidence_point_index(g, scaled, q, side) == v


def test_incidence_point_index_refuses_the_zero_vector():
    g = gf.incidence_points(3, 3)
    with pytest.raises(BadParameters):
        gf.incidence_point_index(g, (0, 0, 0), 3, "black")


@pytest.mark.parametrize("graph,coords,q,side", [
    (gf.incidence_points(3, 3), (1, 0, 0), 3, "blak"),
    (gf.incidence_points(3, 5), (1, 0, 6), 7, "black"),
    (gf.incidence_points(3, 3), (1, 0), 3, "white"),
    (gf.incidence(3, 3), (1, 0, 0), 3, "black"),
    (gf.bi_paley(7), (1, 0, 0), 7, "white"),
    (gf.incidence(3, 7), (5,), 7, "black"),
    (gf.incidence_points(3, 5), (1, 2, 3), 7, "black"),
], ids=["misspelt_side", "wrong_field", "wrong_coordinate_count", "element_labels",
        "unlabelled_graph", "element_label_text", "point_text_of_another_field"])
def test_incidence_point_index_refuses_a_point_the_graph_does_not_label(graph, coords, q, side):
    with pytest.raises(BadParameters):
        gf.incidence_point_index(graph, coords, q, side)


def _orthogonal_points(n: int, q: int) -> gc.Graph:
    """The coordinate picture by the scalar product of every pair of
    projective points: the oracle for ``incidence_points``."""
    spec = ff.field(q)
    vecs = [v for v in itertools.product(range(q), repeat=n) if gf._projective(spec, v) == v]
    points = [[spec.element(i) for i in v] for v in vecs]
    m = len(points)
    edges = []
    for i, u in enumerate(points):
        for j, v in enumerate(points):
            dot = spec.zero
            for a, b in zip(u, v):
                dot = dot + a * b
            if dot.is_zero():
                edges.append((i, m + j))
    labels = [f"{v}b" for v in vecs] + [f"{v}w" for v in vecs]
    return gc.Graph(2 * m, edges, labels=labels, name=f"I_{n}({q})pts")


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 7), (3, 8), (3, 9),
                                 (4, 2), (4, 3)])
def test_incidence_points_is_the_orthogonality_graph(n, q):
    """Each side is labelled by the m distinct normalised points, u ~ w iff
    their labels are orthogonal, and the graph is incidence(n, q) itself."""
    g, oracle, singer = gf.incidence_points(n, q), _orthogonal_points(n, q), gf.incidence(n, q)
    m = g.n // 2
    assert g.name == oracle.name and g.n == oracle.n
    assert sorted(g.labels[:m]) == sorted(oracle.labels[:m])
    assert sorted(g.labels[m:]) == sorted(oracle.labels[m:])

    def by_label(h):
        return {(h.labels[u], h.labels[v]) for u, v in h.edges()}

    assert by_label(g) == by_label(oracle)
    assert g.edges() == singer.edges() and g.group == singer.group


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 7), (3, 9), (3, 31),
                                 (4, 3), (5, 2)])
def test_singer_set_matches_the_field_element_filter(n, q):
    """The trace-zero j read from the exp and log tables against the scalar
    filter over g^j that built the set before."""
    emb, m, subset = gf._singer(n, q)
    g = emb.big.generator()
    assert subset.tolist() == [j for j in range(m) if ff.trace_norm(emb, g**j)[0].is_zero()]


@pytest.mark.parametrize("n,q", [(2, 3), (3, 6)], ids=["n_below_3", "q_not_a_prime_power"])
def test_incidence_points_refuses_bad_parameters(n, q):
    with pytest.raises(BadParameters):
        gf.incidence_points(n, q)


def test_cayley_cycle_and_cube():
    assert iso(gf.build("cycle", 7), gf.cayley((7,), [(1,), (6,)]))
    basis = [tuple(1 if i == j else 0 for j in range(4)) for i in range(4)]
    assert iso(gf.cube(4), gf.cayley((2,) * 4, basis))


# the families built as Cayley graphs: (the edge-list oracle, the sizes checked)
EDGE_LIST_BUILT = {
    "cycle": (fx.ring, range(3, 200)),
    "complete": (fx.complete_pairs, range(2, 120)),
    "rook": (fx.rook_product, range(2, 20)),
    "extended_ade:A": (lambda n: fx.ring(n + 1), range(2, 9)),
}


@pytest.mark.parametrize("family", EDGE_LIST_BUILT)
def test_group_builders_match_their_edge_lists(family):
    """cycle, complete, rook and extended A are unlabelled Cayley graphs of
    Z_n or Z_n^2, with the neighbour sets of the edge lists they were built
    from, and every writer gives the bytes it gave for the edge list."""
    oracle, sizes = EDGE_LIST_BUILT[family]
    for n in sizes:
        g, old = gf.build(family, n), oracle(n)
        assert g.group is not None and g.labels is None
        assert g.adj == old.adj
        for write in (gc.to_edge_list, gc.to_dot, gc.to_json_dict):
            assert write(g) == write(old)


def test_bi_cayley_heawood():
    assert iso(gf.bi_cayley((7,), [(1,), (2,), (4,)]), gf.heawood())


def _group_graphs_by_name():
    """A few group graphs of each family, then every group graph of the corpus
    and of verify's closed-form sweep and the bench's paley:729,
    incidence:3,31 and cube:11, one per name."""
    named = {g.name: g for g in [
        gf.cube(4), gf.halved_cube(5), gf.decked_cube(4, (1, 1, 0, 1)), gf.shrikhande(),
        gf.rook_twin(), gf.andrasfai(4), gf.machine((2, 3)), gf.heawood(), gf.incidence(3, 3),
        gf.paley(9), gf.paley(25), gf.paley(49), gf.bi_paley(7), gf.bi_paley(27)]}
    sweep = [gf.build(family, *params)
             for family, instances in corpus_mod.SMALLEST_THREE.items() for params in instances]
    bench = [gf.paley(729), gf.incidence(3, 31), gf.cube(11)]
    for g in [g for *_, g in corpus_mod.build_corpus()] + sweep + bench:
        if g.group is not None:
            named.setdefault(g.name, g)
    return list(named.values())


@pytest.mark.parametrize("g", _group_graphs_by_name(), ids=lambda g: g.name)
def test_group_metadata_matches_edges(g):
    """Vertex 0 is the identity, so its neighbours are the connection set:
    the group's subset is vertex 0's row, sorted, less |G| on a bi-Cayley
    graph, whose black 0 sees white s for s in S."""
    subset = g.group.subset
    assert all(type(s) is int for s in subset)
    offset = g.n // 2 if g.group.bi else 0
    assert subset == tuple(sorted(w - offset for w in g.adj[0]))


def test_metadata_is_only_the_group():
    """The spectra and the +-1 certificates read a graph's group record, and a
    graph carries no other metadata."""
    graphs = [g for *_, g in corpus_mod.build_corpus()] + [gf.incidence_points(3, 3)]
    for g in graphs:
        assert g.group is None or isinstance(g.group, groups.Group), g.name


# -- adjacency rows against the per-edge loop they replaced -----------------------

def edge_loop_adjacency(n, edges):
    """Graph.__init__'s loop from when every graph, Cayley graphs too, was
    built one edge at a time, verbatim: the oracle of each vertex's
    neighbour set."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        adj[u].add(v)
        adj[v].add(u)
    return tuple(frozenset(s) for s in adj)


def cayley_edge_list(table):
    """The edges cayley took from its table (row i: the neighbours of i), verbatim."""
    rows, cols = np.nonzero(np.arange(len(table))[:, None] < table)
    return zip(rows.tolist(), table[rows, cols].tolist())


def bi_cayley_edge_list(table):
    """The edges bi_cayley took from its table, verbatim."""
    n = len(table)
    return zip(np.repeat(np.arange(n), table.shape[1]).tolist(),
               (n + table.ravel()).tolist())


def _paley_orders(top, residue):
    return [q for q in range(5, top + 1)
            if ff.prime_power_decomposition(q) and q % 4 == residue]


ROW_BUILT = list(dict.fromkeys(
    [(family, params) for _, family, params in corpus_mod.CORPUS_SPECS]
    + [("paley", (q,)) for q in _paley_orders(200, 1) + [289, 361, 625, 729, 841, 961, 1009]]
    + [("cube", (n,)) for n in range(1, 12)]
    + [("halved_cube", (n,)) for n in range(3, 9)]
    + [("decked_cube", (n, bits)) for n, bits in
       [(3, "111"), (4, "1101"), (5, "11000"), (6, "111111"), (7, "1010101")]]
    + [("incidence", (3, q)) for q in range(2, 32) if ff.prime_power_decomposition(q)]
    + [("incidence", (4, 2)), ("incidence", (4, 3))]
    + [("bi_paley", (q,)) for q in _paley_orders(100, 3) + [343, 503]]
))


@pytest.mark.parametrize("family,params", ROW_BUILT,
                         ids=[f"{f}:{','.join(map(str, p))}" for f, p in ROW_BUILT])
def test_adjacency_iterates_as_the_edge_loop_did(monkeypatch, family, params):
    """Every graph keeps the neighbour sets of the per-edge loop: a Cayley or
    bi-Cayley graph those of the edge list its translate table gave, any
    other graph those of the edges its builder passed."""
    tables, calls = [], []
    translate, init = groups.translate, gc.Graph.__init__

    def spy_translate(orders, steps):
        tables.append(translate(orders, steps))
        return tables[-1]

    def spy_init(self, n, edges, *args, **kwargs):
        calls.append((n, list(edges)))
        init(self, n, calls[-1][1], *args, **kwargs)

    monkeypatch.setattr(groups, "translate", spy_translate)
    monkeypatch.setattr(gc.Graph, "__init__", spy_init)
    g = gf.build(family, *params)
    adj = g.adj  # a group graph builds its rows, and calls translate, on first read
    if g.group is None:
        old = edge_loop_adjacency(*calls[-1])
    else:
        edge_list = bi_cayley_edge_list if g.group.bi else cayley_edge_list
        old = edge_loop_adjacency(g.n, edge_list(tables[-1].T))
    assert adj == old


def _outputs(g):
    """Every result that a graph's neighbour sets fix, as comparable values."""
    inv = gc.invariant_report(g)
    adj, lap = sp.spectrum(g), sp.spectrum(g, "laplacian")
    out = [inv.to_json(), bd.audit_bounds(inv).to_json(), adj.to_json(),
           lap.to_json(), (inv.isoperimetric, inv.iso_witness), gc.to_json_dict(g)]
    cert = bd.cheeger_pm1(g)
    out.append(cert and {**cert, "vector": cert["vector"].tolist()})
    if inv.clique is not None:
        weights = [(v + 1) / (g.n * (g.n + 1) / 2) for v in range(g.n)]
        out.append(bd.motzkin_straus(g, weights, inv.clique))
    if g.n <= gc.ISO_CAP:
        perm = list(range(g.n))
        random.Random(g.n).shuffle(perm)
        h = fx.relabel(g, perm)
        out += [gc.is_isomorphic(g, h), gc.is_isomorphic(h, g), gc.automorphism_count(g)]
    return out


def test_outputs_ignore_neighbour_order():
    """A twin built from the same rows reversed or shuffled reports the same
    invariants, audit, spectra, certificates and isomorphisms."""
    graphs = [g for *_, g in corpus_mod.build_corpus()] + [
        gf.paley(29), gf.tutte_coxeter(), gf.incidence(3, 3), gf.cube(5), gf.andrasfai(8)]
    moved = 0
    for i, g in enumerate(graphs):
        rnd = random.Random(i)
        rows = [list(s) for s in g.adj]
        rows = [row[::-1] if i % 2 else rnd.sample(row, len(row)) for row in rows]
        twin = gc.Graph.from_rows(rows, g.labels, g.name, g.group)
        assert twin.adj == g.adj
        moved += [tuple(s) for s in twin.adj] != [tuple(s) for s in g.adj]
        assert _outputs(twin) == _outputs(g), g.name
    assert moved > 0


def _field_loop_edges(q: int, bipartite: bool) -> set:
    """The (bi-)Paley edges by field subtraction and signature lookup."""
    spec = ff.field(q)
    sig = ff.signature_table(spec)
    edges = set()
    for i in range(q):
        a = spec.element(i)
        for j in range(q):
            if sig[(spec.element(j) - a).index] == 1:
                edges.add((i, q + j) if bipartite else (min(i, j), max(i, j)))
    return edges


@pytest.mark.parametrize("q", [5, 9, 13, 25, 49, 81])
def test_paley_matches_field_loop(q):
    assert set(gf.paley(q).edges()) == _field_loop_edges(q, bipartite=False)


@pytest.mark.parametrize("q", [7, 11, 19, 27, 43])
def test_bi_paley_matches_field_loop(q):
    assert set(gf.bi_paley(q).edges()) == _field_loop_edges(q, bipartite=True)


# -- parameter formulas ---------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_incidence_3_parameters(q):
    g = gf.incidence(3, q)
    assert g.n == 2 * (q * q + q + 1)
    assert g.is_regular and g.max_degree == q + 1


def test_incidence_degree_formula_i42():
    g = gf.incidence(4, 2)
    assert g.n == 2 * 15 and g.max_degree == 7


@pytest.mark.parametrize("q", [5, 9, 13, 17])
def test_paley_regular_degree(q):
    g = gf.paley(q)
    assert g.is_regular and g.max_degree == (q - 1) // 2


def test_paley_strong_regularity_parameters():
    for q in (5, 9, 13, 17):
        kind, params = gf.classify_regular(gf.paley(q))
        assert kind == "srg"
        assert (params.a, params.c) == ((q - 5) // 4, (q - 1) // 4)


@pytest.mark.parametrize("q", [7, 11, 19])
def test_bipaley_design_parameters(q):
    kind, params = gf.classify_regular(gf.bi_paley(q))
    assert kind == "design"
    assert (params.m, params.d, params.c) == (q, (q - 1) // 2, (q - 3) // 4)


def test_family_preconditions():
    with pytest.raises(BadParameters):
        gf.paley(7)
    with pytest.raises(BadParameters):
        gf.bi_paley(5)
    with pytest.raises(BadParameters):
        gf.bi_paley(3)
    with pytest.raises(BadParameters):
        gf.paley(12)
    with pytest.raises(BadParameters):
        gf.incidence(2, 3)


def test_cayley_preconditions():
    with pytest.raises(ContainsIdentity):
        gf.cayley((5,), [(0,), (1,), (4,)])
    with pytest.raises(NotSymmetric):
        gf.cayley((5,), [(1,)])
    with pytest.raises(NotGenerating):
        gf.cayley((6,), [(2,), (4,)])
    with pytest.raises(NotGenerating):
        gf.bi_cayley((4,), [(0,), (2,)])


def test_cayley_and_bi_cayley_take_one_shot_iterables():
    """The elements are read once: an arity check that used up a generator
    left an empty set, which does not generate."""
    assert gf.cayley((5,), ((a,) for a in (1, 4))).group.subset == (1, 4)
    assert iso(gf.bi_cayley((7,), ((a,) for a in (1, 2, 4))), gf.heawood())


def test_cayley_reduces_a_large_coordinate_exactly():
    """2**70 + 1 is 3 mod 7, and its negative 4; through a double it would be
    2**70, which is 2 mod 7."""
    big = 2**70 + 1
    assert gf.cayley((7,), [(big,), (-big,)]).group.subset == (3, 4)
    # (1, 3) and (1, 4) at their indices
    assert gf.cayley((2, 7), [(big, big), (1, -big)]).group.subset == (1 * 7 + 3, 1 * 7 + 4)


def test_not_symmetric_names_the_least_generator():
    with pytest.raises(NotSymmetric, match=r"^generator \(1,\) lacks its inverse$"):
        gf.cayley((7,), [(5,), (3,), (2,), (1,)])
    with pytest.raises(NotSymmetric, match=r"^generator \(0, 1\) lacks its inverse$"):
        gf.cayley((3, 4), [(2, 1), (1, 0), (0, 2), (1, 3), (0, 1)])


def _set_reduced(orders, elements):
    """_reduced as it was before it took index arrays, less its size check
    and with the elements listed first, since its arity check used them up:
    the set of reduced tuples, the oracle of the sorted indices."""
    orders = tuple(int(m) for m in orders)
    elements = list(elements)
    if any(len(s) != len(orders) for s in elements):
        raise BadParameters(f"each element needs one coordinate per order of {orders}")
    return orders, {tuple(int(x) % m for x, m in zip(s, orders)) for s in elements}


@st.composite
def orders_and_elements(draw):
    orders = tuple(draw(st.lists(st.integers(1, 9), max_size=3)))
    coordinate = st.integers(-2**80, 2**80) | st.integers(-20, 20)
    return orders, draw(st.lists(st.tuples(*[coordinate] * len(orders)), max_size=8))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(orders_and_elements())
@example(((), [(), ()]))
@example(((3, 1), [(-1, 2**64), (2, 0)]))
def test_reduced_matches_the_set_it_replaced(case):
    orders, elements = case
    expected_orders, expected = _set_reduced(orders, elements)
    got_orders, idx = gf._reduced(orders, elements)
    assert got_orders == expected_orders
    assert [tuple(x) for x in groups.digits(orders, idx).tolist()] == sorted(expected)


@pytest.mark.parametrize("elements", [[(1, 0), (2,)], [(2**70, 0), (1,)], [(1,)], [()]])
def test_reduced_refuses_an_element_of_another_arity(elements):
    with pytest.raises(BadParameters, match="one coordinate per order"):
        gf._reduced((4, 4), elements)


def test_refusals_write_numbers_past_decimal_digits_as_a_power_of_two():
    assert gf._decimal(10**gf.DECIMAL_DIGITS - 1) == "9" * gf.DECIMAL_DIGITS
    assert gf._decimal(10**gf.DECIMAL_DIGITS) == "at least 2^132"
    assert gf._decimal(2**20000) == "at least 2^20000"


def test_reduced_counts_the_elements_of_a_group_past_the_cap():
    with pytest.raises(SizeOverflow, match=f"^group of order {2**80} with 2 elements"):
        gf._reduced((2**40, 2**40), [(1, 2**40 + 1), (1, 1), (2, 1)])


@pytest.mark.parametrize("q", [5, 7, 9, 13, 27, 49, 81, 125, 243, 343, 729, 1009])
def test_nonzero_squares_match_the_signature_filter(q):
    """The even powers of the generator against the signature filter over
    every element that gave the squares before."""
    spec = ff.field(q)
    orders, squares = gf._nonzero_squares(spec)
    sig = ff.signature_table(spec)
    assert orders == (spec.p,) * spec.d
    assert sorted(squares.tolist()) == [i for i in range(1, q) if sig[i] == 1]


# The nine families that hand their connection sets to the group constructors
# as indices, each against the coordinate list that it once gave cayley.


def _complete(n):
    return gf.cayley((n,), [(a,) for a in range(1, n)], name=f"K_{n}", labels=None)


def _cycle(n):
    return gf.cayley((n,), [(1,), (n - 1,)], name=f"C_{n}", labels=None)


def _cube(n):
    basis = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return gf.cayley((2,) * n, basis, name=f"Q_{n}")


def _halved_cube(n):
    m = n - 1
    gens = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    gens += [tuple(1 if t in (i, j) else 0 for t in range(m))
             for i, j in itertools.combinations(range(m), 2)]
    return gf.cayley((2,) * m, gens, name=f"halfQ_{n}")


def _decked_cube(n, extra):
    extra = gf.decked_cube_extra(n, extra)
    basis = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return gf.cayley((2,) * n, basis + [extra], name=f"DQ_{n}{''.join(map(str, extra))}")


def _extended_a(n):
    return gf.cayley((n + 1,), [(1,), (n,)], name=f"ADE_extA{n}", labels=None)


def _rook(n):
    gens = [(a, 0) for a in range(1, n)] + [(0, a) for a in range(1, n)]
    return gf.cayley((n, n), gens, name=f"rook_{n}", labels=None)


def _andrasfai(n):
    mod = 3 * n - 1
    gens = [(x,) for x in range(1, mod) if x % 3 == 1]
    return gf.cayley((mod,), gens, name=f"andrasfai_{n}")


def _machine(orders):
    zero, *nonzero = groups.elements(orders)
    gens = []
    for s in nonzero:
        gens.append(s + zero)
        gens.append(zero + s)
        gens.append(s + s)
    return gf.cayley(orders + orders, gens, name=f"machine_{'x'.join(map(str, orders))}")


COORDINATE_BUILT = (
    [(gf.complete, _complete, (n,)) for n in range(2, 40)]
    + [(gf.cycle, _cycle, (n,)) for n in range(3, 40)]
    + [(gf.cube, _cube, (n,)) for n in range(1, 13)]
    + [(gf.halved_cube, _halved_cube, (n,)) for n in range(3, 12)]
    + [(gf.decked_cube, _decked_cube, (n, extra)) for n in range(2, 6)
       for extra in itertools.product((0, 1), repeat=n) if sum(extra) >= 2]
    + [(lambda n: gf.extended_ade("A", n), _extended_a, (n,)) for n in range(2, 20)]
    + [(gf.rook, _rook, (n,)) for n in range(2, 20)]
    + [(gf.andrasfai, _andrasfai, (n,)) for n in range(2, 30)]
    + [(gf.machine, _machine, (orders,)) for orders in
       [(3,), (4,), (5,), (7,), (2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2)]])


@pytest.mark.parametrize("build,oracle,params", COORDINATE_BUILT,
                         ids=[f"{o.__name__[1:]}{p}" for _, o, p in COORDINATE_BUILT])
def test_index_built_families_match_their_coordinate_lists(build, oracle, params):
    g, expected = build(*params), oracle(*params)
    assert (g.group, g.name, g.labels) == (expected.group, expected.name, expected.labels)


@pytest.mark.parametrize("build,count", [
    (lambda: gf.complete(10**6), f"group of order {10**6} with {10**6 - 1}"),
    (lambda: gf.andrasfai(10**6), f"group of order {3 * 10**6 - 1} with {10**6}"),
    (lambda: gf.machine((10**4,)), f"group of order {10**8} with {3 * (10**4 - 1)}"),
    (lambda: gf.rook(10**6), f"group of order {10**12} with {2 * (10**6 - 1)}"),
    (lambda: gf.cube(15000), "group of order at least 2^15000 with 15000"),
    (lambda: gf.halved_cube(500), f"group of order at least 2^499 with {500 * 499 // 2}"),
    (lambda: gf.decked_cube(10**4, "1" * 10**4),
     f"group of order at least 2^10000 with {10**4 + 1}"),
    (lambda: gf.paley(4000037), "group of order 4000037 with 2000018"),
    (lambda: gf.bi_paley(4000039), "group of order 4000039 with 2000019"),
    (lambda: gf.incidence(3, 257), f"group of order {257**2 + 257 + 1} with 258"),
    (lambda: gf.paley(10**3999 + 1), "group of order at least 2^13284 with at least 2^13283"),
], ids=["complete", "andrasfai", "machine", "rook", "cube", "halved_cube", "decked_cube",
        "paley", "bi_paley", "incidence", "paley_4000_digits"])
def test_large_families_are_refused_before_their_sets_exist(build, count):
    """The connection set is sized before its indices are made, and a field
    family's before its field's tables are built, so the refusal allocates
    next to nothing.  An order of more than DECIMAL_DIGITS digits is given
    by a power of two."""
    tracemalloc.start()
    try:
        with pytest.raises(SizeOverflow,
                           match=f"^{re.escape(count)} elements exceeds {gf.ADJACENCY_CAP} "):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("build,message", [
    (lambda: gf.cayley((4.5,), [(1,), (3,)]), r"group orders must be integers, got \(4.5,\)"),
    (lambda: gf.machine((3.5,)), r"group orders must be integers, got \(3.5,\)"),
    (lambda: gf.cayley((5,), [(1.5,), (3.5,)]), r"coordinates must be integers, got 1.5$"),
    (lambda: gf.cayley((5,), [("1",), ("4",)]), r"coordinates must be integers, got '1'$"),
    (lambda: gf.decked_cube(3, 110), r"extra generator must be bits, got 110"),
    (lambda: sp.closed_form_spectrum("decked_cube", 3, 110), r"extra generator must be bits"),
    (lambda: gc.contains_all_small_graphs(gf.complete(3), -1), r"small-graph scan needs k >= 0"),
], ids=["float_order", "float_machine_order", "float_coordinate", "text_coordinate",
        "int_extra", "int_extra_closed_form", "negative_scan_size"])
def test_non_integer_and_malformed_library_input_refused(build, message):
    with pytest.raises(BadParameters, match=f"^{message}"):
        build()


def test_numpy_integers_are_orders_and_coordinates():
    """Integer types other than int are read as their values, in every
    message too."""
    assert gf.cayley((np.int64(5),), [(np.int64(1),), (4,)]).group == gf.cycle(5).group
    with pytest.raises(BadParameters, match=r"^group orders must be at least 1, got \(0, 3\)$"):
        gf.machine((np.int64(0), np.int8(3)))


def test_sum_product_shapes():
    for q in (3, 4, 5):
        g = gf.sum_product(q)
        assert g.n == 2 * q * (q - 1)
        assert g.is_regular and g.max_degree == q - 1
    g = gf.full_sum_product(3)
    assert g.n == 18 and g.is_regular and g.max_degree == 3


def test_machine_parameters_and_census():
    m4, m22 = gf.machine([4]), gf.machine([2, 2])
    for g in (m4, m22):
        kind, params = gf.classify_regular(g)
        assert kind == "srg" and (params.n, params.d, params.a, params.c) == (16, 9, 4, 6)
    assert gf.order2_count([4]) == 1 and gf.order2_count([2, 2]) == 3
    assert gf.machine_order2_census(m4) == 1
    assert gf.machine_order2_census(m22) == 3
    assert not iso(m4, m22)


def test_machine_corollary_family():
    # G(k) = (Z_2)^(k-1) x Z_{2^(N-k)} all share parameters but differ pairwise
    n_graphs = [gf.machine([2] * (k - 1) + [2 ** (3 - k)]) for k in (1, 2)]
    params = [gf.classify_regular(g)[1] for g in n_graphs]
    assert params[0] == params[1]
    assert not iso(*n_graphs)


# -- classification --------------------------------------------------------------

def test_classify_examples():
    assert gf.classify_regular(gf.petersen()) == ("srg", gf.SrgParams(10, 3, 0, 1))
    assert gf.classify_regular(gf.shrikhande()) == ("srg", gf.SrgParams(16, 6, 2, 2))
    assert gf.classify_regular(gf.complete(5)) == ("complete", None)
    assert gf.classify_regular(gf.cycle(5)) == ("srg", gf.SrgParams(5, 2, 0, 1))
    # bipartite graphs classify on the design side: C_4 = K_{2,2}, and every
    # same-side pair of Q_3 lies at distance two, so Q_3 is a (degenerate) design
    assert gf.classify_regular(gf.cycle(4)) == ("design", gf.DesignParams(2, 2, 2))
    assert gf.classify_regular(gf.cube(3)) == ("design", gf.DesignParams(4, 3, 2))
    kind, params = gf.classify_regular(gf.cube(4))
    assert kind == "partial_design" and (params.c1, params.c2) == (0, 2)
    kind, params = gf.classify_regular(gf.tutte_coxeter())
    assert kind == "partial_design"
    assert (params.m, params.d, params.c1, params.c2) == (15, 3, 0, 1)
    assert gf.classify_regular(gf.cycle(7))[0] == "not_sr"


def test_bipartite_double_of_srg_is_design_like():
    double = gc.bipartite_double(gf.petersen())
    kind, _ = gf.classify_regular(double)
    assert kind in ("design", "partial_design")


def test_c1_graph_tutte_coxeter():
    derived = gf.c1_graph(gf.tutte_coxeter(), 0)
    assert derived.n == 15 and derived.is_regular and derived.max_degree == 8
    kind, params = gf.classify_regular(derived)
    assert kind == "srg" and (params.a, params.c) == (4, 4)
    # the 0-graph is the line graph of K_6: vertices = K_6 edges sharing endpoints
    k6_edges = list(itertools.combinations(range(6), 2))
    line = gc.Graph(15, [(i, j) for i, j in itertools.combinations(range(15), 2)
                         if set(k6_edges[i]) & set(k6_edges[j])])
    assert iso(derived, line)


@pytest.mark.parametrize("q", [3, 4])
def test_c1_graph_sum_product(q):
    derived = gf.c1_graph(gf.sum_product(q), 0)
    assert iso(derived, gc.product(gf.complete(q), gf.complete(q - 1)))


def test_c1_graph_full_sum_product():
    derived = gf.c1_graph(gf.full_sum_product(3), 0)
    assert derived.n == 9 and len(derived.components) == 3
    for comp in derived.components:
        assert iso(gc.induced_subgraph(derived, comp), gf.complete(3))


def test_c1_graph_degree_formula():
    _, params = gf.classify_regular(gf.tutte_coxeter())
    assert gf.c1_graph_degree(params, 0) == 8
    _, params = gf.classify_regular(gf.sum_product(4))
    assert gf.c1_graph_degree(params, 0) == 2 * 4 - 3


def test_c1_graph_requires_partial_design():
    with pytest.raises(NotPartialDesign):
        gf.c1_graph(gf.heawood(), 0)


# -- determination (BP vs incidence distinguisher) ----------------------------------

def test_bp_determination():
    assert gf.bp_determination(gf.bi_paley(11)) is True
    assert gf.bp_determination(gf.incidence(3, 2)) is False
    assert gf.bp_determination(gf.bi_paley(7)) is False  # the exception BP(7) = I_3(2)
    with pytest.raises(NotDesign):
        gf.bp_determination(gf.tutte_coxeter())


def test_mersenne_gate():
    # BP and incidence parameters agree exactly when 2^n - 1 is a Mersenne prime
    expected = {n for n in range(3, 14) if ff.prime_factors(2**n - 1) == [2**n - 1]}
    hits = set()
    for n in range(3, 14):
        q = 2**n - 1
        if ff.prime_power_decomposition(q) is not None and q % 4 == 3:
            # prime-power q with matching parameter triple
            m, d, c = q, (q - 1) // 2, (q - 3) // 4
            if (m, d, c) == (2**n - 1, 2 ** (n - 1) - 1, 2 ** (n - 2) - 1):
                hits.add(n)
    assert hits == expected == {3, 5, 7, 13}


# -- smaller family facts --------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5])
def test_andrasfai_invariants(n):
    g = gf.andrasfai(n)
    assert g.n == 3 * n - 1 and g.is_regular and g.max_degree == n
    assert gc.diameter(g) == 2
    assert gc.girth(g) == 4
    assert gc.chromatic_number(g) == 3
    assert gc.independence_number(g) == n


@pytest.mark.parametrize("q", [5, 9, 13, 17])
def test_paley_nonsquare_scaling_switches_edges(q):
    g = gf.paley(q)
    spec = ff.field(q)
    gen = spec.generator()  # a generator is never a square
    for i in range(q):
        for j in range(i + 1, q):
            u = (spec.element(i) * gen).index
            v = (spec.element(j) * gen).index
            assert g.has_edge(i, j) != g.has_edge(u, v)


def test_decked_cube_bipartite_iff_odd_weight():
    assert gf.decked_cube(3, (1, 1, 1)).is_bipartite
    assert not gf.decked_cube(3, (1, 1, 0)).is_bipartite
    assert gf.decked_cube(4, (1, 1, 1, 0)).is_bipartite
    assert not gf.decked_cube(4, (1, 1, 0, 0)).is_bipartite


@pytest.mark.parametrize("n,weight2", [(3, (1, 1, 0)), (4, (1, 1, 0, 0))])
def test_decked_cube_double_is_next_cube(n, weight2):
    dq = gf.decked_cube(n, weight2)
    assert iso(gc.bipartite_double(dq), gf.cube(n + 1))


@pytest.mark.parametrize("q", [11, 13])
def test_every_squarefree_cubic_has_nonsquare_value(q):
    spec = ff.construct_field(q, 1)
    sig = ff.signature_table(spec)
    for c2 in range(q):
        for c1 in range(q):
            for c0 in range(q):
                roots = [x for x in range(q) if (x**3 + c2 * x * x + c1 * x + c0) % q == 0]
                if len(roots) != len(set(roots)):
                    continue
                # square-free check: no repeated roots via derivative gcd
                der = lambda x: (3 * x * x + 2 * c2 * x + c1) % q
                if any(der(r) == 0 for r in roots):
                    continue
                values = {(x**3 + c2 * x * x + c1 * x + c0) % q for x in range(q)}
                assert any(v and sig[v] == -1 for v in values)


def test_tutte_coxeter_metrics():
    g = gf.tutte_coxeter()
    assert gc.diameter(g) == 4 and gc.girth(g) == 8


def test_frucht_trivial_automorphisms():
    assert gc.automorphism_count(gf.frucht()) == 1


def test_halved_cube_shape():
    g = gf.halved_cube(4)
    assert g.n == 8 and g.is_regular and g.max_degree == math.comb(4, 2)


def _small_diameter_by_search(k):
    """small_diameter_x(k) as once built: the tree's parents found by a
    breadth-first search, and its pendants grouped by grandparent."""
    t = gf.tree(3, k, kind="Tt")
    dist = t.bfs_distances(0)
    parent = [-1] * t.n
    for u, v in t.edges():
        if dist[u] + 1 == dist[v]:
            parent[v] = u
        else:
            parent[u] = v
    by_grandparent = {}
    for v in range(t.n):
        if dist[v] == k:
            by_grandparent.setdefault(parent[parent[v]], []).append(v)
    extra = []
    for _, four in sorted(by_grandparent.items()):
        four.sort(key=lambda v: (parent[v], v))  # sibling pairs adjacent, as drawn
        extra += [(four[i], four[(i + 1) % 4]) for i in range(4)]
    return gc.Graph(t.n, t.edges() + extra, name=f"smalldiam_{k}")


@pytest.mark.parametrize("k", range(3, 10))
def test_small_diameter_pendants_match_the_search(k):
    g, expected = gf.small_diameter_x(k), _small_diameter_by_search(k)
    assert (g.n, g.edges(), g.name) == (expected.n, expected.edges(), expected.name)


@pytest.mark.parametrize("k", [3, 4])
def test_small_diameter_family(k):
    g = gf.small_diameter_x(k)
    assert g.n == 3 * 2**k - 2
    assert g.is_regular and g.max_degree == 3
    assert gc.diameter(g) == 2 * k


def test_small_diameter_not_expander_witness():
    # one main branch has boundary 1: beta <= 1/(2^k - 1)
    from fractions import Fraction

    g = gf.small_diameter_x(3)
    beta, _ = gc.isoperimetric_constant(g, cap=24)
    assert beta <= Fraction(1, 2**3 - 1)


def test_trees_shape():
    t = gf.tree(3, 3, "T")
    assert t.max_degree == 3 and gc.girth(t) == math.inf
    assert t.degrees.count(1) == 8  # pendants of T_{3,3}
    tt = gf.tree(3, 3, "Tt")
    assert tt.n == 3 * 2**3 - 2
    assert tt.degree(0) == 3


def test_registry_build():
    assert gf.build("petersen").n == 10
    assert gf.build("paley", "13").n == 13
    assert gf.build("decked_cube", 3, "110").n == 8
    with pytest.raises(BadParameters):
        gf.build("nonesuch")


@pytest.mark.parametrize("argv,expected", [
    (("paley:13",), ("paley", [13])),
    (("paley", 13), ("paley", [13])),
    (("paley", "13"), ("paley", [13])),
    (("tree:3,2", "Tt"), ("tree", [3, 2, "Tt"])),
    (("decked_cube:3,011",), ("decked_cube", [3, "011"])),
    (("machine:2,2",), ("machine", [2, 2])),
    (("ade:E,6",), ("ade", ["E", 6])),
    (("complete:-3",), ("complete", [-3])),
    (("nonesuch:1,x", "2"), ("nonesuch", ["1", "x", "2"])),
    (("graph.el",), ("graph.el", [])),
], ids=lambda v: repr(v))
def test_parse_source_types_by_signature(argv, expected):
    assert gf.parse_source(*argv) == expected


@pytest.mark.parametrize("argv", [
    ("cube",), ("paley:x",), ("paley:13,5",), ("complete:2.5",), ("tree:3,x",),
    ("decked_cube:3",), ("machine:x",), ("cayley:4",), ("petersen:1",), ("paley", 13.0),
    ("complete:²",),
], ids=lambda v: repr(v))
def test_parse_source_refuses_bad_parameters(argv):
    with pytest.raises(BadParameters):
        gf.parse_source(*argv)
    with pytest.raises(BadParameters):
        gf.build(*argv)


def test_decked_cube_bit_string_keeps_leading_zero():
    expected = gf.decked_cube(3, (0, 1, 1))
    assert gf.build("decked_cube:3,011") == expected
    assert gf.build("decked_cube", 3, "011") == expected
    assert gf.build("decked_cube", "3", "011").name == expected.name == "DQ_3011"
    with pytest.raises(BadParameters):
        gf.build("decked_cube:3,0x1")


@pytest.mark.parametrize("extra", ["013", "0121", (1.5, 1, 1), (1, 1, 2), (1, 1, -1), (1.0, 1, 1),
                                   (True, 1, 1), ("1", "1", ""), ("1", "1", "01")])
def test_decked_cube_takes_only_bits(extra):
    """Every bit is the integer 0 or 1 or its character, never read mod 2 or
    truncated, in the builder and the closed form alike."""
    with pytest.raises(BadParameters, match="^extra generator must be bits"):
        gf.decked_cube(3, extra)
    with pytest.raises(BadParameters, match="^extra generator must be bits"):
        sp.closed_form_spectrum("decked_cube", 3, extra)


@pytest.mark.parametrize("extra", ["011", (0, 1, 1), ("0", "1", "1"),
                                   (np.int64(0), np.int8(1), 1)])
def test_decked_cube_bit_spellings_agree(extra):
    assert gf.decked_cube(3, extra) == gf.decked_cube(3, (0, 1, 1))


@pytest.mark.parametrize("cid,family,params", corpus_mod.CORPUS_SPECS,
                         ids=[row[0] for row in corpus_mod.CORPUS_SPECS])
def test_corpus_row_builds_from_packed_text(cid, family, params):
    """Each corpus row gives the same graph from its Python parameters and
    from its family spec text, as typed on the command line."""
    built = gf.build(family, *params)
    packed = gf.build(f"{family}:{','.join(map(str, params))}")
    assert packed == built
    assert (packed.name, packed.labels, packed.group) == (built.name, built.labels, built.group)


def test_raw_group_text_refused():
    with pytest.raises(BadParameters):
        gf.build("cayley", "4,x", "1,0")
    with pytest.raises(BadParameters):
        gf.build("bi_cayley", "7", "1;x")
