"""Eigensolver contracts, closed-form spectra, classifiers and feasibility,
plus the spectral invariants over a sub-corpus."""

import functools
import inspect
import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from specgraph import corpus as corpus_mod
from specgraph import finite_field as ff
from specgraph import graph_core as gc
from specgraph import graph_families as gf
from specgraph import groups
from specgraph import spectra as sp
from specgraph.errors import (
    BadParameters,
    IdentityViolated,
    Mismatch,
    NoClosedForm,
    NotSymmetric,
    SizeOverflow,
    SpecgraphError,
)


def adj_spectrum(g):
    return sp.eig_symmetric(sp.adjacency_matrix(g))


# -- matrices -----------------------------------------------------------------

def test_matrices_sum_to_degree_diagonal():
    g = gf.paley(13)
    a, lap = sp.adjacency_matrix(g), sp.laplacian_matrix(g)
    assert np.array_equal(a + lap, np.diag([g.degree(v) for v in range(g.n)]))


def _edge_loop_adjacency(g):
    """The per-edge builder the fancy-indexed one replaced, kept as its oracle."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def _assert_matrices_match_edge_loop(g):
    a = _edge_loop_adjacency(g)
    lap = np.diag(a.sum(axis=1)) - a
    for new, old in [(sp.adjacency_matrix(g), a), (sp.laplacian_matrix(g), lap)]:
        assert new.dtype == old.dtype and np.array_equal(new, old)
        # signed zeros too: the eigensolver sees the very same bits
        assert np.array_equal(np.signbit(new), np.signbit(old))


def test_matrices_match_edge_loop_on_corpus():
    for _cid, _family, _params, g in corpus_mod.build_corpus():
        _assert_matrices_match_edge_loop(g)


@st.composite
def any_graphs(draw, max_n):
    """Each pair an edge with a drawn density: edgeless, disconnected and
    complete graphs included."""
    n = draw(st.integers(1, max_n))
    density = draw(st.integers(0, 10)) / 10
    rng = draw(st.randoms(use_true_random=False))
    return gc.Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(any_graphs(12))
@example(gc.Graph(1, []))
@example(gc.Graph(5, []))
@example(gc.Graph(6, [(0, 1), (2, 3), (3, 4)]))
def test_matrices_match_edge_loop_on_random_graphs(g):
    _assert_matrices_match_edge_loop(g)


def test_k3_matrices():
    a, lap = sp.adjacency_matrix(gf.complete(3)), sp.laplacian_matrix(gf.complete(3))
    assert np.array_equal(a, np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(lap, 3 * np.eye(3) - np.ones((3, 3)))


def test_laplacian_rows_sum_to_zero():
    for g in [gf.petersen(), gf.wheel(6), gf.tree(3, 3)]:
        lap = sp.laplacian_matrix(g)
        assert np.abs(lap.sum(axis=1)).max() == 0


def test_bipartite_adjacency_block_form():
    g = gf.heawood()
    black, white = g.bipartition
    order = sorted(black) + sorted(white)
    a = sp.adjacency_matrix(g)[np.ix_(order, order)]
    half = len(black)
    assert np.abs(a[:half, :half]).max() == 0
    assert np.abs(a[half:, half:]).max() == 0


# -- eigensolver -----------------------------------------------------------------

def test_eig_diagonal():
    s = sp.eig_symmetric(np.diag([3.0, 1.0, 2.0]))
    assert [v for v, _ in s.entries] == [3.0, 2.0, 1.0]


def test_eig_rejects_asymmetric_and_oversize():
    with pytest.raises(NotSymmetric):
        sp.eig_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(SizeOverflow):
        sp.eig_symmetric(np.zeros((5000, 5000)))


def test_eig_rejects_an_empty_matrix():
    with pytest.raises(NotSymmetric, match="non-empty"):
        sp.eig_symmetric(np.zeros((0, 0)))


@pytest.mark.parametrize("matrix", [[[math.nan, 0.0], [0.0, 1.0]], [[0.0, 1.0], [math.nan, 0.0]],
                                    [[0.0, math.inf], [math.inf, 0.0]]],
                         ids=["nan_on_diagonal", "nan_off_diagonal", "inf_symmetric"])
def test_eig_rejects_non_finite_entries(matrix):
    with pytest.raises(SpecgraphError):
        sp.eig_symmetric(np.array(matrix))


def _whole_matrix_asymmetry_check(m):
    """The symmetry check that took |m - m^T| over the whole matrix at once,
    kept as the oracle of the blocked one."""
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    return float(np.abs(m - m.T).max()) > 1e-12 * scale


@pytest.mark.parametrize("excess", [0.5, 2.0])
def test_blocked_symmetry_check_agrees_across_block_boundaries(monkeypatch, excess):
    """Row slices of two rows on a 6 x 6 matrix: each off-diagonal entry,
    nudged alone by excess times the tolerance, is found exactly when the
    whole-matrix check finds it, wherever it sits against the slices."""
    monkeypatch.setattr(sp, "SYMMETRY_BLOCK", 12)
    base = sp.laplacian_matrix(gf.cycle(6)) * 3.0
    for i, j in itertools.permutations(range(6), 2):
        m = base.copy()
        m[i, j] += excess * 1e-12 * 6.0
        if _whole_matrix_asymmetry_check(m):
            with pytest.raises(NotSymmetric):
                sp.eig_symmetric(m)
        else:
            assert sp.eig_symmetric(m).n == 6


def test_symmetry_check_holds_no_square_temporary():
    """The check works over row slices, so the traced peak stays far below
    one copy of the matrix (the whole-matrix check peaked at two)."""
    m = sp.adjacency_matrix(gf.cube(11))
    tracemalloc.start()
    try:
        sp.eig_symmetric(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes / 4


def test_spectrum_refuses_past_the_cap_before_building_the_matrix():
    """Q_13 has n = 8192, so its dense matrix alone would take 512 MB."""
    g = gf.cube(13)
    tracemalloc.start()
    try:
        with pytest.raises(SizeOverflow):
            sp.spectrum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- solver choice: the dense path is the oracle -------------------------------------

def _dense_spectrum(g, kind):
    """The full-matrix solve that served every graph before bipartite and
    regular graphs got smaller problems."""
    matrix = sp.adjacency_matrix(g) if kind == "adjacency" else sp.laplacian_matrix(g)
    return sp.eig_symmetric(matrix, kind)


def _has_group(g):
    return g.group is not None


def _assert_spectrum_matches_dense(g):
    for kind in ("adjacency", "laplacian"):
        got, want = sp.spectrum(g, kind), _dense_spectrum(g, kind)
        smaller = _has_group(g) or g.is_bipartite if kind == "adjacency" else g.is_regular
        if not smaller:
            assert got == want  # the dense path itself: same bits
            continue
        assert got.matrix_kind == kind
        assert [m for _, m in got.entries] == [m for _, m in want.entries]
        tol = 1e-12 * max(1.0, want.max, -want.min)
        assert all(abs(a - b) <= tol for (a, _), (b, _) in zip(got.entries, want.entries))
        assert abs(got.cluster_tol - want.cluster_tol) <= 1e-6 * tol
        assert not any(v == 0 and math.copysign(1.0, v) < 0 for v, _ in got.entries)


@pytest.mark.parametrize("source,solves", [("petersen", 1), ("wheel:7", 2)])
def test_each_spectrum_is_solved_once_and_kept_with_its_graph(source, solves, monkeypatch):
    """Petersen's laplacian spectrum is 3 - alpha over its one adjacency solve;
    wheel:7 is neither regular nor bipartite, so each kind takes a solve.
    Reading them again solves and clusters nothing."""
    calls = []
    solve = sp._solve
    monkeypatch.setattr(sp, "_solve", lambda m, singular: calls.append(m.shape) or solve(m, singular))
    g = gf.build(source)
    assert g.group is None
    first = sp.spectrum(g), sp.spectrum(g, "laplacian")
    assert len(calls) == solves
    assert sp.spectrum(g) is first[0] and sp.spectrum(g, "laplacian") is first[1]
    assert len(calls) == solves


@pytest.mark.parametrize("source", ["petersen", "wheel:7", "cube:4", "paley:13"])
def test_kept_spectra_are_read_only(source):
    g = gf.build(source)
    for kind in ("adjacency", "laplacian"):
        values = sp._values(g, kind)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0


def test_spectrum_matches_dense_on_corpus():
    for _cid, _family, _params, g in corpus_mod.build_corpus():
        _assert_spectrum_matches_dense(g)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(any_graphs(12))
@example(gf.cycle(7))
@example(gf.complete(5))
def test_spectrum_matches_dense_on_random_graphs(g):
    _assert_spectrum_matches_dense(g)


def test_group_spectrum_matches_dense_on_corpus():
    group_graphs = [g for *_, g in corpus_mod.build_corpus() if _has_group(g)]
    assert len(group_graphs) == 32
    for g in group_graphs:
        _assert_spectrum_matches_dense(g)
        sp.check_group_spectrum(g)


@st.composite
def group_graphs(draw):
    """A Cayley graph of a product of up to three cyclic groups (orders of 1
    included) on a drawn symmetric generating set, or a bi-Cayley graph on a
    drawn subset, which need not be symmetric."""
    orders = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    elems = groups.elements(orders)
    rng = draw(st.randoms(use_true_random=False))
    picked = [e for e in elems[1:] if rng.random() < 0.4]
    try:
        if draw(st.booleans()):
            inverses = [tuple(-x % m for x, m in zip(e, orders)) for e in picked]
            return gf.cayley(orders, picked + inverses)
        return gf.bi_cayley(orders, picked + [elems[0]])
    except SpecgraphError:
        assume(False)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(group_graphs())
@example(gf.cayley((4, 1, 3), [(1, 0, 0), (3, 0, 0), (0, 0, 1), (0, 0, 2)]))
@example(gf.bi_cayley((7,), [(0,), (1,), (3,)]))
@example(gf.decked_cube(4, (1, 1, 1, 0)))
@example(gf.cayley((5, 3), [(1, 0), (4, 0), (0, 1), (0, 2), (2, 1), (3, 2)]))
@example(gf.cayley((4, 6), [(1, 0), (3, 0), (0, 1), (0, 5), (2, 3)]))
@example(gf.cayley((9,), [(1,), (8,), (3,), (6,)]))
@example(gf.paley(25))
@example(gf.incidence(3, 3))
@example(gf.bi_cayley((5, 3), [(0, 0), (1, 0), (2, 1)]))
@example(gf.bi_cayley((4, 6), [(0, 0), (1, 2), (3, 1)]))
@example(gf.bi_cayley((9,), [(0,), (1,), (3,)]))
@example(gf.bi_paley(27))
def test_group_spectrum_matches_dense(g):
    assert _has_group(g)
    _assert_spectrum_matches_dense(g)
    sp.check_group_spectrum(g)


def test_group_spectrum_builds_no_matrix(monkeypatch):
    """cube:11 (n = 2048) and incidence:3,31 (n = 1986): no solve, and far
    less memory than one dense matrix of 32 MB."""
    monkeypatch.setattr(sp, "_solve", None)
    for g in (gf.cube(11), gf.incidence(3, 31)):
        tracemalloc.start()
        try:
            sp.spectrum(g), sp.spectrum(g, "laplacian")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_group_spectrum_builds_no_rows():
    """A group graph's spectrum reads its group, never its neighbour rows:
    paley:1009's rows alone take 33 MB."""
    tracemalloc.start()
    try:
        g = gf.paley(1009)
        sp.spectrum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "adj" not in g.__dict__
    assert peak < 2**21


def _assert_group_facts_match_rows(g):
    """n, the edge count and the degrees that a group graph's group gave
    equal those of its neighbour rows."""
    facts = (g.n, g.edge_count, g.degrees, g.is_regular, g.max_degree)
    rows = gc.Graph.from_rows(g.adj)
    assert facts == (rows.n, rows.edge_count, rows.degrees, rows.is_regular, rows.max_degree)


def test_group_facts_match_rows_on_corpus():
    built = [gf.build(family, *params) for _, family, params in corpus_mod.CORPUS_SPECS]
    group_graphs = [g for g in built if _has_group(g)]
    assert len(group_graphs) == 32
    for g in group_graphs:
        _assert_group_facts_match_rows(g)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(group_graphs())
@example(gf.cayley((1,), []))
def test_group_facts_match_rows(g):
    assert "adj" not in g.__dict__
    _assert_group_facts_match_rows(g)


def test_group_spectrum_mismatch_is_found():
    """A Cayley graph whose group entry disagrees with its edges fails the check."""
    g = gc.Graph.from_rows(gf.cycle(8).adj, group=groups.Group((8,), (2, 6)))
    with pytest.raises(Mismatch):
        sp.check_group_spectrum(g)


@st.composite
def bipartite_graphs(draw, max_side):
    """Sides of r and c vertices, shuffled among the vertex numbers, each
    crossing pair an edge with a drawn density: unequal sides, disconnected,
    edgeless graphs and K_1 included."""
    r = draw(st.integers(0, max_side))
    c = draw(st.integers(1 if r == 0 else 0, max_side))
    density = draw(st.integers(0, 10)) / 10
    rng = draw(st.randoms(use_true_random=False))
    perm = list(range(r + c))
    rng.shuffle(perm)
    return gc.Graph(r + c, [(perm[u], perm[v]) for u in range(r) for v in range(r, r + c)
                            if rng.random() < density])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(bipartite_graphs(8))
@example(gc.Graph(1, []))
@example(gc.Graph(5, []))
@example(gf.star(6))
@example(gf.complete_bipartite(3, 4))
@example(gf.path(6))
def test_bipartite_spectrum_matches_dense(g):
    assert g.is_bipartite
    _assert_spectrum_matches_dense(g)


def test_petersen_spectrum():
    s = adj_spectrum(gf.petersen())
    assert [(round(v), m) for v, m in s.entries] == [(3, 1), (1, 5), (-2, 4)]
    assert abs(s.entries[0][0] - 3) < 1e-9
    assert abs(s.entries[1][0] - 1) < 1e-9
    assert abs(s.entries[2][0] + 2) < 1e-9


@pytest.mark.parametrize("k", [0, -1, 11])
def test_ranks_outside_one_to_n_are_refused(k):
    """Rank 0 read numpy's [-1], the other end of the spectrum, and a rank
    past n raised a bare IndexError."""
    s = sp.spectrum(gf.petersen())
    with pytest.raises(BadParameters, match=f"rank {k} outside 1..10"):
        s.kth_largest(k)
    with pytest.raises(BadParameters, match=f"rank {k} outside 1..10"):
        s.kth_smallest(k)


def test_ranks_match_the_expanded_values_on_corpus():
    """kth_largest and kth_smallest walk the clusters; expanded() and
    ascending(), the arrays they indexed before, are their oracle on every
    corpus spectrum, to the bit."""
    for *_, g in corpus_mod.build_corpus():
        for kind in sp.KINDS:
            s = sp.spectrum(g, kind)
            assert [repr(s.kth_largest(k)) for k in range(1, s.n + 1)] == \
                [repr(float(v)) for v in s.expanded()]
            assert [repr(s.kth_smallest(k)) for k in range(1, s.n + 1)] == \
                [repr(float(v)) for v in s.ascending()]


def _cluster_by_scalars(values, tol):
    """_cluster as it read the values before: float() of each numpy scalar."""
    out = []
    cluster = [float(values[0])]
    for v in values[1:]:
        v = float(v)
        if abs(cluster[-1] - v) <= tol:
            cluster.append(v)
        else:
            out.append((sum(cluster) / len(cluster), len(cluster)))
            cluster = [v]
    out.append((sum(cluster) / len(cluster), len(cluster)))
    return tuple(out)


@st.composite
def near_ties(draw):
    """Descending values whose gaps sit at, just inside and just outside tol,
    or far from it, with any exact zero drawn as 0.0 or -0.0."""
    tol = draw(st.floats(1e-15, 1e-3))
    gaps = [0.0, tol, math.nextafter(tol, 0.0), math.nextafter(tol, math.inf), 2 * tol, 1.0]
    values = [draw(st.sampled_from([0.0, 1.0, -1.0, 3.0]) | st.floats(-10, 10))]
    for gap in draw(st.lists(st.sampled_from(gaps), max_size=12)):
        values.append(values[-1] - gap)
    values = [draw(st.sampled_from([0.0, -0.0])) if v == 0 else v for v in values]
    return np.array(values), tol


@settings(max_examples=300, derandomize=True, deadline=None)
@given(near_ties())
@example((np.array([0.0, -0.0, -0.0]), 0.0))
@example((np.array([1e-16, -0.0, -1e-16]), 1e-16))
def test_cluster_matches_the_scalar_loop(case):
    """The same sums in the same order: equal to the bit, signed zeros too."""
    values, tol = case
    assert repr(sp._cluster(values, tol)) == repr(_cluster_by_scalars(values, tol))


def test_spectrum_refuses_an_unknown_kind():
    """A misspelt kind is refused, not read as the laplacian, and nothing is
    kept on the graph."""
    g = gc.Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(BadParameters, match="adjacncy"):
        sp.spectrum(g, "adjacncy")
    assert "_spectra" not in g.__dict__


def test_eig_symmetric_refuses_an_unknown_kind():
    """The kind labels the Spectrum, which the closed-form check compares;
    it is checked as spectrum checks it, before any solve."""
    with pytest.raises(BadParameters, match="unknown spectrum kind 'laplace'"):
        sp.eig_symmetric(np.eye(2), "laplace")
    assert [sp.eig_symmetric(np.eye(2), kind).matrix_kind for kind in sp.KINDS] == list(sp.KINDS)


def test_cluster_tol_is_the_solve_error_bound():
    """n eps max(1, ||A||_F), and ||A||_F^2 = 2|E| for an adjacency matrix; a
    Python float, so that the records it decides hold Python bools."""
    for g in (gf.petersen(), gf.frucht(), gf.paley(13), gf.path(9)):
        s = sp.spectrum(g)
        assert type(s.cluster_tol) is float
        bound = g.n * sys.float_info.epsilon * math.sqrt(2 * g.edge_count)
        assert math.isclose(s.cluster_tol, bound, rel_tol=1e-12)


def test_andrasfai_114_keeps_its_close_pairs_apart():
    """Two eigenvalue pairs 1.1e-4 apart, under a tolerance of 1e-6 times the
    spectral radius (1.14e-4), merged into one cluster of multiplicity 4."""
    s = sp.spectrum(gf.andrasfai(114))
    assert len(s.entries) == 171
    assert max(m for _, m in s.entries) == 2


def test_wheel_2000_matches_its_closed_form():
    """The hub's degree widened a radius-scaled tolerance over the rim's
    distinct cosines, which then merged."""
    g = gf.wheel(2000)
    assert sp.verify_closed_form(sp.spectrum(g), sp.closed_form_spectrum("wheel", 2000))["ok"]


def test_frucht_against_determinant_bisection_oracle():
    """The twelve Frucht eigenvalues are simple; recover each from sign
    changes of det(A - xI) computed by LU factorization (an algorithm
    independent of the symmetric eigensolver)."""
    g = gf.frucht()
    a = sp.adjacency_matrix(g)
    numeric = np.sort(adj_spectrum(g).expanded())

    def char_det(x):
        return float(np.linalg.det(a - x * np.eye(g.n)))

    grid = np.arange(-3.5, 3.51, 0.005)
    roots = []
    for lo, hi in zip(grid[:-1], grid[1:]):
        flo, fhi = char_det(lo), char_det(hi)
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0:
            a_, b_ = lo, hi
            for _ in range(60):
                mid = (a_ + b_) / 2
                if char_det(a_) * char_det(mid) <= 0:
                    b_ = mid
                else:
                    a_ = mid
            roots.append((a_ + b_) / 2)
    assert len(roots) == 12
    assert np.abs(np.sort(roots) - numeric).max() < 1e-8


# -- closed forms -----------------------------------------------------------------

def test_srg_closed_form_twins():
    cf = sp.closed_form_spectrum("shrikhande")
    assert [(round(v), m) for v, m, _ in cf.entries] == [(6, 1), (2, 6), (-2, 9)]


def _float_srg_closed_form(n, d, a, c):
    """The float multiplicity rule that srg_closed_form replaced, kept as its
    oracle."""
    gf.SrgParams(n, d, a, c)  # validates the double-counting identity
    disc = (a - c) ** 2 + 4 * (d - c)
    root = math.sqrt(disc)
    alpha2 = (a - c + root) / 2
    alpha3 = (a - c - root) / 2
    num = (n - 1) * (a - c) + 2 * d
    m2 = (n - 1 - num / root) / 2
    m3 = (n - 1 + num / root) / 2
    if abs(m2 - round(m2)) > 1e-9 or abs(m3 - round(m3)) > 1e-9:
        raise IdentityViolated(f"non-integral multiplicities for ({n},{d},{a},{c})")
    return sp._form([
        (float(d), 1, "d"),
        (alpha2, round(m2), f"(a-c+sqrt({disc}))/2"),
        (alpha3, round(m3), f"(a-c-sqrt({disc}))/2"),
    ])


def test_srg_closed_form_matches_float_oracle():
    """Every (n, d, a, c) with n < 80, a < d and 1 <= c <= d that satisfies the
    identity and that the float rule accepts gets the same entries from the
    exact rule; c follows from the identity, except on K_n, where any c holds."""
    checked = 0
    for n, d, a in ((n, d, a) for n in range(80) for d in range(n) for a in range(d)):
        if d == n - 1:
            cs = range(1, d + 1) if a == d - 1 else ()
        else:
            c, rem = divmod(d * (d - a - 1), n - d - 1)
            cs = (c,) if rem == 0 and 1 <= c <= d else ()
        for c in cs:
            try:
                expected = _float_srg_closed_form(n, d, a, c)
            except IdentityViolated:
                continue
            assert sp.srg_closed_form(n, d, a, c).entries == expected.entries, (n, d, a, c)
            checked += 1
    assert checked == 3404


def test_srg_closed_form_refuses_zero_discriminant():
    """(5, 0, 0, 0) satisfies the identity; its two non-trivial eigenvalues
    coincide, which the float rule met with a division by zero."""
    gf.SrgParams(5, 0, 0, 0)
    with pytest.raises(IdentityViolated, match="non-positive discriminant"):
        sp.srg_closed_form(5, 0, 0, 0)


def test_paley13_closed_form_values():
    cf = sp.closed_form_spectrum("paley", 13)
    values = [v for v, _, _ in cf.entries]
    mults = [m for _, m, _ in cf.entries]
    assert values == pytest.approx([6, (math.sqrt(13) - 1) / 2, (-math.sqrt(13) - 1) / 2])
    assert mults == [1, 6, 6]


def test_sp5_closed_form():
    cf = sp.closed_form_spectrum("sum_product", 5)
    as_pairs = [(round(v, 6), m) for v, m, _ in cf.entries]
    r5 = round(math.sqrt(5), 6)
    assert as_pairs == [(4, 1), (r5, 12), (1, 4), (0, 6), (-1, 4), (-r5, 12), (-4, 1)]


# Oracles for the six closed forms that the SRG, design and partial-design
# rules give: each spectrum written out by hand as (value, multiplicity)
# pairs, descending.
def _by_hand_paley(q):
    r, half = math.sqrt(q), (q - 1) // 2
    return [(half, 1), ((r - 1) / 2, half), ((-r - 1) / 2, half)]


def _by_hand_bi_paley(q):
    half, r = (q - 1) / 2, math.sqrt(q + 1) / 2
    return [(half, 1), (r, q - 1), (-r, q - 1), (-half, 1)]


def _by_hand_incidence(n, q):
    """q ** (n/2 - 1) is not correctly rounded at q = 3541 (n = 3), where
    math.sqrt is; that q is past the eigensolver cap."""
    d, mid, mult = (q ** (n - 1) - 1) // (q - 1), q ** (n / 2 - 1), (q**n - q) // (q - 1)
    return [(d, 1), (mid, mult), (-mid, mult), (-d, 1)]


def _by_hand_sum_product(q):
    r, big = math.sqrt(q), (q - 1) * (q - 2)
    return [(q - 1, 1), (r, big), (1, q - 1), (0, 2 * (q - 2)), (-1, q - 1), (-r, big),
            (-(q - 1), 1)]


def _by_hand_full_sum_product(q):
    r = math.sqrt(q)
    return [(q, 1), (r, q * (q - 1)), (0, 2 * (q - 1)), (-r, q * (q - 1)), (-q, 1)]


def _by_hand_tutte_coxeter():
    return [(3, 1), (2, 9), (0, 10), (-2, 9), (-3, 1)]


def _cap_parameters():
    """Every parameter of the six families whose graph is within EIG_SIZE_CAP."""
    pp = lambda q: ff.prime_power_decomposition(q) is not None  # noqa: E731
    cap = sp.EIG_SIZE_CAP
    cases = [("paley", (q,)) for q in range(5, cap + 1) if q % 4 == 1 and pp(q)]
    cases += [("bi_paley", (q,)) for q in range(7, cap // 2 + 1) if q % 4 == 3 and pp(q)]
    cases += [("incidence", (n, q)) for q in range(2, cap) if pp(q)
              for n in range(3, cap.bit_length()) if 2 * (q**n - 1) // (q - 1) <= cap]
    cases += [("sum_product", (q,)) for q in range(3, 46) if pp(q)]
    cases += [("full_sum_product", (q,)) for q in range(2, 46) if pp(q)]
    return cases + [("tutte_coxeter", ())]


def test_rule_closed_forms_match_the_stated_formulas():
    """Value for value (as floats) and multiplicity for multiplicity, on all
    546 parameters of the six families up to the eigensolver cap."""
    cases = _cap_parameters()
    assert len(cases) == 546
    assert 2 * 45 * 44 <= sp.EIG_SIZE_CAP < 2 * 46 * 45  # SP and FSP stop at q = 45
    for family, params in cases:
        by_hand = globals()[f"_by_hand_{family}"](*params)
        new = sp.closed_form_spectrum(family, *params).value_mults()
        assert [(float(v), m) for v, m in by_hand] == list(new), (family, params)


@pytest.mark.parametrize("family,q", [("sum_product", q) for q in (3, 4, 5, 7)]
                         + [("full_sum_product", q) for q in (2, 3, 4, 5, 7)]
                         + [("tutte_coxeter", None)])
def test_c1_graph_spectrum_is_the_one_the_closed_form_assumes(family, q):
    """The graph on one side, joined where two vertices share no neighbour:
    K_q x K_(q-1) for SP(q), q copies of K_q for FSP(q), and L(K_6) for the
    Tutte-Coxeter graph."""
    g = gf.FAMILY_BUILDERS[family](*([q] if q else []))
    if family == "sum_product":
        expected = sp.product_closed_form(sp.closed_form_spectrum("complete", q),
                                          sp.closed_form_spectrum("complete", q - 1))
    elif family == "full_sum_product":
        expected = sp.ClosedForm("adjacency", ((q - 1.0, q, "q-1"), (-1.0, q * (q - 1), "-1")))
    else:
        expected = sp.srg_closed_form(15, 8, 4, 4)
    assert sp.verify_closed_form(sp.spectrum(gf.c1_graph(g, 0)), expected)["ok"]


def test_partial_design_rule_refuses_a_fractional_c1_graph_degree():
    """(3 * 2 - 6 * 4) / (0 - 4) is not an integer."""
    with pytest.raises(IdentityViolated):
        sp.partial_design_closed_form(7, 3, 0, 4, [(2.0, 1), (0.0, 6)])


@pytest.mark.parametrize("m,d,c", [(1, 0, 1), (1, 1, -1), (1, 1, 2)])
def test_design_rule_refuses_c_outside_0_to_d(m, d, c):
    """Both sides of c(m - 1) = d(d - 1) are 0 here."""
    with pytest.raises(IdentityViolated):
        gf.DesignParams(m, d, c)
    with pytest.raises(IdentityViolated):
        sp.design_closed_form(m, d, c)


def test_closed_forms_drop_entries_of_multiplicity_zero():
    """K_(1,1) as a design has m - 1 = 0 copies of +-sqrt(d - c)."""
    g = gf.complete_bipartite(1, 1)
    assert sp.verify_closed_form(sp.spectrum(g), sp.design_closed_form(1, 1, 1))["ok"]
    assert all(m for _, m, _ in sp.design_closed_form(1, 1, 1).entries)


@pytest.mark.parametrize("d,radius", [(0, 2), (1, 3), (2, -3), (3, 0)])
def test_radial_tree_refuses_what_the_builder_refuses(d, radius):
    for make in (gf.tree, sp.radial_tree_eigenvalues):
        with pytest.raises(BadParameters, match="tree needs"):
            make(d, radius)


def test_tree_radial_top_eigenvalue():
    g = gf.tree(3, 3)
    top = adj_spectrum(g).max
    assert top == pytest.approx(2 * math.sqrt(2) * math.cos(math.pi / 5), abs=1e-9)


@pytest.mark.parametrize("d,r", [(3, 2), (3, 3), (4, 2)])
def test_radial_tree_lists_appear_in_spectrum(d, r):
    g = gf.tree(d, r)
    numeric = adj_spectrum(g).expanded()
    lap_numeric = sp.eig_symmetric(sp.laplacian_matrix(g), "laplacian").expanded()
    adj_list, lap_list = sp.radial_tree_eigenvalues(d, r)
    for value in adj_list:
        assert np.min(np.abs(numeric - value)) < 1e-7
    for value in lap_list:
        assert np.min(np.abs(lap_numeric - value)) < 1e-7
    assert max(adj_list) == pytest.approx(numeric.max())
    assert max(lap_list) == pytest.approx(lap_numeric.max())


def test_q4_binomial_multiplicities():
    cf = sp.closed_form_spectrum("cube", 4)
    assert [(round(v), m) for v, m, _ in cf.entries] == [
        (4, 1), (2, 4), (0, 6), (-2, 4), (-4, 1)]
    assert sp.verify_closed_form(adj_spectrum(gf.cube(4)), cf)["ok"]


def _edge_solve(g):
    """g's spectrum from its edges alone, as if it carried no group."""
    return sp.spectrum(gc.Graph.from_rows(g.adj))


@pytest.mark.parametrize("n", range(3, 12))
def test_halved_cube_closed_form_matches_edge_solve(n):
    cf = sp.closed_form_spectrum("halved_cube", n)
    assert sp.verify_closed_form(_edge_solve(gf.halved_cube(n)), cf)["ok"]


@pytest.mark.parametrize("n", range(2, 9))
def test_decked_cube_closed_form_matches_edge_solve(n):
    """Every extra generator of weight >= 2, in every position."""
    for extra in itertools.product((0, 1), repeat=n):
        if sum(extra) >= 2:
            cf = sp.closed_form_spectrum("decked_cube", n, extra)
            assert sp.verify_closed_form(_edge_solve(gf.decked_cube(n, extra)), cf)["ok"]


@pytest.mark.parametrize("extra", ["100", "0x1", "0110"])
def test_decked_cube_closed_form_refuses_what_the_builder_refuses(extra):
    for make in (gf.decked_cube, functools.partial(sp.closed_form_spectrum, "decked_cube")):
        with pytest.raises(BadParameters):
            make(3, extra)


def test_corrupted_multiplicity_mismatch():
    cf = sp.closed_form_spectrum("cube", 3)
    bad = sp.ClosedForm(cf.matrix_kind, tuple(
        (v, (m + 1 if i == 0 else m), lbl) for i, (v, m, lbl) in enumerate(cf.entries)))
    with pytest.raises(Mismatch):
        sp.verify_closed_form(adj_spectrum(gf.cube(3)), bad)


def test_wrong_value_mismatch():
    cf = sp.closed_form_spectrum("complete", 5)
    bad = sp.ClosedForm(cf.matrix_kind, ((5.0, 1, "n"), (-1.0, 4, "-1")))
    with pytest.raises(Mismatch):
        sp.verify_closed_form(adj_spectrum(gf.complete(5)), bad)


def test_matrix_kind_mismatch():
    """An edgeless graph's two spectra agree, so only their kinds differ."""
    g = gc.Graph(3, [])
    cf = sp.ClosedForm("laplacian", ((0.0, 3, "0"),))
    assert sp.verify_closed_form(sp.spectrum(g, "laplacian"), cf)["ok"]
    with pytest.raises(Mismatch):
        sp.verify_closed_form(sp.spectrum(g), cf)


def test_closed_form_registry_agrees_with_the_builders_and_the_corpus():
    assert set(sp._CLOSED_FORMS) <= set(gf.FAMILY_BUILDERS)
    assert set(corpus_mod.SMALLEST_THREE) <= set(sp._CLOSED_FORMS)
    for _cid, family, params in corpus_mod.CORPUS_SPECS:
        assert family in gf.FAMILY_BUILDERS
        assert gf.parse_source(family, *params)[0] == family


def _parameter_grid(family: str) -> list[tuple]:
    """Small parameters around each refusal of the family's builder, and one
    argument too many."""
    if family == "decked_cube":
        return [(n, extra) for n in range(5)
                for extra in ("", "1", "11", "011", "110", "0110", "0x1")]
    if family == "machine":
        return [orders for k in range(3) for orders in itertools.product(range(-3, 4), repeat=k)]
    params = inspect.signature(gf.FAMILY_BUILDERS[family]).parameters.values()
    grid = list(itertools.product(range(-1, 12 if len(params) == 1 else 6), repeat=len(params)))
    if any(p.default is not p.empty for p in params):
        grid.append(())
    return grid + [(1,) * (len(params) + 1)]


def _outcome(make, params):
    try:
        make(*params)
    except Exception as exc:  # noqa: BLE001 - the kind of refusal is compared
        return type(exc)
    return None


@pytest.mark.parametrize("family", sorted(sp._CLOSED_FORMS))
def test_closed_form_refuses_what_the_builder_refuses(family):
    """Family by family, the closed form accepts the parameters the builder
    accepts and refuses the others the same way."""
    grid = _parameter_grid(family)
    builder = gf.FAMILY_BUILDERS[family]
    closed_form = functools.partial(sp.closed_form_spectrum, family)
    refusals = [_outcome(builder, params) for params in grid]
    assert [_outcome(closed_form, params) for params in grid] == refusals
    # the grid reaches a refusal of each family that takes parameters
    assert BadParameters in refusals or not inspect.signature(builder).parameters


HUGE_Q = 10**30 + 57  # 31 digits, a prime, 1 mod 4


@pytest.mark.parametrize("family,params", [
    ("paley", (HUGE_Q,)), ("bi_paley", (HUGE_Q + 2,)), ("incidence", (3, HUGE_Q)),
    ("sum_product", (HUGE_Q,)), ("full_sum_product", (HUGE_Q,)),
])
def test_field_closed_forms_refuse_a_huge_q_before_factoring_it(family, params):
    """The closed form applies its builder's size rule before q is factored,
    so a 31-digit q is refused at once rather than trial-divided."""
    start = time.perf_counter()
    for make in (gf.FAMILY_BUILDERS[family], functools.partial(sp.closed_form_spectrum, family)):
        with pytest.raises(SizeOverflow):
            make(*params)
    assert time.perf_counter() - start < 1


def test_no_closed_form_for_andrasfai():
    with pytest.raises(NoClosedForm):
        sp.closed_form_spectrum("andrasfai", 4)


def test_laplacian_closed_form_regular():
    g = gf.paley(9)
    cf = sp.closed_form_spectrum("paley", 9).laplacian_for_regular(4)
    assert sp.verify_closed_form(sp.spectrum(g, "laplacian"), cf)["ok"]


def test_paley_eigenvalues_via_field_characters():
    """The non-trivial Paley eigenvalues are the character sums over the
    non-zero squares; each relates to a Gauss sum by G(psi, sigma) = 2a + 1,
    and the values split evenly between (+-sqrt(q) - 1)/2."""
    from specgraph import characters as ch
    from specgraph import finite_field as ff

    q = 13
    spec = ff.construct_field(13, 1)
    sig = ff.signature_table(spec)
    squares = [spec.element(i) for i in range(1, q) if sig[i] == 1]
    sigma = ch.quadratic_character(spec)
    seen = []
    for t in range(1, q):
        psi = ch.AdditiveCharacter(spec, spec.element(t))
        alpha = sum(psi(s) for s in squares)
        assert abs(alpha.imag) < 1e-9
        gauss = ch.gauss_sum(psi, sigma)
        assert abs(gauss - (2 * alpha + 1)) < 1e-9
        seen.append(alpha.real)
    plus = sum(1 for a in seen if abs(a - (math.sqrt(q) - 1) / 2) < 1e-9)
    minus = sum(1 for a in seen if abs(a - (-math.sqrt(q) - 1) / 2) < 1e-9)
    assert plus == minus == (q - 1) // 2
    cf = sp.closed_form_spectrum("paley", q)
    assert sorted(v for v, m, _ in cf.entries for _ in range(m))[:-1] == \
        pytest.approx(sorted(seen))


def test_cone_and_complement_laplacian_rules():
    # laplacian of a cone: {0, n0+1} + (lambda_k + 1); complement: {0} + (n - lambda)
    base = gf.cycle(6)
    base_lap = sp.eig_symmetric(sp.laplacian_matrix(base), "laplacian")
    base_cf = sp.ClosedForm("laplacian", tuple((v, m, "x") for v, m in base_lap.entries))
    cone_graph = gc.cone(base)
    entries = [(0.0, 1, "0"), (float(base.n + 1), 1, "n0+1")]
    dropped = False
    for v, m, lbl in sorted(base_cf.entries, key=lambda t: t[0]):
        if not dropped and abs(v) < 1e-9:
            m -= 1
            dropped = True
        if m > 0:
            entries.append((v + 1, m, lbl))
    cone_cf = sp._form(entries, kind="laplacian")
    assert sp.verify_closed_form(sp.spectrum(cone_graph, "laplacian"), cone_cf)["ok"]

    comp = gc.complement(gf.petersen())
    pet_lap = sp.eig_symmetric(sp.laplacian_matrix(gf.petersen()), "laplacian")
    pet_cf = sp.ClosedForm("laplacian", tuple((v, m, "x") for v, m in pet_lap.entries))
    comp_cf = sp.complement_laplacian_closed_form(pet_cf, 10)
    assert sp.verify_closed_form(sp.spectrum(comp, "laplacian"), comp_cf)["ok"]


def test_product_rule_spectra():
    for a, b in [(gf.complete(3), gf.complete(3)), (gf.complete(2), gf.cycle(4))]:
        cf_a = sp.ClosedForm("adjacency", tuple((v, m, "x") for v, m in adj_spectrum(a).entries))
        cf_b = sp.ClosedForm("adjacency", tuple((v, m, "x") for v, m in adj_spectrum(b).entries))
        cf = sp.product_closed_form(cf_a, cf_b)
        assert sp.verify_closed_form(adj_spectrum(gc.product(a, b)), cf)["ok"]


def test_double_rule_spectrum():
    pet = gf.petersen()
    cf = sp.double_closed_form(sp.closed_form_spectrum("petersen"))
    assert sp.verify_closed_form(adj_spectrum(gc.bipartite_double(pet)), cf)["ok"]


def test_partial_design_closed_form_machinery():
    c1 = gf.c1_graph(gf.tutte_coxeter(), 0)
    c1_spec = adj_spectrum(c1)
    cf = sp.partial_design_closed_form(15, 3, 0, 1, c1_spec.entries)
    expected = sp.closed_form_spectrum("tutte_coxeter")
    assert [(round(v, 9), m) for v, m, _ in cf.entries] == \
        [(round(v, 9), m) for v, m, _ in expected.entries]


@pytest.mark.parametrize("build, missing", [
    (lambda: sp.cone_closed_form_adjacency(sp.closed_form_spectrum("cycle", 5), 3),
     "base spectrum lacks its trivial eigenvalue"),
    (lambda: sp.complement_laplacian_closed_form(
        sp.ClosedForm("laplacian", ((1.0, 2, "a"), (3.0, 1, "b"))), 3),
     "laplacian spectrum lacks the 0 eigenvalue"),
    (lambda: sp.partial_design_closed_form(15, 3, 0, 1, [(0.0, 5)]),
     "c1-graph spectrum lacks its trivial eigenvalue"),
], ids=["cone", "complement_laplacian", "partial_design"])
def test_closed_form_rule_refuses_base_without_trivial_eigenvalue(build, missing):
    """Each rule drops one copy of a trivial eigenvalue of its base spectrum;
    a base without that value is a Mismatch, not a wrong spectrum."""
    with pytest.raises(Mismatch, match=missing):
        build()


# -- classifiers -------------------------------------------------------------------

def test_classifiers_petersen():
    g = gf.petersen()
    adj, lap = sp.spectrum(g), sp.spectrum(g, "laplacian")
    out = sp.spectrum_classifiers(adj, lap)
    assert out["regular"] and not out["bipartite"]
    assert out["connected_components"] == 1
    assert out["srg"] == gf.SrgParams(10, 3, 0, 1)


def test_classifiers_heawood_extremal_design():
    g = gf.heawood()
    adj, lap = sp.spectrum(g), sp.spectrum(g, "laplacian")
    out = sp.spectrum_classifiers(adj, lap)
    assert out["bipartite"] and out["regular"]
    assert out["design"] == gf.DesignParams(7, 3, 1)
    assert out["extremal_design_degree"] == 3


def test_classifiers_k33():
    g = gf.complete_bipartite(3, 3)
    adj, lap = sp.spectrum(g), sp.spectrum(g, "laplacian")
    out = sp.spectrum_classifiers(adj, lap)
    assert out["bipartite"] and out["regular"]
    assert out["design"] == gf.DesignParams(3, 3, 3)  # c = d


def test_classifier_counts_components():
    g = gc.Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    adj, lap = sp.spectrum(g), sp.spectrum(g, "laplacian")
    out = sp.spectrum_classifiers(adj, lap)
    assert out["connected_components"] == 2


def test_classifier_irregular():
    g = gf.star(5)
    adj, lap = sp.spectrum(g), sp.spectrum(g, "laplacian")
    out = sp.spectrum_classifiers(adj, lap)
    assert not out["regular"] and out["bipartite"]


# -- feasibility ---------------------------------------------------------------------

def test_srg_feasibility_cases():
    assert sp.srg_feasibility(10, 3, 0, 1) == ("integral", 3)
    for c in (1, 2, 3):
        assert sp.srg_feasibility(4 * c + 1, 2 * c, c - 1, c) == ("quadratic", None)
    kind, reason = sp.srg_feasibility(28, 9, 0, 1)
    assert kind == "infeasible"


def test_srg_feasibility_identity_violation():
    # (18,6,2,2): integral multiplicities (7 and 10), but the double-counting
    # identity fails, so the tuple is rejected rather than reported feasible
    with pytest.raises(IdentityViolated):
        sp.srg_feasibility(18, 6, 2, 2)
    # non-square discriminant dominates: reported infeasible before identity
    assert sp.srg_feasibility(16, 6, 2, 3)[0] == "infeasible"
    # so does a quadratic case whose multiplicities (n-1)/2 are not integers
    assert sp.srg_feasibility(4, 3, 0, 2)[0] == "infeasible"


def test_moore_enumeration():
    assert sp.moore_graph_enumeration() == [(5, 2), (10, 3), (50, 7), (3250, 57)]


# -- spectral invariants over a sub-corpus ----------------------------------------------

def spectral_corpus():
    return [gf.complete(5), gf.cycle(6), gf.cube(3), gf.petersen(), gf.heawood(),
            gf.paley(13), gf.shrikhande(), gf.star(6), gf.wheel(7), gf.tree(3, 2),
            gf.sum_product(3), gf.andrasfai(3), gf.tutte_coxeter()]


def test_trace_identities_with_triangle_oracle():
    for g in spectral_corpus():
        values = adj_spectrum(g).expanded()
        assert abs(values.sum()) < 1e-8 * g.n
        assert abs((values**2).sum() - 2 * g.edge_count) < 1e-8 * g.n * g.max_degree
        # brute-force triangle count
        triangles = sum(1 for i in range(g.n) for j in range(i + 1, g.n)
                        for k in range(j + 1, g.n)
                        if g.has_edge(i, j) and g.has_edge(j, k) and g.has_edge(i, k))
        assert abs((values**3).sum() - 6 * triangles) < 1e-7 * g.n * g.max_degree**2


def test_interval_location():
    for g in spectral_corpus():
        adj, lap = sp.spectrum(g), sp.spectrum(g, "laplacian")
        d = g.max_degree
        assert adj.min >= -d - 1e-9 and adj.max <= d + 1e-9
        assert lap.min >= -1e-9 and lap.max <= 2 * d + 1e-9


def test_distinct_count_vs_diameter():
    for g in spectral_corpus():
        adj, lap = sp.spectrum(g), sp.spectrum(g, "laplacian")
        delta = gc.diameter(g)
        assert len(adj.entries) >= delta + 1
        assert len(lap.entries) >= delta + 1


def test_lambda_max_2d_iff_regular_bipartite():
    for g in spectral_corpus():
        lap = sp.eig_symmetric(sp.laplacian_matrix(g), "laplacian")
        is_2d = abs(lap.max - 2 * g.max_degree) < 1e-6
        assert is_2d == (g.is_regular and g.is_bipartite)


def test_degree_sandwich():
    for g in spectral_corpus():
        adj, lap = sp.spectrum(g), sp.spectrum(g, "laplacian")
        sums = adj.expanded() + lap.ascending()
        assert sums.min() >= g.min_degree - 1e-8
        assert sums.max() <= g.max_degree + 1e-8


def test_isospectral_pairs():
    for a, b in [(gf.shrikhande(), gf.rook_twin()),
                 (gf.machine([4]), gf.machine([2, 2]))]:
        sa, sb = adj_spectrum(a), adj_spectrum(b)
        assert len(sa.entries) == len(sb.entries)
        for (va, ma), (vb, mb) in zip(sa.entries, sb.entries):
            assert abs(va - vb) < 1e-7 and ma == mb
        assert not gc.is_isomorphic(a, b)[0]


def test_spectrum_json():
    s = adj_spectrum(gf.petersen())
    data = s.to_json()
    assert data["kind"] == "adjacency"
    assert sum(e["multiplicity"] for e in data["entries"]) == 10


# recorded numeric fixtures: no closed form is claimed for these spectra
ANDRASFAI_SPECTRA = {
    3: [(3.0, 1), (1.0, 2), (0.4142135624, 2), (-1.0, 1), (-2.4142135624, 2)],
    4: [(4.0, 1), (1.3978773891, 2), (0.5462003495, 2), (0.3727855978, 2),
        (-1.0881559212, 2), (-3.2287074151, 2)],
    5: [(5.0, 1), (1.8019377358, 2), (0.6920214716, 2), (0.4450418679, 2),
        (0.3568958679, 2), (-1.0, 1), (-1.2469796037, 2), (-4.0489173395, 2)],
}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_andrasfai_numeric_spectrum_fixture(n):
    s = adj_spectrum(gf.andrasfai(n))
    expected = ANDRASFAI_SPECTRA[n]
    assert len(s.entries) == len(expected)
    for (v, m), (ev, em) in zip(s.entries, expected):
        assert v == pytest.approx(ev, abs=1e-7) and m == em
    # and the diameter-bound remark: many more distinct values than diam + 1
    assert len(s.entries) > gc.diameter(gf.andrasfai(n)) + 1
