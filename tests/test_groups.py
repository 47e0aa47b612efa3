"""The abelian-group helper against direct definitions: the mixed-radix
layout, a pure-Python reachability search, and characters written out one
phase at a time.  The helpers take elements as indices; the oracles work on
coordinate tuples, and _indices converts the drawn tuples."""

import cmath
import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specgraph import groups

GROUPS = [(1,), (2, 2, 2), (5, 3), (4, 6), (9,), (3, 3, 3), (2, 4, 3)]


@st.composite
def group_and_steps(draw):
    orders = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    elem = st.tuples(*[st.integers(0, m - 1) for m in orders])
    return orders, draw(st.lists(elem, max_size=4))


def _indices(orders, elems) -> list[int]:
    """The index of each coordinate tuple, as Python ints."""
    coords = np.array(elems, dtype=np.int64).reshape(len(elems), len(orders))
    return groups.indices(orders, coords).tolist()


def _reaches_all(orders, steps) -> bool:
    zero = tuple(0 for _ in orders)
    seen, frontier = {zero}, [zero]
    while frontier:
        g = frontier.pop()
        for s in steps:
            h = tuple((x + y) % m for x, y, m in zip(g, s, orders))
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return len(seen) == math.prod(orders)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(group_and_steps())
@example(((64,), [(3,)]))
@example(((64,), [(0,), (40,), (24,)]))
@example(((64,), [(48,), (40,), (2,)]))
@example(((2, 32), [(0, 0), (1, 2), (0, 6)]))
@example(((2, 32), [(1, 2), (0, 6), (1, 1)]))
@example(((8, 8), [(2, 4), (0, 0), (1, 3), (4, 2)]))
@example(((4, 4, 4), [(1, 0, 0), (0, 1, 0), (0, 0, 2), (0, 0, 1)]))
@example(((1, 1), [(0, 0)]))
def test_generates_matches_search(case):
    orders, steps = case
    assert groups.generates(orders, _indices(orders, steps)) == _reaches_all(orders, steps)


def test_generates_stops_once_the_group_is_covered(monkeypatch):
    """paley:1009's first square, 1, covers Z_1009 in ceil(log2 1009) = 10
    doublings, and the 503 squares after it are not read."""
    squares = sorted({x * x % 1009 for x in range(1, 1009)})
    rolls, read = [], []
    roll = np.roll
    monkeypatch.setattr(np, "roll", lambda *args: rolls.append(args[1]) or roll(*args))
    assert groups.generates((1009,), (read.append(s) or s for s in squares))
    assert len(rolls) == 10 and read == [1]


def test_layout_index_translate_neg():
    """Element i is the i-th coordinate tuple, row s of the translate table
    lists x + s coordinate by coordinate, and it holds 0 at x = -s."""
    for orders in GROUPS:
        elems = groups.elements(orders)
        assert elems == list(itertools.product(*[range(m) for m in orders]))
        assert _indices(orders, elems) == list(range(len(elems)))
        for s, shifted in zip(elems, groups.translate(orders, range(len(elems)))):
            assert [elems[j] for j in shifted] == [
                tuple((a + b) % m for a, b, m in zip(x, s, orders)) for x in elems]
            assert elems[shifted.tolist().index(0)] == tuple(-a % m for a, m in zip(s, orders))


def test_characters_match_definition_and_are_orthogonal():
    for orders in GROUPS:
        elems = groups.elements(orders)
        table = np.array([groups.character(orders, k) for k in range(len(elems))])
        for k, row in zip(elems, table):
            direct = [cmath.exp(2j * cmath.pi * sum(a * x / m for a, x, m in zip(k, g, orders)))
                      for g in elems]
            assert np.abs(row - direct).max() < 1e-12
        assert np.abs(table - table.T).max() < 1e-12  # chi_k(x) = chi_x(k)
        n = len(elems)
        assert np.abs(table @ table.conj().T - n * np.eye(n)).max() < 1e-9


def _loop_character_sum(orders, subset):
    """The O(n |S|) loop that character_sum was before it became one DFT,
    kept as its oracle: the characters of the subset's elements, added up."""
    total = np.zeros(math.prod(orders), dtype=complex)
    for s in subset:
        total += groups.character(orders, s)
    return total


def test_character_sum_is_sum_over_subset():
    orders, subset = (4, 6), _indices((4, 6), [(1, 0), (3, 0), (2, 3)])
    assert subset == [6, 18, 15]
    expected = [sum(groups.character(orders, k)[s] for s in subset) for k in range(24)]
    assert np.abs(groups.character_sum(orders, subset) - expected).max() < 1e-12


@settings(max_examples=200, derandomize=True, deadline=None)
@given(group_and_steps())
@example(((5,), [(1,)]))
@example(((1, 4, 1), [(0, 1, 0), (0, 1, 0), (0, 2, 0)]))
@example(((3, 1), []))
def test_character_sum_matches_the_loop(case):
    """Index by index, on subsets that are mostly not symmetric, so that the
    sum for chi_-k in the place of chi_k fails."""
    orders, subset = case
    subset = _indices(orders, subset)
    got = groups.character_sum(orders, subset)
    assert got.shape == (math.prod(orders),)
    assert np.abs(got - _loop_character_sum(orders, subset)).max(initial=0.0) < 1e-9


@st.composite
def binary_multisets(draw):
    """A multiset of elements of (Z_2)^k, 1 <= k <= 12, as bit tuples."""
    k = draw(st.integers(1, 12))
    return (2,) * k, draw(st.lists(st.tuples(*[st.integers(0, 1)] * k), max_size=40))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(binary_multisets())
@example(((2, 2), [(1, 0), (0, 1), (1, 1)]))  # chars 3's Jacobi shape
@example(((2, 2), []))
@example(((2,) * 12, [(1,) * 12, (1,) * 12, (0,) * 12]))
def test_walsh_hadamard_has_the_fft_bits(case):
    """On (Z_2)^k the exact transform equals the FFT it replaced to the bit:
    the same reprs of every real and every imaginary part, -0.0 included."""
    orders, subset = case
    got = groups.character_sum(orders, _indices(orders, subset))
    counts = np.zeros(orders)
    for s in subset:
        counts[s] += 1.0
    expected = np.fft.fftn(counts).conj().ravel()
    assert repr(got.real.tolist()) == repr(expected.real.tolist())
    assert repr(got.imag.tolist()) == repr(expected.imag.tolist())


def test_index_and_digits_invert_each_other():
    for orders in GROUPS:
        elems = groups.elements(orders)
        coords = np.array(elems, dtype=np.int64).reshape(len(elems), len(orders))
        idx = groups.indices(orders, coords)
        assert idx.tolist() == list(range(len(elems)))
        assert groups.digits(orders, idx).tolist() == [list(x) for x in elems]
        assert [groups.digits(orders, i).tolist() for i in range(len(elems))] == [
            list(x) for x in elems]


def test_rows_share_one_int_per_vertex():
    """A dense Cayley graph's rows and a bi-Cayley graph's hold one int object
    per vertex, shared by every row it appears in."""
    for group in (groups.Group((300,), tuple(range(1, 300))),
                  groups.Group((150,), tuple(range(0, 150, 3)), bi=True)):
        rows = group.rows()
        assert len({id(v) for row in rows for v in row}) == group.n
        assert sorted({v for row in rows for v in row}) == list(range(group.n))


def test_radix_is_built_once_per_orders_and_read_only():
    radix = groups._radix((3, 4, 5))
    assert radix.tolist() == [20, 5, 1] and not radix.flags.writeable
    assert groups._radix((3, 4, 5)) is radix
    assert groups.digits([3, 4, 5], 59).tolist() == [2, 3, 4]
