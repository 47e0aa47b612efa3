"""Finite abelian groups Z_m1 x ... x Z_mk, their characters, and the group
record of a Cayley or bi-Cayley graph.

An element is its index in mixed-radix order with the first coordinate most
significant: element i has the coordinates of the i-th tuple of
``itertools.product(range(m1), ..., range(mk))``.  Every helper here takes
and gives indices and converts to coordinates with ``digits`` inside; Cayley
and bi-Cayley graphs, their spectra and the +-1 certificates all index
vertices, connection sets and characters this way.  Coordinates appear only
in the arguments of ``cayley``/``bi_cayley`` and in labels.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

import numpy as np

from .errors import FrozenRecord


def elements(orders) -> list[tuple[int, ...]]:
    """The coordinates of every element, in index order."""
    return list(itertools.product(*[range(m) for m in orders]))


@cache
def _radix(orders: tuple[int, ...]) -> np.ndarray:
    """The index step of each coordinate, built once per orders, read-only."""
    radix = np.array([math.prod(orders[j + 1:]) for j in range(len(orders))], dtype=np.int64)
    radix.flags.writeable = False
    return radix


def indices(orders, coords) -> np.ndarray:
    """The index of each row of the (N, k) int array coords, whose entries
    lie below their orders."""
    return coords @ _radix(tuple(orders))


def digits(orders, idx) -> np.ndarray:
    """The coordinates of the elements at the index or int array idx, along
    a new last axis of length k: (N, k) for N indices."""
    return np.asarray(idx, dtype=np.int64)[..., None] // _radix(tuple(orders)) % np.array(
        orders, dtype=np.int64)


def translate(orders, steps) -> np.ndarray:
    """(len(steps), n) table: row j holds x + steps[j] for every x, in index
    order."""
    steps = digits(orders, steps)
    idx = np.zeros((len(steps), 1), dtype=np.int64)
    for m, c in zip(orders, steps.T):
        idx = (idx[:, :, None] * m + (np.arange(m) + c[:, None, None]) % m).reshape(
            len(steps), idx.shape[1] * m)
    return idx


def generates(orders, steps) -> bool:
    """Whether the steps reach every element from 0.

    h grows from {0} as the subgroup H that the steps so far generate.  A step
    s joins by doubling: after k rounds of h <- h u (h + 2^j s), j < k, h is
    the union of H + i s over i < 2^k, the first 2^k multiples of s's coset.
    Once 2^k s lies in h, 2^k is at least that coset's order, so h is
    <H, s>.  Once a step leaves h the whole group, the rest cannot grow it."""
    orders = tuple(orders)
    axes = tuple(range(len(orders)))
    h = np.zeros(orders, dtype=bool)
    h.flat[0] = True
    for s in steps:
        if h.flat[s]:
            continue
        shift = tuple(digits(orders, s).tolist())
        while not h[shift]:
            h |= np.roll(h, shift, axes)
            shift = tuple(2 * x % m for x, m in zip(shift, orders))
        if h.all():
            return True
    return bool(h.all())


def character(orders, k) -> np.ndarray:
    """chi_k(x) = exp(2 pi i sum_j k_j x_j / m_j) for every x, in index order.

    Since chi_k(x) = chi_x(k), the vector for k = x also lists chi_k(x) over
    every character k."""
    lcm = math.lcm(*orders)
    turns = np.zeros(1, dtype=np.int64)  # phase in units of 1/lcm of a turn
    for m, kj in zip(orders, digits(orders, k).tolist()):
        turns = (turns[:, None] + (kj * np.arange(m)) % m * (lcm // m)).ravel()
    return np.exp(2j * np.pi * (turns % lcm) / lcm)


def character_sum(orders, subset) -> np.ndarray:
    """sum_{s in S} chi_k(s) for every character k, in index order: the
    eigenvalues of the Cayley graph on S.

    One DFT of S's counts over the shape orders.  The DFT's index k holds
    sum_s exp(-2 pi i k.s/m), the sum for chi_{-k}; the counts are real, so
    the conjugate is the sum for chi_k.  When every order is 2 the DFT is the
    Walsh-Hadamard transform, a + b and a - b along each axis, taken exactly
    in ints; its conjugate as complex has the FFT's bits, -0.0 imaginary
    parts included, and numpy.fft is not loaded."""
    orders = tuple(orders)
    counts = np.bincount(np.asarray(subset, dtype=np.int64), minlength=math.prod(orders))
    if all(m == 2 for m in orders):
        for j in range(len(orders)):
            counts = counts.reshape(2**j, 2, -1)
            a, b = counts[:, 0], counts[:, 1]
            counts = np.stack((a + b, a - b), axis=1)
        return counts.ravel().astype(complex).conj()
    # np.fft is reached here rather than imported: importing numpy does not load it
    return np.fft.fftn(counts.reshape(orders).astype(float)).conj().ravel()


class Group(FrozenRecord):
    """The group of an abelian Cayley graph Cay(G, S) on G = Z_m1 x ... x Z_mk,
    or with bi set of the bi-Cayley graph on two copies of G, where black g
    ~ white h iff h - g lies in S.  subset holds S's indices, sorted: vertex
    0's neighbours, less |G| on a bi-Cayley graph.  Vertex i is element i; on
    a bi-Cayley graph, vertices i and |G| + i are."""

    _fields = ("orders", "subset", "bi")

    def __init__(self, orders: tuple[int, ...], subset: tuple[int, ...], bi: bool = False):
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "bi", bi)

    @property
    def n(self) -> int:
        return math.prod(self.orders) * (2 if self.bi else 1)

    def labels(self) -> tuple[str, ...]:
        """Each vertex's element as text, suffixed "b" or "w" on the black
        and the white side of a bi-Cayley graph."""
        names = [str(e) for e in elements(self.orders)]
        if not self.bi:
            return tuple(names)
        return tuple(f"{e}b" for e in names) + tuple(f"{e}w" for e in names)

    def rows(self) -> list[list[int]]:
        """Each vertex's neighbours, from the translate table of S."""
        # one int object per vertex, which every row shares (complete:2000: 447 MB, not 553)
        vertex = np.array(range(self.n), dtype=object)
        table = translate(self.orders, self.subset).T  # row i: i + S
        if not self.bi:
            return vertex[table].tolist()
        n, k = table.shape
        # Black i's neighbours are n + i + S; white h's are the black i with h
        # in i + S, and the argsort inverts the table to list them.
        black = vertex[n + table].tolist()
        white = vertex[np.argsort(table, axis=None, kind="stable") // k].reshape(n, k).tolist()
        return black + white
