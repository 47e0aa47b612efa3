"""Finite simple undirected graphs and their exact combinatorial invariants.

Exact engines (chromatic number, independence, clique, isoperimetric constant,
isomorphism) are branch-and-bound or exhaustive; past a size cap or the time
budget EXACT_BUDGET_SECONDS they raise CapExceeded rather than approximate.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .errors import (
    BadParameters,
    CapExceeded,
    Disconnected,
    FrozenRecord,
    IndexOutOfRange,
    LoopEdge,
    Record,
    SizeOverflow,
)
from .groups import Group

INF = math.inf

CHI_CAP = 64
BETA_CAP = 24
ISO_CAP = 32
EXACT_BUDGET_SECONDS = 10.0
# Most adjacency entries a graph is built with (a group's order times its set
# size, an edge list's n + 2m): every graph the eigensolver takes fits, as
# 4096 + 4096 * 4095 = 2**24, and a larger one is refused before any row.
ADJACENCY_CAP = 2**24
GROUP_LABELS = object()  # a group graph's default labels: each vertex's element


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Disconnected graphs are allowed as values (complements, derived graphs);
    operations that need connectivity raise Disconnected themselves. ``group``
    is the groups.Group of a Cayley or bi-Cayley graph, else None; vertex i
    is then the group's element i (on a bi-Cayley graph, i and |G| + i are),
    so the group's translations are automorphisms.
    """

    def __init__(self, n: int, edges, labels=None, name: str = ""):
        if n < 1:
            raise IndexOutOfRange("graph needs at least one vertex")
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise LoopEdge(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
            rows[u].append(v)
            rows[v].append(u)
        self._describe(n, labels, name, None)
        self.adj = _frozen(rows)

    @classmethod
    def from_rows(cls, rows, labels=None, name: str = "", group: Group | None = None) -> Graph:
        """Graph whose vertex v has the neighbours rows[v], which must already be
        symmetric and loop-free.  The order within a row carries no meaning.
        A group, if given, must be the one whose graph has these rows."""
        g = cls.__new__(cls)
        g._describe(len(rows), labels, name, group)
        g.adj = _frozen(rows)
        return g

    @classmethod
    def from_group(cls, group: Group, labels=GROUP_LABELS, name: str = "") -> Graph:
        """The Cayley or bi-Cayley graph of group, which gives n, the degrees
        and the edge count.  Its neighbour rows, and its element labels unless
        labels is given (None: unlabelled), are built when first read, and
        never if they are not."""
        g = cls.__new__(cls)
        g._describe(group.n, labels, name, group)
        g.degrees = (len(group.subset),) * group.n
        g.edge_count = group.n * len(group.subset) // 2
        return g

    def _describe(self, n, labels, name, group) -> None:
        self.n = n
        if labels is not GROUP_LABELS:
            self.labels = tuple(labels) if labels is not None else None
            if labels is not None and len(self.labels) != n:
                raise BadParameters(f"{len(self.labels)} labels for {n} vertices")
        self.name = name
        self.group = group

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """The neighbour set of each vertex; a group graph builds them here."""
        return _frozen(self.group.rows())

    @cached_property
    def labels(self) -> tuple[str, ...] | None:
        """Each vertex's label, or None; a group graph built with GROUP_LABELS
        builds its element labels here."""
        return self.group.labels()

    # -- basics ---------------------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @cached_property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.adj)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)

    @property
    def min_degree(self) -> int:
        return min(self.degrees)

    @property
    def average_degree(self) -> Fraction:
        return Fraction(2 * self.edge_count, self.n)

    @cached_property
    def is_regular(self) -> bool:
        return self.min_degree == self.max_degree

    @cached_property
    def vertex_of_label(self) -> dict[str, int]:
        return {label: v for v, label in enumerate(self.labels or ())}

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Adjacency bitmasks, one int per vertex."""
        return tuple(sum(1 << u for u in s) for s in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    @cached_property
    def _local_counts(self) -> tuple[tuple[int, int, int], ...]:
        """(degree, triangles, K4s) at each vertex; seeds colour refinement."""
        return tuple((self.degree(v), triangles_at(self, v), k4_at(self, v))
                     for v in range(self.n))

    def _search(self, source: int, dist: list[float]) -> list[int]:
        """Breadth-first search from source: the vertices reached, in visit
        order, which is the search's queue. Each vertex reached gets its
        distance in dist, where INF marks a vertex no search has reached."""
        dist[source] = 0
        order = [source]
        for u in order:
            d = dist[u] + 1
            for w in self.adj[u]:
                if dist[w] == INF:
                    dist[w] = d
                    order.append(w)
        return order

    def bfs_distances(self, source: int) -> list[float]:
        dist = [INF] * self.n
        self._search(source, dist)
        return dist

    @cached_property
    def _forest(self) -> tuple[list[float], list[list[int]]]:
        """(distances, components): one search from the least vertex no
        earlier search reached, each component listed in visit order.
        Connectivity, the components and the 2-colouring all read it."""
        dist = [INF] * self.n
        return dist, [self._search(s, dist) for s in range(self.n) if dist[s] == INF]

    @property
    def is_connected(self) -> bool:
        return len(self._forest[1]) == 1

    @cached_property
    def components(self) -> list[frozenset[int]]:
        return [frozenset(c) for c in self._forest[1]]

    @cached_property
    def bipartition(self) -> tuple[frozenset[int], frozenset[int]] | None:
        """A 2-coloring (covering all components), or None if an edge joins
        two vertices at the same distance, which closes an odd cycle. Black
        is the even-distance side from each component's least vertex."""
        dist = self._forest[0]
        if any(dist[u] == dist[w] for u in range(self.n) for w in self.adj[u]):
            return None
        black = frozenset(v for v in range(self.n) if dist[v] % 2 == 0)
        return black, frozenset(range(self.n)) - black

    @property
    def is_bipartite(self) -> bool:
        return self.bipartition is not None

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        tag = self.name or "graph"
        return f"<{tag}: n={self.n}, m={self.edge_count}>"


def _frozen(rows) -> tuple[frozenset[int], ...]:
    # Row order carries no meaning.  frozenset(set(row)) sizes each table for
    # its final length; frozenset(row) grows it while reading the list and
    # holds twice the memory (paley(729): 24 MB against 12 MB).
    return tuple(frozenset(set(row)) for row in rows)


def checked_vertices(g: Graph, vertices) -> list[int]:
    """vertices as a list; IndexOutOfRange for any that is not one of g's
    0..n-1, where a negative index would wrap and n or more would escape."""
    vs = list(vertices)
    for v in vs:
        if not 0 <= v < g.n:
            raise IndexOutOfRange(f"no vertex {v} in 0..{g.n - 1}")
    return vs


# -- text formats --------------------------------------------------------------

def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges())]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str, name: str = "", size_check=None) -> Graph:
    """The graph of an 'n m' header and m 'u v' rows; size_check, if given,
    may refuse the header's n by raising before any row is built."""
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    try:
        (n, m), *edges = [(int(a), int(b)) for a, b in rows]
    except ValueError:
        raise BadParameters("an edge list is an 'n m' header and 'u v' integer pairs") from None
    if n + 2 * m > ADJACENCY_CAP:
        raise SizeOverflow(f"edge list header: n + 2m over {ADJACENCY_CAP} adjacency entries")
    if size_check is not None:
        size_check(n)
    if len(edges) != m:
        raise IndexOutOfRange(f"edge list announces {m} edges, has {len(edges)}")
    seen = set()
    for u, v in edges:
        if (u, v) in seen:
            raise BadParameters(f"edge list repeats the edge {u} {v}")
        seen.update({(u, v), (v, u)})
    return Graph(n, edges, name=name)


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    covered = set()
    for u, v in sorted(g.edges()):
        lines.append(f"  {u} -- {v};")
        covered.update((u, v))
    for v in range(g.n):
        if v not in covered:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(g: Graph) -> dict:
    out = {"n": g.n, "edges": [[u, v] for u, v in sorted(g.edges())]}
    if g.labels is not None:
        out["labels"] = list(g.labels)
    return out


# -- metrics -------------------------------------------------------------------

def _orbit_roots(g: Graph):
    """The roots that basic_metrics walks from: vertex 0 of a group graph, one
    vertex farthest from 0 on a forest, and every vertex of any other graph.
    A group graph is vertex-transitive: the translations are automorphisms,
    and on a bi-Cayley graph so is black g -> white -g, white h -> black -h,
    which keeps h - g in S and swaps the sides.  A forest has no cycle for a
    root to find, and in a tree the vertex farthest from any vertex has the
    diameter as its eccentricity."""
    if g.group is None and g.edge_count == g.n - len(g._forest[1]):
        return g._forest[1][0][-1:]  # the last vertex the search from 0 reached
    return range(g.n) if g.group is None else (0,)


def basic_metrics(g: Graph) -> tuple[int | None, float]:
    """(diameter, girth): the diameter None on a disconnected graph, the girth
    math.inf on a forest.

    One bitmask BFS per root of _orbit_roots: each layer is the union of its
    predecessor's neighbour masks that no earlier layer reached. At layer d,
    an edge inside the layer closes a cycle of length at most 2d + 1, and a
    vertex of the next layer with two neighbours in this one closes a cycle
    of length at most 2d + 2. From a root on a shortest cycle the first of
    these is that cycle's length, so the least over the roots is the girth.
    A walk stops when its frontier is empty, or once every vertex is reached
    and 2d + 1 is at least the best girth, as no later layer can lower it;
    the root's eccentricity is then d, or d - 1 if the frontier is empty.
    """
    masks = g.masks
    ecc, best = 0, INF
    for root in _orbit_roots(g):
        frontier = 1 << root
        unseen = ((1 << g.n) - 1) ^ frontier
        d = 0
        while frontier and (unseen or 2 * d + 1 < best):
            reach = twice = 0
            rest = frontier
            while rest:
                bit = rest & -rest
                m = masks[bit.bit_length() - 1]
                twice |= reach & m
                reach |= m
                rest ^= bit
            if reach & frontier:  # an edge inside layer d
                best = min(best, 2 * d + 1)
            frontier = reach & unseen
            if twice & frontier:
                best = min(best, 2 * d + 2)
            unseen ^= frontier
            d += 1
        ecc = max(ecc, d if frontier else d - 1)
    return (ecc if g.is_connected else None), best


def diameter(g: Graph) -> int:
    """The largest eccentricity, from basic_metrics."""
    if not g.is_connected:
        raise Disconnected("diameter undefined for disconnected graphs")
    return basic_metrics(g)[0]


def girth(g: Graph):
    """Length of a shortest cycle, from basic_metrics; math.inf for forests."""
    return basic_metrics(g)[1]


# -- triangle counting ----------------------------------------------------------

def triangles_at(g: Graph, v: int) -> int:
    """Number of triangles through v (= edges inside the link of v)."""
    mask_v = g.masks[v]
    return sum((g.masks[u] & mask_v).bit_count() for u in g.adj[v]) // 2


def triangle_count(g: Graph) -> int:
    """Each triangle is counted at each of its 3 edges, in both directions."""
    masks = g.masks
    return sum((masks[u] & mask_v).bit_count() for mask_v, row in zip(masks, g.adj) for u in row) // 6


def k4_at(g: Graph, v: int) -> int:
    """Number of K4 subgraphs through v (= triangles inside the link of v)."""
    masks = g.masks
    rest = mask_v = masks[v]
    total = 0
    while rest:
        bit = rest & -rest
        rest ^= bit
        mask_uv = masks[bit.bit_length() - 1] & mask_v
        # each triangle u < w < x of the link is counted at (u, w), (u, x), (w, x)
        ws = mask_uv & -(bit << 1)
        while ws:
            low = ws & -ws
            ws ^= low
            total += (masks[low.bit_length() - 1] & mask_uv).bit_count()
    return total // 3


def common_neighbours(g: Graph, u: int, v: int) -> int:
    return (g.masks[u] & g.masks[v]).bit_count()


# -- exact chromatic / independence / clique -------------------------------------

class _Deadline:
    def __init__(self):
        self.t_end = time.monotonic() + EXACT_BUDGET_SECONDS

    def check(self):
        if time.monotonic() > self.t_end:
            raise CapExceeded("time budget exhausted")


def clique_number(g: Graph, cap: int = CHI_CAP) -> int:
    """Exact clique number by branch and bound on greedy colour classes."""
    if g.n > cap:
        raise CapExceeded(f"n = {g.n} over clique cap {cap}")
    return _max_clique(g.n, g.masks)


def _max_clique(n: int, masks) -> int:
    """The largest clique of the graph on 0..n-1 with adjacency bitmasks masks,
    by MCQ (Tomita and Seki, DMTCS 2003). Each node colours its candidates
    greedily in index order into bitmask classes, each built from the least
    candidate up. A clique meets a class at most once, so a vertex of class c
    extends the node's clique to at most size + c + 1: the node branches on
    the classes from the last down, each vertex leaving the candidates once
    branched on, and stops at the first that cannot beat the best clique."""
    deadline = _Deadline()
    best = 1

    def expand(size: int, cand: int):
        nonlocal best
        deadline.check()
        best = max(best, size)
        classes, rest = [], cand
        while rest:
            cls, free = 0, rest
            while free:
                bit = free & -free
                cls |= bit
                free &= ~(masks[bit.bit_length() - 1] | bit)
            classes.append(cls)
            rest ^= cls
        for c in reversed(range(len(classes))):
            cls = classes[c]
            while cls:
                if size + c + 1 <= best:
                    return
                v = cls.bit_length() - 1
                cls ^= 1 << v
                cand ^= 1 << v
                expand(size + 1, cand & masks[v])

    expand(0, (1 << n) - 1)
    return best


def _max_matching_bipartite(g: Graph) -> int:
    """The size of a largest matching of the bipartite g: each black vertex
    takes a free white neighbour if it has one, then an augmenting-path search
    runs from each black vertex left unmatched, entering each white vertex
    once. A black vertex with no augmenting path gains none as others
    augment, so one search from each suffices. The path is a list of
    neighbour iterators and of the white vertices taken from them, not the
    call stack, so any n runs; an unmatched white ends it."""
    left, _right = g.bipartition
    match: dict[int, int] = {}  # white vertex -> its black partner
    for black in sorted(left):
        w = next((w for w in g.adj[black] if w not in match), None)
        if w is not None:
            match[w] = black
    size = len(match)
    for root in sorted(left.difference(match.values())):
        seen: set[int] = set()
        its, whites = [iter(g.adj[root])], []
        while its:
            for w in its[-1]:
                if w not in seen:
                    break
            else:
                its.pop()
                if whites:
                    whites.pop()
                continue
            seen.add(w)
            whites.append(w)
            if w in match:
                its.append(iter(g.adj[match[w]]))
            else:
                black = root
                for x in whites:
                    match[x], black = black, match.get(x)
                size += 1
                break
    return size


def independence_number(g: Graph, cap: int = CHI_CAP) -> int:
    """Exact independence number: Koenig's theorem on bipartite graphs,
    clique search on the complement's bitmasks otherwise."""
    if g.n > cap:
        raise CapExceeded(f"n = {g.n} over independence cap {cap}")
    if g.is_bipartite:
        return g.n - _max_matching_bipartite(g)
    full = (1 << g.n) - 1
    return _max_clique(g.n, [full ^ m ^ 1 << v for v, m in enumerate(g.masks)])


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the least k from the lower bound max(omega,
    ceil(n/alpha)) up for which DSATUR-ordered backtracking finds a
    k-colouring; ceil(n/alpha) is left out when alpha is refused."""
    try:
        alpha = independence_number(g)
    except CapExceeded:
        alpha = None
    return _chromatic_number(g, CHI_CAP, None, alpha)


def _chromatic_number(g: Graph, cap: int, omega: int | None, alpha: int | None) -> int:
    """chromatic_number, with the clique number omega and the independence
    number alpha when known.  Each colour class is an independent set, so
    chi >= ceil(n/alpha).  k rises from the lower bound until a k-colouring
    is found, by the greedy DSATUR colouring's size at the latest."""
    if g.n > cap:
        raise CapExceeded(f"n = {g.n} over chromatic cap {cap}")
    if g.edge_count == 0:
        return 1
    if g.is_bipartite:
        return 2
    deadline = _Deadline()
    k = clique_number(g, cap=cap) if omega is None else omega
    if alpha is not None:
        k = max(k, -(-g.n // alpha))
    while _dsatur_colouring(g, k, deadline) is None:
        k += 1
    return k


def _dsatur_colouring(g: Graph, k: int, deadline: _Deadline) -> list[int] | None:
    """The first colouring of g with at most k colours that DSATUR-ordered
    backtracking finds, or None.  Each step colours the first uncoloured
    vertex of most distinct neighbour colours, then of most neighbours, and
    tries the colours in use and one new one, least first.  With k = n no step
    ever lacks a colour, so the search never backtracks and gives the greedy
    DSATUR colouring; with k its number of colours, every step of the greedy
    run has its colour below k, so the search follows that run and succeeds
    without a step back.  near[c] is the bitmask of the vertices with a
    neighbour of colour c; a success colours every vertex, so what a failed
    branch leaves in colours is overwritten.  The path is a list, not the
    call stack, so any n runs.

    score[u] is u's saturation (the colours c with u in near[c]) times n plus
    u's place in the order by (degree, -u), less n(n + 1) while u is coloured,
    so the vertex to colour is the one of the largest score; each bit that
    near[c] gains or gives back moves one score by n."""
    n, masks, degs = g.n, g.masks, g.degrees
    by_place = sorted(range(n), key=lambda u: (degs[u], -u))
    score = [0] * n
    for place, u in enumerate(by_place):
        score[u] = place
    colours = [-1] * n
    near = [0] * n
    path = []  # (vertex, its colour, the bits it added to near[colour], colours in use before it)
    used = 0
    v, c = by_place[-1], 0
    while True:
        top = min(k, used + 1)
        while c < top and near[c] >> v & 1:
            c += 1
        if c < top:  # colour v with c
            deadline.check()
            gained = masks[v] & ~near[c]
            path.append((v, c, gained, used))
            colours[v], used, step = c, max(used, c + 1), n
        elif path:  # take the last colour back and try the next one there
            v, c, gained, used = path.pop()
            step = -n
        else:
            return None
        near[c] ^= gained
        score[v] -= step * (n + 1)
        while gained:
            bit = gained & -gained
            score[bit.bit_length() - 1] += step
            gained ^= bit
        if step < 0:
            c += 1
        elif len(path) == n:
            return colours
        else:
            v, c = by_place[max(score) % n], 0


# -- isoperimetric constant ------------------------------------------------------

BETA_CHUNK_BITS = 14
BETA_BLOCK_STEPS = 128  # high steps whose group minima are read together; bounds that array


@cache
def _beta_tables(k: int):
    """The graph-free tables of isoperimetric_constant's sweep over the 2^k low
    subsets, built once per k on first use: the subsets in Gray-code order
    (the subset of Gray rank r is r ^ r >> 1) sorted stably by size (order),
    and where each size's group starts in them (bounds)."""
    gray = np.arange(1 << k, dtype=np.int32)
    gray ^= gray >> 1
    order = gray[np.argsort(np.bitwise_count(gray), kind="stable")]
    bounds = np.searchsorted(np.bitwise_count(order), np.arange(k + 2))
    for table in (order, bounds):
        table.flags.writeable = False
    return order, bounds


def _cut_table(g: Graph, first: int, count: int) -> np.ndarray:
    """|boundary X| in g for every subset X of the vertices first..first +
    count - 1, indexed by X's mask shifted down by first.  Index 2^j + Y,
    Y < 2^j, adds vertex v = first + j to Y, which adds deg(v) - 2|N(v) & Y|:
    those steps come from one popcount, and doubling sums them."""
    cut = np.zeros(1 << count, np.int16)
    if count:
        reps = [1 << j for j in range(count)]
        below = np.repeat(np.array([(g.masks[first + j] >> first) & (r - 1)
                                    for j, r in enumerate(reps)], np.int32), reps)
        below &= np.arange(1, 1 << count, dtype=np.int32)
        cut[1:] = np.repeat(np.array(g.degrees[first:first + count], np.int16), reps)
        cut[1:] -= 2 * np.bitwise_count(below)
        for size in reps:
            cut[size:2 * size] += cut[:size]
    return cut


def isoperimetric_constant(g: Graph, cap: int = BETA_CAP):
    """Exact min over non-empty S with |S| <= n/2 of |boundary S| / |S|,
    as a Fraction, together with one minimizing subset.

    One chunked exhaustive sweep over the subsets T of the first m = n - 1
    vertices. As |boundary S| = |boundary (V - S)|, each S is such a T or the
    complement of one. The low k = min(m, BETA_CHUNK_BITS) vertices get
    tables over all 2^k subsets L, cut(L) and, for each high vertex v,
    2|N(v) & L|; int8 below 128 edges, else int16. The subsets H of the high
    vertices are walked in Gray order; flipping v moves the cut of every
    L | H at once by -+2|N(v) & L|, and each step keeps the least cut of each
    size group of L, from one np.minimum.reduceat. Each block of
    BETA_BLOCK_STEPS steps then reads each group's least cut, plus cut(H), as
    one ratio: over t = |T| while t <= n/2, where it stands for T, and over
    n - t beyond, where it stands for V - T; t = 0 stands for nothing. Ratios
    are p/q with q <= n, so two unequal ones differ by at least 1/n^2, far
    above a float64 quotient's rounding: comparing the quotients decides
    exactly. Only a strict gain replaces the best, so the witness comes from
    the first step, and the least size group in it, of the least ratio: the
    first low subset of that group with the least cut in the step's table,
    rebuilt, joined to H, and complemented when t > n/2. So the witness has
    at most n/2 vertices. The time budget is checked once per block.

    On one vertex no S has 0 < |S| <= n/2, so beta is undefined there and the
    call raises BadParameters.
    """
    if g.n < 2:
        raise BadParameters("isoperimetric constant needs at least two vertices")
    if not g.is_connected:
        raise Disconnected("isoperimetric constant needs a connected graph")
    if g.n > cap:
        raise CapExceeded(f"n = {g.n} over isoperimetric cap {cap}")
    deadline = _Deadline()
    n, masks = g.n, g.masks
    m = n - 1
    k = min(m, BETA_CHUNK_BITS)
    order, bounds = _beta_tables(k)
    # the tables hold cut(L) - 2e(L, H), in [-|E|, |E|], and 2|N(v) & L| <= 2k
    dtype = np.int8 if g.edge_count < 128 else np.int16
    first_cut = _cut_table(g, 0, k)[order].astype(dtype)
    cut = first_cut.copy()
    nbr2 = [(2 * np.bitwise_count(order & (masks[v] & ((1 << k) - 1)))).astype(dtype)
            for v in range(k, m)]
    h_cuts = _cut_table(g, k, m - k)
    heads, stops = bounds[:k + 1], bounds.tolist()
    # by t = |T|: the size min(t, n - t) of the S that T stands for (1 at
    # t = 0), and inf at t = 0, where T stands for no S
    t = np.arange(n)
    s_sizes = np.maximum(1, np.minimum(t, n - t))
    empty = np.where(t == 0, math.inf, 0.0)
    groups = np.arange(k + 1)

    best = math.inf
    h_set = 0
    for start in range(0, 1 << (m - k), BETA_BLOCK_STEPS):
        deadline.check()
        steps = np.arange(start, min(start + BETA_BLOCK_STEPS, 1 << (m - k)))
        mins = np.empty((len(steps), k + 1), dtype)
        for row, step in enumerate(steps.tolist()):
            if step:
                i = (step & -step).bit_length() - 1
                h_set ^= 1 << i
                if h_set >> i & 1:
                    cut -= nbr2[i]
                else:
                    cut += nbr2[i]
            np.minimum.reduceat(cut, heads, out=mins[row])
        # each row's H, each group's |T| and least |boundary T|, and the ratios
        h = steps ^ steps >> 1
        t_sizes = np.bitwise_count(h)[:, None] + groups
        totals = np.add(mins, h_cuts[h][:, None], dtype=np.int64)
        den = s_sizes[t_sizes]
        ratios = totals / den + empty[t_sizes]
        pos = int(ratios.argmin())
        if ratios.flat[pos] >= best:
            continue
        best, best_num, best_den = ratios.flat[pos], int(totals.flat[pos]), int(den.flat[pos])
        row, group = divmod(pos, k + 1)
        h_row = int(h[row])
        at = first_cut.copy()
        for i in range(m - k):
            if h_row >> i & 1:
                at -= nbr2[i]
        p = stops[group] + int((at[stops[group]:stops[group + 1]] == mins[row, group]).argmax())
        best_mask = h_row << k | int(order[p])
        if 2 * t_sizes.flat[pos] > n:
            best_mask ^= (1 << n) - 1
    witness = frozenset(v for v in range(n) if best_mask >> v & 1)
    return Fraction(best_num, best_den), witness


def boundary_size(g: Graph, subset) -> int:
    s = set(checked_vertices(g, subset))
    return sum(1 for u in s for w in g.adj[u] if w not in s)


# -- structure operations ---------------------------------------------------------

def product(g: Graph, h: Graph, name: str = "") -> Graph:
    """Cartesian product: (u1,u2) ~ (v1,v2) iff equal in one slot, adjacent in
    the other."""
    def idx(a, b):
        return a * h.n + b

    edges = []
    for u1, v1 in g.edges():
        for a in range(h.n):
            edges.append((idx(u1, a), idx(v1, a)))
    for u2, v2 in h.edges():
        for a in range(g.n):
            edges.append((idx(a, u2), idx(a, v2)))
    return Graph(g.n * h.n, edges, name=name or f"({g.name or 'X'}x{h.name or 'Y'})")


def bipartite_double(g: Graph) -> Graph:
    """Two copies of V; u_black ~ v_white iff u ~ v. Connected iff g is
    non-bipartite."""
    edges = []
    for u, v in g.edges():
        edges.append((u, g.n + v))
        edges.append((v, g.n + u))
    return Graph(2 * g.n, edges, name=f"double({g.name or 'X'})")


def complement(g: Graph) -> Graph:
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    return Graph(g.n, edges, name=f"complement({g.name or 'X'})")


def cone(g: Graph) -> Graph:
    """Add an apex adjacent to every vertex."""
    edges = g.edges() + [(v, g.n) for v in range(g.n)]
    return Graph(g.n + 1, edges, name=f"cone({g.name or 'X'})")


def induced_subgraph(g: Graph, vertices) -> Graph:
    vs = sorted(set(checked_vertices(g, vertices)))
    pos = {v: i for i, v in enumerate(vs)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    labels = [g.labels[v] for v in vs] if g.labels is not None else None
    return Graph(len(vs), edges, labels=labels)


def link_graph(g: Graph, v: int) -> Graph:
    checked_vertices(g, [v])
    return induced_subgraph(g, g.adj[v])


def remove_vertex(g: Graph, v: int) -> Graph:
    checked_vertices(g, [v])
    return induced_subgraph(g, [u for u in range(g.n) if u != v])


def remove_edges(g: Graph, drop) -> Graph:
    """g less the given edges; IndexOutOfRange for a pair that is not an edge
    of g, a loop (u, u) included."""
    drop = list(drop)
    checked_vertices(g, itertools.chain.from_iterable(drop))
    for u, v in drop:
        if not g.has_edge(u, v):
            raise IndexOutOfRange(f"edge {(u, v)} not present")
    dropped = {frozenset(e) for e in drop}
    edges = [e for e in g.edges() if frozenset(e) not in dropped]
    return Graph(g.n, edges, labels=g.labels, name=g.name)


# -- isomorphism -------------------------------------------------------------------

def _signatures(g: Graph, colors) -> list:
    """Each vertex's colour and its neighbours' colour multiset, summed as
    2^(shift * colour): no count reaches 2^shift, so the sum is exact."""
    shift = g.n.bit_length()
    weight = [1 << shift * c for c in colors]
    return [(c, sum(map(weight.__getitem__, row))) for c, row in zip(colors, g.adj)]


def _refine(g: Graph, colors) -> tuple[list[int], list]:
    """1-WL colour refinement of g from colors until a round adds no colour:
    (stable colouring, rounds). Colour ids are assigned by sorted signature;
    each round keeps its palette and sorted colours for _follow."""
    rounds: list = []
    while len(rounds) < 2 or len(rounds[-1][0]) > len(rounds[-2][0]):
        sig = _signatures(g, colors) if rounds else colors
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        colors = [palette[s] for s in sig]
        rounds.append((palette, sorted(colors)))
    return colors, rounds


def _follow(h: Graph, colors, rounds) -> list[int] | None:
    """h's colouring after replaying another graph's refinement rounds from
    colors, or None at the first round whose signature multiset differs. A
    match through the last round, which added no colour, leaves h stable."""
    for i, (palette, multiset) in enumerate(rounds):
        sig = _signatures(h, colors) if i else colors
        colors = list(map(palette.get, sig))
        if None in colors or sorted(colors) != multiset:
            return None
    return colors


def _target_cell(colors) -> list[int] | None:
    """The largest non-singleton colour cell, the earliest of equal size;
    None when the colouring is discrete."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return max((c for c in cells.values() if len(c) > 1), key=len, default=None)


def _individualised(colors, v: int) -> list[int]:
    """colors with v alone in colour n, a fresh one: refined ids are below n."""
    out = list(colors)
    out[v] = len(colors)
    return out


def _search_path(g: Graph) -> list:
    """g's fixed path of (rounds, stable colouring, target cell) levels: the
    first refines the (degree, triangle, K4) counts, each next one the last
    colouring with its cell's first vertex individualised, until discrete."""
    colors, path = g._local_counts, []
    while True:
        colors, rounds = _refine(g, colors)
        path.append((rounds, colors, cell := _target_cell(colors)))
        if cell is None:
            return path
        colors = _individualised(colors, cell[0])


def _iso_search(h: Graph, path, depth: int, ch, deadline: _Deadline):
    """One isomorphism g -> h as a list, or None, once h's colouring ch
    follows g's path from path[depth]. A discrete matched colouring is itself
    the mapping: equal stable colours have equal neighbour colours. Otherwise
    each vertex of h's cell of the level's target colour is individualised."""
    deadline.check()
    rounds, colors, cell = path[depth]
    ch = _follow(h, ch, rounds)
    if ch is None:
        return None
    if cell is None:
        where = {c: w for w, c in enumerate(ch)}
        return [where[c] for c in colors]
    found = (_iso_search(h, path, depth + 1, _individualised(ch, w), deadline)
             for w, c in enumerate(ch) if c == colors[cell[0]])
    return next((mapping for mapping in found if mapping is not None), None)


def is_isomorphic(g: Graph, h: Graph, cap: int = ISO_CAP):
    """(decision, mapping). The mapping sends g-vertices to h-vertices. The
    search starts from (degree, triangle, K4) counts, so different sizes or
    degree sequences fail at h's first round."""
    if g.n > cap or h.n > cap:
        raise CapExceeded(f"isomorphism cap {cap} exceeded")
    mapping = _iso_search(h, _search_path(g), 0, h._local_counts, _Deadline())
    return mapping is not None, mapping


def automorphism_count(g: Graph) -> int:
    """|Aut(g)| by orbit-stabiliser down a base b_1, b_2, ...: the product of
    the orbit lengths of b_i under the stabiliser of b_1..b_{i-1}.

    The base is the individualised vertices of g's search path, taken
    deepest first. A cell member w is in b_i's orbit iff a search finds an
    automorphism extending the level's colouring with b_i -> w. Each one
    found joins the orbits of the points it moves in one union-find kept for
    the whole base: one found at a deeper level fixes b_1..b_{i-1} too, so
    it is in this level's stabiliser. A member joined to b_i needs no
    search, and one joined to a member that failed is skipped.
    """
    if g.n > ISO_CAP:
        raise CapExceeded(f"isomorphism cap {ISO_CAP} exceeded")
    deadline = _Deadline()
    path = _search_path(g)

    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = 1
    for depth in reversed(range(len(path) - 1)):
        _, colors, cell = path[depth]
        v = cell[0]
        failed: list[int] = []
        for w in cell[1:]:
            root = find(w)
            if root == find(v) or any(find(u) == root for u in failed):
                continue
            perm = _iso_search(g, path, depth + 1, _individualised(colors, w), deadline)
            if perm is None:
                failed.append(w)
                continue
            for x, y in enumerate(perm):
                parent[find(x)] = find(y)
        order *= sum(1 for w in cell if find(w) == find(v))
    return order


# -- friendship and universality ------------------------------------------------

def friendship_check(g: Graph):
    """("windmill", blades) when every distinct pair has exactly one common
    neighbour, else ("violation", (u, v, count))."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            c = common_neighbours(g, u, v)
            if c != 1:
                return "violation", (u, v, c)
    return "windmill", (g.n - 1) // 2


class _SmallClasses(FrozenRecord):
    _fields = ("canon_of_code", "class_codes")

    def __init__(self, canon_of_code: tuple[int, ...], class_codes: tuple[int, ...]):
        object.__setattr__(self, "canon_of_code", canon_of_code)
        object.__setattr__(self, "class_codes", class_codes)


@cache
def small_graph_classes(k: int) -> _SmallClasses:
    pairs = list(itertools.combinations(range(k), 2))
    nbits = len(pairs)
    perms = list(itertools.permutations(range(k)))

    def apply_perm(code: int, perm) -> int:
        out = 0
        for b, (i, j) in enumerate(pairs):
            if code >> b & 1:
                pi, pj = perm[i], perm[j]
                if pi > pj:
                    pi, pj = pj, pi
                out |= 1 << pairs.index((pi, pj))
        return out

    canon = []
    for code in range(1 << nbits):
        canon.append(min(apply_perm(code, p) for p in perms))
    return _SmallClasses(tuple(canon), tuple(sorted(set(canon))))


def contains_all_small_graphs(g: Graph, k: int) -> bool:
    """True iff every isomorphism class of graphs on k vertices occurs as an
    induced subgraph; exhaustive scan over k-subsets, k <= 4."""
    if k < 0:
        raise BadParameters(f"small-graph scan needs k >= 0, got {k}")
    if k > 4:
        raise CapExceeded("small-graph scan implemented for k <= 4")
    cls = small_graph_classes(k)
    pairs = list(itertools.combinations(range(k), 2))
    need = set(cls.class_codes)
    masks = g.masks
    for subset in itertools.combinations(range(g.n), k):
        code = 0
        for b, (i, j) in enumerate(pairs):
            if masks[subset[i]] >> subset[j] & 1:
                code |= 1 << b
        need.discard(cls.canon_of_code[code])
        if not need:
            return True
    return False


# -- invariant report --------------------------------------------------------------

class InvariantReport(Record):
    _fields = ("graph", "diameter", "girth", "chromatic", "independence", "clique",
               "isoperimetric", "iso_witness", "skipped")

    def __init__(self, graph: Graph, diameter: int | None,
                 girth: float | None,  # math.inf sentinel for forests
                 chromatic: int | None, independence: int | None, clique: int | None,
                 isoperimetric: Fraction | None, iso_witness: frozenset | None,
                 skipped: list[str] | None = None):
        self.graph = graph
        self.diameter = diameter
        self.girth = girth
        self.chromatic = chromatic
        self.independence = independence
        self.clique = clique
        self.isoperimetric = isoperimetric
        self.iso_witness = iso_witness
        self.skipped = [] if skipped is None else skipped

    def to_json(self) -> dict:
        def frac(x):
            return None if x is None else {"num": x.numerator, "den": x.denominator}

        g = self.graph
        return {
            "name": g.name,
            "n": g.n,
            "edges": g.edge_count,
            "degree": {"min": g.min_degree, "max": g.max_degree,
                       "avg": frac(g.average_degree)},
            "diameter": self.diameter,
            "girth": ("inf" if self.girth == INF else self.girth),
            "bipartite": g.is_bipartite,
            "chromatic": self.chromatic,
            "independence": self.independence,
            "clique": self.clique,
            "isoperimetric": frac(self.isoperimetric),
            "isoperimetric_witness": (sorted(self.iso_witness)
                                      if self.iso_witness is not None else None),
            "connected": g.is_connected,
            "skipped": self.skipped,
        }


def invariant_report(g: Graph, chi_cap: int = CHI_CAP, beta_cap: int = BETA_CAP) -> InvariantReport:
    """All invariants at once; capped engines record a skip instead of failing."""
    skipped: list[str] = []

    def guarded(label, fn):
        try:
            return fn()
        except CapExceeded:
            skipped.append(label)
            return None

    diam, gir = basic_metrics(g)
    # omega and alpha, each searched once, give chi's lower bound; skips keep
    # report order
    omega = guarded("clique", lambda: clique_number(g, cap=chi_cap))
    iota = guarded("independence", lambda: independence_number(g, cap=chi_cap))
    chi = guarded("chromatic", lambda: _chromatic_number(g, chi_cap, omega, iota))
    skipped.sort(key=("chromatic", "independence", "clique").index)
    beta_pair = None
    if g.n < 2:
        skipped.append("isoperimetric (one vertex)")
    elif not g.is_connected:
        skipped.append("isoperimetric (disconnected)")
    else:
        beta_pair = guarded("isoperimetric", lambda: isoperimetric_constant(g, cap=beta_cap))
    beta, witness = beta_pair or (None, None)
    return InvariantReport(
        graph=g,
        diameter=diam,
        girth=gir,
        chromatic=chi,
        independence=iota,
        clique=omega,
        isoperimetric=beta,
        iso_witness=witness,
        skipped=skipped,
    )
