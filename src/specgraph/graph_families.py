"""Deterministic constructors for the named graph families, plus the
strongly-regular / design / partial-design classifiers.

The family catalogue is exposed through ``build(name, *params)``; vertex
labellings follow the canonical field/group element enumerations so repeated
runs produce identical graphs.
"""

from __future__ import annotations

import inspect
import itertools
import math
from functools import cache

import numpy as np

from .errors import (
    BadParameters,
    ContainsIdentity,
    FrozenRecord,
    IdentityViolated,
    NotDesign,
    NotGenerating,
    NotPartialDesign,
    NotRegular,
    NotSymmetric,
    SizeOverflow,
)
from .finite_field import (
    FieldSpec,
    field,
    subfield_embedding,
)
from . import groups
from .graph_core import ADJACENCY_CAP, GROUP_LABELS, Graph, common_neighbours, k4_at

# -- Cayley and bi-Cayley graphs over products of cyclic groups ------------------

DECIMAL_DIGITS = 40  # a refusal writes a longer number as a power of 2


def _decimal(n: int) -> str:
    """n in decimal or, past DECIMAL_DIGITS digits, as at least a power of 2."""
    if n < 10**DECIMAL_DIGITS:
        return str(n)
    return f"at least 2^{n.bit_length() - 1}"


def _check_size(order: int, count: int) -> None:
    """SizeOverflow for a translate table of more than ADJACENCY_CAP entries."""
    if order * max(count, 1) > ADJACENCY_CAP:
        raise SizeOverflow(f"group of order {_decimal(order)} with {_decimal(count)} "
                           f"elements exceeds {ADJACENCY_CAP} adjacency entries")


def _check_edges(count: int) -> None:
    """SizeOverflow for an edge list of more than ADJACENCY_CAP adjacency
    entries, from its edge count (or a bound past the cap) before any edge
    is built."""
    if 2 * count > ADJACENCY_CAP:
        raise SizeOverflow(f"more than {ADJACENCY_CAP // 2} edges exceed "
                           f"{ADJACENCY_CAP} adjacency entries")


def _power_of_two(m: int) -> int:
    """2^m for _check_size, or 2^ADJACENCY_CAP past it, refused all the same."""
    return 1 << min(m, ADJACENCY_CAP)


def _group_orders(orders) -> tuple[int, ...]:
    """The group orders as ints; BadParameters unless each is an integer >= 1."""
    orders = tuple(orders)
    if not all(isinstance(m, (int, np.integer)) for m in orders):
        raise BadParameters(f"group orders must be integers, got {orders!r}")
    orders = tuple(map(int, orders))
    if min(orders, default=1) < 1:
        raise BadParameters(f"group orders must be at least 1, got {orders}")
    return orders


def _reduced(orders, elements) -> tuple[tuple[int, ...], np.ndarray]:
    """The group orders and the sorted indices of the distinct elements
    reduced mod them, the elements read once; BadParameters for orders that
    _group_orders refuses or an element without one integer coordinate per
    order, SizeOverflow for a table of more than ADJACENCY_CAP entries."""
    orders = _group_orders(orders)
    # object dtype, so that a coordinate of any size is reduced exactly
    coords = np.array(list(elements), dtype=object)
    if len(coords) and coords.shape[1:] != (len(orders),):
        raise BadParameters(f"each element needs one coordinate per order of {orders}")
    bad = [x for x in coords.flat if not isinstance(x, (int, np.integer))]
    if bad:
        raise BadParameters(f"coordinates must be integers, got {bad[0]!r}")
    coords = coords.reshape(len(coords), len(orders)) % np.array(orders, dtype=object)
    if math.prod(orders) > ADJACENCY_CAP:
        # refused at any count, and an index may not fit int64
        _check_size(math.prod(orders), len(set(map(tuple, coords.tolist()))))
    idx = np.sort(groups.indices(orders, coords.astype(np.int64)))
    return orders, np.concatenate((idx[:1], idx[1:][idx[1:] != idx[:-1]]))


def _cayley_indexed(orders, gens, name: str, labels) -> Graph:
    """cayley on the indices of its distinct generators, in any order; a
    range is sized before its indices are made."""
    _check_size(math.prod(orders), len(gens))
    gens = np.sort(np.asarray(gens, dtype=np.int64))
    if len(gens) and gens[0] == 0:
        raise ContainsIdentity("generating set contains the identity")
    coords = groups.digits(orders, gens)
    inverses = groups.indices(orders, -coords % np.array(orders, dtype=np.int64))
    # the least generator at or past each inverse, which is the inverse iff it
    # is a generator; past the last one, gens[0] < the inverse stands in
    lacking = np.flatnonzero(gens[np.searchsorted(gens, inverses) % max(len(gens), 1)]
                             != inverses)
    if lacking.size:
        raise NotSymmetric(f"generator {tuple(coords[lacking[0]].tolist())} lacks its inverse")
    if not groups.generates(orders, gens):
        raise NotGenerating("subset does not generate the group")
    return Graph.from_group(groups.Group(orders, tuple(gens.tolist())), labels=labels,
                            name=name or f"cayley{orders}")


def cayley(orders, generators, name: str = "", labels=GROUP_LABELS) -> Graph:
    """Cayley graph of a product of cyclic groups w.r.t. a symmetric,
    identity-free, generating subset.  Vertex i is group element i, labelled
    with its tuple unless ``labels`` is given (None: unlabelled).  A
    generator that lacks its inverse is named, the least such."""
    return _cayley_indexed(*_reduced(orders, generators), name, labels)


def bi_cayley(orders, subset, name: str = "", labels=GROUP_LABELS) -> Graph:
    """Bi-Cayley graph: two copies of the group, g_black ~ h_white iff
    h - g lies in the subset.  Connected iff the difference set generates.
    Vertices i and n + i are group element i; ``labels`` works as in
    ``cayley``."""
    return _bi_cayley_indexed(*_reduced(orders, subset), name, labels)


def _bi_cayley_indexed(orders, idx, name: str, labels) -> Graph:
    """bi_cayley on the indices of its distinct elements, in any order."""
    _check_size(math.prod(orders), len(idx))
    idx = np.sort(np.asarray(idx, dtype=np.int64))
    coords = groups.digits(orders, idx)
    # S - S generates the same subgroup as S - s0 for any s0 in S
    if not len(idx) or not groups.generates(orders, groups.indices(
            orders, (coords - coords[0]) % np.array(orders, dtype=np.int64))):
        raise NotGenerating("S - S does not generate; bi-Cayley graph disconnected")
    return Graph.from_group(groups.Group(orders, tuple(idx.tolist()), bi=True),
                            labels=labels, name=name or f"bicayley{orders}")


# -- elementary families ----------------------------------------------------------

# family: (the least value of each size parameter, the refusal below it); the
# builder and the family's closed form in spectra both check it
LEAST_SIZE = {
    "complete": (2, "complete graph needs n >= 2"),
    "cycle": (3, "cycle needs n >= 3"),
    "path": (2, "path needs n >= 2"),
    "star": (3, "star needs n >= 3"),
    "wheel": (4, "wheel needs n >= 4"),
    "windmill": (1, "windmill needs k >= 1"),
    "complete_bipartite": (1, "complete bipartite needs m, n >= 1"),
    "cube": (1, "cube needs n >= 1"),
    "halved_cube": (3, "halved cube needs n >= 3"),
    "sum_product": (3, "sum-product graph needs q >= 3"),
    "full_sum_product": (2, "full sum-product graph needs q >= 2"),
}


def check_size(family: str, *sizes: int) -> None:
    """BadParameters unless each size reaches the family's least value."""
    least, refusal = LEAST_SIZE[family]
    if min(sizes) < least:
        raise BadParameters(refusal)


def complete(n: int) -> Graph:
    check_size("complete", n)
    return _cayley_indexed((n,), range(1, n), f"K_{n}", None)


def cycle(n: int) -> Graph:
    check_size("cycle", n)
    return _cayley_indexed((n,), (1, n - 1), f"C_{n}", None)


def path(n: int) -> Graph:
    check_size("path", n)
    _check_edges(n - 1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P_{n}")


def star(n: int) -> Graph:
    """Star on n vertices: centre 0 plus n-1 leaves."""
    check_size("star", n)
    _check_edges(n - 1)
    return Graph(n, [(0, i) for i in range(1, n)], name=f"star_{n}")


def wheel(n: int) -> Graph:
    """Wheel on n vertices: hub 0 joined to the cycle 1..n-1."""
    check_size("wheel", n)
    _check_edges(2 * (n - 1))
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return Graph(n, rim + [(0, i) for i in range(1, n)], name=f"wheel_{n}")


def windmill(k: int) -> Graph:
    """k triangle blades glued at the hub 0."""
    check_size("windmill", k)
    _check_edges(3 * k)
    edges = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph(2 * k + 1, edges, name=f"windmill_{k}")


def complete_bipartite(m: int, n: int) -> Graph:
    check_size("complete_bipartite", m, n)
    _check_edges(m * n)
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    return Graph(m + n, edges, name=f"K_{m},{n}")


def cube(n: int) -> Graph:
    check_size("cube", n)
    _check_size(_power_of_two(n), n)
    return _cayley_indexed((2,) * n, [1 << i for i in range(n)], f"Q_{n}", GROUP_LABELS)


def halved_cube(n: int) -> Graph:
    """Even-weight binary strings of length n, joined when they differ in two
    slots; realized on (Z_2)^(n-1) by dropping the parity coordinate."""
    check_size("halved_cube", n)
    _check_size(_power_of_two(n - 1), n * (n - 1) // 2)
    # weight one (i == j) and weight two
    gens = [1 << i | 1 << j for i in range(n - 1) for j in range(i, n - 1)]
    return _cayley_indexed((2,) * (n - 1), gens, f"halfQ_{n}", GROUP_LABELS)


def decked_cube_extra(n: int, extra: tuple[int, ...] | str) -> tuple[int, ...]:
    """The extra generator of decked_cube(n, extra) as a bit tuple;
    BadParameters unless it is n bits (0, 1, "0" or "1") of weight >= 2."""
    try:
        bits = tuple(("0", "1").index(str(b)) for b in extra)
    except (TypeError, ValueError):
        raise BadParameters(f"extra generator must be bits, got {extra!r}") from None
    if len(bits) != n or sum(bits) < 2:
        raise BadParameters("extra generator must have length n and weight >= 2")
    return bits


def decked_cube(n: int, extra: tuple[int, ...] | str) -> Graph:
    """Q_n plus the extra generator, given as bits or as a bit string such as
    "011"; the generator must have weight >= 2."""
    bits = "".join(map(str, decked_cube_extra(n, extra)))
    _check_size(_power_of_two(n), n + 1)
    gens = [1 << i for i in range(n)] + [int(bits, 2)]
    return _cayley_indexed((2,) * n, gens, f"DQ_{n}{bits}", GROUP_LABELS)


def petersen() -> Graph:
    """2-element subsets of a 5-set, adjacent when disjoint."""
    verts = list(itertools.combinations(range(5), 2))
    edges = [(i, j) for i, j in itertools.combinations(range(10), 2)
             if not set(verts[i]) & set(verts[j])]
    return Graph(10, edges, labels=[str(v) for v in verts], name="petersen")


def check_tree(d: int, radius: int, kind: str = "T") -> None:
    """BadParameters unless tree(d, radius, kind) is defined."""
    if d < 2 or radius < 1 or kind not in ("T", "Tt"):
        raise BadParameters("tree needs d >= 2, radius >= 1, kind in {T, Tt}")


def tree(d: int, radius: int, kind: str = "T") -> Graph:
    """Radially regular tree: root degree d-1 for kind "T", d for kind "Tt";
    intermediate vertices have degree d, pendants sit at the given radius."""
    check_tree(d, radius, kind)
    first = d - 1 if kind == "T" else d
    # one edge per vertex past the root; past d = 2, 25 levels pass the cap
    _check_edges(first * radius if d == 2 else
                 sum(first * (d - 1) ** r for r in range(min(radius, ADJACENCY_CAP.bit_length()))))
    edges = []
    level = [0]
    next_id = 1
    for r in range(radius):
        new_level = []
        for v in level:
            children = (d - 1) if (r > 0 or kind == "T") else d
            for _ in range(children):
                edges.append((v, next_id))
                new_level.append(next_id)
                next_id += 1
        level = new_level
    name = f"T_{d},{radius}" if kind == "T" else f"Tt_{d},{radius}"
    return Graph(next_id, edges, name=name)


# -- A-D-E diagrams ----------------------------------------------------------------


def ade(kind: str, n: int = 0) -> Graph:
    """Simply-laced diagrams: A_n path, D_n fork, E6/E7/E8."""
    _check_edges(n - 1)
    kind = kind.upper()
    if kind == "A":
        if n < 1:
            raise BadParameters("A_n needs n >= 1")
        return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"ADE_A{n}")
    if kind == "D":
        if n < 4:
            raise BadParameters("D_n needs n >= 4")
        edges = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 1)]
        return Graph(n, edges, name=f"ADE_D{n}")
    if kind == "E":
        if n not in (6, 7, 8):
            raise BadParameters("E_n needs n in {6,7,8}")
        # path 0-1-...-(n-2), extra vertex n-1 hanging off position 2
        edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
        return Graph(n, edges, name=f"ADE_E{n}")
    raise BadParameters(f"unknown A-D-E kind {kind!r}")


def extended_ade(kind: str, n: int = 0) -> Graph:
    """Extended diagrams, one more node; all have largest adjacency
    eigenvalue exactly 2."""
    _check_edges(n)
    kind = kind.upper()
    if kind == "A":
        if n < 2:
            raise BadParameters("extended A_n needs n >= 2")
        return _cayley_indexed((n + 1,), (1, n), f"ADE_extA{n}", None)
    if kind == "D":
        if n < 4:
            raise BadParameters("extended D_n needs n >= 4")
        # horns 0,1 at vertex 2; path 2..n-2; horns n-1, n at vertex n-2
        edges = [(0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 2)]
        edges += [(n - 2, n - 1), (n - 2, n)]
        return Graph(n + 1, edges, name=f"ADE_extD{n}")
    if kind == "E":
        if n == 6:
            # E6 plus one node extending the short leg: legs 2,2,2 around centre
            edges = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]
            return Graph(7, edges, name="ADE_extE6")
        if n == 7:
            # legs 3,3,1 around the branch vertex: path on 7 nodes, horn at centre
            edges = [(i, i + 1) for i in range(6)] + [(3, 7)]
            return Graph(8, edges, name="ADE_extE7")
        if n == 8:
            # legs 5,2,1 around the branch vertex: path on 8 nodes, horn at node 2
            edges = [(i, i + 1) for i in range(7)] + [(2, 8)]
            return Graph(9, edges, name="ADE_extE8")
    raise BadParameters(f"unknown extended A-D-E kind {kind!r}")


# -- field-based families -------------------------------------------------------------


def _nonzero_squares(spec: FieldSpec) -> tuple[tuple[int, ...], np.ndarray]:
    """(F, +) as (Z_p)^d, and the indices of its non-zero squares, the even
    powers of the generator; group element i is field element i, its
    coefficients top-first its coordinates."""
    return (spec.p,) * spec.d, np.asarray(spec.tables[0])[0::2]


def paley_field(q: int) -> FieldSpec:
    """GF(q) for paley(q), sized before q is factored; BadParameters unless
    q = 1 mod 4 is a prime power."""
    _check_size(q, (q - 1) // 2)
    if q % 4 != 1:
        raise BadParameters("Paley graph needs q = 1 mod 4")
    return field(q)


def paley(q: int) -> Graph:
    """Cayley graph of (F, +) on the non-zero squares; q = 1 mod 4."""
    orders, squares = _nonzero_squares(paley_field(q))
    return _cayley_indexed(orders, squares, f"paley_{q}", list(map(str, range(q))))


def bi_paley_field(q: int) -> FieldSpec:
    """GF(q) for bi_paley(q), sized before q is factored; BadParameters unless
    q = 3 mod 4 is a prime power above 3."""
    _check_size(q, (q - 1) // 2)
    if q % 4 != 3:
        raise BadParameters("bi-Paley graph needs q = 3 mod 4")
    if q == 3:
        raise BadParameters("BP(3) is a degenerate disjoint union")
    return field(q)


def bi_paley(q: int) -> Graph:
    """Bi-Cayley graph of (F, +) on the non-zero squares; q = 3 mod 4."""
    orders, squares = _nonzero_squares(bi_paley_field(q))
    return _bi_cayley_indexed(orders, squares, f"bipaley_{q}", None)


def incidence_fields(n: int, q: int) -> tuple[FieldSpec, FieldSpec]:
    """GF(q^n) and GF(q) for incidence(n, q), sized before q is factored: past
    n = 25, q^(n - 1) alone passes the cap.  BadParameters unless n >= 3 and
    q is a prime power."""
    if q >= 2 and n >= 3:
        if n > ADJACENCY_CAP.bit_length():
            raise SizeOverflow(f"incidence graph over {ADJACENCY_CAP} adjacency entries")
        _check_size((q**n - 1) // (q - 1), (q ** (n - 1) - 1) // (q - 1))  # the trace-zero classes
    if n < 3:
        raise BadParameters("incidence graph needs n >= 3")
    return field(q**n), field(q)


def _singer(n: int, q: int):
    """The embedding of F = GF(q) in K = GF(q^n), the order m of the cyclic
    group K*/F*, and the j in Z_m with Tr g^j = 0, g the generator of K, in
    ascending order."""
    big, base = incidence_fields(n, q)
    m = (q**n - 1) // (q - 1)
    emb = subfield_embedding(big, base)
    return emb, m, np.flatnonzero(emb.power_traces(np.arange(m)) == 0)


def incidence(n: int, q: int) -> Graph:
    """Incidence graph of 1-spaces vs (n-1)-spaces of GF(q)^n, realized as the
    bi-Cayley graph of the cyclic group K*/F* over the trace-zero subset."""
    _, m, subset = _singer(n, q)
    return _bi_cayley_indexed((m,), subset, f"I_{n}({q})", GROUP_LABELS)


def _projective(spec: FieldSpec, vec_indices) -> tuple[int, ...] | None:
    """The coordinate indices scaled so that the first non-zero entry is 1;
    None for the zero vector."""
    elems = [spec.element(i) for i in vec_indices]
    lead = next((e for e in elems if not e.is_zero()), None)
    return None if lead is None else tuple((e / lead).index for e in elems)


def incidence_points(n: int, q: int) -> Graph:
    """Coordinate picture of the incidence graph: two copies of the projective
    points of GF(q)^n, joined when orthogonal under the standard scalar
    product.  Labels carry the normalized coordinates (used by the
    sum-product application).  It is incidence(n, q) relabelled: in the basis
    1, g, ..., g^(n-1) of K over F, white vertex j is the point y with
    sum y_k g^k in g^j F* and black vertex i the point (Tr g^(k-i))_k, whose
    scalar product is a unit times Tr g^(j-i)."""
    emb, m, subset = _singer(n, q)
    spec, g = emb.base, emb.big.generator()
    unlift = {emb.lift(a).index: a.index for a in spec.elements()}
    # row i, column k: the trace of g^(k - i)
    traces = emb.power_traces(np.arange(n) - np.arange(m)[:, None])
    black = [_projective(spec, [unlift[t] for t in row]) for row in traces.tolist()]
    white = [None] * m
    # the normalised points: zeros, the one (index 1) at the lead, then any tail
    for lead in range(n):
        for tail in itertools.product(range(q), repeat=n - 1 - lead):
            y = (0,) * lead + (1,) + tail
            point = sum((emb.lift(spec.element(c)) * g**k for k, c in enumerate(y)), emb.big.zero)
            white[point.log() % m] = y
    labels = [f"{v}b" for v in black] + [f"{v}w" for v in white]
    return _bi_cayley_indexed((m,), subset, f"I_{n}({q})pts", labels)


def incidence_point_index(graph: Graph, vec_indices: tuple[int, ...], q: int, side: str) -> int:
    """Vertex id of the projective point with the given coordinate indices on
    the "black" or "white" side; BadParameters for the zero vector, any other
    side, a graph whose order is not that of I_n(q) for n = len(vec_indices),
    or a point that the graph does not label."""
    normal = _projective(field(q), vec_indices)
    if normal is None:
        raise BadParameters("the zero vector is not a projective point")
    n = len(vec_indices)
    if graph.n != 2 * (q**n - 1) // (q - 1):
        raise BadParameters(f"{graph.name} has {graph.n} vertices, not those of I_{n}({q})")
    if side not in ("black", "white"):
        raise BadParameters(f"side must be 'black' or 'white', got {side!r}")
    vertex = graph.vertex_of_label.get(f"{normal}{side[0]}")
    if vertex is None:
        raise BadParameters(f"{graph.name} has no {side} vertex labelled {normal} over GF({q})")
    return vertex


def sum_product_field(q: int, lo: int) -> FieldSpec:
    """GF(q) for the sum-product graph on F x X, X the elements of index >= lo,
    sized by its edges (a, x, y) before q is factored."""
    _check_edges(q * (q - lo) ** 2)
    return field(q)


def _sum_product(q: int, lo: int, name: str) -> Graph:
    """Bipartite graph on two copies of F x X, X the elements of index >= lo
    (F for lo = 0, F* for lo = 1): (a,x) ~ (b,y) iff a + b = xy."""
    spec = sum_product_field(q, lo)
    xs = [spec.element(i) for i in range(lo, q)]
    w = len(xs)
    m = q * w
    edges = []
    for a in spec.elements():
        for x in xs:
            for y in xs:
                b = x * y - a
                edges.append((a.index * w + x.index - lo, m + b.index * w + y.index - lo))
    return Graph(2 * m, edges, name=name)


def sum_product(q: int) -> Graph:
    """Bipartite graph on two copies of F x F*: (a,x) ~ (b,y) iff a + b = xy."""
    check_size("sum_product", q)
    return _sum_product(q, 1, f"SP_{q}")


def full_sum_product(q: int) -> Graph:
    """Bipartite graph on two copies of F x F: (a,x) ~ (b,y) iff a + b = xy."""
    check_size("full_sum_product", q)
    return _sum_product(q, 0, f"FSP_{q}")


# -- individual graphs ------------------------------------------------------------------


def shrikhande() -> Graph:
    return cayley((4, 4), [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)], name="shrikhande")


def rook(n: int = 4) -> Graph:
    check_size("complete", n)
    _check_size(n * n, 2 * (n - 1))
    # (0, a) and (a, 0) for a != 0
    return _cayley_indexed((n, n), [*range(1, n), *range(n, n * n, n)], f"rook_{n}", None)


def rook_twin() -> Graph:
    """K_4 x K_4 as a Cayley graph of Z_4 x Z_4 (the Shrikhande twin)."""
    return cayley((4, 4), [(1, 0), (3, 0), (0, 1), (0, 3), (2, 0), (0, 2)], name="rook_twin")


def andrasfai(n: int) -> Graph:
    if n < 2:
        raise BadParameters("Andrasfai graph needs n >= 2")
    return _cayley_indexed((3 * n - 1,), range(1, 3 * n - 1, 3), f"andrasfai_{n}", GROUP_LABELS)


def heawood() -> Graph:
    return bi_cayley((7,), [(1,), (2,), (4,)], name="heawood")


def tutte_coxeter() -> Graph:
    """Edges of K_6 vs perfect matchings of K_6, joined by containment."""
    k6_edges = list(itertools.combinations(range(6), 2))
    matchings = []
    for triple in itertools.combinations(k6_edges, 3):
        if len({v for e in triple for v in e}) == 6:
            matchings.append(frozenset(triple))
    edges = []
    for i, e in enumerate(k6_edges):
        for j, m in enumerate(matchings):
            if e in m:
                edges.append((i, 15 + j))
    labels = [str(e) for e in k6_edges] + [f"m{j}" for j in range(len(matchings))]
    return Graph(30, edges, labels=labels, name="tutte_coxeter")


def frucht() -> Graph:
    chords = [(0, 2), (4, 6), (7, 9), (3, 11), (5, 10), (1, 8)]
    edges = [(i, (i + 1) % 12) for i in range(12)] + chords
    return Graph(12, edges, name="frucht")


def machine_orders(orders) -> tuple[int, ...]:
    """The group orders of machine(orders) as ints; BadParameters unless each
    is at least 1 and |G| >= 3."""
    orders = _group_orders(orders)
    if math.prod(orders) < 3:
        raise BadParameters("machine construction needs |G| >= 3")
    return orders


def machine(orders) -> Graph:
    """The strongly-regular 'machine': Cayley graph of G x G over
    {(s,0), (0,s), (s,s) : s != 0} for an abelian G of size n; parameters are
    (n^2, 3n-3, n, 6)."""
    orders = machine_orders(orders)
    n = math.prod(orders)
    # (0, s), (s, 0) and (s, s) for s != 0, sized first: past the cap an index may not fit int64
    _check_size(n * n, 3 * (n - 1))
    gens = np.arange(1, n) * np.array([[1], [n], [n + 1]])
    return _cayley_indexed(orders * 2, gens.ravel(), f"machine_{'x'.join(map(str, orders))}",
                           GROUP_LABELS)


def order2_count(orders) -> int:
    """Number of order-2 elements in the product of cyclic groups."""
    return math.prod(2 if m % 2 == 0 else 1 for m in orders) - 1


def machine_order2_census(g: Graph) -> int:
    """Recover the order-2 count of the underlying group from the graph alone:
    bridge-type triangles in a link, i.e. link triangles minus the island
    contribution 3 * C(n-1, 3)."""
    n = math.isqrt(g.n)
    if n * n != g.n:
        raise BadParameters("not a machine graph: size is not a square")
    islands = 3 * math.comb(n - 1, 3)
    return k4_at(g, 0) - islands


def small_diameter_x(k: int) -> Graph:
    """3-regular small-diameter family: the tree Tt_{3,k} with every pendant
    4-tuple (grouped by grandparent) closed into a 4-cycle."""
    if k < 3:
        raise BadParameters("small-diameter family needs k >= 3")
    t = tree(3, k, kind="Tt")
    # tree numbers the vertices level by level, so the 3 * 2^(k-1) pendants
    # come last, each grandparent's four at consecutive ids, sibling pairs first
    extra = [(v + i, v + (i + 1) % 4) for v in range(t.n - 3 * 2 ** (k - 1), t.n, 4)
             for i in range(4)]
    return Graph(t.n, t.edges() + extra, name=f"smalldiam_{k}")


# -- regularity classifiers --------------------------------------------------------------


class SrgParams(FrozenRecord):
    _fields = ("n", "d", "a", "c")

    def __init__(self, n: int, d: int, a: int, c: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        if d * (d - a - 1) != (n - d - 1) * c:
            raise IdentityViolated(f"srg identity fails for {self}")


class DesignParams(FrozenRecord):
    _fields = ("m", "d", "c")

    def __init__(self, m: int, d: int, c: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "c", c)
        if not 0 <= c <= d or c * (m - 1) != d * (d - 1):
            raise IdentityViolated(f"{self} fails 0 <= c <= d or c(m - 1) = d(d - 1)")


class PartialDesignParams(FrozenRecord):
    _fields = ("m", "d", "c1", "c2")

    def __init__(self, m: int, d: int, c1: int, c2: int):
        if c1 == c2:
            raise IdentityViolated("partial design needs two distinct counts")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)


def classify_regular(g: Graph):
    """("complete", None) | ("srg", SrgParams) | ("design", DesignParams) |
    ("partial_design", PartialDesignParams) | ("not_sr", witness)."""
    if not g.is_regular:
        raise NotRegular("classification needs a regular graph")
    d = g.max_degree
    bip = g.bipartition
    if bip is None:
        adj_counts = set()
        non_counts = set()
        for u in range(g.n):
            for v in range(u + 1, g.n):
                c = common_neighbours(g, u, v)
                (adj_counts if g.has_edge(u, v) else non_counts).add(c)
        if not non_counts:
            return "complete", None
        if len(adj_counts) == 1 and len(non_counts) == 1:
            return "srg", SrgParams(g.n, d, adj_counts.pop(), non_counts.pop())
        return "not_sr", {"adjacent_counts": sorted(adj_counts),
                          "nonadjacent_counts": sorted(non_counts)}
    black, white = bip
    if len(black) != len(white):
        return "not_sr", {"unbalanced_sides": (len(black), len(white))}
    counts = set()
    for side in (black, white):
        side = sorted(side)
        for u, v in itertools.combinations(side, 2):
            counts.add(common_neighbours(g, u, v))
    if len(counts) == 1:
        return "design", DesignParams(g.n // 2, d, counts.pop())
    if len(counts) == 2:
        c1, c2 = sorted(counts)
        return "partial_design", PartialDesignParams(g.n // 2, d, c1, c2)
    return "not_sr", {"same_colour_counts": sorted(counts)}


def c1_graph(g: Graph, c1: int) -> Graph:
    """Derived graph of a partial design: black vertices, edges where the
    common-neighbour count is exactly c1.  Possibly disconnected."""
    kind, params = classify_regular(g)
    if kind != "partial_design":
        raise NotPartialDesign(f"classification is {kind}")
    if c1 not in (params.c1, params.c2):
        raise NotPartialDesign(f"{c1} not among the counts {params.c1}, {params.c2}")
    black = sorted(g.bipartition[0])
    pos = {v: i for i, v in enumerate(black)}
    edges = [(pos[u], pos[v]) for u, v in itertools.combinations(black, 2)
             if common_neighbours(g, u, v) == c1]
    labels = [g.labels[v] for v in black] if g.labels is not None else None
    return Graph(len(black), edges, labels=labels, name=f"c1graph({g.name})")


def c1_graph_degree(params: PartialDesignParams, c1: int) -> int:
    """Predicted degree of the c1-graph."""
    c2 = params.c2 if c1 == params.c1 else params.c1
    num = params.d * (params.d - 1) - (params.m - 1) * c2
    if num % (c1 - c2):
        raise IdentityViolated(f"{c1}-graph degree {num}/{c1 - c2} of {params} is not an integer")
    return num // (c1 - c2)


def bp_determination(g: Graph) -> bool:
    """Whether same-colour vertex pairs of a design graph are determined by
    their common neighbours: no three same-colour vertices share an identical
    full common-neighbour set of size c."""
    kind, params = classify_regular(g)
    if kind != "design":
        raise NotDesign(f"classification is {kind}")
    for side in g.bipartition:
        side = sorted(side)
        for u, v, w in itertools.combinations(side, 3):
            if (g.masks[u] & g.masks[v] & g.masks[w]).bit_count() == params.c:
                return False
    return True


# -- registry -----------------------------------------------------------------------------

def _parse_tuple(text) -> tuple[int, ...]:
    text = str(text)
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        shown = text if len(text) <= 40 else text[:40] + "..."
        raise BadParameters(f"expected comma-separated integers, got {shown!r} "
                            f"({len(text)} characters)") from None


def _parse_tuple_list(text) -> list[tuple[int, ...]]:
    return [_parse_tuple(part) for part in str(text).split(";") if part]


def _machine(*orders: int) -> Graph:
    return machine(orders)


# raw group constructions: orders as "4,4", elements as "1,0;3,0;..."
def _cayley(orders: str, generators: str) -> Graph:
    return cayley(_parse_tuple(orders), _parse_tuple_list(generators))


def _bi_cayley(orders: str, subset: str) -> Graph:
    return bi_cayley(_parse_tuple(orders), _parse_tuple_list(subset))


FAMILY_BUILDERS = {
    "complete": complete,
    "cycle": cycle,
    "path": path,
    "star": star,
    "wheel": wheel,
    "windmill": windmill,
    "complete_bipartite": complete_bipartite,
    "cube": cube,
    "halved_cube": halved_cube,
    "decked_cube": decked_cube,
    "petersen": petersen,
    "tree": tree,
    "ade": ade,
    "extended_ade": extended_ade,
    "paley": paley,
    "bi_paley": bi_paley,
    "incidence": incidence,
    "sum_product": sum_product,
    "full_sum_product": full_sum_product,
    "shrikhande": shrikhande,
    "rook": rook,
    "rook_twin": rook_twin,
    "andrasfai": andrasfai,
    "heawood": heawood,
    "tutte_coxeter": tutte_coxeter,
    "frucht": frucht,
    "machine": _machine,
    "small_diameter_x": small_diameter_x,
    "cayley": _cayley,
    "bi_cayley": _bi_cayley,
}


def _as_int(value, family: str, name: str) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, str) and value.removeprefix("-").isdecimal():
        try:
            return int(value)
        except ValueError:  # more digits than Python reads
            raise BadParameters(f"{family}: {name} has {len(value)} digits, too many") from None
    raise BadParameters(f"{family}: {name} must be an integer, got {value!r}")


@cache
def _signature(builder) -> inspect.Signature:
    return inspect.signature(builder, eval_str=True)


def parse_source(source: str, *params) -> tuple[str, list]:
    """Split a family spec "family:a,b" into the family name and its
    arguments, the packed ones first and then params.  Arguments are typed by
    the builder's signature: a parameter annotated int takes an int or its
    decimal text, any other is passed as given (so the bit string "011" keeps
    its leading zero).  A wrong argument count raises BadParameters; an
    unknown family comes back with its arguments untyped."""
    family, _, packed = source.partition(":")
    args = [p for p in packed.split(",") if p] + list(params)
    builder = FAMILY_BUILDERS.get(family)
    if builder is None:
        return family, args
    sig = _signature(builder)
    try:
        bound = sig.bind(*args)
    except TypeError as exc:
        usage = ", ".join(map(str, sig.parameters.values()))
        raise BadParameters(f"{family}({usage}): {exc}") from None
    for name, value in bound.arguments.items():
        param = sig.parameters[name]
        if param.annotation is int:
            bound.arguments[name] = (
                tuple(_as_int(v, family, name) for v in value)
                if param.kind is param.VAR_POSITIONAL else _as_int(value, family, name))
    return family, list(bound.args)


def build(family: str, *params) -> Graph:
    """Tagged-union entry point over the family catalogue; the family and its
    parameters are read as ``parse_source`` reads them."""
    family, args = parse_source(family, *params)
    if family not in FAMILY_BUILDERS:
        raise BadParameters(f"unknown family {family!r}")
    return FAMILY_BUILDERS[family](*args)
