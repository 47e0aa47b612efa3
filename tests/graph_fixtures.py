"""Static edge lists pinned independently of the constructors, used as
cross-checks: the constructors must produce graphs isomorphic to these; the
edge-list constructions of the families built as Cayley graphs, as their
oracles; and the relabelling that the isomorphism tests apply.

The Shrikhande fixture follows the two-octagon drawing; Heawood and
Tutte-Coxeter are given in LCF notation; the three cubic graphs on 8 vertices
are the classical link-distinguishable triple; T(8) and its three Chang
switchings share the strongly regular parameters (28, 12, 6, 4).
"""

from __future__ import annotations

import itertools

from specgraph.graph_core import Graph, product


def relabel(g: Graph, perm) -> Graph:
    """g with vertex v renamed perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()], name=g.name)


def ring(n: int) -> Graph:
    """C_n from the edges i ~ i + 1 mod n, as cycle(n) was built."""
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C_{n}")


def complete_pairs(n: int) -> Graph:
    """K_n from every pair of vertices, as complete(n) was built."""
    return Graph(n, itertools.combinations(range(n), 2), name=f"K_{n}")


def rook_product(n: int) -> Graph:
    """K_n x K_n as the Cartesian product of two complete_pairs(n), as rook(n)
    was built."""
    k = complete_pairs(n)
    return product(k, k, name=f"rook_{n}")


def lcf(shifts: list[int], repeats: int, name: str = "") -> Graph:
    """Cubic graph from LCF notation: an n-cycle plus the chord i -> i + s."""
    n = len(shifts) * repeats
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        j = (i + shifts[i % len(shifts)]) % n
        if i < j:
            edges.append((i, j))
    return Graph(n, set(edges), name=name)


def heawood_fixture() -> Graph:
    return lcf([5, -5], 7, name="heawood_fixture")


def tutte_coxeter_fixture() -> Graph:
    return lcf([-13, -9, 7, -7, 9, 13], 5, name="tutte_coxeter_fixture")


def shrikhande_fixture() -> Graph:
    """Outer octagon a0..a7 (chords at distance 1 and 2), inner octagon
    b0..b7 (chords at distance 2 and 3), spokes a_j ~ b_{j +- 1}."""
    edges = []
    for j in range(8):
        edges.append((j, (j + 1) % 8))
        edges.append((j, (j + 2) % 8))
        edges.append((j, 8 + (j + 1) % 8))
        edges.append(((j + 1) % 8, 8 + j))
        edges.append((8 + j, 8 + (j + 2) % 8))
        edges.append((8 + j, 8 + (j + 3) % 8))
    return Graph(16, set(map(lambda e: (min(e), max(e)), edges)), name="shrikhande_fixture")


def petersen_drawing_fixture() -> Graph:
    """Pentagon 0..4, pentagram 5..9, spokes i ~ i + 5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges, name="petersen_fixture")


def cubic_octet_triple() -> tuple[Graph, Graph, Graph]:
    """Three mutually non-isomorphic 3-regular graphs on 8 vertices,
    distinguishable by their link-graph patterns."""
    ring = [(i, (i + 1) % 8) for i in range(8)]
    return (Graph(8, ring + [(0, 3), (1, 4), (2, 6), (5, 7)], name="cubic8_a"),
            Graph(8, ring + [(0, 2), (4, 6), (5, 7), (1, 3)], name="cubic8_b"),
            Graph(8, ring + [(2, 6), (5, 7), (1, 3), (0, 4)], name="cubic8_c"))


def triangular_8() -> Graph:
    """T(8) = L(K_8): the 2-subsets of 0..7, adjacent when they meet."""
    pairs = list(itertools.combinations(range(8), 2))
    return Graph(28, [(i, j) for (i, a), (j, b) in itertools.combinations(enumerate(pairs), 2)
                      if set(a) & set(b)], name="T_8")


def chang_graphs() -> tuple[Graph, Graph, Graph]:
    """T(8) Seidel-switched on the edges of K_8 that form a perfect matching,
    C_3 + C_5 and C_8: adjacency flips between the switched vertices and the
    rest."""
    pairs = list(itertools.combinations(range(8), 2))
    t8 = triangular_8()

    def switched(cycles, name):
        edges = {tuple(sorted((c[i], c[(i + 1) % len(c)]))) for c in cycles for i in range(len(c))}
        side = [p in edges for p in pairs]
        return Graph(28, [(u, v) for u, v in itertools.combinations(range(28), 2)
                          if t8.has_edge(u, v) != (side[u] != side[v])], name=name)

    return (switched([(0, 1), (2, 3), (4, 5), (6, 7)], "chang_matching"),
            switched([(0, 1, 2), (3, 4, 5, 6, 7)], "chang_c3_c5"),
            switched([tuple(range(8))], "chang_c8"))
