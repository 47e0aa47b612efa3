"""Static edge lists pinned independently of the constructors, used as
cross-checks: the constructors must produce graphs isomorphic to these; and
the relabelling that the isomorphism tests apply.

The Shrikhande fixture follows the two-octagon drawing; Heawood and
Tutte-Coxeter are given in LCF notation; the three cubic graphs on 8 vertices
are the classical link-distinguishable triple.
"""

from __future__ import annotations

from specgraph.graph_core import Graph


def relabel(g: Graph, perm) -> Graph:
    """g with vertex v renamed perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()], name=g.name)


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
