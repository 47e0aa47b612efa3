"""Adjacency/laplacian matrices, the numeric eigensolver with multiplicity
clustering, closed-form spectra for the families that have one, and the
spectrum-based classifiers.

`spectrum(g, kind)` solves the smallest problem that g's facts give exactly:
- an abelian Cayley graph's adjacency spectrum is its character sums, one
  DFT of the connection set's indicator over the group (numpy's FFT, which
  calls no BLAS, so these values do not depend on the BLAS thread count); a
  bi-Cayley graph's is +-|the character sums|; no matrix is built;
- a bipartite graph's adjacency spectrum is +-sigma, the singular values of
  its |black| x |white| biadjacency block, plus | |black| - |white| | zeros
  (LAPACK's SVD);
- a d-regular graph's laplacian spectrum is d - alpha over its adjacency
  spectrum, so both cost one solve;
- every other spectrum comes from the full matrix through `_symmetric_values`
  (LAPACK's symmetric solver: tridiagonalization plus implicit-shift
  iteration).
Each route clusters the raw descending values the same way; a graph keeps
both, so each (graph, kind) is solved once, on first read. Closed forms are
derived from the family's parameters alone and evaluated to doubles when they
are built, so the numeric and the closed-form routes stay independent;
`check_group_spectrum` checks a group graph's character sums against the
solve of its edges.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    BadParameters,
    FrozenRecord,
    IdentityViolated,
    Mismatch,
    NoClosedForm,
    NotSymmetric,
    SizeOverflow,
)
from .graph_core import Graph
from . import graph_families as gf
from . import groups

EIG_SIZE_CAP = 4096
SYMMETRY_BLOCK = 2**16  # entries in each row slice of the symmetry check
VALUE_MERGE_TOL = 1e-9
COMPARE_TOL = 1e-7
MOORE_MAX_DEGREE = 100  # any bound >= 57 gives the same four (n, d) pairs
KINDS = ("adjacency", "laplacian")  # the matrices a Spectrum is of


# -- matrices -----------------------------------------------------------------

def check_size(n: int) -> None:
    """SizeOverflow for a graph of n vertices, or an n x n matrix, past
    EIG_SIZE_CAP."""
    if n > EIG_SIZE_CAP:
        raise SizeOverflow(f"n = {n} over eigensolver cap {EIG_SIZE_CAP}")


def arcs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(tails, heads): each edge in both directions, vertex by vertex."""
    tails = np.repeat(np.arange(g.n), g.degrees)
    return tails, np.fromiter(itertools.chain.from_iterable(g.adj), dtype=np.intp,
                              count=tails.size)


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    a[arcs(g)] = 1.0
    return a


def laplacian_matrix(g: Graph) -> np.ndarray:
    a = adjacency_matrix(g)
    # 0 - a in place rather than -a, so that the zero entries stay +0.0
    np.subtract(0.0, a, out=a)
    np.fill_diagonal(a, g.degrees)
    return a


# -- spectrum -----------------------------------------------------------------

class Spectrum(FrozenRecord):
    """Clustered eigenvalues, sorted descending, with multiplicities."""

    _fields = ("entries", "matrix_kind", "cluster_tol")

    def __init__(self, entries: tuple[tuple[float, int], ...], matrix_kind: str,
                 cluster_tol: float):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "matrix_kind", matrix_kind)
        object.__setattr__(self, "cluster_tol", cluster_tol)

    @property
    def n(self) -> int:
        return sum(m for _, m in self.entries)

    def value_mults(self) -> tuple[tuple[float, int], ...]:
        return self.entries

    def expanded(self) -> np.ndarray:
        """All eigenvalues, descending."""
        return np.array([v for v, m in self.entries for _ in range(m)])

    def ascending(self) -> np.ndarray:
        return self.expanded()[::-1]

    @property
    def max(self) -> float:
        return self.entries[0][0]

    @property
    def min(self) -> float:
        return self.entries[-1][0]

    def kth_largest(self, k: int) -> float:
        """1-based: kth_largest(1) is the top eigenvalue with multiplicity;
        BadParameters unless 1 <= k <= n."""
        if not 1 <= k <= self.n:
            raise BadParameters(f"rank {k} outside 1..{self.n}")
        for value, mult in self.entries:
            k -= mult
            if k <= 0:
                return float(value)

    def kth_smallest(self, k: int) -> float:
        """1-based: kth_smallest(1) is the least eigenvalue with multiplicity;
        BadParameters unless 1 <= k <= n."""
        if not 1 <= k <= self.n:
            raise BadParameters(f"rank {k} outside 1..{self.n}")
        return self.kth_largest(self.n + 1 - k)

    @property
    def lambda2(self) -> float:
        return self.kth_smallest(2)

    def distinct_values(self) -> list[float]:
        return [v for v, _ in self.entries]

    def multiplicity_near(self, value: float) -> int:
        return sum(m for v, m in self.entries if abs(v - value) <= self.cluster_tol)

    def to_json(self) -> dict:
        return {
            "kind": self.matrix_kind,
            "n": self.n,
            "cluster_tol": self.cluster_tol,
            "entries": [{"value": v, "multiplicity": m} for v, m in self.entries],
        }


def _cluster(values: np.ndarray, tol: float) -> tuple[tuple[float, int], ...]:
    """Group sorted-descending values into (mean, multiplicity) clusters: a
    cluster ends where a value lies more than tol from the one before."""
    flat = values.tolist()
    cuts = [0, *((np.abs(values[:-1] - values[1:]) > tol).nonzero()[0] + 1).tolist(), len(flat)]
    return tuple((sum(flat[a:b]) / (b - a), b - a) for a, b in zip(cuts, cuts[1:]))


def _solve(m: np.ndarray, singular: bool) -> np.ndarray:
    """The one numeric solve behind every Spectrum: the singular values of m,
    descending, or the eigenvalues of the symmetric m, ascending."""
    if singular:
        return np.linalg.svd(m, compute_uv=False)
    return np.linalg.eigvalsh(m)


def _clustered(values: np.ndarray, kind: str) -> Spectrum:
    """The Spectrum of raw descending eigenvalues. Its cluster_tol is the solve's
    backward-error bound n * eps * max(1, ||A||_F), ||A||_F = sqrt(sum lambda^2)
    >= ||A||_2 (LAPACK Users' Guide, 3rd ed., 4.7), summed with no BLAS call.
    Values within it merge, and every spectral equality reads the same bound;
    merged values are not proven equal."""
    norm = math.sqrt(math.fsum((values * values).tolist()))
    tol = len(values) * math.ulp(1.0) * max(1.0, norm)
    return Spectrum(_cluster(values, tol), kind, tol)


def _symmetric_values(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, descending."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise NotSymmetric("matrix must be square and non-empty")
    check_size(m.shape[0])
    hi, lo = float(m.max()), float(m.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise BadParameters("matrix has a non-finite entry")
    scale = max(1.0, hi, -lo)
    # |m - m^T| over row slices of about SYMMETRY_BLOCK entries, so that the
    # check holds no n x n temporary beside the matrix itself
    rows = max(1, SYMMETRY_BLOCK // len(m))
    for i in range(0, m.shape[0], rows):
        if float(np.abs(m[i:i + rows] - m[:, i:i + rows].T).max()) > 1e-12 * scale:
            raise NotSymmetric("matrix is not symmetric within 1e-12")
    return _solve(m, singular=False)[::-1]


def _check_kind(kind: str) -> None:
    """BadParameters unless kind is one of KINDS."""
    if kind not in KINDS:
        raise BadParameters(f"unknown spectrum kind {kind!r}; expected adjacency or laplacian")


def eig_symmetric(matrix: np.ndarray, kind: str = "adjacency") -> Spectrum:
    """All eigenvalues of a real symmetric matrix, multiplicity-clustered and
    labelled with kind, which must be one of KINDS."""
    _check_kind(kind)
    return _clustered(_symmetric_values(matrix), kind)


def _bipartite_values(g: Graph, black, white) -> np.ndarray:
    """Adjacency eigenvalues of a bipartite graph, descending. Its matrix is
    [[0, B], [B^T, 0]] for the |black| x |white| block B, so they are +-sigma
    for the singular values sigma of B, and | |black| - |white| | zeros."""
    column = np.empty(g.n, dtype=np.intp)
    column[sorted(white)] = np.arange(len(white))
    b = np.zeros((len(black), len(white)))
    for i, v in enumerate(sorted(black)):
        b[i, column[list(g.adj[v])]] = 1.0
    sigma = _solve(b, singular=True)
    # 0.0 - sigma rather than -sigma, so that an exact zero stays +0.0
    return np.concatenate([sigma, np.zeros(abs(len(black) - len(white))), 0.0 - sigma[::-1]])


def _group_values(group: groups.Group) -> np.ndarray:
    """Adjacency eigenvalues of an abelian Cayley or bi-Cayley graph,
    descending, from its group: the character sums alpha_k of the connection
    set, or +-|alpha_k| on a bi-Cayley graph (Babai 1979)."""
    alphas = groups.character_sum(group.orders, group.subset)
    if not group.bi:
        return np.sort(alphas.real)[::-1]
    r = np.sort(np.abs(alphas))[::-1]
    # 0.0 - r rather than -r, so that an exact zero stays +0.0
    return np.concatenate([r, 0.0 - r[::-1]])


def _values(g: Graph, kind: str) -> np.ndarray:
    """Eigenvalues of g's adjacency or laplacian matrix, descending and
    read-only, kept in g's instance dict (as cached_property keeps g's facts)
    from its first read, which solves the smallest problem that g's facts give
    exactly: a group graph's adjacency spectrum from its character sums, a
    bipartite one from the biadjacency block, a d-regular laplacian spectrum
    as d - alpha, and any other from the full matrix."""
    kept = g.__dict__.setdefault("_spectra", {})
    if kind in kept:
        return kept[kind]
    check_size(g.n)
    if kind == "adjacency":
        if g.group is not None:
            values = _group_values(g.group)
        elif g.bipartition is not None:
            values = _bipartite_values(g, *g.bipartition)
        else:
            values = _symmetric_values(adjacency_matrix(g))
    elif g.is_regular:
        values = g.max_degree - _values(g, "adjacency")[::-1]
    else:
        values = _symmetric_values(laplacian_matrix(g))
    values.flags.writeable = False
    kept[kind] = values
    return values


def spectrum(g: Graph, kind: str = "adjacency") -> Spectrum:
    """The clustered spectrum of g's adjacency or laplacian matrix, kept beside
    its values; past EIG_SIZE_CAP, SizeOverflow before any matrix is built."""
    _check_kind(kind)
    kept = g.__dict__.setdefault("_spectra", {})
    if (kind, "clustered") not in kept:
        kept[kind, "clustered"] = _clustered(_values(g, kind), kind)
    return kept[kind, "clustered"]


def check_group_spectrum(g: Graph) -> None:
    """Mismatch unless a group graph's adjacency spectrum agrees with the
    solve of its edges alone, as if g carried no group."""
    if g.group is not None:
        edges = Graph.from_rows(g.adj, name=g.name)
        edges.bipartition = g.bipartition  # the edges alone fix it, so g's serves
        verify_closed_form(spectrum(g), spectrum(edges), name=f"{g.name}: edge solve")


# -- closed forms -----------------------------------------------------------------

class ClosedForm(FrozenRecord):
    """Symbolically-derived spectrum: (value, multiplicity, label) entries,
    sorted descending; values are exact expressions evaluated to doubles."""

    _fields = ("matrix_kind", "entries")

    def __init__(self, matrix_kind: str, entries: tuple[tuple[float, int, str], ...]):
        object.__setattr__(self, "matrix_kind", matrix_kind)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return sum(m for _, m, _ in self.entries)

    def value_mults(self) -> tuple[tuple[float, int], ...]:
        return tuple((v, m) for v, m, _ in self.entries)

    def laplacian_for_regular(self, d: int) -> "ClosedForm":
        """lambda = d - alpha, valid for d-regular families."""
        entries = tuple((d - v, m, f"{d}-({lbl})") for v, m, lbl in reversed(self.entries))
        return ClosedForm("laplacian", entries)

    def to_json(self) -> dict:
        return {
            "kind": self.matrix_kind,
            "entries": [{"value": v, "multiplicity": m, "label": lbl}
                        for v, m, lbl in self.entries],
        }


def _form(pairs, kind: str = "adjacency") -> ClosedForm:
    """Drop (value, mult, label) triples of multiplicity 0, merge those that
    agree within VALUE_MERGE_TOL and sort descending."""
    merged: list[list] = []
    for v, m, lbl in sorted((t for t in pairs if t[1]), key=lambda t: -t[0]):
        if merged and abs(merged[-1][0] - v) <= VALUE_MERGE_TOL:
            merged[-1][1] += m
        else:
            merged.append([v, m, lbl])
    return ClosedForm(kind, tuple((v, m, lbl) for v, m, lbl in merged))


def srg_closed_form(n: int, d: int, a: int, c: int) -> ClosedForm:
    """Three eigenvalues of a strongly regular graph with the stated
    parameters, with the multiplicities that srg_feasibility finds exactly:
    (n-1 -+ num/t)/2, or (n-1)/2 each in the quadratic case."""
    kind, t = srg_feasibility(n, d, a, c)
    if kind == "infeasible":
        raise IdentityViolated(f"({n},{d},{a},{c}) is infeasible: {t}")
    shift = ((n - 1) * (a - c) + 2 * d) // t if t else 0
    disc = (a - c) ** 2 + 4 * (d - c)
    root = math.sqrt(disc)
    return _form([
        (float(d), 1, "d"),
        ((a - c + root) / 2, (n - 1 - shift) // 2, f"(a-c+sqrt({disc}))/2"),
        ((a - c - root) / 2, (n - 1 + shift) // 2, f"(a-c-sqrt({disc}))/2"),
    ])


def design_closed_form(m: int, d: int, c: int) -> ClosedForm:
    gf.DesignParams(m, d, c)
    r = math.sqrt(d - c)
    return _form([
        (float(d), 1, "d"), (-float(d), 1, "-d"),
        (r, m - 1, f"sqrt({d - c})"), (-r, m - 1, f"-sqrt({d - c})"),
    ])


def _drop_one(entries, value: float, missing: str) -> list:
    """Closed-form entries (value, multiplicity, ...) less one copy of value, within
    VALUE_MERGE_TOL, emptied entries left out; Mismatch(missing) if none is that close."""
    for i, (v, m, *rest) in enumerate(entries):
        if abs(v - value) <= VALUE_MERGE_TOL:
            kept = [*entries[:i], (v, m - 1, *rest), *entries[i + 1:]]
            return [e for e in kept if e[1] > 0]
    raise Mismatch(missing)


def partial_design_closed_form(m: int, d: int, c1: int, c2: int, c1_graph_values) -> ClosedForm:
    """Spectrum of a partial design graph from its parameters and the
    spectrum of the c1-graph; the c1-graph's trivial eigenvalue d' is dropped
    and every remaining alpha' contributes +-sqrt((d-c2)+(c1-c2) alpha')."""
    params = gf.PartialDesignParams(m, d, c1, c2)
    dprime = gf.c1_graph_degree(params, c1)
    pool = _drop_one(c1_graph_values, dprime, "c1-graph spectrum lacks its trivial eigenvalue")
    entries = [(float(d), 1, "d"), (-float(d), 1, "-d")]
    for v, mult in pool:
        inner = (d - c2) + (c1 - c2) * v
        if inner < -1e-6:
            raise IdentityViolated("negative value under the square root")
        if abs(inner) < 1e-9:  # snap clustering noise so +-0 merge
            inner = 0.0
        r = math.sqrt(max(inner, 0.0))
        entries.append((r, mult, f"sqrt({inner:.9g})"))
        entries.append((-r, mult, f"-sqrt({inner:.9g})"))
    return _form(entries)


def cone_closed_form_adjacency(base: ClosedForm, base_degree: int) -> ClosedForm:
    """Adjacency spectrum of the cone over a regular graph: drop one copy of
    the base's trivial eigenvalue, add the two roots of
    x^2 - d0 x - n0 = 0."""
    n0 = base.n
    root = math.sqrt(base_degree**2 + 4 * n0)
    entries = [((base_degree + root) / 2, 1, "cone+"),
               ((base_degree - root) / 2, 1, "cone-")]
    entries += _drop_one(base.entries, base_degree, "base spectrum lacks its trivial eigenvalue")
    return _form(entries)


def complement_laplacian_closed_form(base_lap: ClosedForm, n: int) -> ClosedForm:
    """Laplacian of the complement: {0} plus {n - lambda} over the non-trivial
    part of the base laplacian spectrum."""
    base = _drop_one(sorted(base_lap.entries, key=lambda t: t[0]), 0.0,
                     "laplacian spectrum lacks the 0 eigenvalue")
    entries = [(0.0, 1, "0")] + [(float(n) - v, m, f"{n}-({lbl})") for v, m, lbl in base]
    return _form(entries, kind="laplacian")


def product_closed_form(a: ClosedForm, b: ClosedForm) -> ClosedForm:
    entries = [(va + vb, ma * mb, f"{la}+{lb}")
               for va, ma, la in a.entries for vb, mb, lb in b.entries]
    return _form(entries)


def double_closed_form(a: ClosedForm) -> ClosedForm:
    entries = [(v, m, lbl) for v, m, lbl in a.entries]
    entries += [(-v, m, f"-({lbl})") for v, m, lbl in a.entries]
    return _form(entries)


def radial_tree_eigenvalues(d: int, radius: int) -> tuple[list[float], list[float]]:
    """Eigenvalues of T_{d,R} carried by radial eigenfunctions: the adjacency
    list 2 sqrt(d-1) cos(pi k/(R+2)) and the laplacian list
    {0} + {d - 2 sqrt(d-1) cos(pi k/(R+1))}; all simple, and the extremes of
    the full spectrum."""
    gf.check_tree(d, radius)
    s = 2 * math.sqrt(d - 1)
    adj = [s * math.cos(math.pi * k / (radius + 2)) for k in range(1, radius + 2)]
    lap = [0.0] + [d - s * math.cos(math.pi * k / (radius + 1)) for k in range(1, radius + 1)]
    return adj, lap


# family-specific closed forms ----------------------------------------------------


def _cf_complete(n: int) -> ClosedForm:
    gf.check_size("complete", n)
    return _form([(n - 1.0, 1, "n-1"), (-1.0, n - 1, "-1")])


def _cf_cycle(n: int) -> ClosedForm:
    gf.check_size("cycle", n)
    entries = [(2.0, 1, "2cos(0)")]
    for k in range(1, (n + 1) // 2):
        entries.append((2 * math.cos(2 * math.pi * k / n), 2, f"2cos(2pi{k}/{n})"))
    if n % 2 == 0:
        entries.append((-2.0, 1, "2cos(pi)"))
    return _form(entries)


def _cf_cube(n: int) -> ClosedForm:
    gf.check_size("cube", n)
    return _form([(float(n - 2 * k), math.comb(n, k), f"{n}-2*{k}") for k in range(n + 1)])


def _cf_halved_cube(n: int) -> ClosedForm:
    """A character of weight w on (Z_2)^(n-1) sums the n - 1 unit generators to
    s = n - 1 - 2w and the pairs e_i + e_j to (s^2 - n + 1)/2, which add up
    to ((n - 2w)^2 - n)/2."""
    gf.check_size("halved_cube", n)
    return _form([(((n - 2 * w) ** 2 - n) / 2, math.comb(n - 1, w), f"(({n}-2*{w})^2-{n})/2")
                  for w in range(n)])


def _cf_decked_cube(n: int, extra) -> ClosedForm:
    """A character of (Z_2)^n that is 1 on i of the r bits of extra and on j of
    the other n - r sums the basis to n - 2(i + j) and extra to (-1)^i."""
    r = sum(gf.decked_cube_extra(n, extra))
    return _form([(float(n - 2 * (i + j) + (-1) ** i), math.comb(r, i) * math.comb(n - r, j),
                   f"{n}-2*({i}+{j})+(-1)^{i}")
                  for i in range(r + 1) for j in range(n - r + 1)])


def _cf_complete_bipartite(m: int, n: int) -> ClosedForm:
    gf.check_size("complete_bipartite", m, n)
    r = math.sqrt(m * n)
    return _form([(r, 1, "sqrt(mn)"), (-r, 1, "-sqrt(mn)"), (0.0, m + n - 2, "0")])


def _cf_path(n: int) -> ClosedForm:
    gf.check_size("path", n)
    return _form([(2 * math.cos(math.pi * k / (n + 1)), 1, f"2cos(pi{k}/{n + 1})")
                  for k in range(1, n + 1)])


def _cf_paley(q: int) -> ClosedForm:
    gf.paley_field(q)
    return srg_closed_form(q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)


def _cf_bi_paley(q: int) -> ClosedForm:
    gf.bi_paley_field(q)
    return design_closed_form(q, (q - 1) // 2, (q - 3) // 4)


def _cf_incidence(n: int, q: int) -> ClosedForm:
    """Points against hyperplanes of PG(n - 1, q): (q^k - 1)/(q - 1) points in
    all for k = n, on a hyperplane for k = n - 1 and on two for k = n - 2."""
    gf.incidence_fields(n, q)
    return design_closed_form(*((q**k - 1) // (q - 1) for k in (n, n - 1, n - 2)))


# SP(q), FSP(q) and Tutte-Coxeter are partial designs with c1 = 0, c2 = 1: two
# same-side vertices share one neighbour, or none and are adjacent in the c1-graph.

def _cf_sum_product(q: int) -> ClosedForm:
    """(a, x) and (a', x') share no neighbour when a = a' or x = x': K_q x K_(q-1)."""
    gf.check_size("sum_product", q)
    gf.sum_product_field(q, 1)
    return partial_design_closed_form(q * (q - 1), q - 1, 0, 1, product_closed_form(
        _cf_complete(q), _cf_complete(q - 1)).value_mults())


def _cf_full_sum_product(q: int) -> ClosedForm:
    """(a, x) and (a', x') share no neighbour when x = x': q copies of K_q."""
    gf.check_size("full_sum_product", q)
    gf.sum_product_field(q, 0)
    return partial_design_closed_form(q * q, q, 0, 1, [
        (v, q * m) for v, m in _cf_complete(q).value_mults()])


def _cf_tutte_coxeter() -> ClosedForm:
    """Two edges of K_6 lie in no common perfect matching when they meet: L(K_6)."""
    return partial_design_closed_form(15, 3, 0, 1, srg_closed_form(15, 8, 4, 4).value_mults())


def _cf_machine(*orders: int) -> ClosedForm:
    size = math.prod(gf.machine_orders(orders))
    return srg_closed_form(size * size, 3 * size - 3, size, 6)


def _cf_star(n: int) -> ClosedForm:
    gf.check_size("star", n)
    return _cf_complete_bipartite(1, n - 1)


def _cf_windmill(k: int) -> ClosedForm:
    gf.check_size("windmill", k)
    base = _form([(1.0, k, "1"), (-1.0, k, "-1")])
    return cone_closed_form_adjacency(base, 1)


def _cf_wheel(n: int) -> ClosedForm:
    gf.check_size("wheel", n)
    return cone_closed_form_adjacency(_cf_cycle(n - 1), 2)


def _cf_rook(n: int = 4) -> ClosedForm:
    gf.check_size("rook", n)  # rook(n) is K_n x K_n
    return srg_closed_form(n * n, 2 * (n - 1), n - 2, 2)


_CLOSED_FORMS = {
    "complete": _cf_complete,
    "cycle": _cf_cycle,
    "cube": _cf_cube,
    "complete_bipartite": _cf_complete_bipartite,
    "path": _cf_path,
    "star": _cf_star,
    "windmill": _cf_windmill,
    "wheel": _cf_wheel,
    "paley": _cf_paley,
    "bi_paley": _cf_bi_paley,
    "incidence": _cf_incidence,
    "sum_product": _cf_sum_product,
    "full_sum_product": _cf_full_sum_product,
    "tutte_coxeter": _cf_tutte_coxeter,
    "machine": _cf_machine,
    "halved_cube": _cf_halved_cube,
    "decked_cube": _cf_decked_cube,
    "petersen": lambda: srg_closed_form(10, 3, 0, 1),
    "shrikhande": lambda: srg_closed_form(16, 6, 2, 2),
    "rook_twin": lambda: srg_closed_form(16, 6, 2, 2),
    "rook": _cf_rook,
    "heawood": lambda: design_closed_form(7, 3, 1),
}


def closed_form_spectrum(family: str, *params) -> ClosedForm:
    """Adjacency closed form for the given family, or NoClosedForm."""
    fn = _CLOSED_FORMS.get(family)
    if fn is None:
        raise NoClosedForm(f"no closed-form spectrum for family {family!r}")
    return fn(*params)


# -- verification ------------------------------------------------------------------

def verify_closed_form(numeric: Spectrum, cf: ClosedForm, name: str = "") -> dict:
    """Check a numeric spectrum of the graph called name against a closed
    form, value-by-value within COMPARE_TOL and multiplicity-exactly.
    Raises Mismatch at the first divergence."""
    if cf.matrix_kind != numeric.matrix_kind:
        raise Mismatch(f"{name}: {cf.matrix_kind} closed form vs {numeric.matrix_kind} spectrum")
    if cf.n != numeric.n:
        raise Mismatch(f"closed form has {cf.n} eigenvalues, graph has {numeric.n} vertices")
    expected = cf.value_mults()
    got = numeric.entries
    if len(expected) != len(got):
        raise Mismatch(
            f"{name}: {len(expected)} distinct closed-form values vs {len(got)} numeric clusters")
    max_err = 0.0
    for (ev, em), (nv, nm) in zip(expected, got):
        if abs(ev - nv) > COMPARE_TOL:
            raise Mismatch(f"{name}: eigenvalue {ev} vs numeric {nv}")
        if em != nm:
            raise Mismatch(f"{name}: multiplicity of {ev}: closed form {em}, numeric {nm}")
        max_err = max(max_err, abs(ev - nv))
    return {"ok": True, "max_error": max_err, "clusters": len(got)}


# -- classifiers ---------------------------------------------------------------------

def spectrum_classifiers(adj: Spectrum, lap: Spectrum) -> dict:
    """Structure read off the spectrum alone: bipartiteness, regularity,
    component count, and the strongly-regular / design converses."""
    tol = adj.cluster_tol
    n = adj.n
    values = adj.expanded()
    out: dict = {}
    sym = all(abs(values[i] + values[n - 1 - i]) <= tol for i in range(n))
    out["bipartite"] = sym
    alpha_max = adj.max
    # sum lambda^2 = 2|E| <= n alpha_max, with equality iff regular; with each value
    # within tol, the two sides move by at most 2 n alpha_max tol and n tol
    out["regular"] = abs(float((values**2).sum()) - n * alpha_max) <= n * tol * (2 * alpha_max + 1)
    out["connected_components"] = lap.multiplicity_near(0.0)
    out.update(srg=None, design=None, extremal_design_degree=None)
    distinct = adj.distinct_values()
    if out["regular"] and len(distinct) == 3:
        d = round(alpha_max)
        a2, a3 = distinct[1], distinct[2]
        c = round(d + a2 * a3)
        a = round(a2 + a3 + c)
        try:
            out["srg"] = gf.SrgParams(n, d, a, c)
        except IdentityViolated:
            pass
    if out["regular"] and sym and len(distinct) in (3, 4):
        # the middle values are +-sqrt(d - c); at c = d (complete bipartite)
        # they merge at 0, the middle of a symmetric set of 3
        d = round(alpha_max)
        c = round(d - distinct[1] ** 2)
        try:
            out["design"] = gf.DesignParams(n // 2, d, c)
        except IdentityViolated:
            pass
    if len(distinct) == 4 and sym:
        d = round(alpha_max)
        mid = distinct[1]
        if d >= 3 and abs(alpha_max - d) <= tol and abs(mid - math.sqrt(d - 1)) <= tol:
            out["extremal_design_degree"] = d
    return out


def srg_feasibility(n: int, d: int, a: int, c: int):
    """("quadratic", None) | ("integral", t) | ("infeasible", reason).

    Multiplicity integrality is evaluated first (the direct formula), so
    parameter tuples with irrational or negative multiplicities report
    infeasible; tuples passing integrality but failing the double-counting
    identity raise IdentityViolated.
    """
    disc = (a - c) ** 2 + 4 * (d - c)
    if disc <= 0:
        return "infeasible", "non-positive discriminant"
    num = (n - 1) * (a - c) + 2 * d
    t = math.isqrt(disc)
    if num and t * t != disc:
        return "infeasible", "irrational eigenvalues need equal multiplicities"
    if num % t != 0:
        return "infeasible", f"sqrt(disc) = {t} does not divide {num}"
    # the multiplicities (n - 1 -+ num/t)/2, with num = 0 in the quadratic case
    if (n - 1 - num // t) % 2 or abs(num // t) > n - 1:
        return "infeasible", "multiplicities not non-negative integers"
    gf.SrgParams(n, d, a, c)  # raises IdentityViolated
    return ("integral", t) if num else ("quadratic", None)


def moore_graph_enumeration() -> list[tuple[int, int]]:
    """Feasible (n, d) for strongly regular parameters with a = 0, c = 1
    (diameter-2, girth-5 graphs) to d = MOORE_MAX_DEGREE; n is d^2 + 1."""
    out = []
    for d in range(2, MOORE_MAX_DEGREE + 1):
        n = d * d + 1
        kind, _ = srg_feasibility(n, d, 0, 1)
        if kind != "infeasible":
            out.append((n, d))
    return out
