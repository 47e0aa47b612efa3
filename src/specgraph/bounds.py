"""Slack-annotated audits of the spectral bounds, the mixing lemma with its
sum-product application, perturbation interlacing checks, and the supporting
symmetric-matrix principles (Courant-Fischer, Cauchy, Weyl, Aronszajn).

The audit is one table of statements. An entry gives a name, a relation (<=,
>=, equality iff a condition, or a trace identity: |lhs - rhs| small), the
facts its record reports, its sides as a function of facts computed once per
audit, and ordered gates, each a condition with a note. The first gate that
fails skips the statement with its note, or leaves it out if the note is None.
A new bound is one entry.

Inequalities allow a relative 1e-7 with an absolute floor of 1e-9 (the matrix
principles the floor alone), equalities their spectrum's cluster_tol, and the
trace identity of the j-th power 1e-8 n max(1, d) d^(j - 1), so eigensolver
noise never flips a verdict.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

import numpy as np

from . import groups
from .errors import (BadParameters, BadWeights, ColorViolation, FrozenRecord, InvalidOperation,
                     NotRegular, Record, SizeOverflow)
from .graph_core import (
    Graph,
    InvariantReport,
    boundary_size,
    checked_vertices,
    remove_edges,
    remove_vertex,
    triangle_count,
)
from .spectra import arcs, spectrum

REL_TOL = 1e-7
ABS_FLOOR = 1e-9
PM1_ENUMERATION_CAP = 20  # cheeger_pm1 tries every balanced sign vector up to this n
COURANT_FISCHER_TRIALS = 200


def _tol(a, b) -> float:
    return max(ABS_FLOOR, REL_TOL * max(abs(a), abs(b)))


class BoundRecord(Record):
    _fields = ("name", "relation", "lhs", "rhs", "slack", "status", "note", "inputs")

    def __init__(self, name: str, relation: str, lhs: float | None, rhs: float | None,
                 slack: float | None, status: str,  # "pass" | "fail" | "skipped"
                 note: str = "", inputs: dict | None = None):
        self.name = name
        self.relation = relation
        self.lhs = lhs
        self.rhs = rhs
        self.slack = slack
        self.status = status
        self.note = note
        self.inputs = {} if inputs is None else inputs


class AuditReport(Record):
    _fields = ("graph", "records")

    def __init__(self, graph: str, records: list[BoundRecord] | None = None):
        self.graph = graph
        self.records = [] if records is None else records

    @property
    def passed(self) -> list[BoundRecord]:
        return [r for r in self.records if r.status == "pass"]

    @property
    def failed(self) -> list[BoundRecord]:
        return [r for r in self.records if r.status == "fail"]

    @property
    def skipped(self) -> list[BoundRecord]:
        return [r for r in self.records if r.status == "skipped"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def to_json(self) -> dict:
        return {
            "graph": self.graph,
            "passed": len(self.passed),
            "failed": len(self.failed),
            "skipped": len(self.skipped),
            "records": [{"name": r.name, "relation": r.relation, "lhs": r.lhs, "rhs": r.rhs,
                         "slack": r.slack, "status": r.status, "note": r.note,
                         "inputs": dict(r.inputs)} for r in self.records],
        }


LE, GE, IFF, TRACE = "lhs <= rhs", "lhs >= rhs", "equality iff condition", "|lhs - rhs| small"


def _record(name, relation, sides, inputs, note) -> BoundRecord:
    """One statement's record from its sides: (lhs, rhs) for LE and GE,
    (lhs, rhs, tol) for TRACE and (lhs, rhs, tol, condition) for IFF, whose
    inputs are the condition and whether lhs and rhs agree within tol. An
    inequality that holds exactly needs no _tol."""
    lhs, rhs = sides[0], sides[1]
    if relation == LE:
        slack, ok = rhs - lhs, lhs <= rhs or lhs <= rhs + _tol(lhs, rhs)
    elif relation == GE:
        slack, ok = lhs - rhs, lhs >= rhs or lhs >= rhs - _tol(lhs, rhs)
    else:
        slack = abs(lhs - rhs)
        ok = slack <= sides[2]
        if relation == IFF:
            inputs = {"condition": sides[3], "numeric_equality": ok}
            ok = sides[3] == ok
    return BoundRecord(name, relation, float(lhs), float(rhs), float(slack),
                       "pass" if ok else "fail", note, inputs)


def _skip(name, note) -> BoundRecord:
    return BoundRecord(name, "", None, None, None, "skipped", note)


DISCONNECTED = "needs a connected graph"
NO_EDGES = "needs an edge"
TWO_VERTICES = "needs at least two vertices"
DEGREE_TWO = "needs maximum degree at least 2"
CHI_CAPPED = "chromatic number capped"
IOTA_CAPPED = "independence number capped"
OMEGA_CAPPED = "clique number capped"

# the gates that several statements share; BETA is the three that beta needs
HAS_CHI = (lambda f: f.chi is not None, CHI_CAPPED)
HAS_IOTA = (lambda f: f.iota is not None, IOTA_CAPPED)
HAS_EDGE = (lambda f: f.g.edge_count > 0, NO_EDGES)
HAS_TWO = (lambda f: f.n >= 2, TWO_VERTICES)
CONNECTED = (lambda f: f.connected, DISCONNECTED)
BETA = (HAS_TWO, CONNECTED, (lambda f: f.beta is not None, "isoperimetric constant capped"))
HAS_DELTA = (lambda f: f.delta is not None, None)
NOT_COMPLETE = (lambda f: not f.complete, None)
DEGREE_2 = (lambda f: f.d >= 2, DEGREE_TWO)
DEGREE_3 = (lambda f: f.d >= 3, None)
TREE = (lambda f: f.connected and f.gamma == math.inf and f.delta is not None, None)
CHUNG = (lambda f: f.regular and f.delta is not None, None)


def _statement(name, relation, inputs, sides, *gates, note=""):
    """A table entry; inputs names the facts that its record reports."""
    return name, relation, sides, tuple(inputs.split()), gates, note


HEAD = (
    _statement("wilf_chromatic", LE, "chi alpha_max", lambda f: (f.chi, 1 + f.alpha_max), HAS_CHI),
    _statement("hoffman_chromatic", GE, "chi alpha_max alpha_min", lambda f: (
        f.chi, 1 + f.alpha_max / (-f.alpha_min)), HAS_CHI, HAS_EDGE),
    _statement("hoffman_independence", LE, "iota d_min lambda_max", lambda f: (
        f.iota, f.n * (1 - f.d_min / f.lambda_max)), HAS_IOTA, HAS_EDGE),
    _statement("chi_iota_product", GE, "chi iota", lambda f: (
        f.chi * f.iota, f.n), HAS_CHI, HAS_IOTA),
    _statement("alon_milman", GE, "beta lambda2", lambda f: (f.b, f.lambda2 / 2), *BETA),
    _statement("dodziuk", LE, "beta lambda2", lambda f: (
        f.b, math.sqrt(2 * f.d * f.lambda2)), *BETA),
    _statement("mohar_beta", LE, "beta", lambda f: (f.b, f.d / 2 * (f.n + 1) / (f.n - 1)), *BETA),
    _statement("iso_diameter", LE, "delta beta", lambda f: (
        f.delta, 2 * math.log(f.n / 2) / math.log(1 + f.b / f.d) + 2), *BETA, HAS_DELTA),
    _statement("alpha_min_vs_max", GE, "alpha_min alpha_max", lambda f: (
        f.alpha_min, -f.alpha_max)),
    # a bipartite component can carry alpha_max alone, so the equality cases need connectivity
    _statement("alpha_min_bipartite_iff", IFF, "", lambda f: (
        f.alpha_min, -f.alpha_max, f.adj.cluster_tol, f.bipartite), CONNECTED),
    _statement("average_degree_le_alpha_max", LE, "d_ave", lambda f: (f.d_ave, f.alpha_max)),
    _statement("alpha_max_le_degree", LE, "d", lambda f: (f.alpha_max, f.d)),
    _statement("alpha_max_regular_iff", IFF, "", lambda f: (
        f.alpha_max, f.d, f.adj.cluster_tol, f.regular), CONNECTED),
    _statement("lambda_max_le_2d", LE, "lambda_max", lambda f: (f.lambda_max, 2 * f.d)),
    _statement("lambda_max_2d_iff", IFF, "", lambda f: (
        f.lambda_max, 2 * f.d, f.lap.cluster_tol, f.regular and f.bipartite), CONNECTED),
    _statement("lambda_max_ge_d_plus_1", GE, "lambda_max d", lambda f: (
        f.lambda_max, f.d + 1), HAS_EDGE),
    _statement("alpha_max_ge_sqrt_d", GE, "alpha_max", lambda f: (f.alpha_max, math.sqrt(f.d))),
    _statement("second_laplacian_le_d", LE, "lambda2", lambda f: (f.lambda2, f.d), NOT_COMPLETE),
    _statement("second_adjacency_nonneg", GE, "alpha2", lambda f: (f.alpha2, 0.0), NOT_COMPLETE),
    _statement("spectral_turan", LE, "omega alpha_max", lambda f: (
        f.alpha_max, (1 - 1 / f.omega) * f.n), (lambda f: f.omega is not None, OMEGA_CAPPED)),
    _statement("diameter_log", GE, "delta", lambda f: (
        f.delta, math.log(f.n) / math.log(f.d - 1) - 2 + 1e-12),
        HAS_DELTA, DEGREE_3, note="strict inequality"),
    _statement("girth_log", LE, "gamma", lambda f: (
        f.gamma, 2 * math.log(f.n) / math.log(f.d - 1) + 2 - 1e-12),
        HAS_DELTA, DEGREE_3, (lambda f: f.regular and f.gamma != math.inf, None),
        note="strict inequality"),
    _statement("girth_vs_diameter", LE, "gamma delta", lambda f: (
        f.gamma, 2 * f.delta + (1 if int(f.gamma) % 2 else 0)),
        HAS_DELTA, (lambda f: f.gamma != math.inf and f.gamma is not None, None)),
)
# Urakawa's laplacian growth and its regular adjacency dual, Alon-Boppana, for
# k = 1 .. delta // 2; each name gains its k
PER_K = (
    _statement("urakawa_k", LE, "k delta", lambda f: (
        float(f.lam_asc[f.k]),
        f.d - 2 * math.sqrt(f.d - 1) * math.cos(2 * math.pi * f.k / f.delta))),
    _statement("alon_boppana_k", GE, "k delta", lambda f: (
        float(f.alpha_desc[f.k]), 2 * math.sqrt(f.d - 1) * math.cos(2 * math.pi * f.k / f.delta)),
        (lambda f: f.regular, None)),
)
TAIL = (
    _statement("tree_alpha_max", LE, "delta", lambda f: (
        f.alpha_max, 2 * math.sqrt(f.d - 1) * math.cos(math.pi / (f.delta + 2))), TREE, DEGREE_2),
    _statement("tree_lambda_max", LE, "delta", lambda f: (
        f.lambda_max, f.d + 2 * math.sqrt(f.d - 1) * math.cos(math.pi / (f.delta + 1))),
        TREE, DEGREE_2),
    _statement("tree_lambda2_pendant", LE, "delta", lambda f: (
        f.lambda2, 2 - 2 * math.cos(math.pi / (f.delta + 1))), TREE, HAS_TWO),
    _statement("chung_diameter_bipartite", LE, "alpha2", lambda f: (
        f.delta, math.log(f.n // 2 - 1) / math.log(f.d / f.alpha2) + 2),
        CHUNG, (lambda f: f.bipartite and f.alpha2 > f.adj.cluster_tol, None)),
    _statement("chung_diameter", LE, "alpha", lambda f: (
        f.delta, math.log(f.n - 1) / math.log(f.d / f.alpha) + 1),
        CHUNG, (lambda f: not f.bipartite and f.alpha > f.adj.cluster_tol, None)),
    _statement("distinct_adjacency_count", GE, "delta", lambda f: (
        len(f.adj.entries), f.delta + 1), HAS_DELTA),
    _statement("distinct_laplacian_count", GE, "delta", lambda f: (
        len(f.lap.entries), f.delta + 1), HAS_DELTA),
    # the sum of alpha^j is 0, twice the edges and six times the triangles
    _statement("trace_sum_zero", TRACE, "", lambda f: (float(f.alpha_desc.sum()), 0.0, f.tr_tol)),
    _statement("trace_square_edges", TRACE, "", lambda f: (
        float((f.alpha_desc**2).sum()), 2.0 * f.g.edge_count, f.tr_tol * f.d)),
    _statement("trace_cube_triangles", TRACE, "", lambda f: (
        float((f.alpha_desc**3).sum()), 6.0 * triangle_count(f.g), f.tr_tol * f.d * f.d)),
    _statement("adjacency_interval_low", GE, "", lambda f: (f.alpha_min, -float(f.d))),
    _statement("adjacency_interval_high", LE, "", lambda f: (f.alpha_max, float(f.d))),
    _statement("laplacian_interval_low", GE, "", lambda f: (float(f.lap.min), 0.0)),
    _statement("laplacian_interval_high", LE, "", lambda f: (f.lambda_max, 2.0 * f.d)),
    _statement("degree_sandwich_low", GE, "", lambda f: (float(f.pair.min()), float(f.d_min))),
    _statement("degree_sandwich_high", LE, "", lambda f: (float(f.pair.max()), float(f.d))),
    # a complete graph or an odd cycle meets Brooks' bound
    _statement("brooks", LE, "chi", lambda f: (f.chi, f.d), HAS_CHI, CONNECTED, (
        lambda f: not (f.complete or f.regular and f.d == 2 and f.n % 2 == 1), None)),
)


class _Facts:
    """The facts of one report that the statements read, computed once per audit."""

    def __init__(self, inv: InvariantReport):
        g = self.g = inv.graph
        adj, lap = self.adj, self.lap = spectrum(g), spectrum(g, "laplacian")
        alpha_desc, lam_asc = self.alpha_desc, self.lam_asc = adj.expanded(), lap.ascending()
        self.pair = alpha_desc + lam_asc
        n, d = self.n, self.d = g.n, g.max_degree
        self.d_min, self.d_ave = g.min_degree, float(g.average_degree)
        self.alpha_max, self.alpha_min, self.lambda_max = adj.max, adj.min, lap.max
        self.alpha2 = float(alpha_desc[1]) if n >= 2 else adj.max
        self.alpha = max(self.alpha2, -adj.min)
        self.lambda2 = float(lam_asc[1]) if n >= 2 else None
        self.chi, self.iota, self.omega = inv.chromatic, inv.independence, inv.clique
        beta = inv.isoperimetric  # reported exactly, as a string; the sides read b
        self.beta, self.b = (None, None) if beta is None else (str(beta), float(beta))
        delta = self.delta = inv.diameter
        self.gamma = inv.girth
        self.bipartite, self.regular, self.connected = g.is_bipartite, g.is_regular, g.is_connected
        self.complete = g.edge_count == n * (n - 1) // 2
        self.tr_tol = 1e-8 * n * max(1.0, d)
        self.ks = range(1, delta // 2 + 1) if delta is not None and d >= 2 else ()
        self.k = None  # the rank of the PER_K pair being recorded


def _statements(f: _Facts):
    """HEAD, the PER_K pair for each k in f.ks (as f.k, which it reads), then TAIL."""
    yield from HEAD
    for k in f.ks:
        f.k = k
        for name, relation, sides, inputs, gates, note in PER_K:
            yield f"{name}{k}", relation, sides, inputs, gates, note
    yield from TAIL


def audit_bounds(inv: InvariantReport) -> AuditReport:
    """The records of the table's statements over inv.graph, against its own
    adjacency and laplacian spectra, each gated by the module's one rule."""
    f = _Facts(inv)
    facts = vars(f)
    rep = AuditReport(graph=f.g.name or "graph")
    rec = rep.records.append
    for name, relation, sides, inputs, gates, note in _statements(f):
        for holds, why in gates:
            if not holds(f):
                if why is not None:
                    rec(_skip(name, why))
                break
        else:
            values = {}  # a loop, not a comprehension: 3.11 calls a function for each one
            for key in inputs:
                values[key] = facts[key]
            rec(_record(name, relation, sides(f), values, note))
    return rep


# -- +-1 eigenfunction certificate ------------------------------------------------


def cheeger_pm1(g: Graph):
    """Search for a {+-1}-valued lambda_2 eigenfunction; success certifies
    beta = lambda_2 / 2 exactly (Alon-Milman from below, the +-1 eigenfunction
    bound from above).

    Each vector that _pm1_candidates offers is checked exactly over the
    neighbour rows: L v = lam v iff (d(x) - lam) v(x) is the sum of v over
    x's neighbours at every x.  bincount adds in float64, exactly for sums of
    +-1.
    """
    if g.n < 2:
        raise BadParameters("+-1 certificate needs at least two vertices")
    lap = spectrum(g, "laplacian")
    lam_int = round(lap.lambda2)
    if g.n % 2 or abs(lap.lambda2 - lam_int) > lap.cluster_tol or lam_int % 2:
        return None
    tails, heads = arcs(g)
    scale = np.array(g.degrees, dtype=np.int64) - lam_int
    for vec in _pm1_candidates(g, lam_int):
        if np.array_equal(np.bincount(tails, vec[heads], g.n), scale * vec):
            return {"lambda2": lam_int, "beta": Fraction(lam_int, 2), "vector": vec}
    return None


def _pm1_candidates(g: Graph, lam: int):
    """The +-1 vectors that cheeger_pm1 tries, in order: character
    eigenfunctions whose eigenvalue is lam, of the group's characters of order
    dividing 4 (as Re + Im: Im is 0 for a real one) on a Cayley graph and of
    its +-1 characters (on both sides) on a bi-Cayley graph, then every
    balanced sign vector on at most PM1_ENUMERATION_CAP vertices."""
    group = g.group
    if group is not None:
        orders, d = group.orders, g.max_degree
        order = 2 if group.bi else 4
        alphas = groups.character_sum(orders, group.subset)
        # chi_k's order divides order iff order * k = 0 mod m in each coordinate
        ks = groups.digits(orders, np.arange(1, len(alphas)))
        for k in np.flatnonzero(((order * ks) % orders == 0).all(axis=1)) + 1:
            # chi_k takes values in {+-1, +-i}, so alpha is a Gaussian integer
            real, imag = round(alphas[k].real), round(alphas[k].imag)
            if group.bi:
                if d - abs(real) == lam:
                    chi = np.round(groups.character(orders, k).real).astype(np.int64)
                    yield np.concatenate([chi, chi if real >= 0 else -chi])
            elif imag == 0 and d - real == lam:
                chi = groups.character(orders, k)
                vec = np.round(chi.real + chi.imag).astype(np.int64)
                if (np.abs(vec) == 1).all():
                    yield vec
    if g.n <= PM1_ENUMERATION_CAP:
        n = g.n
        half = n // 2
        for rest in itertools.combinations(range(1, n), half - 1):
            vec = -np.ones(n, dtype=np.int64)
            vec[0] = 1
            vec[list(rest)] = 1
            yield vec


# -- mixing lemma -------------------------------------------------------------------


class MixingQuery(FrozenRecord):
    _fields = ("S", "T", "ell")

    def __init__(self, S: frozenset, T: frozenset, ell: int = 1):
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "ell", ell)


def edge_count_between(g: Graph, S, T) -> int:
    """e(S, T): edges with one endpoint in S and one in T; edges inside the
    intersection count twice."""
    return path_count_between(g, S, T, 1)


def path_count_between(g: Graph, S, T, ell: int) -> int:
    """1_S^T A^ell 1_T, the walks of length ell from S to T, exactly in Python
    ints over the neighbour rows: ell - 1 neighbour sums of a count that starts
    at one walk on each vertex of S, then the last step over the smaller set's
    rows alone. S and T are vertex sets (a repeat counts once); ell = 0 gives
    |S & T|."""
    S, T = set(checked_vertices(g, S)), set(checked_vertices(g, T))
    if ell < 0:
        raise InvalidOperation("path length must be >= 0")
    if len(T) > len(S):  # A is symmetric, so the count is the same from T to S
        S, T = T, S
    walks = [int(v in S) for v in range(g.n)]
    for _ in range(ell - 1):
        walks = [sum(map(walks.__getitem__, row)) for row in g.adj]
    return sum(sum(map(walks.__getitem__, g.adj[t])) for t in T) if ell else len(S & T)


def mixing_lemma(g: Graph, query: MixingQuery) -> dict:
    """The exact walk count (e(S, T) at ell = 1) against the expander mixing
    bound from g's spectrum; refused before the count if a double cannot hold it."""
    if not g.is_regular:
        raise NotRegular("mixing lemma needs a regular graph")
    if query.ell < 1:
        raise InvalidOperation("path length must be >= 1")
    S, T, ell = query.S, query.T, query.ell
    # the query is checked before the spectrum and the walk count are paid for
    checked_vertices(g, itertools.chain(S, T))
    if g.is_bipartite:
        black, white = g.bipartition
        sides = []
        for block in (S, T):
            if set(block) <= black:
                sides.append(0)
            elif set(block) <= white:
                sides.append(1)
            else:
                raise ColorViolation("query set straddles the bipartition")
        if ell % 2 == 1 and sides[0] == sides[1]:
            raise ColorViolation("odd-length paths need opposite colours")
        if ell % 2 == 0 and sides[0] != sides[1]:
            raise ColorViolation("even-length paths need equal colours")
    adj = spectrum(g)
    if g.is_bipartite:
        m, alpha = g.n // 2, adj.kth_largest(2)
    else:
        m, alpha = g.n, max(adj.kth_largest(2), -adj.min)
    try:
        main = g.max_degree**ell / m * len(S) * len(T)
        bound = alpha**ell / m * math.sqrt(len(S) * len(T) * (m - len(S)) * (m - len(T)))
    except OverflowError:
        main = bound = math.inf
    if not (math.isfinite(main) and math.isfinite(bound)):
        raise SizeOverflow(f"walks of length {ell}: the mixing bound overflows a double")
    count = path_count_between(g, S, T, ell)
    deviation = abs(count - main)
    return {
        "count": count,
        "main_term": main,
        "error_bound": bound,
        "pass": deviation <= bound + _tol(deviation, bound),
    }


def sum_product_window_check(points_graph: Graph, q: int, window, equation: str) -> dict:
    """Solution count of a + b = cd or ab + cd = 1 inside A x B x C x D,
    via the incidence-graph mixing lemma; checks |N_W - |W|/q| <= sqrt(q |W|).

    ``points_graph`` must be the coordinate picture of I_3(q); the window is
    a 4-tuple (A, B, C, D) of subsets of field-element indices.
    """
    from .finite_field import field
    from .graph_families import incidence_point_index

    if equation not in ("a+b=cd", "ab+cd=1"):
        raise InvalidOperation(f"unknown equation {equation!r}")
    spec = field(q)
    A, B, C, D = [sorted(set(block)) for block in window]
    minus_one = (-spec.one).index
    black = ((a, minus_one, c) if equation == "a+b=cd" else (1, a, c) for a in A for c in C)
    S = {incidence_point_index(points_graph, v, q, "black") for v in black}
    T = {incidence_point_index(points_graph, (minus_one, b, dd), q, "white") for b in B for dd in D}
    if len(S) != len(A) * len(C) or len(T) != len(B) * len(D):
        raise InvalidOperation("window points collide; blocks must be index sets")
    count = edge_count_between(points_graph, S, T)
    # independent direct count of solutions via pair-count tables
    combine = operator.add if equation == "a+b=cd" else operator.mul
    pair_counts = Counter(combine(spec.element(a), spec.element(b)).index for a in A for b in B)
    products = (spec.element(c) * spec.element(dd) for c in C for dd in D)
    direct = sum(pair_counts[(p if equation == "a+b=cd" else spec.one - p).index] for p in products)
    w = len(A) * len(B) * len(C) * len(D)
    bound = math.sqrt(q * w)
    deviation = abs(direct - w / q)
    return {
        "solutions": direct,
        "edge_count": count,
        "agree": direct == count,
        "expected": w / q,
        "bound": bound,
        "pass": deviation <= bound + _tol(deviation, bound) and direct == count,
    }


# -- perturbation interlacing ---------------------------------------------------------


def perturbation_checks(g: Graph, operation: str, arg) -> dict:
    """Interlacing/Weyl inequalities for vertex removal, edge removal, or
    removing the edges of a subgraph; adjacency eigenvalues are indexed
    descending, laplacian ascending."""
    if operation == "remove_vertex":
        h = remove_vertex(g, arg)
    elif operation == "remove_edge":
        h = remove_edges(g, [arg])
    elif operation == "remove_subgraph":
        sub = Graph(g.n, arg)
        h = remove_edges(g, sub.edges())
    else:
        raise InvalidOperation(f"unknown operation {operation!r}")
    alpha, a2 = spectrum(g).expanded(), spectrum(h).expanded()
    lam, l2 = spectrum(g, "laplacian").ascending(), spectrum(h, "laplacian").ascending()
    n = g.n
    checks: list[tuple[str, float, float]] = []  # (name, lhs, rhs) meaning lhs <= rhs
    if operation == "remove_vertex":
        for k in range(n - 1):
            checks.append((f"alpha[{k + 1}] upper", a2[k], alpha[k]))
            checks.append((f"alpha[{k + 1}] lower", alpha[k + 1], a2[k]))
            checks.append((f"lambda[{k + 1}] upper", l2[k], lam[k + 1]))
            checks.append((f"lambda[{k + 1}] lower", lam[k] - 1, l2[k]))
    elif operation == "remove_edge":
        for k in range(n):
            checks.append((f"alpha[{k + 1}] upper", a2[k], alpha[k] + 1))
            checks.append((f"alpha[{k + 1}] lower", alpha[k] - 1, a2[k]))
            checks.append((f"lambda[{k + 1}] upper", l2[k], lam[k]))
            checks.append((f"lambda[{k + 1}] lower", lam[k] - 2, l2[k]))
    else:
        sub_spec = spectrum(sub)
        for k in range(n):
            checks.append((f"alpha[{k + 1}] upper", a2[k], alpha[k] - sub_spec.min))
            checks.append((f"alpha[{k + 1}] lower", alpha[k] - sub_spec.max, a2[k]))
            checks.append((f"lambda[{k + 1}] spanning", l2[k], lam[k]))
        checks.append(("alpha_max strict drop", a2[0], alpha[0]))
    failures = [(name, float(lhs), float(rhs)) for name, lhs, rhs in checks
                if lhs > rhs + _tol(lhs, rhs)]
    return {"operation": operation, "checks": len(checks),
            "failures": failures, "ok": not failures}


def compare_to_cycle(g: Graph) -> list[int]:
    """Hamiltonicity refutation helper: indices k (1-based, descending) where
    alpha_k(g) - 1 <= alpha_k(C_n) <= alpha_k(g) + 1 fails."""
    from .graph_families import cycle

    adj_g = spectrum(g).expanded()
    adj_c = spectrum(cycle(g.n)).expanded()
    bad = []
    for k in range(g.n):
        lo, hi = adj_g[k] - 1, adj_g[k] + 1
        if not (lo - _tol(lo, hi) <= adj_c[k] <= hi + _tol(lo, hi)):
            bad.append(k + 1)
    return bad


# -- Motzkin-Straus ---------------------------------------------------------------------


def motzkin_straus(g: Graph, weights, omega: int) -> dict:
    """Quadratic form sum over ordered adjacent pairs of f(u) f(v) against the
    clique bound 1 - 1/omega; equality witnesses live on maximum cliques."""
    if omega < 1:
        raise BadParameters("clique number must be at least 1")
    w = np.asarray(weights, dtype=float)
    # stated positively, so that NaN (it compares False) and inf (via the sum) fail
    if not (w.shape == (g.n,) and (w >= -1e-12).all() and abs(w.sum() - 1) <= 1e-12):
        raise BadWeights("weights must be finite, non-negative and sum to 1")
    value = 2.0 * float(sum(w[u] * w[v] for u, v in sorted(g.edges())))
    bound = 1 - 1 / omega
    return {"value": value, "bound": bound,
            "pass": value <= bound + _tol(value, bound)}


# -- symmetric-matrix principles ----------------------------------------------------------


def cauchy_interlacing_check(m: np.ndarray) -> bool:
    """Eigenvalues of the first-row-and-column deletion interlace those of m."""
    mu = np.linalg.eigvalsh(m)
    mu2 = np.linalg.eigvalsh(m[1:, 1:])
    n = m.shape[0]
    return all(mu[k] - ABS_FLOOR <= mu2[k] <= mu[k + 1] + ABS_FLOOR for k in range(n - 1))


def weyl_check(m: np.ndarray, other: np.ndarray) -> bool:
    """mu_{k+l-1}(M+N) >= mu_k(M) + mu_l(N) for all valid index pairs."""
    n = m.shape[0]
    mu_m = np.linalg.eigvalsh(m)
    mu_n = np.linalg.eigvalsh(other)
    mu_s = np.linalg.eigvalsh(m + other)
    for k in range(1, n + 1):
        for ell in range(1, n + 2 - k):
            if mu_s[k + ell - 2] < mu_m[k - 1] + mu_n[ell - 1] - ABS_FLOOR:
                return False
    return True


def aronszajn_check(m: np.ndarray, split: int) -> bool:
    """mu_1 + mu_{k+l} <= mu'_k + mu''_l for the diagonal blocks of sizes
    split and n - split."""
    n = m.shape[0]
    mu = np.linalg.eigvalsh(m)
    mu1 = np.linalg.eigvalsh(m[:split, :split])
    mu2 = np.linalg.eigvalsh(m[split:, split:])
    for k in range(1, split + 1):
        for ell in range(1, n - split + 1):
            if mu[0] + mu[k + ell - 1] > mu1[k - 1] + mu2[ell - 1] + ABS_FLOOR:
                return False
    return True


def courant_fischer_check(m: np.ndarray, rng: np.random.Generator) -> bool:
    """Sampled minimax: COURANT_FISCHER_TRIALS // n + 1 random k-subspaces per k
    have max Rayleigh >= mu_k, and the bottom-k eigenvectors attain mu_k exactly."""
    n = m.shape[0]
    mu, vecs = np.linalg.eigh(m)
    for k in range(1, n + 1):
        span = vecs[:, :k]
        top = np.linalg.eigvalsh(span.T @ m @ span)[-1]
        if abs(top - mu[k - 1]) > ABS_FLOOR:
            return False
        for _ in range(COURANT_FISCHER_TRIALS // n + 1):
            basis = np.linalg.qr(rng.normal(size=(n, k)))[0]
            sampled = np.linalg.eigvalsh(basis.T @ m @ basis)[-1]
            if sampled < mu[k - 1] - ABS_FLOOR:
                return False
    return True


def step_function_rayleigh(g: Graph, subset) -> tuple[float, float]:
    """(Rayleigh ratio of the +-step function, n |dS| / (|S||S^c|)); the two
    agree identically."""
    members = set(checked_vertices(g, subset))
    S = sorted(members)
    comp = [v for v in range(g.n) if v not in members]
    if not S or not comp:
        raise InvalidOperation("subset must be proper and non-empty")
    f = np.empty(g.n)
    f[S] = len(comp)
    f[comp] = -len(S)
    tails, heads = arcs(g)  # f^T L f sums (f(u) - f(v))^2 over the edges, each arc half
    ratio = float(((f[tails] - f[heads]) ** 2).sum() / 2) / float(f @ f)
    expected = g.n * boundary_size(g, S) / (len(S) * len(comp))
    return ratio, expected
