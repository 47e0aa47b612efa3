"""Slack-annotated audits of the spectral bounds, the mixing lemma with its
sum-product application, perturbation interlacing checks, and the supporting
symmetric-matrix principles (Courant-Fischer, Cauchy, Weyl, Aronszajn).

Bound comparisons allow a relative 1e-7 with an absolute floor of 1e-9 (the
matrix principles the floor alone) and equalities their spectrum's cluster_tol,
so eigensolver noise never flips a verdict; capped invariants skip their bounds.
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
            "passed": sum(1 for r in self.records if r.status == "pass"),
            "failed": len(self.failed),
            "skipped": len(self.skipped),
            "records": [{"name": r.name, "relation": r.relation, "lhs": r.lhs, "rhs": r.rhs,
                         "slack": r.slack, "status": r.status, "note": r.note,
                         "inputs": dict(r.inputs)} for r in self.records],
        }


def _le(name, lhs, rhs, inputs=None, note="") -> BoundRecord:
    ok = lhs <= rhs + _tol(lhs, rhs)
    return BoundRecord(name, "lhs <= rhs", float(lhs), float(rhs),
                       float(rhs - lhs), "pass" if ok else "fail", note, inputs or {})


def _ge(name, lhs, rhs, inputs=None, note="") -> BoundRecord:
    ok = lhs >= rhs - _tol(lhs, rhs)
    return BoundRecord(name, "lhs >= rhs", float(lhs), float(rhs),
                       float(lhs - rhs), "pass" if ok else "fail", note, inputs or {})


def _iff(name, holds: bool, equal: bool, lhs, rhs) -> BoundRecord:
    ok = holds == equal
    return BoundRecord(name, "equality iff condition", float(lhs), float(rhs),
                       float(abs(lhs - rhs)), "pass" if ok else "fail", "",
                       {"condition": holds, "numeric_equality": equal})


def _skip(name, note) -> BoundRecord:
    return BoundRecord(name, "", None, None, None, "skipped", note)


DISCONNECTED = "needs a connected graph"
NO_EDGES = "needs an edge"
TWO_VERTICES = "needs at least two vertices"
DEGREE_TWO = "needs maximum degree at least 2"
CHI_CAPPED = "chromatic number capped"
IOTA_CAPPED = "independence number capped"


def audit_bounds(inv: InvariantReport) -> AuditReport:
    """One record per applicable bound over inv.graph, against its own
    adjacency and laplacian spectra; tree-only / regular-only bounds are gated
    by structure, capped invariants produce skips."""
    g = inv.graph
    adj, lap = spectrum(g), spectrum(g, "laplacian")
    alpha_desc, lam_asc = adj.expanded(), lap.ascending()
    n = g.n
    d = g.max_degree
    d_min = g.min_degree
    d_ave = float(g.average_degree)
    alpha_max, alpha_min = adj.max, adj.min
    alpha2 = float(alpha_desc[1]) if n >= 2 else alpha_max
    lam2 = float(lam_asc[1]) if n >= 2 else None
    lam_max = lap.max
    chi, iota, omega = inv.chromatic, inv.independence, inv.clique
    beta = inv.isoperimetric
    delta = inv.diameter
    gamma = inv.girth
    bipartite = g.is_bipartite
    regular = g.is_regular
    connected = g.is_connected
    edgeless = g.edge_count == 0
    is_tree = connected and gamma == math.inf
    is_complete = g.edge_count == n * (n - 1) // 2
    rep = AuditReport(graph=g.name or "graph")
    rec = rep.records.append

    # chromatic / independence
    if chi is None:
        rec(_skip("wilf_chromatic", CHI_CAPPED))
        rec(_skip("hoffman_chromatic", CHI_CAPPED))
    else:
        rec(_le("wilf_chromatic", chi, 1 + alpha_max, {"chi": chi, "alpha_max": alpha_max}))
        if edgeless:
            rec(_skip("hoffman_chromatic", NO_EDGES))
        else:
            rec(_ge("hoffman_chromatic", chi, 1 + alpha_max / (-alpha_min),
                    {"chi": chi, "alpha_max": alpha_max, "alpha_min": alpha_min}))
    if iota is None:
        rec(_skip("hoffman_independence", IOTA_CAPPED))
    elif edgeless:
        rec(_skip("hoffman_independence", NO_EDGES))
    else:
        rec(_le("hoffman_independence", iota, n * (1 - d_min / lam_max),
                {"iota": iota, "d_min": d_min, "lambda_max": lam_max}))
    if chi is None or iota is None:
        rec(_skip("chi_iota_product", CHI_CAPPED if chi is None else IOTA_CAPPED))
    else:
        rec(_ge("chi_iota_product", chi * iota, n, {"chi": chi, "iota": iota}))

    # isoperimetric
    if beta is None or n < 2:
        for name in ("alon_milman", "dodziuk", "mohar_beta", "iso_diameter"):
            rec(_skip(name, TWO_VERTICES if n < 2 else DISCONNECTED if not connected
                      else "isoperimetric constant capped"))
    else:
        b = float(beta)
        rec(_ge("alon_milman", b, lam2 / 2, {"beta": str(beta), "lambda2": lam2}))
        rec(_le("dodziuk", b, math.sqrt(2 * d * lam2), {"beta": str(beta), "lambda2": lam2}))
        rec(_le("mohar_beta", b, d / 2 * (n + 1) / (n - 1), {"beta": str(beta)}))
        if delta is not None:
            rec(_le("iso_diameter", delta, 2 * math.log(n / 2) / math.log(1 + b / d) + 2,
                    {"delta": delta, "beta": str(beta)}))

    # extremal eigenvalue locations
    rec(_ge("alpha_min_vs_max", alpha_min, -alpha_max,
            {"alpha_min": alpha_min, "alpha_max": alpha_max}))
    if connected:  # a bipartite component can carry alpha_max alone
        rec(_iff("alpha_min_bipartite_iff", bipartite,
                 abs(alpha_min + alpha_max) <= adj.cluster_tol, alpha_min, -alpha_max))
    else:
        rec(_skip("alpha_min_bipartite_iff", DISCONNECTED))
    rec(_le("average_degree_le_alpha_max", d_ave, alpha_max, {"d_ave": d_ave}))
    rec(_le("alpha_max_le_degree", alpha_max, d, {"d": d}))
    if connected:
        rec(_iff("alpha_max_regular_iff", regular, abs(alpha_max - d) <= adj.cluster_tol,
                 alpha_max, d))
    else:
        rec(_skip("alpha_max_regular_iff", DISCONNECTED))
    rec(_le("lambda_max_le_2d", lam_max, 2 * d, {"lambda_max": lam_max}))
    if connected:
        rec(_iff("lambda_max_2d_iff", regular and bipartite,
                 abs(lam_max - 2 * d) <= lap.cluster_tol, lam_max, 2 * d))
    else:
        rec(_skip("lambda_max_2d_iff", DISCONNECTED))
    if edgeless:
        rec(_skip("lambda_max_ge_d_plus_1", NO_EDGES))
    else:
        rec(_ge("lambda_max_ge_d_plus_1", lam_max, d + 1, {"lambda_max": lam_max, "d": d}))
    rec(_ge("alpha_max_ge_sqrt_d", alpha_max, math.sqrt(d), {"alpha_max": alpha_max}))
    if not is_complete:
        rec(_le("second_laplacian_le_d", lam2, d, {"lambda2": lam2}))
        rec(_ge("second_adjacency_nonneg", alpha2, 0.0, {"alpha2": alpha2}))

    # spectral Turan
    if omega is None:
        rec(_skip("spectral_turan", "clique number capped"))
    else:
        rec(_le("spectral_turan", alpha_max, (1 - 1 / omega) * n,
                {"omega": omega, "alpha_max": alpha_max}))

    # diameter / girth growth (d >= 3)
    if delta is not None and d >= 3:
        rec(_ge("diameter_log", delta, math.log(n) / math.log(d - 1) - 2 + 1e-12,
                {"delta": delta}, note="strict inequality"))
        if regular and gamma != math.inf:
            rec(_le("girth_log", gamma, 2 * math.log(n) / math.log(d - 1) + 2 - 1e-12,
                    {"gamma": gamma}, note="strict inequality"))
    if delta is not None and gamma != math.inf and gamma is not None:
        rec(_le("girth_vs_diameter", gamma,
                2 * delta + (1 if int(gamma) % 2 else 0), {"gamma": gamma, "delta": delta}))

    # laplacian growth (Urakawa) and its regular adjacency dual (Alon-Boppana)
    if delta is not None and delta >= 2 and d >= 2:
        for k in range(1, delta // 2 + 1):
            bound = d - 2 * math.sqrt(d - 1) * math.cos(2 * math.pi * k / delta)
            rec(_le(f"urakawa_k{k}", float(lam_asc[k]), bound, {"k": k, "delta": delta}))
            if regular:
                rec(_ge(f"alon_boppana_k{k}", float(alpha_desc[k]),
                        2 * math.sqrt(d - 1) * math.cos(2 * math.pi * k / delta),
                        {"k": k, "delta": delta}))

    # trees
    if is_tree and delta is not None:
        if d < 2:
            rec(_skip("tree_alpha_max", DEGREE_TWO))
            rec(_skip("tree_lambda_max", DEGREE_TWO))
        else:
            rec(_le("tree_alpha_max", alpha_max,
                    2 * math.sqrt(d - 1) * math.cos(math.pi / (delta + 2)), {"delta": delta}))
            rec(_le("tree_lambda_max", lam_max,
                    d + 2 * math.sqrt(d - 1) * math.cos(math.pi / (delta + 1)), {"delta": delta}))
        if n < 2:
            rec(_skip("tree_lambda2_pendant", TWO_VERTICES))
        else:
            rec(_le("tree_lambda2_pendant", lam2,
                    2 - 2 * math.cos(math.pi / (delta + 1)), {"delta": delta}))

    # Chung diameter bounds
    if delta is not None and regular:
        if bipartite:
            if alpha2 > adj.cluster_tol:
                rec(_le("chung_diameter_bipartite", delta,
                        math.log(n // 2 - 1) / math.log(d / alpha2) + 2,
                        {"alpha2": alpha2}))
        else:
            alpha = max(alpha2, -alpha_min)
            if alpha > adj.cluster_tol:
                rec(_le("chung_diameter", delta,
                        math.log(n - 1) / math.log(d / alpha) + 1, {"alpha": alpha}))

    # eigenvalue counts and trace identities
    if delta is not None:
        rec(_ge("distinct_adjacency_count", len(adj.entries), delta + 1, {"delta": delta}))
        rec(_ge("distinct_laplacian_count", len(lap.entries), delta + 1, {"delta": delta}))
    # the sum of lambda^j is 0, twice the edges and six times the triangles
    # for j = 1, 2, 3, within tr_tol d^(j - 1)
    tr_tol = 1e-8 * n * max(1.0, d)
    for j, (name, rhs) in enumerate([("trace_sum_zero", 0.0),
                                     ("trace_square_edges", 2.0 * g.edge_count),
                                     ("trace_cube_triangles", 6.0 * triangle_count(g))], 1):
        lhs = float((alpha_desc**j).sum())
        rec(BoundRecord(name, "|lhs - rhs| small", lhs, rhs, abs(lhs - rhs),
                        "pass" if abs(lhs - rhs) <= tr_tol else "fail"))
        tr_tol *= d

    # interval location and the degree sandwich
    rec(_ge("adjacency_interval_low", alpha_min, -float(d)))
    rec(_le("adjacency_interval_high", alpha_max, float(d)))
    rec(_ge("laplacian_interval_low", float(lap.min), 0.0))
    rec(_le("laplacian_interval_high", lam_max, 2.0 * d))
    pair = alpha_desc + lam_asc
    rec(_ge("degree_sandwich_low", float(pair.min()), float(d_min)))
    rec(_le("degree_sandwich_high", float(pair.max()), float(d)))

    # Brooks (statement-level check)
    if chi is None:
        rec(_skip("brooks", CHI_CAPPED))
    else:
        odd_cycle = regular and d == 2 and n % 2 == 1
        if not connected:
            rec(_skip("brooks", DISCONNECTED))
        elif not (is_complete or odd_cycle):
            rec(_le("brooks", chi, d, {"chi": chi}))
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
    S = sorted(set(checked_vertices(g, subset)))
    comp = [v for v in range(g.n) if v not in set(S)]
    if not S or not comp:
        raise InvalidOperation("subset must be proper and non-empty")
    f = np.empty(g.n)
    f[S] = len(comp)
    f[comp] = -len(S)
    tails, heads = arcs(g)  # f^T L f sums (f(u) - f(v))^2 over the edges, each arc half
    ratio = float(((f[tails] - f[heads]) ** 2).sum() / 2) / float(f @ f)
    expected = g.n * boundary_size(g, S) / (len(S) * len(comp))
    return ratio, expected
