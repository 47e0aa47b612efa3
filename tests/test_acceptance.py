"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line and enforcing the criterion at its stated tolerance."""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from specgraph import bounds as bd
from specgraph import characters as ch
from specgraph import corpus as corpus_mod
from specgraph import finite_field as ff
from specgraph import graph_core as gc
from specgraph import graph_families as gf
from specgraph import spectra as sp


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


field = ff.field


# -- 1. closed-form vs numeric over every family with a formula --------------------

def test_criterion_1_closed_forms_match_numeric():
    assert sp.COMPARE_TOL == 1e-7  # the tolerance README states
    with criterion(1, "closed-form vs numeric"):
        start = time.monotonic()
        checked = 0
        for family, instances in corpus_mod.SMALLEST_THREE.items():
            for params in instances:
                g = gf.build(family, *params)
                cf = sp.closed_form_spectrum(family, *params)
                result = sp.verify_closed_form(sp.spectrum(g), cf)
                assert result["ok"], (family, params)
                checked += 1
        # strongly-regular parameter forms
        for g, params in [(gf.petersen(), (10, 3, 0, 1)),
                          (gf.shrikhande(), (16, 6, 2, 2)),
                          (gf.paley(13), (13, 6, 2, 3))]:
            cf = sp.srg_closed_form(*params)
            assert sp.verify_closed_form(sp.spectrum(g), cf)["ok"]
            checked += 1
        # design parameter forms
        for g, params in [(gf.bi_paley(7), (7, 3, 1)),
                          (gf.incidence(3, 3), (13, 4, 1)),
                          (gf.bi_paley(11), (11, 5, 2))]:
            cf = sp.design_closed_form(*params)
            assert sp.verify_closed_form(sp.spectrum(g), cf)["ok"]
            checked += 1
        # partial design parameter forms, fed by the c1-graph spectrum
        for g, params in [(gf.tutte_coxeter(), (15, 3, 0, 1)),
                          (gf.sum_product(4), (12, 3, 0, 1)),
                          (gf.cube(4), (8, 4, 0, 2))]:
            c1 = gf.c1_graph(g, params[2])
            c1_spec = sp.eig_symmetric(sp.adjacency_matrix(c1))
            cf = sp.partial_design_closed_form(*params, c1_spec.entries)
            assert sp.verify_closed_form(sp.spectrum(g), cf)["ok"]
            checked += 1
        elapsed = time.monotonic() - start
        assert checked >= 50
        assert elapsed < 60, f"closed-form sweep took {elapsed:.1f}s"


# -- 2. Petersen fixture -------------------------------------------------------------

def test_criterion_2_petersen_fixture():
    with criterion(2, "Petersen fixture"):
        g = gf.petersen()
        spec = sp.eig_symmetric(sp.adjacency_matrix(g))
        expected = [(3.0, 1), (1.0, 5), (-2.0, 4)]
        assert len(spec.entries) == 3
        for (v, m), (ev, em) in zip(spec.entries, expected):
            assert abs(v - ev) <= 1e-9 and m == em
        assert gc.diameter(g) == 2
        assert gc.girth(g) == 5
        assert gc.chromatic_number(g) == 3
        assert gc.independence_number(g) == 4
        beta, _ = gc.isoperimetric_constant(g)
        assert beta == Fraction(1)
        adj, lap = sp.spectrum(g), sp.spectrum(g, "laplacian")
        recovered = sp.spectrum_classifiers(adj, lap)["srg"]
        assert recovered == gf.SrgParams(10, 3, 0, 1)


# -- 3. Hoffman-Singleton ---------------------------------------------------------------

def test_criterion_3_hoffman_singleton():
    with criterion(3, "Hoffman-Singleton enumeration"):
        assert sp.moore_graph_enumeration() == [(5, 2), (10, 3), (50, 7), (3250, 57)]


# -- 4. character magnitudes --------------------------------------------------------------

def test_criterion_4_character_magnitudes():
    with criterion(4, "character magnitudes"):
        for q in (5, 7, 9, 11, 13, 16, 25):
            spec = field(q)
            root = math.sqrt(q)
            for t in range(1, q):
                psi = ch.AdditiveCharacter(spec, spec.element(t))
                for k in range(1, q - 1):
                    chi = ch.MultiplicativeCharacter(spec, k)
                    assert abs(abs(ch.gauss_sum(psi, chi)) - root) <= 1e-9
            for k1 in range(1, q - 1):
                for k2 in range(1, q - 1):
                    j = ch.jacobi_sum(ch.MultiplicativeCharacter(spec, k1),
                                      ch.MultiplicativeCharacter(spec, k2))
                    expected = 1.0 if (k1 + k2) % (q - 1) == 0 else root
                    assert abs(abs(j) - expected) <= 1e-9
        for q, n in [(3, 2), (4, 2), (3, 3)]:
            base = field(q)
            big = ff.construct_field(base.p, base.d * n)
            emb = ff.subfield_embedding(big, base)
            for k in range(1, big.q - 1):
                chi = ch.MultiplicativeCharacter(big, k)
                e = abs(ch.eisenstein_sum(emb, chi))
                expected = q ** (n / 2 - 1) if k % (q - 1) == 0 else q ** ((n - 1) / 2)
                assert abs(e - expected) <= 1e-9, (q, n, k)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            spec = field(q)
            for t1 in range(1, q):
                for t2 in range(1, q):
                    k = ch.kloosterman_sum(ch.AdditiveCharacter(spec, spec.element(t1)),
                                           ch.AdditiveCharacter(spec, spec.element(t2)))
                    assert abs(k) <= 2 * math.sqrt(q) + 1e-9


# -- 5. quadratic reciprocity and Jacobsthal ------------------------------------------------

def test_criterion_5_reciprocity_and_jacobsthal():
    with criterion(5, "reciprocity and Jacobsthal"):
        primes = [p for p in range(3, 100) if ff.prime_factors(p) == [p]]
        for i, p in enumerate(primes):
            for ell in primes[i + 1:]:
                assert ff.reciprocity_check(p, ell)
        for q in (5, 13, 17, 29):
            a, b = ff.jacobsthal(field(q))
            assert a * a + b * b == q


# -- 6. isospectral non-isomorphic pairs ------------------------------------------------------

def test_criterion_6_isospectral_pairs():
    with criterion(6, "isospectral non-isomorphic pairs"):
        pairs = [(gf.shrikhande(), gf.rook_twin()),
                 (gf.machine([4]), gf.machine([2, 2]))]
        for a, b in pairs:
            sa = sp.eig_symmetric(sp.adjacency_matrix(a))
            sb = sp.eig_symmetric(sp.adjacency_matrix(b))
            assert len(sa.entries) == len(sb.entries)
            for (va, ma), (vb, mb) in zip(sa.entries, sb.entries):
                assert abs(va - vb) <= 1e-7 and ma == mb
            assert gc.is_isomorphic(a, b)[0] is False
        # the order-2 census separates the machine pair
        assert gf.machine_order2_census(gf.machine([4])) == 1
        assert gf.machine_order2_census(gf.machine([2, 2])) == 3


# -- 7. bounds corpus ---------------------------------------------------------------------------

def test_criterion_7_bounds_corpus():
    with criterion(7, "bounds corpus"):
        rows = corpus_mod.build_corpus()
        assert len(rows) >= 40
        for cid, _family, _params, g in rows:
            report = bd.audit_bounds(gc.invariant_report(g))
            assert report.ok, (cid, [(r.name, r.lhs, r.rhs) for r in report.failed])
        # Alon-Milman tight via the +-1 certificate
        for maker in (lambda: gf.cube(3), lambda: gf.cube(4), gf.petersen,
                      gf.shrikhande, gf.rook_twin):
            g = maker()
            cert = bd.cheeger_pm1(g)
            assert cert is not None, g.name
            lap = sp.eig_symmetric(sp.laplacian_matrix(g), "laplacian")
            assert abs(float(cert["beta"]) - lap.lambda2 / 2) <= 1e-7
            beta, _ = gc.isoperimetric_constant(g)
            assert beta == cert["beta"]


# -- 8. mixing lemma ------------------------------------------------------------------------------

def test_criterion_8_mixing_lemma():
    with criterion(8, "mixing lemma"):
        rng = np.random.default_rng(0x5EED)
        for maker in (lambda: gf.incidence(3, 5), lambda: gf.incidence(3, 7),
                      lambda: gf.paley(13), lambda: gf.paley(17)):
            g = maker()
            if g.is_bipartite:
                black, white = (sorted(s) for s in g.bipartition)
                for _ in range(200):
                    s = frozenset(rng.choice(black, size=int(rng.integers(1, len(black))),
                                             replace=False).tolist())
                    t = frozenset(rng.choice(white, size=int(rng.integers(1, len(white))),
                                             replace=False).tolist())
                    assert bd.mixing_lemma(g, bd.MixingQuery(s, t))["pass"]
            else:
                verts = list(range(g.n))
                for _ in range(200):
                    s = frozenset(rng.choice(verts, size=int(rng.integers(1, g.n)),
                                             replace=False).tolist())
                    t = frozenset(rng.choice(verts, size=int(rng.integers(1, g.n)),
                                             replace=False).tolist())
                    assert bd.mixing_lemma(g, bd.MixingQuery(s, t))["pass"]
        for q in (7, 11):
            points = gf.incidence_points(3, q)
            for equation in ("a+b=cd", "ab+cd=1"):
                for _ in range(50):
                    window = tuple(
                        sorted(rng.choice(q, size=int(rng.integers(1, q)),
                                          replace=False).tolist())
                        for _ in range(4))
                    res = bd.sum_product_window_check(points, q, window, equation)
                    assert res["agree"] and res["pass"], (q, equation, window)


# -- 9. hamiltonicity refutation -------------------------------------------------------------------

def test_criterion_9_hamiltonicity_refutation():
    with criterion(9, "Petersen hamiltonicity refutation"):
        assert bd.compare_to_cycle(gf.petersen()) == [6, 7]


# -- 10. A-D-E classification -----------------------------------------------------------------------

def test_criterion_10_ade_classification():
    with criterion(10, "A-D-E classification"):
        plain = [gf.ade("A", n) for n in range(2, 11)]
        plain += [gf.ade("D", n) for n in range(4, 11)]
        plain += [gf.ade("E", n) for n in (6, 7, 8)]
        for g in plain:
            top = sp.eig_symmetric(sp.adjacency_matrix(g)).max
            assert top < 2 - 1e-3, g.name
        extended = [gf.extended_ade("A", n) for n in range(2, 9)]
        extended += [gf.extended_ade("D", n) for n in range(4, 9)]
        extended += [gf.extended_ade("E", n) for n in (6, 7, 8)]
        for g in extended:
            top = sp.eig_symmetric(sp.adjacency_matrix(g)).max
            assert abs(top - 2) <= 1e-9, g.name
        assert gc.automorphism_count(gf.frucht()) == 1


# -- 11. matrix principle property suite ---------------------------------------------------------------

def test_criterion_11_matrix_principles():
    with criterion(11, "matrix principle property suite"):
        rng = np.random.default_rng(0xA11CE)
        for _ in range(500):
            n = int(rng.integers(2, 11))
            m = rng.normal(size=(n, n))
            m = (m + m.T) / 2
            other = rng.normal(size=(n, n))
            other = (other + other.T) / 2
            assert bd.cauchy_interlacing_check(m)
            assert bd.weyl_check(m, other)
            if n >= 2:
                assert bd.aronszajn_check(m, int(rng.integers(1, n)))


# -- 12. Paley universality -------------------------------------------------------------------------------

def test_criterion_12_universality():
    with criterion(12, "Paley universality"):
        assert gc.contains_all_small_graphs(gf.paley(17), 3)
        smallest = None
        q = 5
        while smallest is None:
            if q % 4 == 1 and ff.prime_power_decomposition(q) is not None:
                if gc.contains_all_small_graphs(gf.paley(q), 4):
                    smallest = q
            q += 4
            assert q <= 261, "scan passed the 257 ceiling"
        print(f"  smallest Paley graph containing all 4-vertex graphs: q = {smallest}")
        assert smallest <= 257
