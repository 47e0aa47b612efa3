"""Character evaluation and the four sum types against the stated identities
and magnitude theorems; Weil-type bounds checked empirically."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from specgraph import characters as ch
from specgraph import finite_field as ff
from specgraph.errors import HypothesisViolated, SpecMismatch, ZeroElement

GF = ff.construct_field


field = ff.field


def all_nontrivial_pairs(spec):
    for t in range(1, spec.q):
        for k in range(1, spec.q - 1):
            yield (ch.AdditiveCharacter(spec, spec.element(t)),
                   ch.MultiplicativeCharacter(spec, k))


def test_trivial_additive_character_is_one():
    spec = field(9)
    psi = ch.trivial_additive(spec)
    assert all(psi(x) == 1 for x in spec.elements())


def test_quadratic_character_matches_signature_gf13():
    spec = field(13)
    sigma = ch.quadratic_character(spec)
    for x in spec.elements():
        expected = ff.quadratic_signature(spec, x)
        assert abs(sigma(x) - expected) < 1e-12


def test_homomorphism_property_random_pairs():
    spec = field(25)
    rnd = random.Random(25)
    chi = ch.MultiplicativeCharacter(spec, 7)
    psi = ch.AdditiveCharacter(spec, spec.element(3))
    for _ in range(50):
        a = spec.element(rnd.randrange(1, spec.q))
        b = spec.element(rnd.randrange(1, spec.q))
        assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-12
        assert abs(psi(a + b) - psi(a) * psi(b)) < 1e-12
        assert abs(abs(chi(a)) - 1) < 1e-12


def test_nontrivial_character_sums_vanish_gf9():
    spec = field(9)
    for k in range(1, 8):
        chi = ch.MultiplicativeCharacter(spec, k)
        assert abs(sum(chi(x) for x in spec.units())) < 1e-9
    for t in range(1, 9):
        psi = ch.AdditiveCharacter(spec, spec.element(t))
        assert abs(sum(psi(x) for x in spec.elements())) < 1e-9


# -- Gauss sums --------------------------------------------------------------

def test_gauss_trivial_cases_gf7():
    spec = field(7)
    one_a, one_m = ch.trivial_additive(spec), ch.trivial_multiplicative(spec)
    assert abs(ch.gauss_sum(one_a, one_m) - 6) < 1e-9
    assert abs(ch.gauss_sum(one_a, ch.MultiplicativeCharacter(spec, 2))) < 1e-9
    assert abs(ch.gauss_sum(ch.AdditiveCharacter(spec, spec.one), one_m) + 1) < 1e-9


def test_gauss_magnitude_gf5():
    spec = field(5)
    g = ch.gauss_sum(ch.AdditiveCharacter(spec, spec.one), ch.quadratic_character(spec))
    assert abs(abs(g) - math.sqrt(5)) < 1e-9


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_gauss_square_identity(q):
    spec = field(q)
    sign = ff.quadratic_signature(spec, -spec.one)
    for t in range(1, q):
        g = ch.gauss_sum(ch.AdditiveCharacter(spec, spec.element(t)),
                         ch.quadratic_character(spec))
        assert abs(g * g - sign * q) < 1e-9


def test_gauss_conjugation_law():
    spec = field(13)
    rnd = random.Random(13)
    for _ in range(20):
        psi = ch.AdditiveCharacter(spec, spec.element(rnd.randrange(1, 13)))
        chi = ch.MultiplicativeCharacter(spec, rnd.randrange(1, 12))
        lhs = ch.gauss_sum(psi, chi).conjugate()
        rhs = chi(-spec.one) * ch.gauss_sum(psi, chi.conjugate())
        assert abs(lhs - rhs) < 1e-9


# -- Jacobi sums --------------------------------------------------------------

def test_jacobi_trivial_gf9():
    spec = field(9)
    one = ch.trivial_multiplicative(spec)
    assert abs(ch.jacobi_sum(one, one) - 9) < 1e-9


def test_jacobi_quadratic_gf13():
    spec = field(13)
    sigma = ch.quadratic_character(spec)
    assert abs(ch.jacobi_sum(sigma, sigma) + 1) < 1e-9  # -sigma(-1), sigma(-1)=1


def test_jacobi_gauss_relation_gf7():
    spec = field(7)
    psi = ch.AdditiveCharacter(spec, spec.one)
    for k1 in range(1, 6):
        for k2 in range(1, 6):
            if (k1 + k2) % 6 == 0:
                continue
            chi1 = ch.MultiplicativeCharacter(spec, k1)
            chi2 = ch.MultiplicativeCharacter(spec, k2)
            lhs = ch.gauss_sum(psi, chi1) * ch.gauss_sum(psi, chi2)
            rhs = ch.jacobi_sum(chi1, chi2) * ch.gauss_sum(psi, chi1 * chi2)
            assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("q", [5, 13, 17])
def test_fermat_two_squares_via_order_four_jacobi(q):
    spec = field(q)
    chi = ch.MultiplicativeCharacter(spec, (q - 1) // 4)
    assert chi.order == 4
    j = ch.jacobi_sum(chi, chi)
    a, b = round(j.real), round(j.imag)
    assert abs(j.real - a) < 1e-9 and abs(j.imag - b) < 1e-9
    assert a * a + b * b == q


# -- Eisenstein sums -----------------------------------------------------------

def emb_for(q, n):
    base = field(q)
    big = GF(base.p, base.d * n)
    return ff.subfield_embedding(big, base), big


def test_eisenstein_trivial_gf9_over_gf3():
    emb, big = emb_for(3, 2)
    assert abs(ch.eisenstein_sum(emb, ch.trivial_multiplicative(big)) - 3) < 1e-9


def test_eisenstein_magnitude_gf16_over_gf4_trivial_on_base():
    emb, big = emb_for(4, 2)
    # characters trivial on the base have exponent divisible by q - 1 = 3
    for k in (3, 6, 9, 12):
        chi = ch.MultiplicativeCharacter(big, k)
        assert abs(abs(ch.eisenstein_sum(emb, chi)) - 1.0) < 1e-9  # 4^(2/2-1)


def test_singular_eisenstein_relation_gf9_over_gf3():
    emb, big = emb_for(3, 2)
    for k in (2, 4, 6):  # nontrivial, trivial on GF(3)*
        chi = ch.MultiplicativeCharacter(big, k)
        e0 = ch.eisenstein_sum(emb, chi, singular=True)
        assert abs(e0 + 2 * ch.eisenstein_sum(emb, chi)) < 1e-9
    for k in (1, 3, 5, 7):  # nontrivial on GF(3)*
        chi = ch.MultiplicativeCharacter(big, k)
        assert abs(ch.eisenstein_sum(emb, chi, singular=True)) < 1e-9


def _searched_restriction(emb, chi):
    """The float search over roots of unity that restrict_to_base replaced,
    kept as its oracle."""
    g = emb.base.generator()
    n_base = emb.base.q - 1
    val = chi(emb.lift(g))
    for k in range(n_base):
        if abs(val - ch._roots_of_unity(n_base)[k]) < 1e-6:
            return ch.MultiplicativeCharacter(emb.base, k)
    raise AssertionError("restriction is not a character of the base field")


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (5, 3), (7, 2),
                                 (9, 2), (11, 2)])
def test_restrict_to_base_matches_the_root_search(q, n):
    emb, big = emb_for(q, n)
    for k in range(big.q - 1):
        chi = ch.MultiplicativeCharacter(big, k)
        assert ch.restrict_to_base(emb, chi) == _searched_restriction(emb, chi), k


def test_gauss_eisenstein_factorization_gf9_over_gf3():
    emb, big = emb_for(3, 2)
    base = emb.base
    psi = ch.AdditiveCharacter(base, base.one)
    psi_ind = ch.induce_additive(emb, psi)
    for k in range(1, big.q - 1):
        chi = ch.MultiplicativeCharacter(big, k)
        chi_res = ch.restrict_to_base(emb, chi)
        if chi_res.is_trivial:
            continue
        lhs = ch.gauss_sum(psi_ind, chi)
        rhs = ch.gauss_sum(psi, chi_res) * ch.eisenstein_sum(emb, chi)
        assert abs(lhs - rhs) < 1e-9


# -- Kloosterman sums -------------------------------------------------------------

def test_kloosterman_trivial_pair():
    spec = field(7)
    one = ch.trivial_additive(spec)
    assert abs(ch.kloosterman_sum(one, one) - 6) < 1e-9


def test_kloosterman_weil_bound_gf11():
    spec = field(11)
    for t1 in range(1, 11):
        for t2 in range(1, 11):
            k = ch.kloosterman_sum(ch.AdditiveCharacter(spec, spec.element(t1)),
                                   ch.AdditiveCharacter(spec, spec.element(t2)))
            assert abs(k) <= 2 * math.sqrt(11) + 1e-9


def test_kloosterman_real_for_conjugate_twist_gf7():
    spec = field(7)
    for t in range(1, 7):
        psi = ch.AdditiveCharacter(spec, spec.element(t))
        k = ch.kloosterman_sum(psi, psi.conjugate())
        assert abs(k.imag) < 1e-9
        # direct summation oracle, written from the definition
        brute = 0j
        for s in range(1, 7):
            sinv = pow(s, 5, 7)
            brute += cmath.exp(2j * cmath.pi * (t * s) / 7) * cmath.exp(
                -2j * cmath.pi * (t * sinv) / 7)
        assert abs(k - brute) < 1e-9


def test_norm_restricted_sum_deligne_bound():
    for q, n in [(3, 2), (2, 3), (3, 3), (4, 2), (5, 2)]:
        emb, big = emb_for(q, n)
        for t in (1, 2):
            psi = ch.AdditiveCharacter(big, big.element(t))
            _, bound, ok = ch.norm_restricted_sum(emb, psi)
            assert ok, f"Deligne bound violated for GF({q}^{n})"


# -- Weil polynomial bounds --------------------------------------------------------

def test_weil_cubic_squarefree_gf13():
    spec = field(13)
    sigma = ch.quadratic_character(spec)
    # X^3 + aX + b for a few coefficient pairs, skipping non-square-free ones
    for a, b in [(1, 0), (1, 1), (2, 3), (0, 5)]:
        f = [spec.element(b), spec.element(a), spec.zero, spec.one]
        report = ch.weil_poly_check(spec, f, sigma)
        assert report.passed
        assert report.bound == pytest.approx(2 * math.sqrt(13))


def test_weil_linear_sum_is_zero():
    spec = field(9)
    psi = ch.AdditiveCharacter(spec, spec.one)
    total = ch.polynomial_character_sum(spec, [spec.zero, spec.one], psi)
    assert abs(total) < 1e-9


def test_weil_counterexample_gf9_flagged():
    spec = field(9)
    psi = ch.AdditiveCharacter(spec, spec.one)  # induced from the prime field
    f = [spec.zero, -spec.one, spec.zero, spec.one]  # X^3 - X = X^p - X
    with pytest.raises(HypothesisViolated):
        ch.weil_poly_check(spec, f, psi)
    # the raw sum indeed equals q, busting (d-1) sqrt(q) = 6
    assert abs(ch.polynomial_character_sum(spec, f, psi) - 9) < 1e-9


def test_weil_mth_power_flagged():
    spec = field(7)
    sigma = ch.quadratic_character(spec)  # order 2
    # (X+1)^2 is a square, so part (i) does not apply
    f = [spec.one, spec.element(2), spec.one]
    with pytest.raises(HypothesisViolated):
        ch.weil_poly_check(spec, f, sigma)


def test_weil_square_flagged_past_the_old_exhaustive_range():
    """(X + 1)^2 over GF(173), where |S| = 172 would bust the bound 13.2."""
    spec = field(173)
    with pytest.raises(HypothesisViolated):
        ch.weil_poly_check(spec, [1, 2, 1], ch.quadratic_character(spec))


def test_weil_fifth_powers_decided_at_degree_ten():
    spec = field(11)
    chi = ch.MultiplicativeCharacter(spec, 2)
    assert chi.order == 5
    with pytest.raises(HypothesisViolated):  # (X^2 + 1)^5
        ch.weil_poly_check(spec, [1, 0, 5, 0, 10, 0, 10, 0, 5, 0, 1], chi)
    report = ch.weil_poly_check(spec, [1] + [0] * 9 + [1], chi)  # X^10 + 1
    assert report.passed
    assert report.bound == pytest.approx(9 * math.sqrt(11))


def _is_mth_power_by_counter(spec, poly, m):
    """Whether poly is g^m, by trying every monic g of degree deg / m with a
    base-q counter: the oracle of the solve in characters._is_mth_power."""
    deg = len(poly) - 1
    if m <= 1:
        return m == 1
    if deg % m != 0:
        return False
    dg = deg // m
    # enumerate monic g of degree dg by its dg lower coefficients
    idx = [0] * dg
    while True:
        g = [spec.element(i) for i in idx] + [spec.one]
        power = g
        acc = [spec.one]
        for _ in range(m):
            new = [spec.zero] * (len(acc) + len(power) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(power):
                    new[i + j] = new[i + j] + a * b
            acc = new
        if acc == poly:
            return True
        for pos in range(dg):
            idx[pos] += 1
            if idx[pos] < spec.q:
                break
            idx[pos] = 0
        else:
            return False


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_mth_power_check_matches_the_counter_loop(q):
    """Every monic poly of degree <= 3; at degree 4 every square (the fourth
    powers among them) and a seeded sample of 20 others; at degree 6 seeded
    squares, cubes and others.  The solve needs m to be a unit mod p, as the
    order of a character, which divides q - 1, always is."""
    spec = field(q)
    rnd = random.Random(q)

    def poly(low):
        return [spec.element(i) for i in low] + [spec.one]

    def times(f, g):
        out = [spec.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
        return out

    def sample(deg):
        return poly([rnd.randrange(q) for _ in range(deg)])

    polys = [poly(low) for deg in range(4) for low in itertools.product(range(q), repeat=deg)]
    polys += [times(g, g) for g in map(poly, itertools.product(range(q), repeat=2))]
    polys += [sample(4) for _ in range(20)]
    polys += [times(g, g) for g in (sample(3) for _ in range(4))]
    polys += [times(g, times(g, g)) for g in (sample(2) for _ in range(4))]
    polys += [sample(6) for _ in range(4)]
    answers = set()
    for f in polys:
        for m in (m for m in (2, 3, 4) if m % spec.p):
            answer = ch._is_mth_power(spec, f, m)
            assert answer == _is_mth_power_by_counter(spec, f, m)
            answers.add(answer)
    assert answers == {False, True}


def test_dth_power_counts():
    f13 = field(13)
    assert ch.dth_power_count(f13, 1, f13.element(5)) == 1
    squares = {i for i in range(1, 13) if ff.signature_table(f13)[i] == 1}
    for i in squares:
        assert ch.dth_power_count(f13, 2, f13.element(i)) == 2
    f7 = field(7)
    for i in range(1, 7):
        count = ch.dth_power_count(f7, 3, f7.element(i))
        brute = sum(1 for h in range(1, 7) if pow(h, 3, 7) == i)
        assert count == brute
    with pytest.raises(ZeroElement):
        ch.dth_power_count(f7, 2, f7.zero)


def test_dth_power_count_cross_check_raises(monkeypatch):
    """A character sum that disagrees with the exhaustive count raises, as
    it does under python -O."""
    f7 = field(7)
    monkeypatch.setattr(ch, "MultiplicativeCharacter", lambda spec, k: lambda a: 1)
    with pytest.raises(SpecMismatch, match="exhaustive count 0"):
        ch.dth_power_count(f7, 2, f7.element(3))  # 3 is not a square mod 7


# -- orthogonality and duality -------------------------------------------------------

@pytest.mark.parametrize("q", [7, 9, 13, 16, 25])
def test_additive_orthogonality(q):
    spec = field(q)
    chars = list(ch.additive_characters(spec))
    for i, psi1 in enumerate(chars):
        for psi2 in chars[i:]:
            inner = sum(psi1(x) * psi2(x).conjugate() for x in spec.elements())
            expected = q if psi1 == psi2 else 0.0
            assert abs(inner - expected) < 1e-8


@pytest.mark.parametrize("q", [7, 9, 13, 16])
def test_multiplicative_orthogonality(q):
    spec = field(q)
    chars = list(ch.multiplicative_characters(spec))
    for i, c1 in enumerate(chars):
        for c2 in chars[i:]:
            inner = sum(c1(x) * c2(x).conjugate() for x in spec.units())
            expected = q - 1 if c1 == c2 else 0.0
            assert abs(inner - expected) < 1e-8


@pytest.mark.parametrize("q", [7, 9, 13])
def test_dual_sums_vanish(q):
    spec = field(q)
    for x in spec.units():
        if x == spec.one:
            continue
        total = sum(chi(x) for chi in ch.multiplicative_characters(spec))
        assert abs(total) < 1e-8
    for x in spec.elements():
        if x.is_zero():
            continue
        total = sum(psi(x) for psi in ch.additive_characters(spec))
        assert abs(total) < 1e-8


# -- character tables against the scalar sums ---------------------------------------
# The tables feed `specgraph chars`.  They are DFTs over the log group, so each
# entry must agree with the scalar sum, evaluated term by term through the
# character objects, to within rounding: 1e-12, where they differ by at most
# about 1e-14 at these sizes.

def assert_close(table, sums):
    sums = np.array(sums)
    assert table.shape == sums.shape
    assert np.abs(table - sums).max() <= 1e-12


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49])
def test_tables_equal_scalar_sums_exactly(q):
    spec = field(q)
    additive = list(ch.additive_characters(spec))
    multiplicative = list(ch.multiplicative_characters(spec))
    assert_close(ch.gauss_table(spec),
                 [[ch.gauss_sum(psi, chi) for chi in multiplicative] for psi in additive])
    assert_close(ch.jacobi_table(spec), [[ch.jacobi_sum(chi1, chi2) for chi2 in multiplicative]
                                         for chi1 in multiplicative])
    assert_close(ch.kloosterman_table(spec), [[ch.kloosterman_sum(psi1, psi2)
                                               for psi2 in additive[1:]]
                                              for psi1 in additive[1:]])


@pytest.mark.parametrize("q,n", [(5, 3), (9, 2), (3, 2), (2, 3), (4, 2)])
def test_eisenstein_table_equals_scalar_sums_exactly(q, n):
    emb, big = emb_for(q, n)
    assert_close(ch.eisenstein_table(emb),
                 [ch.eisenstein_sum(emb, chi) for chi in ch.multiplicative_characters(big)])


def _eisenstein_by_trace_norm(emb, chi, singular=False):
    """The Eisenstein sum with one trace_norm call per element and character,
    as it was computed before the embedding's trace table."""
    big = emb.big
    target = big.zero if singular else big.one
    total = 0j
    for s in big.elements():
        if singular and s.is_zero():
            continue
        if ff.trace_norm(emb, s)[0] == target:
            total += chi(s)
    return total


@pytest.mark.parametrize("q,n", [(4, 2), (3, 3), (5, 3)])
def test_eisenstein_sum_equals_per_element_trace_loop(q, n):
    emb, big = emb_for(q, n)
    for chi in ch.multiplicative_characters(big):
        for singular in (False, True):
            assert (ch.eisenstein_sum(emb, chi, singular=singular)
                    == _eisenstein_by_trace_norm(emb, chi, singular))
