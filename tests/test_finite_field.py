"""Field construction, arithmetic, Frobenius/trace/norm, and the
square-counting results, each checked against an independent oracle where the
expected value is not pinned by the source statements."""

import itertools
import random

import pytest

from specgraph import finite_field as ff
from specgraph.errors import (
    BadParameters,
    BadResidueClass,
    DivisionByZero,
    EvenCharacteristic,
    IndexOutOfRange,
    NotPrime,
    SizeOverflow,
    SpecMismatch,
)

GF = ff.construct_field


def test_construct_prime_field():
    spec = GF(2, 1)
    assert spec.modulus == (0, 1)  # the polynomial X
    assert spec.q == 2


def test_construct_gf9_modulus_irreducible_by_root_exhaustion():
    spec = GF(3, 2)
    c0, c1, c2 = spec.modulus
    assert c2 == 1
    for x in range(3):
        assert (c0 + c1 * x + x * x) % 3 != 0


def test_construct_gf16_multiplicative_group_cyclic():
    spec = GF(2, 4)
    assert spec.q == 16
    # exhaustive order oracle: repeated multiplication, no pow shortcuts
    orders = []
    for i in range(1, 16):
        a = spec.element(i)
        x, order = a, 1
        while x != spec.one:
            x = x * a
            order += 1
        orders.append(order)
    assert max(orders) == 15
    assert orders.count(15) == 8  # phi(15) generators
    assert spec.generator().multiplicative_order() == 15


def test_construct_field_errors():
    with pytest.raises(NotPrime):
        GF(4, 1)
    with pytest.raises(SizeOverflow):
        GF(2, 40)
    for q in (1, 12):
        with pytest.raises(BadParameters, match=f"{q} is not a prime power"):
            ff.field(q)


def test_construct_field_deterministic():
    assert GF(3, 3).modulus == GF(3, 3).modulus
    assert GF(2, 4).modulus == (1, 0, 0, 1, 1)


def _first_irreducible(p: int, d: int) -> tuple[int, ...]:
    """The modulus search construct_field made with a hand-written base-p
    counter before it used itertools.product, kept as its oracle."""
    q = p**d

    def candidates():
        idx = 0
        while idx < q:
            n, c = idx, []
            for _ in range(d):
                c.append(n % p)
                n //= p
            yield tuple(reversed(c)) + (1,)
            idx += 1

    return next(f for f in candidates() if ff._is_irreducible(f, p))


def test_construct_field_modulus_matches_counter_oracle():
    powers = [pp for q in range(4, 3500)
              if (pp := ff.prime_power_decomposition(q)) is not None and pp[1] > 1]
    assert len(powers) == 38
    for p, d in powers:
        assert GF(p, d).modulus == _first_irreducible(p, d), (p, d)


def test_additive_inverse_random_gf49():
    spec = GF(7, 2)
    rnd = random.Random(49)
    for _ in range(100):
        x = spec.element(rnd.randrange(spec.q))
        assert (x + -x).is_zero()


def test_lagrange_gf9():
    spec = GF(3, 2)
    for a in spec.units():
        assert a ** (spec.q - 1) == spec.one


def test_inverse_matches_exhaustive_search_gf27():
    spec = GF(3, 3)
    for a in spec.units():
        brute = next(b for b in spec.units() if a * b == spec.one)
        assert a.inverse() == brute


def test_inverse_of_zero():
    spec = GF(5, 1)
    with pytest.raises(DivisionByZero):
        spec.zero.inverse()
    assert spec.zero ** 0 == spec.one
    assert spec.zero ** 5 == spec.zero
    for op in (lambda: spec.zero ** -1, spec.zero.log):
        with pytest.raises(DivisionByZero):
            op()


def test_spec_mismatch():
    with pytest.raises(SpecMismatch):
        GF(5, 1).one + GF(7, 1).one


@pytest.mark.parametrize("p,modulus", [(3, (2, 0, 1)), (3, (0, 0, 1)), (2, (1, 0, 1))])
def test_reducible_modulus_rejected(p, modulus):
    spec = ff.FieldSpec(p, 2, modulus, p * p)  # X^2 - 1, X^2 and (X + 1)^2
    with pytest.raises(SpecMismatch):
        spec.element(p) * spec.element(p + 1)


def polynomial_tables(spec):
    """The exp/log builder that walked every power of g with one polynomial
    product, verbatim: the oracle of the block walk in ff._tables."""
    from array import array  # here, so that processes with no field work skip it

    p, m, n = spec.p, spec.modulus, spec.q - 1
    factors = ff.prime_factors(n)
    for i in range(1, spec.q):
        g = ff._coeffs(spec, i)
        if all(ff._poly_powmod(g, n // t, m, p) != (1,) for t in factors):
            break
    exp, log = array("l", [0]) * n, array("l", [0]) * spec.q
    x: tuple[int, ...] = (1,)
    for j in range(n):
        k = sum(c * p**i for i, c in enumerate(x))
        exp[j], log[k] = k, j
        x = ff._poly_mod(ff._poly_mul(x, g, p), m, p)
    if x != (1,) or log[1] != 0:
        raise SpecMismatch(f"modulus {m} is not irreducible over Z_{p}")
    return exp, log


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 49, 125, 31**3, 2**14])
def test_block_walk_tables_equal_the_polynomial_walk(q):
    spec = ff.field(q)
    assert ff._tables(spec) == polynomial_tables(spec)


@pytest.mark.parametrize("p,modulus", [(3, (2, 0, 1)), (3, (0, 0, 1)), (2, (1, 0, 1)),
                                       (2, (1, 0, 1, 0, 1)), (5, (4, 0, 0, 0, 1))])
def test_block_walk_and_polynomial_walk_refuse_reducible_moduli(p, modulus):
    """The three moduli above, (X^2 + X + 1)^2 over Z_2 and X^4 - 1 over Z_5,
    whose walks span several blocks."""
    d = len(modulus) - 1
    spec = ff.FieldSpec(p, d, modulus, p**d)
    for tables in (ff._tables, polynomial_tables):
        with pytest.raises(SpecMismatch):
            tables(spec)


# -- the polynomial presentation as the oracle of the table arithmetic -----------

def padded(c, d):
    c = tuple(c)
    return c + (0,) * (d - len(c))


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 49, 125])
def test_table_arithmetic_matches_polynomials(q):
    spec = ff.field(q)
    p, d, m = spec.p, spec.d, spec.modulus
    # element i is the residue whose coefficients are the base-p digits of i
    polys = [tuple(i // p**k % p for k in range(d)) for i in range(q)]
    index = {c: i for i, c in enumerate(polys)}

    def of(c):
        return index[padded(c, d)]

    elems = list(spec.elements())
    inverse = {}
    for a, pa in zip(elems, polys):
        assert (-a).index == of((-x) % p for x in pa)
        for b, pb in zip(elems, polys):
            assert (a + b).index == of((x + y) % p for x, y in zip(pa, pb))
            assert (a - b).index == of((x - y) % p for x, y in zip(pa, pb))
            prod = ff._poly_mod(ff._poly_mul(pa, pb, p), m, p)
            assert (a * b).index == of(prod)
            if prod == (1,):
                inverse[a.index] = b.index
    for a in elems[1:]:
        assert a.inverse().index == inverse[a.index]
        for e in (0, 1, 2, q - 2, q - 1, q, q + 3, 3 * q + 1):
            assert (a**e).index == of(ff._poly_powmod(polys[a.index], e, m, p))
            assert (a**-e).index == of(ff._poly_powmod(polys[inverse[a.index]], e, m, p))


def test_table_reads_do_not_hash_the_spec(monkeypatch):
    """The tables live on the spec, so arithmetic never hashes it."""
    spec = GF(7, 2)
    a, b = spec.element(10), spec.element(23)
    hashes = []
    monkeypatch.setattr(ff.FieldSpec, "__hash__", lambda self: hashes.append(self) or 0)
    for _ in range(10):
        a = a * b
        a = a ** 3
        assert a.log() < spec.q - 1
    assert spec.generator().multiplicative_order() == spec.q - 1
    assert hashes == []


# -- Frobenius, trace, norm ---------------------------------------------------

def test_frobenius_fixes_embedded_base_gf4():
    big, base = GF(2, 2), GF(2, 1)
    emb = ff.subfield_embedding(big, base)
    for a in base.elements():
        lifted = emb.lift(a)
        assert ff.frobenius(emb, lifted) == lifted


def test_frobenius_order_two_on_gf9():
    big, base = GF(3, 2), GF(3, 1)
    emb = ff.subfield_embedding(big, base)
    for a in big.elements():
        assert ff.frobenius(emb, ff.frobenius(emb, a)) == a
    # order exactly 2: some element moves
    assert any(ff.frobenius(emb, a) != a for a in big.elements())


def quad_ext(p: int) -> ff.FieldSpec:
    """GF(p^2) presented as Z_p[X]/(X^2 - d) for the smallest non-square d."""
    squares = {(x * x) % p for x in range(1, p)}
    d = next(x for x in range(2, p) if x not in squares)
    return ff.FieldSpec(p, 2, ((-d) % p, 0, 1), p * p), d


def test_frobenius_is_conjugation_on_quadratic_extension():
    big, d = quad_ext(7)
    base = GF(7, 1)
    emb = ff.subfield_embedding(big, base)
    for x in range(7):
        for y in range(7):
            a = big.from_coeffs((x, y))
            assert ff.frobenius(emb, a) == big.from_coeffs((x, (-y) % 7))


def test_trace_norm_formulas_on_quadratic_extension():
    big, d = quad_ext(7)
    emb = ff.subfield_embedding(big, GF(7, 1))
    for x in range(7):
        for y in range(7):
            a = big.from_coeffs((x, y))
            tr, nm = ff.trace_norm(emb, a)
            assert tr == big.from_coeffs(((2 * x) % 7, 0))
            assert nm == big.from_coeffs(((x * x - d * y * y) % 7, 0))


def test_trace_onto_with_uniform_fibers_gf4():
    big, base = GF(2, 2), GF(2, 1)
    emb = ff.subfield_embedding(big, base)
    fibers = {}
    for a in big.elements():
        tr, _ = ff.trace_norm(emb, a)
        fibers.setdefault(tr, []).append(a)
    assert len(fibers) == 2 and all(len(v) == 2 for v in fibers.values())


def test_norm_kernel_size_gf27():
    big, base = GF(3, 3), GF(3, 1)
    emb = ff.subfield_embedding(big, base)
    kernel = sum(1 for a in big.units() if ff.trace_norm(emb, a)[1] == big.one)
    assert kernel == (27 - 1) // (3 - 1)


def test_trace_norm_additive_multiplicative():
    big, base = GF(2, 4), GF(2, 2)
    emb = ff.subfield_embedding(big, base)
    rnd = random.Random(16)
    for _ in range(50):
        a = big.element(rnd.randrange(big.q))
        b = big.element(rnd.randrange(big.q))
        assert ff.trace_norm(emb, a + b)[0] == ff.trace_norm(emb, a)[0] + ff.trace_norm(emb, b)[0]
        assert ff.trace_norm(emb, a * b)[1] == ff.trace_norm(emb, a)[1] * ff.trace_norm(emb, b)[1]


# -- quadratic signature --------------------------------------------------------

def test_sigma_of_one():
    for q, spec in [(5, GF(5, 1)), (9, GF(3, 2))]:
        assert ff.quadratic_signature(spec, spec.one) == 1


@pytest.mark.parametrize("p,d", [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)])
def test_sigma_of_minus_one(p, d):
    spec = GF(p, d)
    expected = 1 if spec.q % 4 == 1 else -1
    assert ff.quadratic_signature(spec, -spec.one) == expected


def test_sigma_matches_square_table_gf13():
    spec = GF(13, 1)
    squares = {(x * x) % 13 for x in range(1, 13)}
    for a in range(13):
        expected = 0 if a == 0 else (1 if a in squares else -1)
        assert ff.quadratic_signature(spec, spec.element(a)) == expected


def test_sigma_even_characteristic_rejected():
    with pytest.raises(EvenCharacteristic):
        ff.quadratic_signature(GF(2, 2), GF(2, 2).one)


def test_convolution_gf5_zero():
    spec = GF(5, 1)
    assert ff.convolution_J(spec, spec.zero) == 4


def test_convolution_gf7_one():
    spec = GF(7, 1)
    # sigma(-1) = -1 for q = 7, so J_c = +1 off zero
    assert ff.convolution_J(spec, spec.one) == 1


def test_convolution_gf9_brute_force():
    spec = GF(3, 2)
    sig = {a: ff.quadratic_signature(spec, a) for a in spec.elements()}
    for c in spec.elements():
        brute = sum(sig[a] * sig[b] for a in spec.elements() for b in spec.elements()
                    if a + b == c)
        assert ff.convolution_J(spec, c) == brute


def test_conic_counts():
    f5, f7 = GF(5, 1), GF(7, 1)
    assert ff.count_conic(f5, f5.one, f5.one) == 4
    assert ff.count_conic(f7, f7.one, f7.one) == 8


def test_conic_gf9_brute_force():
    spec = GF(3, 2)
    rnd = random.Random(9)
    for _ in range(10):
        a = spec.element(rnd.randrange(1, spec.q))
        b = spec.element(rnd.randrange(1, spec.q))
        brute = sum(1 for x in spec.elements() for y in spec.elements()
                    if a * x * x + b * y * y == spec.one)
        assert ff.count_conic(spec, a, b) == brute
        assert brute == spec.q - ff.quadratic_signature(spec, -(a * b))


def test_jacobsthal_small_fields():
    assert set(ff.jacobsthal(GF(5, 1))) == {1, 2}
    assert set(ff.jacobsthal(GF(13, 1))) == {2, 3}
    a, b = ff.jacobsthal(GF(3, 2))  # q = 9: whichever pair emerges, recorded
    assert a * a + b * b == 9
    with pytest.raises(BadResidueClass):
        ff.jacobsthal(GF(7, 1))


def test_reciprocity_instances():
    assert ff.reciprocity_check(3, 5)
    assert ff.reciprocity_check(7, 11)
    # both = 3 mod 4: the symbols are opposite
    assert ff.legendre(7, 11) * ff.legendre(11, 7) == -1


def test_reciprocity_exhaustive_below_100():
    primes = [p for p in range(3, 100) if ff.prime_factors(p) == [p]]
    for p, ell in itertools.combinations(primes, 2):
        assert ff.reciprocity_check(p, ell)


def test_q_binomial_edges():
    assert ff.q_binomial(5, 0, 3) == 1
    assert ff.q_binomial(3, 1, 2) == 7
    with pytest.raises(IndexOutOfRange):
        ff.q_binomial(3, 4, 2)


@pytest.mark.parametrize("q", [1, 0, -2])
def test_q_binomial_refuses_q_below_2(q):
    with pytest.raises(BadParameters):
        ff.q_binomial(3, 1, q)


def subspace_count_oracle(n: int, k: int, q: int) -> int:
    """Exhaustive span enumeration over GF(q)^n (prime q only): grow
    subspaces one generator at a time, deduplicating the closed point sets."""
    vectors = list(itertools.product(range(q), repeat=n))
    zero = tuple(0 for _ in range(n))
    level = {frozenset([zero])}
    for _ in range(k):
        bigger = set()
        for space in level:
            for v in vectors:
                if v in space:
                    continue
                extended = set(space)
                for c in range(1, q):
                    for w in space:
                        extended.add(tuple((c * x + y) % q for x, y in zip(v, w)))
                bigger.add(frozenset(extended))
        level = bigger
    return len(level)


def test_q_binomial_4_2_3_subspace_enumeration():
    assert ff.q_binomial(4, 2, 3) == subspace_count_oracle(4, 2, 3)


@pytest.mark.parametrize("q", [2, 3])
def test_q_binomial_matches_brute_force(q):
    for n in range(1, 5):
        for k in range(n + 1):
            assert ff.q_binomial(n, k, q) == subspace_count_oracle(n, k, q)


def test_q_binomial_symmetry():
    for n in range(1, 6):
        for k in range(n + 1):
            for q in (2, 3, 4, 5):
                assert ff.q_binomial(n, k, q) == ff.q_binomial(n, n - k, q)


# -- module invariants ------------------------------------------------------------

@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (2, 4), (5, 2), (3, 3), (2, 5),
                                 (7, 2), (2, 6), (3, 4), (11, 2), (5, 3), (2, 7), (2, 11)])
def test_multiplicative_group_cyclic(p, d):
    spec = GF(p, d)
    assert spec.q <= 2048
    g = spec.generator()
    assert g.multiplicative_order() == spec.q - 1

    def order(a):  # by repeated multiplication, no pow shortcuts
        x, k = a, 1
        while x != spec.one:
            x, k = x * a, k + 1
        return k

    # the canonical generator is the unit of least index with order q - 1
    assert order(g) == spec.q - 1
    assert all(order(spec.element(i)) < spec.q - 1 for i in range(1, g.index))


@pytest.mark.parametrize("p,d", [(5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3), (7, 2),
                                 (11, 2), (13, 2)])
def test_sigma_multiplicative_all_pairs(p, d):
    spec = GF(p, d)
    sig = ff.signature_table(spec)
    for i in range(spec.q):
        for j in range(spec.q):
            prod = spec.element(i) * spec.element(j)
            assert sig[i] * sig[j] == sig[prod.index]


@pytest.mark.parametrize("p,d", [(5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3), (13, 2)])
def test_sigma_sums_to_zero(p, d):
    assert sum(ff.signature_table(GF(p, d))) == 0


@pytest.mark.parametrize("base,ext", [((3, 1), 2), ((3, 1), 3), ((5, 1), 2), ((3, 2), 2),
                                      ((5, 1), 3), ((7, 1), 2), ((3, 1), 6)])
def test_degree_parity_square_law(base, ext):
    small = GF(*base)
    big = GF(base[0], base[1] * ext)
    assert big.q <= 2048
    emb = ff.subfield_embedding(big, small)
    for a in small.units():
        sig_small = ff.quadratic_signature(small, a)
        sig_big = ff.quadratic_signature(big, emb.lift(a))
        assert sig_big == (1 if ext % 2 == 0 else sig_small)


@pytest.mark.parametrize("base,ext", [((2, 1), 2), ((3, 1), 2), ((2, 2), 2), ((3, 1), 3),
                                      ((5, 1), 2), ((2, 1), 4)])
def test_trace_fibers_uniform(base, ext):
    small = GF(*base)
    big = GF(base[0], base[1] * ext)
    emb = ff.subfield_embedding(big, small)
    fibers: dict = {}
    for a in big.elements():
        tr, _ = ff.trace_norm(emb, a)
        fibers.setdefault(tr, 0)
        fibers[tr] += 1
    assert len(fibers) == small.q
    assert set(fibers.values()) == {small.q ** (ext - 1)}


@pytest.mark.parametrize("big,base", [(125, 5), (27, 3), (729, 27), (81, 9), (4096, 16),
                                      (29791, 31)])
def test_trace_norm_table_matches_the_scalar_loop(big, base):
    """The table read from the exp and log tables against one trace_norm call
    per element, the way it was built before."""
    emb = ff.subfield_embedding(ff.field(big), ff.field(base))
    pairs = [ff.trace_norm(emb, a) for a in emb.big.elements()]
    assert emb.trace_norm_table == (tuple(tr.index for tr, _ in pairs),
                                    tuple(nm.index for _, nm in pairs))


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27, 49, 81, 125, 729, 1009])
def test_signature_table_matches_the_scalar_loop(q):
    spec = ff.field(q)
    expected = tuple(ff.quadratic_signature(spec, x) for x in spec.elements())
    assert ff.signature_table(spec) == expected


def test_signature_table_refuses_even_characteristic():
    with pytest.raises(EvenCharacteristic):
        ff.signature_table(GF(2, 3))


def test_lift_is_ring_homomorphism():
    big, base = GF(2, 4), GF(2, 2)
    emb = ff.subfield_embedding(big, base)
    assert emb.lift(base.one) == big.one
    images = set()
    for a in base.elements():
        for b in base.elements():
            assert emb.lift(a + b) == emb.lift(a) + emb.lift(b)
            assert emb.lift(a * b) == emb.lift(a) * emb.lift(b)
        images.add(emb.lift(a))
    assert len(images) == base.q  # injective


def test_field_spec_json_round_trip():
    spec = GF(3, 2)
    data = spec.to_json()
    assert data == {"p": 3, "d": 2, "modulus": [1, 0, 1]}
