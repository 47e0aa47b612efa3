"""Exact arithmetic in GF(p^d) and the square-counting results built on it.

Fields are realized as Z_p[X]/(f) for a deterministically chosen irreducible
modulus f, so that element indices, generators and graph labels derived from
them are reproducible across runs.  An element is its index; its products
are read from exp and log tables that are built once per field from the
polynomial presentation.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from typing import Iterator

from .errors import (
    BadParameters,
    BadResidueClass,
    DivisionByZero,
    EvenCharacteristic,
    FrozenRecord,
    IndexOutOfRange,
    NotPrime,
    SizeOverflow,
    SpecMismatch,
    ZeroCoefficient,
)

SIZE_CAP = 2**31


# -- integer helpers ---------------------------------------------------------

def _prime_divisors(n: int) -> Iterator[int]:
    """Distinct prime factors of n, ascending, by trial division: the least
    is n itself exactly when n is prime."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        yield n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    return list(_prime_divisors(n))


def prime_power_decomposition(n: int) -> tuple[int, int] | None:
    """Return (p, d) with n = p^d, or None if n is not a prime power."""
    ps = prime_factors(n)
    if len(ps) != 1:
        return None
    p, d = ps[0], 0
    while n > 1:
        n //= p
        d += 1
    return p, d


# -- polynomial arithmetic over Z_p ------------------------------------------
# Polynomials are tuples of coefficients, constant term first, no trailing
# zeros (the zero polynomial is the empty tuple).  They serve only to find the
# modulus and to build the exp and log tables.

def _trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - lead * m[i]) % p
        a.pop()
    return _trim(a)


def _poly_powmod(a: tuple[int, ...], e: int, m: tuple[int, ...], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = _poly_mod(a, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def _poly_gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    while b:
        inv = pow(b[-1], p - 2, p)
        monic = tuple((c * inv) % p for c in b)
        a, b = b, _poly_mod(a, monic, p)
    return a


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin test: f of degree d is irreducible over Z_p iff X^{p^d} = X mod f
    and gcd(X^{p^{d/t}} - X, f) = 1 for every prime t dividing d."""
    d = len(f) - 1
    if d == 1:
        return True
    if f[0] == 0:  # divisible by X
        return False
    x = (0, 1)
    for t in prime_factors(d):
        e = p ** (d // t)
        g = _poly_powmod(x, e, f, p)
        raw = [((g[i] if i < len(g) else 0) - (x[i] if i < len(x) else 0)) % p
               for i in range(max(len(g), 2))]
        diff = _trim(raw)
        if len(_poly_gcd(f, diff, p)) - 1 != 0:
            return False
    g = _poly_powmod(x, p**d, f, p)
    return g == x


# -- field spec and elements --------------------------------------------------

class FieldSpec(FrozenRecord):
    """GF(p^d) presented as Z_p[X]/(modulus); modulus coefficients are stored
    constant term first and include the leading 1.  Element i is the residue
    whose coefficients, constant term first, are the base-p digits of i."""

    _fields = ("p", "d", "modulus", "q")

    def __init__(self, p: int, d: int, modulus: tuple[int, ...], q: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "q", q)

    def element(self, index: int) -> "FieldElement":
        """Element with the given canonical index."""
        if not 0 <= index < self.q:
            raise SpecMismatch(f"index {index} outside field of size {self.q}")
        return FieldElement(self, index)

    def from_coeffs(self, coeffs) -> "FieldElement":
        """Residue of the polynomial with these coefficients, constant term first."""
        # The class of X has index p, or 0 in a prime field, whose modulus is X.
        return evaluate(coeffs, FieldElement(self, self.p % self.q))

    def from_int(self, n: int) -> "FieldElement":
        """Image of the integer n under Z -> GF(p^d) (constant polynomial)."""
        return FieldElement(self, n % self.p)

    @cached_property
    def tables(self):
        """(exp, log) tables of the field, built on first use; see _tables.
        Held on the spec, so that a table read costs no hash of the spec."""
        return _tables(self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.q):
            yield FieldElement(self, i)

    def units(self) -> Iterator["FieldElement"]:
        for i in range(1, self.q):
            yield FieldElement(self, i)

    def generator(self) -> "FieldElement":
        """Canonical generator of the multiplicative group: the element of
        smallest index with order q - 1."""
        exp, _ = self.tables
        return FieldElement(self, exp[1 % len(exp)])  # in GF(2), exp is [1]

    def to_json(self) -> dict:
        return {"p": self.p, "d": self.d, "modulus": list(self.modulus)}

    def __repr__(self) -> str:
        return f"GF({self.q})"


class FieldElement(FrozenRecord):
    """An element of a field spec, held as its canonical index.  Addition is
    digit-wise in base p; multiplication reads the spec's exp and log tables."""

    _fields = ("spec", "index")

    def __init__(self, spec: FieldSpec, index: int):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "index", index)

    def is_zero(self) -> bool:
        return self.index == 0

    def _check(self, other: "FieldElement") -> None:
        if other.spec is not self.spec and other.spec != self.spec:
            raise SpecMismatch("elements from different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.spec, _add_digits(self.index, other.index, self.spec.p, 1))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.spec, _add_digits(self.index, other.index, self.spec.p, -1))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.spec, _add_digits(0, self.index, self.spec.p, -1))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        if not self.index or not other.index:
            return FieldElement(self.spec, 0)
        exp, log = self.spec.tables
        return FieldElement(self.spec, exp[(log[self.index] + log[other.index]) % len(exp)])

    def inverse(self) -> "FieldElement":
        return self ** -1

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if not self.index:
            if e < 0:
                raise DivisionByZero("zero has no multiplicative inverse")
            return FieldElement(self.spec, 0 if e else 1)
        exp, log = self.spec.tables
        return FieldElement(self.spec, exp[log[self.index] * e % len(exp)])

    def log(self) -> int:
        """Discrete logarithm base the canonical generator, in [0, q - 1)."""
        if not self.index:
            raise DivisionByZero("zero has no discrete logarithm")
        return self.spec.tables[1][self.index]

    def multiplicative_order(self) -> int:
        n = self.spec.q - 1
        return n // math.gcd(self.log(), n)

    def __repr__(self) -> str:
        return f"{self.spec!r}[{self.index}]"


def _add_digits(a: int, b: int, p: int, sign: int) -> int:
    """Index of a + sign * b, added digit by digit in base p."""
    out, place = 0, 1
    while a or b:
        out += (a + sign * b) % p * place
        a, b, place = a // p, b // p, place * p
    return out


def _coeffs(spec: FieldSpec, index: int) -> tuple[int, ...]:
    """Coefficients of element ``index``, constant term first."""
    return tuple(index // spec.p**i % spec.p for i in range(spec.d))


def evaluate(coeffs, x: FieldElement) -> FieldElement:
    """sum c_i x^i by Horner's rule, constant term first; integer
    coefficients are read through Z -> GF(p^d)."""
    spec = x.spec
    acc = spec.zero
    for c in reversed(coeffs):
        acc = acc * x + (c if isinstance(c, FieldElement) else spec.from_int(c))
    return acc


def _tables(spec: FieldSpec) -> tuple[memoryview, memoryview]:
    """(exp, log) base the canonical generator g: exp[j] is the index of g^j
    and log[exp[j]] = j (log[0] is unused).  Each is a read-only memoryview of
    a C-long numpy array: indexing it gives a Python int, and np.asarray or
    np.frombuffer reads it without a copy.

    g is the unit of least index whose order is q - 1 by the prime-factor
    test.  When d > 1 the search starts at index p: the units of GF(p), at
    indices 1 to p - 1, have orders dividing p - 1 < q - 1.  Multiplying by g
    is Z_p-linear on coefficient vectors, so the first b ~ sqrt(q - 1) powers
    are walked with polynomial arithmetic and each later block of b powers is
    the block before times g^b.  The walk must hit each of the q - 1 nonzero
    elements once, which makes every one a unit and so g^(q-1) = 1; a walk
    that misses one means the modulus is reducible."""
    import numpy as np

    p, d, m, n = spec.p, spec.d, spec.modulus, spec.q - 1
    factors = prime_factors(n)
    for i in range(1 if d == 1 else p, spec.q):
        g = _coeffs(spec, i)
        if all(_poly_powmod(g, n // t, m, p) != (1,) for t in factors):
            break

    def vector(c):
        return c + (0,) * (d - len(c))

    b = math.isqrt(n) + 1
    powers = [(1,)]
    for _ in range(b):
        powers.append(_poly_mod(_poly_mul(powers[-1], g, p), m, p))
    # row i holds X^i g^b, so that a row vector x maps to x g^b
    step = np.array([vector(_poly_mod((0,) * i + powers[b], m, p)) for i in range(d)])
    block = np.array([vector(x) for x in powers[:b]])
    digits = p ** np.arange(d)
    exp = np.empty(-(-n // b) * b, dtype="l")  # C longs
    for start in range(0, n, b):
        exp[start:start + b] = block @ digits
        block = block @ step % p
    exp = exp[:n]
    seen = np.zeros(spec.q, dtype=bool)
    seen[exp] = True
    if not seen[1:].all():
        raise SpecMismatch(f"modulus {m} is not irreducible over Z_{p}")
    log = np.zeros(spec.q, dtype="l")
    log[exp] = np.arange(n)
    return memoryview(exp).toreadonly(), memoryview(log).toreadonly()


@lru_cache(maxsize=None)
def construct_field(p: int, d: int) -> FieldSpec:
    """Build GF(p^d) with the lexicographically smallest monic irreducible
    modulus (coefficients compared constant term first). For d = 1 the modulus
    is X itself."""
    if next(_prime_divisors(p), None) != p:
        raise NotPrime(f"{p} is not prime")
    if d < 1:
        raise SpecMismatch("extension degree must be positive")
    q = p**d
    if q > SIZE_CAP:
        raise SizeOverflow(f"p^d = {q} exceeds {SIZE_CAP}")
    if d == 1:
        return FieldSpec(p, 1, (0, 1), p)
    # Low coefficients vary slowest, so the first hit is lexicographically
    # smallest under constant-term-first comparison.
    for low in itertools.product(range(p), repeat=d):
        f = low + (1,)
        if _is_irreducible(f, p):
            return FieldSpec(p, d, f, q)
    raise SpecMismatch("no irreducible polynomial found")  # unreachable


def field(q: int) -> FieldSpec:
    """GF(q), for a prime power q."""
    pp = prime_power_decomposition(q)
    if pp is None:
        raise BadParameters(f"{q} is not a prime power")
    return construct_field(*pp)


# -- subfield embeddings ------------------------------------------------------

class SubfieldEmbedding(FrozenRecord):
    """F = GF(q) sitting inside K = GF(q^n).

    The lift sends the class of X in F's presentation to the enumeration-least
    root of F's modulus inside K, which pins an injective ring homomorphism.
    """

    _fields = ("big", "base", "image_of_x")

    def __init__(self, big: FieldSpec, base: FieldSpec, image_of_x: FieldElement):
        object.__setattr__(self, "big", big)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "image_of_x", image_of_x)

    @property
    def degree(self) -> int:
        return self.big.d // self.base.d

    @cached_property
    def trace_norm_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(traces, norms): the relative trace and norm index of each big-field
        element, by index, on first use.  N a = a^((Q-1)/(q-1)) for Q = |K|,
        q = |F|, read from the exp and log tables; N 0 = Tr 0 = 0."""
        import numpy as np

        exp, log = (np.frombuffer(t, dtype="l") for t in self.big.tables)
        logs, order = log[1:], self.big.q - 1
        norms = exp[logs * (order // (self.base.q - 1)) % order]
        return (0, *self.power_traces(logs).tolist()), (0, *norms.tolist())

    def power_traces(self, exponents):
        """The relative trace index of g^e for each e in the integer array
        exponents, g the big field's generator, in the array's shape: the sum
        of g^(e q^i) over i below the degree, each read from the exp table and
        added digit by digit in base p."""
        import numpy as np

        exp = np.frombuffer(self.big.tables[0], dtype="l")
        p, order = self.big.p, self.big.q - 1
        place = p ** np.arange(self.big.d)
        power = exponents % order
        digits = np.zeros(power.shape + place.shape, dtype=np.int64)
        for _ in range(self.degree):
            digits += exp[power][..., None] // place % p
            power = power * self.base.q % order
        return digits % p @ place

    def lift(self, a: FieldElement) -> FieldElement:
        if a.spec != self.base:
            raise SpecMismatch("element not in the base field")
        return evaluate(_coeffs(self.base, a.index), self.image_of_x)


@lru_cache(maxsize=None)
def subfield_embedding(big: FieldSpec, base: FieldSpec) -> SubfieldEmbedding:
    if big.p != base.p or big.d % base.d != 0:
        raise SpecMismatch(f"{base!r} does not embed in {big!r}")
    for cand in big.elements():
        if evaluate(base.modulus, cand).is_zero():
            return SubfieldEmbedding(big, base, cand)
    raise SpecMismatch("modulus has no root in the big field")  # unreachable


def frobenius(emb: SubfieldEmbedding, a: FieldElement) -> FieldElement:
    """Frobenius of K over F: a -> a^q with q = |F|."""
    if a.spec != emb.big:
        raise SpecMismatch("element not in the big field")
    return a ** emb.base.q


def trace_norm(emb: SubfieldEmbedding, a: FieldElement) -> tuple[FieldElement, FieldElement]:
    """Relative trace and norm of a, returned as elements of the big field
    (they land in the embedded base field)."""
    if a.spec != emb.big:
        raise SpecMismatch("element not in the big field")
    tr = emb.big.zero
    nm = emb.big.one
    power = a
    for _ in range(emb.degree):
        tr = tr + power
        nm = nm * power
        power = frobenius(emb, power)
    return tr, nm


# -- squares ------------------------------------------------------------------

def quadratic_signature(spec: FieldSpec, a: FieldElement) -> int:
    """Euler formula: a^((q-1)/2) mapped to {-1, 0, +1}."""
    if spec.q % 2 == 0:
        raise EvenCharacteristic("quadratic signature needs odd q")
    if a.spec != spec:
        raise SpecMismatch("element not in the given field")
    if a.is_zero():
        return 0
    v = a ** ((spec.q - 1) // 2)
    return 1 if v == spec.one else -1


@lru_cache(maxsize=None)
def signature_table(spec: FieldSpec) -> tuple[int, ...]:
    """sigma indexed by canonical element index: +1 on the even powers of the
    generator, -1 on the odd ones and 0 at zero."""
    if spec.q % 2 == 0:
        raise EvenCharacteristic("quadratic signature needs odd q")
    log = spec.tables[1]
    return (0, *(1 - 2 * (log[i] % 2) for i in range(1, spec.q)))


def convolution_J(spec: FieldSpec, c: FieldElement) -> int:
    """J_c = sum over a+b=c of sigma(a) sigma(b)."""
    if spec.q % 2 == 0:
        raise EvenCharacteristic("J_c needs odd q")
    sig = signature_table(spec)
    return sum(sig[a.index] * sig[(c - a).index] for a in spec.elements())


def count_conic(spec: FieldSpec, a: FieldElement, b: FieldElement) -> int:
    """Number of solutions (x, y) of a x^2 + b y^2 = 1."""
    if spec.q % 2 == 0:
        raise EvenCharacteristic("conic count needs odd q")
    if a.is_zero() or b.is_zero():
        raise ZeroCoefficient("conic coefficients must be non-zero")
    sig = signature_table(spec)
    binv = b.inverse()
    total = 0
    for x in spec.elements():
        r = (spec.one - a * x * x) * binv
        total += 1 + sig[r.index]
    return total


def jacobsthal(spec: FieldSpec) -> tuple[int, int]:
    """Halved absolute values (A, B) of S(a) = sum sigma(x^3 + a x) on a square
    and on a non-square a; they satisfy A^2 + B^2 = q."""
    if spec.q % 4 != 1:
        raise BadResidueClass("Jacobsthal sums need q = 1 mod 4")
    sig = signature_table(spec)

    def s(a: FieldElement) -> int:
        return sum(sig[(x * x * x + a * x).index] for x in spec.elements())

    g = spec.generator()
    a_val = abs(s(spec.one)) // 2       # 1 is a square
    b_val = abs(s(g)) // 2              # a generator is never a square
    return a_val, b_val


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's formula."""
    if p == 2 or next(_prime_divisors(p), None) != p:
        raise NotPrime(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    v = pow(a, (p - 1) // 2, p)
    return 1 if v == 1 else -1


def reciprocity_check(p: int, ell: int) -> bool:
    """Quadratic reciprocity instance: (p/ell)(ell/p) = (-1)^((p-1)(ell-1)/4)."""
    if p == ell or p == 2 or ell == 2:
        raise NotPrime("need distinct odd primes")
    lhs = legendre(p, ell) * legendre(ell, p)
    rhs = (-1) ** (((p - 1) * (ell - 1)) // 4)
    return lhs == rhs


def q_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-space over GF(q)."""
    if not 0 <= k <= n:
        raise IndexOutOfRange(f"need 0 <= k <= n, got ({n}, {k})")
    if q < 2:
        raise BadParameters(f"need q >= 2, got {q}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den
