"""Exact arithmetic in GF(p^d) and the square-counting results built on it.

Fields are realized as Z_p[X]/(f) for a deterministically chosen irreducible
modulus f, so that element indices, generators and graph labels derived from
them are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import (
    BadResidueClass,
    DivisionByZero,
    EvenCharacteristic,
    IndexOutOfRange,
    NotPrime,
    SizeOverflow,
    SpecMismatch,
    ZeroCoefficient,
)

SIZE_CAP = 2**31


# -- integer helpers ---------------------------------------------------------

def is_prime(n: int) -> bool:
    """Primality by trial division; inputs here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power_decomposition(n: int) -> tuple[int, int] | None:
    """Return (p, d) with n = p^d, or None if n is not a prime power."""
    if n < 2:
        return None
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
# zeros (the zero polynomial is the empty tuple).

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

@dataclass(frozen=True)
class FieldSpec:
    """GF(p^d) presented as Z_p[X]/(modulus); modulus coefficients are stored
    constant term first and include the leading 1."""

    p: int
    d: int
    modulus: tuple[int, ...]
    q: int

    def element(self, index: int) -> "FieldElement":
        """Element with the given canonical index (base-p digits = coefficients)."""
        if not 0 <= index < self.q:
            raise SpecMismatch(f"index {index} outside field of size {self.q}")
        coeffs, n = [], index
        for _ in range(self.d):
            coeffs.append(n % self.p)
            n //= self.p
        return FieldElement(self, tuple(coeffs))

    def from_coeffs(self, coeffs) -> "FieldElement":
        c = [x % self.p for x in coeffs]
        if len(c) > self.d:
            c = list(_poly_mod(tuple(c), self.modulus, self.p))
        c += [0] * (self.d - len(c))
        return FieldElement(self, tuple(c[: self.d]))

    def from_int(self, n: int) -> "FieldElement":
        """Image of the integer n under Z -> GF(p^d) (constant polynomial)."""
        return self.from_coeffs([n])

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.d)

    @property
    def one(self) -> "FieldElement":
        return self.from_int(1)

    def elements(self) -> Iterator["FieldElement"]:
        for i in range(self.q):
            yield self.element(i)

    def units(self) -> Iterator["FieldElement"]:
        for i in range(1, self.q):
            yield self.element(i)

    def generator(self) -> "FieldElement":
        """Canonical generator of the multiplicative group: the element of
        smallest index with order q - 1."""
        return _generator(self)

    def to_json(self) -> dict:
        return {"p": self.p, "d": self.d, "modulus": list(self.modulus)}

    def __repr__(self) -> str:
        return f"GF({self.q})"


@dataclass(frozen=True)
class FieldElement:
    spec: FieldSpec
    coeffs: tuple[int, ...]

    @property
    def index(self) -> int:
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.spec.p + c
        return n

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: "FieldElement") -> None:
        if self.spec != other.spec:
            raise SpecMismatch("elements from different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        prod = _poly_mul(_trim(list(self.coeffs)), _trim(list(other.coeffs)), self.spec.p)
        return self.spec.from_coeffs(_poly_mod(prod, self.spec.modulus, self.spec.p))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("zero has no multiplicative inverse")
        return self ** (self.spec.q - 2)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.spec.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def multiplicative_order(self) -> int:
        if self.is_zero():
            raise DivisionByZero("zero has no multiplicative order")
        n = self.spec.q - 1
        for prime in prime_factors(n):
            while n % prime == 0 and (self ** (n // prime)) == self.spec.one:
                n //= prime
        return n

    def __repr__(self) -> str:
        return f"{self.spec!r}[{self.index}]"


@lru_cache(maxsize=None)
def construct_field(p: int, d: int) -> FieldSpec:
    """Build GF(p^d) with the lexicographically smallest monic irreducible
    modulus (coefficients compared constant term first). For d = 1 the modulus
    is X itself."""
    if not is_prime(p):
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
    def candidates():
        idx = 0
        while idx < q:
            n, c = idx, []
            for _ in range(d):
                c.append(n % p)
                n //= p
            yield tuple(reversed(c)) + (1,)
            idx += 1

    for f in candidates():
        if _is_irreducible(f, p):
            return FieldSpec(p, d, f, q)
    raise SpecMismatch("no irreducible polynomial found")  # unreachable


@lru_cache(maxsize=None)
def _generator(spec: FieldSpec) -> FieldElement:
    for i in range(1, spec.q):
        g = spec.element(i)
        if g.multiplicative_order() == spec.q - 1:
            return g
    raise SpecMismatch("multiplicative group not cyclic")  # unreachable


# -- subfield embeddings ------------------------------------------------------

@dataclass(frozen=True)
class SubfieldEmbedding:
    """F = GF(q) sitting inside K = GF(q^n).

    The lift sends the class of X in F's presentation to the enumeration-least
    root of F's modulus inside K, which pins an injective ring homomorphism.
    """

    big: FieldSpec
    base: FieldSpec
    image_of_x: FieldElement

    @property
    def degree(self) -> int:
        return self.big.d // self.base.d

    def lift(self, a: FieldElement) -> FieldElement:
        if a.spec != self.base:
            raise SpecMismatch("element not in the base field")
        out = self.big.zero
        xp = self.big.one
        for c in a.coeffs:
            if c:
                out = out + self.big.from_int(c) * xp
            xp = xp * self.image_of_x
        return out

    def in_base_image(self, a: FieldElement) -> bool:
        """Whether a lies in the embedded copy of the base field."""
        return frobenius(self, a) == a


@lru_cache(maxsize=None)
def subfield_embedding(big: FieldSpec, base: FieldSpec) -> SubfieldEmbedding:
    if big.p != base.p or big.d % base.d != 0:
        raise SpecMismatch(f"{base!r} does not embed in {big!r}")
    if base.d == 1:
        return SubfieldEmbedding(big, base, big.zero)
    for cand in big.elements():
        acc = big.zero
        xp = big.one
        for c in base.modulus:
            if c:
                acc = acc + big.from_int(c) * xp
            xp = xp * cand
        if acc.is_zero():
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


def absolute_trace(a: FieldElement) -> int:
    """Trace down to the prime field, as an integer in [0, p)."""
    spec = a.spec
    tr = spec.zero
    power = a
    for _ in range(spec.d):
        tr = tr + power
        power = power**spec.p
    return tr.coeffs[0]


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
    """sigma indexed by canonical element index."""
    return tuple(quadratic_signature(spec, x) for x in spec.elements())


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
    if not is_prime(p) or p == 2:
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
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den
