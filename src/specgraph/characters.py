"""Additive and multiplicative characters of finite fields, and the four
classical character sums (Gauss, Jacobi, Eisenstein, Kloosterman) together
with empirical checks of the Weil-type magnitude bounds.

Characters are indexed deterministically: additive ones by a twist element t
(psi_t(x) = exp(2 pi i AbsTr(t x) / p)), multiplicative ones by an exponent k
modulo q-1 relative to the canonical generator of the field.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HypothesisViolated, SpecMismatch, ZeroElement
from .finite_field import (
    FieldElement,
    FieldSpec,
    SubfieldEmbedding,
    construct_field,
    evaluate,
    subfield_embedding,
)

MAGNITUDE_TOL = 1e-9


def _absolute_traces(spec: FieldSpec) -> tuple[int, ...]:
    """AbsTr in [0, p) of every element, by index."""
    return subfield_embedding(spec, construct_field(spec.p, 1)).trace_norm_table[0]


@lru_cache(maxsize=None)
def _roots_of_unity(n: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * k / n) for k in range(n))


@dataclass(frozen=True)
class AdditiveCharacter:
    """psi_t with psi_t(x) = exp(2 pi i AbsTr(t x) / p); t = 0 is trivial."""

    spec: FieldSpec
    twist: FieldElement

    def __post_init__(self):
        if self.twist.spec != self.spec:
            raise SpecMismatch("twist must live in the character's field")

    @property
    def is_trivial(self) -> bool:
        return self.twist.is_zero()

    def __call__(self, x: FieldElement) -> complex:
        if x.spec != self.spec:
            raise SpecMismatch("argument not in the character's field")
        tr = _absolute_traces(self.spec)[(self.twist * x).index]
        return _roots_of_unity(self.spec.p)[tr]

    def conjugate(self) -> "AdditiveCharacter":
        return AdditiveCharacter(self.spec, -self.twist)


@dataclass(frozen=True)
class MultiplicativeCharacter:
    """chi_k with chi_k(g^j) = exp(2 pi i k j / (q-1)); extended to 0 by the
    convention chi_k(0) = 0 for k != 0 and chi_0(0) = 1."""

    spec: FieldSpec
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % (self.spec.q - 1))

    @property
    def is_trivial(self) -> bool:
        return self.exponent == 0

    @property
    def order(self) -> int:
        n = self.spec.q - 1
        return n // math.gcd(self.exponent, n)

    def __call__(self, x: FieldElement) -> complex:
        if x.spec != self.spec:
            raise SpecMismatch("argument not in the character's field")
        if x.is_zero():
            return 1.0 + 0j if self.is_trivial else 0j
        n = self.spec.q - 1
        return _roots_of_unity(n)[(self.exponent * x.log()) % n]

    def conjugate(self) -> "MultiplicativeCharacter":
        return MultiplicativeCharacter(self.spec, -self.exponent)

    def __mul__(self, other: "MultiplicativeCharacter") -> "MultiplicativeCharacter":
        if other.spec != self.spec:
            raise SpecMismatch("characters of different fields")
        return MultiplicativeCharacter(self.spec, self.exponent + other.exponent)


def trivial_additive(spec: FieldSpec) -> AdditiveCharacter:
    return AdditiveCharacter(spec, spec.zero)


def trivial_multiplicative(spec: FieldSpec) -> MultiplicativeCharacter:
    return MultiplicativeCharacter(spec, 0)


def quadratic_character(spec: FieldSpec) -> MultiplicativeCharacter:
    """The quadratic signature as a character, chi_{(q-1)/2}; q must be odd."""
    if spec.q % 2 == 0:
        raise SpecMismatch("quadratic character needs odd q")
    return MultiplicativeCharacter(spec, (spec.q - 1) // 2)


def additive_characters(spec: FieldSpec):
    for t in spec.elements():
        yield AdditiveCharacter(spec, t)


def multiplicative_characters(spec: FieldSpec):
    for k in range(spec.q - 1):
        yield MultiplicativeCharacter(spec, k)


# -- character sums -----------------------------------------------------------

def gauss_sum(psi: AdditiveCharacter, chi: MultiplicativeCharacter) -> complex:
    """G(psi, chi) = sum over s in F* of psi(s) chi(s)."""
    if psi.spec != chi.spec:
        raise SpecMismatch("characters of different fields")
    return sum(psi(s) * chi(s) for s in psi.spec.units())


def jacobi_sum(chi1: MultiplicativeCharacter, chi2: MultiplicativeCharacter) -> complex:
    """J(chi1, chi2) = sum over s+t=1 of chi1(s) chi2(t)."""
    if chi1.spec != chi2.spec:
        raise SpecMismatch("characters of different fields")
    spec = chi1.spec
    one = spec.one
    return sum(chi1(s) * chi2(one - s) for s in spec.elements())


def eisenstein_sum(emb: SubfieldEmbedding, chi: MultiplicativeCharacter,
                   singular: bool = False) -> complex:
    """E(chi) = sum of chi over the fiber Tr = 1 of the relative trace, or the
    singular variant E0(chi) over the punctured fiber Tr = 0."""
    if chi.spec != emb.big:
        raise SpecMismatch("character must live on the big field")
    traces = emb.trace_norm_table[0]
    target = 0 if singular else 1  # units only: Tr(0) = 0 != 1, and E0's fibre is punctured
    return sum((chi(s) for s in emb.big.units() if traces[s.index] == target), 0j)


def restrict_to_base(emb: SubfieldEmbedding, chi: MultiplicativeCharacter) -> MultiplicativeCharacter:
    """The multiplicative character of the base field obtained by restricting
    chi along the embedding."""
    if chi.spec != emb.big:
        raise SpecMismatch("character must live on the big field")
    # lift(g) lies in F*, the subgroup of K* of index r = (Q-1)/(q-1), so its
    # log L is a multiple of r and chi_k(lift(g)) = exp(2 pi i (k L/r) / (q-1))
    r = (emb.big.q - 1) // (emb.base.q - 1)
    log = emb.lift(emb.base.generator()).log()
    return MultiplicativeCharacter(emb.base, chi.exponent * log // r)


def induce_additive(emb: SubfieldEmbedding, psi: AdditiveCharacter) -> AdditiveCharacter:
    """psi o Tr as an additive character of the big field.

    Transitivity of the trace makes the induced character psi_{lift(t)}.
    """
    if psi.spec != emb.base:
        raise SpecMismatch("character must live on the base field")
    return AdditiveCharacter(emb.big, emb.lift(psi.twist))


def kloosterman_sum(psi1: AdditiveCharacter, psi2: AdditiveCharacter) -> complex:
    """K(psi1, psi2) = sum over st=1 of psi1(s) psi2(t)."""
    if psi1.spec != psi2.spec:
        raise SpecMismatch("characters of different fields")
    return sum(psi1(s) * psi2(s.inverse()) for s in psi1.spec.units())


def norm_restricted_sum(emb: SubfieldEmbedding, psi: AdditiveCharacter) -> tuple[complex, float, bool]:
    """S(psi) = sum of psi over the norm-one fiber, with the Deligne bound
    n q^((n-1)/2) checked empirically."""
    if psi.spec != emb.big:
        raise SpecMismatch("character must live on the big field")
    norms = emb.trace_norm_table[1]
    total = sum(psi(s) for s in emb.big.units() if norms[s.index] == 1)
    n = emb.degree
    bound = n * emb.base.q ** ((n - 1) / 2)
    return total, bound, abs(total) <= bound + MAGNITUDE_TOL


# -- character tables: every sum of one kind, each bit for bit the scalar sum ----

def _roots(n: int, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of _roots_of_unity(n) at the given exponents."""
    roots = np.array(_roots_of_unity(n))
    return roots.real[exponents], roots.imag[exponents]


def _sums(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Row sums of the terms re + i im, added left to right from 0.0 as sum()
    adds them (np.sum adds pairwise)."""
    start = np.zeros((len(re), 1))
    out = np.empty(len(re), complex)
    out.real, out.imag = (np.cumsum(np.hstack((start, x)), axis=1)[:, -1] for x in (re, im))
    return out


def _pair_sums(a, b) -> np.ndarray:
    """[i, j]: the sum of the terms a[i] b[j], over the last axis of (re, im)
    arrays.  Products in real arithmetic round as Python's complex product
    (numpy's may not); a row of a at a time keeps the arrays at b's size."""
    (ar, ai), (br, bi) = a, b
    return np.array([_sums(x * br - y * bi, x * bi + y * br) for x, y in zip(ar, ai)])


def _twisted_units(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """psi_t(s) as (re, im), over twists t (rows) and units s (columns)."""
    exp, log = (np.asarray(a) for a in spec.tables)
    product = np.zeros((spec.q, spec.q - 1), dtype=np.int64)  # index of t s; 0 for t = 0
    product[1:] = exp[np.add.outer(log[1:], log[1:]) % (spec.q - 1)]
    return _roots(spec.p, np.asarray(_absolute_traces(spec))[product])


def _multiplicative(spec: FieldSpec, indices) -> tuple[np.ndarray, np.ndarray]:
    """chi_k(s) as (re, im), over exponents k (rows) and the elements of the
    given indices (columns); a column for 0 is left for the caller to set."""
    n = spec.q - 1
    return _roots(n, np.multiply.outer(np.arange(n), np.asarray(spec.tables[1])[indices]) % n)


def gauss_table(spec: FieldSpec) -> np.ndarray:
    """G(psi_t, chi_k) at [t, k], as gauss_sum gives it."""
    return _pair_sums(_twisted_units(spec), _multiplicative(spec, np.arange(1, spec.q)))


def jacobi_table(spec: FieldSpec) -> np.ndarray:
    """J(chi_k1, chi_k2) at [k1, k2], as jacobi_sum gives it."""
    re, im = _multiplicative(spec, np.arange(spec.q))
    re[:, 0], im[:, 0] = 0.0, 0.0  # chi_k(0) = 0, but chi_0(0) = 1
    re[0, 0] = 1.0
    one_minus = [(spec.one - s).index for s in spec.elements()]
    return _pair_sums((re, im), (re[:, one_minus], im[:, one_minus]))


def kloosterman_table(spec: FieldSpec) -> np.ndarray:
    """K(psi_t1, psi_t2) at [t1 - 1, t2 - 1], as kloosterman_sum gives it."""
    exp, log = (np.asarray(a) for a in spec.tables)
    re, im = _twisted_units(spec)
    inverse = exp[-log[1:] % (spec.q - 1)] - 1  # column of 1/s
    return _pair_sums((re[1:], im[1:]), (re[1:, inverse], im[1:, inverse]))


def eisenstein_table(emb: SubfieldEmbedding) -> np.ndarray:
    """E(chi_k) of the big field's characters at [k], as eisenstein_sum gives it."""
    fibre = np.flatnonzero(np.asarray(emb.trace_norm_table[0]) == 1)
    return _sums(*_multiplicative(emb.big, fibre))


# -- Weil bound on polynomial character sums -----------------------------------

@dataclass
class WeilReport:
    magnitude: float
    bound: float
    passed: bool
    hypothesis_checked: bool


def _as_field_poly(spec: FieldSpec, f) -> list[FieldElement]:
    out = []
    for c in f:
        out.append(spec.from_int(c) if isinstance(c, int) else c)
    if not out or out[-1] != spec.one:
        raise SpecMismatch("polynomial must be monic")
    return out


def polynomial_character_sum(spec: FieldSpec, f, char) -> complex:
    """Raw sum of char(f(s)) over all s in F, with no hypothesis checks."""
    poly = _as_field_poly(spec, f)
    return sum(char(evaluate(poly, s)) for s in spec.elements())


def _is_mth_power(spec: FieldSpec, poly: list[FieldElement], m: int) -> bool:
    """Exhaustive check whether the monic poly equals g^m; desk scale only."""
    deg = len(poly) - 1
    if m <= 1:
        return m == 1
    if deg % m != 0:
        return False
    # every monic g of degree deg / m, by its lower coefficients
    for low in itertools.product(range(spec.q), repeat=deg // m):
        g = [spec.element(i) for i in low] + [spec.one]
        acc = [spec.one]
        for _ in range(m):
            new = [spec.zero] * (len(acc) + len(g) - 1)
            for i, a in enumerate(acc):
                for j, b in enumerate(g):
                    new[i + j] = new[i + j] + a * b
            acc = new
        if acc == poly:
            return True
    return False


WEIL_EXHAUSTIVE_Q = 169
WEIL_EXHAUSTIVE_DEG = 4


def weil_poly_check(spec: FieldSpec, f, char) -> WeilReport:
    """Weil's polynomial character sum bound |sum char(f(s))| <= (d-1) sqrt(q).

    The multiplicative hypothesis (f not an m-th power, m the order of chi) is
    verified exhaustively at desk scale; the additive hypothesis (deg coprime
    to q) is always checked.  A testable violation raises HypothesisViolated.
    """
    poly = _as_field_poly(spec, f)
    deg = len(poly) - 1
    if deg < 1:
        raise SpecMismatch("polynomial must have degree >= 1")
    checked = True
    if isinstance(char, MultiplicativeCharacter):
        if char.is_trivial:
            raise HypothesisViolated("multiplicative character must be non-trivial")
        m = char.order
        if spec.q <= WEIL_EXHAUSTIVE_Q and deg <= WEIL_EXHAUSTIVE_DEG:
            if _is_mth_power(spec, poly, m):
                raise HypothesisViolated(f"f is an {m}-th power")
        else:
            checked = False
    elif isinstance(char, AdditiveCharacter):
        if char.is_trivial:
            raise HypothesisViolated("additive character must be non-trivial")
        if math.gcd(deg, spec.q) != 1:
            raise HypothesisViolated(f"deg f = {deg} shares a factor with q = {spec.q}")
    else:
        raise SpecMismatch("char must be a field character")
    total = polynomial_character_sum(spec, poly, char)
    magnitude = abs(total)
    bound = (deg - 1) * math.sqrt(spec.q)
    return WeilReport(magnitude, bound, magnitude <= bound + MAGNITUDE_TOL, checked)


def dth_power_count(spec: FieldSpec, d: int, a: FieldElement) -> int:
    """|{h : h^d = a}| computed by the character sum over chi with chi^d
    trivial, cross-checked against exhaustive counting."""
    if a.is_zero():
        raise ZeroElement("a must be non-zero")
    if a.spec != spec:
        raise SpecMismatch("element not in the given field")
    n = spec.q - 1
    g = math.gcd(d, n)
    step = n // g
    total = sum(MultiplicativeCharacter(spec, j * step)(a) for j in range(g))
    by_chars = round(total.real)
    if abs(total - by_chars) > 1e-6:
        raise SpecMismatch("character sum failed to land on an integer")
    exhaustive = sum(1 for h in spec.units() if h**d == a)
    assert by_chars == exhaustive, (by_chars, exhaustive)
    return exhaustive
