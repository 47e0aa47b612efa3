"""Additive and multiplicative characters of finite fields, and the four
classical character sums (Gauss, Jacobi, Eisenstein, Kloosterman) together
with empirical checks of the Weil-type magnitude bounds.

Characters are indexed deterministically: additive ones by a twist element t
(psi_t(x) = exp(2 pi i AbsTr(t x) / p)), multiplicative ones by an exponent k
modulo q-1 relative to the canonical generator of the field.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from . import groups
from .errors import FrozenRecord, HypothesisViolated, Record, SpecMismatch, ZeroElement
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


class AdditiveCharacter(FrozenRecord):
    """psi_t with psi_t(x) = exp(2 pi i AbsTr(t x) / p); t = 0 is trivial."""

    _fields = ("spec", "twist")

    def __init__(self, spec: FieldSpec, twist: FieldElement):
        if twist.spec != spec:
            raise SpecMismatch("twist must live in the character's field")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "twist", twist)

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


class MultiplicativeCharacter(FrozenRecord):
    """chi_k with chi_k(g^j) = exp(2 pi i k j / (q-1)); extended to 0 by the
    convention chi_k(0) = 0 for k != 0 and chi_0(0) = 1."""

    _fields = ("spec", "exponent")

    def __init__(self, spec: FieldSpec, exponent: int):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "exponent", exponent % (spec.q - 1))

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


# -- character tables: every sum of one kind as one DFT over the log group -------
# Writing g for the generator and n = q - 1, a multiplicative character is a
# character of Z_n through s = g^j, so each table is groups.character_sum of
# the points its sum runs over.  The entries agree with the scalar sums to
# rounding.

def _gauss_rows(spec: FieldSpec) -> np.ndarray:
    """G(psi_0, chi_k) and G(psi_1, chi_k) over k: the sums of the points
    (AbsTr g^j, j) over Z_p x Z_n, read at the characters (0, k) and (1, k)."""
    n = spec.q - 1
    traces = np.asarray(_absolute_traces(spec))[np.asarray(spec.tables[0])]
    return groups.character_sum((spec.p, n), traces * n + np.arange(n)).reshape(spec.p, n)[:2]


def gauss_table(spec: FieldSpec) -> np.ndarray:
    """G(psi_t, chi_k) at [t, k]: psi_t(s) = psi_1(ts) gives
    G(psi_t, chi_k) = conj(chi_k(t)) G(psi_1, chi_k) for t != 0."""
    n = spec.q - 1
    (trivial, first), log = _gauss_rows(spec), np.asarray(spec.tables[1])
    roots = groups.character((n,), 1)
    return np.vstack((trivial, first * roots[np.multiply.outer(-log[1:], np.arange(n)) % n]))


def jacobi_table(spec: FieldSpec) -> np.ndarray:
    """J(chi_k1, chi_k2) at [k1, k2]: the points (log s, log(1 - s)) over
    Z_n^2 for s not 0 or 1, and then s = 0 and s = 1, which add
    chi_k1(0) chi_k2(1) = [k1 = 0] and chi_k1(1) chi_k2(0) = [k2 = 0]."""
    n, log = spec.q - 1, spec.tables[1]
    points = [log[i] * n + log[(spec.one - spec.element(i)).index] for i in range(2, spec.q)]
    table = groups.character_sum((n, n), points).reshape(n, n)
    table[0] += 1
    table[:, 0] += 1
    return table


def kloosterman_table(spec: FieldSpec) -> np.ndarray:
    """K(psi_t1, psi_t2) at [t1 - 1, t2 - 1].  K(psi_a, psi_b) = K(psi_1,
    psi_ab), and K(psi_1, psi_{g^m}) is the cyclic self-convolution of
    psi_1(g^j) at m, so entry m of the DFT of G(psi_1, chi_k)^2 over k, by n."""
    n, log = spec.q - 1, np.asarray(spec.tables[1])
    by_log = np.fft.fft(_gauss_rows(spec)[1] ** 2) / n
    return by_log[np.add.outer(log[1:], log[1:]) % n]


def eisenstein_table(emb: SubfieldEmbedding) -> np.ndarray:
    """E(chi_k) of the big field's characters at [k]: the logs of the fibre
    Tr = 1 over Z_(Q-1)."""
    logs = np.asarray(emb.big.tables[1])[np.asarray(emb.trace_norm_table[0]) == 1]
    return groups.character_sum((emb.big.q - 1,), logs)


def checked_tables(spec: FieldSpec, ext: int | None = None) -> list[tuple]:
    """The Gauss, Jacobi and Kloosterman tables of spec and, given ext, the
    Eisenstein table of its degree-ext extension, each as (sum type, first
    index, values, magnitudes, bounds, pass flags).  A sum of known value,
    G(psi_0, chi_0) = q - 1, G(psi_0, chi_k) = 0, G(psi_t, chi_0) = -1,
    J(chi_0, chi_0) = q, J(chi_0, chi_k) = J(chi_k, chi_0) = 0 or
    E(chi_0) = q^(ext - 1), is bounded by its magnitude and passes within
    MAGNITUDE_TOL of it.  Any other passes with a magnitude within
    MAGNITUDE_TOL of its law (|G| = sqrt q; |J| = 1 on inverse pairs and
    sqrt q elsewhere; |E(chi_k)| = q^(ext/2 - 1) where q - 1 divides k and
    q^((ext - 1)/2) elsewhere), a Kloosterman sum with |K| <= 2 sqrt q + MAGNITUDE_TOL."""
    q, sq, k = spec.q, math.sqrt(spec.q), np.arange(spec.q - 1)
    # (sum type, first index, values, law, whether the law is an upper bound)
    tables = [("gauss", 0, gauss_table(spec), sq, False),  # [t, k]
              ("jacobi", 0, jacobi_table(spec),  # [k1, k2]
               np.where(np.add.outer(k, k) % (q - 1) == 0, 1.0, sq), False),
              ("kloosterman", 1, kloosterman_table(spec), 2 * sq, True)]  # [t1 - 1, t2 - 1]
    exact = {table[0]: np.full(table[2].shape, np.nan, complex) for table in tables}  # NaN: unknown
    exact["gauss"][0], exact["gauss"][:, 0], exact["gauss"][0, 0] = 0, -1, q - 1
    exact["jacobi"][0], exact["jacobi"][:, 0], exact["jacobi"][0, 0] = 0, 0, q
    if ext is not None:
        values = eisenstein_table(subfield_embedding(construct_field(spec.p, spec.d * ext), spec))
        tables.append(("eisenstein", 0, values, np.where(np.arange(values.size) % (q - 1) == 0,
                       q ** (ext / 2 - 1), q ** ((ext - 1) / 2)), False))  # [k]
        exact["eisenstein"] = np.where(np.arange(values.size) == 0, q ** (ext - 1), np.nan)
    checked = []
    for sum_type, first, values, law, upper in tables:
        value, magnitude = exact[sum_type], np.abs(values)
        known = ~np.isnan(value)
        within = (magnitude <= law + MAGNITUDE_TOL if upper
                  else np.abs(magnitude - law) <= MAGNITUDE_TOL)
        checked.append((sum_type, first, values, magnitude, np.where(known, np.abs(value), law),
                        np.where(known, np.abs(values - value) <= MAGNITUDE_TOL, within)))
    return checked


# -- Weil bound on polynomial character sums -----------------------------------

class WeilReport(Record):
    _fields = ("magnitude", "bound", "passed")

    def __init__(self, magnitude: float, bound: float, passed: bool):
        self.magnitude = magnitude
        self.bound = bound
        self.passed = passed


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
    """Whether the monic poly equals g^m for a monic g; m must be a unit mod p.
    g is solved from the top: its coefficient k - j (k = deg / m) enters the
    coefficient deg - j of g^m as m times itself plus terms in the ones above."""
    deg = len(poly) - 1
    if m <= 1:
        return m == 1
    if deg % m != 0:
        return False
    k, inverse = deg // m, spec.from_int(m).inverse()

    def power(g):
        acc = [spec.one]
        for _ in range(m):
            new = [spec.zero] * (len(acc) + k)
            for i, a in enumerate(acc):
                for j, b in enumerate(g):
                    new[i + j] = new[i + j] + a * b
            acc = new
        return acc

    g = [spec.zero] * k + [spec.one]
    for j in range(1, k + 1):
        g[k - j] = (poly[deg - j] - power(g)[deg - j]) * inverse
    return power(g) == poly


def weil_poly_check(spec: FieldSpec, f, char) -> WeilReport:
    """Weil's polynomial character sum bound |sum char(f(s))| <= (d-1) sqrt(q).

    Both hypotheses are checked: f not an m-th power, m the order of chi, and
    deg f coprime to q.  A violation raises HypothesisViolated.
    """
    poly = _as_field_poly(spec, f)
    deg = len(poly) - 1
    if deg < 1:
        raise SpecMismatch("polynomial must have degree >= 1")
    if isinstance(char, MultiplicativeCharacter):
        if char.is_trivial:
            raise HypothesisViolated("multiplicative character must be non-trivial")
        if _is_mth_power(spec, poly, char.order):
            raise HypothesisViolated(f"f is an {char.order}-th power")
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
    return WeilReport(magnitude, bound, magnitude <= bound + MAGNITUDE_TOL)


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
    if by_chars != exhaustive:
        raise SpecMismatch(f"character count {by_chars} vs exhaustive count {exhaustive}")
    return exhaustive
