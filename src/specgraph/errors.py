"""Exception types shared across the package, and the base classes of its
records.

Each error name mirrors the failure it reports; callers are expected to
catch the specific class (the CLI maps them to JSON error payloads).
"""

from operator import attrgetter


class SpecgraphError(Exception):
    """Base class for all package errors."""


# -- finite fields -----------------------------------------------------------

class NotPrime(SpecgraphError):
    pass


class SizeOverflow(SpecgraphError):
    pass


class SpecMismatch(SpecgraphError):
    """Operands belong to different field specs (or wrong field)."""


class DivisionByZero(SpecgraphError):
    pass


class EvenCharacteristic(SpecgraphError):
    """Operation requires odd field size."""


class ZeroCoefficient(SpecgraphError):
    pass


class BadResidueClass(SpecgraphError):
    """Field size fails a required congruence (e.g. q = 1 mod 4)."""


class ZeroElement(SpecgraphError):
    pass


class IndexOutOfRange(SpecgraphError):
    pass


class HypothesisViolated(SpecgraphError):
    """A testable precondition of a theorem fails on the given input."""


# -- graphs ------------------------------------------------------------------

class LoopEdge(SpecgraphError):
    pass


class Disconnected(SpecgraphError):
    pass


class CapExceeded(SpecgraphError):
    """Exact computation refused: instance over the size cap or time budget."""


class BadParameters(SpecgraphError):
    pass


class NotSymmetric(SpecgraphError):
    pass


class NotGenerating(SpecgraphError):
    pass


class ContainsIdentity(SpecgraphError):
    pass


class NotRegular(SpecgraphError):
    pass


class NotDesign(SpecgraphError):
    pass


class NotPartialDesign(SpecgraphError):
    pass


# -- spectra / bounds --------------------------------------------------------

class Mismatch(SpecgraphError):
    """Closed-form and numeric spectra disagree."""


class NoClosedForm(SpecgraphError):
    pass


class IdentityViolated(SpecgraphError):
    """Strongly-regular parameter identity fails."""


class ColorViolation(SpecgraphError):
    """Mixing query ignores the bipartition constraint."""


class InvalidOperation(SpecgraphError):
    pass


class BadWeights(SpecgraphError):
    pass


# -- records -----------------------------------------------------------------

class Record:
    """Base of the package's records. A subclass names its two or more fields
    in _fields, in the order of its __init__ arguments, and sets them there.
    Two records are equal when they are of one class and their fields are
    equal; the repr names each field. A record that may change is unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in vars(cls):
            cls._values = property(attrgetter(*cls._fields))  # the fields as a tuple

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values == other._values

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose attributes cannot be assigned or deleted; its __init__
    sets each field with object.__setattr__. It hashes as the tuple of its
    fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
