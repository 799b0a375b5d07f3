"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Every scalar is exact by type, so all linear algebra is written once in
terms of +, -, *, / and truthiness tests:

- Over Q an integral value is an Integer, an exact int subclass, and any
  other value is a _rational (gmpy2.mpq when available, fractions.Fraction
  otherwise) in lowest terms with a positive denominator.  Integer +, -, *
  and unary - stay Integer on plain int arithmetic; mixed with a _rational
  they fall through to the rational's own operator.  /, reflected / and **
  with a negative exponent give an exact rational in canonical form (an
  Integer when integral, see canonical), never a float.  Field.scalar,
  parse, zero and one give canonical values.  An Integer equals, hashes
  and prints like the _rational of the same value, so a stored form, cache
  key or report does not depend on which of the two holds a coordinate.
- GF(p) scalars are canonical residues in [0, p), int subclasses whose
  operators compute on the int values and reduce mod p; ** reduces too, and
  a negative exponent takes the inverse.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from typing import Any

from .errors import Immutable

try:
    from gmpy2 import mpq as _rational
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as _rational

Scalar = Any

# ASCII digits only: \d also matches Arabic-Indic, fullwidth and other
# Unicode digits, which int() and Fraction() would then accept.
_SCALAR_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")

# The int slots the scalar operators compute on, bound once: going through
# int() and a Python-level __new__ on every operation costs several times
# the arithmetic itself.
_new = int.__new__
_add, _sub, _rsub = int.__add__, int.__sub__, int.__rsub__
_mul, _neg, _pow = int.__mul__, int.__neg__, int.__pow__


class Integer(int):
    """An integral rational scalar: plain int arithmetic, exact by type."""

    __slots__ = ()

    def __add__(self, other):
        r = _add(self, other)
        return r if r is NotImplemented else _new(Integer, r)

    __radd__ = __add__

    def __sub__(self, other):
        r = _sub(self, other)
        return r if r is NotImplemented else _new(Integer, r)

    def __rsub__(self, other):
        r = _rsub(self, other)
        return r if r is NotImplemented else _new(Integer, r)

    def __mul__(self, other):
        r = _mul(self, other)
        return r if r is NotImplemented else _new(Integer, r)

    __rmul__ = __mul__

    def __neg__(self):
        return _new(Integer, _neg(self))

    def __truediv__(self, other):
        if isinstance(other, int):
            q, r = divmod(self, other)
            return _rational(int(self), int(other)) if r else _new(Integer, q)
        if isinstance(other, _rational):
            return canonical(_rational(int(self)) / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return _new(Integer, other) / self
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("the exponent of an exact scalar must be an integer")
        if k >= 0:
            return _new(Integer, _pow(self, k))
        return canonical(_rational(1, _pow(self, -k)))

    def __rpow__(self, other):
        if isinstance(other, int):
            return _new(Integer, other) ** self
        return NotImplemented


def canonical(x: Scalar) -> Scalar:
    """x with an integral _rational turned into the Integer of its value;
    every other scalar is returned as it is."""
    if type(x) is _rational and x.denominator == 1:
        return _new(Integer, x.numerator)
    return x


# Miller-Rabin on the first thirteen prime bases decides primality for every
# n below this bound (Sorenson & Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017)); larger moduli are outside the
# supported envelope.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981 - 1


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= p <= MAX_MODULUS."""
    if p > MAX_MODULUS:
        raise ValueError(f"modulus {p} is outside the supported envelope "
                         f"(at most {MAX_MODULUS})")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def _residue_class(p: int) -> type:
    """Build the element type of GF(p): an int subclass reduced mod p."""

    class Residue(int):
        __slots__ = ()
        modulus = p

        def __new__(cls, value):
            return _new(cls, value % p)

        def __add__(self, other):
            return _new(Residue, _add(self, other) % p)

        __radd__ = __add__

        def __sub__(self, other):
            return _new(Residue, _sub(self, other) % p)

        def __rsub__(self, other):
            return _new(Residue, _rsub(self, other) % p)

        def __mul__(self, other):
            return _new(Residue, _mul(self, other) % p)

        __rmul__ = __mul__

        def __neg__(self):
            return _new(Residue, _neg(self) % p)

        def __truediv__(self, other):
            return _new(Residue, _mul(self, _pow(other, -1, p)) % p)

        def __rtruediv__(self, other):
            return _new(Residue, _mul(_pow(self, -1, p), other) % p)

        def __pow__(self, k):
            return _new(Residue, _pow(self, k, p))

        def __repr__(self):
            return "%d" % int(self)

    Residue.__name__ = f"ResidueMod{p}"
    return Residue


class Field(Immutable):
    """The coefficient field: the rationals (characteristic 0) or GF(p).
    Immutable; equal exactly when the characteristics are."""

    _fields = ("characteristic",)

    def __init__(self, characteristic: int = 0):
        if characteristic != 0 and not is_prime(characteristic):
            raise ValueError(f"modulus {characteristic} is not prime")
        super().__init__(characteristic)

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    @property
    def name(self) -> str:
        return "Q" if self.is_rational else f"F{self.characteristic}"

    def descriptor(self):
        """JSON-facing field descriptor: "Q" or {"Fp": p}."""
        return "Q" if self.is_rational else {"Fp": self.characteristic}

    def scalar(self, value: int) -> Scalar:
        if self.is_rational:
            return canonical(_rational(value))
        return _residue_class(self.characteristic)(value)

    # Scalars are immutable, so each field builds its zero and one once.
    @cached_property
    def zero(self) -> Scalar:
        return self.scalar(0)

    @cached_property
    def one(self) -> Scalar:
        return self.scalar(1)

    def parse(self, text: str) -> Scalar:
        """Parse an exact scalar string: "3", "-4", or "num/den" with den > 0,
        over Q and over GF(p), where den must be prime to p."""
        text = text.strip()
        if not _SCALAR_RE.fullmatch(text):
            raise ValueError(f"cannot parse scalar {text!r}")
        if self.is_rational:
            return canonical(_rational(text))
        if "/" in text:
            num, den = text.split("/")
            if not self.scalar(int(den)):
                raise ValueError(f"scalar {text!r} has a denominator that is "
                                 f"0 in {self.name}")
            return self.scalar(int(num)) / self.scalar(int(den))
        return self.scalar(int(text))

    def to_str(self, value: Scalar) -> str:
        return str(value)


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


def field_from_descriptor(desc) -> Field:
    """Inverse of Field.descriptor, for parsing JSON documents."""
    if desc == "Q":
        return QQ
    if isinstance(desc, dict) and set(desc) == {"Fp"}:
        p = desc["Fp"]
        if not isinstance(p, int) or isinstance(p, bool) or p == 0:
            raise ValueError(f"field modulus must be a prime integer, got {p!r}")
        return Field(p)
    raise ValueError(f"unrecognized field descriptor {desc!r}")
