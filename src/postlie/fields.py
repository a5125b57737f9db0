"""Exact scalars over Q and over prime fields F_p.

Rationals are plain `fractions.Fraction`; residues are `Mod` objects that
remember their modulus.  Python ints interoperate with both (the canonical
image of Z in the field); any other mix raises, so values from different
fields never combine silently.
"""

import re
from fractions import Fraction

from .errors import FieldMismatchError, UnsupportedFieldError

MAX_PRIME = 2 ** 16

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def is_prime(p):
    """Trial division; adequate for the p < 2**16 range accepted here."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Mod:
    """A residue in F_p.  Arithmetic demands that both operands share p."""

    __slots__ = ("a", "p")

    def __init__(self, a, p):
        self.a = a % p
        self.p = p

    def _other(self, x):
        # Returns an int to fold in, or None when x is foreign.
        if isinstance(x, Mod):
            if x.p != self.p:
                raise FieldMismatchError(
                    "cannot mix residues mod %d and mod %d" % (self.p, x.p))
            return x.a
        if isinstance(x, int):
            return x
        return None

    # + - * first take the common case, a Mod with the same modulus;
    # everything else goes through _other, which folds in ints and raises
    # on a foreign modulus.

    def __add__(self, x):
        if type(x) is Mod and x.p == self.p:
            return Mod(self.a + x.a, self.p)
        b = self._other(x)
        if b is None:
            return NotImplemented
        return Mod(self.a + b, self.p)

    __radd__ = __add__

    def __sub__(self, x):
        if type(x) is Mod and x.p == self.p:
            return Mod(self.a - x.a, self.p)
        b = self._other(x)
        if b is None:
            return NotImplemented
        return Mod(self.a - b, self.p)

    def __rsub__(self, x):
        b = self._other(x)
        if b is None:
            return NotImplemented
        return Mod(b - self.a, self.p)

    def __mul__(self, x):
        if type(x) is Mod and x.p == self.p:
            return Mod(self.a * x.a, self.p)
        b = self._other(x)
        if b is None:
            return NotImplemented
        return Mod(self.a * b, self.p)

    __rmul__ = __mul__

    def __truediv__(self, x):
        b = self._other(x)
        if b is None:
            return NotImplemented
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero residue mod %d" % self.p)
        return Mod(self.a * pow(b, -1, self.p), self.p)

    def __rtruediv__(self, x):
        b = self._other(x)
        if b is None:
            return NotImplemented
        if self.a == 0:
            raise ZeroDivisionError("division by zero residue mod %d" % self.p)
        return Mod(b * pow(self.a, -1, self.p), self.p)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0 and self.a == 0:
            raise ZeroDivisionError("inverse of zero residue mod %d" % self.p)
        return Mod(pow(self.a, k, self.p), self.p)

    def __neg__(self):
        return Mod(-self.a, self.p)

    def __pos__(self):
        return self

    def __eq__(self, x):
        if isinstance(x, Mod):
            if x.p != self.p:
                raise FieldMismatchError(
                    "cannot compare residues mod %d and mod %d" % (self.p, x.p))
            return self.a == x.a
        if isinstance(x, int):
            return self.a == x % self.p
        return NotImplemented

    def __hash__(self):
        # Matches hash(int) on the canonical representative so that a Mod
        # and an equal plain int never split a dict key.
        return hash(self.a)

    def __bool__(self):
        return self.a != 0

    def __repr__(self):
        return "Mod(%d, %d)" % (self.a, self.p)

    def __str__(self):
        return str(self.a)


class Field:
    """Q when p is None, else F_p for a prime p < 2**16."""

    # zero and one are built once: scalars are never mutated, so every
    # caller can share them
    __slots__ = ("p", "zero", "one")

    def __init__(self, p=None):
        if p is not None:
            if not isinstance(p, int) or isinstance(p, bool) or not (
                    2 <= p < MAX_PRIME) or not is_prime(p):
                raise UnsupportedFieldError(
                    "modulus must be a prime below 2**16, got %r" % (p,))
        self.p = p
        self.zero = self.scalar(0)
        self.one = self.scalar(1)

    @property
    def is_rational(self):
        return self.p is None

    @property
    def characteristic(self):
        return 0 if self.p is None else self.p

    @property
    def name(self):
        return "Q" if self.p is None else "Fp:%d" % self.p

    def scalar(self, x):
        """Coerce an int, Fraction, Mod, or canonical string into this field."""
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, int):
            return Fraction(x) if self.p is None else Mod(x, self.p)
        if isinstance(x, Fraction):
            if self.p is None:
                return x
            if x.denominator % self.p == 0:
                raise UnsupportedFieldError(
                    "denominator of %s vanishes mod %d" % (x, self.p))
            return Mod(x.numerator * pow(x.denominator, -1, self.p), self.p)
        if isinstance(x, Mod):
            if self.p is None:
                raise FieldMismatchError("residue %r is not a rational" % (x,))
            if x.p != self.p:
                raise FieldMismatchError(
                    "residue mod %d does not live in %s" % (x.p, self.name))
            return x
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError("cannot coerce %r into %s" % (x, self.name))

    def parse(self, s):
        """Parse 'a' or 'a/b' (b > 0).  Raises ValueError on anything else."""
        m = _RATIONAL_RE.match(s.strip())
        if not m:
            raise ValueError("not a rational literal: %r" % (s,))
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise ValueError("zero denominator in %r" % (s,))
        return self.scalar(Fraction(num, den))

    def format(self, x):
        """Canonical text form: lowest terms 'a' or 'a/b' over Q, '0'..'p-1' mod p."""
        return str(self.scalar(x))

    # The exact kernels add and multiply plain values and build a scalar
    # once per result coordinate: a Mod operation allocates a Mod, while
    # residue ints need no reduction until the result is read.

    def raw(self, x):
        """The plain value of a scalar of this field: the residue int over
        GF(p), the Fraction itself over Q.  Anything else is coerced with
        `scalar` first, so a residue of another field still raises."""
        p = self.p
        if p is None:
            return x if type(x) is Fraction else self.scalar(x)
        if type(x) is Mod and x.p == p:
            return x.a
        return self.scalar(x).a

    def from_raw(self, v):
        """The scalar of a plain value, the inverse of `raw`: an int in any
        representative, reduced here, or over Q also a Fraction."""
        if self.p is None:
            return v if type(v) is Fraction else Fraction(v)
        return Mod(v, self.p)

    def __eq__(self, other):
        if isinstance(other, Field):
            return self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else "GF(%d)" % self.p


QQ = Field()

Scalar = Fraction | Mod


def GF(p):
    """The prime field F_p."""
    return Field(p)
