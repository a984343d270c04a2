"""Exact Gaussian-rational scalars.

All coefficient arithmetic in this package is exact.  A scalar (a + b i)/d is
held as three Python ints in normal form: d > 0 and gcd(a, b, d) = 1, so zero
is (0, 0, 1) and two scalars are equal exactly when their triples are.  Every
operation works on the ints and normalizes at most once, with one gcd of
three arguments; negation and conjugation only move signs.

mpq is the type of the rationals the API takes and returns (the parts re and
im): gmpy2's mpq when it is installed, else fractions.Fraction.  The scalar
arithmetic runs on Python ints under either.
"""

from __future__ import annotations

from math import gcd

try:
    from gmpy2 import mpq

    MPQ_BACKEND = "gmpy2"
except ImportError:  # gmpy2 is an optional extra ('.[gmpy2]')
    from fractions import Fraction as mpq

    MPQ_BACKEND = "fractions.Fraction"

__all__ = [
    "mpq",
    "MPQ_BACKEND",
    "GaussianRational",
    "GR_ZERO",
]


def _int_pair(s):
    """(num, den) of 'num/den' or 'num', den a nonzero int of either sign;
    ValueError if s is neither, or den is zero."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        den = int(den)
        if not den:
            raise ValueError("zero denominator in %r" % (s,))
        return int(num), den
    return int(s), 1


def _ratio_string(n, d):
    """n/d, d > 0, in lowest terms as 'num/den', or 'num' where den is 1."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return "%d/%d" % (n // g, d // g)


class GaussianRational:
    """A complex number (a + b i)/d with integer a, b and d in normal form:
    d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = mpq(re), mpq(im)
        p, q = int(re.denominator), int(im.denominator)
        # over lcm(p, q) no prime divides both numerators and the denominator
        d = p // gcd(p, q) * q
        self.a = int(re.numerator) * (d // p)
        self.b = int(im.numerator) * (d // q)
        self.d = d

    @property
    def re(self):
        """The real part, as an exact rational."""
        return mpq(self.a, self.d)

    @property
    def im(self):
        """The imaginary part, as an exact rational."""
        return mpq(self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    def __add__(self, other):
        d, e = self.d, other.d
        if d == e:
            a = self.a + other.a
            b = self.b + other.b
            if d == 1:
                return _triple(a, b, 1)
        else:
            a = self.a * e + other.a * d
            b = self.b * e + other.b * d
            d *= e
        return _gaussian(a, b, d)

    def __sub__(self, other):
        d, e = self.d, other.d
        if d == e:
            a = self.a - other.a
            b = self.b - other.b
            if d == 1:
                return _triple(a, b, 1)
        else:
            a = self.a * e - other.a * d
            b = self.b * e - other.b * d
            d *= e
        return _gaussian(a, b, d)

    def __neg__(self):
        return _triple(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a, b = self.a, self.b
        c, e = other.a, other.b
        # For the shipped data every coefficient is purely real or purely
        # imaginary, so a zero part saves two of the four products.
        if not b:
            re, im = a * c, a * e
        elif not a:
            re, im = -b * e, b * c
        else:
            re, im = a * c - b * e, a * e + b * c
        d = self.d * other.d
        if d == 1:
            return _triple(re, im, 1)
        return _gaussian(re, im, d)

    def mul_ratio(self, n, m):
        """Multiply by n/m for ints n and m, m nonzero."""
        if m < 0:
            n, m = -n, -m
        return _gaussian(self.a * n, self.b * n, self.d * m)

    def conj(self):
        return _triple(self.a, -self.b, self.d)

    def to_strings(self):
        """The parts as strings 'num/den', or 'num' where den is 1, in
        lowest terms."""
        return _ratio_string(self.a, self.d), _ratio_string(self.b, self.d)

    @classmethod
    def from_strings(cls, re_s, im_s):
        """The scalar with the parts 'num/den' or 'num', den a nonzero int
        of either sign; ValueError if a part is neither, or den is zero."""
        p, q = _int_pair(re_s)
        r, s = _int_pair(im_s)
        d = q * s
        if d < 0:
            q, s, d = -q, -s, -d
        return _gaussian(p * s, r * q, d)


_new = GaussianRational.__new__


def _triple(a, b, d):
    """Internal fast constructor: (a, b, d) must already be in normal form."""
    x = _new(GaussianRational)
    x.a = a
    x.b = b
    x.d = d
    return x


def _gaussian(a, b, d):
    """(a + b i)/d in normal form, for ints a, b and d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    x = _new(GaussianRational)
    x.a = a
    x.b = b
    x.d = d
    return x


GR_ZERO = GaussianRational(0, 0)
