"""Exact Gaussian-rational scalars.

All coefficient arithmetic in this package is exact: a scalar is a pair of
rationals (real and imaginary part) with arbitrary-precision integer
numerators and denominators.  gmpy2's mpq is used when available because the
expansion recursion multiplies millions of these; plain fractions.Fraction is
a drop-in fallback.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq

    MPQ_BACKEND = "gmpy2"
except ImportError:  # gmpy2 is an optional extra ('.[gmpy2]')
    from fractions import Fraction as mpq

    MPQ_BACKEND = "fractions.Fraction"

__all__ = [
    "mpq",
    "MPQ_BACKEND",
    "rational_from_string",
    "rational_to_string",
    "GaussianRational",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
]

_ZERO_Q = mpq(0)


def rational_from_string(s):
    """Parse 'num/den' or 'num' into an exact rational; ValueError if s is
    neither, or den is zero."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        den = int(den)
        if not den:
            raise ValueError("zero denominator in %r" % (s,))
        return mpq(int(num), den)
    return mpq(int(s))


def rational_to_string(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = mpq(re)
        self.im = mpq(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    def __add__(self, other):
        return _gr(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _gr(self.re - other.re, self.im - other.im)

    # Negation, conjugation and quarter turns pass a zero part through
    # unchanged: shipped coefficients are purely real or purely imaginary,
    # and a zero test is cheaper than negating a rational.

    def __neg__(self):
        re, im = self.re, self.im
        return _gr(-re if re else re, -im if im else im)

    def __mul__(self, other):
        # Zero-part shortcuts matter: for the shipped data every expansion
        # coefficient is purely real or purely imaginary, and the generic
        # 4-multiplication path would dominate the run time.
        a, b = self.re, self.im
        c, d = other.re, other.im
        if not b:
            if not d:
                return _gr(a * c, _ZERO_Q)
            if not c:
                return _gr(_ZERO_Q, a * d)
            return _gr(a * c, a * d)
        if not a:
            if not c:
                return _gr(-b * d, _ZERO_Q)
            if not d:
                return _gr(_ZERO_Q, b * c)
            return _gr(-b * d, b * c)
        if not d:
            return _gr(a * c, b * c)
        if not c:
            return _gr(-b * d, a * d)
        return _gr(a * c - b * d, a * d + b * c)

    def scale(self, q):
        """Multiply by an exact rational."""
        return _gr(self.re * q, self.im * q)

    def conj(self):
        im = self.im
        return _gr(self.re, -im if im else im)

    def mul_i(self):
        """Multiply by the imaginary unit."""
        im = self.im
        return _gr(-im if im else im, self.re)

    def mul_minus_i(self):
        re = self.re
        return _gr(self.im, -re if re else re)

    def abs_sq(self):
        return self.re * self.re + self.im * self.im

    def to_strings(self):
        return rational_to_string(self.re), rational_to_string(self.im)

    @classmethod
    def from_strings(cls, re_s, im_s):
        return _gr(rational_from_string(re_s), rational_from_string(im_s))


def _gr(re, im):
    """Internal fast constructor: parts must already be exact rationals."""
    g = GaussianRational.__new__(GaussianRational)
    g.re = re
    g.im = im
    return g


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)
