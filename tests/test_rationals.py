from math import gcd

import pytest
from hypothesis import example, given, strategies as st
from oracles import FractionGaussian, rational_from_string_reference

from reyex.rationals import GR_ZERO, GaussianRational, mpq

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4).map(
    lambda f: mpq(f.numerator, f.denominator)
)
gaussians = st.tuples(rationals, rationals).map(lambda t: GaussianRational(*t))


def test_constructor_and_equality():
    a = GaussianRational(mpq(1, 2), mpq(-3))
    assert a == GaussianRational(mpq(2, 4), mpq(-3, 1))
    assert GaussianRational(0, 0) == GR_ZERO
    assert not GR_ZERO
    assert GaussianRational(1, 0) and GaussianRational(0, 1)


def test_arithmetic_basics():
    a = GaussianRational(1, 2)
    b = GaussianRational(mpq(1, 3), -1)
    assert a + b == GaussianRational(mpq(4, 3), 1)
    assert a - b == GaussianRational(mpq(2, 3), 3)
    # (1+2i)(1/3 - i) = 1/3 + 2 + i(2/3 - 1)
    assert a * b == GaussianRational(mpq(7, 3), mpq(-1, 3))


def test_pure_real_and_imaginary_products():
    r = GaussianRational(mpq(3, 5), 0)
    im = GaussianRational(0, mpq(2, 7))
    assert r * im == GaussianRational(0, mpq(6, 35))
    assert im * im == GaussianRational(mpq(-4, 49), 0)
    assert r * r == GaussianRational(mpq(9, 25), 0)


def test_mul_i_and_conj():
    a = GaussianRational(2, 3)
    assert a.conj() == GaussianRational(2, -3)
    assert a * a.conj() == GaussianRational(13, 0)


def test_string_round_trip():
    a = GaussianRational(mpq(-7, 3), mpq(0))
    re, im = a.to_strings()
    assert GaussianRational.from_strings(re, im) == a


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == GR_ZERO


@given(gaussians, gaussians)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a * a.conj()).im == mpq(0)
    assert (a * a.conj()).re == a.re * a.re + a.im * a.im


@given(gaussians)
def test_i_rotations(a):
    i, minus_i = GaussianRational(0, 1), GaussianRational(0, -1)
    assert a * i == GaussianRational(-a.im, a.re)
    assert a * i * minus_i == a
    assert a * i * i == -a


# -- the integer triple against the Fraction-pair reference ------------------

WIDE_DENOMINATORS = (1, 2, 3, 6, 2**61 - 1, 3**40, 2**61 - 2)

wide_rationals = st.builds(
    lambda n, d: mpq(n, d),
    st.one_of(st.just(0), st.integers(-5, 5), st.integers(-(10**40), 10**40)),
    st.one_of(st.sampled_from(WIDE_DENOMINATORS), st.integers(1, 10**6)),
)
wide_pairs = st.tuples(wide_rationals, wide_rationals)


def _pair(parts):
    return GaussianRational(*parts), FractionGaussian(*parts)


def _agrees(g, f):
    """g is in normal form and has the value of the reference f."""
    assert type(g) is GaussianRational
    assert all(type(x) is int for x in (g.a, g.b, g.d))
    assert g.d > 0 and gcd(g.a, g.b, g.d) == 1
    assert type(g.re) is mpq and type(g.im) is mpq
    assert (g.re, g.im) == (f.re, f.im)
    return True


@given(wide_pairs, wide_pairs, wide_rationals)
@example((mpq(0), mpq(0)), (mpq(0), mpq(0)), mpq(0))
@example((mpq(1, 2**61 - 1), mpq(0)), (mpq(0), mpq(-1, 3**40)), mpq(-3, 2))
@example((mpq(-7, 3**40), mpq(5, 3**40)), (mpq(7, 3**40), mpq(-5, 3**40)), mpq(3**40, 2))
def test_every_operation_agrees_with_the_fraction_pair(x, y, q):
    g, f = _pair(x)
    h, e = _pair(y)
    assert _agrees(g, f) and _agrees(h, e)
    for got, want in [
        (g + h, f + e),
        (g - h, f - e),
        (g * h, f * e),
        (-g, -f),
        (g.conj(), f.conj()),
        (g.mul_ratio(int(q.numerator), int(q.denominator)), f.scale(q)),
        (g.mul_ratio(int(q.numerator), 1), f.scale(q.numerator)),
        (g.mul_ratio(-q.numerator, -q.denominator), f.scale(q)),
    ]:
        assert _agrees(got, want)
    assert bool(g) is bool(f)
    assert (g == h) is (f == e)
    assert (g != h) is (f != e)
    assert g.to_strings() == f.to_strings()
    assert _agrees(GaussianRational.from_strings(*g.to_strings()), f)
    # the same value reached two ways is one triple with one hash
    same = g + h - h
    assert same == g and (same.a, same.b, same.d) == (g.a, g.b, g.d)
    assert hash(same) == hash(g)
    assert repr(g) == "GaussianRational(%s, %s)" % (f.re, f.im)


def test_parts_are_read_only():
    g = GaussianRational(mpq(1, 2), 3)
    for name in ("re", "im"):
        with pytest.raises(AttributeError):
            setattr(g, name, mpq(5))
    assert (g.re, g.im) == (mpq(1, 2), mpq(3))


def test_zero_is_the_triple_0_0_1():
    for z in (GR_ZERO, GaussianRational(mpq(0, 5), 0), GaussianRational(1, 0) - GaussianRational(1, 0),
              GaussianRational(mpq(1, 3**40), 1) * GR_ZERO, GaussianRational.from_strings("0/7", "-0")):
        assert (z.a, z.b, z.d) == (0, 0, 1)
        assert not z and z == GR_ZERO and hash(z) == hash(GR_ZERO)


TEXTS = ["2/4", "1/-2", " 3 ", "0/5", "-0", "7", "-6/-4", "+3/ 9"]


@pytest.mark.parametrize("text", TEXTS)
def test_from_strings_reads_what_rational_from_string_reads(text):
    q = rational_from_string_reference(text)
    for other in ("0", "-5/3"):
        g = GaussianRational.from_strings(text, other)
        assert _agrees(g, FractionGaussian.from_strings(text, other))
        assert g.re == q
        assert GaussianRational.from_strings(other, text).im == q


@pytest.mark.parametrize("text", ["1/0", "1.5", "a/2", "1/2/3", "", "/2", "1/"])
def test_from_strings_refuses_what_rational_from_string_refuses(text):
    with pytest.raises(ValueError):
        rational_from_string_reference(text)
    with pytest.raises(ValueError):
        GaussianRational.from_strings(text, "1")
    with pytest.raises(ValueError):
        GaussianRational.from_strings("1", text)
