"""Exact algebra of time functions t^a e^{-bt}.

Every Fourier coefficient produced by the expansion recursion lives in the
closed algebra spanned by the basis functions B_{a,b}(t) = t^a e^{-bt} with
nonnegative integer exponents and Gaussian-rational coefficients.  Sums,
products, derivatives and the heat-kernel convolution integral

    int_0^t e^{-ksq (t-s)} B_{a,b}(s) ds

all stay inside the algebra, so no rounding happens before numeric
evaluation.
"""

from __future__ import annotations

import os
import threading
from contextlib import suppress
from math import factorial, inf

import mpmath
from mpmath.libmp import (
    MPZ,
    from_float,
    fzero,
    from_rational,
    mpf_exp,
    mpf_neg,
    mpf_pow_int,
    normalize,
    round_nearest,
)

from .rationals import GR_ZERO, GaussianRational

__all__ = ["TimePoly", "tp_basis", "TP_ZERO", "sample_real_polys"]

# The one working precision, in bits: every sampled value, datum scalar and
# estimator assembly is computed at it.  A sampled value that loses bits to
# cancellation is evaluated again above it until GUARD_BITS survive, so the
# estimator floats are the same at 512 bits (test_estimators.py,
# test_the_working_precision_is_enough).
DEFAULT_EVAL_PRECISION = 256


class TimePoly:
    """Sparse sum of C_{a,b} t^a e^{-bt} with exact complex-rational C.

    The term map is canonical: no stored coefficient is zero.  Instances are
    immutable by convention; every operation returns a fresh poly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        clean = {}
        for (a, b), c in terms.items():
            if a < 0 or b < 0:
                raise ValueError("exponents must be nonnegative, got (%s, %s)" % (a, b))
            if c:
                clean[(a, b)] = c
        self.terms = clean

    # -- ring structure -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TimePoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "TimePoly(0)"
        bits = []
        for (a, b) in sorted(self.terms):
            c = self.terms[(a, b)]
            bits.append("(%s+%si)*B[%d,%d]" % (*c.to_strings(), a, b))
        return "TimePoly(" + " + ".join(bits) + ")"

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                s = prev + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _tp(out)

    def __sub__(self, other):
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = -c
            else:
                s = prev - c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _tp(out)

    def __neg__(self):
        return _tp({key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        # B_{a,b} * B_{a',b'} = B_{a+a', b+b'}
        if not self.terms or not other.terms:
            return TP_ZERO
        xs = self.terms
        ys = other.terms
        if len(xs) > len(ys):
            xs, ys = ys, xs
        out = {}
        for (a1, b1), c1 in xs.items():
            for (a2, b2), c2 in ys.items():
                key = (a1 + a2, b1 + b2)
                p = c1 * c2
                prev = out.get(key)
                if prev is None:
                    out[key] = p
                else:
                    s = prev + p
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return _tp(out)

    def scale_rational(self, q):
        """Multiply by an exact rational (an int or an mpq)."""
        if not q:
            return TP_ZERO
        n, m = int(q.numerator), int(q.denominator)
        return _tp({key: x.mul_ratio(n, m) for key, x in self.terms.items()})

    def conj(self):
        return _tp({key: c.conj() for key, c in self.terms.items()})

    # -- calculus --------------------------------------------------------

    def derivative(self):
        """d/dt, using d/dt B_{a,b} = a B_{a-1,b} - b B_{a,b}."""
        out = {}
        for (a, b), c in self.terms.items():
            if a:
                key = (a - 1, b)
                add = c.mul_ratio(a, 1)
                prev = out.get(key)
                s = add if prev is None else prev + add
                if s:
                    out[key] = s
                elif prev is not None:
                    del out[key]
            if b:
                key = (a, b)
                add = c.mul_ratio(-b, 1)
                prev = out.get(key)
                s = add if prev is None else prev + add
                if s:
                    out[key] = s
                elif prev is not None:
                    del out[key]
        return _tp(out)

    def heat_convolve(self, ksq):
        """Exact value of int_0^t e^{-ksq (t-s)} * self(s) ds.

        Termwise: for B_{a,b} the integral is B_{a+1,ksq}/(a+1) in the
        resonant case b == ksq, and otherwise

            a! * ( B_{0,ksq}/(b-ksq)^{a+1}
                   - sum_{l=0}^{a} B_{l,b} / ((b-ksq)^{a+1-l} l!) ).
        """
        if ksq < 1:
            raise ValueError("ksq must be a positive integer, got %s" % (ksq,))
        out = {}

        def add(key, c):
            prev = out.get(key)
            s = c if prev is None else prev + c
            if s:
                out[key] = s
            elif prev is not None:
                del out[key]

        for (a, b), c in self.terms.items():
            if b == ksq:
                add((a + 1, ksq), c.mul_ratio(1, a + 1))
            else:
                d = b - ksq
                fact_a = factorial(a)
                add((0, ksq), c.mul_ratio(fact_a, d ** (a + 1)))
                for ell in range(a + 1):
                    add((ell, b), c.mul_ratio(-fact_a, d ** (a + 1 - ell) * factorial(ell)))
        return _tp(out)

    # -- numeric evaluation ----------------------------------------------

    def evaluate(self, t, precision=DEFAULT_EVAL_PRECISION):
        """Value at time t >= 0 as an mpmath mpc, at the given bit precision,
        with no loss measured: the one-point reference of the tests and the
        bench's kernel probe; the library samples through sample_real_polys."""
        if precision < 53:
            raise ValueError("precision must be at least 53 bits")
        with mpmath.workprec(precision):
            make_mpf = mpmath.mp.make_mpf
            tt = mpmath.mpf(t) if not isinstance(t, mpmath.mpf) else t
            x = mpmath.e ** (-tt)
            re = mpmath.mpf(0)
            im = mpmath.mpf(0)
            tpow = {}
            xpow = {}
            for (a, b), c in self.terms.items():
                ta = tpow.get(a)
                if ta is None:
                    ta = tpow[a] = tt ** a
                xb = xpow.get(b)
                if xb is None:
                    xb = xpow[b] = x ** b
                w = ta * xb
                re += make_mpf(_round(c.a, c.d, precision)) * w
                im += make_mpf(_round(c.b, c.d, precision)) * w
            return mpmath.mpc(re, im)

    # -- structure -------------------------------------------------------

    def degree_t(self):
        """Max exponent of t, or -1 for the zero poly."""
        return max((a for a, _ in self.terms), default=-1)

    def degree_exp(self):
        """Max exponent of e^{-t}, or -1 for the zero poly."""
        return max((b for _, b in self.terms), default=-1)

    def num_terms(self):
        return len(self.terms)

    # -- exact textual serialization --------------------------------------

    def to_records(self):
        """List of 'a b re_num/re_den im_num/im_den' records, sorted."""
        return _to_records(self, {})

    @classmethod
    def from_records(cls, records):
        """The poly of a list of records as to_records writes them: any
        whitespace between the four fields, nonnegative exponents, each pair
        once; zero coefficients are dropped.  Equal coefficient texts share
        one GaussianRational (_from_records); a field's records are parsed
        under one memo, so its polys also share one key tuple per exponent
        pair, as the polys of a computed expansion do."""
        return _from_records(list(records), {})


def _to_records(poly, memo):
    """poly.to_records(), with memo mapping every exponent pair formatted with
    it to its text 'a b ' and the integer triple of every coefficient to its
    text 're im', so each distinct one is converted to decimal once."""
    terms = poly.terms
    recs = []
    for key in sorted(terms):
        head = memo.get(key)
        if head is None:
            head = memo[key] = "%d %d " % key
        c = terms[key]
        parts = (c.a, c.b, c.d)
        text = memo.get(parts)
        if text is None:
            text = memo[parts] = "%s %s" % c.to_strings()
        recs.append(head + text)
    return recs


def _from_records(records, memo):
    """TimePoly.from_records for a list of records, with memo shared by
    every list parsed with it: it maps each coefficient text to one shared
    GaussianRational, or to False for a zero coefficient, and each exponent
    pair, as its two texts and as integers, to one shared key tuple.  So
    each distinct text is parsed once, and the polys of one memo hold one
    key object per distinct exponent pair."""
    terms = {}
    zeros = False
    for rec in records:
        try:
            a, b, text = rec.split(None, 2)
        except ValueError:
            raise ValueError("malformed TimePoly record: %r" % (rec,)) from None
        key = memo.get((a, b))
        if key is None:
            key = int(a), int(b)
            if key[0] < 0 or key[1] < 0:
                raise ValueError("exponents must be nonnegative, got (%s, %s)" % key)
            key = memo[a, b] = memo.setdefault(key, key)
        c = memo.get(text)
        if c is None:
            parts = text.split()
            if len(parts) != 2:
                raise ValueError("malformed TimePoly record: %r" % (rec,))
            c = GaussianRational.from_strings(*parts)
            c = memo[text] = c if c else False
        if c is False:
            zeros = True
        terms[key] = c
    if len(terms) != len(records):
        seen = set()
        for rec in records:
            key = tuple(map(int, rec.split(None, 2)[:2]))
            if key in seen:
                raise ValueError("duplicate exponent pair in records: %s" % (key,))
            seen.add(key)
    if zeros:
        terms = {key: c for key, c in terms.items() if c is not False}
    return _tp(terms)


def _to_mpf(q):
    """The rational q rounded once to the current precision."""
    return mpmath.mp.make_mpf(_round(q.numerator, q.denominator, mpmath.mp.prec))


def _round(num, den, prec):
    """num/den rounded once to prec bits, to nearest, as a libmp tuple; the
    value is the same whether or not num/den is in lowest terms."""
    return from_rational(num, den, prec, round_nearest)


# -- batch sampling on a time grid -------------------------------------------------

# Bits a sampled value must keep: 53 for the float64 it ends up as, plus a
# 32-bit margin for the arithmetic done on it afterwards.
GUARD_BITS = 85
# Re-evaluations allowed per value.  Each round adds the bits the previous one
# measured as lost, so only a value that is an exact zero at some t > 0 can
# use them all up.
GUARD_ROUNDS = 4
# Extra bits carried while forming the powers of e^{-t} and t.  x^b built from
# e^{-t} by successive products has a relative error below (b + products)
# units of the carried precision, so 32 bits keep it under 2^-8 units of the
# target precision while b + products < 2^24, far beyond any expansion.
POWER_GUARD = 32
# Bits above the precision that the window of one poly keeps of its widest
# basis value (_window_dot).  A value that loses to cancellation well under
# this many bits passes the window's rounding test; the tail Grams of bnw at
# N = 5 lose up to 188.  Values that fail it are summed at full width.
WINDOW_GUARD = 192
# Work, in poly terms x grid points at t > 0, that the sampling of a batch
# must have for each child forked to share it (sample_real_polys).  On a
# 2-vCPU x86-64 VM (CPython 3.11, a 30 MB process) a forked child costs
# about 4 ms, and a batch split in two broke even at about 2,000 on 39
# points, 1,500 on 79 and under 400 on 399; from 2,500 up it was faster in
# 11 to 15 of 15 alternating pairs on each of those grids.
PARALLEL_MIN_WORK = 2500


def _basis(keys, t, prec):
    """B_{a,b}(t) = t^a e^{-bt} for every key, each rounded to prec bits, as
    integers over one shared power of two: returns (mantissas, exponent).

    e^{-t} is computed once; the powers of e^{-t} and of t are built by
    successive products over the sorted distinct exponents, each gap power
    computed once, all at prec + POWER_GUARD bits.  Each basis value is
    their product rounded to prec bits (_mul_round).

    The shared power of two is that of the smallest value, so at large t
    and b the integers are far wider than prec: each holds its value's prec
    bits, shifted left by its distance in magnitude from the smallest
    (about 9,100 bits at t = 20 for b from 22 to 328).  _window_dot reads
    only the top of the ones a poly uses; _dot reads them whole."""
    wp = prec + POWER_GUARD
    tt = from_float(t)

    def powers(base, exps):
        out = {}
        gaps = {}
        cur, prev = (1, 0), 0
        for e in sorted(exps):
            g = e - prev
            step = gaps.get(g)
            if step is None:
                _, man, exp, _ = mpf_pow_int(base, g, wp, round_nearest)
                step = gaps[g] = man, exp
            cur = out[e] = _mul_round(cur, step, wp)
            prev = e
        return out

    tpow = powers(tt, {a for a, _ in keys})
    xpow = powers(mpf_exp(mpf_neg(tt), wp, round_nearest), {b for _, b in keys})
    rounded = [_mul_round(tpow[a], xpow[b], prec) for a, b in keys]
    low = min((e for _, e in rounded), default=0)
    return [man << (e - low) for man, e in rounded], low


def _mul_round(x, y, prec):
    """The product of the positive values x = (man, exp) and y rounded to prec
    bits, to nearest with ties to even, as (man, exp); the mantissa may have
    trailing zeros.  Rounding depends on the product alone, so the value is
    that of mpf_mul at prec with round_nearest."""
    man = x[0] * y[0]
    exp = x[1] + y[1]
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    half = man >> (n - 1)
    if half & 1 and (half & 2 or man & ((1 << (n - 1)) - 1)):
        return (half >> 1) + 1, exp + n
    return half >> 1, exp + n


def _coefficients(poly, prec, slots):
    """The coefficients of poly rounded once to prec bits and split by sign,
    as integers over one shared power of two: returns (positive, negative,
    exponent), lists of (basis slot, mantissa) with the magnitudes of the
    negative ones; slots[i] is the basis slot of the i-th term."""
    rounded = []
    for c in poly.terms.values():
        if c.b:
            raise ValueError("sample_real_polys needs real coefficients")
        rounded.append(_round(c.a, c.d, prec))
    low = min((e for _, _, e, _ in rounded), default=0)
    pos, neg = [], []
    for slot, (sign, man, e, _) in zip(slots, rounded):
        (neg if sign else pos).append((slot, man << (e - low)))
    return pos, neg, low


def _round_int(man, exp, prec):
    """man 2^exp rounded to prec bits, to nearest with ties to even, as a
    libmp tuple: from_man_exp(man, exp, prec, round_nearest), without its
    slow bit count."""
    man = MPZ(man)
    if man < 0:
        return normalize(1, -man, exp, (-man).bit_length(), prec, round_nearest)
    return normalize(0, man, exp, man.bit_length(), prec, round_nearest)


def _dot(coeffs, basis, prec):
    """The value sum c B rounded once to prec bits, as a libmp tuple, and the
    bits it lost to cancellation, mag(sum |c| B) - mag(sum c B), exact to
    within one bit.  B > 0 for t > 0, so sum |c| B bounds every partial sum
    and sets the scale of the rounding error.

    Both sums P = sum_{c > 0} c B and N = sum_{c < 0} |c| B are exact integer
    sums of mantissa products over the full width of the basis.  This is
    the reference every windowed value equals, and the fallback where a
    window cannot certify it."""
    pos, neg, cexp = coeffs
    mans, bexp = basis
    p = sum(c * mans[slot] for slot, c in pos)
    n = sum(c * mans[slot] for slot, c in neg)
    return _round_sums(p, n, cexp + bexp, prec, bool(pos or neg))


def _round_sums(p, n, exp, prec, terms):
    """What _dot returns for the exact sums P = p 2^exp and N = n 2^exp of a
    poly that has terms, or none."""
    value = _round_int(p - n, exp, prec)
    if p == n:
        return value, prec if terms else 0
    total = _round_int(p + n, exp, prec)
    return value, max(total[2] + total[3] - value[2] - value[3], 0)


def _window_dot(coeffs, bound, basis, widths, prec):
    """What _dot returns, summed over a window of the basis, or None where
    the window cannot certify it.  bound is (slots, C+, C-): the basis slots
    the poly reads and the sums of its positive and of its negative
    coefficient integers; widths[i] is the bit length of basis integer i.

    Window: the basis integers the poly reads are shifted right by
    sh = widest - prec - WINDOW_GUARD, widest the largest of their widths,
    so a product is about prec + WINDOW_GUARD bits by the coefficient's
    width however wide the basis is.  Where sh <= 0 this is _dot.

    A basis integer of width w is divisible by 2^(w - prec): its mantissa
    has at most prec bits, or is 2^prec after a rounding carry.  So the
    shift drops only zero bits from it where w - prec >= sh, that is where
    w >= widest - WINDOW_GUARD.  Where that holds for every integer the
    poly reads, the window's sums are P and N exactly, and their rounding
    is returned as _dot forms it.

    Otherwise each shifted integer is low by less than one unit of 2^sh, so
    in those units the exact P - N lies in [P_w - N_w - C-, P_w - N_w + C+]
    and P + N in [P_w + N_w, P_w + N_w + C+ + C-].  Ziv's rounding test
    (A. Ziv, ACM TOMS 17(3), 1991): rounding is monotone, so where both ends
    of the first interval round to the same nonzero value, that is the
    rounding of the exact P - N; where both ends of the second do, the
    magnitude the bits lost are measured against is exact too.  Where
    either test fails, as at an exact zero or an exact tie, the caller sums
    the value at full width.
    """
    slots, cpos, cneg = bound
    read = [widths[slot] for slot in slots]
    widest = max(read, default=0)
    sh = widest - prec - WINDOW_GUARD
    if sh <= 0:
        return _dot(coeffs, basis, prec)
    pos, neg, cexp = coeffs
    mans, bexp = basis
    p = sum(c * (mans[slot] >> sh) for slot, c in pos)
    n = sum(c * (mans[slot] >> sh) for slot, c in neg)
    e = cexp + bexp + sh
    if min(read) >= widest - WINDOW_GUARD:
        return _round_sums(p, n, e, prec, True)
    value = _round_int(p - n - cneg, e, prec)
    if not value[1] or value != _round_int(p - n + cpos, e, prec):
        return None
    total = _round_int(p + n, e, prec)
    if total != _round_int(p + n + cpos + cneg, e, prec):
        return None
    return value, max(total[2] + total[3] - value[2] - value[3], 0)


def _reevaluate(poly, t, prec, lost):
    """Evaluate poly at t again, adding the bits measured as lost to the
    precision, until GUARD_BITS survive or GUARD_ROUNDS run out.  Returns
    (value, precision used, bits lost at that precision)."""
    keys = list(poly.terms)
    for _ in range(GUARD_ROUNDS):
        prec += lost
        coeffs = _coefficients(poly, prec, range(len(keys)))
        value, lost = _dot(coeffs, _basis(keys, t, prec), prec)
        if prec - lost >= GUARD_BITS:
            break
    return value, prec, lost


def sample_real_polys(polys, grid, parts=None):
    """Values of real-coefficient polys on a time grid of finite t >= 0.

    Returns (values, report): values[i] is the list of mpf values of polys[i]
    over the grid.  Each value is the exact sum of its rounded coefficients
    times the rounded basis values, rounded once.  t = 0 is exact:
    B_{a,b}(0) = [a == 0], so the value is the rational sum of the a = 0
    coefficients, rounded once.

    At each t > 0, e^{-t} and every basis value B_{a,b}(t) = t^a e^{-bt} the
    batch uses are computed once (_basis).  Each poly then sums only a
    window of them, just wide enough for its own value, and Ziv's rounding
    test on the window's error bound certifies that the rounded value and
    the bits lost equal those of the full-width sum (_window_dot).  Where
    the test fails, or the value is zero, the value is summed again at full
    width (_dot), so every value is bit for bit the full-width one.  A poly
    with no terms is zero at every point and is not summed.

    Every value is sampled at DEFAULT_EVAL_PRECISION.  The bits each value
    loses to cancellation are measured in the same pass.  Where fewer than
    GUARD_BITS would survive, the value is evaluated again at that precision
    + the bits lost.  report holds max_bits_lost, reevaluated (the number of
    values re-evaluated), max_precision (the highest precision used),
    fallbacks (the number of values whose window failed the test and were
    summed at full width) and workers (the number of processes that sampled
    the batch).  parts, if given, splits polys into consecutive runs of
    these lengths, and report is then a list of one report per run, each
    over the values of its own polys, with the workers of the whole batch.

    The points t > 0 are split into interleaved shares, one per process
    (_run_shares): the caller's process and one child forked from it for
    each PARALLEL_MIN_WORK of the batch's work (terms x points t > 0), up to
    one process per CPU the caller may run on.  A value depends only on its
    poly and its point, so every value and every report field but workers
    is the same however the points are split.
    """
    precision = DEFAULT_EVAL_PRECISION
    grid = list(grid)
    if not all(0 <= t < inf for t in grid):
        # the window's error bound needs every basis value B > 0
        raise ValueError("grid points must be finite and nonnegative")
    lengths = [len(polys)] if parts is None else list(parts)
    if sum(lengths) != len(polys) or min(lengths, default=0) < 0:
        raise ValueError("parts must split the %d polys into runs" % len(polys))
    part = [g for g, n in enumerate(lengths) for _ in range(n)]
    keys = sorted({key for p in polys for key in p.terms})
    slot = {key: i for i, key in enumerate(keys)}
    coeffs, bounds = [], []
    for p in polys:
        slots = [slot[key] for key in p.terms]
        pos, neg, _ = c = _coefficients(p, precision, slots)
        coeffs.append(c)
        bounds.append((slots, sum(m for _, m in pos), sum(m for _, m in neg)))

    def sample(points):
        """The values at the grid points with these indices, as one row of
        libmp tuples per point, and per run of polys the [max_bits_lost,
        reevaluated, max_precision, fallbacks] of their values."""
        losses = [[0, 0, precision, 0] for _ in lengths]
        rows = []
        for i in points:
            t = grid[i]
            basis = _basis(keys, t, precision)
            widths = [m.bit_length() for m in basis[0]]
            row = []
            for p, c, bound, g in zip(polys, coeffs, bounds, part):
                if not bound[0]:  # a poly with no terms is zero everywhere
                    row.append(fzero)
                    continue
                loss = losses[g]
                got = _window_dot(c, bound, basis, widths, precision)
                if got is None:
                    got = _dot(c, basis, precision)
                    loss[3] += 1
                value, lost = got
                loss[0] = max(loss[0], lost)
                if precision - lost < GUARD_BITS:
                    value, prec, lost = _reevaluate(p, t, precision, lost)
                    loss[0] = max(loss[0], lost)
                    loss[1] += 1
                    loss[2] = max(loss[2], prec)
                row.append(value)
            rows.append(row)
        return rows, losses

    columns = [None] * len(grid)
    points = []
    for i, t in enumerate(grid):
        if t:
            points.append(i)
        else:
            at_zero = [sum((c for (a, _), c in p.terms.items() if a == 0), GR_ZERO) for p in polys]
            columns[i] = [_round(c.a, c.d, precision) for c in at_zero]
    work = sum(len(p.terms) for p in polys) * len(points)
    workers = _workers(work, PARALLEL_MIN_WORK, len(points))
    shares = [points[k::workers] for k in range(workers)]
    results, processes = _run_shares(
        sample, shares, lambda got, share: len(got[0]) == len(share) and len(got[1]) == len(lengths)
    )
    reports = [
        {
            "max_bits_lost": max(r[g][0] for _, r in results),
            "reevaluated": sum(r[g][1] for _, r in results),
            "max_precision": max(r[g][2] for _, r in results),
            "fallbacks": sum(r[g][3] for _, r in results),
            "workers": processes,
        }
        for g in range(len(lengths))
    ]
    for share, (rows, _) in zip(shares, results):
        for i, row in zip(share, rows):
            columns[i] = row
    make_mpf = mpmath.mp.make_mpf
    values = [[make_mpf(col[j]) for col in columns] for j in range(len(polys))]
    return values, reports[0] if parts is None else reports


def _cpus():
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _workers(work, min_work, items):
    """The processes a parallel map over items should take: this one, and
    one child for each min_work of the work, up to one process per CPU this
    process may run on and one per item."""
    return max(1, min(_cpus(), items, work // min_work + 1))


def _run_shares(run, shares, complete):
    """[run(share) for share in shares], and the number of processes whose
    results it holds.

    Share 0 runs in this process and every other share in a child forked
    from it, which inherits everything run reads.  Each process is pinned
    to its own CPU of the ones this process may run on for the call: a
    scheduler may leave a new child on its parent's CPU for a long time.
    The child writes its result to a pipe as one pickle and exits at once.
    Where a child cannot be forked, dies, or sends something short, unreadable
    or not complete(result, share), its share runs here, so the result is
    always whole.  Every share runs here where os.fork is missing or another
    thread is running: a fork copies the calling thread only, and a lock
    another thread held would stay held in the child.  On any exception
    here, KeyboardInterrupt included, every child still running is killed
    and every child is reaped before the exception propagates."""
    if len(shares) == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [run(share) for share in shares], 1
    # only forked work needs these, so import reyex does not load them
    import pickle
    from signal import SIGKILL

    parent = os.getpid()
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    children = []  # [pid or None once reaped, read end or None once handed over]
    try:
        for k, share in enumerate(shares[1:], 1):
            try:
                r, w = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if not pid:  # the child never returns from here
                status = 1
                try:
                    os.sched_setaffinity(0, {cpus[k % len(cpus)]})
                    with open(w, "wb") as pipe:
                        pickle.dump(run(share), pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append([pid, r])
        # pinned after the forks, so that a child, which inherits the mask,
        # can start at once on a free CPU and pin itself there
        os.sched_setaffinity(0, {cpus[0]})
        results = [run(shares[0])]
        processes = 1
        for share, child in zip(shares[1:], children):
            r, child[1] = child[1], None
            with open(r, "rb") as pipe:
                data = pipe.read()
            status = os.waitpid(child[0], 0)[1]
            child[0] = None
            try:
                got = pickle.loads(data)
                whole = status == 0 and complete(got, share)
            except Exception:  # what a failed child left in the pipe
                whole = False
            if whole:
                results.append(got)
                processes += 1
            else:
                results.append(run(share))
        results += [run(share) for share in shares[1 + len(children):]]
        return results, processes
    except BaseException:
        if os.getpid() != parent:  # a child interrupted before its own try
            os._exit(1)
        for pid, r in children:
            if r is not None:
                os.close(r)
            if pid is not None:
                with suppress(OSError):
                    os.kill(pid, SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
        raise
    finally:
        os.sched_setaffinity(0, allowed)


def _tp(terms):
    """Internal fast constructor: terms must already be canonical."""
    p = TimePoly.__new__(TimePoly)
    p.terms = terms
    return p


def tp_basis(a, b, c=None):
    """The poly c * B_{a,b}; c defaults to 1."""
    if c is None:
        c = GaussianRational(1)
    elif not isinstance(c, GaussianRational):
        c = GaussianRational(c)
    return TimePoly({(a, b): c})


TP_ZERO = TimePoly()
