import os
import pickle
import threading
import time
from fractions import Fraction
from signal import SIGKILL
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import from_man_exp, mpf_mul, round_nearest

import reyex.timepoly
from reyex.rationals import GaussianRational, mpq
from reyex.timepoly import (
    GUARD_BITS,
    TP_ONE,
    TP_ZERO,
    TimePoly,
    _from_records,
    _mul_round,
    _round_int,
    _to_records,
    sample_real_polys,
    tp_basis,
)

from oracles import from_records_reference, sample_real_polys_full, to_records_reference

small_q = st.fractions(min_value=-50, max_value=50, max_denominator=20).map(
    lambda f: mpq(f.numerator, f.denominator)
)
coeffs = st.tuples(small_q, small_q).map(lambda t: GaussianRational(*t))
exponent_pairs = st.tuples(st.integers(0, 4), st.integers(0, 12))
polys = st.dictionaries(exponent_pairs, coeffs, max_size=5).map(TimePoly)


def test_zero_terms_dropped():
    p = TimePoly({(0, 1): GaussianRational(0, 0), (1, 2): GaussianRational(1, 0)})
    assert (0, 1) not in p.terms
    assert p.num_terms() == 1


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        TimePoly({(-1, 0): GaussianRational(1, 0)})
    with pytest.raises(ValueError):
        TimePoly({(0, -2): GaussianRational(1, 0)})


def test_product_adds_exponents():
    p = tp_basis(1, 2) * tp_basis(3, 4)
    assert p == tp_basis(4, 6)


def test_derivative_of_basis():
    # d/dt t^2 e^{-3t} = 2 t e^{-3t} - 3 t^2 e^{-3t}
    p = tp_basis(2, 3).derivative()
    assert p == TimePoly({(1, 3): GaussianRational(2, 0), (2, 3): GaussianRational(-3, 0)})


def test_evaluate_simple():
    p = tp_basis(1, 1, GaussianRational(2, 0))
    v = p.evaluate(mpmath.mpf(1))
    with mpmath.workprec(256):
        assert abs(v.real - 2 * mpmath.e ** -1) < mpmath.mpf(2) ** -200
    assert v.imag == 0


def test_evaluate_precision_guard():
    with pytest.raises(ValueError):
        TP_ONE.evaluate(1.0, precision=10)


def test_records_round_trip():
    p = TimePoly(
        {
            (0, 2): GaussianRational(mpq(1, 3), mpq(-2, 7)),
            (3, 0): GaussianRational(0, mpq(5)),
        }
    )
    assert TimePoly.from_records(p.to_records()) == p


def test_records_reject_duplicates():
    with pytest.raises(ValueError):
        TimePoly.from_records(["0 1 1/1 0/1", "0 1 2/1 0/1"])


@given(polys, polys, polys)
@settings(max_examples=50)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p - p == TP_ZERO


@given(polys, polys, st.integers(-2, 2))
@settings(max_examples=80)
def test_subtraction_matches_adding_the_negation(p, q, n):
    # q + n p overlaps p term by term, so some differences cancel to zero
    q = q + p.scale_rational(mpq(n))
    for a, b in ((p, q), (q, p), (p, p), (p, TP_ZERO), (TP_ZERO, p)):
        d = a - b
        assert d == a + (-b)
        assert all(d.terms.values())
    assert (p - p).terms == {}


@given(polys)
@settings(max_examples=50)
def test_quarter_turns_equal_products_with_the_phase(p):
    assert p.mul_i() == p.scale(GaussianRational(0, 1))
    assert p.mul_minus_i() == p.scale(GaussianRational(0, -1))
    assert -p == p.scale(GaussianRational(-1, 0))


@given(polys, polys)
@settings(max_examples=50)
def test_derivative_is_a_derivation(p, q):
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


# -- heat-kernel convolution suite ------------------------------------------------


@given(polys, st.integers(1, 14))
@settings(max_examples=60, deadline=None)
def test_heat_convolution_solves_the_forced_ode(p, ksq):
    """F(t) = int_0^t e^{-ksq (t-s)} p(s) ds satisfies F' = -ksq F + p, F(0)=0."""
    F = p.heat_convolve(ksq)
    lhs = F.derivative()
    rhs = F.scale_rational(mpq(-ksq)) + p
    assert lhs == rhs
    # F(0) = 0: sum of coefficients with a = 0 must cancel
    at0 = F.evaluate(0)
    assert abs(at0) < mpmath.mpf(2) ** -200


@pytest.mark.parametrize(
    "terms,ksq",
    [
        ({(0, 4): GaussianRational(1, 0)}, 4),  # resonant b == ksq
        ({(2, 4): GaussianRational(mpq(1, 3), mpq(1, 2))}, 4),
        ({(3, 1): GaussianRational(-2, 0), (0, 9): GaussianRational(0, 1)}, 5),
        ({(1, 0): GaussianRational(1, 1)}, 2),
    ],
)
def test_heat_convolution_matches_quadrature(terms, ksq):
    p = TimePoly(terms)
    F = p.heat_convolve(ksq)
    mpmath.mp.prec = 113
    try:
        for t in (mpmath.mpf("0.25"), mpmath.mpf(1), mpmath.mpf(3)):
            direct = mpmath.quad(
                lambda s: mpmath.e ** (-ksq * (t - s)) * p.evaluate(s, 113), [0, t]
            )
            exact = F.evaluate(t, 113)
            assert abs(direct - exact) < 1e-12 * (1 + abs(exact))
    finally:
        mpmath.mp.prec = 53


def test_heat_convolution_rejects_nonpositive_ksq():
    with pytest.raises(ValueError):
        TP_ONE.heat_convolve(0)


def test_convolution_is_linear():
    p = tp_basis(1, 3)
    q = tp_basis(0, 7, GaussianRational(0, 2))
    assert (p + q).heat_convolve(5) == p.heat_convolve(5) + q.heat_convolve(5)


real_polys = st.dictionaries(
    exponent_pairs, small_q.map(GaussianRational), max_size=6
).map(TimePoly)


@settings(max_examples=40, deadline=None)
@given(st.lists(real_polys, min_size=1, max_size=4))
def test_sample_real_polys_matches_evaluate(batch):
    grid = [0.0, 1e-3, 0.37, 2.0, 11.5]
    values, report = sample_real_polys(batch, grid, 256)
    for p, vals in zip(batch, values):
        # t = 0 is exact: the rational sum of the a = 0 coefficients, rounded once
        at_zero = sum((c.re for (a, _), c in p.terms.items() if a == 0), mpq(0))
        with mpmath.workprec(256):
            assert vals[0] == mpmath.mpf(at_zero.numerator) / at_zero.denominator
        with mpmath.workprec(512):
            for t, v in zip(grid[1:], vals[1:]):
                ref = p.evaluate(t, 512).real
                scale = sum(abs(c.re) for c in p.terms.values())
                assert abs(v - ref) <= mpmath.mpf(2) ** -200 * (1 + scale)
    assert report["max_precision"] >= 256


def test_sample_real_polys_rejects_complex_coefficients():
    with pytest.raises(ValueError):
        sample_real_polys([tp_basis(0, 1, GaussianRational(1, 1))], [0.0, 1.0])


def test_precision_guard_reevaluates_cancelling_values():
    # (1 - e^{-t} - t e^{-t})^10 ~ t^20 / 1024 near 0: its 66 terms of size
    # up to ~10^4 cancel to ~1e-63 at t = 1e-3, about 219 bits
    base = TP_ONE - tp_basis(0, 1) - tp_basis(1, 1)
    p = TP_ONE
    for _ in range(10):
        p = p * base
    grid = [0.0, 1e-3, 0.5, 3.0]
    values, report = sample_real_polys([p], grid, 256)
    assert report["reevaluated"] >= 1
    assert report["max_bits_lost"] > 256 - GUARD_BITS
    assert report["max_precision"] > 256
    assert values[0][0] == 0
    for t, v in zip(grid[1:], values[0][1:]):
        ref = p.evaluate(t, 1024).real
        assert float(v) == pytest.approx(float(ref), rel=1e-15)
    assert float(values[0][1]) == pytest.approx(1e-60 / 1024, rel=0.05)


def _rounded(p, q, prec):
    """p / q > 0 rounded to nearest, ties to even, at prec bits, by integer
    arithmetic alone."""
    x = Fraction(p, q)
    e = p.bit_length() - q.bit_length()
    if x < Fraction(2) ** e:
        e -= 1
    man = round(x * Fraction(2) ** (prec - 1 - e))
    return mpmath.mpf((man, e - prec + 1))


def test_wide_rationals_are_rounded_once():
    # numerator and denominator both wider than the 256-bit precision
    num, den = 3**260 + 1, 7**150
    assert num.bit_length() > 400 and den.bit_length() > 400
    p = tp_basis(0, 5, GaussianRational(mpq(num, den)))
    values, _ = sample_real_polys([p], [0.0, 1.0], 256)
    with mpmath.workprec(256):
        expected = _rounded(num, den, 256)
        # rounding numerator, denominator and quotient apart lands elsewhere
        assert mpmath.mpf(num) / mpmath.mpf(den) != expected
        assert values[0][0] == expected
    assert p.evaluate(0, 256).real == expected


km_scale_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 330)), small_q.map(GaussianRational),
    min_size=1, max_size=8,
).map(TimePoly)


@settings(max_examples=40, deadline=None)
@given(st.lists(km_scale_polys, min_size=1, max_size=4))
def test_sample_real_polys_is_accurate_at_large_exponents(batch):
    # e^{-330 t} at t = 20 is about 2^-9500: every basis value is a long
    # product of powers of e^{-t}, so this checks the relative accuracy of
    # the successive-power basis, not just its absolute size
    grid = [0.0, 1e-3, 0.5, 7.0, 20.0]
    values, report = sample_real_polys(batch, grid, 256)
    bound = mpmath.mpf(2) ** -(256 - report["max_bits_lost"] - 8)
    for p, vals in zip(batch, values):
        for t, v in zip(grid[1:], vals[1:]):
            ref = p.evaluate(t, 1024).real
            with mpmath.workprec(1024):
                assert abs(v - ref) <= bound * abs(ref)


def _assert_equals_full_width(batch, grid):
    """The windowed sampler gives the full-width sampler's mpfs to the bit and
    its report, plus fallbacks; returns that report."""
    values, report = sample_real_polys(batch, grid, 256)
    ref, ref_report = sample_real_polys_full(batch, grid, 256)
    assert [[v._mpf_ for v in vs] for vs in values] == [[v._mpf_ for v in vs] for vs in ref]
    assert report == dict(ref_report, fallbacks=report["fallbacks"], workers=report["workers"])
    return report


@settings(max_examples=60, deadline=None)
@given(st.lists(km_scale_polys, min_size=1, max_size=4))
def test_windowed_sampling_equals_the_full_width_sum(batch):
    # at t = 7 and 20, with b up to 330, the aligned basis is thousands of
    # bits wide, so most values there are summed over a window
    _assert_equals_full_width(batch, [0.0, 1e-3, 0.5, 7.0, 20.0])


def test_windowed_sampling_equals_the_full_width_sum_when_reevaluating():
    base = TP_ONE - tp_basis(0, 1) - tp_basis(1, 1)
    p = TP_ONE
    for _ in range(10):
        p = p * base
    # t^40 e^{-40 t} puts the batch's shared power of two far below p's
    # terms at t = 1e-6 and 9, so p is windowed there; at 1e-6 its terms
    # span about 200 bits, so the shift drops nonzero bits from the small
    # ones, and it cancels 418 bits, fails the window's test, falls back and
    # is re-evaluated
    report = _assert_equals_full_width([p, tp_basis(40, 40)], [0.0, 1e-6, 0.5, 3.0, 9.0])
    assert report["reevaluated"] == 1
    assert report["fallbacks"] == 1


def test_exact_zero_in_a_window_falls_back_to_the_full_width_sum():
    # (t - 1)(1 + e^{-330 t}) vanishes at t = 1, where its terms e^{-330 t}
    # sit about 476 bits below its terms 1, so it is summed over a window
    # that shifts nonzero bits out of them, and the window's test fails
    batch = [(tp_basis(1, 0) - TP_ONE) * (TP_ONE + tp_basis(0, 330)), tp_basis(0, 330)]
    report = _assert_equals_full_width(batch, [0.0, 1.0])
    assert report["fallbacks"] == 1
    values, _ = sample_real_polys(batch, [0.0, 1.0], 256)
    assert values[0][1] == 0


def test_window_that_drops_only_zero_bits_is_exact():
    # t - 1 vanishes at t = 1; e^{-330 t} puts the batch's shared power of
    # two about 476 bits below 1, so t - 1 is summed over a window there.
    # Its two basis integers are equally wide, so the shift drops only zero
    # bits from them: the window's sum is exact and needs no test
    batch = [tp_basis(1, 0) - TP_ONE, tp_basis(0, 330)]
    report = _assert_equals_full_width(batch, [0.0, 1.0])
    assert report["fallbacks"] == 0
    values, _ = sample_real_polys(batch, [0.0, 1.0], 256)
    assert values[0][1] == 0


# -- sampling split across forked processes ------------------------------------------

# t = 0 and a repeated point among the others, out of order, so the values
# are merged back by grid index
SHARED_GRID = [0.5, 0.0, 1e-3, 20.0, 7.0, 0.37, 0.5, 11.5]


def _assert_no_children():
    # every child forked by a sampling call has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sample_on(cpus, batch, grid=SHARED_GRID):
    """sample_real_polys as if the process could run on cpus CPUs, with no
    work floor, so every batch with points t > 0 to spare is split."""
    allowed = os.sched_getaffinity(0)
    with mock.patch.object(reyex.timepoly, "_cpus", lambda: cpus), \
            mock.patch.object(reyex.timepoly, "PARALLEL_MIN_WORK", 1):
        out = sample_real_polys(batch, grid, 256)
    _assert_no_children()
    # the processes were pinned to a CPU each for the call only
    assert os.sched_getaffinity(0) == allowed
    return [[v._mpf_ for v in vs] for vs in out[0]], out[1]


def _assert_forked_equals_serial(batch, cpus, workers):
    values, report = _sample_on(cpus, batch)
    ref, ref_report = _sample_on(1, batch)
    assert values == ref
    assert ref_report["workers"] == 1
    assert report == dict(ref_report, workers=workers)


@settings(max_examples=25, deadline=None)
@given(st.lists(km_scale_polys, min_size=1, max_size=4), st.integers(2, 3))
def test_forked_sampling_equals_the_serial_one(batch, cpus):
    # a batch with no terms has no work to share
    _assert_forked_equals_serial(batch, cpus, cpus if any(p.terms for p in batch) else 1)


def test_forked_sampling_equals_the_serial_one_when_reevaluating():
    # p cancels 219 bits at t = 1e-3 and is re-evaluated in whichever
    # process samples that point
    base = TP_ONE - tp_basis(0, 1) - tp_basis(1, 1)
    p = TP_ONE
    for _ in range(10):
        p = p * base
    for cpus in (2, 3):
        _assert_forked_equals_serial([p, tp_basis(40, 40)], cpus, cpus)
    assert _sample_on(3, [p])[1]["reevaluated"] == 1


def test_a_batch_below_the_work_floor_is_sampled_in_one_process():
    with mock.patch.object(reyex.timepoly, "_cpus", lambda: 2):
        small = sample_real_polys([tp_basis(0, 1)], [0.0, 1.0, 2.0], 256)[1]
        # each process must get PARALLEL_MIN_WORK terms x points
        n = reyex.timepoly.PARALLEL_MIN_WORK
        large = sample_real_polys([tp_basis(0, 1)], [0.1 * (i + 1) for i in range(n)], 256)[1]
    _assert_no_children()
    assert (small["workers"], large["workers"]) == (1, 2)


def _fork_fails(after):
    """os.fork that raises OSError once after forks have succeeded."""
    fork = os.fork
    forks = []

    def failing():
        if len(forks) == after:
            raise OSError("no more processes")
        forks.append(None)
        return fork()

    return failing


@pytest.mark.parametrize("after, workers", [(None, 1), (0, 1), (1, 2)])
def test_sampling_runs_here_what_it_cannot_fork(monkeypatch, after, workers):
    # no os.fork at all, fork failing at once, and fork failing for the
    # second child: the shares without a child are sampled here
    batch = [tp_basis(1, 3) - tp_basis(0, 40), tp_basis(2, 0)]
    ref, ref_report = _sample_on(1, batch)
    if after is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _fork_fails(after))
    values, report = _sample_on(3, batch)
    assert values == ref
    assert report == dict(ref_report, workers=workers)


def test_sampling_does_not_fork_while_another_thread_runs():
    batch = [tp_basis(1, 3) - tp_basis(0, 40), tp_basis(2, 0)]
    ref, ref_report = _sample_on(1, batch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        values, report = _sample_on(3, batch)
    finally:
        done.set()
        thread.join(10)
    assert not thread.is_alive()
    assert values == ref
    assert report == ref_report


def _child_raises(parent, basis):
    def failing(keys, t, prec):
        if os.getpid() != parent:
            raise RuntimeError("injected failure")
        return basis(keys, t, prec)

    return failing


def _child_killed(parent, basis):
    def killed(keys, t, prec):
        if os.getpid() != parent:
            os.kill(os.getpid(), SIGKILL)
        return basis(keys, t, prec)

    return killed


@pytest.mark.parametrize("failure", ["raises", "killed", "garbage", "short"])
def test_a_failed_child_share_is_sampled_by_the_parent(monkeypatch, failure):
    batch = [tp_basis(1, 3) - tp_basis(0, 40), tp_basis(2, 0), TP_ONE - tp_basis(1, 1)]
    ref, ref_report = _sample_on(1, batch)
    parent = os.getpid()
    if failure == "raises":
        monkeypatch.setattr(reyex.timepoly, "_basis", _child_raises(parent, reyex.timepoly._basis))
    elif failure == "killed":
        monkeypatch.setattr(reyex.timepoly, "_basis", _child_killed(parent, reyex.timepoly._basis))
    else:
        dumps = pickle.dumps

        def bad_dump(obj, fh, protocol):
            # only children pickle: the parent reads what they wrote, here a
            # pickle of no rows, or the first half of the real one
            data = dumps(([], {}) if failure == "garbage" else obj, protocol)
            fh.write(data if failure == "garbage" else data[: len(data) // 2])

        monkeypatch.setattr(pickle, "dump", bad_dump)
    values, report = _sample_on(3, batch)
    assert values == ref
    assert report == dict(ref_report, workers=1)


def test_an_exception_in_the_parent_kills_and_reaps_every_child(monkeypatch):
    parent = os.getpid()
    basis = reyex.timepoly._basis

    def interrupted(keys, t, prec):
        if os.getpid() != parent:
            time.sleep(60)
        else:
            raise KeyboardInterrupt
        return basis(keys, t, prec)

    monkeypatch.setattr(reyex.timepoly, "_basis", interrupted)
    allowed = os.sched_getaffinity(0)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _sample_on(3, [tp_basis(1, 3), tp_basis(2, 0)])
    _assert_no_children()
    assert time.monotonic() - start < 30
    assert os.sched_getaffinity(0) == allowed


@pytest.mark.parametrize("cpus", [1, 3])
def test_parts_give_each_run_of_polys_its_own_report(cpus):
    # p cancels 219 bits at t = 1e-3 and is re-evaluated there; the empty
    # run reports no loss
    base = TP_ONE - tp_basis(0, 1) - tp_basis(1, 1)
    p = TP_ONE
    for _ in range(10):
        p = p * base
    runs = [[tp_basis(1, 3) - tp_basis(0, 40)], [], [p, tp_basis(40, 40)]]
    values, reports = _sample_parts_on(cpus, [q for run in runs for q in run], [1, 0, 2])
    alone = [_sample_on(cpus, run) for run in runs]
    assert values == [v for run_values, _ in alone for v in run_values]
    # the same but for the processes: one batch shares its workers
    assert [dict(r, workers=None) for r in reports] == [dict(r, workers=None) for _, r in alone]
    assert {r["workers"] for r in reports} == {cpus}
    assert reports[1] == dict(max_bits_lost=0, reevaluated=0, max_precision=256, fallbacks=0,
                              workers=cpus)
    assert reports[2]["reevaluated"] == 1


def _sample_parts_on(cpus, batch, parts):
    with mock.patch.object(reyex.timepoly, "_cpus", lambda: cpus), \
            mock.patch.object(reyex.timepoly, "PARALLEL_MIN_WORK", 1):
        values, reports = sample_real_polys(batch, SHARED_GRID, 256, parts=parts)
    _assert_no_children()
    return [[v._mpf_ for v in vs] for vs in values], reports


@pytest.mark.parametrize("parts", [[1, 1], [2, 2], [4, -1]])
def test_parts_must_split_the_batch(parts):
    with pytest.raises(ValueError, match="parts must split"):
        sample_real_polys([tp_basis(0, 1), tp_basis(1, 1), tp_basis(2, 1)], [0.0, 1.0], 256,
                          parts=parts)


@pytest.mark.parametrize("t", [-0.5, -1e-300, float("inf"), float("nan")])
def test_grid_points_must_be_finite_and_nonnegative(t):
    # a negative t would drop the sign of t^a, and the window's error
    # bound needs every basis value positive
    with pytest.raises(ValueError):
        sample_real_polys([tp_basis(1, 0)], [t, 0.5])


def _tie(q, n):
    """The mantissa q 2^n + 2^(n-1), halfway between q 2^n and (q + 1) 2^n."""
    return (q << n) | (1 << (n - 1))


mantissas = st.one_of(
    st.just(1),  # one-bit mantissas: the product is the other factor
    st.integers(1, 2**40),
    st.integers(1, 2**300),
    st.builds(_tie, st.integers(2**255, 2**256 - 1), st.integers(1, 60)),
)


@settings(max_examples=300, deadline=None)
@given(mantissas, mantissas, st.integers(-500, 500), st.integers(-500, 500),
       st.sampled_from([53, 64, 256]), st.integers(0, 8))
@example(_tie(2**255 + 1, 5), 1, 0, 0, 256, 0)  # a tie rounding up to even
@example(_tie(2**255, 5), 1, 0, 0, 256, 3)  # a tie rounding down to even
@example(2**64 - 1, 1, 0, 0, 53, 0)  # rounding up carries into a new bit
@example(3, 5, -2, 7, 53, 2)  # an exact product
@example(1, 1, 3, -7, 53, 0)  # one-bit mantissas
def test_mul_round_is_mpf_mul(xm, ym, xe, ye, prec, pad):
    # ties come from the tie mantissas against a one-bit one, exact products
    # from small mantissas; trailing zeros in the inputs change nothing
    x, y = from_man_exp(xm, xe), from_man_exp(ym, ye)
    man, exp = _mul_round((xm << pad, xe - pad), (ym, ye), prec)
    assert from_man_exp(man, exp) == mpf_mul(x, y, prec, round_nearest)
    assert man.bit_length() <= prec + 1


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**700, 2**700), st.integers(-300, 300), st.sampled_from([53, 256]))
def test_round_int_is_from_man_exp(man, exp, prec):
    assert _round_int(man, exp, prec) == from_man_exp(man, exp, prec, round_nearest)


# -- the cache codec against the one-coefficient-at-a-time reference ---------------

wide_q = st.builds(mpq, st.integers(-10**40, 10**40), st.integers(1, 10**25))
wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 40), st.integers(0, 400)),
    st.one_of(
        st.builds(GaussianRational, wide_q, wide_q),
        st.builds(GaussianRational, wide_q),
        st.builds(GaussianRational, st.just(0), wide_q),
    ),
    max_size=8,
).map(TimePoly)


@settings(max_examples=150, deadline=None)
@given(st.lists(wide_polys, max_size=5))
def test_encoder_writes_the_reference_text(batch):
    # one memo across the batch, as to_payload shares one across a field
    memo = {}
    for p in batch:
        ref = to_records_reference(p)
        assert p.to_records() == ref
        assert _to_records(p, memo) == ref


rational_texts = st.one_of(
    st.sampled_from(["0", "-0", "9/1", "2/4", "0/3", "-6/-4", "+3", "1/0", "1/2/3", "/2",
                     "1.5", "x", ""]),
    st.integers(-10**30, 10**30).map(str),
    st.tuples(st.integers(-10**30, 10**30), st.integers(-7, 7)).map(lambda t: "%d/%d" % t),
)
# mostly well formed, so that many whole lists are
exponent_texts = st.sampled_from(["0", "1", "2", "3", "4", "5", "6", "7", "8", "-1", "+2", "01",
                                  "1.0", "x"])


@st.composite
def record_texts(draw):
    """'a b re im' with any whitespace around and between the fields, and now
    and then a field too few or too many."""
    fields = [draw(exponent_texts), draw(exponent_texts), draw(rational_texts),
              draw(rational_texts), draw(rational_texts)]
    fields = fields[: draw(st.sampled_from([4, 4, 4, 4, 4, 4, 3, 5]))]
    gaps = st.sampled_from([" ", "  ", "\t", " \t "])
    text = "".join(draw(gaps) + f for f in fields)
    return text[1:] if draw(st.booleans()) else text + draw(gaps)


def _assert_decodes_as_reference(decode, records):
    """decode(records) equals the reference's poly, or raises ValueError (and
    so CacheError in a cache) wherever the reference raises."""
    try:
        ref = from_records_reference(records)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            decode(records)
    else:
        assert decode(records) == ref


record_lists = st.lists(record_texts(), max_size=5)
KNOWN_RECORDS = [
    ["0 1 9/1 0/1", "1  2 2/4\t-0", " 3 0 0/3 7 ", "2 2 0 0"],  # zeros dropped
    ["0 1 1/1 0/1", "0 1 0 0"],  # a duplicate pair, one of them zero
    ["0 -1 1 0"],  # a negative exponent
    ["-1 0 0 0"],  # a negative exponent on a zero coefficient
    ["0 1 9/1"],  # a field too few
    ["0 1 9/1 0/1 0"],  # a field too many
    ["0 1 1/0 0"],  # a zero denominator
]


@settings(max_examples=300, deadline=None)
@given(record_lists)
@example(KNOWN_RECORDS[0])
@example(KNOWN_RECORDS[1])
@example(KNOWN_RECORDS[2])
@example(KNOWN_RECORDS[3])
@example(KNOWN_RECORDS[4])
@example(KNOWN_RECORDS[5])
@example(KNOWN_RECORDS[6])
def test_decoder_matches_the_reference(records):
    _assert_decodes_as_reference(TimePoly.from_records, records)


@settings(max_examples=150, deadline=None)
@given(st.lists(record_lists, max_size=4))
@example(KNOWN_RECORDS)
def test_decoder_with_a_shared_memo_matches_the_reference(batch):
    # one memo across the batch, as from_payload shares one across a field;
    # a rejected list leaves the memo fit for the next
    memo = {}
    for records in batch:
        _assert_decodes_as_reference(lambda recs: _from_records(recs, memo), records)


def test_decoder_shares_one_object_per_coefficient_text():
    memo = {}
    p = _from_records(["0 1 1/3 0", "2 0 -1/2 0"], memo)
    q = _from_records(["0 1 1/3 0", "1 1 1/3 0", "3 3 0 0"], memo)
    assert p.terms[(0, 1)] is q.terms[(0, 1)] is q.terms[(1, 1)]
    assert q.terms == {(0, 1): GaussianRational(mpq(1, 3)), (1, 1): GaussianRational(mpq(1, 3))}


def test_decoder_shares_one_key_per_exponent_pair():
    # however the pair is written, the polys of one memo hold one key tuple
    memo = {}
    p = _from_records(["0 1 1/3 0", "2 0 -1/2 0"], memo)
    q = _from_records(["0  1 1/5 0", "02 0 1/7 0"], memo)
    r = _from_records(["00 01 1 0"], memo)
    (kp0, kp2), (kq0, kq2), (kr,) = p.terms, q.terms, r.terms
    assert kp0 == (0, 1) and kp2 == (2, 0)
    assert kp0 is kq0 is kr and kp2 is kq2
