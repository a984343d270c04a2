"""End-to-end acceptance battery.

Each test covers one numbered criterion, enforces its runtime budget and
prints a single PASS line (visible under pytest -s / -v with -rP).  Heavy
artifacts (the order-5 expansion, estimator tables) are memoized at module
level so later criteria reuse them.
"""

import math
import os
import random
import time

import mpmath
import pytest
from oracles import assert_residual_identity

from reyex.control import classical_bounds, find_critical_R
from reyex.data import datum_bnw, datum_km, datum_tg, get_datum, mode_amplitude
from reyex.estimators import ConstantsTable, EstimatorTables, default_grid
from reyex.expansion import cache_load, expand, residual_tail
from reyex.fields import leray_project, static_field
from reyex.rationals import GaussianRational, mpq
from reyex.symmetry import find_symmetries, octahedral_matrices
from reyex.timepoly import TimePoly

DATA = {"bnw": datum_bnw, "tg": datum_tg, "km": datum_km}

_memo = {}


def _passline(num, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, "criterion %d exceeded budget: %.1fs >= %ds" % (
        num, elapsed, budget)
    print("criterion %2d (%s): PASS in %.1fs" % (num, label, elapsed))


def _expansion(name, N, tails=False):
    key = (name, N)
    if key not in _memo:
        exp = expand(DATA[name]().field, N, datum_id=name)
        _memo[key] = exp
    exp = _memo[key]
    if tails and exp.tails is None:
        residual_tail(exp)
    return exp


def _tables(name, N):
    key = ("tables", name, N)
    if key not in _memo:
        _memo[key] = EstimatorTables(_expansion(name, N), 3, grid=default_grid())
    return _memo[key]


def trunc3(x):
    e = math.floor(math.log10(abs(x)))
    scale = 10.0 ** (e - 2)
    return math.trunc(x / scale) * scale


def test_criterion_01_datum_norms():
    t0 = time.perf_counter()
    norms = {"bnw": 154.3, "tg": 40.91, "km": 497.6}
    gammas = {"bnw": ((1, 1, 0), 22.27), "tg": ((1, 1, 1), 2.784),
              "km": ((3, 1, 1), 2.784)}
    for name, build in DATA.items():
        d = build()
        assert float(d.sobolev(3)) == pytest.approx(norms[name], rel=1e-3)
        k, g0 = gammas[name]
        assert d.marked_mode == k
        assert float(mode_amplitude([d.field], k, 0, [0])[0]) == pytest.approx(g0, rel=1e-3)
    _passline(1, "datum norms and marked-mode amplitudes", t0, 1)


def test_criterion_02_classical_bounds():
    t0 = time.perf_counter()
    # published thresholds are truncated (not rounded) to 3 significant digits
    expected = {"bnw": (0.0147, 0.00527), "tg": (0.0557, 0.0298),
                "km": (0.00458, 0.00899)}
    for name, build in DATA.items():
        rec = classical_bounds(build())
        r3, r1 = expected[name]
        assert trunc3(rec["R_h3"]) == pytest.approx(r3, rel=1e-9), name
        assert trunc3(rec["R_h1"]) == pytest.approx(r1, rel=1e-9), name
    _passline(2, "classical existence thresholds", t0, 1)


def test_criterion_03_reynolds_factors():
    t0 = time.perf_counter()
    expected = {"bnw": 15.39, "tg": 1.813, "km": 1.640}
    for name, build in DATA.items():
        assert float(build().rey_factor()) == pytest.approx(expected[name], rel=1e-3)
    _passline(3, "physical Reynolds conversion factors", t0, 1)


def test_criterion_04_symmetry_discovery():
    t0 = time.perf_counter()
    syms = {name: find_symmetries(build().field) for name, build in DATA.items()}
    assert len(syms["bnw"].plus) == 12
    assert len(syms["tg"].plus) == 64
    assert len(syms["km"].plus) == 192
    assert len(syms["bnw"].reduced_plus) == 6
    assert len(syms["tg"].reduced_plus) == 16
    assert len(syms["km"].reduced_plus) == 48
    # bnw: the two reduced matrix sets are disjoint; tg/km: they coincide
    assert not (syms["bnw"].reduced_plus & syms["bnw"].reduced_minus)
    assert syms["tg"].reduced_plus == syms["tg"].reduced_minus
    assert syms["km"].reduced_plus == syms["km"].reduced_minus
    # km fills out the whole signed-permutation group
    assert syms["km"].reduced_plus == frozenset(octahedral_matrices())
    _passline(4, "symmetry group sizes", t0, 10)


def test_criterion_05_bnw_order5_bracket():
    t0 = time.perf_counter()
    exp = _expansion("bnw", 5, tails=True)
    tables = _tables("bnw", 5)
    log = []
    lo, hi = find_critical_R(exp, 3, "tautological", 0.23, 0.24, tol_R=0.01,
                             tables=tables, probe_log=log)
    assert (lo, hi) == (0.23, 0.24)
    verdicts = {r: v for r, v, _ in log}
    assert verdicts[0.23] == "GlobalDecay"
    assert verdicts[0.24] == "BlowUp"
    _passline(5, "order-5 bnw tautological bracket (0.23, 0.24)", t0, 3600)


def test_criterion_06_monotonicity_in_N():
    t0 = time.perf_counter()
    brackets = {}
    for name in DATA:
        for N in (1, 3, 5):
            exp = _expansion(name, N)
            tables = _tables(name, N)
            brackets[name, N] = find_critical_R(
                exp, 3, "rough", 0.01, 2.0, tol_R=0.01, tables=tables)
    for name in DATA:
        seq = [brackets[name, N] for N in (1, 3, 5)]
        print("  %s rough brackets N=1,3,5: %s" % (name, seq))
        for (lo_a, hi_a), (lo_b, hi_b) in zip(seq, seq[1:]):
            assert lo_b >= lo_a, name
            assert hi_b >= hi_a, name
    _passline(6, "critical brackets non-decreasing in N", t0, 7200)


def test_criterion_07_pruning_equivalence():
    t0 = time.perf_counter()
    for name, build in DATA.items():
        d = build()
        pruned = expand(d.field, 4, datum_id=name)
        plain = expand(d.field, 4, use_symmetry=False, datum_id=name)
        for a, b in zip(pruned.coeffs, plain.coeffs):
            assert a == b, name
    _passline(7, "pruned == unpruned expansions, N <= 4", t0, 1800)


def _random_two_mode_datum(seed):
    rng = random.Random(seed)
    while True:
        ks = set()
        while len(ks) < 2:
            k = tuple(rng.randint(-2, 2) for _ in range(3))
            if k != (0, 0, 0):
                ks.add(k)
        modes = {}
        for k in ks:
            vec = tuple(
                GaussianRational(mpq(rng.randint(-4, 4), rng.randint(1, 3)),
                                 mpq(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(3)
            )
            polys = tuple(TimePoly({(0, 0): c}) for c in vec)
            proj = leray_project(k, polys)
            const = tuple(p.terms.get((0, 0), GaussianRational(0)) for p in proj)
            if any(const):
                modes[k] = const
        if len(modes) == 2:
            return static_field(modes)


def test_criterion_08_residual_identity():
    t0 = time.perf_counter()
    for seed in (11, 12):
        u_star = _random_two_mode_datum(seed)
        for N in (1, 2, 3):
            assert_residual_identity(expand(u_star, N, use_symmetry=False))
    _passline(8, "residual orders vanish, tails match", t0, 300)


def test_criterion_09_heat_convolution_suite():
    t0 = time.perf_counter()
    rng = random.Random(7)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (rng.randint(0, 4), rng.randint(0, 12))
            terms[key] = GaussianRational(
                mpq(rng.randint(-9, 9), rng.randint(1, 5)),
                mpq(rng.randint(-9, 9), rng.randint(1, 5)))
        p = TimePoly(terms)
        ksq = rng.randint(1, 14)
        F = p.heat_convolve(ksq)
        assert F.derivative() == F.scale_rational(mpq(-ksq)) + p
        assert abs(F.evaluate(0)) < mpmath.mpf(2) ** -200
    with mpmath.workprec(113):
        for terms, ksq in (
            ({(0, 4): GaussianRational(1, 0)}, 4),
            ({(2, 4): GaussianRational(mpq(1, 3), mpq(1, 2))}, 4),
            ({(3, 1): GaussianRational(-2, 0), (0, 9): GaussianRational(0, 1)}, 5),
        ):
            p = TimePoly(terms)
            F = p.heat_convolve(ksq)
            for t in (mpmath.mpf("0.25"), mpmath.mpf(3)):
                direct = mpmath.quad(
                    lambda s: mpmath.e ** (-ksq * (t - s)) * p.evaluate(s, 113),
                    [0, t])
                exact = F.evaluate(t, 113)
                assert abs(direct - exact) < 1e-12 * (1 + abs(exact))
    _passline(9, "heat convolution identity and quadrature", t0, 60)


PRODUCTION_BRACKETS = {"bnw": (0.51, 0.52), "tg": (2.8, 2.9), "km": (0.61, 0.62)}


def test_criterion_10_production_scale():
    """Production-order brackets need multi-day runs, so the bracket check
    is gated on a user-supplied cache (REYEX_PRODUCTION_CACHE pointing at
    directories bnw/, tg/, km/); what always runs is the growth statistic:
    per-order coefficient counts must be non-decreasing."""
    t0 = time.perf_counter()
    exp = _expansion("bnw", 5)
    counts = [s["nonzero_coefficients"] for s in exp.meta]
    print("  bnw per-order coefficient counts: %s" % (counts,))
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    for name in ("tg", "km"):
        cts = [s["nonzero_coefficients"] for s in _expansion(name, 3).meta]
        print("  %s per-order coefficient counts: %s" % (name, cts))
        assert all(b >= a for a, b in zip(cts, cts[1:]))

    root = os.environ.get("REYEX_PRODUCTION_CACHE")
    if root:
        for name, (lo, hi) in PRODUCTION_BRACKETS.items():
            path = os.path.join(root, name)
            if not os.path.isdir(path):
                continue
            exp = cache_load(path)
            out = find_critical_R(exp, 3, "tautological", lo, hi, tol_R=hi - lo,
                                  tables=EstimatorTables(exp, 3, grid=default_grid()))
            assert out == (lo, hi), name
        _passline(10, "production brackets from supplied cache", t0, 86400)
    else:
        _passline(10, "coefficient growth statistics (cache-gated brackets skipped)",
                  t0, 3600)
