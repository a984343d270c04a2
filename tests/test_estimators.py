import math
import os
import pickle
import random
import struct
import threading
from fractions import Fraction
from signal import SIGKILL

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from reyex.data import datum_bnw, datum_km, datum_tg
import reyex.estimators
import reyex.timepoly
from reyex.expansion import Expansion, expand, residual_tail
from reyex.estimators import (
    ConstantsTable,
    EstimatorTables,
    MissingConstantError,
    build_estimator_set,
    EstimatorSet,
    LOG_FLOOR,
    default_grid,
    export_csv,
    parse_variant,
    pchip_coefficients,
)
from reyex.fields import TimeField, gram_poly, gram_poly_orbits, is_canonical
from reyex.rationals import GaussianRational
from reyex.symmetry import (
    GroupElement,
    SymmetryData,
    identity_element,
    orbit_partition,
    propagate_coefficient,
)
from reyex.timepoly import TimePoly

from oracles import (
    assembly_error_rough,
    assembly_error_tautological,
    assembly_growth,
    error_rough,
    error_tame,
    error_tautological,
    gram_at_zero,
    growth_intermediate,
    growth_rough,
    sample_gram_tables,
    sample_real_polys_full,
    sobolev_norm,
)


@pytest.fixture(scope="module")
def bnw3():
    exp = expand(datum_bnw().field, 3, datum_id="bnw")
    residual_tail(exp)
    return exp


@pytest.fixture(scope="module")
def tables3(bnw3):
    return EstimatorTables(bnw3, 3, grid=default_grid(80))


def test_constants_defaults_and_refusal():
    c = ConstantsTable()
    assert c.K_of(3) == pytest.approx(0.323)
    assert c.G_of(3) == pytest.approx(0.438)
    with pytest.raises(MissingConstantError):
        c.K_of(4)


def test_constants_must_be_positive():
    # the per-R assembly would read an infinite K_n as 0
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            ConstantsTable(K={3: bad})


def test_default_grid_shape():
    g = default_grid()
    assert len(g) == 400
    assert g[0] == 0.0
    assert g[-1] == 20.0
    assert all(b > a for a, b in zip(g, g[1:]))
    # denser below the split point
    assert sum(1 for t in g if 0 < t <= 0.5) >= len(g) // 3
    # the smallest grid: one geometric point, the split itself
    assert default_grid(4, 2.0) == [0.0, 0.5, 1.25, 2.0]


@pytest.mark.parametrize("grid", [
    [],
    [0.0],
    [0.0, math.inf],
    [0.0, 1.0, math.nan],
    [0.5, 1.0],
    [0.0, 1.0, 1.0],
])
def test_tables_refuse_a_bad_grid(grid):
    exp = expand(datum_bnw().field, 0, datum_id="bnw")
    with pytest.raises(ValueError, match="grid"):
        EstimatorTables(exp, 3, grid=grid)


def test_parse_variant():
    assert parse_variant("rough") == ("rough", None)
    assert parse_variant("intermediate:5") == ("intermediate", 5)
    for unknown in ("fancy", ("intermediate", 2), "intermediatefoo:3"):
        with pytest.raises(ValueError, match="unknown estimator variant"):
            parse_variant(unknown)
    for bad in ("intermediate:-1", "intermediate:-3"):
        with pytest.raises(ValueError, match="nonnegative"):
            parse_variant(bad)


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
def test_non_finite_R_is_refused(bnw3, tables3, R):
    # mpmath holds NaN and the infinities with a zero mantissa, which the
    # tables would read as R = 0
    for variant in ("rough", "tautological"):
        with pytest.raises(ValueError, match="R must be a finite number >= 0"):
            build_estimator_set(bnw3, R, 3, variant, tables=tables3)
        with pytest.raises(ValueError, match="not a finite number"):
            tables3.growth_samples(R, 3, variant)


def test_growth_at_time_zero_is_the_datum_norm(bnw3):
    d = datum_bnw()
    for R in (0.0, 0.1, 0.5):
        val = growth_rough(bnw3, R, 3, 0)
        assert abs(val - d.sobolev(3)) < 1e-30


def test_growth_rough_at_R_zero(bnw3):
    t = 0.7
    val = growth_rough(bnw3, 0.0, 3, t)
    assert abs(val - sobolev_norm(bnw3.coeffs[0], 3, t)) < 1e-30


def test_intermediate_with_full_order_is_exact_norm(bnw3):
    # M = N: exact norm of the full partial sum
    R, t = 0.25, 0.9
    full = growth_intermediate(bnw3, R, 3, 3, t)
    # independent: build sum_j R^j u_j and take the norm
    from reyex.rationals import mpq

    Rq = mpq(1, 4)
    acc = None
    power = mpq(1)
    for u in bnw3.coeffs:
        term = u.scale_rational(power)
        acc = term if acc is None else acc + term
        power = power * Rq
    assert float(full) == pytest.approx(float(sobolev_norm(acc, 3, t)), rel=1e-14)


def test_growth_ordering(bnw3):
    R, t = 0.3, 1.3
    gi = growth_intermediate(bnw3, R, 3, 2, t)
    gr = growth_rough(bnw3, R, 3, t)
    assert gi <= gr * (1 + 1e-30)


def test_error_rough_vanishes_at_zero_and_R_zero(bnw3):
    c = ConstantsTable()
    # at t = 0 the higher coefficients vanish; only cancellation noise remains
    assert error_rough(bnw3, 0.3, 3, 0, c) < 1e-30
    assert error_rough(bnw3, 0.0, 3, 1.0, c) == 0


def test_error_tautological_below_rough(bnw3):
    c = ConstantsTable()
    times = (0.2, 0.8, 2.5)
    for t, taut in zip(times, error_tautological(bnw3, 0.3, 3, times)):
        rough = error_rough(bnw3, 0.3, 3, t, c)
        assert taut <= rough


def test_error_tame_reduces_to_rough_on_diagonal(bnw3):
    c = ConstantsTable()
    t = 0.6
    assert abs(error_tame(bnw3, 0.3, 3, 3, t, c.K_of(3)) - error_rough(bnw3, 0.3, 3, t, c)) < 1e-25


def test_error_tautological_single_order_zero_term():
    d = datum_bnw()
    exp = expand(d.field, 0, datum_id="bnw")
    from reyex.fields import bilinear_P

    t = 0.4
    (val,) = error_tautological(exp, 0.5, 3, [t])
    direct = sobolev_norm(bilinear_P(exp.coeffs[0], exp.coeffs[0]), 3, t)
    assert float(val) == pytest.approx(0.5 * float(direct), rel=1e-14)


def test_sampled_tables_match_exact_operations(bnw3, tables3):
    c = ConstantsTable()
    est_r = build_estimator_set(bnw3, 0.25, 3, "rough", constants=c, tables=tables3)
    est_t = build_estimator_set(bnw3, 0.25, 3, "tautological", constants=c, tables=tables3)
    indices = (7, 25, 60)
    taut = error_tautological(bnw3, 0.25, 3, [tables3.grid[i] for i in indices])
    for i, eps_taut in zip(indices, taut):
        t = tables3.grid[i]
        assert est_r.D_n[i] == pytest.approx(float(growth_rough(bnw3, 0.25, 3, t)), rel=1e-12)
        assert est_r.eps_n[i] == pytest.approx(float(error_rough(bnw3, 0.25, 3, t, c)), rel=1e-12)
        assert est_t.D_n[i] == pytest.approx(
            float(growth_intermediate(bnw3, 0.25, 3, 3, t)), rel=1e-12
        )
        assert est_t.eps_n[i] == pytest.approx(float(eps_taut), rel=1e-12)


@pytest.fixture(scope="module")
def bnw3_plain():
    exp = expand(datum_bnw().field, 3, use_symmetry=False, datum_id="bnw")
    residual_tail(exp)
    return exp


@pytest.fixture(scope="module")
def km2():
    return expand(datum_km().field, 2, datum_id="km")


@pytest.mark.parametrize(
    "which, kind",
    [
        ("bnw3", "coeff"),
        ("bnw3", "tail"),
        ("bnw3_plain", "coeff"),
        ("bnw3_plain", "tail"),
        ("km2", "coeff"),
    ],
)
def test_exact_gram_tables_match_per_mode_oracle(request, which, kind):
    exp = request.getfixturevalue(which)
    if which == "km2":
        assert len(exp.symmetry.reduced_plus) == 48
    grid = default_grid(80)
    tables = EstimatorTables(exp, 3, grid=grid)
    if kind == "coeff":
        got, fields, orders = tables.coeff_tables(), exp.coeffs, (3, 4)
    else:
        got, fields, orders = tables.tail_tables(), exp.tails, (3,)
    ref = sample_gram_tables(fields, orders, grid, 512)
    assert got.keys() == ref.keys()
    for (i, j, m), vals in got.items():
        at_zero = gram_at_zero(fields[i], fields[j], m)
        with mpmath.workprec(256):
            assert vals[0] == mpmath.mpf(at_zero.numerator) / at_zero.denominator
        for a, b in zip(vals[1:], ref[(i, j, m)][1:]):
            assert abs(a - b) <= 1e-40 * abs(b)


@pytest.fixture(scope="module")
def tg3():
    return expand(datum_tg().field, 3, datum_id="tg")


@pytest.fixture(scope="module")
def km3():
    return expand(datum_km().field, 3, datum_id="km")


@pytest.mark.parametrize(
    "which, kind", [("bnw3", "coeff"), ("tg3", "coeff"), ("km3", "coeff"), ("bnw3", "tail")]
)
def test_sampled_gram_polys_equal_the_full_width_sum(request, monkeypatch, which, kind):
    # the Gram polys the tables sample on the default grid, windowed, give
    # the full-width sampler's mpfs to the bit and its report, in one
    # process and split across two
    exp = request.getfixturevalue(which)
    sample = reyex.timepoly.sample_real_polys
    dot = reyex.timepoly._dot
    calls, full_width = [], []

    def recording(polys, grid, precision, parts):
        values, reports = sample(polys, grid, precision, parts)
        calls.append((polys, grid, precision, parts, values, reports))
        return values, reports

    def counting(*args):
        full_width.append(None)
        return dot(*args)

    monkeypatch.setattr(reyex.estimators, "sample_real_polys", recording)
    monkeypatch.setattr(reyex.timepoly, "_dot", counting)
    # one process, so that the count sees every full-width sum
    monkeypatch.setattr(reyex.timepoly, "_cpus", lambda: 1)
    tables = EstimatorTables(exp, 3)
    tables.coeff_tables() if kind == "coeff" else tables.tail_tables()
    [(batch, grid, precision, parts, values, reports)] = calls
    polys, values, report = _kind_of_batch(tables, kind, parts, batch, values, reports)
    mpfs = [[v._mpf_ for v in vs] for vs in values]
    # the kind sampled alone: the values at large t, where the aligned basis
    # is widest, are summed over a window, more than a fifth of the values
    # of its polys with terms at t > 0 here (a poly with none is no sum)
    full_width.clear()
    alone, alone_report = sample(polys, grid, precision)
    assert [[v._mpf_ for v in vs] for vs in alone] == mpfs
    assert alone_report == report
    summed = sum(1 for poly in polys if poly.terms)
    assert summed and len(full_width) < 0.8 * summed * (len(grid) - 1)
    ref, ref_report = sample_real_polys_full(polys, grid, precision)
    assert mpfs == [[v._mpf_ for v in vs] for vs in ref]
    assert report == dict(ref_report, fallbacks=report["fallbacks"], workers=1)
    assert tables.stats[kind]["fallbacks"] == report["fallbacks"]
    if which == "km3":
        assert report["fallbacks"] == 0
    # the kind sampled alone, split across two processes
    monkeypatch.setattr(reyex.timepoly, "_cpus", lambda: 2)
    forked, forked_report = sample(polys, grid, precision)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [[v._mpf_ for v in vs] for vs in forked] == mpfs
    assert forked_report == dict(report, workers=2)


def _kind_of_batch(tables, kind, parts, *columns):
    """The slice of each of columns (the polys of one sampling batch, their
    values, their per-kind reports) that belongs to kind: the batch holds
    the kinds of tables.stats[kind]["batch"] in turn, parts[k] polys each."""
    k = tables.stats[kind]["batch"].index(kind)
    start = sum(parts[:k])
    polys, values, reports = columns
    return polys[start : start + parts[k]], values[start : start + parts[k]], reports[k]


# x <-> y: an involution outside +-S+ when S+ holds the identity alone
SWAP = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
# two directions orthogonal to each representative wave vector
PERP = {
    (1, 2, 0): ((2, -1, 0), (0, 0, 1)),
    (1, 0, 1): ((1, 0, -1), (0, 1, 0)),
    (1, -2, 1): ((2, 1, 0), (1, 1, 1)),
}


def swap_family():
    """An expansion u_0, u_1, u_2 spread from chosen representative vectors
    over the orbits of a datum whose only symmetry besides the identity is
    the pseudo-symmetry x <-> y (sign -1): the coefficient at S k is
    -S u_{j,k} for even j and S u_{j,k} for odd j.  (1, -2, 1) reaches its
    canonical member through -S, with conjugation."""
    sym = SymmetryData(
        plus=frozenset([identity_element()]), minus=frozenset([GroupElement(SWAP, (0, 0, 0))])
    )

    def mode(k, alpha, beta):
        # alpha e1 + beta e2 for terms (a, b, re, im) of t^a e^{-bt}
        comps = []
        for i in range(3):
            terms = {}
            for e, poly in zip(PERP[k], (alpha, beta)):
                for a, b, re, im in poly:
                    c = GaussianRational(e[i] * re, e[i] * im)
                    terms[(a, b)] = terms.get((a, b), GaussianRational(0)) + c
            comps.append(TimePoly({key: c for key, c in terms.items() if c}))
        return tuple(comps)

    def field(j, reps):
        coeffs = {}
        for rep, (alpha, beta) in reps.items():
            vec = mode(rep, alpha, beta)
            for g, sigma, conj in sym.routes.values():
                k, w = propagate_coefficient(vec, rep, g, sigma, j)
                if conj:
                    k, w = (-k[0], -k[1], -k[2]), tuple(p.conj() for p in w)
                if is_canonical(k):
                    coeffs[k] = w
        return TimeField(coeffs)

    u0 = field(0, {
        (1, 2, 0): ([(0, 5, 2, 0)], [(0, 5, 1, 1)]),
        (1, 0, 1): ([(0, 2, 1, 0)], [(0, 2, 3, -1)]),
    })
    u1 = field(1, {
        (1, 2, 0): ([(1, 5, 4, 0), (0, 3, 1, 0)], [(1, 5, 3, 0)]),
        (1, -2, 1): ([(0, 6, 2, 1)], [(0, 6, 1, 0)]),
    })
    u2 = field(2, {
        (1, 2, 0): ([(2, 5, 6, 0)], [(1, 4, 5, 2)]),
        (1, 0, 1): ([(1, 2, -1, 0)], [(1, 2, 7, 0)]),
        (1, -2, 1): ([(1, 6, 1, 1)], [(1, 6, 1, -1)]),
    })
    return Expansion(datum_id="swap", N=2, coeffs=[u0, u1, u2], symmetry=sym)


@pytest.mark.parametrize("kind", ["coeff", "tail"])
def test_signed_class_weights_give_the_full_support_gram(monkeypatch, kind):
    # a pseudo-symmetry outside +-S+: the members of a class carry the
    # signs +1 and -1, so an odd pair must weigh the class by their sum
    exp = swap_family()
    routes = exp.symmetry.routes
    assert sorted(sigma for _, sigma, _ in routes.values()) == [-1, -1, 1, 1]
    sample = reyex.estimators.sample_real_polys
    built = []

    def recording(polys, grid, precision, parts):
        values, reports = sample(polys, grid, precision, parts)
        built.append((polys, parts, values, reports))
        return values, reports

    monkeypatch.setattr(reyex.estimators, "sample_real_polys", recording)
    tables = EstimatorTables(exp, 1, grid=default_grid(8))
    if kind == "coeff":
        tables.coeff_tables()
        fields, orders = exp.coeffs, (1, 2)
    else:
        tables.tail_tables()
        fields, orders = exp.tails, (1,)
    pairs = [(i, j) for i in range(len(fields)) for j in range(i, len(fields))]
    full = {(i, j): [gram_poly(fields[i], fields[j], m) for m in orders] for i, j in pairs}
    [(batch, parts, values, reports)] = built
    polys, _, _ = _kind_of_batch(tables, kind, parts, batch, values, reports)
    assert polys == [poly for pair in pairs for poly in full[pair]]
    # weighing every class by its size gets some odd pair wrong
    support = set().union(*(f.coeffs for f in fields))
    sizes = [(rep, len(members)) for rep, members in orbit_partition(support, list(routes))]
    assert any(
        gram_poly_orbits(fields[i], fields[j], orders, sizes) != full[(i, j)]
        for i, j in pairs
        if (i + j) % 2
    )


# -- the exact build split across processes, the joint sampling batch -----------


def _assert_no_children():
    # every child forked by a build or a sampling call has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _build_on(monkeypatch, exp, kind, cpus):
    """EstimatorTables._build of kind as if the process could run on cpus
    CPUs, with no product floor: (keys, polys, build_workers)."""
    monkeypatch.setattr(reyex.timepoly, "_cpus", lambda: cpus)
    monkeypatch.setattr(reyex.estimators, "GRAM_MIN_PRODUCTS", 1)
    tables = EstimatorTables(exp, 1)
    keys, polys = tables._build(kind)
    _assert_no_children()
    return keys, polys, tables.stats[kind]["build_workers"]


@pytest.mark.parametrize(
    "which, kind",
    [("bnw3", "coeff"), ("bnw3", "tail"), ("tg3", "coeff"), ("km3", "coeff"),
     ("swap", "coeff"), ("swap", "tail")],
)
def test_gram_polys_are_the_same_built_in_one_or_two_processes(request, monkeypatch, which,
                                                                 kind):
    # swap_family's odd pairs weigh a class by a signed sum, zero for some
    exp = swap_family() if which == "swap" else request.getfixturevalue(which)
    fields, orders = (exp.coeffs, (1, 2)) if kind == "coeff" else (residual_tail(exp), (1,))
    keys, polys, workers = _build_on(monkeypatch, exp, kind, 1)
    assert workers == 1
    assert keys == [(i, j, m) for i in range(len(fields)) for j in range(i, len(fields))
                    for m in orders]
    # the Gram over the full support, every mode its own class
    assert polys == [gram_poly(fields[i], fields[j], m) for i, j, m in keys]
    assert _build_on(monkeypatch, exp, kind, 2) == (keys, polys, 2)


def _child_fails(how, parent, shells):
    def failing(*args):
        if os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), SIGKILL)
            raise RuntimeError("injected failure")
        return shells(*args)

    return failing


@pytest.mark.parametrize("failure", ["raises", "killed", "garbage", "short"])
def test_a_failed_build_child_leaves_the_gram_polys_equal(bnw3, monkeypatch, failure):
    ref = _build_on(monkeypatch, bnw3, "tail", 1)
    if failure in ("raises", "killed"):
        monkeypatch.setattr(reyex.estimators, "gram_shells",
                            _child_fails(failure, os.getpid(), reyex.estimators.gram_shells))
    else:
        dumps = pickle.dumps

        def bad_dump(obj, fh, protocol):
            # only children pickle: here shell sums over other denominators,
            # or the first half of the real pickle
            data = dumps(([1], obj[1]) if failure == "garbage" else obj, protocol)
            fh.write(data if failure == "garbage" else data[: len(data) // 2])

        monkeypatch.setattr(pickle, "dump", bad_dump)
    # the share of the failed child was built here
    assert _build_on(monkeypatch, bnw3, "tail", 2) == ref


def test_nothing_forks_while_another_thread_runs(bnw3, monkeypatch):
    monkeypatch.setattr(reyex.timepoly, "_cpus", lambda: 2)
    monkeypatch.setattr(reyex.timepoly, "PARALLEL_MIN_WORK", 1)
    monkeypatch.setattr(reyex.estimators, "GRAM_MIN_PRODUCTS", 1)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        tables = EstimatorTables(bnw3, 3, grid=default_grid(40))
        tables.tail_tables()
    finally:
        done.set()
        thread.join(10)
    assert not thread.is_alive()
    _assert_no_children()
    for kind in ("coeff", "tail"):
        assert (tables.stats[kind]["build_workers"], tables.stats[kind]["workers"]) == (1, 1)


def test_the_joint_batch_equals_one_batch_per_kind(bnw3):
    tables = EstimatorTables(bnw3, 3, grid=default_grid(80))
    built = [tables._build(kind)[1] for kind in ("coeff", "tail")]
    grid, precision = tables.grid, tables.precision
    joint, reports = reyex.estimators.sample_real_polys(
        built[0] + built[1], grid, precision, parts=[len(polys) for polys in built]
    )
    alone = [reyex.estimators.sample_real_polys(polys, grid, precision) for polys in built]
    assert [[v._mpf_ for v in vs] for vs in joint] == [
        [v._mpf_ for v in vs] for values, _ in alone for vs in values
    ]
    for report, (_, ref) in zip(reports, alone):
        assert dict(report, workers=None) == dict(ref, workers=None)
    # the tails re-evaluate nothing on this grid, and lose more bits
    assert reports[1]["max_bits_lost"] > reports[0]["max_bits_lost"]


@pytest.fixture(scope="module")
def assembly_tables(tables3, bnw3_plain, km2):
    """Tables at n = 3 on an 80-point grid: bnw N=3 under its group and
    without one, and km N=2 under its 48-matrix group."""
    residual_tail(km2)
    return [tables3] + [EstimatorTables(exp, 3, grid=default_grid(80)) for exp in (bnw3_plain, km2)]


@pytest.mark.parametrize("R", [0.0, 0.05, 0.1666, 0.3, 1.7, 3.0])
def test_assembly_matches_mpf_reference_to_the_bit(assembly_tables, R):
    # the exact integer assembly, rounded once, gives the floats of the
    # 256-bit mpf reference
    c = ConstantsTable()

    def floats(values):
        return [float(v) for v in values]

    for tables in assembly_tables:
        N = tables.exp.N
        variants = [("rough", -1), ("tautological", N)]
        variants += [("intermediate:%d" % M, M) for M in range(N + 1)]
        for m in (3, 4):
            for variant, M in variants:
                got = tables.growth_samples(R, m, variant)
                assert got == floats(assembly_growth(tables, R, m, M)), (N, m, variant)
        got = tables.error_samples(R, "tautological", c)
        assert got == floats(assembly_error_tautological(tables, R)), N
        got = tables.error_samples(R, "rough", c)
        assert got == floats(assembly_error_rough(tables, R, c)), N


def _round_to_float(compare, start):
    """The float nearest an exact value v, ties to the even mantissa, by
    exact comparisons: compare(q) is the sign of q - v for a Fraction q, and
    start is a float near v."""
    c = start

    def mid(a, b):
        return (Fraction(a) + Fraction(b)) / 2

    while compare(mid(c, math.nextafter(c, math.inf))) < 0:
        c = math.nextafter(c, math.inf)
    while compare(mid(math.nextafter(c, -math.inf), c)) > 0:
        c = math.nextafter(c, -math.inf)
    for a, b in ((c, math.nextafter(c, math.inf)), (math.nextafter(c, -math.inf), c)):
        if compare(mid(a, b)) == 0:
            # a tie: the float whose last mantissa bit is 0
            return a if struct.unpack("<q", struct.pack("<d", a))[0] & 1 == 0 else b
    return c


def _sign(q):
    return (q > 0) - (q < 0)


_halfway = st.integers(2**52, 2**53 - 1).map(lambda m: 2 * m + 1)  # 54 bits, halfway between floats
_mantissas = st.one_of(
    st.integers(-(2**300), 2**300),
    st.integers(0, 300).map(lambda a: 1 << a),  # one-bit mantissas
    _halfway,
)
# the value's binary order of magnitude: normal floats, subnormals, and
# values that round to zero, reached through exponents down to about -1400
_magnitudes = st.integers(-1200, 1023)


@settings(max_examples=500, deadline=None)
@given(_mantissas, _magnitudes)
def test_fixed_point_rounds_to_the_nearest_float(v, t):
    from reyex.estimators import _to_float

    e = t - v.bit_length()
    x = v * Fraction(2) ** e
    assert _to_float(v, e) == _round_to_float(lambda q: _sign(q - x), float(x))
    # past the largest float
    assert _to_float(v, e + 2300) == (0.0 if v == 0 else math.inf if v > 0 else -math.inf)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        _mantissas,
        st.integers(1, 2**200).map(lambda s: s * s),  # exact squares
        _halfway.map(lambda h: h * h),  # roots halfway between floats
        # just above a root halfway between floats, the excess in the low
        # bits of a long operand or in the root's own
        st.tuples(_halfway, st.integers(0, 100), st.integers(1, 2**40)).map(
            lambda p: (p[0] * p[0] << 2 * p[1]) + p[2]
        ),
        st.integers(-(2**80), 0),  # cancellation noise and zero clamp to 0.0
    ),
    st.integers(-1200, 1022),  # the root's binary order of magnitude
    st.integers(0, 1),
)
def test_sticky_square_root_rounds_to_the_nearest_float(v, t, odd):
    from reyex.estimators import FLOAT_BITS, _sqrt_fixed, _to_float

    e = 2 * t - 2 * (v.bit_length() // 2) + odd
    got = _to_float(*_sqrt_fixed(v, e, FLOAT_BITS))
    if v <= 0:
        assert got == 0.0
        return
    x = v * Fraction(2) ** e
    # a start within an ulp or so of the root, from an integer square root
    scale = 2 * (x.denominator.bit_length() + 80)
    root = Fraction(math.isqrt(x.numerator * 2**scale // x.denominator), 2 ** (scale // 2))
    assert got == _round_to_float(lambda q: _sign(q * q - x) if q > 0 else -1, float(root))
    # at a working precision the root is within one unit of its last place
    r, g = _sqrt_fixed(v, e, 256)
    assert r.bit_length() >= 256
    unit = Fraction(2) ** g
    assert ((r - 1) * unit) ** 2 < x < ((r + 1) * unit) ** 2


def test_second_rough_probe_takes_no_square_root(bnw3, monkeypatch):
    # the columns do not depend on R, so only the first probe forms them:
    # the sampled values as ints, the norms (the square roots) and the
    # rough inner sums
    import reyex.estimators

    calls, roots = [], []
    build = reyex.estimators._int_rows
    norms = EstimatorTables._norm_columns

    def counting_build(columns):
        calls.append(columns)
        return build(columns)

    def counting_norms(self, tables):
        roots.append(tables)
        return norms(self, tables)

    monkeypatch.setattr(reyex.estimators, "_int_rows", counting_build)
    monkeypatch.setattr(EstimatorTables, "_norm_columns", counting_norms)
    tables = EstimatorTables(bnw3, 3, grid=default_grid(40))
    build_estimator_set(bnw3, 0.1, 3, "rough", tables=tables)
    # the norms at orders n and n + 1
    assert (len(calls), len(roots)) == (2, 1)
    record = tables.stats["assembly"]
    assert record["probes"] == 1 and record["columns_s"] > 0
    columns_s = record["columns_s"]
    build_estimator_set(bnw3, 0.3, 3, "rough", tables=tables)
    assert (len(calls), len(roots)) == (2, 1)
    # intermediate:1 forms its heads at both orders, once
    build_estimator_set(bnw3, 0.3, 3, "intermediate:1", tables=tables)
    build_estimator_set(bnw3, 0.2, 3, "intermediate:1", tables=tables)
    assert (len(calls), len(roots)) == (4, 1)
    assert record["probes"] == 4
    assert record["seconds"] > record["columns_s"] > columns_s


def test_tail_tables_vanish_exactly_at_time_zero(tables3):
    # u_j(0) = 0 for j >= 1, so every residual tail is 0 at t = 0
    assert all(vals[0] == 0 for vals in tables3.tail_tables().values())


def test_table_stats(bnw3):
    tables = EstimatorTables(bnw3, 3, grid=default_grid(40))
    assert tables.stats == {}
    # the expansion holds its tails, so both kinds are sampled in one batch
    tables.coeff_tables()
    assert set(tables.stats) == {"coeff", "tail"}
    for kind in ("coeff", "tail"):
        st = tables.stats[kind]
        assert set(st) == {
            "build_s", "build_workers", "terms", "max_bits_lost", "reevaluated",
            "max_precision", "fallbacks", "eval_s", "workers", "batch",
        }
        assert st["build_s"] >= 0 and st["eval_s"] >= 0
        assert st["build_workers"] >= 1 and st["workers"] >= 1
        assert st["terms"] > 0
        assert 0 < st["max_bits_lost"] < 256 - 85
        assert st["reevaluated"] == 0
        assert st["max_precision"] == 256
        assert st["batch"] == ["coeff", "tail"]
    # one batch: one sampling time and one worker count for both kinds
    coeff, tail = tables.stats["coeff"], tables.stats["tail"]
    assert (coeff["eval_s"], coeff["workers"]) == (tail["eval_s"], tail["workers"])
    # the tail Grams cancel more than the coefficient Grams near t = 0
    assert tail["max_bits_lost"] > coeff["max_bits_lost"]
    tables.tail_tables()
    assert tables.stats["tail"] is tail


def test_a_probe_samples_only_what_its_variant_reads(bnw3, monkeypatch):
    # the expansion holds its tails, yet a rough or intermediate probe
    # builds no tail Gram; a tautological probe then samples the tails alone
    built = []
    build = EstimatorTables._build

    def recording(self, kind):
        built.append(kind)
        return build(self, kind)

    monkeypatch.setattr(EstimatorTables, "_build", recording)
    tables = EstimatorTables(bnw3, 3, grid=default_grid(40))
    build_estimator_set(bnw3, 0.1, 3, "rough", tables=tables)
    build_estimator_set(bnw3, 0.1, 3, "intermediate:2", tables=tables)
    assert built == ["coeff"] and set(tables.stats) == {"coeff", "assembly"}
    assert tables.stats["coeff"]["batch"] == ["coeff"]
    build_estimator_set(bnw3, 0.1, 3, "tautological", tables=tables)
    assert built == ["coeff", "tail"]
    assert tables.stats["tail"]["batch"] == ["tail"]


def test_estimator_set_invariants(bnw3, tables3):
    est = build_estimator_set(bnw3, 0.3, 3, "rough", tables=tables3)
    assert est.eps_n[0] == 0.0
    assert est.D_n[0] >= float(datum_bnw().sobolev(3)) * (1 - 1e-12)
    for vals in (est.D_n, est.D_n1, est.eps_n):
        assert all(math.isfinite(v) and v >= 0 for v in vals)


def test_nonzero_eps_at_time_zero_is_rejected(bnw3, tables3):
    from reyex.estimators import _check_invariants

    est = build_estimator_set(bnw3, 0.3, 3, "tautological", tables=tables3)
    assert est.eps_n[0] == 0.0
    est.eps_n[0] = 1e-300
    with pytest.raises(ValueError):
        _check_invariants(est, bnw3)


def test_growth_variants_dominate_the_exact_norm(bnw3, tables3):
    # validity contract on a desk-size expansion
    from reyex.rationals import mpq

    R = 0.3
    Rq = mpq(3, 10)
    est_r = build_estimator_set(bnw3, R, 3, "rough", tables=tables3)
    est_i = build_estimator_set(bnw3, R, 3, "intermediate:1", tables=tables3)
    acc = None
    power = mpq(1)
    for u in bnw3.coeffs:
        term = u.scale_rational(power)
        acc = term if acc is None else acc + term
        power = power * Rq
    for i in (5, 20, 50, 79):
        t = tables3.grid[i]
        exact = float(sobolev_norm(acc, 3, t))
        assert est_r.D_n[i] >= exact * (1 - 1e-12)
        assert est_i.D_n[i] >= exact * (1 - 1e-12)


def test_interpolant_reproduces_heat_decay_off_grid():
    d = datum_bnw()
    exp = expand(d.field, 0, datum_id="bnw")
    tables = EstimatorTables(exp, 3, grid=default_grid(400))
    est = build_estimator_set(exp, 0.0, 3, "rough", tables=tables)
    # single |k|^2 = 2 shell: ||u_0(t)||_3 = e^{-2t} ||u_*||_3
    base = float(d.sobolev(3))
    for t in (0.0731, 0.492, 3.17, 11.9):
        expected = base * math.exp(-2 * t)
        assert est.rates(t)[0] == pytest.approx(expected, rel=1e-8)


def test_interpolant_never_negative(bnw3, tables3):
    est = build_estimator_set(bnw3, 0.3, 3, "tautological", tables=tables3)
    for i in range(400):
        t = 20.0 * i / 399
        assert est.rates(t)[2] >= 0.0
        assert est.rates(t)[0] >= 0.0


def test_samples_beyond_the_float_range_are_refused(bnw3, tables3):
    # R^7 overflows a float: the samples are infinite, and refused
    with pytest.raises(ValueError, match="invalid"):
        build_estimator_set(bnw3, 1e100, 3, "rough", tables=tables3)


def test_intermediate_requires_M_within_N(bnw3, tables3):
    with pytest.raises(ValueError):
        build_estimator_set(bnw3, 0.1, 3, "intermediate:7", tables=tables3)


def test_tables_of_another_expansion_are_refused(bnw3, tables3):
    other = expand(datum_tg().field, 1, datum_id="tg")
    with pytest.raises(ValueError, match="another expansion"):
        build_estimator_set(other, 0.1, 3, "rough", tables=tables3)


def test_csv_export(bnw3, tables3, tmp_path):
    est = build_estimator_set(bnw3, 0.25, 3, "rough", tables=tables3)
    out = tmp_path / "est.csv"
    export_csv(est, str(out))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# R=0.25")
    assert "variant=rough" in lines[0]
    assert lines[1] == "t,D_3,D_4,eps_3"
    assert len(lines) == 2 + len(est.grid)


def _clamped_pchip_reference(grid, values):
    # the interpolant evaluated by scipy itself
    logs = [math.log(max(v, LOG_FLOOR)) for v in values]
    interp = PchipInterpolator(grid, logs, extrapolate=False)

    def f(t):
        if t <= 0:
            return max(values[0], 0.0)
        if t >= grid[-1]:
            return max(values[-1], 0.0)
        v = math.exp(float(interp(t)))
        return 0.0 if v <= 1e-290 else v

    return f


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(1e-4, 3.0),
            st.one_of(st.just(0.0), st.floats(1e-200, 1e4)),
        ),
        min_size=3,
        max_size=60,
    ),
    st.floats(0.0, 1e8),
    st.integers(0, 2**32),
)
def test_pchip_evaluators_are_bit_identical_to_scipy(steps, first, seed):
    grid = [0.0]
    for step, _ in steps:
        grid.append(grid[-1] + step)
    values = [first] + [v for _, v in steps]
    # three different columns on one grid, evaluated together
    columns = (values, values[::-1], values[1:] + values[:1])
    est = EstimatorSet(R=0.1, n=3, variant="rough", N=1, grid=grid, D_n=columns[0],
                       D_n1=columns[1], eps_n=columns[2], precision=256)
    refs = [_clamped_pchip_reference(grid, col) for col in columns]
    rng = random.Random(seed)
    top = grid[-1]
    times = (
        grid
        + [0.5 * (a + b) for a, b in zip(grid, grid[1:])]
        + [rng.uniform(0.0, top) for _ in range(2000)]
        + [top, -1.0, -1e-300, 0.0, top * (1 + 1e-12), top + 1.0]
    )
    for t in times:
        got = est.rates(t)
        assert got == tuple(ref(t) for ref in refs)
        assert (est.rates(t)[0], est.rates(t)[1], est.rates(t)[2]) == got


def _assert_scipy_coefficients(x, y):
    got = pchip_coefficients(x, y)
    assert [list(row) for row in got] == PchipInterpolator(x, y).c.tolist()


def _log_columns(est):
    return [[math.log(max(v, LOG_FLOOR)) for v in col] for col in (est.D_n, est.D_n1, est.eps_n)]


def test_pchip_fit_equals_scipy_on_estimator_columns(bnw3, tables3, km2):
    c = ConstantsTable()
    km_tables = EstimatorTables(km2, 3, grid=default_grid(80))
    cases = [(bnw3, tables3, variant, R) for variant in ("rough", "intermediate:1", "tautological")
             for R in (0.0, 0.05, 0.3, 1.7)]
    cases += [(km2, km_tables, "rough", R) for R in (0.0, 0.02, 0.2)]
    for exp, tables, variant, R in cases:
        est = build_estimator_set(exp, R, 3, variant, constants=c, tables=tables)
        for logs in _log_columns(est):
            _assert_scipy_coefficients(tables.grid, logs)


@pytest.mark.parametrize("y", [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # flat
    [1.0, 1.0, 1.0, 2.0, 2.0, 3.0],  # flat runs between rises
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],  # the slope changes sign at every node
    [3.0, 1.0, 2.0, 2.0, -1.0, 4.0],  # both, and a sign change at an end
    [-1.0, 5.0, 4.9, 4.8, 20.0, 19.0],  # end slopes that the shape rule cuts
    [1e-3, 1.0, 1e3, 1e6, 1e3, 1.0],
])
def test_pchip_fit_equals_scipy_on_flat_runs_and_sign_changes(y):
    _assert_scipy_coefficients([0.0, 0.1, 0.35, 1.0, 1.5, 4.0], y)
    _assert_scipy_coefficients([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], y[::-1])


def test_pchip_fit_equals_scipy_with_exact_zeros():
    grid = default_grid(40)
    base = [math.exp(-2 * t) * (1 + t) for t in grid]
    for zeros in ([0], [0, 1, 2], [5, 6], list(range(30, 40)), [0, 17, 39]):
        values = [0.0 if i in zeros else v for i, v in enumerate(base)]
        logs = [math.log(max(v, LOG_FLOOR)) for v in values]
        _assert_scipy_coefficients(grid, logs)


def test_pchip_fit_equals_scipy_on_four_points():
    grid = default_grid(4)
    assert len(grid) == 4
    for y in ([0.0, 1.0, 0.5, 0.25], [2.0, 2.0, 1.0, 1e-300], [0.0, 0.0, 0.0, 1.0],
              [math.log(v) for v in (1.0, 0.3, 0.2, 1e-9)]):
        _assert_scipy_coefficients(grid, y)
    _assert_scipy_coefficients([0.0, 1.0], [3.0, -1.0])  # two points: a line
