"""Growth estimators D_m(t) and error estimators eps_m(t).

Three variants are supported:

  tautological    D_m = ||u^N||_m exactly, eps_m = exact m-norm of the
                  residual d u^N/dt - Lap u^N - R P(u^N, u^N);
  rough           D_m = sum_j R^j ||u_j||_m, eps_m through the product bound
                  with the constant K_m;
  intermediate(M) D_m = ||sum_{j<=M} R^j u_j||_m + sum_{j>M} R^j ||u_j||_m,
                  eps_m as in the rough variant.

Every estimator is assembled from cross Gram tables <f_i(t), f_j(t)>_m of
the coefficients u_j (or of the residual tails) on a time grid.  The tables
depend only on the expansion, so one EstimatorTables instance serves every R
probed during a bisection.  They are built in two steps:

  exact build   each Gram G_ij^m is a real-coefficient TimePoly, summed
                exactly over one representative per orbit class.  The
                classes are those the expansion propagated its fields over
                (SymmetryData.routes), each weighted by its size, or for a
                pair of odd order sum by the sum of its members' signs.
                Each field's coefficients at the representatives become
                integer numerators (fields.gram_numerators); the mode
                products of every pair are summed per shell |k|^2 as
                integers (fields.gram_shells) and then weighted per Sobolev
                order (fields.weigh_shells).  Where the products are many
                enough (GRAM_MIN_PRODUCTS per process), the classes are
                dealt into shares of about equal products, and each share
                is summed in its own process, this one or a child forked
                for the build (timepoly._run_shares), from the numerators
                of its own representatives.  A child sends back only its
                shell sums and their denominators, and the shares' sums add
                up exactly, so every Gram is the serial one;
  sampling      every Gram a probe reads is evaluated in one batch
                (timepoly.sample_real_polys): the coefficient Grams, and the
                tail Grams with them where the expansion holds its tails or
                the variant reads them.  At each t > 0, e^{-t} and every
                basis value t^a e^{-bt} of the batch are computed once.
                Each Gram sums its coefficient mantissas against a window of
                them, just wide enough for its own value, with a bound on
                what the window drops.  Ziv's rounding test on that bound
                certifies that the value, rounded once, is the rounding of
                the exact full-width sum; where it cannot, the full-width
                sum is formed.  t = 0 is exact, so Grams of fields that
                vanish there are exact zeros.  A large enough batch has its
                points t > 0 split into interleaved shares, one for this
                process and one for each child forked for the call, up to
                one process per CPU it may run on; a value depends only on
                its Gram and its point, so the tables are bit for bit the
                same however the points are split and whichever kinds share
                the batch.

The per-R assembly is exact integer arithmetic.  Every sampled value is a
dyadic mpf, so the values at one grid point are ints over one common power
of two.  What does not depend on R is formed from them once per instance, on
first use:

  forms         H_s = sum_{i+j=s} (2 - delta_ij) G_ij^m, s = 0..2M, summed
                exactly over the pairs within 0..M (M = N for the
                tautological variant, cached by M for intermediate:M), so a
                quadratic form in the powers of R has 2M+1 columns instead
                of (M+1)(M+2)/2;
  norms         ||u_j||_m = sqrt((2 pi)^3 G_jj^m) for m in {n, n+1}, to the
                working precision;
  rough sums    sum_l ||u_l||_n ||u_{j-l-1}||_{n+1}.

R and K_n are mpfs at the working precision, which for a float is exact,
and equal p 2^e.  A probe computes the integer weights of the powers of R
once, and each sample is one integer dot product over a row of columns,
rounded to a float once and correctly (a square root through math.isqrt
with a sticky bit).

Rounding enters in the sampling, in (2 pi)^3 and the norms (at the working
precision, timepoly.DEFAULT_EVAL_PRECISION), and once per sample when it
becomes a float.  The bits each sampled value loses to cancellation are
measured, and a value that would keep fewer than timepoly.GUARD_BITS is
evaluated again at a higher precision.  EstimatorTables.stats records the
loss and the cost of the sampling and of the assembly.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from operator import mul

import mpmath

from .fields import gram_numerators, gram_shells, weigh_shells
from .symmetry import orbit_partition
from .expansion import residual_tail
from .timepoly import DEFAULT_EVAL_PRECISION, _run_shares, _workers, sample_real_polys

__all__ = [
    "ConstantsTable",
    "MissingConstantError",
    "EstimatorTables",
    "EstimatorSet",
    "default_grid",
    "parse_variant",
    "build_estimator_set",
    "export_csv",
]

# Mode products (_products) that the exact build of a table kind must have
# for each child forked to share it (EstimatorTables._build).  On a 2-vCPU
# x86-64 VM (CPython 3.11), in 16 alternating runs of the build alone split
# in two against one process: slower in every run at 30,000 products (bnw
# N=6 coefficients, 16.7 against 14.7 ms median) and 36,000 (bnw N=3 tails,
# 17.6 against 13.8 ms), faster in 15 at 65,000 (tg N=6 coefficients, 30.8
# against 33.6 ms) and in 13 at 99,000 (km N=4 coefficients, 49 against
# 61 ms).
GRAM_MIN_PRODUCTS = 50_000

DEFAULT_K3 = 0.323
DEFAULT_G3 = 0.438


class MissingConstantError(KeyError):
    """A Sobolev-order constant was requested but never supplied."""


@dataclass(frozen=True)
class ConstantsTable:
    """Bound constants by Sobolev order.

    Only K_3 and G_3 ship as defaults; other orders must be supplied
    explicitly, there is no extrapolation.
    """

    K: dict = dc_field(default_factory=lambda: {3: DEFAULT_K3})
    G: dict = dc_field(default_factory=lambda: {3: DEFAULT_G3})

    def __post_init__(self):
        for table in (self.K, self.G):
            for key, val in table.items():
                if not 0 < val < math.inf:
                    raise ValueError("constant %s must be finite and positive, got %s" % (key, val))

    def K_of(self, m):
        try:
            return self.K[m]
        except KeyError:
            raise MissingConstantError("K_%s not configured; supply it explicitly" % (m,))

    def G_of(self, m):
        try:
            return self.G[m]
        except KeyError:
            raise MissingConstantError("G_%s not configured; supply it explicitly" % (m,))


GRID_SPLIT = 0.5
GRID_FIRST_STEP = 1e-3
DEFAULT_GRID_POINTS = 400
DEFAULT_T_MAX = 20.0


def default_grid(num=DEFAULT_GRID_POINTS, t_max=DEFAULT_T_MAX):
    """Time grid starting at 0: geometric on (0, GRID_SPLIT] from
    GRID_FIRST_STEP, uniform after.

    The estimators vary fastest near t = 0 and decay exponentially later, so
    half of the budget goes below GRID_SPLIT.
    """
    if num < 4:
        raise ValueError("grid needs at least 4 points")
    if not t_max > GRID_SPLIT:
        raise ValueError("t_max must exceed %g" % GRID_SPLIT)
    n_geo = (num - 1) // 2
    n_lin = num - 1 - n_geo
    ratio = (GRID_SPLIT / GRID_FIRST_STEP) ** (1.0 / max(n_geo - 1, 1))
    geo = [GRID_FIRST_STEP * ratio**i for i in range(n_geo)]
    geo[-1] = GRID_SPLIT
    step = (t_max - GRID_SPLIT) / n_lin
    lin = [GRID_SPLIT + step * (i + 1) for i in range(n_lin)]
    lin[-1] = t_max
    return [0.0] + geo + lin


def parse_variant(variant):
    """Normalize a variant spec to ('tautological'|'rough'|'intermediate', M)."""
    if variant in ("tautological", "rough"):
        return (variant, None)
    if not isinstance(variant, str) or variant.partition(":")[0] != "intermediate":
        raise ValueError("unknown estimator variant %r" % (variant,))
    _, _, M = variant.partition(":")
    if not M:
        raise ValueError("intermediate variant needs an order, e.g. 'intermediate:5'")
    M = int(M)
    if M < 0:
        raise ValueError("intermediate order M must be nonnegative, got %d" % M)
    return ("intermediate", M)


def variant_label(variant):
    kind, M = parse_variant(variant)
    return kind if M is None else "%s:%d" % (kind, M)


class EstimatorTables:
    """Sampled Gram tables for one expansion on one grid.

    The grid given here is the only probe setting: every estimator set built
    on these tables uses it.  Sampling and assembly run at the one working
    precision, timepoly.DEFAULT_EVAL_PRECISION.

    coeff_tables() and tail_tables() return dict[(i, j, m)] -> list of mpf
    over the grid.  The first call builds the exact Gram polynomials of
    every kind the expansion holds, the coefficients and, where exp.tails
    is set or tail_tables() is called, the residual tails, and samples them
    on the grid in one batch.  A probe samples only what its variant reads:
    a rough or intermediate probe builds no tail Gram, even where the
    expansion holds its tails.  Values at t = 0 are exact, and values that
    lose too many bits to cancellation are evaluated again at a higher
    precision.  Each probed R then costs one integer dot product over
    columns formed once per instance at each grid point, so bisections
    reuse one instance.

    stats maps each table kind built so far ("coeff", "tail") to its
    build_s (seconds of the exact build), build_workers (the processes that
    built it), terms (Gram terms over all tables), max_bits_lost,
    reevaluated (values evaluated again), max_precision (the highest
    precision used), fallbacks (values whose window failed the rounding
    test and were summed at full width), and the sampling batch it was part
    of: eval_s (its seconds), workers (the processes that sampled it) and
    batch (the kinds it sampled, whose stats share these three).  Once R has
    been probed, stats["assembly"] holds probes (samples() calls), seconds
    (their assembly time) and columns_s (the part of it spent forming the
    columns that do not depend on R).
    """

    def __init__(self, exp, n, grid=None):
        self.exp = exp
        self.n = n
        self.grid = list(grid) if grid is not None else default_grid()
        if len(self.grid) < 2 or not all(math.isfinite(t) for t in self.grid):
            raise ValueError("grid needs at least 2 points, all finite")
        if self.grid[0] != 0 or any(
            b <= a for a, b in zip(self.grid, self.grid[1:])
        ):
            raise ValueError("grid must be strictly increasing and start at 0")
        with mpmath.workprec(DEFAULT_EVAL_PRECISION):
            self._vol = self._dyadic((2 * mpmath.pi) ** 3)
        self._tables = {}  # kind -> dict[(i, j, m)] -> list of mpf over the grid
        self._columns = {}
        self.stats = {}

    def coeff_tables(self):
        """Cross Grams <u_i, u_j>_m for m in {n, n+1}; the tail Grams are
        sampled in the same batch where the expansion holds its tails."""
        if "coeff" not in self._tables:
            self._sample(("coeff", "tail") if self.exp.tails is not None else ("coeff",))
        return self._tables["coeff"]

    def tail_tables(self):
        """Cross Grams <tail_i, tail_j>_n for the residual orders, with the
        coefficient Grams in the same batch if they are not sampled yet."""
        if "tail" not in self._tables:
            residual_tail(self.exp)
            self._sample(("coeff", "tail"))
        return self._tables["tail"]

    def _sample(self, kinds):
        """Build the Gram polys of the kinds not sampled yet and sample them
        in one batch, each kind's values and loss kept apart (the parts of
        sample_real_polys).  The batch's seconds, workers and kinds are
        recorded in the stats of each kind it sampled."""
        kinds = [kind for kind in kinds if kind not in self._tables]
        if not kinds:
            return
        built = [self._build(kind) for kind in kinds]
        start = time.perf_counter()
        values, reports = sample_real_polys(
            [poly for _, polys in built for poly in polys], self.grid,
            parts=[len(polys) for _, polys in built],
        )
        eval_s = time.perf_counter() - start
        offset = 0
        for kind, (keys, _), report in zip(kinds, built, reports):
            self._tables[kind] = dict(zip(keys, values[offset : offset + len(keys)]))
            offset += len(keys)
            self.stats[kind].update(report, eval_s=eval_s, batch=kinds)

    def _build(self, kind):
        """(keys, polys): the exact Gram polys of the pairs i <= j of the
        kind's fields at every order, keyed (i, j, m), but for those with no
        terms, such as the odd pairs of a datum whose orbit classes' signs
        sum to zero: a missing Gram is an exact zero.  Records build_s,
        build_workers (the processes that built them) and terms in
        self.stats[kind].

        The shell sums of every pair are summed over the orbit classes of
        the fields' support (fields.gram_shells).  Where the mode products
        reach GRAM_MIN_PRODUCTS per process, the classes are dealt into
        shares of about equal products and each share runs in its own
        process (timepoly._run_shares).  A share forms each field's
        numerators at its representatives once, and its sums are integers
        over the product of the two fields' denominators there; scaled to
        the lcm of the shares' denominators they add up exactly, so every
        Gram is the serial one."""
        if kind == "coeff":
            fields, orders = self.exp.coeffs, (self.n, self.n + 1)
        else:
            fields, orders = self.exp.tails, (self.n,)
        start = time.perf_counter()
        support = set().union(*(f.coeffs for f in fields))
        # the classes the fields were propagated over: a member reached with
        # sign sigma holds sigma^(i+j) times its representative's term (tail i
        # is of order N+1+i), so a class weighs its size, or on odd pairs its signs' sum
        routes = self.exp.symmetry.routes
        classes = [
            (rep, (len(members), sum(routes[M][1] for M in members.values())))
            for rep, members in orbit_partition(support, list(routes))
        ]
        pairs = [(i, j) for i in range(len(fields)) for j in range(i, len(fields))]

        def shells(share):
            """The shell sums of every pair over a share of the classes, and
            the denominator each pair's sums are over."""
            reps = [rep for rep, _ in share]
            numerators = [gram_numerators(f, reps) for f in fields]
            return [numerators[i][0] * numerators[j][0] for i, j in pairs], [
                gram_shells(
                    numerators[i][1], numerators[j][1], [(rep, w[(i + j) % 2]) for rep, w in share]
                )
                for i, j in pairs
            ]

        loads = _products(fields, classes)
        shares = _deal(classes, loads, _workers(sum(loads), GRAM_MIN_PRODUCTS, len(classes)))
        results, processes = _run_shares(
            shells, shares, lambda got, share: len(got[0]) == len(got[1]) == len(pairs)
        )
        keys, polys = [], []
        for p, (i, j) in enumerate(pairs):
            den = math.lcm(*(dens[p] for dens, _ in results))
            total = {}
            for dens, sums in results:
                _add_shells(total, sums[p], den // dens[p])
            for m, poly in zip(orders, weigh_shells(total, den, orders)):
                if poly.terms:
                    keys.append((i, j, m))
                    polys.append(poly)
        self.stats[kind] = {
            "build_s": time.perf_counter() - start,
            "build_workers": processes,
            "terms": sum(poly.num_terms() for poly in polys),
        }
        return keys, polys

    # -- per-R assembly --------------------------------------------------------
    # Integer dot products over columns formed once per instance (see the
    # module docstring), each sample rounded to a float once.  The columns
    # are kept in self._columns under a key naming what they hold.

    def samples(self, R, variant, constants):
        """(D_n, D_{n+1}, eps_n) over the grid as floats for one R, counted
        in stats["assembly"].  The tables the variant reads and that are not
        yet sampled are sampled first, in one batch, off the assembly's
        clock, once the variant's order M and, for the rough error, K_n are
        known to be valid."""
        self._head_order(variant)
        tautological = parse_variant(variant)[0] == "tautological"
        if tautological:
            self.tail_tables()
        else:
            constants.K_of(self.n)
            self._sample(("coeff",))
        start = time.perf_counter()
        out = (
            self.growth_samples(R, self.n, variant),
            self.growth_samples(R, self.n + 1, variant),
            self.error_samples(R, variant, constants),
        )
        record = self._assembly
        record["probes"] += 1
        record["seconds"] += time.perf_counter() - start
        return out

    def growth_samples(self, R, m, variant):
        """D_m = ||sum_{j<=M} R^j u_j||_m + sum_{j>M} R^j ||u_j||_m over the
        grid as floats, with M = N for the tautological variant and -1 for
        the rough one."""
        M, N = self._head_order(variant), self.exp.N
        R = self._dyadic(R)
        if M == N:
            return [_to_float(r, g) for r, g in self._roots("coeff", m, M, R, 0, FLOAT_BITS)]
        if M < 0:
            heads = [(0, 0)] * len(self.grid)  # no head: sqrt(0)
        else:
            heads = self._roots("coeff", m, M, R, 0, DEFAULT_EVAL_PRECISION)
        w, s = _weights(*R, M + 1, N)
        out = []
        for (r, g), (f, norms) in zip(heads, self._norms()[m]):
            t, f = sum(map(mul, w, norms[M + 1 :])), f + s
            low = min(g, f)
            out.append(_to_float((r << (g - low)) + (t << (f - low)), low))
        return out

    def error_samples(self, R, variant, constants):
        """eps_n over the grid as floats: ||sum_i R^(N+1+i) tail_i||_n for the
        tautological variant, else K_n sum_{j=N+1}^{2N+1} R^j
        sum_l ||u_l||_n ||u_{j-l-1}||_{n+1}."""
        kind, _ = parse_variant(variant)
        N = self.exp.N
        R = self._dyadic(R)
        if kind == "tautological":
            roots = self._roots("tail", self.n, N, R, 2 * N + 2, FLOAT_BITS)
            return [_to_float(r, g) for r, g in roots]
        k, ke = self._dyadic(constants.K_of(self.n))
        w, s = _weights(*R, N + 1, 2 * N + 1)
        return [_to_float(k * sum(map(mul, w, c)), ke + s + f) for f, c in self._rough()]

    def _head_order(self, variant):
        """The order M of the exact head of the growth: N for the
        tautological variant, -1 for the rough one; ValueError past N."""
        kind, M = parse_variant(variant)
        M = {"rough": -1, "tautological": self.exp.N}.get(kind, M)
        if M > self.exp.N:
            raise ValueError("intermediate order M exceeds N")
        return M

    def _dyadic(self, x):
        """(p, e) with p 2^e = mpf(x) at the working precision."""
        with mpmath.workprec(DEFAULT_EVAL_PRECISION):
            x = mpmath.mpf(x)
        if not mpmath.isfinite(x):  # mpmath holds inf and nan with a zero mantissa
            raise ValueError("%s is not a finite number" % (x,))
        sign, man, exp, _ = x._mpf_
        return (-man if sign else man), exp

    def _roots(self, kind, m, M, R, lo, bits):
        """(r, g) at each grid point with r 2^g = sqrt(vol sum_s R^(lo+s) H_s)
        over the forms of the pairs within 0..M, to bits bits (_sqrt_fixed)."""
        w, s = _weights(*R, lo, lo + 2 * M)
        v, ve = self._vol
        return [
            _sqrt_fixed(v * sum(map(mul, w, H)), ve + s + e, bits)
            for e, H in self._forms(kind, m, M)
        ]

    @property
    def _assembly(self):
        return self.stats.setdefault("assembly", {"probes": 0, "seconds": 0.0, "columns_s": 0.0})

    def _cached(self, key, build, *args):
        """The columns named key, formed by build(*args) on first use and
        timed into columns_s.  Callers form a build's inputs before the call,
        so no two builds overlap in time."""
        columns = self._columns.get(key)
        if columns is None:
            start = time.perf_counter()
            columns = self._columns[key] = build(*args)
            self._assembly["columns_s"] += time.perf_counter() - start
        return columns

    def _forms(self, kind, m, M):
        tables = self.coeff_tables() if kind == "coeff" else self.tail_tables()
        return self._cached(("forms", kind, m, M), _form_columns, tables, m, M, len(self.grid))

    def _norms(self):
        return self._cached("norms", self._norm_columns, self.coeff_tables())

    def _rough(self):
        norms = self._norms()
        return self._cached("rough", _rough_sums, norms[self.n], norms[self.n + 1], self.exp.N)

    def _norm_columns(self, tables):
        """||u_j||_m = sqrt(vol G_jj^m), j = 0..N, to the working precision, as
        ints over one power of two per grid point: dict m -> list over the
        grid of (f, [||u_0||_m 2^-f, ...]).  A missing G_jj^m, that of a
        vanishing u_j, gives zero norms."""
        v, ve = self._vol
        zeros = [mpmath.mpf(0)] * len(self.grid)
        out = {}
        for m in (self.n, self.n + 1):
            out[m] = column = []
            diagonal = [tables.get((j, j, m), zeros) for j in range(self.exp.N + 1)]
            for e, G in _int_rows(diagonal, len(self.grid)):
                roots = [_sqrt_fixed(v * x, ve + e, DEFAULT_EVAL_PRECISION) for x in G]
                f = min(g for _, g in roots)
                column.append((f, [r << (g - f) for r, g in roots]))
        return out


def _products(fields, classes):
    """Per class, the mode products its shell sums take over every pair
    i <= j of the fields (fields.gram_shells), component by component: with
    n_i the terms of field i's component at the class's representative and
    S their sum, sum_{i<j} n_i n_j + sum_i n_i (n_i + 1) / 2 = (S^2 + S) / 2,
    a field's Gram with itself taking each unordered pair of terms once."""
    loads = []
    for rep, _ in classes:
        vecs = [f.coeffs[rep] for f in fields if rep in f.coeffs]
        load = 0
        for c in range(3):
            s = sum(len(vec[c].terms) for vec in vecs)
            load += (s * s + s) // 2
        loads.append(load)
    return loads


def _deal(items, loads, workers):
    """items dealt into workers shares of about equal load: the largest
    first, each to the share with the least load so far."""
    shares = [[] for _ in range(workers)]
    dealt = [0] * workers
    for i in sorted(range(len(items)), key=lambda i: -loads[i]):
        k = dealt.index(min(dealt))
        shares[k].append(items[i])
        dealt[k] += loads[i]
    return shares


def _add_shells(total, more, f):
    """Add f times the shell sums more into total, exactly."""
    for ksq, shell in more.items():
        acc = total.setdefault(ksq, {})
        for key, x in shell.items():
            acc[key] = acc.get(key, 0) + f * x


FLOAT_BITS = 55  # 53 bits, a rounding bit and a sticky bit


def _to_float(v, e):
    """The float nearest v 2^e for ints v and e, ties to even; beyond the
    largest float, an infinity (as mpmath's float conversion gives)."""
    try:
        return float(v << e) if e >= 0 else v / (1 << -e)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _sqrt_fixed(v, e, bits):
    """(r, g) with r 2^g = sqrt(v 2^e) to at least bits bits: r is the root
    truncated to bits or more bits, with its lowest bit set when anything
    was cut off (a sticky bit), so r rounds as the exact root does to any
    width of at most bits - 2 bits.  v <= 0 gives (0, 0): tiny negatives
    are cancellation noise of exact zeros."""
    if v <= 0:
        return 0, 0
    shift = 2 * bits - v.bit_length()
    shift += (e - shift) & 1
    if shift >= 0:
        x, cut = v << shift, 0
    else:
        x, cut = v >> -shift, v & ((1 << -shift) - 1)
    r = math.isqrt(x)
    if cut or r * r != x:
        r |= 1
    return r, (e - shift) >> 1


def _weights(p, e, lo, hi):
    """([w_lo, ..., w_hi], s) with (p 2^e)^j = w_j 2^s for j = lo..hi."""
    if e > 0:
        p, e = p << e, 0
    return [p**j << (j - hi) * e for j in range(lo, hi + 1)], hi * e


def _int_rows(columns, points):
    """Columns of mpf values over the points grid points as ints over one
    power of two per point: (e, [x 2^-e for each column's value x]) for each
    point in turn.  Exact, since every mpf is a dyadic."""
    for values in zip(*columns) if columns else [()] * points:
        raw = [x._mpf_ for x in values]
        e = min((x[2] for x in raw), default=0)  # a zero's exponent is 0
        yield e, [(-man if sign else man) << (exp - e) for sign, man, exp, _ in raw]


def _form_columns(tables, m, M, points):
    """H_s = sum_{i+j=s} (2 - delta_ij) G_ij^m over the pairs within 0..M,
    s = 0..2M, at each of the points grid points from tables
    (dict[(i, j, m)] -> mpf values over the grid, a missing Gram zero):
    list of (e, [H_0 2^-e, ..., H_2M 2^-e])."""
    pairs = [(i, j) for i in range(M + 1) for j in range(i, M + 1) if (i, j, m) in tables]
    out = []
    for e, G in _int_rows([tables[(i, j, m)] for i, j in pairs], points):
        H = [0] * (2 * M + 1)
        for (i, j), g in zip(pairs, G):
            H[i + j] += g if i == j else 2 * g
        out.append((e, H))
    return out


def _rough_sums(a, b, N):
    """c_j = sum_l a_l b_{j-l-1}, j = N+1..2N+1, per grid point from the norm
    rows a (order n) and b (order n+1): list of (f, [c_{N+1}, ...])."""
    js = range(N + 1, 2 * N + 2)
    return [
        (fa + fb, [sum(x[l] * y[j - l - 1] for l in range(j - N - 1, N + 1)) for j in js])
        for (fa, x), (fb, y) in zip(a, b)
    ]


# -- the per-R estimator set -----------------------------------------------------

LOG_FLOOR = 1e-300  # exact zeros enter the logarithm as this
VALUE_FLOOR = 1e-290  # interpolated values at or below this are zero


def _sign(v):
    return (v > 0) - (v < 0)


def _pchip_edge_slope(h0, h1, m0, m1):
    """The one-sided three-point derivative at an end, kept to the shape of
    the data (PchipInterpolator._edge_case)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_coefficients(x, y):
    """The coefficients of PchipInterpolator(x, y), the rows of its .c as
    four lists over the intervals: c0 s^3 + c1 s^2 + c2 s + c3 with
    s = t - x[i] on interval i.

    The formulas and their order of operations are the interpolator's own
    (the derivatives of PchipInterpolator._find_derivatives and _edge_case,
    then the CubicHermiteSpline coefficients), done elementwise on floats,
    so the lists equal its .c bit for bit.
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need as many x as y, and at least two")
    h = [b - a for a, b in zip(x, x[1:])]
    if not all(hk > 0 for hk in h):
        raise ValueError("x must be strictly increasing")
    m = [(b - a) / hk for a, b, hk in zip(y, y[1:], h)]
    if len(x) == 2:
        d = [m[0], m[0]]
    else:
        d = [_pchip_edge_slope(h[0], h[1], m[0], m[1])]
        for h0, h1, m0, m1 in zip(h, h[1:], m, m[1:]):
            if _sign(m0) != _sign(m1) or m0 == 0 or m1 == 0:
                d.append(0.0)
            else:
                # the weighted harmonic mean of the two slopes
                w1, w2 = 2 * h1 + h0, h1 + 2 * h0
                d.append(1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
        d.append(_pchip_edge_slope(h[-1], h[-2], m[-1], m[-2]))
    c0, c1 = [], []
    for hk, mk, da, db in zip(h, m, d, d[1:]):
        t = (da + db - 2 * mk) / hk
        c0.append(t / hk)
        c1.append((mk - da) / hk - t)
    return c0, c1, d[:-1], y[:-1]


@dataclass
class EstimatorSet:
    """Sampled + interpolated (D_n, D_{n+1}, eps_n) for one Reynolds value.

    Each column is interpolated by the exponential of the PCHIP fit of its
    logarithm.  The estimators decay exponentially, so a pure exponential
    is reproduced exactly, and the interpolant is monotone between nodes and
    never dips below zero.  Exact zeros enter the logarithm as LOG_FLOOR,
    values at or below VALUE_FLOOR come out as zero, and outside the grid
    the end samples (clamped at zero) hold.  rates(t) evaluates the three
    columns together and finds t's grid interval once, and keeps its last t
    and value: a Dormand-Prince step evaluates its last two stages at one t.
    """

    R: float
    n: int
    variant: str
    N: int
    grid: list
    D_n: list  # float samples
    D_n1: list
    eps_n: list
    _rows: list = dc_field(default=None, init=False, repr=False, compare=False)
    _memo: tuple = dc_field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        columns = (self.D_n, self.D_n1, self.eps_n)
        fits = [
            pchip_coefficients(self.grid, [math.log(max(v, LOG_FLOOR)) for v in col])
            for col in columns
        ]
        # per interval, each column's coefficients from the constant term up
        self._rows = list(zip(*(c for c0, c1, c2, c3 in fits for c in (c3, c2, c1, c0))))
        self._first = tuple(max(col[0], 0.0) for col in columns)
        self._last = tuple(max(col[-1], 0.0) for col in columns)

    def rates(self, t):
        """(D_n(t), D_{n+1}(t), eps_n(t))."""
        grid = self.grid
        if t <= 0:
            return self._first
        if t >= grid[-1]:
            return self._last
        memo_t, memo = self._memo
        if t == memo_t:
            return memo
        i = bisect_right(grid, t) - 1
        s = t - grid[i]
        ss = s * s
        sss = ss * s
        a3, a2, a1, a0, b3, b2, b1, b0, e3, e2, e1, e0 = self._rows[i]
        a = math.exp(a3 + a2 * s + a1 * ss + a0 * sss)
        b = math.exp(b3 + b2 * s + b1 * ss + b0 * sss)
        e = math.exp(e3 + e2 * s + e1 * ss + e0 * sss)
        out = (
            0.0 if a <= VALUE_FLOOR else a,
            0.0 if b <= VALUE_FLOOR else b,
            0.0 if e <= VALUE_FLOOR else e,
        )
        self._memo = (t, out)
        return out

    @property
    def t_max(self):
        return self.grid[-1]


def build_estimator_set(exp, R, n, variant="tautological", constants=None, tables=None):
    """Sample D_n, D_{n+1} and eps_n on the grid and wrap them as clamped
    monotone-cubic interpolants.

    The rough and intermediate variants use the rough error formula (the
    constant K_n must be configured); the tautological variant needs the
    residual tails.  tables, an EstimatorTables of exp at order n, fixes the
    grid and shares the sampling across R values; without it, tables on the
    default grid are built.
    """
    variant = variant_label(variant)
    if constants is None:
        constants = ConstantsTable()
    if tables is None:
        tables = EstimatorTables(exp, n)
    elif tables.exp is not exp:
        raise ValueError("tables were built on another expansion")
    elif tables.n != n:
        raise ValueError("tables were built for order %d, not %d" % (tables.n, n))
    if not 0 <= R < math.inf:
        raise ValueError("R must be a finite number >= 0, got %s" % (R,))

    D_n, D_n1, eps = tables.samples(R, variant, constants)
    est = EstimatorSet(
        R=float(R),
        n=n,
        variant=variant,
        N=exp.N,
        grid=list(tables.grid),
        D_n=D_n,
        D_n1=D_n1,
        eps_n=eps,
    )
    _check_invariants(est, exp)
    return est


def _check_invariants(est, exp):
    for name, vals in (("D_n", est.D_n), ("D_n+1", est.D_n1), ("eps_n", est.eps_n)):
        for v in vals:
            if not math.isfinite(v) or v < 0:
                raise ValueError("estimator sample %s = %s is invalid" % (name, v))
    # the tables are exact at t = 0, where u_j = 0 for every j >= 1
    if exp.N >= 1 and est.eps_n[0] != 0.0:
        raise ValueError("eps_n(0) = %s should vanish for N >= 1" % (est.eps_n[0],))


def export_csv(est, path):
    """Write (t, D_n, D_{n+1}, eps_n) rows with a configuration header."""
    import csv

    with open(path, "w", newline="") as fh:
        fh.write("# R=%.17g N=%d n=%d variant=%s\n" % (est.R, est.N, est.n, est.variant))
        writer = csv.writer(fh)
        writer.writerow(["t", "D_%d" % est.n, "D_%d" % (est.n + 1), "eps_%d" % est.n])
        for t, a, b, c in zip(est.grid, est.D_n, est.D_n1, est.eps_n):
            writer.writerow(["%.17g" % t, "%.17g" % a, "%.17g" % b, "%.17g" % c])
