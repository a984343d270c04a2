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
                exactly over one representative per orbit class of the
                symmetry group (fields.gram_poly_orbits);
  sampling      all Grams of one table kind are evaluated together
                (timepoly.sample_real_polys): at each t > 0, e^{-t} and every
                basis value t^a e^{-bt} are computed once and each value is
                one exact integer dot product of mantissas against them,
                rounded once.  t = 0 is exact, so Grams of fields that
                vanish there are exact zeros.

The per-R assembly forms what does not depend on R once per instance, on
first read: the norm columns ||u_j||_m = sqrt((2 pi)^3 G_jj^m) for
m in {n, n+1} and the rough columns sum_l ||u_l||_n ||u_{j-l-1}||_{n+1}.
Each probe then adds weighted columns at every grid point in one loop.

Floating point enters only in the sampling.  The bits each value loses to
cancellation are measured there, and a value that would keep fewer than
timepoly.GUARD_BITS is evaluated again at a higher precision;
EstimatorTables.stats records the loss and the cost.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import mpmath
from mpmath.libmp import (
    fzero,
    mpf_add,
    mpf_mul,
    mpf_pow_int,
    mpf_shift,
    mpf_sqrt,
    round_nearest,
)

from .fields import gram_poly_orbits
from .symmetry import negation_closure, orbit_partition
from .expansion import residual_tail
from .timepoly import DEFAULT_EVAL_PRECISION, sample_real_polys

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
    K_pn: dict = dc_field(default_factory=dict)
    G_pn: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for table in (self.K, self.G, self.K_pn, self.G_pn):
            for key, val in table.items():
                if not val > 0:
                    raise ValueError("constant for %s must be positive, got %s" % (key, val))

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

    def K_pn_of(self, p, n):
        if p == n:
            # K_n = K_{nn}
            try:
                return self.K_pn[(p, n)]
            except KeyError:
                return self.K_of(n)
        try:
            return self.K_pn[(p, n)]
        except KeyError:
            raise MissingConstantError("K_{%s,%s} not configured" % (p, n))

    def G_pn_of(self, p, n):
        try:
            return self.G_pn[(p, n)]
        except KeyError:
            raise MissingConstantError("G_{%s,%s} not configured" % (p, n))


GRID_SPLIT = 0.5
GRID_FIRST_STEP = 1e-3


def default_grid(num=400, t_max=20.0):
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
    if isinstance(variant, tuple):
        kind, M = variant
        if kind != "intermediate":
            raise ValueError("tuple variants must be ('intermediate', M)")
    elif variant in ("tautological", "rough"):
        return (variant, None)
    elif isinstance(variant, str) and variant.startswith("intermediate"):
        _, _, M = variant.partition(":")
        if not M:
            raise ValueError("intermediate variant needs an order, e.g. 'intermediate:5'")
    else:
        raise ValueError("unknown estimator variant %r" % (variant,))
    M = int(M)
    if M < 0:
        raise ValueError("intermediate order M must be nonnegative, got %d" % M)
    return ("intermediate", M)


def variant_label(variant):
    kind, M = parse_variant(variant)
    return kind if M is None else "%s:%d" % (kind, M)


class EstimatorTables:
    """Sampled Gram tables for one expansion on one grid.

    The grid and the precision given here are the only probe configuration:
    every estimator set built on these tables uses both.

    coeff_tables() and tail_tables() build the exact Gram polynomials of
    their fields and sample them on the grid at the given precision, once
    each; they return dict[(i, j, m)] -> list of mpf over the grid.  Values
    at t = 0 are exact, and values that lose too many bits to cancellation
    are evaluated again at a higher precision.  Each probed R then costs one
    weighted sum of columns per grid point, so bisections reuse one instance.

    stats maps each table kind built so far ("coeff", "tail") to its
    build_s and eval_s (seconds for the exact build and the sampling), terms
    (Gram terms over all tables), max_bits_lost, reevaluated (values
    evaluated again) and max_precision (the highest precision used).
    """

    def __init__(self, exp, n, grid=None, precision=DEFAULT_EVAL_PRECISION):
        self.exp = exp
        self.n = n
        self.grid = list(grid) if grid is not None else default_grid()
        if self.grid[0] != 0 or any(
            b <= a for a, b in zip(self.grid, self.grid[1:])
        ):
            raise ValueError("grid must be strictly increasing and start at 0")
        self.precision = precision
        with mpmath.workprec(precision):
            self._vol = ((2 * mpmath.pi) ** 3)._mpf_
        self._matrices = list(negation_closure(exp.group.reduced_plus))
        self._coeff_tables = None
        self._tail_tables = None
        self.stats = {}

    def coeff_tables(self):
        """Cross Grams <u_i, u_j>_m for m in {n, n+1}."""
        if self._coeff_tables is None:
            self._coeff_tables = self._gram_tables(
                "coeff", self.exp.coeffs, (self.n, self.n + 1)
            )
        return self._coeff_tables

    def tail_tables(self):
        """Cross Grams <tail_i, tail_j>_n for the residual orders."""
        if self._tail_tables is None:
            self._tail_tables = self._gram_tables("tail", residual_tail(self.exp), (self.n,))
        return self._tail_tables

    def _gram_tables(self, kind, fields, orders):
        """Exact Gram polynomials of every pair i <= j at every order, sampled
        on the grid; dict[(i, j, m)] -> list of mpf.  Records the cost and
        the precision lost in self.stats[kind]."""
        start = time.perf_counter()
        support = set().union(*(f.coeffs for f in fields))
        # the support holds canonical keys only, so each class is the
        # canonical half of an orbit under +-S
        classes = [
            (rep, len(members)) for rep, members in orbit_partition(support, self._matrices)
        ]
        pairs = [(i, j) for i in range(len(fields)) for j in range(i, len(fields))]
        keys = [(i, j, m) for i, j in pairs for m in orders]
        polys = [
            poly for i, j in pairs for poly in gram_poly_orbits(fields[i], fields[j], orders, classes)
        ]
        built = time.perf_counter()
        values, report = sample_real_polys(polys, self.grid, self.precision)
        self.stats[kind] = {
            "build_s": built - start,
            "eval_s": time.perf_counter() - built,
            "terms": sum(p.num_terms() for p in polys),
            **report,
        }
        return dict(zip(keys, values))

    # -- per-R assembly --------------------------------------------------------
    # The arithmetic is mpmath's own, done on the raw libmp values of the
    # tables at self.precision with rounding to nearest, as the mpf operators
    # do it.  Columns that do not depend on R are cached properties.

    @cached_property
    def _norm_columns(self):
        """||u_j||_m = sqrt(vol G_jj^m) over the grid by m in {n, n+1}, j = 0..N."""
        tables = self.coeff_tables()
        return {
            m: [[self._norm(x._mpf_) for x in tables[(j, j, m)]] for j in range(self.exp.N + 1)]
            for m in (self.n, self.n + 1)
        }

    @cached_property
    def _rough_columns(self):
        """c_j = sum_l ||u_l||_n ||u_{j-l-1}||_{n+1} over the grid, j = N+1..2N+1."""
        N, prec, rnd = self.exp.N, self.precision, round_nearest
        a, b = self._norm_columns[self.n], self._norm_columns[self.n + 1]
        out = []
        for j in range(N + 1, 2 * N + 2):
            factors = [(a[l], b[j - l - 1]) for l in range(j - N - 1, N + 1)]
            col = []
            for ig in range(len(self.grid)):
                inner = fzero
                for x, y in factors:
                    inner = mpf_add(inner, mpf_mul(x[ig], y[ig], prec, rnd), prec, rnd)
                col.append(inner)
            out.append(col)
        return out

    def _powers(self, R, exponents):
        with mpmath.workprec(self.precision):
            Rf = mpmath.mpf(R)._mpf_
        return [mpf_pow_int(Rf, e, self.precision, round_nearest) for e in exponents]

    def _norm(self, x):
        """sqrt(vol * x), with tiny negatives (cancellation noise from exact
        zeros) clamped to 0."""
        y = mpf_mul(self._vol, x, self.precision, round_nearest)
        return mpf_sqrt(y, self.precision, round_nearest) if y[1] and not y[0] else fzero

    def _accumulate(self, weighted, start=None):
        """start (or 0) plus w * col[ig] for each (w, col), in order, at each ig."""
        prec = self.precision
        out = []
        for ig in range(len(self.grid)):
            acc = fzero if start is None else start[ig]
            for w, col in weighted:
                acc = mpf_add(acc, mpf_mul(w, col[ig], prec, round_nearest), prec, round_nearest)
            out.append(acc)
        return out

    def _quadratic_form(self, tables, powers, m):
        """sqrt(vol * sum_{i,j} P_i P_j G_ij^m) over the grid for the powers
        P_i, from the tables of i <= j; clamped like _norm."""
        prec = self.precision
        weighted = []
        for i in range(len(powers)):
            for j in range(i, len(powers)):
                w = mpf_mul(powers[i], powers[j], prec, round_nearest)
                col = [v._mpf_ for v in tables[(i, j, m)]]
                weighted.append((w if i == j else mpf_shift(w, 1), col))
        return [self._norm(x) for x in self._accumulate(weighted)]

    def growth_samples(self, R, m, variant):
        kind, M = parse_variant(variant)
        N = self.exp.N
        M = {"rough": -1, "tautological": N}.get(kind, M)
        if M > N:
            raise ValueError("intermediate order M exceeds N")
        Rpow = self._powers(R, range(N + 1))
        head = self._quadratic_form(self.coeff_tables(), Rpow[: M + 1], m)
        tail = [(Rpow[j], self._norm_columns[m][j]) for j in range(M + 1, N + 1)]
        return [mpmath.mp.make_mpf(v) for v in self._accumulate(tail, head)]

    def error_samples(self, R, variant, constants):
        kind, _ = parse_variant(variant)
        N = self.exp.N
        Rpow = self._powers(R, range(N + 1, 2 * N + 2))
        if kind == "tautological":
            out = self._quadratic_form(self.tail_tables(), Rpow, self.n)
        else:
            with mpmath.workprec(self.precision):
                Kf = mpmath.mpf(constants.K_of(self.n))._mpf_
            total = self._accumulate(list(zip(Rpow, self._rough_columns)))
            out = [mpf_mul(Kf, v, self.precision, round_nearest) for v in total]
        return [mpmath.mp.make_mpf(v) for v in out]


# -- the per-R estimator set -----------------------------------------------------

LOG_FLOOR = 1e-300  # exact zeros enter the logarithm as this
VALUE_FLOOR = 1e-290  # interpolated values at or below this are zero


def _sign(v):
    return (v > 0) - (v < 0)


def _pchip_edge_slope(h0, h1, m0, m1):
    """The one-sided three-point derivative at an end, kept to the shape of
    the data (scipy's PchipInterpolator._edge_case)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_coefficients(x, y):
    """The coefficients of scipy's PchipInterpolator(x, y), the rows of its
    .c as four lists over the intervals: c0 s^3 + c1 s^2 + c2 s + c3 with
    s = t - x[i] on interval i.

    The formulas and their order of operations are scipy's own (the
    derivatives of PchipInterpolator._find_derivatives and _edge_case, then
    the CubicHermiteSpline coefficients), done elementwise on floats, so the
    lists equal scipy's bit for bit.
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


def pchip_scalar(x, y):
    """scipy's PchipInterpolator(x, y, extrapolate=False) as a function of
    one float, bit-identical to it.

    The interval is half-open, x[i] <= t < x[i+1], except the last, which is
    closed, and the cubic is c3 + c2 s + c1 s^2 + c0 s^3 with s = t - x[i]
    and the powers s, s s, (s s) s, as scipy evaluates it.  Outside
    [x[0], x[-1]] the value is nan.
    """
    c0, c1, c2, c3 = pchip_coefficients(x, y)
    xs = [float(v) for v in x]
    lo, hi, last = xs[0], xs[-1], len(xs) - 2

    def f(t):
        if not lo <= t <= hi:
            return math.nan
        i = min(bisect_right(xs, t) - 1, last)
        s = t - xs[i]
        ss = s * s
        return c3[i] + c2[i] * s + c1[i] * ss + c0[i] * (ss * s)

    return f


@dataclass
class EstimatorSet:
    """Sampled + interpolated (D_n, D_{n+1}, eps_n) for one Reynolds value.

    Each column is interpolated by the exponential of the PCHIP fit of its
    logarithm.  The estimators decay exponentially, so a pure exponential
    is reproduced exactly, and the interpolant is monotone between nodes and
    never dips below zero.  Exact zeros enter the logarithm as LOG_FLOOR,
    values at or below VALUE_FLOOR come out as zero, and outside the grid
    the end samples (clamped at zero) hold.  rates(t) evaluates the three
    columns together and finds t's grid interval once; D_n_f, D_n1_f and
    eps_n_f are its columns.
    """

    R: float
    n: int
    variant: str
    N: int
    grid: list
    D_n: list  # float samples
    D_n1: list
    eps_n: list
    precision: int
    _rows: list = dc_field(default=None, init=False, repr=False, compare=False)

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
        i = bisect_right(grid, t) - 1
        s = t - grid[i]
        ss = s * s
        sss = ss * s
        a3, a2, a1, a0, b3, b2, b1, b0, e3, e2, e1, e0 = self._rows[i]
        a = math.exp(a3 + a2 * s + a1 * ss + a0 * sss)
        b = math.exp(b3 + b2 * s + b1 * ss + b0 * sss)
        e = math.exp(e3 + e2 * s + e1 * ss + e0 * sss)
        return (
            0.0 if a <= VALUE_FLOOR else a,
            0.0 if b <= VALUE_FLOOR else b,
            0.0 if e <= VALUE_FLOOR else e,
        )

    def D_n_f(self, t):
        return self.rates(t)[0]

    def D_n1_f(self, t):
        return self.rates(t)[1]

    def eps_n_f(self, t):
        return self.rates(t)[2]

    @property
    def t_max(self):
        return self.grid[-1]


def build_estimator_set(exp, R, n, variant="tautological", constants=None, tables=None):
    """Sample D_n, D_{n+1} and eps_n on the grid and wrap them as clamped
    monotone-cubic interpolants.

    The rough and intermediate variants use the rough error formula (the
    constant K_n must be configured); the tautological variant needs the
    residual tails.  tables, an EstimatorTables of exp at order n, fixes the
    grid and the precision and shares the sampling across R values; without
    it, tables on the default grid and precision are built.
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
    if R < 0:
        raise ValueError("R must be nonnegative")

    D_n = tables.growth_samples(R, n, variant)
    D_n1 = tables.growth_samples(R, n + 1, variant)
    eps = tables.error_samples(R, variant, constants)

    def lower(vals):
        return [float(v) for v in vals]

    est = EstimatorSet(
        R=float(R),
        n=n,
        variant=variant,
        N=exp.N,
        grid=list(tables.grid),
        D_n=lower(D_n),
        D_n1=lower(D_n1),
        eps_n=lower(eps),
        precision=tables.precision,
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
        fh.write(
            "# R=%.17g N=%d n=%d variant=%s precision=%d\n"
            % (est.R, est.N, est.n, est.variant, est.precision)
        )
        writer = csv.writer(fh)
        writer.writerow(["t", "D_%d" % est.n, "D_%d" % (est.n + 1), "eps_%d" % est.n])
        for t, a, b, c in zip(est.grid, est.D_n, est.D_n1, est.eps_n):
            writer.writerow(["%.17g" % t, "%.17g" % a, "%.17g" % b, "%.17g" % c])
