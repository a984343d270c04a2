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
from scipy.interpolate import PchipInterpolator

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


def default_grid(num=400, t_max=20.0, t_split=0.5, t_first=1e-3):
    """Time grid starting at 0: geometric on (0, t_split], uniform after.

    The estimators vary fastest near t = 0 and decay exponentially later, so
    half of the budget goes below t_split.
    """
    if num < 4:
        raise ValueError("grid needs at least 4 points")
    if not 0 < t_first < t_split < t_max:
        raise ValueError("need 0 < t_first < t_split < t_max")
    n_geo = (num - 1) // 2
    n_lin = num - 1 - n_geo
    ratio = (t_split / t_first) ** (1.0 / (n_geo - 1))
    geo = [t_first * ratio**i for i in range(n_geo)]
    geo[-1] = t_split
    step = (t_max - t_split) / n_lin
    lin = [t_split + step * (i + 1) for i in range(n_lin)]
    lin[-1] = t_max
    return [0.0] + geo + lin


def parse_variant(variant):
    """Normalize a variant spec to ('tautological'|'rough'|'intermediate', M)."""
    if isinstance(variant, tuple):
        kind, M = variant
        if kind != "intermediate":
            raise ValueError("tuple variants must be ('intermediate', M)")
        return ("intermediate", int(M))
    if variant in ("tautological", "rough"):
        return (variant, None)
    if isinstance(variant, str) and variant.startswith("intermediate"):
        _, _, M = variant.partition(":")
        if not M:
            raise ValueError("intermediate variant needs an order, e.g. 'intermediate:5'")
        return ("intermediate", int(M))
    raise ValueError("unknown estimator variant %r" % (variant,))


def variant_label(variant):
    kind, M = parse_variant(variant)
    return kind if M is None else "%s:%d" % (kind, M)


class EstimatorTables:
    """Sampled Gram tables for one expansion on one grid.

    coeff_tables() and tail_tables() build the exact Gram polynomials of
    their fields and sample them on the grid at the given precision, once
    each; they return dict[(i, j, m)] -> list of mpf over the grid.  Values
    at t = 0 are exact, and values that lose too many bits to cancellation
    are evaluated again at a higher precision.  Assembling the per-R
    estimator values afterwards is cheap arithmetic, so bisections reuse one
    instance across all probed Reynolds parameters.

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

    # -- per-R assembly; everything below returns lists of mpf over the grid --
    # The arithmetic is mpmath's own, done on the raw libmp values of the
    # tables at self.precision with rounding to nearest, as the mpf operators
    # do it.

    def _vol(self):
        with mpmath.workprec(self.precision):
            return ((2 * mpmath.pi) ** 3)._mpf_

    def _powers(self, R, exponents):
        with mpmath.workprec(self.precision):
            Rf = mpmath.mpf(R)._mpf_
        return [mpf_pow_int(Rf, e, self.precision, round_nearest) for e in exponents]

    def _norm(self, vol, x):
        """sqrt(vol * x), with tiny negatives (cancellation noise from exact
        zeros) clamped to 0."""
        y = mpf_mul(vol, x, self.precision, round_nearest)
        return mpf_sqrt(y, self.precision, round_nearest) if y[1] and not y[0] else fzero

    def _quadratic_form(self, tables, powers, m):
        """sqrt(vol * sum_{i,j} P_i P_j G_ij^m) over the grid for the powers
        P_i, from the tables of i <= j; clamped like _norm."""
        prec = self.precision
        weighted = []
        for i in range(len(powers)):
            for j in range(i, len(powers)):
                w = mpf_mul(powers[i], powers[j], prec, round_nearest)
                weighted.append((w if i == j else mpf_shift(w, 1), tables[(i, j, m)]))
        vol = self._vol()
        out = []
        for ig in range(len(self.grid)):
            acc = fzero
            for w, col in weighted:
                acc = mpf_add(acc, mpf_mul(w, col[ig]._mpf_, prec, round_nearest), prec, round_nearest)
            out.append(self._norm(vol, acc))
        return out

    def growth_samples(self, R, m, variant):
        kind, M = parse_variant(variant)
        if kind == "rough":
            return self._growth_intermediate_samples(R, m, -1)
        if kind == "tautological":
            return self._growth_intermediate_samples(R, m, self.exp.N)
        if M > self.exp.N:
            raise ValueError("intermediate order M exceeds N")
        return self._growth_intermediate_samples(R, m, M)

    def _growth_intermediate_samples(self, R, m, M):
        tables = self.coeff_tables()
        prec = self.precision
        Rpow = self._powers(R, range(self.exp.N + 1))
        out = self._quadratic_form(tables, Rpow[: M + 1], m)
        vol = self._vol()
        for j in range(M + 1, self.exp.N + 1):
            col = tables[(j, j, m)]
            for ig, total in enumerate(out):
                term = mpf_mul(Rpow[j], self._norm(vol, col[ig]._mpf_), prec, round_nearest)
                out[ig] = mpf_add(total, term, prec, round_nearest)
        return [mpmath.mp.make_mpf(v) for v in out]

    def error_samples(self, R, variant, constants):
        kind, _ = parse_variant(variant)
        if kind == "tautological":
            return self._error_tautological_samples(R)
        return self._error_rough_samples(R, constants)

    def _error_tautological_samples(self, R):
        N = self.exp.N
        Rpow = self._powers(R, range(N + 1, 2 * N + 2))
        out = self._quadratic_form(self.tail_tables(), Rpow, self.n)
        return [mpmath.mp.make_mpf(v) for v in out]

    def _error_rough_samples(self, R, constants):
        K = constants.K_of(self.n)
        tables = self.coeff_tables()
        N = self.exp.N
        prec = self.precision
        with mpmath.workprec(prec):
            Kf = mpmath.mpf(K)._mpf_
        Rpow = self._powers(R, range(2 * N + 2))
        vol = self._vol()
        cols_n = [tables[(j, j, self.n)] for j in range(N + 1)]
        cols_n1 = [tables[(j, j, self.n + 1)] for j in range(N + 1)]
        out = []
        for ig in range(len(self.grid)):
            norms_n = [self._norm(vol, col[ig]._mpf_) for col in cols_n]
            norms_n1 = [self._norm(vol, col[ig]._mpf_) for col in cols_n1]
            total = fzero
            for j in range(N + 1, 2 * N + 2):
                inner = fzero
                for l in range(j - N - 1, N + 1):
                    inner = mpf_add(
                        inner, mpf_mul(norms_n[l], norms_n1[j - l - 1], prec, round_nearest),
                        prec, round_nearest,
                    )
                total = mpf_add(total, mpf_mul(Rpow[j], inner, prec, round_nearest), prec, round_nearest)
            out.append(mpmath.mp.make_mpf(mpf_mul(Kf, total, prec, round_nearest)))
        return out


# -- the per-R estimator set -----------------------------------------------------


def pchip_scalar(x, y):
    """The PchipInterpolator of (x, y), without extrapolation, as a function
    of one float.

    scipy fits the coefficients; the evaluation is scipy's own arithmetic
    done in Python, so the values are bit-identical to the interpolator's at
    a fraction of its per-call cost: the interval is half-open,
    x[i] <= t < x[i+1], except the last, which is closed, and the cubic is
    c3 + c2 s + c1 s^2 + c0 s^3 with s = t - x[i] and the powers s, s s,
    (s s) s.  Outside [x[0], x[-1]] the value is nan.
    """
    pp = PchipInterpolator(x, y, extrapolate=False)
    xs = pp.x.tolist()
    c0, c1, c2, c3 = pp.c.tolist()
    lo, hi, last = xs[0], xs[-1], len(xs) - 2

    def f(t):
        if not lo <= t <= hi:
            return math.nan
        i = min(bisect_right(xs, t) - 1, last)
        s = t - xs[i]
        ss = s * s
        return c3[i] + c2[i] * s + c1[i] * ss + c0[i] * (ss * s)

    return f


def _clamped_pchip(grid, values):
    """Monotone-shape-preserving positive interpolant.

    The estimators decay exponentially, so the cubic is fitted to the
    logarithm: a pure exponential is then reproduced exactly and the result
    can never dip below zero between nodes.  Exact zeros are pushed to a
    floor far below any meaningful estimator value.
    """
    floor = 1e-300
    log_f = pchip_scalar(grid, [math.log(max(v, floor)) for v in values])
    top = grid[-1]
    first = max(values[0], 0.0)
    last = max(values[-1], 0.0)

    def f(t):
        if t <= 0:
            return first
        if t >= top:
            return last
        v = math.exp(log_f(t))
        return 0.0 if v <= 1e-290 else v

    return f


@dataclass
class EstimatorSet:
    """Sampled + interpolated (D_n, D_{n+1}, eps_n) for one Reynolds value."""

    R: float
    n: int
    variant: str
    N: int
    grid: list
    D_n: list  # float samples
    D_n1: list
    eps_n: list
    precision: int
    D_n_f: object = None
    D_n1_f: object = None
    eps_n_f: object = None

    def __post_init__(self):
        self.D_n_f = _clamped_pchip(self.grid, self.D_n)
        self.D_n1_f = _clamped_pchip(self.grid, self.D_n1)
        self.eps_n_f = _clamped_pchip(self.grid, self.eps_n)

    @property
    def t_max(self):
        return self.grid[-1]


def build_estimator_set(
    exp,
    R,
    n,
    variant="tautological",
    grid=None,
    precision=DEFAULT_EVAL_PRECISION,
    constants=None,
    tables=None,
):
    """Sample D_n, D_{n+1} and eps_n on the grid and wrap them as clamped
    monotone-cubic interpolants.

    The rough and intermediate variants use the rough error formula (the
    constant K_n must be configured); the tautological variant needs the
    residual tails.  Pass a prebuilt EstimatorTables to share sampling work
    across R values.
    """
    kind, M = parse_variant(variant)
    if constants is None:
        constants = ConstantsTable()
    if tables is None:
        tables = EstimatorTables(exp, n, grid=grid, precision=precision)
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
        variant=variant_label(variant),
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
