"""Reference implementations that the tests compare against.

sobolev_norm evaluates a field's Gram poly at one time t with
TimePoly.evaluate, a one-point mpmath loop that rounds each coefficient and
basis value on its own and measures no loss.  Together they are the
reference for the library's one route from exact polys to numbers: the
datum norms (DatumDescriptor.sobolev, an exact t = 0 rational rounded once)
must equal sobolev_norm at t = 0 to the bit, and the batch sampler
(sample_real_polys, and data.mode_amplitude on top of it) must agree with
TimePoly.evaluate at a higher precision.
The single-time estimators evaluate norms mode by mode at one time, and
sample_gram_tables samples cross Gram tables by evaluating every mode of the
full support on every grid point.  Both are slow and independent of the
exact Gram route that EstimatorTables takes and of the orbit classes it sums
over.  The assembly_* loops assemble the per-R estimator samples from
sampled tables with 256-bit mpf operators; EstimatorTables' exact integer
assembly must give their floats to the bit.  The *_products routines form the bilinear term and
the Gram sums as TimePoly products and sums of rationals, the reference for
the integer kernels of reyex.fields.  assert_residual_identity checks an
expansion and its tails against bilinear_P's pair loop, which shares no
convolution code with the expansion.  solve_control_scipy integrates the
control problem with scipy's solve_ivp, the reference for the Dormand-Prince
loop of reyex.control, and solve_higher_order_reference the higher-order
control with DOP853 at rtol 1e-13, restarted at every point where a
coefficient is not smooth.  sample_real_polys_full is the batch sampler of
reyex.timepoly as it was before the per-poly window: every value summed at
the full width of the aligned basis, which the windowed sampler must equal
to the bit.  to_records_reference, from_records_reference and
validate_reference are the cache codec as it was before each distinct
coefficient was parsed, formatted and scaled once: the text the encoder
writes, and the polys and verdicts of the decoder, must be theirs.
FractionGaussian is GaussianRational as it was before the integer triple: a
pair of exact rationals, every operation on the two parts.  compose and
inverse (the group law), heat_duhamel (the Duhamel integral of a whole
field) and full_coeffs (both signs of a field's support) serve only the
tests.
"""

import mpmath
from mpmath.libmp import (
    fone,
    from_float,
    from_man_exp,
    from_rational,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    round_nearest,
)
from scipy.integrate import solve_ivp

from reyex.control import (
    DEFAULT_ATOL,
    DEFAULT_BLOWUP_THRESHOLD,
    DEFAULT_RTOL,
    _trajectory,
)
from reyex.expansion import residual_tail
from reyex.fields import (
    TimeField,
    _dot,
    _neg,
    _numerators,
    bilinear_P,
    canonical_key,
    duhamel_mode,
    is_canonical,
    leray_project,
    norm_sq_poly,
    wave_norm_sq,
)
from reyex.rationals import GaussianRational, mpq, rational_to_string
from reyex.symmetry import GroupElement, _mat_vec
from reyex.timepoly import (
    DEFAULT_EVAL_PRECISION,
    GUARD_BITS,
    GUARD_ROUNDS,
    POWER_GUARD,
    TP_ZERO,
    TimePoly,
)


def _mat_mul(S, U):
    return tuple(
        tuple(sum(S[i][m] * U[m][j] for m in range(3)) for j in range(3)) for i in range(3)
    )


def _transpose(S):
    return tuple(tuple(S[j][i] for j in range(3)) for i in range(3))


def compose(g, h):
    """Group law (S,a)(U,b) = (SU, a + S b), translations mod 2 pi."""
    Sb = _mat_vec(g.S, h.a)
    a = tuple((g.a[i] + Sb[i]) % 4 for i in range(3))
    return GroupElement(_mat_mul(g.S, h.S), a)


def inverse(g):
    St = _transpose(g.S)
    mSta = _mat_vec(St, tuple(-x for x in g.a))
    return GroupElement(St, tuple(x % 4 for x in mSta))


def heat_duhamel(v):
    """int_0^t e^{(t-s) Delta} v(s) ds, mode by mode."""
    return v.map_coeffs(duhamel_mode)


def full_coeffs(field):
    """Materialize both k and -k entries (the latter by conjugation)."""
    full = {}
    for k, vec in field.coeffs.items():
        full[k] = vec
        full[_neg(k)] = (vec[0].conj(), vec[1].conj(), vec[2].conj())
    return full


class FractionGaussian:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = mpq(re)
        self.im = mpq(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if not isinstance(other, FractionGaussian):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return FractionGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionGaussian(-self.re, -self.im)

    def __mul__(self, other):
        a, b = self.re, self.im
        c, d = other.re, other.im
        return FractionGaussian(a * c - b * d, a * d + b * c)

    def scale(self, q):
        """Multiply by an exact rational."""
        return FractionGaussian(self.re * q, self.im * q)

    def conj(self):
        return FractionGaussian(self.re, -self.im)

    def mul_i(self):
        """Multiply by the imaginary unit."""
        return FractionGaussian(-self.im, self.re)

    def mul_minus_i(self):
        return FractionGaussian(self.im, -self.re)

    def abs_sq(self):
        return self.re * self.re + self.im * self.im

    def to_strings(self):
        return rational_to_string(self.re), rational_to_string(self.im)

    @classmethod
    def from_strings(cls, re_s, im_s):
        return cls(rational_from_string_reference(re_s), rational_from_string_reference(im_s))


def rational_from_string_reference(s):
    """rational_from_string as it was before it shared its int parser with
    GaussianRational.from_strings."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        den = int(den)
        if not den:
            raise ValueError("zero denominator in %r" % (s,))
        return mpq(int(num), den)
    return mpq(int(s))


def assert_residual_identity(exp):
    """Orders R^1..R^N of the residual of exp vanish symbolically and the
    remaining orders R^{N+1}..R^{2N+1} equal its tail coefficients."""
    N, u = exp.N, exp.coeffs

    def bilinear_sum(j, ls):
        total = None
        for l in ls:
            p = bilinear_P(u[l], u[j - 1 - l])
            total = p if total is None else total + p
        return total

    # order zero solves the free heat equation
    assert (u[0].derivative() - u[0].laplacian()).is_zero()
    # per-order interior identity: du_j/dt - Lap u_j = sum_l P(u_l, u_{j-1-l})
    for j in range(1, N + 1):
        lhs = u[j].derivative() - u[j].laplacian()
        assert (lhs - bilinear_sum(j, range(j))).is_zero(), j
    # tails carry exactly the orders above N
    tails = residual_tail(exp)
    for idx, j in enumerate(range(N + 1, 2 * N + 2)):
        assert tails[idx] == -bilinear_sum(j, range(j - N - 1, N + 1)), j


def _as_mpq(R):
    return mpq(R) if not isinstance(R, float) else mpq(*R.as_integer_ratio())


def sobolev_norm(v, order, t=0, precision=DEFAULT_EVAL_PRECISION):
    """Numeric Sobolev norm ||v(t)||_order, including the (2 pi)^{3/2} factor."""
    poly = norm_sq_poly(v, order)
    with mpmath.workprec(precision):
        val = poly.evaluate(t, precision).real
        if val < 0:
            # exact algebra guarantees nonnegativity; numeric eval can only
            # undershoot by rounding
            val = mpmath.mpf(0)
        return mpmath.sqrt((2 * mpmath.pi) ** 3 * val)


def growth_rough(exp, R, m, t, precision=DEFAULT_EVAL_PRECISION):
    """sum_{j=0}^{N} R^j ||u_j(t)||_m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    with mpmath.workprec(precision):
        Rf = mpmath.mpf(R)
        total = mpmath.mpf(0)
        for j, u in enumerate(exp.coeffs):
            total += Rf**j * sobolev_norm(u, m, t, precision)
        return total


def growth_intermediate(exp, R, m, M, t, precision=DEFAULT_EVAL_PRECISION):
    """||sum_{j<=M} R^j u_j(t)||_m + sum_{j>M} R^j ||u_j(t)||_m."""
    if not 0 <= M <= exp.N:
        raise ValueError("need 0 <= M <= N")
    Rq = _as_mpq(R)
    head = None
    power = mpq(1)
    for j in range(M + 1):
        term = exp.coeffs[j].scale_rational(power)
        head = term if head is None else head + term
        power = power * Rq
    with mpmath.workprec(precision):
        Rf = mpmath.mpf(R)
        total = sobolev_norm(head, m, t, precision)
        for j in range(M + 1, exp.N + 1):
            total += Rf**j * sobolev_norm(exp.coeffs[j], m, t, precision)
        return total


def error_rough(exp, R, m, t, constants, precision=DEFAULT_EVAL_PRECISION):
    """K_m sum_{j=N+1}^{2N+1} R^j sum_l ||u_l(t)||_m ||u_{j-l-1}(t)||_{m+1}."""
    K = constants.K_of(m)
    N = exp.N
    with mpmath.workprec(precision):
        Rf = mpmath.mpf(R)
        norms_m = [sobolev_norm(u, m, t, precision) for u in exp.coeffs]
        norms_m1 = [sobolev_norm(u, m + 1, t, precision) for u in exp.coeffs]
        total = mpmath.mpf(0)
        for j in range(N + 1, 2 * N + 2):
            inner = mpmath.mpf(0)
            for l in range(j - N - 1, N + 1):
                inner += norms_m[l] * norms_m1[j - l - 1]
            total += Rf**j * inner
        return mpmath.mpf(K) * total


def error_tame(exp, R, p, n, t, K, precision=DEFAULT_EVAL_PRECISION):
    """(1/2) K sum_j R^j sum_l (||u_l||_p ||u_{j-l-1}||_{n+1}
    + ||u_l||_n ||u_{j-l-1}||_{p+1}), for the two-order constant K = K_{p,n}."""
    N = exp.N
    with mpmath.workprec(precision):
        Rf = mpmath.mpf(R)
        norms = {
            m: [sobolev_norm(u, m, t, precision) for u in exp.coeffs]
            for m in {p, n, p + 1, n + 1}
        }
        total = mpmath.mpf(0)
        for j in range(N + 1, 2 * N + 2):
            inner = mpmath.mpf(0)
            for l in range(j - N - 1, N + 1):
                r = j - l - 1
                inner += norms[p][l] * norms[n + 1][r] + norms[n][l] * norms[p + 1][r]
            total += Rf**j * inner
        return mpmath.mpf(K) / 2 * total


def error_tautological(exp, R, m, times, precision=DEFAULT_EVAL_PRECISION):
    """Exact m-norm of the residual sum_{j=N+1}^{2N+1} R^j tail_j at each
    time in times; the residual and its norm polynomial are built once."""
    tails = residual_tail(exp)
    Rq = _as_mpq(R)
    power = Rq ** (exp.N + 1)
    res = None
    for tail in tails:
        term = tail.scale_rational(power)
        res = term if res is None else res + term
        power = power * Rq
    poly = norm_sq_poly(res, m)
    with mpmath.workprec(precision):
        vol = (2 * mpmath.pi) ** 3
        return [
            mpmath.sqrt(vol * max(poly.evaluate(t, precision).real, mpmath.mpf(0)))
            for t in times
        ]


# -- per-mode grid sampling ------------------------------------------------------


def _compile_vec(vec):
    """Pre-convert a TimePoly 3-vector to mpf term lists for fast grid reuse."""
    out = []
    for p in vec:
        terms = []
        for (a, b), c in p.terms.items():
            re = mpmath.mpf(c.re.numerator) / mpmath.mpf(c.re.denominator)
            im = mpmath.mpf(c.im.numerator) / mpmath.mpf(c.im.denominator)
            terms.append((a, b, re, im))
        out.append(terms)
    return out


def _eval_compiled(compiled, tpow, xpow):
    vals = []
    for terms in compiled:
        re = mpmath.mpf(0)
        im = mpmath.mpf(0)
        for a, b, cre, cim in terms:
            w = tpow[a] * xpow[b]
            re += cre * w
            im += cim * w
        vals.append((re, im))
    return vals


def _power_cache(base, exponents):
    cache = {}
    for e in exponents:
        if e not in cache:
            cache[e] = base**e
    return cache


def sample_gram_tables(fields, orders, grid, precision):
    """Cross Gram tables <f_i(t), f_j(t)>_m on the grid, full lattice,
    without the (2 pi)^3 volume factor.

    Returns dict[(i, j, m)] -> list of mpf over the grid, for i <= j.  Every
    canonical mode of the support is evaluated.
    """
    with mpmath.workprec(precision):
        support = sorted(set().union(*(f.coeffs for f in fields)))

        nf = len(fields)
        pairs = [(i, j) for i in range(nf) for j in range(i, nf)]
        tables = {(i, j, m): [mpmath.mpf(0)] * len(grid) for i, j in pairs for m in orders}

        exps_a = set()
        exps_b = set()
        compiled = []
        for k in support:
            per_field = []
            for f in fields:
                vec = f.coeffs.get(k)
                if vec is None:
                    per_field.append(None)
                    continue
                cv = _compile_vec(vec)
                for terms in cv:
                    for a, b, _, _ in terms:
                        exps_a.add(a)
                        exps_b.add(b)
                per_field.append(cv)
            compiled.append(per_field)

        for ig, t in enumerate(grid):
            tt = mpmath.mpf(t)
            x = mpmath.e ** (-tt)
            tpow = _power_cache(tt, exps_a)
            xpow = _power_cache(x, exps_b)
            for k, per_field in zip(support, compiled):
                ksq = wave_norm_sq(k)
                weights = {m: mpmath.mpf(ksq) ** m for m in orders}
                vals = [
                    _eval_compiled(cv, tpow, xpow) if cv is not None else None
                    for cv in per_field
                ]
                for i, j in pairs:
                    vi, vj = vals[i], vals[j]
                    if vi is None or vj is None:
                        continue
                    dot = mpmath.mpf(0)
                    for (ar, ai), (br, bi) in zip(vi, vj):
                        dot += ar * br + ai * bi
                    dot += dot  # conj pair at -k doubles the real part
                    for m in orders:
                        tables[(i, j, m)][ig] += weights[m] * dot
        return tables


# -- full-width batch sampling ---------------------------------------------------


def _full_round(q, prec):
    return from_rational(q.numerator, q.denominator, prec, round_nearest)


def _full_basis(keys, t, prec):
    """B_{a,b}(t) = t^a e^{-bt} for every key, each rounded to prec bits, as
    integers over one shared power of two: returns (mantissas, exponent)."""
    wp = prec + POWER_GUARD
    tt = from_float(t)

    def powers(base, exps):
        out = {}
        gaps = {}
        cur, prev = fone, 0
        for e in sorted(exps):
            g = e - prev
            step = gaps.get(g)
            if step is None:
                step = gaps[g] = mpf_pow_int(base, g, wp, round_nearest)
            cur = out[e] = mpf_mul(cur, step, wp, round_nearest)
            prev = e
        return out

    tpow = powers(tt, {a for a, _ in keys})
    xpow = powers(mpf_exp(mpf_neg(tt), wp, round_nearest), {b for _, b in keys})
    rounded = [mpf_mul(tpow[a], xpow[b], prec, round_nearest) for a, b in keys]
    low = min((e for _, _, e, _ in rounded), default=0)
    return [man << (e - low) for _, man, e, _ in rounded], low


def _full_coefficients(poly, prec, slots):
    rounded = []
    for c in poly.terms.values():
        if c.im:
            raise ValueError("sample_real_polys needs real coefficients")
        rounded.append(_full_round(c.re, prec))
    low = min((e for _, _, e, _ in rounded), default=0)
    pos, neg = [], []
    for slot, (sign, man, e, _) in zip(slots, rounded):
        (neg if sign else pos).append((slot, man << (e - low)))
    return pos, neg, low


def _full_dot(coeffs, basis, prec):
    pos, neg, cexp = coeffs
    mans, bexp = basis
    p = sum(c * mans[slot] for slot, c in pos)
    n = sum(c * mans[slot] for slot, c in neg)
    value = from_man_exp(p - n, cexp + bexp, prec, round_nearest)
    if p == n:
        return value, prec if pos or neg else 0
    total = from_man_exp(p + n, cexp + bexp, prec, round_nearest)
    return value, max(total[2] + total[3] - value[2] - value[3], 0)


def _full_reevaluate(poly, t, prec, lost, keep):
    keys = list(poly.terms)
    for _ in range(GUARD_ROUNDS):
        prec += lost
        coeffs = _full_coefficients(poly, prec, range(len(keys)))
        value, lost = _full_dot(coeffs, _full_basis(keys, t, prec), prec)
        if prec - lost >= keep:
            break
    return value, prec, lost


def sample_real_polys_full(polys, grid, precision=DEFAULT_EVAL_PRECISION):
    """reyex.timepoly.sample_real_polys with every value at t > 0 summed
    exactly over the full width of the aligned basis, then rounded once.
    Returns (values, report) with the report's max_bits_lost, reevaluated
    and max_precision."""
    if precision < 53:
        raise ValueError("precision must be at least 53 bits")
    keep = min(GUARD_BITS, precision)
    keys = sorted({key for p in polys for key in p.terms})
    slot = {key: i for i, key in enumerate(keys)}
    coeffs = [_full_coefficients(p, precision, [slot[key] for key in p.terms]) for p in polys]
    max_lost = reevaluated = 0
    max_prec = precision
    make_mpf = mpmath.mp.make_mpf
    values = [[] for _ in polys]
    for t in grid:
        if t == 0:
            for p, out in zip(polys, values):
                at_zero = sum((c.re for (a, _), c in p.terms.items() if a == 0), mpq(0))
                out.append(make_mpf(_full_round(at_zero, precision)))
            continue
        basis = _full_basis(keys, t, precision)
        for p, c, out in zip(polys, coeffs, values):
            value, lost = _full_dot(c, basis, precision)
            max_lost = max(max_lost, lost)
            if precision - lost < keep:
                value, prec, lost = _full_reevaluate(p, t, precision, lost, keep)
                reevaluated += 1
                max_lost = max(max_lost, lost)
                max_prec = max(max_prec, prec)
            out.append(make_mpf(value))
    report = {"max_bits_lost": max_lost, "reevaluated": reevaluated, "max_precision": max_prec}
    return values, report


# -- the cache codec, one coefficient at a time ---------------------------------


def to_records_reference(self):
    """List of 'a b re_num/re_den im_num/im_den' records, sorted."""
    recs = []
    for (a, b) in sorted(self.terms):
        re_s, im_s = self.terms[(a, b)].to_strings()
        recs.append("%d %d %s %s" % (a, b, re_s, im_s))
    return recs


def from_records_reference(records):
    terms = {}
    for rec in records:
        parts = rec.split()
        if len(parts) != 4:
            raise ValueError("malformed TimePoly record: %r" % (rec,))
        a, b = int(parts[0]), int(parts[1])
        if (a, b) in terms:
            raise ValueError("duplicate exponent pair in records: %s" % ((a, b),))
        terms[(a, b)] = GaussianRational.from_strings(parts[2], parts[3])
    return TimePoly(terms)


def validate_reference(self):
    for k in self.coeffs:
        if k == (0, 0, 0):
            raise ValueError("zero-mean violation: coefficient at k = 0")
        if not is_canonical(k):
            raise ValueError("non-canonical storage key %s" % (k,))
    _, rows = _numerators(self.coeffs.values())
    for k, row in zip(self.coeffs, rows):
        if _dot(row, k):
            raise ValueError("incompressibility violation at k = %s" % (k,))
    return self


def gram_at_zero(v, w, order):
    """Exact <v(0), w(0)>_order without the (2 pi)^3 factor, mode by mode over
    the whole support: B_{a,b}(0) = [a == 0]."""
    total = mpq(0)
    for k in v.coeffs.keys() & w.coeffs.keys():
        dot = mpq(0)
        for p, q in zip(v.coeffs[k], w.coeffs[k]):
            pv = [c for (a, _), c in p.terms.items() if a == 0]
            qv = [c for (a, _), c in q.terms.items() if a == 0]
            re_p, im_p = sum((c.re for c in pv), mpq(0)), sum((c.im for c in pv), mpq(0))
            re_q, im_q = sum((c.re for c in qv), mpq(0)), sum((c.im for c in qv), mpq(0))
            dot += re_p * re_q + im_p * im_q
        ksq = wave_norm_sq(k)
        weight = mpq(ksq**order) if order >= 0 else mpq(1, ksq ** (-order))
        total += 2 * weight * dot
    return total


# -- per-R assembly from sampled tables, with mpf operators ----------------------


def _sqrt_clamped(x):
    return mpmath.sqrt(x) if x > 0 else mpmath.mpf(0)


def assembly_growth(tables, R, m, M):
    """||sum_{j<=M} R^j u_j||_m + sum_{j>M} R^j ||u_j||_m over the grid."""
    coeff = tables.coeff_tables()
    N = tables.exp.N
    with mpmath.workprec(tables.precision):
        Rf = mpmath.mpf(R)
        vol = (2 * mpmath.pi) ** 3
        Rpow = [Rf**j for j in range(N + 1)]
        out = []
        for ig in range(len(tables.grid)):
            head = mpmath.mpf(0)
            for i in range(M + 1):
                for j in range(i, M + 1):
                    term = Rpow[i] * Rpow[j] * coeff[(i, j, m)][ig]
                    head += term if i == j else 2 * term
            total = _sqrt_clamped(vol * head)
            for j in range(M + 1, N + 1):
                total += Rpow[j] * _sqrt_clamped(vol * coeff[(j, j, m)][ig])
            out.append(total)
        return out


def assembly_error_tautological(tables, R):
    """||sum_i R^{N+1+i} tail_i||_n over the grid."""
    tail = tables.tail_tables()
    N = tables.exp.N
    with mpmath.workprec(tables.precision):
        Rf = mpmath.mpf(R)
        vol = (2 * mpmath.pi) ** 3
        Rpow = [Rf ** (N + 1 + i) for i in range(N + 1)]
        out = []
        for ig in range(len(tables.grid)):
            acc = mpmath.mpf(0)
            for i in range(N + 1):
                for j in range(i, N + 1):
                    term = Rpow[i] * Rpow[j] * tail[(i, j, tables.n)][ig]
                    acc += term if i == j else 2 * term
            out.append(_sqrt_clamped(vol * acc))
        return out


def assembly_error_rough(tables, R, constants):
    """K_n sum_{j=N+1}^{2N+1} R^j sum_l ||u_l||_n ||u_{j-l-1}||_{n+1} over the grid."""
    coeff = tables.coeff_tables()
    N, n = tables.exp.N, tables.n
    with mpmath.workprec(tables.precision):
        Rf = mpmath.mpf(R)
        vol = (2 * mpmath.pi) ** 3
        Kf = mpmath.mpf(constants.K_of(n))
        out = []
        for ig in range(len(tables.grid)):
            norms_n = [_sqrt_clamped(vol * coeff[(j, j, n)][ig]) for j in range(N + 1)]
            norms_n1 = [_sqrt_clamped(vol * coeff[(j, j, n + 1)][ig]) for j in range(N + 1)]
            total = mpmath.mpf(0)
            for j in range(N + 1, 2 * N + 2):
                inner = mpmath.mpf(0)
                for l in range(j - N - 1, N + 1):
                    inner += norms_n[l] * norms_n1[j - l - 1]
                total += Rf**j * inner
            out.append(Kf * total)
        return out


# -- the bilinear term and the Gram sums by TimePoly products --------------------


def _dot_poly(vec, k):
    out = TP_ZERO
    for ki, vi in zip(k, vec):
        if ki:
            out = out + vi.scale_rational(mpq(ki))
    return out


def _nonzero(vec):
    return not (vec[0].is_zero() and vec[1].is_zero() and vec[2].is_zero())


def project_products(k, acc):
    """-i and the Leray projection of a TimePoly 3-vector."""
    return leray_project(k, tuple(p.mul_minus_i() for p in acc))


def convolution_products(fv, fw, k):
    """Raw sum_h [v_h.(k-h)] w_{k-h} at k as TimePoly sums; fv, fw are
    full_coeffs maps.  None when no pair contributes."""
    acc0 = acc1 = acc2 = TP_ZERO
    hit = False
    for h, vh in fv.items():
        h2 = (k[0] - h[0], k[1] - h[1], k[2] - h[2])
        wh2 = fw.get(h2)
        if wh2 is None:
            continue
        s = _dot_poly(vh, h2)
        if s.is_zero():
            continue
        hit = True
        acc0 = acc0 + s * wh2[0]
        acc1 = acc1 + s * wh2[1]
        acc2 = acc2 + s * wh2[2]
    return (acc0, acc1, acc2) if hit else None


def bilinear_P_products(v, w, targets=None):
    """P(v, w) by TimePoly products: a pair loop over the two supports, or
    one convolution per target."""
    fv = full_coeffs(v)
    fw = full_coeffs(w)
    out = {}
    if targets is None:
        acc = {}
        for h, vh in fv.items():
            for h2, wh2 in fw.items():
                k = (h[0] + h2[0], h[1] + h2[1], h[2] + h2[2])
                if not is_canonical(k):
                    continue
                s = _dot_poly(vh, h2)
                if s.is_zero():
                    continue
                prev = acc.get(k)
                if prev is None:
                    acc[k] = [s * wh2[0], s * wh2[1], s * wh2[2]]
                else:
                    prev[0] = prev[0] + s * wh2[0]
                    prev[1] = prev[1] + s * wh2[1]
                    prev[2] = prev[2] + s * wh2[2]
        raws = acc.items()
    else:
        raws = []
        for k in {canonical_key(kt) for kt in targets} - {(0, 0, 0)}:
            raw = convolution_products(fv, fw, k)
            if raw is not None:
                raws.append((k, raw))
    for k, raw in raws:
        proj = project_products(k, raw)
        if _nonzero(proj):
            out[k] = proj
    return TimeField(out, validate=False)


def pruned_sum_products(fields, pairs, k):
    """-i P_k of the sum over (l, m) in pairs of the raw convolution of
    fields l and m at k, as the pruned recursion forms it; None when it
    vanishes."""
    fulls = [full_coeffs(f) for f in fields]
    acc = None
    for l, m in pairs:
        raw = convolution_products(fulls[l], fulls[m], k)
        if raw is not None:
            acc = raw if acc is None else tuple(a + r for a, r in zip(acc, raw))
    if acc is None:
        return None
    vec = project_products(k, acc)
    return vec if _nonzero(vec) else None


def _add_mode_gram(acc, vvec, wvec, weight):
    """Add weight * 2 Re(conj(v_k).w_k) into acc, a map of exponent pairs to
    rationals."""
    weight = 2 * weight
    for p, q in zip(vvec, wvec):
        qterms = q.terms.items()
        for (a1, b1), c in p.terms.items():
            cre = c.re * weight
            cim = c.im * weight
            for (a2, b2), d in qterms:
                if cre and d.re:
                    x = cre * d.re
                    if cim and d.im:
                        x += cim * d.im
                elif cim and d.im:
                    x = cim * d.im
                else:
                    continue
                key = (a1 + a2, b1 + b2)
                prev = acc.get(key)
                acc[key] = x if prev is None else prev + x


def gram_poly_orbits_products(v, w, orders, orbit_classes):
    """The Gram polys of fields.gram_poly_orbits by rational products: mode
    products summed per shell |k|^2, each shell weighted per order."""
    shells = {}
    for rep, size in orbit_classes:
        vvec = v.coeffs.get(rep)
        wvec = w.coeffs.get(rep)
        if vvec is None or wvec is None:
            continue
        _add_mode_gram(shells.setdefault(wave_norm_sq(rep), {}), vvec, wvec, mpq(size))
    out = []
    for order in orders:
        acc = {}
        for ksq, shell in shells.items():
            weight = mpq(ksq**order) if order >= 0 else mpq(1, ksq ** (-order))
            for key, x in shell.items():
                prev = acc.get(key)
                acc[key] = weight * x if prev is None else prev + weight * x
        out.append(TimePoly({key: GaussianRational(x) for key, x in acc.items()}))
    return out


def solve_control_scipy(
    est,
    constants,
    blowup_threshold=DEFAULT_BLOWUP_THRESHOLD,
    rtol=DEFAULT_RTOL,
    atol=DEFAULT_ATOL,
):
    """solve_control with the integration done by scipy's RK45, with its
    terminal event and dense output; the verdict rules are the library's."""
    G = constants.G_of(est.n)
    K = constants.K_of(est.n)
    R, t_max = est.R, est.t_max

    def rhs(t, y):
        r = y[0]
        dn, dn1, eps = est.rates(t)
        return [-r + R * (G * dn + K * dn1) * r + R * G * r * r + eps]

    def blow(t, y):
        return y[0] - blowup_threshold

    blow.terminal = True
    blow.direction = 1

    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        [0.0],
        method="RK45",
        rtol=rtol,
        atol=atol,
        events=blow,
        dense_output=True,
    )
    T_c = float(sol.t_events[0][0]) if sol.status == 1 and len(sol.t_events[0]) else None
    return _trajectory(
        est,
        [float(t) for t in sol.t],
        [float(v) for v in sol.y[0]],
        T_c,
        sol.status == -1,
        lambda t: float(sol.sol(t)[0]),
        {"rhs_evals": sol.nfev},
        blowup_threshold=blowup_threshold,
        rtol=rtol,
        atol=atol,
    )


def solve_higher_order_reference(est_p, traj_n, constants, times=None):
    """solve_higher_order by scipy's DOP853 at rtol 1e-13, run piece by piece
    between the breakpoints: the grid nodes, where the log-PCHIP estimators
    are only C1, R_n's step ends, where its dense output changes quartic,
    and the requested times, where the values are read off."""
    G_p = constants.G_of(est_p.n)
    K_p = constants.K_of(est_p.n)
    G_pn = constants.G_pn_of(est_p.n, traj_n.n)
    R = est_p.R
    if times is None:
        times = [t for t in est_p.grid if t <= traj_n.times[-1]]
    times = list(times)
    top = times[-1]

    def rhs(t, y):
        dp, dp1, eps = est_p.rates(t)
        return [-y[0] + R * (G_p * dp + K_p * dp1 + G_pn * traj_n.value(t)) * y[0] + eps]

    points = sorted({0.0, *times, *(t for t in (*est_p.grid, *traj_n.times) if t < top)})
    at = {0.0: 0.0}
    y = 0.0
    for a, b in zip(points, points[1:]):
        sol = solve_ivp(rhs, (a, b), [y], method="DOP853", rtol=1e-13, atol=1e-20)
        if sol.status != 0:
            raise RuntimeError(sol.message)
        y = float(sol.y[0][-1])
        at[b] = y
    return times, [max(at[t], 0.0) for t in times]
