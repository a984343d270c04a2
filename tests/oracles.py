"""Reference implementations that the estimator tests compare against.

The single-time estimators evaluate norms mode by mode at one time, and
sample_gram_tables samples cross Gram tables by evaluating every mode of the
full support on every grid point.  Both are slow and independent of the
exact Gram route that EstimatorTables takes and of the orbit classes it sums
over.  The assembly_* loops assemble the per-R estimator samples from
sampled tables with mpf operators, the arithmetic EstimatorTables must
reproduce to the bit.
"""

import mpmath

from reyex.expansion import residual_tail
from reyex.fields import norm_sq_poly, sobolev_norm, wave_norm_sq
from reyex.rationals import mpq
from reyex.timepoly import DEFAULT_EVAL_PRECISION


def _as_mpq(R):
    return mpq(R) if not isinstance(R, float) else mpq(*R.as_integer_ratio())


def _norm_at(field, m, t, precision):
    return sobolev_norm(field, m, t, precision)


def growth_rough(exp, R, m, t, precision=DEFAULT_EVAL_PRECISION):
    """sum_{j=0}^{N} R^j ||u_j(t)||_m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    with mpmath.workprec(precision):
        Rf = mpmath.mpf(R)
        total = mpmath.mpf(0)
        for j, u in enumerate(exp.coeffs):
            total += Rf**j * _norm_at(u, m, t, precision)
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
        total = _norm_at(head, m, t, precision)
        for j in range(M + 1, exp.N + 1):
            total += Rf**j * _norm_at(exp.coeffs[j], m, t, precision)
        return total


def error_rough(exp, R, m, t, constants, precision=DEFAULT_EVAL_PRECISION):
    """K_m sum_{j=N+1}^{2N+1} R^j sum_l ||u_l(t)||_m ||u_{j-l-1}(t)||_{m+1}."""
    K = constants.K_of(m)
    N = exp.N
    with mpmath.workprec(precision):
        Rf = mpmath.mpf(R)
        norms_m = [_norm_at(u, m, t, precision) for u in exp.coeffs]
        norms_m1 = [_norm_at(u, m + 1, t, precision) for u in exp.coeffs]
        total = mpmath.mpf(0)
        for j in range(N + 1, 2 * N + 2):
            inner = mpmath.mpf(0)
            for l in range(j - N - 1, N + 1):
                inner += norms_m[l] * norms_m1[j - l - 1]
            total += Rf**j * inner
        return mpmath.mpf(K) * total


def error_tame(exp, R, p, n, t, constants, precision=DEFAULT_EVAL_PRECISION):
    """(1/2) K_pn sum_j R^j sum_l (||u_l||_p ||u_{j-l-1}||_{n+1}
    + ||u_l||_n ||u_{j-l-1}||_{p+1})."""
    K = constants.K_pn_of(p, n)
    N = exp.N
    with mpmath.workprec(precision):
        Rf = mpmath.mpf(R)
        norms = {
            m: [_norm_at(u, m, t, precision) for u in exp.coeffs]
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
