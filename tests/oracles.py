"""Reference implementations that the tests compare against.

The single-time estimators evaluate norms mode by mode at one time, and
sample_gram_tables samples cross Gram tables by evaluating every mode of the
full support on every grid point.  Both are slow and independent of the
exact Gram route that EstimatorTables takes and of the orbit classes it sums
over.  The assembly_* loops assemble the per-R estimator samples from
sampled tables with mpf operators, the arithmetic EstimatorTables must
reproduce to the bit.  The *_products routines form the bilinear term and
the Gram sums as TimePoly products and sums of rationals, the reference for
the integer kernels of reyex.fields.  assert_residual_identity checks an
expansion and its tails against bilinear_P's pair loop, which shares no
convolution code with the expansion.
"""

import mpmath

from reyex.expansion import residual_tail
from reyex.fields import (
    TimeField,
    bilinear_P,
    canonical_key,
    is_canonical,
    leray_project,
    norm_sq_poly,
    sobolev_norm,
    wave_norm_sq,
)
from reyex.rationals import GaussianRational, mpq
from reyex.timepoly import DEFAULT_EVAL_PRECISION, TP_ZERO, TimePoly


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
    full_coeffs() maps.  None when no pair contributes."""
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
    fv = v.full_coeffs()
    fw = w.full_coeffs()
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
    fulls = [f.full_coeffs() for f in fields]
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
