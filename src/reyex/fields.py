"""Divergence-free, zero-mean vector fields on the 3-torus.

A field is a sparse map from wave vector to a 3-vector of TimePoly.  Reality
is enforced structurally: only the canonical representative of each pair
{k, -k} is stored (the one whose first nonzero component is positive) and the
coefficient at -k is materialized as the componentwise conjugate on demand.
"""

from __future__ import annotations

from math import lcm

from .rationals import GaussianRational, _gaussian
from .timepoly import (
    TP_ZERO,
    TimePoly,
    _from_records,
    _to_records,
    _tp,
)

__all__ = [
    "canonical_key",
    "is_canonical",
    "wave_norm_sq",
    "leray_project",
    "TimeField",
    "static_field",
    "IntegerForm",
    "bilinear_P",
    "convolution_coefficient",
    "project_mode",
    "heat_apply",
    "duhamel_mode",
    "gram_numerators",
    "gram_shells",
    "weigh_shells",
    "norm_sq_poly",
]


def is_canonical(k):
    """True if the first nonzero component of k is positive."""
    for x in k:
        if x > 0:
            return True
        if x < 0:
            return False
    return False


def canonical_key(k):
    return k if is_canonical(k) else (-k[0], -k[1], -k[2])


def wave_norm_sq(k):
    return k[0] * k[0] + k[1] * k[1] + k[2] * k[2]


def _neg(k):
    return (-k[0], -k[1], -k[2])


_ZERO3 = (TP_ZERO, TP_ZERO, TP_ZERO)


def leray_project(k, vec):
    """Project a GaussianRational coefficient onto the orthogonal complement
    of k: vec - (k.vec/|k|^2) k, exact."""
    if k == (0, 0, 0):
        raise ValueError("Leray projection is undefined at the zero mode")
    dot = GaussianRational(0)
    for ki, vi in zip(k, vec):
        if ki:
            dot = dot + vi.mul_ratio(ki, 1)
    if not dot:
        return tuple(vec)
    ksq = wave_norm_sq(k)
    return tuple(vi - dot.mul_ratio(ki, ksq) for ki, vi in zip(k, vec))


class TimeField:
    """Sparse Fourier field: canonical wave vector -> 3-vector of TimePoly."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None, validate=True):
        self.coeffs = {}
        if coeffs:
            for k, vec in coeffs.items():
                if vec[0].is_zero() and vec[1].is_zero() and vec[2].is_zero():
                    continue
                self.coeffs[k] = (vec[0], vec[1], vec[2])
        if validate:
            self.validate()

    @classmethod
    def from_full(cls, full):
        """Build from a map that may carry both k and -k entries.

        Non-canonical entries are folded to their canonical partner by
        conjugation; if both signs are present they must agree exactly.
        """
        coeffs = {}
        for k, vec in full.items():
            if k == (0, 0, 0):
                raise ValueError("zero-mean violation: coefficient at k = 0")
            if is_canonical(k):
                kk, folded = k, tuple(vec)
            else:
                kk, folded = _neg(k), tuple(p.conj() for p in vec)
            prev = coeffs.get(kk)
            if prev is not None and prev != folded:
                raise ValueError("reality violation at k = %s" % (kk,))
            coeffs[kk] = folded
        return cls(coeffs)

    # -- invariants -------------------------------------------------------

    def validate(self):
        """Check zero mean, canonical keys and exact incompressibility: k.v_k
        vanishes at every exponent pair, summed in integer numerators over
        the lcm of the field's denominators (_dot over the rows of
        _numerators, which refuses an exponent too large to pack)."""
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

    # -- basic structure ---------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, TimeField):
            return NotImplemented
        return self.coeffs == other.coeffs

    def num_modes(self):
        """Nonzero Fourier coefficients over the full lattice (both signs)."""
        return 2 * len(self.coeffs)

    def coeff(self, k):
        """Coefficient at any wave vector, honoring the reality convention."""
        if is_canonical(k):
            return self.coeffs.get(k, _ZERO3)
        vec = self.coeffs.get(_neg(k))
        if vec is None:
            return _ZERO3
        return (vec[0].conj(), vec[1].conj(), vec[2].conj())

    # -- linear operations ---------------------------------------------------

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, vec in other.coeffs.items():
            prev = out.get(k)
            if prev is None:
                out[k] = vec
            else:
                s = (prev[0] + vec[0], prev[1] + vec[1], prev[2] + vec[2])
                if s[0].is_zero() and s[1].is_zero() and s[2].is_zero():
                    del out[k]
                else:
                    out[k] = s
        return TimeField(out, validate=False)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, vec in other.coeffs.items():
            prev = out.get(k)
            if prev is None:
                out[k] = (-vec[0], -vec[1], -vec[2])
            else:
                s = (prev[0] - vec[0], prev[1] - vec[1], prev[2] - vec[2])
                if s[0].is_zero() and s[1].is_zero() and s[2].is_zero():
                    del out[k]
                else:
                    out[k] = s
        return TimeField(out, validate=False)

    def __neg__(self):
        return TimeField(
            {k: (-v[0], -v[1], -v[2]) for k, v in self.coeffs.items()}, validate=False
        )

    def scale_rational(self, q):
        if not q:
            return TimeField({}, validate=False)
        return TimeField(
            {
                k: (v[0].scale_rational(q), v[1].scale_rational(q), v[2].scale_rational(q))
                for k, v in self.coeffs.items()
            },
            validate=False,
        )

    def map_coeffs(self, fn):
        """Apply fn(k, vec) -> vec to every stored coefficient."""
        return TimeField({k: fn(k, vec) for k, vec in self.coeffs.items()}, validate=False)

    def derivative(self):
        return self.map_coeffs(
            lambda k, v: (v[0].derivative(), v[1].derivative(), v[2].derivative())
        )

    def laplacian(self):
        def fn(k, v):
            q = -wave_norm_sq(k)
            return (v[0].scale_rational(q), v[1].scale_rational(q), v[2].scale_rational(q))

        return self.map_coeffs(fn)

    # -- serialization ----------------------------------------------------------

    def to_payload(self, name="", j=None):
        """The field as records (TimePoly.to_records), mode by mode in sorted
        order; each distinct coefficient is formatted once."""
        memo = {}
        modes = []
        for k in sorted(self.coeffs):
            vec = self.coeffs[k]
            modes.append({"k": list(k), "components": [_to_records(p, memo) for p in vec]})
        payload = {"format": "reyex-field/1", "name": name, "modes": modes}
        if j is not None:
            payload["j"] = j
        return payload

    @classmethod
    def from_payload(cls, payload):
        """The field of a payload as to_payload writes it, validated.  Each
        distinct coefficient text is parsed once, and its polys share one
        GaussianRational and one key tuple per exponent pair
        (TimePoly.from_records).  A payload of any other
        shape, or one that lists a wave vector twice, raises ValueError."""
        try:
            if payload.get("format") != "reyex-field/1":
                raise ValueError("unrecognized field payload format: %r" % (payload.get("format"),))
            memo = {}
            coeffs = {}
            for mode in payload["modes"]:
                k = tuple(mode["k"])
                comps = mode["components"]
                if len(k) != 3 or not all(type(ki) is int for ki in k) or len(comps) != 3:
                    raise ValueError("malformed mode entry for k = %s" % (k,))
                if k in coeffs:
                    raise ValueError("wave vector %s listed twice" % (k,))
                coeffs[k] = tuple(_from_records(recs, memo) for recs in comps)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError("malformed field payload: %s: %s" % (type(exc).__name__, exc)) from None
        field = cls(coeffs, validate=False)
        field.validate()
        return field


def static_field(modes):
    """Field with constant-in-time coefficients.

    modes maps wave vectors (either sign) to GaussianRational 3-vectors.
    """
    full = {}
    for k, vec in modes.items():
        full[k] = tuple(TimePoly({(0, 0): c}) for c in vec)
    return TimeField.from_full(full)


# -- integer numerators over a common denominator ---------------------------------
#
# The quadratic kernels (the bilinear term and the Gram sums) run on integers:
# every coefficient of the fields they read is written as an integer numerator
# over one denominator shared by the field, so a product or a sum inside a
# kernel loop is an int operation and each output part becomes one rational,
# normalized once.  An exponent pair (a, b) is packed into the int
# a << _KEY_SHIFT | b, so adding packed keys adds the exponents.

_KEY_SHIFT = 32
_KEY_MASK = (1 << _KEY_SHIFT) - 1
# b stays below this, so the sum of two packed keys cannot carry into a
_MAX_EXP = 1 << (_KEY_SHIFT - 1)


def _unpack(key):
    return key >> _KEY_SHIFT, key & _KEY_MASK


def _multipliers(coeffs):
    """(den, mult): den the lcm of the denominators of the GaussianRationals
    in coeffs, and mult maps each of those denominators d to den // d."""
    dens = {c.d for c in coeffs}
    den = lcm(*dens)
    return den, {d: den // d for d in dens}


def _numerators(vecs):
    """The 3-vectors of TimePoly in vecs as integer numerators over one
    common denominator: returns (den, rows), den the lcm of every coefficient
    denominator and rows[i] the i-th vector as three tuples of
    (packed key, re, im).  Each distinct poly object is formed once, and
    every slot holding it shares its tuple."""
    vecs = list(vecs)
    polys = {id(p): p for vec in vecs for p in vec}
    den, mult = _multipliers(c for p in polys.values() for c in p.terms.values())
    comps = {}
    for i, p in polys.items():
        comp = []
        for (a, b), c in p.terms.items():
            if b >= _MAX_EXP:
                raise ValueError("exponent b = %d is too large to pack" % (b,))
            m = mult[c.d]
            comp.append((a << _KEY_SHIFT | b, c.a * m, c.b * m))
        comps[i] = tuple(comp)
    return den, [(comps[id(p)], comps[id(q)], comps[id(r)]) for p, q, r in vecs]


class IntegerForm:
    """A field over the full lattice as integer numerators over one common
    denominator: modes maps every wave vector of both signs to three tuples
    of (packed key, re, im), with the -k entries conjugated; den is the lcm
    of the field's coefficient denominators.  The input of the bilinear
    kernels."""

    __slots__ = ("den", "modes")

    def __init__(self, field):
        self.den, rows = _numerators(field.coeffs.values())
        modes = {}
        for k, row in zip(field.coeffs, rows):
            modes[k] = row
            modes[_neg(k)] = tuple(tuple((key, re, -im) for key, re, im in comp) for comp in row)
        self.modes = modes


def _dot(row, k, f=1):
    """f (k . v) for a row of numerators and an int f != 0, as a list of
    (packed key, re, im) with the vanishing terms dropped."""
    acc = {}
    for ki, comp in zip(k, row):
        if not ki:
            continue
        ki *= f
        for key, re, im in comp:
            prev = acc.get(key)
            if prev is None:
                acc[key] = [ki * re, ki * im]
            else:
                prev[0] += ki * re
                prev[1] += ki * im
    return [(key, re, im) for key, (re, im) in acc.items() if re or im]


def _add_products(acc, s, wrow):
    """Add the products s * w_i into the accumulators acc[i], maps of packed
    key to [re, im]."""
    for out, comp in zip(acc, wrow):
        for k1, sre, sim in s:
            for k2, wre, wim in comp:
                key = k1 + k2
                re = sre * wre - sim * wim
                im = sre * wim + sim * wre
                prev = out.get(key)
                if prev is None:
                    out[key] = [re, im]
                else:
                    prev[0] += re
                    prev[1] += im


# -- the Navier-Stokes bilinear map ---------------------------------------------

_ZERO_PAIR = (0, 0)


def project_mode(k, raw):
    """Apply -i and the Leray projection to an accumulated convolution sum.

    raw is (den, acc) as convolution_coefficient returns it, den nonzero of
    either sign.  The projection is formed in integers as |k|^2 v - k (k.v)
    over den |k|^2, and each nonzero term becomes one normalized
    GaussianRational."""
    den, acc = raw
    k0, k1, k2 = k
    ksq = k0 * k0 + k1 * k1 + k2 * k2
    den *= ksq
    # the sign of den goes into the weights of the numerators, so den > 0
    s = -1 if den < 0 else 1
    den *= s
    w = s * ksq
    w0, w1, w2 = s * k0, s * k1, s * k2
    a0, a1, a2 = acc
    out = ({}, {}, {})
    for key in a0.keys() | a1.keys() | a2.keys():
        r0, i0 = a0.get(key, _ZERO_PAIR)
        r1, i1 = a1.get(key, _ZERO_PAIR)
        r2, i2 = a2.get(key, _ZERO_PAIR)
        dre = k0 * r0 + k1 * r1 + k2 * r2
        dim = k0 * i0 + k1 * i1 + k2 * i2
        ab = _unpack(key)
        for terms, wi, re, im in ((out[0], w0, r0, i0), (out[1], w1, r1, i1), (out[2], w2, r2, i2)):
            re = w * re - wi * dre
            im = w * im - wi * dim
            if re or im:
                # -i (re + i im) = im - i re
                terms[ab] = _gaussian(im, -re, den)
    return (_tp(out[0]), _tp(out[1]), _tp(out[2]))


def convolution_coefficient(pairs, k):
    """Raw sum over the pairs (fv, fw) of sum_h [v_h.(k-h)] w_{k-h} at a
    single wave vector k.

    pairs lists the IntegerForm pairs of the bilinear terms summed at k.  The
    -i factor and the Leray projection are NOT applied here.  Returns (den,
    acc): acc holds per component a map of packed exponent key to the
    integer [re, im] numerators over den, the lcm of fv.den * fw.den over
    the pairs; each pair's k.v row is scaled up to den before its products
    are added.  Returns None when no pair of modes contributes.
    """
    den = lcm(*(fv.den * fw.den for fv, fw in pairs))
    acc = ({}, {}, {})
    hit = False
    for fv, fw in pairs:
        f = den // (fv.den * fw.den)
        vmodes, wmodes = fv.modes, fw.modes
        if len(vmodes) <= len(wmodes):
            for h, vh in vmodes.items():
                h2 = (k[0] - h[0], k[1] - h[1], k[2] - h[2])
                wh2 = wmodes.get(h2)
                if wh2 is None:
                    continue
                s = _dot(vh, h2, f)
                if s:
                    hit = True
                    _add_products(acc, s, wh2)
        else:
            for h2, wh2 in wmodes.items():
                h = (k[0] - h2[0], k[1] - h2[1], k[2] - h2[2])
                vh = vmodes.get(h)
                if vh is None:
                    continue
                s = _dot(vh, h2, f)
                if s:
                    hit = True
                    _add_products(acc, s, wh2)
    if not hit:
        return None
    return den, acc


def bilinear_P(v, w):
    """P(v, w)_k = -i P_k sum_h [v_h . (k-h)] w_{k-h}, exact, over the full
    (canonical) output support, by a pair loop over the two supports.

    The expansion computes the same sums per target wave vector
    (convolution_coefficient, project_mode); this loop shares no convolution
    code with it, which makes it the reference for the residual identity.
    """
    fv = IntegerForm(v)
    fw = fv if w is v else IntegerForm(w)
    if not fv.modes or not fw.modes:
        return TimeField({}, validate=False)

    den = fv.den * fw.den
    accs = {}
    for h, vh in fv.modes.items():
        for h2, wh2 in fw.modes.items():
            k = (h[0] + h2[0], h[1] + h2[1], h[2] + h2[2])
            if not is_canonical(k):
                # skips k = 0 (mean mode dropped) and the redundant half
                continue
            s = _dot(vh, h2)
            if not s:
                continue
            acc = accs.get(k)
            if acc is None:
                acc = accs[k] = ({}, {}, {})
            _add_products(acc, s, wh2)
    out = {}
    for k, acc in accs.items():
        proj = project_mode(k, (den, acc))
        if not (proj[0].is_zero() and proj[1].is_zero() and proj[2].is_zero()):
            out[k] = proj
    return TimeField(out, validate=False)


# -- heat semigroup and Duhamel integral -------------------------------------------


def heat_apply(v):
    """e^{t Delta} v: multiply the coefficient at k by B_{0,|k|^2}."""

    def fn(k, vec):
        ksq = wave_norm_sq(k)
        heat = TimePoly({(0, ksq): GaussianRational(1)})
        return (vec[0] * heat, vec[1] * heat, vec[2] * heat)

    return v.map_coeffs(fn)


def duhamel_mode(k, vec):
    """The Duhamel integral of the coefficient vec at wave vector k:
    termwise heat-kernel convolution with e^{-|k|^2 t}."""
    ksq = wave_norm_sq(k)
    return (vec[0].heat_convolve(ksq), vec[1].heat_convolve(ksq), vec[2].heat_convolve(ksq))


# -- Sobolev inner products ----------------------------------------------------------


def gram_numerators(field, reps):
    """(den, rows): the coefficients of field at those of reps it holds as
    integer numerators over one denominator (_numerators), rows mapping each
    such rep to its row.  Formed once per field, they serve every Gram the
    field enters."""
    held = [rep for rep in reps if rep in field.coeffs]
    den, rows = _numerators(field.coeffs[rep] for rep in held)
    return den, dict(zip(held, rows))


def gram_shells(vrows, wrows, classes):
    """The shell sums of a Gram over orbit classes: dict |k|^2 -> dict packed
    exponent key -> integer, over vden * wden (the denominators of the rows,
    gram_numerators).

    classes lists (representative, weight) pairs covering the support, one
    representative per orbit class.  The weight is the caller's sum of the
    signs of the members' terms relative to the representative's: the class
    size for equivariant fields, the sum of sigma^(i+j) for expansion fields
    u_i, u_j spread with pseudo-symmetries of sign sigma.  A representative
    missing from either rows contributes nothing.
    The canonical pair {k, -k} contributes twice the real part of
    conj(v_k).w_k, so only Re(conj(c) d) = Re c Re d + Im c Im d is formed
    here, and the factor 2 where the sums are weighed.  The orders differ
    only in the |k|^{2 order} weight, so the mode products are summed once
    per shell |k|^2.  Where a representative's two rows are one object, as
    in a field's Gram with itself, each unordered pair of its terms is
    multiplied once.  Shell sums over disjoint lists of classes add up to
    those over their union."""
    shells = {}
    for rep, wt in classes:
        vrow = vrows.get(rep)
        wrow = wrows.get(rep)
        if vrow is None or wrow is None:
            continue
        shell = shells.setdefault(wave_norm_sq(rep), {})
        if not wt:
            continue
        for vcomp, wcomp in zip(vrow, wrow):
            for a, (k1, cre, cim) in enumerate(vcomp):
                cre *= wt
                cim *= wt
                if vrow is wrow:
                    # Re(conj(c_a) c_b) = Re(conj(c_b) c_a), at one key: each
                    # unordered pair of terms once, twice where a != b
                    key = k1 + k1
                    shell[key] = shell.get(key, 0) + cre * wcomp[a][1] + cim * wcomp[a][2]
                    cre *= 2
                    cim *= 2
                    terms = wcomp[a + 1 :]
                else:
                    terms = wcomp
                for k2, dre, dim in terms:
                    x = cre * dre + cim * dim
                    if x:
                        key = k1 + k2
                        shell[key] = shell.get(key, 0) + x
    return shells


def weigh_shells(shells, den, orders):
    """The Gram poly of shell sums over den (gram_shells) at each order:
    sum over shells of 2 |k|^{2 order} times the shell's sums."""
    out = []
    for order in orders:
        # |k|^{2 order} = weights[ksq] / scale, in integers for order < 0 too
        if order >= 0:
            scale = 1
            weights = {ksq: ksq**order for ksq in shells}
        else:
            scale = lcm(*(ksq ** (-order) for ksq in shells))
            weights = {ksq: scale // ksq ** (-order) for ksq in shells}
        acc = {}
        for ksq, shell in shells.items():
            weight = weights[ksq]
            for key, x in shell.items():
                acc[key] = acc.get(key, 0) + weight * x
        out.append(
            _tp({_unpack(key): _gaussian(2 * x, 0, den * scale) for key, x in acc.items() if x})
        )
    return out


def norm_sq_poly(v, order):
    """Symbolic |k|-weighted energy: (2 pi)^{-3} ||v(t)||_order^2, the Gram
    of v with itself, every mode its own class.

    The (2 pi)^3 normalization of the Sobolev inner product is irrational and
    is applied only where the Gram is rounded to a number.
    """
    reps = list(v.coeffs)
    den, rows = gram_numerators(v, reps)
    (poly,) = weigh_shells(gram_shells(rows, rows, [(k, 1) for k in reps]), den * den, (order,))
    return poly
