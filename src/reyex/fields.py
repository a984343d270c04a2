"""Divergence-free, zero-mean vector fields on the 3-torus.

A field is a sparse map from wave vector to a 3-vector of TimePoly.  Reality
is enforced structurally: only the canonical representative of each pair
{k, -k} is stored (the one whose first nonzero component is positive) and the
coefficient at -k is materialized as the componentwise conjugate on demand.
"""

from __future__ import annotations

import mpmath

from .rationals import GaussianRational, mpq
from .timepoly import TP_ZERO, DEFAULT_EVAL_PRECISION, TimePoly

__all__ = [
    "canonical_key",
    "is_canonical",
    "wave_norm_sq",
    "leray_project",
    "TimeField",
    "static_field",
    "bilinear_P",
    "convolution_coefficient",
    "project_mode",
    "heat_apply",
    "heat_duhamel",
    "gram_poly",
    "gram_poly_orbits",
    "norm_sq_poly",
    "sobolev_norm",
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
    """Project a coefficient onto the orthogonal complement of k.

    vec may hold GaussianRational or TimePoly components; the projection is
    vec - (k.vec/|k|^2) k, exact in either case.
    """
    if k == (0, 0, 0):
        raise ValueError("Leray projection is undefined at the zero mode")
    if isinstance(vec[0], TimePoly):
        dot = TP_ZERO
        for ki, vi in zip(k, vec):
            if ki:
                dot = dot + vi.scale_rational(mpq(ki))
        if dot.is_zero():
            return tuple(vec)
        return tuple(
            vi - dot.scale_rational(mpq(ki, wave_norm_sq(k))) for ki, vi in zip(k, vec)
        )
    dot = GaussianRational(0)
    for ki, vi in zip(k, vec):
        if ki:
            dot = dot + vi.scale(mpq(ki))
    if not dot:
        return tuple(vec)
    return tuple(vi - dot.scale(mpq(ki, wave_norm_sq(k))) for ki, vi in zip(k, vec))


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
        for k, vec in self.coeffs.items():
            if k == (0, 0, 0):
                raise ValueError("zero-mean violation: coefficient at k = 0")
            if not is_canonical(k):
                raise ValueError("non-canonical storage key %s" % (k,))
            dot = TP_ZERO
            for ki, vi in zip(k, vec):
                if ki:
                    dot = dot + vi.scale_rational(mpq(ki))
            if not dot.is_zero():
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

    def support(self):
        """Canonical wave vectors with a nonzero coefficient."""
        return set(self.coeffs)

    def num_modes(self):
        """Nonzero Fourier coefficients over the full lattice (both signs)."""
        return 2 * len(self.coeffs)

    def full_coeffs(self):
        """Materialize both k and -k entries (the latter by conjugation)."""
        full = {}
        for k, vec in self.coeffs.items():
            full[k] = vec
            full[_neg(k)] = (vec[0].conj(), vec[1].conj(), vec[2].conj())
        return full

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
        return self + (-other)

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
            q = mpq(-wave_norm_sq(k))
            return (v[0].scale_rational(q), v[1].scale_rational(q), v[2].scale_rational(q))

        return self.map_coeffs(fn)

    # -- numeric access --------------------------------------------------------

    def eval_coeff(self, k, t, precision=DEFAULT_EVAL_PRECISION):
        """Numeric 3-vector coefficient at wave vector k and time t."""
        vec = self.coeff(k)
        return tuple(p.evaluate(t, precision) for p in vec)

    def coeff_magnitude(self, k, t, precision=DEFAULT_EVAL_PRECISION):
        """(2 pi)^{3/2} |v_k(t)|, the normalization used for reporting."""
        with mpmath.workprec(precision):
            vec = self.eval_coeff(k, t, precision)
            s = mpmath.mpf(0)
            for c in vec:
                s += c.real * c.real + c.imag * c.imag
            return (2 * mpmath.pi) ** mpmath.mpf("1.5") * mpmath.sqrt(s)

    # -- serialization ----------------------------------------------------------

    def to_payload(self, name="", j=None):
        modes = []
        for k in sorted(self.coeffs):
            vec = self.coeffs[k]
            modes.append({"k": list(k), "components": [p.to_records() for p in vec]})
        payload = {"format": "reyex-field/1", "name": name, "modes": modes}
        if j is not None:
            payload["j"] = j
        return payload

    @classmethod
    def from_payload(cls, payload):
        if payload.get("format") != "reyex-field/1":
            raise ValueError("unrecognized field payload format: %r" % (payload.get("format"),))
        coeffs = {}
        for mode in payload["modes"]:
            k = tuple(mode["k"])
            comps = mode["components"]
            if len(k) != 3 or len(comps) != 3:
                raise ValueError("malformed mode entry for k = %s" % (k,))
            coeffs[k] = tuple(TimePoly.from_records(recs) for recs in comps)
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


# -- the Navier-Stokes bilinear map ---------------------------------------------


def _dot_poly(vec, k):
    out = TP_ZERO
    for ki, vi in zip(k, vec):
        if ki:
            out = out + vi.scale_rational(mpq(ki))
    return out


def project_mode(k, acc):
    """Apply -i and the Leray projection to an accumulated convolution sum."""
    vec = tuple(p.mul_minus_i() for p in acc)
    return leray_project(k, vec)


def convolution_coefficient(fv, fw, k):
    """Raw sum_h [v_h.(k-h)] w_{k-h} at a single wave vector k.

    fv, fw are full (both-signs) coefficient dicts; the -i factor and the
    Leray projection are NOT applied here, so per-k contributions from
    several bilinear terms can be accumulated first.  Returns None when the
    sum vanishes identically.
    """
    acc0 = acc1 = acc2 = TP_ZERO
    hit = False
    if len(fv) <= len(fw):
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
    else:
        for h2, wh2 in fw.items():
            h = (k[0] - h2[0], k[1] - h2[1], k[2] - h2[2])
            vh = fv.get(h)
            if vh is None:
                continue
            s = _dot_poly(vh, h2)
            if s.is_zero():
                continue
            hit = True
            acc0 = acc0 + s * wh2[0]
            acc1 = acc1 + s * wh2[1]
            acc2 = acc2 + s * wh2[2]
    if not hit:
        return None
    return (acc0, acc1, acc2)


def bilinear_P(v, w, targets=None):
    """P(v, w)_k = -i P_k sum_h [v_h . (k-h)] w_{k-h}, exact.

    With targets=None the full (canonical) output support is computed by a
    pair loop over the two supports.  With an explicit iterable of wave
    vectors only those output coefficients are computed, which is what the
    symmetry-pruned recursion uses.
    """
    fv = v.full_coeffs()
    fw = w.full_coeffs()
    if not fv or not fw:
        return TimeField({}, validate=False)

    out = {}
    if targets is None:
        acc = {}
        for h, vh in fv.items():
            for h2, wh2 in fw.items():
                k = (h[0] + h2[0], h[1] + h2[1], h[2] + h2[2])
                if not is_canonical(k):
                    # skips k = 0 (mean mode dropped) and the redundant half
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
        for k, vec in acc.items():
            proj = project_mode(k, vec)
            if not (proj[0].is_zero() and proj[1].is_zero() and proj[2].is_zero()):
                out[k] = proj
    else:
        seen = set()
        for kt in targets:
            k = canonical_key(kt)
            if k in seen or k == (0, 0, 0):
                continue
            seen.add(k)
            raw = convolution_coefficient(fv, fw, k)
            if raw is None:
                continue
            proj = project_mode(k, raw)
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


def heat_duhamel(v):
    """int_0^t e^{(t-s) Delta} v(s) ds, termwise heat-kernel convolution."""

    def fn(k, vec):
        ksq = wave_norm_sq(k)
        return tuple(p.heat_convolve(ksq) for p in vec)

    return v.map_coeffs(fn)


# -- Sobolev inner products ----------------------------------------------------------


def _weight(ksq, order):
    # |k|^{2 order} as an exact rational; order may be negative (used only
    # for the physical-Reynolds conversion at order -1).
    if order >= 0:
        return mpq(ksq ** order)
    return mpq(1, ksq ** (-order))


def _add_mode_gram(acc, vvec, wvec, weight):
    """Add weight * (conj(v_k).w_k + v_k.conj(w_k)) into acc, a map of
    exponent pairs to rationals.  This is the real full-lattice contribution
    of the canonical pair {k, -k}: twice the real part of conj(v_k).w_k, so
    only Re(conj(c) d) = c.re d.re + c.im d.im is ever formed."""
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


def _real_poly(acc):
    return TimePoly({key: GaussianRational(x) for key, x in acc.items()})


def gram_poly(v, w, order):
    """sum_k |k|^{2 order} conj(v_k).w_k over the full lattice, symbolic.

    The (2 pi)^3 normalization of the Sobolev inner product is irrational and
    is applied only at numeric evaluation time (see sobolev_norm).
    """
    common = v.coeffs.keys() & w.coeffs.keys()
    return gram_poly_orbits(v, w, (order,), [(k, 1) for k in common])[0]


def gram_poly_orbits(v, w, orders, orbit_classes):
    """Gram sums at several Sobolev orders exploiting symmetry: evaluate one
    canonical representative per orbit class and weight by the class size.
    Returns one poly per order.

    orbit_classes is an iterable of (representative, size) pairs covering the
    canonical support; contributions are constant on classes when the fields
    are equivariant under the symmetry group that produced the classes.  The
    orders differ only in the |k|^{2 order} weight, so the mode products are
    formed once, summed per shell |k|^2, and each shell sum is weighted per
    order.
    """
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
            weight = _weight(ksq, order)
            for key, x in shell.items():
                prev = acc.get(key)
                acc[key] = weight * x if prev is None else prev + weight * x
        out.append(_real_poly(acc))
    return out


def norm_sq_poly(v, order):
    """Symbolic |k|-weighted energy: (2 pi)^{-3} ||v(t)||_order^2."""
    return gram_poly(v, v, order)


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
