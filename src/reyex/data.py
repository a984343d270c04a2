"""Benchmark initial data and physical-Reynolds conversions.

The three shipped data (Behr-Necas-Wu, Taylor-Green, Kida-Murakami) are
Fourier polynomials with exact Gaussian-rational coefficients.  Each comes
with its characteristic velocity and length scales and the factor converting
the mathematical Reynolds parameter R = 1/nu into the physical Reynolds
number Re = V* L* R.

Every scalar and amplitude here is computed at one working precision,
timepoly.DEFAULT_EVAL_PRECISION (256 bits), far above the 53 bits of the
floats they are printed as; the scalars are exact rationals rounded once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import mpmath

from .fields import TimeField, norm_sq_poly, static_field
from .rationals import GaussianRational, _gaussian, mpq
from .timepoly import TP_ZERO, DEFAULT_EVAL_PRECISION, _to_mpf, _tp, sample_real_polys

__all__ = [
    "DatumDescriptor",
    "datum_bnw",
    "datum_tg",
    "datum_km",
    "get_datum",
    "load_user_datum",
    "physical_reynolds",
    "mode_amplitude",
    "DATUM_NAMES",
]


@dataclass(frozen=True)
class DatumDescriptor:
    name: str
    field: TimeField
    # wave vector tracked in reports (gamma panels); defaults to the smallest
    # canonical support key
    marked_mode: tuple | None = None

    # exact quadratic invariants, derived from the field
    # v_star_sq = sum_k |u_k|^2 (full lattice) = V*^2
    # inv_sq_sum = sum_k |k|^{-2} |u_k|^2
    v_star_sq: object = dc_field(default=None, compare=False)
    inv_sq_sum: object = dc_field(default=None, compare=False)

    def __post_init__(self):
        v0 = _constant_value(norm_sq_poly(self.field, 0))
        vm1 = _constant_value(norm_sq_poly(self.field, -1))
        object.__setattr__(self, "v_star_sq", v0)
        object.__setattr__(self, "inv_sq_sum", vm1)
        if self.marked_mode is None:
            object.__setattr__(self, "marked_mode", min(self.field.coeffs))

    def V_star(self):
        """Initial mean quadratic velocity sqrt(V*^2)."""
        with mpmath.workprec(DEFAULT_EVAL_PRECISION):
            return mpmath.sqrt(_to_mpf(self.v_star_sq))

    def L_star(self):
        """Quadratic-mean wavelength 2 pi ||u||_{-1} / ||u||_{L^2}."""
        with mpmath.workprec(DEFAULT_EVAL_PRECISION):
            return 2 * mpmath.pi * mpmath.sqrt(_to_mpf(self.inv_sq_sum) / _to_mpf(self.v_star_sq))

    def rey_factor(self):
        """Re / R = V* L* = ||u||_{-1} / (2 pi)^{d/2 - 1}."""
        with mpmath.workprec(DEFAULT_EVAL_PRECISION):
            return 2 * mpmath.pi * mpmath.sqrt(_to_mpf(self.inv_sq_sum))

    def sobolev(self, order):
        """||u||_order, from its exact square rounded once."""
        q = _constant_value(norm_sq_poly(self.field, order))
        with mpmath.workprec(DEFAULT_EVAL_PRECISION):
            return mpmath.sqrt((2 * mpmath.pi) ** 3 * _to_mpf(q))


def _constant_value(poly):
    if poly.is_zero():
        return mpq(0)
    if set(poly.terms) != {(0, 0)}:
        raise ValueError("static field norm should be constant in time")
    c = poly.terms[(0, 0)]
    if c.b:
        raise ValueError("norm square must be real")
    return mpq(c.a, c.d)


def mode_amplitude(fields, k, R, grid):
    """(2 pi)^{3/2} |sum_j R^j v_{j,k}(t)| over the grid, for fields v_0, v_1, ...

    R (a float is read as its exact rational value) weights the fields'
    coefficients at k exactly; the real and imaginary parts of the three
    components are sampled in one batch (timepoly.sample_real_polys) at the
    working precision, so t = 0 is exact and the loss at t > 0 is measured.
    """
    R = mpq(R)
    comps = [TP_ZERO] * 3
    for j, v in enumerate(fields):
        comps = [a + p.scale_rational(R**j) for a, p in zip(comps, v.coeff(k))]
    parts = []
    for p in comps:
        parts.append(_tp({key: _gaussian(c.a, 0, c.d) for key, c in p.terms.items() if c.a}))
        parts.append(_tp({key: _gaussian(c.b, 0, c.d) for key, c in p.terms.items() if c.b}))
    values, _ = sample_real_polys(parts, grid)
    with mpmath.workprec(DEFAULT_EVAL_PRECISION):
        scale = (2 * mpmath.pi) ** mpmath.mpf("1.5")
        return [
            scale * mpmath.sqrt(sum(re * re + im * im for re, im in zip(col[::2], col[1::2])))
            for col in zip(*values)
        ]


def _gr(re, im=0):
    return GaussianRational(re, im)


def datum_bnw():
    """Behr-Necas-Wu: sum_a z_a (e_{k_a} + e_{-k_a}), six real modes."""
    modes = {
        (1, 1, 0): (_gr(1), _gr(-1), _gr(0)),
        (1, 0, 1): (_gr(1), _gr(0), _gr(-1)),
        (0, 1, 1): (_gr(0), _gr(1), _gr(-1)),
    }
    return DatumDescriptor(
        name="bnw",
        field=static_field(modes),
        marked_mode=(1, 1, 0),
    )


def datum_tg():
    """Taylor-Green: (i/8) sum_a z_a (e_{k_a} - e_{-k_a}), eight modes."""
    e = mpq(1, 8)
    ks = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]
    zs = [(-1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, 1, 0)]
    modes = {}
    for k, z in zip(ks, zs):
        modes[k] = tuple(_gr(0, mpq(c) * e) for c in z)
    return DatumDescriptor(
        name="tg",
        field=static_field(modes),
        marked_mode=(1, 1, 1),
    )


def datum_km():
    """Kida-Murakami: (i/8) sum_{a=1}^{12} z_a (e_{k_a} - e_{-k_a})."""
    e = mpq(1, 8)
    ks = [
        (3, 1, 1), (3, 1, -1), (1, 3, 1), (1, 3, -1),
        (1, 1, 3), (1, 1, -3), (1, -1, 3), (1, -1, -3),
        (1, -3, 1), (1, -3, -1), (3, -1, 1), (3, -1, -1),
    ]
    z1 = (0, 1, -1)
    z2 = (0, 1, 1)
    z3 = (-1, 0, 1)
    z4 = (-1, 0, -1)
    z5 = (1, -1, 0)
    z7 = (1, 1, 0)
    zs = [z1, z2, z3, z4, z5, z5, z7, z7, z3, z4,
          tuple(-c for c in z2), tuple(-c for c in z1)]
    modes = {}
    for k, z in zip(ks, zs):
        modes[k] = tuple(_gr(0, mpq(c) * e) for c in z)
    return DatumDescriptor(
        name="km",
        field=static_field(modes),
        marked_mode=(3, 1, 1),
    )


DATUM_NAMES = ("bnw", "tg", "km")

_BUILDERS = {"bnw": datum_bnw, "tg": datum_tg, "km": datum_km}


def get_datum(selector):
    """Resolve a datum selector: 'bnw' | 'tg' | 'km' | 'file:PATH'."""
    if selector in _BUILDERS:
        return _BUILDERS[selector]()
    if selector.startswith("file:"):
        return load_user_datum(selector[5:])
    raise ValueError("unknown datum %r (expected bnw|tg|km|file:PATH)" % (selector,))


def load_user_datum(path):
    """Load a user datum from the textual field format.

    Each mode is listed once, at its canonical wave vector (first nonzero
    component positive); the coefficient at -k is its conjugate, implied.
    A payload that writes a mode at -k, or twice, is refused with
    ValueError.  So are data violating exact incompressibility or the
    zero-mean condition, instead of being projected silently.
    """
    with open(path) as fh:
        payload = json.load(fh)
    field = TimeField.from_payload(payload)
    for k, vec in field.coeffs.items():
        for p in vec:
            if set(p.terms) - {(0, 0)}:
                raise ValueError("user datum must be constant in time (mode %s)" % (k,))
    name = payload.get("name") or "user"
    return DatumDescriptor(name=name, field=field)


def physical_reynolds(datum, R):
    """Physical Reynolds number Re = V* L* R for the given datum."""
    if not 0 <= R < math.inf:
        raise ValueError("R must be a finite number >= 0, got %s" % (R,))
    with mpmath.workprec(DEFAULT_EVAL_PRECISION):
        return datum.rey_factor() * mpmath.mpf(R)
