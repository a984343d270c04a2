import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bilinear_P_products,
    full_coeffs,
    gram_poly_orbits_products,
    gram_polys,
    heat_duhamel,
    leray_project_polys,
    pruned_sum_products,
    sobolev_norm,
    to_records_reference,
    validate_reference,
)
from reyex.data import datum_bnw, mode_amplitude
from reyex.fields import (
    IntegerForm,
    TimeField,
    bilinear_P,
    canonical_key,
    convolution_coefficient,
    heat_apply,
    is_canonical,
    leray_project,
    norm_sq_poly,
    project_mode,
    static_field,
)
from reyex.rationals import GaussianRational, mpq
from reyex.timepoly import TP_ZERO, TimePoly, tp_basis


def gr(re, im=0):
    return GaussianRational(re, im)


def const_vec(a, b, c):
    return (gr(a[0], a[1]), gr(b[0], b[1]), gr(c[0], c[1]))


def test_canonical_key_convention():
    assert is_canonical((1, -5, 2))
    assert not is_canonical((-1, 5, 2))
    assert is_canonical((0, 2, -9))
    assert not is_canonical((0, 0, -1))
    assert canonical_key((-1, 2, 0)) == (1, -2, 0)


def test_leray_projection_hand_values():
    # k = (1, 0, 0): kills the first component only
    vec = (gr(5), gr(7), gr(-2))
    out = leray_project((1, 0, 0), vec)
    assert out == (gr(0), vec[1], vec[2])
    # k = (1, 1, 0), v = (1, 0, 0): v - (1/2)(1,1,0) = (1/2, -1/2, 0)
    out = leray_project((1, 1, 0), (gr(1), gr(0), gr(0)))
    assert out == (gr(mpq(1, 2)), gr(mpq(-1, 2)), gr(0))


def test_leray_rejects_zero_mode():
    with pytest.raises(ValueError):
        leray_project((0, 0, 0), (gr(0), gr(0), gr(0)))


def test_reality_folding_and_coeff_access():
    v = static_field({(1, 1, 0): (gr(0, 1), gr(0, -1), gr(0))})
    minus = v.coeff((-1, -1, 0))
    assert minus[0] == tp_basis(0, 0, gr(0, -1))
    assert v.coeff((5, 5, 5)) == (TP_ZERO, TP_ZERO, TP_ZERO)


def test_incompressibility_validation():
    with pytest.raises(ValueError):
        static_field({(1, 0, 0): (gr(1), gr(0), gr(0))})


def test_zero_mean_enforced():
    with pytest.raises(ValueError):
        static_field({(0, 0, 0): (gr(1), gr(0), gr(0))})


def _independent_bilinear(modes_v, modes_w, k):
    """Oracle for P(v, w)_k on constant fields using Fraction arithmetic only.

    modes are full-lattice dicts k -> 3-tuple of complex Fractions (re, im).
    Returns the complex 3-vector as ((re, im), ...) after -i and the
    k-orthogonal projection.
    """

    def cmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def cadd(a, b):
        return (a[0] + b[0], a[1] + b[1])

    acc = [(Fraction(0), Fraction(0))] * 3
    for h, vh in modes_v.items():
        kh = (k[0] - h[0], k[1] - h[1], k[2] - h[2])
        wh = modes_w.get(kh)
        if wh is None:
            continue
        dot = (Fraction(0), Fraction(0))
        for i in range(3):
            dot = cadd(dot, cmul(vh[i], (Fraction(kh[i]), Fraction(0))))
        acc = [cadd(a, cmul(dot, w)) for a, w in zip(acc, wh)]
    # multiply by -i: (re, im) -> (im, -re)
    acc = [(a[1], -a[0]) for a in acc]
    ksq = Fraction(k[0] ** 2 + k[1] ** 2 + k[2] ** 2)
    kdot = (
        sum(Fraction(k[i]) * acc[i][0] for i in range(3)),
        sum(Fraction(k[i]) * acc[i][1] for i in range(3)),
    )
    return [
        (a[0] - kdot[0] * k[i] / ksq, a[1] - kdot[1] * k[i] / ksq)
        for i, a in enumerate(acc)
    ]


def _full_fraction_modes(field):
    out = {}
    for k, vec in full_coeffs(field).items():
        comps = []
        for p in vec:
            c = p.terms.get((0, 0))
            if c is None:
                comps.append((Fraction(0), Fraction(0)))
            else:
                comps.append(
                    (
                        Fraction(int(c.re.numerator), int(c.re.denominator)),
                        Fraction(int(c.im.numerator), int(c.im.denominator)),
                    )
                )
        out[k] = tuple(comps)
    return out


def test_bilinear_matches_independent_convolution_oracle():
    v = datum_bnw().field
    modes = _full_fraction_modes(v)
    p = bilinear_P(v, v)
    for k in [(2, 1, 1), (1, 2, 1), (0, 1, 1), (2, 0, 0), (1, 1, 2)]:
        expected = _independent_bilinear(modes, modes, k)
        got = p.coeff(k)
        for comp, (ere, eim) in zip(got, expected):
            c = comp.terms.get((0, 0))
            gre = Fraction(int(c.re.numerator), int(c.re.denominator)) if c else Fraction(0)
            gim = Fraction(int(c.im.numerator), int(c.im.denominator)) if c else Fraction(0)
            assert (gre, gim) == (ere, eim), k


def test_bilinear_output_is_divergence_free_and_real():
    v = datum_bnw().field
    p = bilinear_P(v, v)
    p.validate()
    assert p.num_modes() > 0


def _per_target(a, b, targets):
    """P(a, b) at the canonical forms of targets, by the per-target kernel
    the expansion runs, as a field."""
    fa, fb = IntegerForm(a), IntegerForm(b)
    out = {}
    for k in {canonical_key(kt) for kt in targets} - {(0, 0, 0)}:
        raw = convolution_coefficient([(fa, fb)], k)
        if raw is not None:
            out[k] = project_mode(k, raw)
    return TimeField(out, validate=False)


def test_bilinear_targets_agree_with_full_computation():
    v = datum_bnw().field
    full = bilinear_P(v, v)
    targets = sorted(full.coeffs)[:4]
    partial = _per_target(v, v, targets)
    for k in targets:
        assert partial.coeff(k) == full.coeff(k)


def test_convolution_coefficient_sums_pairs_over_the_lcm_of_their_denominators():
    """Two pairs over the denominators 30 and 100: the one accumulator, over
    their lcm 300, holds each pair's own numerators scaled up by 10 and 3."""
    third, fifth = mpq(1, 3), mpq(1, 5)
    a = static_field({(1, 1, 0): (gr(third), gr(-third), gr(2 * third)),
                      (0, 0, 1): (gr(third, 1), gr(1), gr(0))})
    b = static_field({(1, 1, 0): (gr(fifth), gr(-fifth), gr(mpq(1, 2))),
                      (0, 0, 1): (gr(2 * fifth), gr(0, 3 * fifth), gr(0))})
    fa, fb = IntegerForm(a), IntegerForm(b)
    pairs = [(fa, fb), (fb, fb)]
    assert [fv.den * fw.den for fv, fw in pairs] == [30, 100]
    sums = {tuple(x + y for x, y in zip(h, g)) for h in fa.modes for g in fb.modes}
    both = 0
    for k in {canonical_key(k) for k in sums} - {(0, 0, 0)}:
        raws = [convolution_coefficient([pair], k) for pair in pairs]
        want = ({}, {}, {})
        for raw in raws:
            if raw is None:
                continue
            f = 300 // raw[0]
            for out, comp in zip(want, raw[1]):
                for key, (re, im) in comp.items():
                    prev = out.setdefault(key, [0, 0])
                    prev[0] += f * re
                    prev[1] += f * im
        got = convolution_coefficient(pairs, k)
        if raws == [None, None]:
            assert got is None
            continue
        both += None not in raws
        assert got[0] == 300
        for have, comp in zip(got[1], want):
            assert {key: v for key, v in have.items() if v != [0, 0]} == \
                {key: v for key, v in comp.items() if v != [0, 0]}
    assert both


def test_heat_apply_multiplies_by_decay():
    v = static_field({(1, 1, 0): (gr(1), gr(-1), gr(0))})
    u = heat_apply(v)
    assert u.coeffs[(1, 1, 0)][0] == tp_basis(0, 2)


def test_heat_duhamel_solves_forced_heat_equation():
    v = static_field({(1, 1, 0): (gr(1), gr(-1), gr(0))})
    f = heat_apply(v)  # forcing e^{-2t} per mode
    w = heat_duhamel(f)
    # dw/dt - Lap w = f and w(0) = 0
    assert (w.derivative() - w.laplacian() - f).is_zero()


def test_norm_values_match_direct_sum():
    v = datum_bnw().field
    # ||u||_3^2 = (2 pi)^3 sum |k|^6 |u_k|^2; all 6 modes have |k|^2 = 2, |u_k|^2 = 2
    got = sobolev_norm(v, 3, 0)
    with mpmath.workprec(256):
        expected_sq = (2 * mpmath.pi) ** 3 * 6 * 2**3 * 2
        assert abs(got - mpmath.sqrt(expected_sq)) < 1e-40


def test_negative_order_norm():
    v = datum_bnw().field
    got = sobolev_norm(v, -1, 0)
    with mpmath.workprec(256):
        expected_sq = (2 * mpmath.pi) ** 3 * 6 * 2 / 2
        assert abs(got - mpmath.sqrt(expected_sq)) < 1e-40


def test_gram_poly_symmetry_and_orbit_version():
    v = datum_bnw().field
    w = bilinear_P(v, v)
    classes = [(k, 1) for k in w.coeffs]
    (g1,) = gram_polys(w, w, (3,), classes)
    assert [g1] == gram_poly_orbits_products(w, w, (3,), classes)
    # norm_sq_poly is the self-Gram
    assert norm_sq_poly(w, 3) == g1


def test_gram_poly_matches_timepoly_products():
    # generic complex amplitudes, so both real and imaginary parts meet
    modes = {
        (1, 0, 0): leray_project((1, 0, 0), const_vec((0, 0), (2, -3), (Fraction(1, 2), 5))),
        (0, 1, 1): leray_project((0, 1, 1), const_vec((1, 1), (-2, 7), (3, Fraction(-1, 3)))),
        (1, 2, 0): leray_project((1, 2, 0), const_vec((4, -1), (1, 2), (0, 1))),
    }
    v = heat_apply(static_field(modes))
    w = v + heat_duhamel(bilinear_P(v, v))
    orders = (-1, 0, 3)
    classes = [(k, 1) for k in v.coeffs.keys() | w.coeffs.keys()]
    refs = []
    for order in orders:
        ref = TP_ZERO
        for k in v.coeffs.keys() & w.coeffs.keys():
            p = TP_ZERO
            for a, b in zip(v.coeffs[k], w.coeffs[k]):
                p = p + a.conj() * b
            ksq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
            weight = mpq(ksq**order) if order >= 0 else mpq(1, ksq)
            ref = ref + (p + p.conj()).scale_rational(weight)
        assert gram_polys(v, w, (order,), classes) == [ref]
        assert gram_polys(w, v, (order,), classes) == [ref]
        refs.append(ref)
    # all orders from one pass over the mode products
    assert gram_polys(v, w, orders, classes) == refs


def test_payload_round_trip_and_tamper_detection(tmp_path):
    v = datum_bnw().field
    w = heat_duhamel(bilinear_P(heat_apply(v), heat_apply(v)))
    payload = w.to_payload(name="x", j=1)
    assert TimeField.from_payload(payload) == w
    blob = json.loads(json.dumps(payload))
    blob["modes"][0]["k"] = [0, 0, 0]
    with pytest.raises(ValueError):
        TimeField.from_payload(blob)
    blob2 = json.loads(json.dumps(payload))
    blob2["format"] = "something-else"
    with pytest.raises(ValueError):
        TimeField.from_payload(blob2)


def test_coeff_magnitude_marked_mode():
    v = datum_bnw().field
    (val,) = mode_amplitude([v], (1, 1, 0), 0, [0])
    with mpmath.workprec(256):
        expected = (2 * mpmath.pi) ** mpmath.mpf("1.5") * mpmath.sqrt(2)
    assert abs(val - expected) < 1e-40


def test_field_subtraction_matches_adding_the_negation():
    v = heat_apply(datum_bnw().field)
    w = v + heat_duhamel(bilinear_P(v, v))
    assert w - v == w + (-v)
    assert v - w == v + (-w)
    assert (w - w).is_zero()
    assert all(any(not p.is_zero() for p in vec) for vec in (w - v).coeffs.values())


# -- the integer kernels against the TimePoly-product oracles -----------------------

# Wide denominators (3^40, a Mersenne prime, 7^15 11^9) shared by many
# coefficients, small numerators and few exponent pairs, so that products
# land on the same terms and cancel exactly.
_DENS = (1, 6, 3**40, 2**61 - 1, 7**15 * 11**9)
_wide_q = st.builds(
    lambda n, d: mpq(n, d), st.integers(-3, 3), st.sampled_from(_DENS)
)
_terms = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 3)),
    st.builds(GaussianRational, _wide_q, _wide_q),
    max_size=2,
).map(TimePoly)
_keys = st.tuples(*[st.integers(-2, 2)] * 3).filter(lambda k: is_canonical(k))


def _projected(modes):
    coeffs = {k: leray_project_polys(k, vec) for k, vec in modes.items()}
    return TimeField(coeffs)


_fields = st.dictionaries(_keys, st.tuples(_terms, _terms, _terms), max_size=4).map(_projected)


def _assert_canonical_field(f):
    for vec in f.coeffs.values():
        assert any(not p.is_zero() for p in vec)
        for p in vec:
            assert all(p.terms.values())


def _pruned_sum(fulls, pairs, k):
    """The expansion's sum over pairs at one target: the raw convolutions
    added over one denominator, then projected."""
    raw = convolution_coefficient([(fulls[l], fulls[m]) for l, m in pairs], k)
    vec = None if raw is None else project_mode(k, raw)
    return None if vec is None or all(p.is_zero() for p in vec) else vec


@settings(max_examples=60, deadline=None)
@given(_fields, _fields)
def test_integer_kernels_match_timepoly_products(v, w):
    for a, b in ((v, w), (w, v), (v, v)):
        full = bilinear_P(a, b)
        assert full == bilinear_P_products(a, b)
        _assert_canonical_field(full)
        targets = sorted(full.coeffs)[:3] + [(0, 0, 0), (0, 0, 1), (-1, 1, 0), (-2, 0, 1)]
        part = _per_target(a, b, targets)
        assert part == bilinear_P_products(a, b, targets)
        _assert_canonical_field(part)
    # the pruned sum over several pairs; with -v beside v the first two
    # pairs cancel exactly, and w brings other denominators into the sum
    fields = [v, w, -v]
    pairs = [(0, 0), (0, 2), (1, 2), (2, 1), (1, 1)]
    fulls = [IntegerForm(f) for f in fields]
    support = set().union(*(fl.modes for fl in fulls))
    targets = {canonical_key(tuple(x + y for x, y in zip(h, g))) for h in support for g in support}
    for k in targets - {(0, 0, 0)}:
        vec = _pruned_sum(fulls, pairs, k)
        assert vec == pruned_sum_products(fields, pairs, k)
        if vec is not None:
            assert all(c for p in vec for c in p.terms.values())
        assert _pruned_sum(fulls, pairs[:2], k) is None
    classes = [(k, 1 + i % 3) for i, k in enumerate(sorted(v.coeffs.keys() | w.coeffs.keys()))]
    orders = (-1, 0, 3)
    grams = gram_polys(v, w, orders, classes)
    assert grams == gram_poly_orbits_products(v, w, orders, classes)
    for p in grams:
        assert all(c for c in p.terms.values())


# -- validation and the payload codec against the references ----------------------


@st.composite
def _unchecked_fields(draw):
    """Fields built without validation: keys canonical or not, the zero mode
    now and then, divergence-free or with one term added to one component
    (a violation at one exponent pair, or none where k_i = 0), and now and
    then an exponent b too large to pack."""
    keys = _keys if draw(st.integers(0, 3)) else st.tuples(*[st.integers(-2, 2)] * 3)
    modes = draw(st.dictionaries(keys, st.tuples(_terms, _terms, _terms), max_size=4))
    if draw(st.integers(0, 3)):
        modes = {k: leray_project_polys(k, vec) for k, vec in modes.items() if k != (0, 0, 0)}
    for extra in (_terms, st.just(tp_basis(0, 2**31))):
        if modes and not draw(st.integers(0, 2)):
            k = draw(st.sampled_from(sorted(modes)))
            i = draw(st.integers(0, 2))
            vec = list(modes[k])
            vec[i] = vec[i] + draw(extra)
            modes[k] = tuple(vec)
    return TimeField(modes, validate=False)


@settings(max_examples=200, deadline=None)
@given(_unchecked_fields())
def test_validate_and_payload_match_the_references(field):
    try:
        validate_reference(field)
    except ValueError:
        with pytest.raises(ValueError):
            field.validate()
        return
    assert field.validate() is field
    payload = field.to_payload(name="x", j=2)
    assert payload["modes"] == [
        {"k": list(k), "components": [to_records_reference(p) for p in field.coeffs[k]]}
        for k in sorted(field.coeffs)
    ]
    # decoded, the polys share their coefficient objects
    assert TimeField.from_payload(json.loads(json.dumps(payload))) == field


def test_numerators_form_each_shared_poly_once():
    # a spread orbit shares its turned components: the rows are those of
    # the same field with every poly copied, and every slot holding one
    # poly object holds one tuple
    from reyex.fields import _numerators

    p = tp_basis(1, 2, GaussianRational(mpq(1, 3), mpq(2, 5))) + tp_basis(0, 4, GaussianRational(7))
    q = tp_basis(0, 1, GaussianRational(mpq(-3, 7)))
    shared = [(p, q, p), (q, p, TP_ZERO), (p, p, q)]
    copied = [tuple(TimePoly(dict(r.terms)) for r in vec) for vec in shared]
    den, rows = _numerators(shared)
    assert (den, rows) == _numerators(copied)
    assert rows[0][0] is rows[0][2] is rows[1][1] is rows[2][0]
    assert rows[0][1] is rows[1][0] is rows[2][2]
