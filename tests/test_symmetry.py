import itertools

import pytest

from reyex.data import datum_bnw, datum_km, datum_tg
from reyex.expansion import expand
from reyex.fields import static_field
from reyex.rationals import GaussianRational
from oracles import compose, inverse, sobolev_norm
from reyex.symmetry import (
    GroupElement,
    find_symmetries,
    identity_element,
    negation_closure,
    octahedral_matrices,
    orbit_partition,
    propagate_coefficient,
    push_forward,
)
from reyex.timepoly import TP_ZERO, TimePoly

# -- golden tables: signed-permutation factorization S = D_a Q_b and the
#    half-period translations used by the benchmark data -----------------------

D = {
    1: (1, 1, 1), 2: (-1, 1, 1), 3: (1, -1, 1), 4: (1, 1, -1),
    5: (1, -1, -1), 6: (-1, 1, -1), 7: (-1, -1, 1), 8: (-1, -1, -1),
}
Q = {
    1: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    2: ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    3: ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    4: ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    5: ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    6: ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
}
# translations by 0 or pi per axis, in quarter-period units (pi/2 = 1)
A = {
    1: (0, 0, 0), 2: (2, 0, 0), 3: (0, 2, 0), 4: (0, 0, 2),
    5: (2, 2, 0), 6: (2, 0, 2), 7: (0, 2, 2), 8: (2, 2, 2),
}


def S(alpha, beta):
    d = D[alpha]
    q = Q[beta]
    return tuple(tuple(d[i] * q[i][j] for j in range(3)) for i in range(3))


def elem(alpha, beta, gamma):
    return GroupElement(S(alpha, beta), A[gamma])


BNW_TABLE = [
    (1, 1, 1), (1, 1, 8), (1, 2, 4), (1, 2, 5), (1, 3, 2), (1, 3, 7),
    (8, 4, 4), (8, 4, 5), (8, 5, 2), (8, 5, 7), (8, 6, 1), (8, 6, 8),
]
TG_TABLE = [
    (alpha, beta, gamma)
    for alpha in range(1, 9)
    for beta, gammas in ((1, (1, 5, 6, 7)), (4, (2, 3, 4, 8)))
    for gamma in gammas
]
KM_TABLE = [
    (alpha, beta, gamma)
    for alpha in range(1, 9)
    for betas, gammas in (((1, 2, 3), (1, 5, 6, 7)), ((4, 5, 6), (2, 3, 4, 8)))
    for beta in betas
    for gamma in gammas
]


def neg_mat(m):
    return tuple(tuple(-x for x in row) for row in m)


def add_a(a, b):
    return tuple((x + y) % 4 for x, y in zip(a, b))


def test_octahedral_group_has_48_orthogonal_matrices():
    mats = octahedral_matrices()
    assert len(mats) == len(set(mats)) == 48
    assert set(mats) == {S(alpha, beta) for alpha in range(1, 9) for beta in range(1, 7)}


def test_group_law_and_inverse():
    import random

    rng = random.Random(7)
    mats = octahedral_matrices()
    e = identity_element()
    for _ in range(40):
        g = GroupElement(rng.choice(mats), tuple(rng.randrange(4) for _ in range(3)))
        h = GroupElement(rng.choice(mats), tuple(rng.randrange(4) for _ in range(3)))
        k = GroupElement(rng.choice(mats), tuple(rng.randrange(4) for _ in range(3)))
        assert compose(compose(g, h), k) == compose(g, compose(h, k))
        assert compose(g, inverse(g)) == e
        assert compose(inverse(g), g) == e
        assert compose(g, e) == g


def test_bnw_symmetries_match_the_golden_table():
    sym = find_symmetries(datum_bnw().field)
    expected_plus = {elem(*t) for t in BNW_TABLE}
    assert sym.plus == expected_plus
    expected_minus = {GroupElement(neg_mat(g.S), g.a) for g in expected_plus}
    assert sym.minus == expected_minus
    assert len(sym.reduced_plus) == 6
    assert len(sym.reduced_minus) == 6
    assert not (sym.reduced_plus & sym.reduced_minus)


def test_tg_symmetries_match_the_golden_table():
    sym = find_symmetries(datum_tg().field)
    expected_plus = {elem(*t) for t in TG_TABLE}
    assert sym.plus == expected_plus
    # the minus set is the left translate by ((1,1,1), (pi,pi,pi))
    expected_minus = {GroupElement(g.S, add_a(A[8], g.a)) for g in expected_plus}
    assert sym.minus == expected_minus
    assert sym.reduced_plus == sym.reduced_minus
    assert len(sym.reduced_plus) == 16


def test_km_symmetries_match_the_golden_table():
    sym = find_symmetries(datum_km().field)
    expected_plus = {elem(*t) for t in KM_TABLE}
    assert sym.plus == expected_plus
    assert len(sym.plus) == 192
    assert sym.reduced_plus == sym.reduced_minus
    # the reduced group is all of the octahedral group
    assert sym.reduced_plus == set(octahedral_matrices())


def test_symmetry_groups_are_closed_under_composition():
    for datum in (datum_bnw(), datum_tg()):
        sym = find_symmetries(datum.field)
        union = sym.plus | sym.minus
        sign = {g: 1 for g in sym.plus}
        sign.update({g: -1 for g in sym.minus})
        for g in itertools.islice(sym.plus, 4):
            for h in itertools.islice(union, 8):
                gh = compose(g, h)
                assert gh in union
                assert sign[gh] == sign[g] * sign[h]


def test_push_forward_is_an_isometry():
    v = datum_km().field
    g = GroupElement(S(3, 2), (1, 0, 3))  # generic element, quarter turns
    w = push_forward(g, v)
    for order in (0, 2):
        assert abs(sobolev_norm(v, order, 0) - sobolev_norm(w, order, 0)) < 1e-40


def test_push_forward_respects_composition():
    v = datum_bnw().field
    g = GroupElement(S(2, 3), (0, 1, 2))
    h = GroupElement(S(7, 5), (3, 0, 1))
    assert push_forward(g, push_forward(h, v)) == push_forward(compose(g, h), v)


def test_expansion_coefficients_inherit_the_symmetries():
    datum = datum_bnw()
    exp = expand(datum.field, 3, datum_id="bnw")
    sym = exp.symmetry
    g_plus = next(iter(sym.plus))
    g_minus = next(iter(sym.minus))
    for j, u in enumerate(exp.coeffs):
        assert push_forward(g_plus, u) == u
        expected = u if (j + 1) % 2 == 0 else -u
        assert push_forward(g_minus, u) == expected


def test_orbit_partition_covers_and_is_disjoint():
    keys = {(x, y, z) for x in range(-2, 3) for y in range(-2, 3) for z in range(-2, 3)}
    keys.discard((0, 0, 0))
    mats = octahedral_matrices()
    orbits = orbit_partition(keys, mats)
    seen = set()
    for rep, members in orbits:
        assert rep == min(members)
        assert not (members.keys() & seen)
        seen |= members.keys()
        # each member's matrix carries the representative onto it
        for k, S in members.items():
            assert S in mats
            assert tuple(sum(S[i][m] * rep[m] for m in range(3)) for i in range(3)) == k
    assert seen == keys
    for k, size in (((1, 0, 0), 6), ((1, 1, 0), 12), ((1, 1, 1), 8), ((2, 1, 0), 24)):
        (members,) = [m for _, m in orbits if k in m]
        assert len(members) == size
    # closed under -S, a smaller group's orbits are closed under k -> -k
    bnw = find_symmetries(datum_bnw().field).reduced_plus
    assert neg_mat(identity_element().S) not in bnw
    closure = negation_closure(bnw)
    assert len(closure) == 2 * len(bnw)
    for _, members in orbit_partition(keys, list(closure)):
        assert {(-x, -y, -z) for x, y, z in members} == members.keys()


def test_quarter_lattice_search_widens_the_group():
    # a single-mode field with a quarter-period symmetry not on the half grid
    v = static_field({(1, 0, 0): (GaussianRational(0), GaussianRational(1), GaussianRational(0, 1))})
    half = find_symmetries(v, lattice="half")
    quarter = find_symmetries(v, lattice="quarter")
    assert len(quarter.plus) > len(half.plus)
    assert half.plus <= quarter.plus


def test_zero_field_rejected():
    from reyex.fields import TimeField

    with pytest.raises(ValueError):
        find_symmetries(TimeField({}))


@pytest.mark.parametrize("sigma", [1, -1])
def test_propagation_phases_equal_products_with_the_phase(sigma):
    """For every signed permutation S (two or three -1 entries and -I among
    them) and each of the four phases e^{-i (pi/2) n}, the coefficient formed
    by quarter turns equals S coeff, as a sum of GaussianRational products,
    times the phase."""
    phases = (
        GaussianRational(1, 0),
        GaussianRational(0, -1),
        GaussianRational(-1, 0),
        GaussianRational(0, 1),
    )
    coeff = tuple(
        TimePoly({(0, 2): GaussianRational(c, 2 - c), (1, 4): GaussianRational(-3, c)})
        for c in (1, -5, 7)
    )
    k = (1, 2, 0)  # S k has an entry +-1, so a.(S k) takes every n mod 4
    for S in octahedral_matrices():
        moved = tuple(
            sum((p.scale(GaussianRational(x, 0)) for p, x in zip(coeff, row) if x), TP_ZERO)
            for row in S
        )
        seen = set()
        for a in itertools.product(range(4), repeat=3):
            for j in (1, 2):
                Sk, got = propagate_coefficient(coeff, k, GroupElement(S, a), sigma, j)
                n = (a[0] * Sk[0] + a[1] * Sk[1] + a[2] * Sk[2]) % 4
                ph = phases[n]
                if sigma == -1 and j % 2 == 0:
                    ph = GaussianRational(-ph.re, -ph.im)
                assert got == tuple(p.scale(ph) for p in moved), (S, a, j)
                seen.add(phases.index(ph))
        assert seen == {0, 1, 2, 3}
