"""Rototranslation symmetries of torus fields.

The group is O(3,Z) x T^3 (semidirect product) acting by push-forward.  The
translations searched, and the only ones an expansion propagates with, are
those of the half-period lattice {0, pi}^3, whose phases e^{-i a.k} are
signs.  Translations are stored as integer triples in units of pi/2, so
each entry is 0 or 2.

find_symmetries decides each of the 48 signed permutations S once, by the
support and the sign that S takes each stored coefficient to; each
translation is then decided by integer phases, with no field pushed
forward.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .fields import canonical_key, is_canonical

__all__ = [
    "GroupElement",
    "SymmetryData",
    "octahedral_matrices",
    "identity_element",
    "find_symmetries",
    "negation_closure",
    "orbit_partition",
    "canonical_images",
    "propagate_coefficient",
]


class GroupElement(NamedTuple):
    """A signed-permutation matrix with a half-period-lattice translation.

    S is a 3x3 tuple-of-tuples over {-1,0,1} with S^T S = 1; a is a triple
    over {0, 2}, each unit worth pi/2.
    """

    S: tuple
    a: tuple


def _mat_vec(S, k):
    return (
        S[0][0] * k[0] + S[0][1] * k[1] + S[0][2] * k[2],
        S[1][0] * k[0] + S[1][1] * k[1] + S[1][2] * k[2],
        S[2][0] * k[0] + S[2][1] * k[1] + S[2][2] * k[2],
    )


_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _phase(a, k):
    """n mod 4 for the phase e^{-i (pi/2) n} = e^{-i a.k}: 0 or 2, a sign,
    for a on the half-period lattice."""
    return (a[0] * k[0] + a[1] * k[1] + a[2] * k[2]) % 4


def octahedral_matrices():
    """All 48 signed permutation matrices of O(3,Z)."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            S = tuple(
                tuple(signs[i] if j == perm[i] else 0 for j in range(3)) for i in range(3)
            )
            mats.append(S)
    return mats


def identity_element():
    return GroupElement(_IDENTITY, (0, 0, 0))


@dataclass(frozen=True)
class SymmetryData:
    """Symmetry group H+ and pseudo-symmetry set H- of a datum, with the
    reduced (matrix-only) projections and the propagation routes derived
    from them."""

    plus: frozenset
    minus: frozenset

    @property
    def reduced_plus(self):
        return frozenset(g.S for g in self.plus)

    @property
    def reduced_minus(self):
        return frozenset(g.S for g in self.minus)

    @cached_property
    def routes(self):
        """Each matrix M of +-(S+ | S-) -> (g, sigma, conj): g = (S, a) is of
        sign sigma (one witness a per S, H+ first), and M = S, or M = -S with
        conj set, as -S acts on canonical keys like g then conjugation.  Every
        orbit partition of the pipeline is orbit_partition(keys, list(routes))."""
        table = {}
        for sigma, elements in ((1, self.plus), (-1, self.minus)):
            for g in elements:
                table.setdefault(g.S, (g, sigma))
        return {M: (*table[S], conj) for M, (S, conj) in negation_closure(table).items()}

    @classmethod
    def trivial(cls):
        return cls(plus=frozenset([identity_element()]), minus=frozenset())


_HALF_LATTICE = tuple(itertools.product((0, 2), repeat=3))


def find_symmetries(u):
    """All (S, a) on the half-period lattice with push-forward equal to
    +-u, decided matrix by matrix.

    Each of the 48 matrices S is decided once by _matrix_turns; then, with
    m(k0) in {0, 2} its sign turn at each stored mode k0, (S, a) is in H+
    iff a.(S k0) = m(k0) mod 4 for every k0 and in H- iff
    a.(S k0) + 2 = m(k0), so each translation costs integer arithmetic only.
    """
    if u.is_zero():
        raise ValueError("symmetry search needs a nonzero field")
    coeffs = u.coeffs
    negated = {}
    conjugated = {}
    plus = []
    minus = []
    for S in octahedral_matrices():
        turns = _matrix_turns(S, coeffs, negated, conjugated)
        if turns is None:
            continue
        (Sk0, m0), rest = turns[0], turns[1:]
        for a in _HALF_LATTICE:
            d = (m0 - _phase(a, Sk0)) % 4
            if all((m - _phase(a, Sk)) % 4 == d for Sk, m in rest):
                (plus if d == 0 else minus).append(GroupElement(S, a))
    return SymmetryData(plus=frozenset(plus), minus=frozenset(minus))


def _matrix_turns(S, coeffs, negated, conjugated):
    """The pairs (S k0, m(k0)) over the stored modes k0 of a field with
    coefficients coeffs, where m(k0) is 0 or 2, the sign turn with
    e^{-i (pi/2) m} S u_{k0} equal to the stored coefficient at S k0, or to
    conj(u_{-S k0}) when S k0 is not canonical.  m is unique, as u_{k0} is
    nonzero.  None when some S k0 is not stored up to sign or no sign fits:
    a half-lattice phase is a sign, so no translation completes such an S.
    negated (k0 -> each component of u_{k0} and its negation) and
    conjugated (k -> conj(u_k)) are shared by the calls of one search, so
    each is formed once."""
    images = []
    for k0 in coeffs:
        Sk = _mat_vec(S, k0)
        key = canonical_key(Sk)
        if key not in coeffs:
            return None
        images.append((k0, Sk, key))
    # row i of S u_{k0} is u_{k0}[c], negated (a turn of 2) on -1
    rows = [(i, c, 0 if row[c] > 0 else 2)
            for i, row in enumerate(S) for c in range(3) if row[c]]
    out = []
    for k0, Sk, key in images:
        if key is Sk:
            target = coeffs[key]
        else:
            target = conjugated.get(key)
            if target is None:
                target = conjugated[key] = tuple(p.conj() for p in coeffs[key])
        signed = negated.get(k0)
        if signed is None:
            signed = negated[k0] = tuple((p, -p) for p in coeffs[k0])
        i, c, shift = next(row for row in rows if coeffs[k0][row[1]])
        if signed[c][0] == target[i]:
            m = shift
        elif signed[c][1] == target[i]:
            m = 2 - shift
        else:
            return None
        for j, c, shift in rows:
            if j != i and signed[c][(m + shift) % 4 // 2] != target[j]:
                return None
        out.append((Sk, m))
    return out


def negation_closure(matrices):
    """The matrices and their negations, as a map M -> (S, conj) with M = S
    when conj is False and M = -S when it is True.

    A real field has v_{-k} = conj(v_k), so -S acts on its canonical half
    like S followed by complex conjugation; the closure of a group under
    negation is again a group.
    """
    out = {S: (S, False) for S in matrices}
    for S in matrices:
        out.setdefault(tuple(tuple(-x for x in row) for row in S), (S, True))
    return out


def orbit_partition(keys, matrices):
    """Partition keys into orbits under k -> S k, with a transversal.

    matrices must form a group, so the orbit of a key is the set of its
    images.  Returns (rep, members) pairs in increasing order of rep, the
    smallest key of its orbit; members maps every key of the orbit to the
    first matrix in matrices that carries rep to it.  Orbits are restricted
    to the given key set: for canonical keys under a group closed under
    negation, each orbit is the canonical half of the full one.
    """
    if not matrices:
        raise ValueError("need at least one matrix")
    keys = set(keys)
    orbits = []
    assigned = set()
    for rep in sorted(keys):
        if rep in assigned:
            continue
        members = {}
        for S in matrices:
            k = _mat_vec(S, rep)
            if k in keys and k not in members:
                members[k] = S
        orbits.append((rep, members))
        assigned.update(members)
    return orbits


def canonical_images(keys, matrices):
    """The canonical keys among the images S k of keys under matrices: for
    a group closed under negation, the canonical halves of their orbits."""
    images = set()
    for k in keys:
        for S in matrices:
            Sk = _mat_vec(S, k)
            if is_canonical(Sk):
                images.add(Sk)
    return images


def propagate_coefficient(coeff, k, g, sigma, j, conj=False, turned=None):
    """Exact coefficient of u_j at S k, given the one at k:
    u_{j,Sk} = sigma^{j+1} e^{-i a.(Sk)} S u_{j,k}, conjugated when conj is
    set.

    Returns the pair (Sk, coefficient).  Row i of S holds one entry +-1, in
    column c, so component i is +-coeff[c]: the half-lattice phase, the -1
    entry and the pseudo-symmetry sign each flip the sign or not, and each
    component is a copy or a negation, formed in one pass over its terms.
    turned, if given, is a dict shared by calls on one coeff: each turned
    component, keyed by its column c, its sign and conj, is formed once and
    reused."""
    S = g.S
    Sk = _mat_vec(S, k)
    flip = (_phase(g.a, Sk) == 2) != (sigma == -1 and j % 2 == 0)
    out = []
    for row in S:
        c = 0 if row[0] else 1 if row[1] else 2
        negate = flip != (row[c] < 0)
        p = None if turned is None else turned.get((c, negate, conj))
        if p is None:
            p = -coeff[c] if negate else coeff[c]
            if conj:
                p = p.conj()
            if turned is not None:
                turned[c, negate, conj] = p
        out.append(p)
    return Sk, tuple(out)
