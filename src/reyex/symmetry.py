"""Rototranslation symmetries of torus fields.

The group is O(3,Z) x T^3 (semidirect product) acting by push-forward.  Only
translations on the quarter-period lattice {0, pi/2, pi, 3pi/2}^3 are
representable, because only those produce Gaussian-rational phases
e^{-i a.k}; every symmetry listed for the shipped data lives on the
half-period sublattice {0, pi}^3.  Translations are stored as integer triples
in units of pi/2.

find_symmetries decides each of the 48 signed permutations S once, by the
support and the quarter turn that S takes each stored coefficient to; each
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
    """A signed-permutation matrix with a quarter-period-lattice translation.

    S is a 3x3 tuple-of-tuples over {-1,0,1} with S^T S = 1; a is a triple of
    integers mod 4, each unit worth pi/2.
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
    """n mod 4 for the phase e^{-i (pi/2) n} = e^{-i a.k}."""
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
_QUARTER_LATTICE = tuple(itertools.product((0, 1, 2, 3), repeat=3))


def find_symmetries(u, lattice="half"):
    """All (S, a) with push-forward equal to +-u, decided matrix by matrix.

    lattice selects the translation candidates: 'half' is {0, pi}^3 (enough
    for the shipped data), 'quarter' widens to {0, pi/2, pi, 3pi/2}^3 for
    user data.  Each of the 48 matrices S is decided once by _matrix_turns;
    then, with m(k0) its quarter turn at each stored mode k0, (S, a) is in
    H+ iff a.(S k0) = m(k0) mod 4 for every k0 and in H- iff
    a.(S k0) + 2 = m(k0), so each translation costs integer arithmetic only.
    """
    if u.is_zero():
        raise ValueError("symmetry search needs a nonzero field")
    if lattice == "half":
        translations = _HALF_LATTICE
    elif lattice == "quarter":
        translations = _QUARTER_LATTICE
    else:
        raise ValueError("lattice must be 'half' or 'quarter', got %r" % (lattice,))
    coeffs = u.coeffs
    turned = {}
    conjugated = {}
    plus = []
    minus = []
    for S in octahedral_matrices():
        turns = _matrix_turns(S, coeffs, turned, conjugated)
        if turns is None:
            continue
        (Sk0, m0), rest = turns[0], turns[1:]
        for a in translations:
            d = (m0 - _phase(a, Sk0)) % 4
            if d in (0, 2) and all((m - _phase(a, Sk)) % 4 == d for Sk, m in rest):
                (plus if d == 0 else minus).append(GroupElement(S, a))
    return SymmetryData(plus=frozenset(plus), minus=frozenset(minus))


def _matrix_turns(S, coeffs, turned, conjugated):
    """The pairs (S k0, m(k0)) over the stored modes k0 of a field with
    coefficients coeffs, where m(k0) in 0..3 is the quarter turn with
    e^{-i (pi/2) m} S u_{k0} equal to the stored coefficient at S k0, or to
    conj(u_{-S k0}) when S k0 is not canonical.  m is unique, as u_{k0} is
    nonzero.  None when some S k0 is not stored up to sign or no quarter
    turn fits.  turned (k0 -> the four quarter turns of each component of
    u_{k0}) and conjugated (k -> conj(u_k)) are shared by the calls of one
    search, so each is formed once."""
    images = []
    for k0 in coeffs:
        Sk = _mat_vec(S, k0)
        key = canonical_key(Sk)
        if key not in coeffs:
            return None
        images.append((k0, Sk, key))
    # row i of S u_{k0} is u_{k0}[c], negated (two more quarter turns) on -1
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
        four = turned.get(k0)
        if four is None:
            four = turned[k0] = tuple(
                tuple(_quarter_turn(p, r) for r in range(4)) for p in coeffs[k0]
            )
        i, c, shift = next(row for row in rows if coeffs[k0][row[1]])
        for r in range(4):
            if four[c][r] == target[i]:
                m = (r - shift) % 4
                break
        else:
            return None
        for j, c, shift in rows:
            if j != i and four[c][(m + shift) % 4] != target[j]:
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


def _quarter_turn(p, n):
    """e^{-i (pi/2) n} p for n in 0..3: a copy, a rotation or a negation,
    never a product."""
    if n == 0:
        return p
    if n == 1:
        return p.mul_minus_i()
    if n == 2:
        return -p
    return p.mul_i()


def propagate_coefficient(coeff, k, g, sigma, j, conj=False, turned=None):
    """Exact coefficient of u_j at S k, given the one at k:
    u_{j,Sk} = sigma^{j+1} e^{-i a.(Sk)} S u_{j,k}, conjugated when conj is
    set.

    Returns the pair (Sk, coefficient).  Row i of S holds one entry +-1, in
    column c, so component i is e^{-i (pi/2) n} (+-coeff[c]); a -1 entry adds
    two quarter turns to n, and each component takes one pass over its
    terms.  turned, if given, is a dict shared by calls on one coeff: each
    turned component, keyed by its column c, its quarter turns mod 4 and
    conj, is formed once and reused."""
    S = g.S
    Sk = _mat_vec(S, k)
    n = _phase(g.a, Sk)
    if sigma == -1 and j % 2 == 0:
        n += 2
    out = []
    for row in S:
        c = 0 if row[0] else 1 if row[1] else 2
        turns = (n if row[c] > 0 else n + 2) % 4
        p = None if turned is None else turned.get((c, turns, conj))
        if p is None:
            p = _quarter_turn(coeff[c], turns)
            if conj:
                p = p.conj()
            if turned is not None:
                turned[c, turns, conj] = p
        out.append(p)
    return Sk, tuple(out)
