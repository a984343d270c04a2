"""The Reynolds-expansion recursion.

u_0(t) = e^{t Delta} u_*,  u_j(t) = sum_{l=0}^{j-1} Duhamel(P(u_l, u_{j-l-1})),

computed with symmetry pruning: only one representative wave vector per
orbit of the reduced symmetry group (extended by complex conjugation) is
convolved, and the rest of the orbit is materialized through the
coefficient-propagation identity.  An unpruned expansion runs the same route
under the trivial group, where every canonical mode is its own orbit and is
propagated by the identity.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field as dc_field

from mpmath.libmp import BACKEND as MPMATH_BACKEND

from .fields import (
    IntegerForm,
    TimeField,
    bilinear_P,  # not called here; bench/tracing.py wraps it by this name
    convolution_coefficient,
    duhamel_mode,
    heat_apply,
    is_canonical,
    project_mode,
)
from .symmetry import (
    GroupElement,
    SymmetryData,
    canonical_images,
    find_symmetries,
    identity_element,
    octahedral_matrices,
    orbit_partition,
    propagate_coefficient,
)
from .rationals import MPQ_BACKEND

__all__ = [
    "Expansion",
    "ResourceLimitError",
    "CacheError",
    "expand",
    "residual_tail",
    "cache_store",
    "cache_load",
]

CACHE_FORMAT = "reyex-cache/2"  # each field file lists its orbit representatives
FULL_CACHE_FORMAT = "reyex-cache/1"  # each field file lists every canonical mode
DEFAULT_TERM_CEILING = 10_000_000


class ResourceLimitError(RuntimeError):
    """Raised when an expansion exceeds the configured term ceiling; carries
    the completed orders as .partial."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CacheError(RuntimeError):
    pass


@dataclass
class Expansion:
    """The coefficients u_0 .. u_N of a datum, and the group they were
    computed under: the datum's SymmetryData, or SymmetryData.trivial() for
    an unpruned run.  Every orbit partition of the expansion, its cache and
    its Gram tables reads symmetry.routes."""

    datum_id: str
    N: int
    coeffs: list  # TimeField, u_0 .. u_N
    symmetry: SymmetryData
    meta: list = dc_field(default_factory=list)
    tails: list | None = None  # residual tail fields, j = N+1 .. 2N+1
    tail_meta: list = dc_field(default_factory=list)  # per tail: order, terms, wall_seconds

    def order_stats(self, j):
        """Size figures of u_j.  orbits counts the classes of its support
        under the group's routes: the representatives the expansion
        convolved, with O and -O one class even where -I is not in S+ | S-.
        Under the trivial group each canonical mode is its own class."""
        u = self.coeffs[j]
        polys = [p for vec in u.coeffs.values() for p in vec]
        return {
            "order": j,
            "nonzero_coefficients": u.num_modes(),
            "canonical_modes": len(u.coeffs),
            "orbits": len(orbit_partition(u.coeffs, list(self.symmetry.routes))),
            "terms": sum(p.num_terms() for p in polys),
            "degree_t": max((p.degree_t() for p in polys), default=-1),
            "degree_exp": max((p.degree_exp() for p in polys), default=-1),
        }


def _zero_vec(vec):
    return vec[0].is_zero() and vec[1].is_zero() and vec[2].is_zero()


def _vec_terms(vec):
    return vec[0].num_terms() + vec[1].num_terms() + vec[2].num_terms()


def _term_count(field):
    return sum(_vec_terms(vec) for vec in field.coeffs.values())


def _candidate_support(full_a, full_b):
    """Canonical wave vectors of the convolution of two full supports."""
    out = set()
    for h in full_a:
        for h2 in full_b:
            k = (h[0] + h2[0], h[1] + h2[1], h[2] + h2[2])
            if is_canonical(k):
                out.add(k)
    return out


def _materialize_orbit(rep, rep_vec, members, routes, j):
    """Spread the representative coefficient over the canonical members of
    its orbit: one propagation through the group matrix S that carries rep
    to each member, conjugated when the member is reached through -S.  The
    members share each turned component (propagate_coefficient), so an orbit
    holds at most 12 distinct polys: 3 components, 2 signs, with and without
    conjugation.  A single member has nothing to share."""
    turned = {} if len(members) > 1 else None
    coeffs = {}
    for k, M in members.items():
        g, sigma, conj = routes[M]
        coeffs[k] = propagate_coefficient(rep_vec, rep, g, sigma, j, conj, turned)[1]
    return coeffs


def _orders(exp, N, orders, term_ceiling):
    """Yield (j, field) for each j in orders of the recursion truncated at N:

    sum_{l = max(0, j-N-1)}^{min(j-1, N)} P(u_l, u_{j-l-1}),

    Duhamel'd into the coefficient u_j for j <= N and negated into the
    residual tail tail_j for j > N.  Each field is computed at orbit
    representatives only and propagated over the orbit; propagation is
    linear, so negating a representative negates its orbit.

    The integer forms of u_0 .. u_{min(j-1, N)} are formed as order j first
    reads them, so exp.coeffs may grow between orders.  One running count of
    every term the expansion holds, its coefficients and then the orders
    yielded, is checked against term_ceiling as each orbit is added; past
    it, ResourceLimitError is raised with exp as .partial.
    """
    routes = exp.symmetry.routes
    keys = list(routes)
    total = sum(_term_count(u) for u in exp.coeffs)
    fulls = []
    for j in orders:
        tail = j > N
        while len(fulls) < min(j, N + 1):
            fulls.append(IntegerForm(exp.coeffs[len(fulls)]))
        pairs = [(fulls[l], fulls[j - 1 - l]) for l in range(max(0, j - N - 1), min(j - 1, N) + 1)]
        cand = set()
        for fv, fw in pairs:
            cand |= _candidate_support(fv.modes, fw.modes)
        coeffs = {}
        for rep, members in orbit_partition(cand, keys):
            raw = convolution_coefficient(pairs, rep)
            if raw is None:
                continue
            if tail:
                # -acc/den = acc/(-den): project_mode folds the sign back in
                raw = (-raw[0], raw[1])
            vec = project_mode(rep, raw)
            if _zero_vec(vec):
                continue
            if not tail:
                vec = duhamel_mode(rep, vec)
            orbit = _materialize_orbit(rep, vec, members, routes, j)
            coeffs.update(orbit)
            total += sum(_vec_terms(v) for v in orbit.values())
            if total > term_ceiling:
                raise ResourceLimitError(
                    "term ceiling exceeded at order %d (%d terms > %d)" % (j, total, term_ceiling),
                    partial=exp,
                )
        yield j, TimeField(coeffs, validate=False)


def expand(
    datum,
    N,
    use_symmetry=True,
    symmetry=None,
    datum_id="",
    term_ceiling=DEFAULT_TERM_CEILING,
    progress=None,
):
    """Compute the expansion coefficients u_0 .. u_N for a static datum.

    datum is a TimeField with constant coefficients.  With use_symmetry the
    datum's symmetry group is discovered (or taken from the symmetry
    argument) and the recursion only convolves orbit representatives;
    without it, .symmetry is the trivial group and every canonical mode is
    convolved.

    The running term count is checked against term_ceiling as each orbit
    of an order is added; past it, ResourceLimitError is raised with the
    completed orders as .partial.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    datum.validate()
    if not use_symmetry:
        symmetry = SymmetryData.trivial()
    elif symmetry is None:
        symmetry = find_symmetries(datum) if datum else SymmetryData.trivial()
    exp = Expansion(datum_id=datum_id, N=0, coeffs=[heat_apply(datum)], symmetry=symmetry)
    exp.meta.append(exp.order_stats(0))
    t0 = time.monotonic()
    for j, uj in _orders(exp, N, range(1, N + 1), term_ceiling):
        exp.coeffs.append(uj)
        exp.N = j
        stats = exp.order_stats(j)
        stats["wall_seconds"] = round(time.monotonic() - t0, 3)
        exp.meta.append(stats)
        if progress is not None:
            progress(stats)
        t0 = time.monotonic()
    return exp


def residual_tail(exp, term_ceiling=DEFAULT_TERM_CEILING, progress=None):
    """The tail coefficients of d u^N/dt - Delta u^N - R P(u^N, u^N):

    tail_j = - sum_{l=j-N-1}^{N} P(u_l, u_{j-l-1}),   j = N+1 .. 2N+1.

    Cached on the expansion after the first call, with the order, term count
    and wall seconds of each tail in exp.tail_meta.  The wall seconds of the
    first tail include forming the integer forms of u_0..u_N.

    The tails' terms count toward the expansion's term ceiling on top of its
    coefficients' terms; past term_ceiling, ResourceLimitError is raised with
    exp as .partial, its tails still None.  progress, if given, is called
    with each tail's tail_meta record as the tail is made.
    """
    if exp.tails is not None:
        return exp.tails
    N = exp.N
    tails, meta = [], []
    t0 = time.monotonic()
    for j, tail in _orders(exp, N, range(N + 1, 2 * N + 2), term_ceiling):
        tails.append(tail)
        t1 = time.monotonic()
        meta.append({"order": j, "terms": _term_count(tail), "wall_seconds": round(t1 - t0, 3)})
        if progress is not None:
            progress(meta[-1])
        t0 = time.monotonic()
    exp.tails = tails
    exp.tail_meta = meta
    return tails


# -- persistent cache ----------------------------------------------------------


def _symmetry_payload(sym):
    def enc(gs):
        return sorted([list(g.S[0]), list(g.S[1]), list(g.S[2]), list(g.a)] for g in gs)

    return {"plus": enc(sym.plus), "minus": enc(sym.minus)}


def _int_triple(x):
    return isinstance(x, list) and len(x) == 3 and all(type(v) is int for v in x)


def _symmetry_from_payload(payload):
    """The SymmetryData of a manifest's symmetry entry; null, which the
    unpruned caches of older versions hold, is the trivial group.
    CacheError unless plus and minus are lists of [S rows, a] with S a
    signed permutation matrix and a a triple over {0, 2}, a half-period
    translation in units of pi/2, and plus holds the identity."""
    if payload is None:
        return SymmetryData.trivial()
    signed_permutations = set(octahedral_matrices())

    def dec(items):
        if not isinstance(items, list):
            return None
        out = []
        for row in items:
            if not (isinstance(row, list) and len(row) == 4 and all(map(_int_triple, row))):
                return None
            g = GroupElement(tuple(map(tuple, row[:3])), tuple(row[3]))
            if g.S not in signed_permutations or not all(x in (0, 2) for x in g.a):
                return None
            out.append(g)
        return frozenset(out)

    plus = minus = None
    if isinstance(payload, dict):
        plus, minus = dec(payload.get("plus")), dec(payload.get("minus"))
    if plus is None or minus is None or identity_element() not in plus:
        raise CacheError("malformed symmetry in manifest: %r" % (payload,))
    return SymmetryData(plus=plus, minus=minus)


def _read_field(path, name, digests):
    """Read and validate one field file, then check its bytes against the
    manifest's digest."""
    fpath = os.path.join(path, name)
    try:
        with open(fpath, "rb") as fh:
            blob = fh.read()
        field = TimeField.from_payload(json.loads(blob))
    except (OSError, ValueError) as exc:
        raise CacheError("invalid cache file %s: %s" % (fpath, exc)) from exc
    if hashlib.sha256(blob).hexdigest() != digests.get(name):
        raise CacheError("%s does not match its manifest digest" % (fpath,))
    return field


def _spread(stored, routes, j):
    """The field of order j whose orbit representatives stored holds, each
    spread over its orbit as _orders spreads it, or None unless stored holds
    exactly one representative per orbit: the smallest key of each."""
    keys = list(routes)
    coeffs = {}
    orbits = orbit_partition(canonical_images(stored.coeffs, keys), keys)
    if len(orbits) != len(stored.coeffs):
        return None
    for rep, members in orbits:
        vec = stored.coeffs.get(rep)
        if vec is None:
            return None
        coeffs.update(_materialize_orbit(rep, vec, members, routes, j))
    return TimeField(coeffs, validate=False)


def _field_names(N, tails):
    """The coefficient file names of an order-N cache, then its tail file
    names if it has tails."""
    names = ["u_%03d.json" % j for j in range(N + 1)]
    if tails:
        names += ["tail_%03d.json" % j for j in range(N + 1, 2 * N + 2)]
    return names


def cache_store(exp, path):
    """Write an expansion to a cache directory; exact round trip.  Each
    field file lists the field's orbit representatives under the
    expansion's routes, from which cache_load spreads the rest.  The
    manifest records the sha256 of every coefficient and tail file, its
    orbits, stored terms and spread terms, the arithmetic backends of the
    run and the cost of each residual tail."""
    os.makedirs(path, exist_ok=True)
    fields = exp.coeffs + (exp.tails or [])
    keys = list(exp.symmetry.routes)
    digests, files = {}, {}
    for j, (name, field) in enumerate(zip(_field_names(exp.N, exp.tails is not None), fields)):
        reps = TimeField(
            {rep: field.coeffs[rep] for rep, _ in orbit_partition(field.coeffs, keys)},
            validate=False,
        )
        text = json.dumps(reps.to_payload(name=exp.datum_id, j=j))
        with open(os.path.join(path, name), "w") as fh:
            fh.write(text)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
        files[name] = {
            "orbits": len(reps.coeffs),
            "stored_terms": _term_count(reps),
            "terms": _term_count(field),
        }
    manifest = {
        "format": CACHE_FORMAT,
        "datum_id": exp.datum_id,
        "N": exp.N,
        "symmetry": _symmetry_payload(exp.symmetry),
        "orders": exp.meta,
        "has_tails": exp.tails is not None,
        "digests": digests,
        "files": files,
        "backend": {"mpq": MPQ_BACKEND, "mpmath": MPMATH_BACKEND},
        "tails": exp.tail_meta,
    }
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def cache_load(path):
    """Load an expansion cache; re-validates every field invariant of the
    stored modes and checks every field file against its manifest digest.
    A reyex-cache/2 file's representatives are spread over their orbits
    under the manifest's symmetry; a reyex-cache/1 file holds every mode.
    A null or missing symmetry is read as the trivial group.  A manifest
    whose N is not an int >= 0, whose has_tails is not a bool, or whose
    symmetry is neither null nor well formed raises CacheError, as does a
    reyex-cache/2 file that is not exactly one representative per orbit."""
    manifest_path = os.path.join(path, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CacheError("unreadable manifest %s: %s" % (manifest_path, exc)) from exc
    if not isinstance(manifest, dict):
        raise CacheError("manifest %s is not a JSON object" % (manifest_path,))
    fmt = manifest.get("format")
    if fmt not in (CACHE_FORMAT, FULL_CACHE_FORMAT):
        raise CacheError("unsupported cache format %r" % (fmt,))
    digests = manifest.get("digests")
    if not isinstance(digests, dict):
        raise CacheError("manifest in %s has no file digests; re-run `reyex expand`" % (path,))
    N, has_tails = manifest.get("N"), manifest.get("has_tails")
    if type(N) is not int or N < 0:
        raise CacheError("manifest in %s has no valid order N: %r" % (path, N))
    if type(has_tails) is not bool:
        raise CacheError("manifest in %s has no valid has_tails: %r" % (path, has_tails))
    symmetry = _symmetry_from_payload(manifest.get("symmetry"))
    fields = []
    for j, name in enumerate(_field_names(N, has_tails)):
        field = _read_field(path, name, digests)
        if fmt == CACHE_FORMAT:
            field = _spread(field, symmetry.routes, j)
            if field is None:
                fpath = os.path.join(path, name)
                raise CacheError("%s is not one representative per orbit" % (fpath,))
        fields.append(field)
    return Expansion(
        datum_id=manifest.get("datum_id", ""),
        N=N,
        coeffs=fields[: N + 1],
        symmetry=symmetry,
        meta=manifest.get("orders", []),
        tails=fields[N + 1 :] if has_tails else None,
        tail_meta=manifest.get("tails", []),
    )
