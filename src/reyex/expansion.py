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

from .fields import (
    IntegerForm,
    TimeField,
    add_convolutions,
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
    find_symmetries,
    negation_closure,
    orbit_partition,
    propagate_coefficient,
)

__all__ = [
    "Expansion",
    "ResourceLimitError",
    "CacheError",
    "expand",
    "residual_tail",
    "cache_store",
    "cache_load",
]

CACHE_FORMAT = "reyex-cache/1"
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
    datum_id: str
    N: int
    coeffs: list  # TimeField, u_0 .. u_N
    symmetry: SymmetryData | None
    meta: list = dc_field(default_factory=list)
    tails: list | None = None  # residual tail fields, j = N+1 .. 2N+1

    def order_stats(self, j):
        u = self.coeffs[j]
        polys = [p for vec in u.coeffs.values() for p in vec]
        return {
            "order": j,
            "nonzero_coefficients": u.num_modes(),
            "canonical_modes": len(u.coeffs),
            "orbits": self._orbit_count(u),
            "terms": sum(p.num_terms() for p in polys),
            "degree_t": max((p.degree_t() for p in polys), default=-1),
            "degree_exp": max((p.degree_exp() for p in polys), default=-1),
        }

    @property
    def group(self):
        """The symmetry the coefficients are computed under: the trivial
        group for an unpruned expansion."""
        return self.symmetry or SymmetryData.trivial()

    def _orbit_count(self, u):
        if self.symmetry is None:
            return None
        mats = list(self.symmetry.reduced_union)
        if not mats:
            return None
        full = set()
        for k in u.coeffs:
            full.add(k)
            full.add((-k[0], -k[1], -k[2]))
        return len(orbit_partition(full, mats))


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


def _propagation_routes(sym):
    """Map each matrix M of the reduced group closed under negation to
    (g, sigma, conj): g = (S, a) is the group element with sign sigma for
    M = S, and conj is set when M = -S, which is g followed by conjugation."""
    table = sym.transform_table()
    return {
        M: (GroupElement(S, table[S][0]), table[S][1], conj)
        for M, (S, conj) in negation_closure(table).items()
    }


def _materialize_orbit(rep, rep_vec, members, routes, j):
    """Spread the representative coefficient over the canonical members of
    its orbit: one propagation through the group matrix S that carries rep
    to each member, conjugated when the member is reached through -S."""
    coeffs = {}
    for k, M in members.items():
        g, sigma, conj = routes[M]
        _, vec = propagate_coefficient(rep_vec, rep, g, sigma, j)
        coeffs[k] = (vec[0].conj(), vec[1].conj(), vec[2].conj()) if conj else vec
    return coeffs


def _sum_convolutions(fulls, pairs, k):
    """sum over (l, m) in pairs of the raw convolution of u_l, u_m at k;
    fulls holds the IntegerForm of each u_l."""
    raws = []
    for l, m in pairs:
        raw = convolution_coefficient(fulls[l], fulls[m], k)
        if raw is not None:
            raws.append(raw)
    return add_convolutions(raws)


def _bilinear_order_field(fulls, pairs, routes, j, tail=False, count=None):
    """The field sum_{(l,m) in pairs} P(u_l, u_m), computed at orbit
    representatives only and propagated.  Each representative is Duhamel'd
    for a coefficient u_j, or negated for a residual tail; propagation is
    linear, so that is the same as negating the whole field.  count, if
    given, is called with the terms of each orbit as it is added."""
    cand = set()
    for l, m in pairs:
        cand |= _candidate_support(fulls[l].modes, fulls[m].modes)
    coeffs = {}
    for rep, members in orbit_partition(cand, list(routes)):
        raw = _sum_convolutions(fulls, pairs, rep)
        if raw is None:
            continue
        if tail:
            # -acc/den = acc/(-den): each rational normalizes the sign
            den, acc = raw
            raw = (-den, acc)
        vec = project_mode(rep, raw)
        if _zero_vec(vec):
            continue
        if not tail:
            vec = duhamel_mode(rep, vec)
        orbit = _materialize_orbit(rep, vec, members, routes, j)
        coeffs.update(orbit)
        if count is not None:
            count(sum(_vec_terms(v) for v in orbit.values()))
    return TimeField(coeffs, validate=False)


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
    without it, the recursion runs under the trivial group and .symmetry is
    None.

    The running term count is checked against term_ceiling as each orbit
    of an order is added; past it, ResourceLimitError is raised with the
    completed orders as .partial.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    datum.validate()
    sym = None
    if use_symmetry:
        sym = symmetry if symmetry is not None else (
            find_symmetries(datum) if datum else SymmetryData.trivial()
        )
    u0 = heat_apply(datum)
    coeffs = [u0]
    meta = []
    total_terms = _term_count(u0)
    exp = Expansion(datum_id=datum_id, N=0, coeffs=coeffs, symmetry=sym, meta=meta)
    meta.append(exp.order_stats(0))

    routes = _propagation_routes(exp.group)
    fulls = [IntegerForm(u0)]

    def count(terms):
        nonlocal total_terms
        total_terms += terms
        if total_terms > term_ceiling:
            raise ResourceLimitError(
                "term ceiling exceeded at order %d (%d terms > %d)"
                % (exp.N + 1, total_terms, term_ceiling),
                partial=exp,
            )

    for j in range(1, N + 1):
        t0 = time.monotonic()
        pairs = [(l, j - 1 - l) for l in range(j)]
        uj = _bilinear_order_field(fulls, pairs, routes, j, count=count)
        fulls.append(IntegerForm(uj))
        coeffs.append(uj)
        exp.N = j
        stats = exp.order_stats(j)
        stats["wall_seconds"] = round(time.monotonic() - t0, 3)
        meta.append(stats)
        if progress is not None:
            progress(stats)
    return exp


def residual_tail(exp):
    """The tail coefficients of d u^N/dt - Delta u^N - R P(u^N, u^N):

    tail_j = - sum_{l=j-N-1}^{N} P(u_l, u_{j-l-1}),   j = N+1 .. 2N+1.

    Cached on the expansion after the first call.
    """
    if exp.tails is not None:
        return exp.tails
    N = exp.N
    routes = _propagation_routes(exp.group)
    fulls = [IntegerForm(u) for u in exp.coeffs]
    tails = []
    for j in range(N + 1, 2 * N + 2):
        pairs = [(l, j - 1 - l) for l in range(j - N - 1, N + 1)]
        tails.append(_bilinear_order_field(fulls, pairs, routes, j, tail=True))
    exp.tails = tails
    return tails


# -- persistent cache ----------------------------------------------------------


def _symmetry_payload(sym):
    if sym is None:
        return None

    def enc(gs):
        return sorted([list(g.S[0]), list(g.S[1]), list(g.S[2]), list(g.a)] for g in gs)

    return {"plus": enc(sym.plus), "minus": enc(sym.minus)}


def _symmetry_from_payload(payload):
    if payload is None:
        return None

    def dec(items):
        out = []
        for row in items:
            S = (tuple(row[0]), tuple(row[1]), tuple(row[2]))
            out.append(GroupElement(S, tuple(row[3])))
        return frozenset(out)

    plus = dec(payload["plus"])
    minus = dec(payload["minus"])
    return SymmetryData(
        plus=plus,
        minus=minus,
        reduced_plus=frozenset(g.S for g in plus),
        reduced_minus=frozenset(g.S for g in minus),
    )


def _field_digest(field):
    payload = json.dumps(field.to_payload(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def cache_store(exp, path):
    """Write an expansion to a cache directory; exact textual round trip."""
    os.makedirs(path, exist_ok=True)
    manifest = {
        "format": CACHE_FORMAT,
        "datum_id": exp.datum_id,
        "N": exp.N,
        "symmetry": _symmetry_payload(exp.symmetry),
        "orders": exp.meta,
        "datum_hash": _field_digest(exp.coeffs[0]),
        "has_tails": exp.tails is not None,
    }
    for j, u in enumerate(exp.coeffs):
        with open(os.path.join(path, "u_%03d.json" % j), "w") as fh:
            json.dump(u.to_payload(name=exp.datum_id, j=j), fh)
    if exp.tails is not None:
        for i, tail in enumerate(exp.tails):
            j = exp.N + 1 + i
            with open(os.path.join(path, "tail_%03d.json" % j), "w") as fh:
                json.dump(tail.to_payload(name=exp.datum_id, j=j), fh)
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def cache_load(path):
    """Load an expansion cache; re-validates every field invariant."""
    manifest_path = os.path.join(path, "manifest.json")
    if not os.path.exists(manifest_path):
        raise CacheError("no manifest.json in %s" % (path,))
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != CACHE_FORMAT:
        raise CacheError("unsupported cache format %r" % (manifest.get("format"),))
    N = manifest["N"]
    coeffs = []
    for j in range(N + 1):
        fpath = os.path.join(path, "u_%03d.json" % j)
        try:
            with open(fpath) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CacheError("unreadable cache file %s: %s" % (fpath, exc)) from exc
        try:
            coeffs.append(TimeField.from_payload(payload))
        except ValueError as exc:
            raise CacheError("invalid field in %s: %s" % (fpath, exc)) from exc
    tails = None
    if manifest.get("has_tails"):
        tails = []
        for j in range(N + 1, 2 * N + 2):
            fpath = os.path.join(path, "tail_%03d.json" % j)
            try:
                with open(fpath) as fh:
                    payload = json.load(fh)
                tails.append(TimeField.from_payload(payload))
            except (OSError, json.JSONDecodeError, ValueError) as exc:
                raise CacheError("invalid tail in %s: %s" % (fpath, exc)) from exc
    exp = Expansion(
        datum_id=manifest.get("datum_id", ""),
        N=N,
        coeffs=coeffs,
        symmetry=_symmetry_from_payload(manifest.get("symmetry")),
        meta=manifest.get("orders", []),
        tails=tails,
    )
    if _field_digest(exp.coeffs[0]) != manifest.get("datum_hash"):
        raise CacheError("datum hash mismatch; cache does not match its manifest")
    return exp
