import hashlib
import json
import os
import random
import re
from fractions import Fraction

import pytest
from oracles import assert_residual_identity

import reyex.expansion
from reyex.data import datum_bnw, datum_km, datum_tg
from reyex.estimators import EstimatorTables, default_grid
from reyex.expansion import (
    CacheError,
    Expansion,
    ResourceLimitError,
    cache_load,
    cache_store,
    expand,
    residual_tail,
)
from reyex.fields import TimeField, canonical_key, heat_apply, leray_project, static_field
from reyex.rationals import GaussianRational, mpq
from reyex.symmetry import SymmetryData, orbit_partition


def random_two_mode_datum(seed):
    """Random incompressible zero-mean real field supported on two modes."""
    rng = random.Random(seed)
    while True:
        ks = set()
        while len(ks) < 2:
            k = tuple(rng.randint(-2, 2) for _ in range(3))
            if k != (0, 0, 0):
                ks.add(k)
        modes = {}
        for k in ks:
            vec = tuple(
                GaussianRational(mpq(rng.randint(-4, 4), rng.randint(1, 3)),
                                 mpq(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(3)
            )
            const = leray_project(k, vec)
            if any(const):
                modes[k] = const
        if len(modes) == 2:
            return static_field(modes)


def test_order_zero_is_the_heat_flow():
    d = datum_bnw()
    exp = expand(d.field, 0, datum_id="bnw")
    assert exp.coeffs[0] == heat_apply(d.field)


def test_pruned_and_plain_agree_symbolically():
    """Pruned and plain runs share one route, so the pruned expansion and its
    tails are also checked against bilinear_P's pair loop."""
    for d, N in ((datum_bnw(), 3), (datum_tg(), 3)):
        pruned = expand(d.field, N, datum_id=d.name)
        plain = expand(d.field, N, use_symmetry=False, datum_id=d.name)
        for a, b in zip(pruned.coeffs, plain.coeffs):
            assert a == b
        for a, b in zip(residual_tail(pruned), residual_tail(plain)):
            assert a == b
        assert_residual_identity(pruned)


def test_pruned_expansion_propagates_each_stored_mode_once(monkeypatch):
    calls = []
    propagate = reyex.expansion.propagate_coefficient

    def counted(coeff, k, g, sigma, j, *shared):
        calls.append(j)
        return propagate(coeff, k, g, sigma, j, *shared)

    monkeypatch.setattr(reyex.expansion, "propagate_coefficient", counted)
    exp = expand(datum_km().field, 2, datum_id="km")
    for j in (1, 2):
        assert calls.count(j) == len(exp.coeffs[j].coeffs)
    assert len(calls) == 276


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_residual_identity_random_data(seed, N):
    """Orders R^1..R^N of the residual vanish symbolically and the remaining
    orders R^{N+1}..R^{2N+1} equal the tail coefficients."""
    u_star = random_two_mode_datum(seed)
    assert_residual_identity(expand(u_star, N, use_symmetry=False))


def test_initial_condition_of_higher_orders():
    exp = expand(datum_bnw().field, 3, datum_id="bnw")
    for j in range(1, 4):
        for vec in exp.coeffs[j].coeffs.values():
            for p in vec:
                v = p.evaluate(0)
                assert abs(v) < 1e-60


def test_term_ceiling_raises_with_partial_result(monkeypatch):
    """The ceiling is checked as an order's modes are added: with room for
    orders 0..2 only, the raise comes before order 3 is finished, and
    .partial holds orders 0..2, equal to an unbounded run's."""
    with pytest.raises(ResourceLimitError) as err:
        expand(datum_bnw().field, 4, datum_id="bnw", term_ceiling=100)
    partial = err.value.partial
    assert isinstance(partial, Expansion)
    assert partial.N >= 1

    # modes built: one propagation per stored mode of an order, pruned or
    # plain
    built = []
    propagate = reyex.expansion.propagate_coefficient

    def counted_propagate(coeff, k, g, sigma, j, *shared):
        built.append(j)
        return propagate(coeff, k, g, sigma, j, *shared)

    monkeypatch.setattr(reyex.expansion, "propagate_coefficient", counted_propagate)
    for use_symmetry in (True, False):
        full = expand(datum_bnw().field, 3, use_symmetry=use_symmetry, datum_id="bnw")
        ceiling = sum(s["terms"] for s in full.meta[:3])
        built.clear()
        with pytest.raises(ResourceLimitError) as err:
            expand(datum_bnw().field, 3, use_symmetry=use_symmetry, datum_id="bnw",
                   term_ceiling=ceiling)
        partial = err.value.partial
        assert partial.N == 2
        assert len(partial.coeffs) == 3 and len(partial.meta) == 3
        for a, b in zip(partial.coeffs, full.coeffs):
            assert a == b
        modes_built = built.count(3)
        assert 0 < modes_built < len(full.coeffs[3].coeffs)


def test_tails_count_toward_the_term_ceiling():
    """residual_tail counts its terms on top of the coefficients' under one
    ceiling: a ceiling the tails alone meet but the whole expansion passes
    raises, its .partial the expansion with no tails; a ceiling the whole
    expansion meets gives the unbounded run's tails."""
    exp = expand(datum_bnw().field, 4, datum_id="bnw")
    coeff_terms = sum(s["terms"] for s in exp.meta)
    unbounded = expand(datum_bnw().field, 4, datum_id="bnw")
    tails = residual_tail(unbounded)
    tail_terms = sum(t["terms"] for t in unbounded.tail_meta)
    assert tail_terms > coeff_terms

    for ceiling in (coeff_terms + 1, tail_terms):
        with pytest.raises(ResourceLimitError) as err:
            residual_tail(exp, term_ceiling=ceiling)
        assert err.value.partial is exp
        assert exp.tails is None and exp.tail_meta == []
        counted, limit = map(int, re.search(r"\((\d+) terms > (\d+)\)", str(err.value)).groups())
        assert limit == ceiling < counted <= coeff_terms + tail_terms

    bounded = residual_tail(exp, term_ceiling=coeff_terms + tail_terms)
    assert bounded == tails
    assert [(t["order"], t["terms"]) for t in exp.tail_meta] == [
        (t["order"], t["terms"]) for t in unbounded.tail_meta
    ]


def test_meta_statistics_are_recorded():
    exp = expand(datum_bnw().field, 2, datum_id="bnw")
    assert [s["order"] for s in exp.meta] == [0, 1, 2]
    for s in exp.meta:
        assert s["terms"] > 0
        assert s["nonzero_coefficients"] > 0


@pytest.mark.parametrize("datum, golden", [
    (datum_bnw, [1, 1, 3, 6]), (datum_tg, None), (datum_km, [1, 4, 14, 33]),
], ids=["bnw", "tg", "km"])
def test_orbit_counts_are_the_classes_of_the_routes(datum, golden):
    exp = expand(datum().field, 3, datum_id="x")
    sym = exp.symmetry
    mats = list(sym.routes)
    assert ((-1, 0, 0), (0, -1, 0), (0, 0, -1)) in sym.reduced_plus | sym.reduced_minus

    def image(M, k):
        return tuple(sum(M[i][m] * k[m] for m in range(3)) for i in range(3))

    counts = []
    for j, u in enumerate(exp.coeffs):
        # each key's class, its canonical images under the routes' matrices
        classes = {frozenset(canonical_key(image(M, k)) for M in mats) for k in u.coeffs}
        assert set().union(*classes) == u.coeffs.keys()
        counts.append(exp.order_stats(j)["orbits"])
        assert counts[-1] == len(classes) == exp.meta[j]["orbits"]
        # -I is in S+ | S-, so the count over both signs of the support
        # under S+ | S- is the same
        both = set(u.coeffs) | {(-x, -y, -z) for x, y, z in u.coeffs}
        assert counts[-1] == len(orbit_partition(both, list(sym.reduced_plus | sym.reduced_minus)))
    assert golden is None or counts == golden


@pytest.mark.parametrize("field", [lambda: datum_bnw().field, lambda: random_two_mode_datum(7)],
                         ids=["bnw", "two-mode"])
def test_unpruned_orbit_counts_are_the_canonical_modes(field):
    """An unpruned expansion runs under the trivial group, where each
    canonical mode is its own orbit."""
    exp = expand(field(), 3, use_symmetry=False)
    assert exp.symmetry == SymmetryData.trivial()
    for j in range(4):
        stats = exp.order_stats(j)
        assert type(stats["orbits"]) is int
        assert stats["orbits"] == stats["canonical_modes"] == exp.meta[j]["orbits"]


def test_cache_round_trip(tmp_path):
    exp = expand(datum_bnw().field, 2, datum_id="bnw")
    residual_tail(exp)
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    loaded = cache_load(path)
    assert loaded.N == exp.N
    assert loaded.datum_id == "bnw"
    for a, b in zip(loaded.coeffs, exp.coeffs):
        assert a == b
    for a, b in zip(loaded.tails, exp.tails):
        assert a == b
    assert loaded.symmetry.plus == exp.symmetry.plus
    assert loaded.symmetry.minus == exp.symmetry.minus


@pytest.mark.parametrize("datum, tails, pruned", [
    (datum_bnw, True, True), (datum_km, False, True), (datum_bnw, False, True),
    (datum_tg, False, True), (datum_bnw, True, False),
], ids=["bnw3-tails", "km3", "bnw3", "tg3", "bnw3-tails-unpruned"])
def test_cache_load_shares_one_key_per_exponent_pair(tmp_path, datum, tails, pruned):
    """The cache stores orbit representatives and the load spreads them back
    to fields equal to the computed ones, whose polys share one key object
    per exponent pair."""
    d = datum()
    exp = expand(d.field, 3, use_symmetry=pruned, datum_id=d.name)
    if tails:
        residual_tail(exp)
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    loaded = cache_load(path)
    assert loaded.coeffs == exp.coeffs
    assert loaded.tails == exp.tails
    assert loaded.symmetry == exp.symmetry
    assert (loaded.symmetry == SymmetryData.trivial()) == (not pruned)
    for field in loaded.coeffs + (loaded.tails or []):
        keys = [key for vec in field.coeffs.values() for p in vec for key in p.terms]
        assert len({id(key) for key in keys}) == len(set(keys))


def test_orbit_members_share_their_turned_components(tmp_path):
    """km N=3, computed and loaded: the members of an orbit hold at most 12
    distinct polys, the representative's 3 components with both signs, with
    and without conjugation, though an orbit has up to 24 members of 3
    components each.  The computed u_0 is the heat flow of the datum, not
    spread from a representative."""
    exp = expand(datum_km().field, 3, datum_id="km")
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    keys = list(exp.symmetry.routes)
    largest = 0
    for field in exp.coeffs[1:] + cache_load(path).coeffs:
        for _, members in orbit_partition(field.coeffs, keys):
            assert len({id(p) for k in members for p in field.coeffs[k]}) <= 12
            largest = max(largest, len(members))
    assert largest == 24


def test_cache_manifest_records_backends_and_tail_costs(tmp_path):
    import mpmath.libmp

    from reyex.rationals import MPQ_BACKEND

    exp = expand(datum_bnw().field, 2, datum_id="bnw")
    tails = residual_tail(exp)
    path = str(tmp_path / "cache")
    manifest = cache_store(exp, path)
    assert manifest["backend"] == {"mpq": MPQ_BACKEND, "mpmath": mpmath.libmp.BACKEND}
    assert MPQ_BACKEND in ("gmpy2", "fractions.Fraction")
    assert [t["order"] for t in manifest["tails"]] == [3, 4, 5]
    for rec, tail in zip(manifest["tails"], tails):
        assert rec["terms"] == sum(p.num_terms() for vec in tail.coeffs.values() for p in vec)
        assert rec["wall_seconds"] >= 0
    with open(os.path.join(path, "manifest.json")) as fh:
        assert json.load(fh) == manifest
    assert cache_load(path).tail_meta == manifest["tails"]
    # per file: the orbits and terms stored, and the terms of the spread field
    keys = list(exp.symmetry.routes)
    names = ["u_%03d.json" % j for j in range(3)] + ["tail_%03d.json" % j for j in (3, 4, 5)]
    assert list(manifest["files"]) == names
    for name, field in zip(names, exp.coeffs + tails):
        with open(os.path.join(path, name)) as fh:
            stored = TimeField.from_payload(json.load(fh))
        reps = [rep for rep, _ in orbit_partition(field.coeffs, keys)]
        assert sorted(stored.coeffs) == reps
        assert manifest["files"][name] == {
            "orbits": len(reps), "stored_terms": _terms(stored), "terms": _terms(field),
        }
    assert sum(f["stored_terms"] for f in manifest["files"].values()) < sum(
        f["terms"] for f in manifest["files"].values())
    assert cache_store(expand(datum_bnw().field, 1), str(tmp_path / "plain"))["tails"] == []


def _terms(field):
    return sum(p.num_terms() for vec in field.coeffs.values() for p in vec)


def _write_field(path, name, field, j, manifest):
    """Write field as the cache file name and enter its digest in manifest."""
    text = json.dumps(field.to_payload(name=manifest["datum_id"], j=j))
    with open(os.path.join(path, name), "w") as fh:
        fh.write(text)
    manifest["digests"][name] = hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("datum, tails", [(datum_bnw, True), (datum_km, False)],
                         ids=["bnw2-tails", "km2"])
def test_a_full_field_cache_loads_to_the_computed_expansion(tmp_path, datum, tails):
    """A reyex-cache/1 directory, each file holding every canonical mode,
    still loads, to the expansion that was computed."""
    d = datum()
    exp = expand(d.field, 2, datum_id=d.name)
    fields = exp.coeffs + (residual_tail(exp) if tails else [])
    path = str(tmp_path / "cache")
    os.makedirs(path)
    manifest = {
        "format": "reyex-cache/1", "datum_id": d.name, "N": 2, "has_tails": tails,
        "symmetry": {side: [[list(g.S[0]), list(g.S[1]), list(g.S[2]), list(g.a)]
                            for g in getattr(exp.symmetry, side)]
                     for side in ("plus", "minus")},
        "orders": exp.meta, "digests": {}, "tails": exp.tail_meta,
    }
    names = ["u_%03d.json" % j for j in range(3)] + ["tail_%03d.json" % j for j in (3, 4, 5)]
    for j, (name, field) in enumerate(zip(names, fields)):
        _write_field(path, name, field, j, manifest)
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    loaded = cache_load(path)
    assert loaded.coeffs == exp.coeffs
    assert loaded.tails == exp.tails
    assert loaded.symmetry == exp.symmetry


@pytest.mark.parametrize("edit", ["non-representative", "two-of-one-orbit"])
def test_cache_refuses_a_file_that_is_not_one_representative_per_orbit(tmp_path, edit):
    """A valid field file, digest and all, that lists an orbit at another
    member than its representative, or at its representative and another
    member, is refused by name."""
    exp = expand(datum_km().field, 2, datum_id="km")
    path = str(tmp_path / "cache")
    manifest = cache_store(exp, path)
    field = exp.coeffs[2]
    orbits = orbit_partition(field.coeffs, list(exp.symmetry.routes))
    stored = {rep: field.coeffs[rep] for rep, _ in orbits}
    rep, members = next((rep, members) for rep, members in orbits if len(members) > 1)
    if edit == "non-representative":
        del stored[rep]
    other = max(members)
    stored[other] = field.coeffs[other]
    _write_field(path, "u_002.json", TimeField(stored), 2, manifest)
    with open(os.path.join(path, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(CacheError, match="u_002.json is not one representative per orbit"):
        cache_load(path)


def test_cache_rejects_tampering(tmp_path):
    exp = expand(datum_bnw().field, 1, datum_id="bnw")
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    target = os.path.join(path, "u_001.json")
    with open(target) as fh:
        payload = json.load(fh)
    payload["modes"][0]["components"][0][0] = "0 1 9/1 0/1"
    with open(target, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(CacheError):
        cache_load(path)


def test_cache_rejects_divergent_mode(tmp_path):
    exp = expand(datum_bnw().field, 2, datum_id="bnw")
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    target = os.path.join(path, "u_002.json")
    with open(target) as fh:
        payload = json.load(fh)
    # double one component of one mode: still real and zero-mean, but no
    # longer orthogonal to its wave vector
    mode = next(m for m in payload["modes"] if all(m["k"]) and m["components"][0])
    comp = mode["components"][0]
    for i, rec in enumerate(comp):
        a, b, re, im = rec.split()
        comp[i] = " ".join([a, b, str(2 * Fraction(re)), str(2 * Fraction(im))])
    with open(target, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(CacheError, match="incompressibility"):
        cache_load(path)


def test_cache_rejects_divergence_free_tampering(tmp_path):
    exp = expand(datum_bnw().field, 2, datum_id="bnw")
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    target = os.path.join(path, "u_002.json")
    with open(target) as fh:
        payload = json.load(fh)
    # double every component of one mode: the field stays real, zero-mean
    # and divergence-free, so only the digest can tell
    mode = next(m for m in payload["modes"] if any(m["components"]))
    for comp in mode["components"]:
        for i, rec in enumerate(comp):
            a, b, re, im = rec.split()
            comp[i] = " ".join([a, b, str(2 * Fraction(re)), str(2 * Fraction(im))])
    with open(target, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(CacheError, match="digest"):
        cache_load(path)


def test_cache_without_digests_is_refused(tmp_path):
    exp = expand(datum_bnw().field, 0, datum_id="bnw")
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    mpath = os.path.join(path, "manifest.json")
    with open(mpath) as fh:
        manifest = json.load(fh)
    del manifest["digests"]
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(CacheError, match="reyex expand"):
        cache_load(path)


def test_cache_rejects_unknown_format(tmp_path):
    exp = expand(datum_bnw().field, 0, datum_id="bnw")
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    mpath = os.path.join(path, "manifest.json")
    with open(mpath) as fh:
        manifest = json.load(fh)
    manifest["format"] = "reyex-cache/99"
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(CacheError):
        cache_load(path)


def test_cache_missing_manifest(tmp_path):
    with pytest.raises(CacheError):
        cache_load(str(tmp_path / "nowhere"))


def test_cache_rejects_corrupt_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(CacheError, match="unreadable manifest"):
        cache_load(str(tmp_path))


def _edit_manifest(path, edit):
    mpath = os.path.join(path, "manifest.json")
    with open(mpath) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)


def _set(key, value):
    return lambda manifest: manifest.__setitem__(key, value)


def _set_symmetry(side, value):
    return lambda manifest: manifest["symmetry"].__setitem__(side, value)


def _add_plus(row):
    return lambda manifest: manifest["symmetry"]["plus"].append(row)


_IDENTITY_ROW = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]


@pytest.mark.parametrize("edit", [
    lambda manifest: manifest.pop("N"),
    _set("N", "1"),
    _set("N", -1),
    _set("N", 1.0),
    _set("N", True),
    lambda manifest: manifest.pop("has_tails"),
    _set("has_tails", 1),
    _set("has_tails", "yes"),
    _set("symmetry", []),
    _set("symmetry", {"plus": [_IDENTITY_ROW]}),
    _set_symmetry("plus", 5),
    _add_plus([1, 2, 3]),
    _add_plus([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    _add_plus([[1, 0, 0], [0, 1, 0], [0, 0, "1"], [0, 0, 0]]),
    _add_plus([[1, 0, 0], [0, 1, 0], [0, 0, True], [0, 0, 0]]),
    _add_plus([[1, 0, 0], [1, 0, 0], [0, 0, 1], [0, 0, 0]]),
    _add_plus([[2, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    _add_plus([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 4]]),
    _add_plus([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]),
    _set_symmetry("plus", [[[-1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]]),
    _set_symmetry("minus", [_IDENTITY_ROW, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0]]]),
], ids=["no-N", "N-string", "N-negative", "N-float", "N-bool", "no-has_tails", "has_tails-int",
        "has_tails-string", "symmetry-list", "no-minus", "plus-number", "short-row", "no-a",
        "S-string", "S-bool", "S-singular", "S-scaled", "a-out-of-range", "a-odd",
        "no-identity", "a-negative"])
def test_cache_rejects_a_malformed_manifest(tmp_path, edit):
    exp = expand(datum_bnw().field, 1, datum_id="bnw")
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    _edit_manifest(path, edit)
    with pytest.raises(CacheError, match="manifest"):
        cache_load(path)


def test_cache_rejects_a_manifest_that_is_not_an_object(tmp_path):
    (tmp_path / "manifest.json").write_text("[1, 2]")
    with pytest.raises(CacheError, match="not a JSON object"):
        cache_load(str(tmp_path))


def test_cache_loads_a_manifest_without_symmetry(tmp_path):
    exp = expand(datum_bnw().field, 1, datum_id="bnw", use_symmetry=False)
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    _edit_manifest(path, lambda manifest: manifest.pop("symmetry"))
    loaded = cache_load(path)
    assert loaded.symmetry == SymmetryData.trivial()
    assert loaded.coeffs == exp.coeffs


def test_unpruned_cache_records_the_trivial_group(tmp_path):
    exp = expand(datum_bnw().field, 2, datum_id="bnw", use_symmetry=False)
    residual_tail(exp)
    path = str(tmp_path / "cache")
    manifest = cache_store(exp, path)
    assert manifest["symmetry"] == {"plus": [_IDENTITY_ROW], "minus": []}
    for name, field in zip(manifest["files"], exp.coeffs + exp.tails):
        assert manifest["files"][name]["orbits"] == len(field.coeffs)
    loaded = cache_load(path)
    assert loaded.symmetry == SymmetryData.trivial()
    assert loaded.coeffs == exp.coeffs
    assert loaded.tails == exp.tails


@pytest.mark.parametrize("fmt", ["reyex-cache/1", "reyex-cache/2"])
def test_a_null_symmetry_loads_under_the_trivial_group(tmp_path, fmt):
    """The unpruned caches of older versions record their symmetry as null;
    an unpruned file lists every canonical mode in either format."""
    exp = expand(datum_bnw().field, 2, datum_id="bnw", use_symmetry=False)
    residual_tail(exp)
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    _edit_manifest(path, lambda manifest: manifest.update(format=fmt, symmetry=None))
    loaded = cache_load(path)
    assert loaded.symmetry == SymmetryData.trivial()
    assert loaded.coeffs == exp.coeffs
    assert loaded.tails == exp.tails
    for j in range(3):
        stats = loaded.order_stats(j)
        assert stats["orbits"] == stats["canonical_modes"]


def _tamper(path, name, edit):
    """Apply edit to the payload of one field file of a cache."""
    target = os.path.join(path, name)
    with open(target) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(target, "w") as fh:
        json.dump(payload, fh)


def _first_records(payload):
    return next(c for m in payload["modes"] for c in m["components"] if c)


def _on_records(edit):
    return lambda payload: edit(_first_records(payload))


def _negate_a_repeated_pair(payload):
    """Write a = -1 in every record of the first record's exponent pair,
    which several polys of the field hold."""
    pair = _first_records(payload)[0].split()[:2]
    for mode in payload["modes"]:
        for recs in mode["components"]:
            for i, rec in enumerate(recs):
                a, b, rest = rec.split(None, 2)
                if [a, b] == pair:
                    recs[i] = "-1 %s %s" % (b, rest)


def _repeat_pair(template):
    """Append the first record's exponent pair again, written as template
    writes the pair, with another coefficient."""
    return _on_records(lambda recs: recs.append(template % tuple(recs[0].split()[:2]) + " 1/3 0"))


@pytest.mark.parametrize("edit", [
    # a negative exponent, once and on a pair several polys hold
    _on_records(lambda recs: recs.__setitem__(0, "-1 " + recs[0].split(None, 1)[1])),
    _negate_a_repeated_pair,
    # a duplicate exponent pair, with another coefficient: written alike,
    # with another gap, and with a leading zero
    _repeat_pair("%s %s"),
    _repeat_pair("%s  %s"),
    _repeat_pair("0%s %s"),
    # a malformed record: a field short, so 3 fields
    _on_records(lambda recs: recs.__setitem__(0, recs[0].rsplit(None, 1)[0])),
    # well-formed JSON of the wrong shape: a record that is a number, no
    # modes, a wave vector that is a number
    _on_records(lambda recs: recs.__setitem__(0, 7)),
    lambda payload: payload.pop("modes"),
    lambda payload: payload["modes"][0].__setitem__("k", 5),
    # a wave vector listed twice, the second time with other coefficients
    lambda payload: payload["modes"].append(
        dict(payload["modes"][0], components=[[], [], []])
    ),
], ids=["negative-exponent", "negative-exponent-repeated-pair", "duplicate-pair",
        "duplicate-pair-gap", "duplicate-pair-leading-zero", "malformed", "record-number",
        "no-modes", "k-number", "repeated-mode"])
def test_cache_rejects_malformed_records(tmp_path, edit):
    exp = expand(datum_bnw().field, 2, datum_id="bnw")
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    _tamper(path, "u_002.json", edit)
    with pytest.raises(CacheError, match="invalid cache file .*u_002.json"):
        cache_load(path)


def test_cache_rejects_incompressibility_at_one_exponent_pair(tmp_path):
    exp = expand(datum_km().field, 2, datum_id="km")
    path = str(tmp_path / "cache")
    cache_store(exp, path)

    def edit(payload):
        # double one record of one component whose wave number is nonzero:
        # k.v is then nonzero at that exponent pair and still zero at the others
        comp = next(c for m in payload["modes"] for ki, c in zip(m["k"], m["components"])
                    if ki and len(c) > 1)
        a, b, re, im = comp[0].split()
        comp[0] = " ".join([a, b, str(2 * Fraction(re)), str(2 * Fraction(im))])

    _tamper(path, "u_002.json", edit)
    with pytest.raises(CacheError, match="incompressibility"):
        cache_load(path)


def _sampled(tables, kind):
    sampled = tables.coeff_tables() if kind == "coeff" else tables.tail_tables()
    return {key: [v._mpf_ for v in values] for key, values in sampled.items()}


@pytest.mark.parametrize("datum, kinds", [(datum_km, ("coeff",)), (datum_bnw, ("coeff", "tail"))],
                         ids=["km2", "bnw2-tails"])
def test_tables_on_a_loaded_cache_equal_the_in_memory_ones(tmp_path, datum, kinds):
    d = datum()
    exp = expand(d.field, 2, datum_id=d.name)
    if "tail" in kinds:
        residual_tail(exp)
    path = str(tmp_path / "cache")
    cache_store(exp, path)
    loaded = cache_load(path)
    grid = default_grid(80)
    fresh, cached = EstimatorTables(exp, 3, grid=grid), EstimatorTables(loaded, 3, grid=grid)
    for kind in kinds:
        assert _sampled(cached, kind) == _sampled(fresh, kind)
