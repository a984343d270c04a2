import json
import os
import random
from fractions import Fraction

import pytest
from oracles import assert_residual_identity

import reyex.expansion
from reyex.data import datum_bnw, datum_km, datum_tg
from reyex.expansion import (
    CacheError,
    Expansion,
    ResourceLimitError,
    cache_load,
    cache_store,
    expand,
    residual_tail,
)
from reyex.fields import heat_apply, leray_project, static_field
from reyex.rationals import GaussianRational, mpq


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
            from reyex.timepoly import TimePoly

            polys = tuple(TimePoly({(0, 0): c}) for c in vec)
            proj = leray_project(k, polys)
            const = tuple(p.terms.get((0, 0), GaussianRational(0)) for p in proj)
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

    def counted(coeff, k, g, sigma, j):
        calls.append(j)
        return propagate(coeff, k, g, sigma, j)

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

    def counted_propagate(coeff, k, g, sigma, j):
        built.append(j)
        return propagate(coeff, k, g, sigma, j)

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


def test_meta_statistics_are_recorded():
    exp = expand(datum_bnw().field, 2, datum_id="bnw")
    assert [s["order"] for s in exp.meta] == [0, 1, 2]
    for s in exp.meta:
        assert s["terms"] > 0
        assert s["nonzero_coefficients"] > 0


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
