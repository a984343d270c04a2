import json
import math

import mpmath
import pytest
from oracles import sobolev_norm

from reyex.data import (
    DATUM_NAMES,
    DatumDescriptor,
    datum_bnw,
    datum_km,
    datum_tg,
    get_datum,
    load_user_datum,
    mode_amplitude,
    physical_reynolds,
)
from reyex.estimators import default_grid
from reyex.expansion import expand
from reyex.fields import heat_apply, leray_project, static_field
from reyex.rationals import GaussianRational, mpq
from reyex.timepoly import DEFAULT_EVAL_PRECISION


NORMS_3 = {"bnw": 154.3, "tg": 40.91, "km": 497.6}
MARKED = {"bnw": (1, 1, 0), "tg": (1, 1, 1), "km": (3, 1, 1)}
GAMMA0 = {"bnw": 22.27, "tg": 2.784, "km": 2.784}
REY_FACTOR = {"bnw": 15.39, "tg": 1.813, "km": 1.640}


def test_names_and_builders():
    assert DATUM_NAMES == ("bnw", "tg", "km")
    for name in DATUM_NAMES:
        d = get_datum(name)
        assert d.name == name
        d.field.validate()


@pytest.mark.parametrize("name", DATUM_NAMES)
def test_order_three_norms(name):
    d = get_datum(name)
    assert float(d.sobolev(3)) == pytest.approx(NORMS_3[name], rel=1e-3)


@pytest.mark.parametrize("name", DATUM_NAMES)
def test_marked_mode_amplitude(name):
    d = get_datum(name)
    assert d.marked_mode == MARKED[name]
    gamma0 = float(mode_amplitude([d.field], d.marked_mode, 0, [0])[0])
    assert gamma0 == pytest.approx(GAMMA0[name], rel=1e-3)


def _generic_datum():
    """Three modes with complex amplitudes in every component."""
    g = GaussianRational
    modes = {
        (1, 0, 0): (g(0), g(2, -3), g(mpq(1, 2), 5)),
        (0, 1, 2): (g(3, 1), g(-1, 7), g(2, mpq(1, 3))),
        (2, -1, 1): (g(1, 1), g(1, -2), g(0, 3)),
    }
    field = static_field({k: leray_project(k, vec) for k, vec in modes.items()})
    return DatumDescriptor(name="generic", field=field)


@pytest.mark.parametrize("build", [datum_bnw, datum_tg, datum_km, _generic_datum])
def test_datum_norm_is_the_oracle_norm_at_time_zero(build):
    d = build()
    for order in (-1, 0, 1, 2, 3, 5):
        assert d.sobolev(order) == sobolev_norm(d.field, order, 0, DEFAULT_EVAL_PRECISION), order


@pytest.mark.parametrize("name, N", [("bnw", 3), ("km", 2), ("tg", 3)])
def test_mode_amplitude_panel_matches_the_oracle(name, N):
    # the gamma panel of `reyex report`, at its marked mode and at a mode
    # of u_N outside the datum, against TimePoly.evaluate at 512 bits
    d = get_datum(name)
    exp = expand(d.field, N, datum_id=name)
    grid = default_grid(200)
    R = 0.23
    for k in (d.marked_mode, max(exp.coeffs[-1].coeffs)):
        panel = mode_amplitude(exp.coeffs, k, R, grid)
        # t = 0 is exact: u_j(0) = 0 for j >= 1
        assert panel[0] == mode_amplitude([d.field], k, 0, [0])[0]
        with mpmath.workprec(512):
            Rq = mpq(R)
            w = mpmath.mpf(Rq.numerator) / Rq.denominator
            for t, got in zip(grid[1:], panel[1:]):
                total = [mpmath.mpc(0)] * 3
                for j, u in enumerate(exp.coeffs):
                    total = [a + w**j * p.evaluate(t, 512) for a, p in zip(total, u.coeff(k))]
                ref = (2 * mpmath.pi) ** mpmath.mpf(1.5) * mpmath.sqrt(
                    sum(c.real**2 + c.imag**2 for c in total)
                )
                assert abs(got - ref) <= ref * mpmath.mpf(2) ** -200, (k, t)


def test_mode_amplitude_off_the_support_is_zero():
    d = datum_bnw()
    assert mode_amplitude([d.field], (5, 0, 0), 0.3, [0, 0.5]) == [0, 0]


@pytest.mark.parametrize("name", DATUM_NAMES)
def test_rey_factor(name):
    d = get_datum(name)
    assert float(d.rey_factor()) == pytest.approx(REY_FACTOR[name], rel=1e-3)


def test_exact_quadratic_invariants():
    # sums over the full lattice, from hand-counted mode tables
    assert datum_bnw().v_star_sq == mpq(12)
    assert datum_bnw().inv_sq_sum == mpq(6)
    assert datum_tg().v_star_sq == mpq(1, 4)
    assert datum_tg().inv_sq_sum == mpq(1, 12)
    assert datum_km().v_star_sq == mpq(3, 4)
    assert datum_km().inv_sq_sum == mpq(3, 44)


def test_velocity_and_length_scales():
    assert float(datum_bnw().V_star()) == pytest.approx(math.sqrt(12))
    assert float(datum_bnw().L_star()) == pytest.approx(2 * math.pi / math.sqrt(2))
    assert float(datum_tg().V_star()) == pytest.approx(0.5)
    assert float(datum_tg().L_star()) == pytest.approx(2 * math.pi / math.sqrt(3))
    assert float(datum_km().V_star()) == pytest.approx(math.sqrt(0.75))
    assert float(datum_km().L_star()) == pytest.approx(2 * math.pi / math.sqrt(11))
    for build in (datum_bnw, datum_tg, datum_km):
        d = build()
        assert float(d.rey_factor()) == pytest.approx(float(d.V_star() * d.L_star()), rel=1e-12)


def test_get_datum_rejects_unknown():
    with pytest.raises(ValueError):
        get_datum("euler")


def test_physical_reynolds():
    d = datum_bnw()
    assert float(physical_reynolds(d, 0.23)) == pytest.approx(0.23 * 15.3906, rel=1e-4)
    assert float(physical_reynolds(d, 0.0)) == 0.0
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="R must be a finite number >= 0"):
            physical_reynolds(d, bad)


def test_file_datum_round_trip(tmp_path):
    d = datum_tg()
    payload = d.field.to_payload(name="mytg")
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    loaded = get_datum("file:%s" % path)
    assert loaded.name == "mytg"
    assert loaded.field.coeffs == d.field.coeffs
    assert loaded.marked_mode == min(d.field.coeffs)


def test_file_datum_rejects_time_dependence(tmp_path):
    evolved = heat_apply(datum_bnw().field)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(evolved.to_payload(name="bad")))
    with pytest.raises(ValueError):
        load_user_datum(str(path))


def test_file_datum_rejects_a_mode_written_as_minus_k(tmp_path):
    payload = datum_tg().field.to_payload(name="flipped")
    mode = payload["modes"][0]
    # the same real field, its first mode stored as the conjugate at -k
    mode["k"] = [-x for x in mode["k"]]
    for comp in mode["components"]:
        for i, term in enumerate(comp):
            a, b, re_part, im_part = term.split()
            im_part = -mpq(im_part)
            comp[i] = "%s %s %s %d/%d" % (a, b, re_part, im_part.numerator, im_part.denominator)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="non-canonical storage key"):
        load_user_datum(str(path))


def test_file_datum_rejects_compressible(tmp_path):
    payload = datum_bnw().field.to_payload(name="bad")
    # break incompressibility on the first stored mode, k = (0, 1, 1)
    payload["modes"][0]["components"][1] = ["0 0 5/1 0/1"]
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_user_datum(str(path))
