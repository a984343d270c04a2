import json
import math

import pytest

from reyex.data import (
    DATUM_NAMES,
    datum_bnw,
    datum_km,
    datum_tg,
    get_datum,
    load_user_datum,
    physical_reynolds,
)
from reyex.fields import heat_apply
from reyex.rationals import mpq


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
    gamma0 = float(d.field.coeff_magnitude(d.marked_mode, 0))
    assert gamma0 == pytest.approx(GAMMA0[name], rel=1e-3)


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


def test_expected_symmetry_tags():
    assert datum_bnw().expected_symmetry == (12, 6, False)
    assert datum_tg().expected_symmetry == (64, 16, True)
    assert datum_km().expected_symmetry == (192, 48, True)


def test_get_datum_rejects_unknown():
    with pytest.raises(ValueError):
        get_datum("euler")


def test_physical_reynolds():
    d = datum_bnw()
    assert float(physical_reynolds(d, 0.23)) == pytest.approx(0.23 * 15.3906, rel=1e-4)
    assert float(physical_reynolds(d, 0.0)) == 0.0
    with pytest.raises(ValueError):
        physical_reynolds(d, -0.1)


def test_file_datum_round_trip(tmp_path):
    d = datum_tg()
    payload = d.field.to_payload(name="mytg")
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    loaded = get_datum("file:%s" % path)
    assert loaded.name == "mytg"
    assert loaded.field.coeffs == d.field.coeffs
    assert loaded.expected_symmetry is None
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
