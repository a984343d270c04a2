import inspect
import json
import os
import shutil
from fractions import Fraction

import pytest
from click.testing import CliRunner

import reyex.estimators
from reyex.cli import _manifest_hash, main
from reyex.control import DEFAULT_TOL_R, find_critical_R
from reyex.data import datum_tg
from reyex.estimators import DEFAULT_GRID_POINTS, DEFAULT_T_MAX, default_grid
from reyex.expansion import residual_tail
from reyex.fields import static_field
from reyex.rationals import GaussianRational


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def rundir(tmp_path_factory, runner):
    """A run directory with a cached bnw N=2 expansion including tails."""
    base = tmp_path_factory.mktemp("run")
    res = runner.invoke(main, [
        "expand", "--datum", "bnw", "--order", "2", "--tails",
        "--cache", str(base / "cache"),
    ])
    assert res.exit_code == 0, res.output
    return base


def test_norms_output(runner):
    res = runner.invoke(main, ["norms", "--datum", "bnw", "--orders", "1,3"])
    assert res.exit_code == 0, res.output
    lines = dict(
        line.split(" = ", 1) for line in res.output.splitlines() if " = " in line
    )
    assert float(lines["norm_3"]) == pytest.approx(154.3, rel=1e-3)
    assert float(lines["gamma(0)"]) == pytest.approx(22.27, rel=1e-3)
    assert float(lines["rey_factor"]) == pytest.approx(15.39, rel=1e-3)
    assert "marked mode k = (1, 1, 0)" in res.output
    assert "classical R_h3 = 0.0147" in res.output


def test_norms_rejects_unknown_datum(runner):
    res = runner.invoke(main, ["norms", "--datum", "euler"])
    assert res.exit_code == 2


def test_datum_file_listing_a_mode_twice_is_a_usage_error(runner, tmp_path):
    # the first mode again at triple the amplitude: taking either entry
    # alone would give another datum
    payload = datum_tg().field.to_payload(name="tg")
    first = payload["modes"][0]
    tripled = [[" ".join(r.split()[:2] + [str(3 * Fraction(x)) for x in r.split()[2:]])
                for r in comp] for comp in first["components"]]
    payload["modes"].append(dict(first, components=tripled))
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["norms", "--datum", "file:%s" % path])
    assert res.exit_code == 2, res.output
    assert "listed twice" in res.output


def test_expand_writes_manifest(runner, rundir):
    manifest = json.loads((rundir / "cache" / "manifest.json").read_text())
    assert manifest["format"] == "reyex-cache/1"
    assert manifest["N"] == 2
    assert "run_manifest_hash" in manifest


def test_expand_tails_reports_each_tail_as_it_is_made(runner, tmp_path):
    cache = tmp_path / "c"
    res = runner.invoke(main, [
        "expand", "--datum", "bnw", "--order", "2", "--tails", "--cache", str(cache),
    ])
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    tails = [i for i, line in enumerate(lines) if line.startswith("tail order ")]
    assert [lines[i].split(":")[0] for i in tails] == ["tail order %d" % j for j in (3, 4, 5)]
    manifest = json.loads((cache / "manifest.json").read_text())
    for i, meta in zip(tails, manifest["tails"]):
        assert lines[i].startswith("tail order %(order)d: %(terms)d terms, " % meta)
    assert lines[tails[-1] + 1].startswith("cache written")


def test_expand_term_ceiling_exit_code(runner, tmp_path):
    res = runner.invoke(main, [
        "expand", "--datum", "bnw", "--order", "4", "--term-ceiling", "50",
        "--cache", str(tmp_path / "c"),
    ])
    assert res.exit_code == 3


def test_expand_tails_past_the_term_ceiling_exit_code(runner, tmp_path):
    # bnw N=4 holds 1,482 coefficient terms and 76,497 tail terms
    res = runner.invoke(main, [
        "expand", "--datum", "bnw", "--order", "4", "--tails", "--term-ceiling", "5000",
        "--cache", str(tmp_path / "c"),
    ])
    assert res.exit_code == 3, res.output
    assert "term ceiling exceeded at order 6" in res.output
    assert not (tmp_path / "c" / "manifest.json").exists()


def test_probe_computing_tails_past_the_term_ceiling_exits_3(runner, tmp_path, monkeypatch):
    """A tautological probe on a cache without tails computes them, under
    the term ceiling: past it the command exits 3 and writes nothing."""
    cache = tmp_path / "cache"
    res = runner.invoke(main, ["expand", "--datum", "bnw", "--order", "2", "--cache", str(cache)])
    assert res.exit_code == 0, res.output
    monkeypatch.setattr(reyex.estimators, "residual_tail",
                        lambda exp: residual_tail(exp, term_ceiling=200))
    out = tmp_path / "out"
    out.mkdir()
    for command in ("estimate", "control", "critical"):
        res = runner.invoke(main, [
            command, "--cache", str(cache), "--variant", "tautological", "--grid-points", "40",
            *PROBE_ARGS[command], str(out / command),
        ])
        assert res.exit_code == 3, res.output
        assert "term ceiling exceeded at order 3" in res.output
    assert not list(out.iterdir())


def test_expand_negative_order(runner, tmp_path):
    res = runner.invoke(main, [
        "expand", "--datum", "bnw", "--order", "-1", "--cache", str(tmp_path / "c"),
    ])
    assert res.exit_code == 2


def test_cache_root_resolution(runner, tmp_path):
    res = runner.invoke(main, [
        "--cache-root", str(tmp_path),
        "expand", "--datum", "tg", "--order", "0", "--cache", "sub/cache",
    ])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "sub" / "cache" / "manifest.json").exists()


def test_estimate_csv_and_determinism(runner, rundir, tmp_path):
    args = [
        "estimate", "--cache", str(rundir / "cache"), "--R", "0.25",
        "--variant", "rough", "--grid-points", "60", "--output", "",
    ]
    outs = []
    for i in (0, 1):
        out = tmp_path / ("est%d.csv" % i)
        args[-1] = str(out)
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert text.splitlines()[1] == "t,D_3,D_4,eps_3"
    assert len(text.splitlines()) == 62


def test_estimate_bad_variant(runner, rundir, tmp_path):
    res = runner.invoke(main, [
        "estimate", "--cache", str(rundir / "cache"), "--R", "0.25",
        "--variant", "fancy", "--output", str(tmp_path / "x.csv"),
    ])
    assert res.exit_code == 2


PROBE_ARGS = {
    "estimate": ["--R", "0.25", "--output"],
    "control": ["--R", "0.25", "--output-prefix"],
    "critical": ["--lo", "0.01", "--hi", "3.0", "--tol-r", "0.5", "--output"],
}


@pytest.mark.parametrize("command", ["control", "critical"])
def test_bad_variant_is_a_usage_error(runner, rundir, tmp_path, command):
    res = runner.invoke(main, [
        command, "--cache", str(rundir / "cache"), "--variant", "bogus",
        "--grid-points", "40", *PROBE_ARGS[command], str(tmp_path / "out"),
    ])
    assert res.exit_code == 2, res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["estimate", "control", "critical"])
def test_misspelt_intermediate_variant_is_a_usage_error(runner, rundir, tmp_path, command):
    res = runner.invoke(main, [
        command, "--cache", str(rundir / "cache"), "--variant", "intermediatefoo:3",
        "--grid-points", "40", *PROBE_ARGS[command], str(tmp_path / "out"),
    ])
    assert res.exit_code == 2, res.output
    assert "unknown estimator variant" in res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["estimate", "control", "critical"])
def test_non_finite_R_is_a_usage_error(runner, rundir, tmp_path, command, value):
    # the sampled tables would read it as R = 0
    args = {
        "estimate": ["--R=" + value, "--output"],
        "control": ["--R=" + value, "--output-prefix"],
        "critical": ["--lo", "0.01", "--hi=" + value, "--output"],
    }[command]
    res = runner.invoke(main, [
        command, "--cache", str(rundir / "cache"), "--grid-points", "40",
        *args, str(tmp_path / "out"),
    ])
    assert res.exit_code == 2, res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["estimate", "control", "critical"])
def test_missing_constants_file_is_a_usage_error(runner, rundir, tmp_path, command):
    res = runner.invoke(main, [
        command, "--cache", str(rundir / "cache"), "--grid-points", "40",
        "--constants", str(tmp_path / "nope.json"), *PROBE_ARGS[command], str(tmp_path / "out"),
    ])
    assert res.exit_code == 2, res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["estimate", "control", "critical"])
def test_negative_intermediate_order_is_a_usage_error(runner, rundir, tmp_path, command):
    res = runner.invoke(main, [
        command, "--cache", str(rundir / "cache"), "--variant", "intermediate:-1",
        "--grid-points", "40", *PROBE_ARGS[command], str(tmp_path / "out"),
    ])
    assert res.exit_code == 2, res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bad", [
    ["--t-max", "0.4"], ["--grid-points", "3"], ["--grid-points", "40", "--precision", "40"],
])
@pytest.mark.parametrize("command", ["estimate", "control", "critical"])
def test_bad_grid_or_precision_is_a_usage_error(runner, rundir, tmp_path, command, bad):
    res = runner.invoke(main, [
        command, "--cache", str(rundir / "cache"), *bad,
        *PROBE_ARGS[command], str(tmp_path / "out"),
    ])
    assert res.exit_code == 2, res.output
    assert not list(tmp_path.iterdir())


def test_constants_file_without_K_or_G_keeps_the_defaults(runner, rundir, tmp_path):
    sections = {"K": {"3": 0.323}, "G": {"3": 0.438}, "G_pn": {"4,3": 0.5}}
    outs = []
    for name, raw in (("full", sections), ("bare", {"G_pn": sections["G_pn"]})):
        cpath = tmp_path / (name + ".json")
        cpath.write_text(json.dumps(raw))
        prefix = str(tmp_path / name)
        res = runner.invoke(main, [
            "control", "--cache", str(rundir / "cache"), "--R", "0.25",
            "--grid-points", "40", "--constants", str(cpath), "--output-prefix", prefix,
        ])
        assert res.exit_code == 0, res.output
        outs.append((tmp_path / (name + ".trajectory.csv")).read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("raw, message", [
    ({"K": [1]}, "not an object of sections"),
    (5, "not an object of sections"),
    ([], "not an object of sections"),
    ({"k": {"3": 0.5}}, "not an object of sections"),
    ({"G_pn": "4,3"}, "not an object of sections"),
    ({"K": {"3": None}}, "malformed constant"),
    ({"K_pn": {"4,3": 0.5}}, "not an object of sections"),
], ids=["section-list", "number", "list", "unknown-section", "section-string", "null-constant",
        "K_pn-section"])
@pytest.mark.parametrize("command", ["estimate", "control", "critical"])
def test_malformed_constants_file_is_a_usage_error(runner, rundir, tmp_path, command, raw, message):
    cpath = tmp_path / "constants.json"
    cpath.write_text(json.dumps(raw))
    res = runner.invoke(main, [
        command, "--cache", str(rundir / "cache"), "--grid-points", "40",
        "--constants", str(cpath), *PROBE_ARGS[command], str(tmp_path / "out"),
    ])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert [p.name for p in tmp_path.iterdir()] == ["constants.json"]


def test_probe_option_defaults_are_the_library_defaults():
    grid = inspect.signature(default_grid).parameters
    tol_R = inspect.signature(find_critical_R).parameters["tol_R"].default
    for name in ("estimate", "control", "critical"):
        defaults = {p.name: p.default for p in main.commands[name].params}
        assert defaults["grid_points"] == grid["num"].default == DEFAULT_GRID_POINTS
        assert defaults["t_max"] == grid["t_max"].default == DEFAULT_T_MAX
    assert {p.name: p.default for p in main.commands["critical"].params}["tol_r"] == tol_R
    assert tol_R == DEFAULT_TOL_R


def test_estimate_missing_cache(runner, tmp_path):
    res = runner.invoke(main, [
        "estimate", "--cache", str(tmp_path / "nope"), "--R", "0.1",
        "--output", str(tmp_path / "x.csv"),
    ])
    assert res.exit_code == 2


@pytest.mark.parametrize("key, value", [("N", "1"), ("N", -1), ("symmetry", {"plus": 5})],
                         ids=["N-string", "N-negative", "symmetry-malformed"])
def test_estimate_with_a_malformed_manifest_is_a_usage_error(runner, rundir, tmp_path, key, value):
    cache = tmp_path / "cache"
    shutil.copytree(rundir / "cache", cache)
    manifest = json.loads((cache / "manifest.json").read_text())
    manifest[key] = value
    (cache / "manifest.json").write_text(json.dumps(manifest))
    res = runner.invoke(main, [
        "estimate", "--cache", str(cache), "--R", "0.1", "--output", str(tmp_path / "x.csv"),
    ])
    assert res.exit_code == 2, res.output
    assert "cannot load cache" in res.output
    assert not (tmp_path / "x.csv").exists()


def test_control_verdict_files(runner, rundir):
    prefix = str(rundir / "run")
    res = runner.invoke(main, [
        "control", "--cache", str(rundir / "cache"), "--R", "0.01",
        "--variant", "tautological", "--grid-points", "80",
        "--output-prefix", prefix,
    ])
    assert res.exit_code == 0, res.output
    assert "verdict: GlobalDecay" in res.output
    rec = json.loads((rundir / "run.verdict.json").read_text())
    assert rec["verdict"] == "GlobalDecay"
    assert rec["N"] == 2
    assert rec["run_manifest_hash"]
    lines = (rundir / "run.trajectory.csv").read_text().splitlines()
    assert lines[1] == "t,R_3"


def test_control_blowup_verdict(runner, rundir, tmp_path):
    prefix = str(tmp_path / "hot")
    res = runner.invoke(main, [
        "control", "--cache", str(rundir / "cache"), "--R", "3.0",
        "--grid-points", "80", "--output-prefix", prefix,
    ])
    assert res.exit_code == 0, res.output
    rec = json.loads((tmp_path / "hot.verdict.json").read_text())
    assert rec["verdict"] == "BlowUp"
    assert rec["T_c"] > 0


def test_critical_bracket_json(runner, rundir, tmp_path):
    out = tmp_path / "bracket.json"
    res = runner.invoke(main, [
        "critical", "--cache", str(rundir / "cache"), "--lo", "0.01", "--hi", "3.0",
        "--tol-r", "0.5", "--grid-points", "80", "--datum", "bnw",
        "--output", str(out),
    ])
    assert res.exit_code == 0, res.output
    rec = json.loads(out.read_text())
    assert rec["R_hi"] - rec["R_lo"] <= 0.5
    assert rec["Rey_lo"] == pytest.approx(rec["R_lo"] * 15.3906, rel=1e-4)
    probes = {p["R"]: p["verdict"] for p in rec["probes"]}
    assert probes[rec["R_lo"]] == "GlobalDecay"
    assert probes[rec["R_hi"]] == "BlowUp"
    assert rec["tol_met"] is True
    assert rec["stopped_at"] is None
    assert "tolerance not met" not in res.output
    # the tables' stats: the sampling of the one table kind the rough
    # variant reads, then the assembly
    telemetry = rec["telemetry"]
    assert set(telemetry) == {"coeff", "assembly"}
    assembly = telemetry["assembly"]
    assert set(assembly) == {"probes", "seconds", "columns_s"}
    assert assembly["probes"] == len(rec["probes"])
    assert assembly["seconds"] > assembly["columns_s"] > 0
    coeff = telemetry["coeff"]
    assert set(coeff) == {
        "build_s", "eval_s", "terms", "max_bits_lost", "reevaluated", "max_precision",
        "fallbacks", "workers",
    }
    assert coeff["terms"] > 0 and coeff["eval_s"] > 0
    # values whose window could not certify their rounding, summed again
    assert isinstance(coeff["fallbacks"], int) and coeff["fallbacks"] >= 0
    # the run manifest hash covers the configuration only
    assert rec["run_manifest_hash"] == _manifest_hash(rec["run_manifest"])


def test_critical_says_when_an_inconclusive_probe_stops_it(runner, rundir, tmp_path):
    # on this grid the rough verdict is Inconclusive from about R = 0.03 to
    # 0.07, so the third probe, at 0.07125, stops the bisection
    out = tmp_path / "bracket.json"
    res = runner.invoke(main, [
        "critical", "--cache", str(rundir / "cache"), "--variant", "rough",
        "--lo", "0.01", "--hi", "0.5", "--tol-r", "0.02", "--grid-points", "120",
        "--t-max", "15", "--output", str(out),
    ])
    assert res.exit_code == 0, res.output
    rec = json.loads(out.read_text())
    hi = 0.5 * (0.01 + 0.5 * (0.01 + 0.5))
    stop = 0.5 * (0.01 + hi)
    assert (rec["R_lo"], rec["R_hi"]) == (0.01, hi)
    assert rec["tol_met"] is False
    assert rec["stopped_at"] == stop
    assert rec["probes"][-1] == {"R": stop, "verdict": "Inconclusive", "T_c": None}
    lines = res.output.splitlines()
    assert lines[-2] == "bracket: (0.01, %.17g)" % hi
    assert lines[-1] == (
        "tolerance not met: width %.17g > --tol-r 0.02; stopped at the Inconclusive probe R = %.17g"
        % (hi - 0.01, stop)
    )


def test_critical_bad_datum_is_a_usage_error(runner, rundir, tmp_path):
    out = tmp_path / "bracket.json"
    res = runner.invoke(main, [
        "critical", "--cache", str(rundir / "cache"), "--lo", "0.01", "--hi", "3.0",
        "--tol-r", "0.5", "--grid-points", "80", "--datum", "nope",
        "--output", str(out),
    ])
    assert res.exit_code == 2, res.output
    assert not out.exists()


def test_critical_bad_bracket(runner, rundir, tmp_path):
    res = runner.invoke(main, [
        "critical", "--cache", str(rundir / "cache"), "--lo", "2.0", "--hi", "3.0",
        "--tol-r", "0.5", "--grid-points", "80", "--output", str(tmp_path / "b.json"),
    ])
    assert res.exit_code == 2


def test_report(runner, rundir):
    res = runner.invoke(main, ["report", "--run-dir", str(rundir), "--datum", "bnw"])
    assert res.exit_code == 0, res.output
    summary = (rundir / "summary.txt").read_text()
    assert "gamma(0) = 22.27" in summary
    assert "R_h3 = 0.0147" in summary
    gamma = (rundir / "gamma.csv").read_text().splitlines()
    assert gamma[1] == "t,gamma"
    t0 = float(gamma[2].split(",")[1])
    assert t0 == pytest.approx(22.27, rel=1e-3)


@pytest.mark.parametrize("text", [
    json.dumps({"verdict": "GlobalDecay", "T_c": None}),
    "not json",
    json.dumps({"R": 0.1}),
    json.dumps({"R": -0.1, "verdict": "GlobalDecay"}),
    json.dumps({"R": "0.1", "verdict": "GlobalDecay"}),
    json.dumps({"R": 0.1, "verdict": "BlowUp", "T_c": "soon"}),
    json.dumps([0.1]),
], ids=["no-R", "not-json", "no-verdict", "negative-R", "string-R", "string-T_c", "list"])
def test_report_with_a_malformed_verdict_file_is_a_usage_error(runner, rundir, tmp_path, text):
    shutil.copytree(rundir / "cache", tmp_path / "cache")
    (tmp_path / "run.verdict.json").write_text(text)
    res = runner.invoke(main, ["report", "--run-dir", str(tmp_path), "--datum", "bnw"])
    assert res.exit_code == 2, res.output
    assert "verdict file" in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "run.verdict.json"]


def test_report_empty_dir(runner, tmp_path):
    res = runner.invoke(main, ["report", "--run-dir", str(tmp_path), "--datum", "bnw"])
    assert res.exit_code == 2


def test_symmetry_command(runner):
    expected = {
        "bnw": ("|H+| = 12", "|S+| = 6"),
        "tg": ("|H+| = 64", "|S+| = 16"),
        "km": ("|H+| = 192", "|S+| = 48"),
    }
    for name, (h, s) in expected.items():
        res = runner.invoke(main, ["symmetry", "--datum", name])
        assert res.exit_code == 0, res.output
        assert h in res.output
        assert s in res.output


def test_symmetry_command_quarter_lattice(runner, tmp_path):
    # a single mode with a quarter-period symmetry that the half grid misses
    v = static_field({(1, 0, 0): (GaussianRational(0), GaussianRational(1), GaussianRational(0, 1))})
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps(v.to_payload(name="quarter")))
    sizes = {}
    for lattice in (None, "quarter"):
        extra = [] if lattice is None else ["--lattice", lattice]
        res = runner.invoke(main, ["symmetry", "--datum", "file:%s" % path, *extra])
        assert res.exit_code == 0, res.output
        sizes[lattice] = int(res.output.split("|H+| = ")[1].split(",")[0])
    assert sizes["quarter"] > sizes[None]
