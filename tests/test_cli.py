import hashlib
import inspect
import json
import math
import os
import re
import shutil
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import reyex.control
import reyex.estimators
from reyex.cli import _manifest_hash, main
from reyex.control import DEFAULT_TOL_R, find_critical_R
from reyex.data import datum_tg
from reyex.estimators import DEFAULT_GRID_POINTS, DEFAULT_T_MAX, default_grid
from reyex.expansion import residual_tail


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


NORMS_STDOUT = {
    "bnw": """datum: bnw
norm_1 = 77.157016029765984
norm_3 = 154.31403205953197
marked mode k = (1, 1, 0)
gamma(0) = 22.273311987326831
V_star = 3.4641016151377544
L_star = 4.4428829381583661
rey_factor = 15.390597961942369
classical R_h1 = 0.0052749577542369665 (Rey 0.081184754061691553)
classical R_h3 = 0.014795187400393138 (Rey 0.22770678105104605)
""",
    "tg": """datum: tg
norm_1 = 13.63956231269167
norm_3 = 40.918686938075005
marked mode k = (1, 1, 1)
gamma(0) = 2.7841639984158539
V_star = 0.5
L_star = 3.6275987284684357
rey_factor = 1.8137993642342178
classical R_h1 = 0.029839667187948164 (Rey 0.05412316937446103)
classical R_h3 = 0.055796145811966694 (Rey 0.10120301380046491)
""",
    "km": """datum: km
norm_1 = 45.237310495870418
norm_3 = 497.61041545457465
marked mode k = (3, 1, 1)
gamma(0) = 2.7841639984158539
V_star = 0.8660254037844386
L_star = 1.8944516501989659
rey_factor = 1.6406432553136556
classical R_h1 = 0.0089969981755912264 (Rey 0.014760864374853008)
classical R_h3 = 0.0045881375307335543 (Rey 0.0075274968942494564)
""",
}


@pytest.mark.parametrize("name", sorted(NORMS_STDOUT))
def test_norms_prints_the_working_precision_digits(runner, name):
    # recorded when norms still took --precision, at its 256-bit default
    res = runner.invoke(main, ["norms", "--datum", name])
    assert res.exit_code == 0, res.output
    assert res.output == NORMS_STDOUT[name]


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
    assert manifest["format"] == "reyex-cache/2"
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


@pytest.mark.parametrize("command, variant, n", [
    ("control", "tautological", 4), ("critical", "tautological", 4),
    *[(command, variant, n) for command in ("estimate", "control", "critical")
      for variant, n in (("intermediate:7", 3), ("rough", 4))],
])
def test_usage_errors_come_before_any_table_is_sampled(runner, rundir, tmp_path, monkeypatch,
                                                       command, variant, n):
    """On the N = 2 cache, with G_4 and K_4 not configured, each run exits 2
    before it samples a Gram table.  estimate with the tautological variant
    needs no constant, so it samples and succeeds."""
    calls = []
    real = reyex.estimators.sample_real_polys
    monkeypatch.setattr(reyex.estimators, "sample_real_polys",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    args = ["--cache", str(rundir / "cache"), "--n", str(n), "--variant", variant,
            "--grid-points", "40"]
    res = runner.invoke(main, [command, *args, *PROBE_ARGS[command], str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert ("exceeds N" if variant.startswith("intermediate") else "not configured") in res.output
    assert calls == []
    assert not list(tmp_path.iterdir())
    if variant == "tautological":
        res = runner.invoke(main, ["estimate", *args, *PROBE_ARGS["estimate"],
                                   str(tmp_path / "out.csv")])
        assert res.exit_code == 0, res.output
        assert len(calls) == 1  # the coefficient and the tail tables, in one batch


@pytest.mark.parametrize("bad", [["--t-max", "0.4"], ["--grid-points", "3"]])
@pytest.mark.parametrize("command", ["estimate", "control", "critical"])
def test_bad_grid_or_precision_is_a_usage_error(runner, rundir, tmp_path, command, bad):
    res = runner.invoke(main, [
        command, "--cache", str(rundir / "cache"), *bad,
        *PROBE_ARGS[command], str(tmp_path / "out"),
    ])
    assert res.exit_code == 2, res.output
    assert not list(tmp_path.iterdir())


def test_constants_file_without_K_or_G_keeps_the_defaults(runner, rundir, tmp_path):
    sections = {"K": {"3": 0.323}, "G": {"3": 0.438}}
    outs = []
    for name, raw in (("full", sections), ("K-only", {"K": sections["K"]}), ("empty", {})):
        cpath = tmp_path / (name + ".json")
        cpath.write_text(json.dumps(raw))
        prefix = str(tmp_path / name)
        res = runner.invoke(main, [
            "control", "--cache", str(rundir / "cache"), "--R", "0.25",
            "--grid-points", "40", "--constants", str(cpath), "--output-prefix", prefix,
        ])
        assert res.exit_code == 0, res.output
        outs.append((tmp_path / (name + ".trajectory.csv")).read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("raw, message", [
    ({"K": [1]}, "not an object of sections"),
    (5, "not an object of sections"),
    ([], "not an object of sections"),
    ({"k": {"3": 0.5}}, "not an object of sections"),
    ({"G": "0.438"}, "not an object of sections"),
    ({"K": {"3": None}}, "malformed constant"),
    ({"K": {"3": True}}, "malformed constant"),
    ({"K": {"3": "0.5"}}, "malformed constant"),
    ({"K_pn": {"4,3": 0.5}}, "not an object of sections"),
    ({"G_pn": {"4,3": 0.5}}, "not an object of sections"),
], ids=["section-list", "number", "list", "unknown-section", "section-string", "null-constant",
        "bool-constant", "string-constant", "K_pn-section", "G_pn-section"])
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


@pytest.fixture(scope="module")
def control_run(runner, rundir):
    """A control run at R = 0.01 writing run.verdict.json and
    run.trajectory.csv into rundir, for every test that reads them."""
    return runner.invoke(main, [
        "control", "--cache", str(rundir / "cache"), "--R", "0.01",
        "--variant", "tautological", "--grid-points", "80",
        "--output-prefix", str(rundir / "run"),
    ])


def _check_peak_rss(telemetry):
    """The peak resident memory of a run record, in MB: the process's own is
    positive, and its children's is positive once a table was sampled by a
    forked child (ru_maxrss counts reaped children only)."""
    peak = telemetry["peak_rss_mb"]
    assert set(peak) == {"self", "children"}
    assert peak["self"] > 0
    forked = any(max(s.get("workers", 1), s.get("build_workers", 1)) > 1
                 for s in telemetry.values())
    assert peak["children"] > 0 if forked else peak["children"] >= 0


def test_control_verdict_files(control_run, rundir):
    assert control_run.exit_code == 0, control_run.output
    assert "verdict: GlobalDecay" in control_run.output
    rec = json.loads((rundir / "run.verdict.json").read_text())
    assert rec["verdict"] == "GlobalDecay"
    assert rec["N"] == 2
    assert rec["run_manifest_hash"]
    # the tables' stats, both kinds for the tautological variant, and the
    # peak memory; the run manifest hash covers the configuration only
    telemetry = rec["telemetry"]
    assert set(telemetry) == {"coeff", "tail", "assembly", "peak_rss_mb"}
    assert telemetry["assembly"]["probes"] == 1
    _check_peak_rss(telemetry)
    assert rec["run_manifest_hash"] == _manifest_hash(rec["run_manifest"])
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
    # converted at the datum layer's working precision
    assert (rec["R_lo"], rec["R_hi"]) == (0.01, 0.38375)
    assert (rec["Rey_lo"], rec["Rey_hi"]) == (0.1539059796194237, 5.906141967895384)
    probes = {p["R"]: p["verdict"] for p in rec["probes"]}
    assert probes[rec["R_lo"]] == "GlobalDecay"
    assert probes[rec["R_hi"]] == "BlowUp"
    assert rec["tol_met"] is True
    assert rec["stopped_at"] is None
    assert "tolerance not met" not in res.output
    # the tables' stats: the sampling of the one table kind the rough
    # variant reads, then the assembly; and the peak memory
    telemetry = rec["telemetry"]
    assert set(telemetry) == {"coeff", "assembly", "peak_rss_mb"}
    _check_peak_rss(telemetry)
    assembly = telemetry["assembly"]
    assert set(assembly) == {"probes", "seconds", "columns_s"}
    assert assembly["probes"] == len(rec["probes"])
    assert assembly["seconds"] > assembly["columns_s"] > 0
    coeff = telemetry["coeff"]
    assert set(coeff) == {
        "build_s", "build_workers", "terms", "max_bits_lost", "reevaluated", "max_precision",
        "fallbacks", "eval_s", "workers", "batch",
    }
    # the cache holds tails, but the rough variant samples no tail Gram
    assert coeff["batch"] == ["coeff"]
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


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_critical_refuses_a_tolerance_that_is_not_finite_and_positive(runner, rundir, tmp_path,
                                                                     value):
    res = runner.invoke(main, [
        "critical", "--cache", str(rundir / "cache"), "--grid-points", "40",
        "--lo", "0.01", "--hi", "3.0", "--tol-r=" + value, "--output", str(tmp_path / "out"),
    ])
    assert res.exit_code == 2, res.output
    assert "tol_R must be a finite number > 0" in res.output
    assert not list(tmp_path.iterdir())


def test_critical_says_when_the_bracket_ends_are_adjacent_floats(runner, rundir, tmp_path,
                                                                monkeypatch):
    # a stub probe: GlobalDecay below R = 0.3, BlowUp from it on
    monkeypatch.setattr(reyex.control, "build_estimator_set", lambda exp, R, *args, **kw: R)
    monkeypatch.setattr(reyex.control, "solve_control", lambda R, constants: SimpleNamespace(
        verdict="GlobalDecay" if R < 0.3 else "BlowUp", T_c=None))
    out = tmp_path / "bracket.json"
    res = runner.invoke(main, [
        "critical", "--cache", str(rundir / "cache"), "--grid-points", "40",
        "--lo", "0.01", "--hi", "3.0", "--tol-r", "1e-300", "--output", str(out),
    ])
    assert res.exit_code == 0, res.output
    rec = json.loads(out.read_text())
    assert rec["R_hi"] == math.nextafter(rec["R_lo"], math.inf)
    assert rec["tol_met"] is False
    assert rec["stopped_at"] is None
    assert res.output.splitlines()[-1] == (
        "tolerance not met: width %.17g > --tol-r 1e-300; no float lies between R_lo and R_hi"
        % (rec["R_hi"] - rec["R_lo"])
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


@pytest.mark.parametrize("selector", ["km", "file"])
def test_critical_refuses_a_datum_that_is_not_the_caches(runner, rundir, tmp_path, selector):
    # the cache is bnw's; a datum file carries the name user whatever it holds
    if selector == "file":
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum_tg().field.to_payload(name="user")))
        selector = "file:%s" % path
    out = tmp_path / "bracket.json"
    res = runner.invoke(main, [
        "critical", "--cache", str(rundir / "cache"), "--lo", "0.01", "--hi", "3.0",
        "--tol-r", "0.5", "--grid-points", "80", "--datum", selector,
        "--output", str(out),
    ])
    assert res.exit_code == 2, res.output
    assert "is not the datum of the cache (bnw)" in res.output
    assert not out.exists()


def test_critical_bad_bracket(runner, rundir, tmp_path):
    res = runner.invoke(main, [
        "critical", "--cache", str(rundir / "cache"), "--lo", "2.0", "--hi", "3.0",
        "--tol-r", "0.5", "--grid-points", "80", "--output", str(tmp_path / "b.json"),
    ])
    assert res.exit_code == 2


def test_report(runner, rundir, control_run):
    assert control_run.exit_code == 0, control_run.output
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


def test_report_refuses_a_datum_that_is_not_the_caches(runner, rundir, tmp_path):
    shutil.copytree(rundir / "cache", tmp_path / "cache")
    (tmp_path / "run.verdict.json").write_text(json.dumps({"R": 0.1, "verdict": "BlowUp"}))
    res = runner.invoke(main, ["report", "--run-dir", str(tmp_path), "--datum", "km"])
    assert res.exit_code == 2, res.output
    assert "is not the datum of the cache (bnw)" in res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "run.verdict.json"]


REPORT_SUMMARY = """\
gamma(0) = 22.273311987326831 at k = ((1, 1, 0),)
norm_3 = 154.31403205953197
classical bounds: R_h3 = 0.014795187400393138, R_h1 = 0.0052749577542369665
rey_factor = 15.390597961942369
verdict at R=0.23000000000000001: BlowUp (T_c = 1.5)
"""
# sha256 of the lines of gamma.csv below its header, joined by newlines
REPORT_GAMMA_SHA256 = "61187e332d5d43824d4484ff4d4c1312cedcd1c7594f26be32711a18086e5726"


def test_report_prints_the_working_precision_digits(runner, rundir, tmp_path):
    # bnw N=2 with tails at R = 0.23; recorded when report still took
    # --precision, at its 256-bit default.  Only the manifest hash may move.
    shutil.copytree(rundir / "cache", tmp_path / "cache")
    (tmp_path / "run.verdict.json").write_text(
        json.dumps({"R": 0.23, "verdict": "BlowUp", "T_c": 1.5}))
    res = runner.invoke(main, ["report", "--run-dir", str(tmp_path), "--datum", "bnw"])
    assert res.exit_code == 0, res.output
    head, body = (tmp_path / "summary.txt").read_text().split("\n", 1)
    assert head.startswith("datum bnw, expansion order N=2, manifest ")
    assert body == REPORT_SUMMARY
    lines = (tmp_path / "gamma.csv").read_text().splitlines()
    assert lines[0].startswith("# datum=bnw k=(1, 1, 0) R=0.23000000000000001 N=2 hash=")
    assert len(lines) == 202
    assert lines[2] == "0,22.273311987326831"
    assert lines[-1] == "20,9.4068735510203087e-17"
    assert hashlib.sha256("\n".join(lines[1:]).encode()).hexdigest() == REPORT_GAMMA_SHA256


@pytest.mark.parametrize("command, option", [
    ("norms", "--precision"), ("report", "--precision"), ("estimate", "--precision"),
    ("control", "--precision"), ("critical", "--precision"), ("control", "--blowup-threshold"),
    ("symmetry", "--lattice"),
], ids=["norms", "report", "estimate", "control", "critical", "control-blowup-threshold",
        "symmetry-lattice"])
def test_datum_commands_take_no_precision(runner, rundir, tmp_path, command, option):
    # no command sets a precision, control has no blow-up threshold, and
    # symmetry searches the one half-period lattice
    shutil.copytree(rundir / "cache", tmp_path / "cache")
    (tmp_path / "run.verdict.json").write_text(json.dumps({"R": 0.1, "verdict": "BlowUp"}))
    value = {"--blowup-threshold": "1e6", "--lattice": "quarter"}.get(option, "256")
    if command in PROBE_ARGS:
        args = ["--cache", str(tmp_path / "cache"), *PROBE_ARGS[command], str(tmp_path / "out")]
    else:
        args = {"norms": [], "report": ["--run-dir", str(tmp_path)], "symmetry": []}[command]
        args += ["--datum", "bnw"]
    res = runner.invoke(main, [command, *args, option, value])
    assert res.exit_code == 2, res.output
    assert "No such option '%s'" % option in res.output
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


def _readme_invocations():
    """(command, options) of every reyex invocation README.md shows: the
    lines of its fenced blocks, continuations joined and comments cut, and
    its inline code spans that start with `reyex`, with a subcommand name
    and an option, or with an option alone (command None)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    segments = []
    for i, part in enumerate(text.split("```")):
        if i % 2:
            for line in part.replace("\\\n", " ").splitlines():
                segments.append(line.split("#", 1)[0])
        else:
            segments.extend(re.findall(r"`([^`]+)`", part))
    out = []
    for seg in segments:
        tokens = seg.split()
        if tokens[:1] == ["reyex"]:
            tokens = tokens[1:]
        elif tokens[:1] and tokens[0].startswith("--"):
            tokens = [None, *tokens]
        elif not (tokens[:1] and tokens[0] in main.commands and tokens[1:2]
                  and tokens[1].startswith("--")):
            continue
        if tokens:
            out.append((tokens[0], [t.split("=", 1)[0] for t in tokens[1:]
                                    if t.startswith("--")]))
    return out


def test_readme_names_only_existing_commands_and_options():
    # reads click's command objects; runs no command
    def opts(cmd):
        return {o for p in cmd.params for o in p.opts + p.secondary_opts}

    group = opts(main)
    anywhere = group.union(*map(opts, main.commands.values()))
    seen = set()
    for command, options in _readme_invocations():
        if command is None:
            known = anywhere
        else:
            assert command in main.commands, command
            known = group | opts(main.commands[command])
            seen.add(command)
        for option in options:
            assert option in known, (command, option)
    assert seen == set(main.commands)
