"""Self-tests of the benchmark harness (not of reyex).

    python3 -m pytest -q bench/test_harness.py

They run real passes of two workloads, so they take about a minute.
"""

import json
import random

import pytest

from benchenv import ROOT, require_source

require_source()

import run  # noqa: E402
import workloads as wl  # noqa: E402
from speed import REFERENCE_UNIT_S, Timeline  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def run_main(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert len(name) <= 64 and name[0].isalnum() and set(name) <= NAME_CHARS, name
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(capsys, trace, group):
    result = run_main(capsys, "--workload", "rand-plain-n3", "--seed", "3",
                      "--seconds", "1", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_corrupted_golden_digest_fails_the_pass(capsys, tmp_path, monkeypatch):
    golden = wl.load_golden()
    digests = golden["km-rough-n3"]["digests"]
    digests["u_002"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(wl, "GOLDEN_PATH", path)
    result = run_main(capsys, "--workload", "km-rough-n3", "--seed", "1", "--seconds", "1")
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def _bisect(lo, hi, tol, verdict):
    log = [(lo, verdict(lo), None), (hi, verdict(hi), None)]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        v = verdict(mid)
        log.append((mid, v, None))
        if v == wl.GD:
            lo = mid
        elif v == wl.BU:
            hi = mid
        else:
            break
    return log, (lo, hi)


def test_bracket_replay():
    band = [0.4, 0.6]
    log, bracket = _bisect(0.1, 0.9, 0.01, lambda R: wl.GD if R < 0.5 else wl.BU)
    assert wl.check_bracket(log, 0.1, 0.9, 0.01, band, bracket) == []
    # an Inconclusive probe inside the band ends the refinement legitimately
    log, bracket = _bisect(0.1, 0.9, 0.01, lambda R: wl.GD if R < 0.45 else "Inconclusive" if R < 0.55 else wl.BU)
    assert wl.check_bracket(log, 0.1, 0.9, 0.01, band, bracket) == []
    # a verdict outside the recorded band, a wrong bracket, a missing probe
    bad, bracket = _bisect(0.1, 0.9, 0.01, lambda R: wl.GD if R < 0.3 else wl.BU)
    assert wl.check_bracket(bad, 0.1, 0.9, 0.01, band, bracket)
    log, bracket = _bisect(0.1, 0.9, 0.01, lambda R: wl.GD if R < 0.5 else wl.BU)
    assert wl.check_bracket(log, 0.1, 0.9, 0.01, band, (bracket[0], 0.9))
    assert wl.check_bracket(log[:-1], 0.1, 0.9, 0.01, band, bracket)


@pytest.mark.parametrize("name", ["bnw-taut-n3", "km-rough-n3"])
def test_endpoints_fix_the_probe_count(name):
    band = wl.load_golden()[name]["band"]
    for seed in range(50):
        lo, hi = wl.bisection_endpoints(random.Random(seed), band)
        assert lo < band[0] and hi > band[1]
        log, _ = _bisect(lo, hi, wl.BISECTION_TOL,
                         lambda R: "Inconclusive" if band[0] <= R <= band[1]
                         else wl.GD if R < band[0] else wl.BU)
        assert len(log) == 2 + wl.BISECTION_HALVINGS + 1


def test_timeline_takes_out_units_and_speed():
    # a unit every 10 ms, taking the reference time for the first 0.5 s and
    # twice it after (a core at half speed); a unit's own time maps to nothing
    samples, t = [], 0.0
    for i in range(100):
        d = REFERENCE_UNIT_S * (1 if i < 50 else 2)
        samples.append((t, d))
        t += 0.01
    tl = Timeline(samples)
    assert tl.seconds(samples[0][0], samples[0][0] + samples[0][1]) == 0.0
    fast = tl.seconds(samples[10][0], samples[20][0])
    slow = tl.seconds(samples[70][0], samples[80][0])
    assert fast == pytest.approx(10 * (0.01 - REFERENCE_UNIT_S))
    assert slow == pytest.approx(10 * (0.01 - 2 * REFERENCE_UNIT_S) / 2)
    assert tl(-1.0) < tl(0.0) < tl(0.5) < tl(2.0)
