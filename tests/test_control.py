import dataclasses
import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import reyex.control
import reyex.estimators
from reyex.control import (
    DEFAULT_BLOWUP_THRESHOLD,
    BracketError,
    ControlTrajectory,
    classical_bounds,
    export_trajectory_csv,
    find_critical_R,
    solve_control,
)
from reyex.data import datum_bnw, datum_km, datum_tg
from reyex.estimators import (
    ConstantsTable,
    EstimatorSet,
    EstimatorTables,
    build_estimator_set,
    default_grid,
)
from reyex.expansion import expand, residual_tail

from oracles import solve_control_reference, solve_control_scipy


def synthetic_estimator(R, n, grid, D_n, D_n1, eps):
    """EstimatorSet with prescribed constant-in-time sample values."""
    m = len(grid)
    return EstimatorSet(
        R=R, n=n, variant="rough", N=1, grid=list(grid),
        D_n=[D_n] * m, D_n1=[D_n1] * m, eps_n=[eps] * m,
    )


GRID = default_grid(100)


def test_zero_forcing_gives_zero_solution():
    est = synthetic_estimator(0.5, 3, GRID, 10.0, 20.0, 0.0)
    traj = solve_control(est, ConstantsTable())
    assert traj.verdict == "GlobalDecay"
    assert max(traj.values) <= 1e-12


def test_solution_is_nonnegative_and_starts_at_zero():
    est = synthetic_estimator(0.2, 3, GRID, 5.0, 8.0, 0.3)
    traj = solve_control(est, ConstantsTable())
    assert traj.values[0] == 0.0
    assert all(v >= 0 for v in traj.values)


def _scipy_at(est, c, times, **tolerances):
    """The scipy reference solution of est's control problem at times."""
    _, sol = solve_control_scipy(est, c, **tolerances)
    return [float(v) for v in sol(times)[0]]


def test_larger_error_gives_larger_solution():
    # each run at its own step ends against the scipy reference of the other
    c = ConstantsTable()
    est_small = synthetic_estimator(0.1, 3, GRID, 5.0, 8.0, 0.1)
    est_big = synthetic_estimator(0.1, 3, GRID, 5.0, 8.0, 0.2)
    t1 = solve_control(est_small, c)
    t2 = solve_control(est_big, c)
    for v, ref in zip(t2.values, _scipy_at(est_small, c, t2.times)):
        assert v >= ref * (1 - 1e-8)
    for v, ref in zip(t1.values, _scipy_at(est_big, c, t1.times)):
        assert ref >= v * (1 - 1e-8)


def test_blowup_detection_with_constant_coefficients():
    # large R and eps: the Riccati term wins and diverges in finite time
    est = synthetic_estimator(2.0, 3, GRID, 50.0, 80.0, 5.0)
    traj = solve_control(est, ConstantsTable())
    assert traj.verdict == "BlowUp"
    assert traj.T_c is not None and 0 < traj.T_c < 20.0
    assert traj.diagnostics["min_step"] < 1e-3


def test_solver_tolerance_convergence(monkeypatch):
    est = synthetic_estimator(0.1, 3, GRID, 5.0, 8.0, 0.5)
    c = ConstantsTable()
    # each run at its own step ends against the scipy reference at the finer tolerances
    for rtol, atol in ((1e-10, 1e-14), (5e-11, 5e-15)):
        monkeypatch.setattr(reyex.control, "DEFAULT_RTOL", rtol)
        monkeypatch.setattr(reyex.control, "DEFAULT_ATOL", atol)
        traj = solve_control(est, c)
        assert (traj.diagnostics["rtol"], traj.diagnostics["atol"]) == (rtol, atol)
        refs = _scipy_at(est, c, traj.times, rtol=5e-11, atol=5e-15)
        for v, ref in zip(traj.values, refs):
            assert v == pytest.approx(ref, rel=1e-8, abs=1e-12)


@pytest.fixture(scope="module")
def bnw2():
    return expand(datum_bnw().field, 2, datum_id="bnw")


@pytest.fixture(scope="module")
def tables2(bnw2):
    return EstimatorTables(bnw2, 3, grid=GRID)


def test_real_expansion_verdicts(bnw2, tables2):
    c = ConstantsTable()
    lo = build_estimator_set(bnw2, 0.01, 3, "rough", constants=c, tables=tables2)
    hi = build_estimator_set(bnw2, 3.0, 3, "rough", constants=c, tables=tables2)
    assert solve_control(lo, c).verdict == "GlobalDecay"
    traj = solve_control(hi, c)
    assert traj.verdict == "BlowUp"
    assert traj.T_c < 1.0


def _assert_matches_scipy(est, c, monkeypatch, value_rtol=1e-8, step_slack=0.0):
    """The Dormand-Prince loop against scipy's RK45: the same verdict, T_c
    within 1e-8 relative and located to the float, and as many accepted
    steps up to step_slack relative; R_n at the loop's step ends within
    value_rtol relative of solve_control_reference there, where the solution
    is well conditioned (below 0.75 T_c and above a thousandth of its
    maximum: the decayed tail is at the absolute tolerance)."""
    quartics = []
    quartic = reyex.control._quartic

    def captured(*step):
        quartics.append(quartic(*step))
        return quartics[-1]

    monkeypatch.setattr(reyex.control, "_quartic", captured)
    got = solve_control(est, c)
    ref, _ = solve_control_scipy(est, c)
    assert got.verdict == ref.verdict
    assert (got.T_c is None) == (ref.T_c is None)
    if ref.T_c is not None:
        assert got.T_c == pytest.approx(ref.T_c, rel=1e-8)
        # T_c is the first float at which the crossing step's quartic reaches the threshold
        (crossing,) = quartics
        assert crossing(math.nextafter(got.T_c, 0)) < DEFAULT_BLOWUP_THRESHOLD <= got.values[-1]
    else:
        assert not quartics
    top = min(got.times[-1], ref.times[-1])
    if ref.T_c is not None:
        top = 0.75 * ref.T_c
    times = [t for t in got.times if t < top]
    wants = solve_control_reference(est, c, times)
    floor = 1e-3 * max(wants)
    checked = [(t, v, want) for t, v, want in zip(times, got.values, wants) if want > floor]
    assert len(checked) >= 10 or max(wants) == 0.0
    for t, v, want in checked:
        assert v == pytest.approx(want, rel=value_rtol), t
    d = got.diagnostics
    steps = ref.diagnostics["num_steps"]
    assert abs(d["num_steps"] - steps) <= step_slack * steps
    # six evaluations per attempted step, two to start and choose the first step
    assert d["rhs_evals"] == 2 + 6 * (d["num_steps"] + d["rejected_steps"])
    return got, ref


@pytest.mark.parametrize("R, D_n, D_n1, eps", [
    (0.5, 10.0, 20.0, 0.0),
    (0.2, 5.0, 8.0, 0.3),
    (0.1, 5.0, 8.0, 0.5),
    (0.05, 1.0, 2.0, 1e-4),
    (2.0, 50.0, 80.0, 5.0),
    (0.6, 3.0, 4.0, 1.0),
])
def test_dormand_prince_matches_scipy_on_constant_sets(R, D_n, D_n1, eps, monkeypatch):
    _assert_matches_scipy(synthetic_estimator(R, 3, GRID, D_n, D_n1, eps), ConstantsTable(),
                          monkeypatch)


# The bnw N=2 rough transition lies between R = 0.06 and 0.08 on GRID.  Next
# to it the solution is ill conditioned: the two integrators, which differ
# only in rounding, give R_n(0.5) 1.0e-8 apart at R = 0.06 and T_c 1.6e-8
# apart at R = 0.08, about as far as scipy's own T_c moves when rtol changes
# by one part in 1e7.  The estimators are only C1 at the grid nodes, and a
# step across one is less accurate than rtol: against the node-to-node
# reference this loop's step ends are off by up to 2.4e-8 (R = 0.02) and
# scipy's RK45 by up to 4.0e-8 (R = 0.15), so values are compared with the
# reference to 3e-8.  Steps that
# straddle a node are often rejected, and rounding decides some of them, so
# the step counts differ by up to 14 in 650 here (9 in 800 over the 75 bench
# stage probes); on the smooth constant sets they are equal.
@pytest.mark.parametrize("R", [0.02, 0.04, 0.1, 0.15, 0.3, 3.0])
def test_dormand_prince_matches_scipy_on_real_probes(bnw2, tables2, R, monkeypatch):
    c = ConstantsTable()
    est = build_estimator_set(bnw2, R, 3, "rough", constants=c, tables=tables2)
    got, _ = _assert_matches_scipy(est, c, monkeypatch, value_rtol=3e-8, step_slack=0.03)
    assert got.verdict == ("GlobalDecay" if R < 0.07 else "BlowUp")


@pytest.fixture(scope="module")
def bnw3_taut():
    """bnw N=3 with its tails, and tautological tables on the default grid."""
    exp = expand(datum_bnw().field, 3, datum_id="bnw")
    residual_tail(exp)
    return exp, EstimatorTables(exp, 3)


@pytest.mark.parametrize("R, verdict", [(0.1, "GlobalDecay"), (0.2, "BlowUp")])
def test_trajectory_retains_under_200_bytes_per_accepted_step(bnw3_taut, R, verdict):
    # a trajectory keeps only its times and values, one boxed float each per
    # step: 64 B with their list slots
    exp, tables = bnw3_taut
    c = ConstantsTable()
    est = build_estimator_set(exp, R, 3, "tautological", constants=c, tables=tables)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = solve_control(est, c)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert traj.verdict == verdict
    assert kept <= 100 * traj.diagnostics["num_steps"]


def _unmemoized(est):
    """A copy of est whose rates evaluates every call afresh."""
    plain = dataclasses.replace(est)

    def rates(t):
        plain._memo = (None, None)
        return EstimatorSet.rates(plain, t)

    plain.rates = rates
    return plain


# the bnw-taut-n3 benchmark's stage probes lie in [0.083, 0.155] below its
# transition and in [0.178, 0.252] above it
@pytest.mark.parametrize("R", [0.09, 0.15, 0.18, 0.25])
def test_rates_memo_leaves_the_trajectory_bit_identical(bnw3_taut, R, monkeypatch):
    exp, tables = bnw3_taut
    c = ConstantsTable()
    est = build_estimator_set(exp, R, 3, "tautological", constants=c, tables=tables)
    lookups = []
    real = reyex.estimators.bisect_right
    monkeypatch.setattr(reyex.estimators, "bisect_right",
                        lambda grid, t: lookups.append(t) or real(grid, t))
    ref = solve_control(_unmemoized(est), c)
    fresh = len(lookups)
    got = solve_control(est, c)
    kept = len(lookups) - fresh
    assert (got.times, got.values, got.verdict, got.T_c) == (ref.times, ref.values, ref.verdict,
                                                             ref.T_c)
    # rhs_evals counts right-hand-side calls, memoized or not
    assert got.diagnostics == ref.diagnostics
    # each attempted step evaluates its sixth and seventh stages at one t
    assert kept < fresh


def test_import_loads_neither_scipy_nor_numpy():
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys, reyex\n"
        "from reyex.control import solve_control\n"
        "from reyex.estimators import ConstantsTable, EstimatorSet, default_grid\n"
        "grid = default_grid(40)\n"
        "m = len(grid)\n"
        "est = EstimatorSet(R=0.1, n=3, variant='rough', N=1, grid=grid, D_n=[2.0] * m,\n"
        "                   D_n1=[3.0] * m, eps_n=[0.4] * m)\n"
        "assert solve_control(est, ConstantsTable()).values[-1] > 0\n"
        "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")
    with open(root / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}
    assert not names & {"scipy", "numpy"}


def test_bisection_brackets_the_transition(bnw2, tables2):
    log = []
    lo, hi = find_critical_R(bnw2, 3, "rough", 0.01, 3.0, tol_R=0.05,
                             tables=tables2, probe_log=log)
    assert hi - lo <= 0.05
    assert 0.01 <= lo < hi <= 3.0
    verdicts = {r: v for r, v, _ in log}
    assert verdicts[lo] == "GlobalDecay"
    assert verdicts[hi] == "BlowUp"


def test_bisection_rejects_bad_bracket(bnw2, tables2):
    with pytest.raises(BracketError):
        find_critical_R(bnw2, 3, "rough", 2.0, 3.0, tol_R=0.05, tables=tables2)
    with pytest.raises(BracketError):
        find_critical_R(bnw2, 3, "rough", 1.0, 1.0, tol_R=0.05, tables=tables2)


@pytest.mark.parametrize("lo, hi", [(0.01, math.inf), (math.nan, 3.0), (-0.1, 3.0)])
def test_bisection_refuses_a_bracket_outside_the_finite_nonnegative_numbers(bnw2, tables2, lo, hi):
    # refused before any probe: the tables would read inf and nan as R = 0
    probe_log = []
    with pytest.raises(BracketError, match="need 0 <= lo < hi < inf"):
        find_critical_R(bnw2, 3, "rough", lo, hi, tables=tables2, probe_log=probe_log)
    assert probe_log == []


def test_bisection_wide_tolerance_returns_input_bracket(bnw2, tables2):
    lo, hi = find_critical_R(bnw2, 3, "rough", 0.01, 3.0, tol_R=10.0, tables=tables2)
    assert (lo, hi) == (0.01, 3.0)


@pytest.fixture
def stub_probe(monkeypatch):
    """find_critical_R with a probe that costs nothing: GlobalDecay below
    R = 0.3, BlowUp from it on."""
    monkeypatch.setattr(reyex.control, "build_estimator_set", lambda exp, R, *args, **kw: R)
    monkeypatch.setattr(reyex.control, "solve_control", lambda R, constants: SimpleNamespace(
        verdict="GlobalDecay" if R < 0.3 else "BlowUp", T_c=None))


@pytest.mark.parametrize("tol_R", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_bisection_refuses_a_tolerance_that_is_not_finite_and_positive(stub_probe, tol_R):
    probe_log = []
    with pytest.raises(ValueError, match="tol_R must be a finite number > 0"):
        find_critical_R(None, 3, "rough", 0.01, 3.0, tol_R=tol_R, tables=object(),
                        probe_log=probe_log)
    assert probe_log == []


def test_bisection_below_the_float_spacing_ends_at_adjacent_floats(stub_probe):
    probe_log = []
    lo, hi = find_critical_R(None, 3, "rough", 0.01, 3.0, tol_R=1e-300, tables=object(),
                             probe_log=probe_log)
    assert lo < 0.3 <= hi == math.nextafter(lo, math.inf)
    probed = [R for R, _, _ in probe_log]
    assert len(set(probed)) == len(probed) < 100


def test_bisection_near_the_largest_float_probes_inside_its_bracket(monkeypatch):
    # lo + hi passes the largest float, so 0.5 * (lo + hi) would be inf
    monkeypatch.setattr(reyex.control, "build_estimator_set", lambda exp, R, *args, **kw: R)
    monkeypatch.setattr(reyex.control, "solve_control", lambda R, constants: SimpleNamespace(
        verdict="GlobalDecay" if R < 1.5e308 else "BlowUp", T_c=None))
    probe_log = []
    lo, hi = find_critical_R(None, 3, "rough", 1e308, 1.7e308, tol_R=1e305, tables=object(),
                             probe_log=probe_log)
    assert hi - lo <= 1e305
    assert lo < 1.5e308 <= hi
    bracket = [1e308, 1.7e308]
    for R, verdict, _ in probe_log[2:]:
        assert bracket[0] < R < bracket[1]
        bracket[verdict == "BlowUp"] = R
    assert tuple(bracket) == (lo, hi)
    assert len(probe_log) > 2


def trunc3(x):
    """Truncate toward zero to 3 significant digits."""
    if x == 0:
        return 0.0
    e = math.floor(math.log10(abs(x)))
    scale = 10.0 ** (e - 2)
    return math.trunc(x / scale) * scale


def test_classical_bounds_reference_values():
    # quoted thresholds are truncated, not rounded, to 3 significant digits
    vals = {
        "bnw": (datum_bnw, 0.0147, 0.00527, 15.39),
        "tg": (datum_tg, 0.0557, 0.0298, 1.813),
        "km": (datum_km, 0.00458, 0.00899, 1.640),
    }
    for name, (build, r3, r1, fac) in vals.items():
        rec = classical_bounds(build())
        assert trunc3(rec["R_h3"]) == pytest.approx(r3, rel=1e-9), name
        assert trunc3(rec["R_h1"]) == pytest.approx(r1, rel=1e-9), name
        assert rec["rey_factor"] == pytest.approx(fac, rel=1e-3), name
        assert rec["Rey_h3"] == pytest.approx(rec["rey_factor"] * rec["R_h3"], rel=1e-12)


def test_exports(tmp_path):
    traj = ControlTrajectory(R=0.5, n=3, variant="rough", times=[0.0, 1.0],
                             values=[0.0, 0.25], verdict="GlobalDecay",
                             diagnostics={"max_value": 0.25})
    csv_path = tmp_path / "t.csv"
    export_trajectory_csv(traj, str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "t,R_3"
    assert len(lines) == 4
