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
    coefficient_bound,
    export_trajectory_csv,
    find_critical_R,
    solve_control,
    solve_higher_order,
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

from oracles import solve_control_scipy, solve_higher_order_reference


def synthetic_estimator(R, n, grid, D_n, D_n1, eps):
    """EstimatorSet with prescribed constant-in-time sample values."""
    m = len(grid)
    return EstimatorSet(
        R=R, n=n, variant="rough", N=1, grid=list(grid),
        D_n=[D_n] * m, D_n1=[D_n1] * m, eps_n=[eps] * m, precision=256,
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


def test_larger_error_gives_larger_solution():
    c = ConstantsTable()
    est_small = synthetic_estimator(0.1, 3, GRID, 5.0, 8.0, 0.1)
    est_big = synthetic_estimator(0.1, 3, GRID, 5.0, 8.0, 0.2)
    t1 = solve_control(est_small, c)
    t2 = solve_control(est_big, c)
    for t in (0.5, 1.0, 3.0, 10.0):
        assert t2.value(t) >= t1.value(t) * (1 - 1e-8)


def test_blowup_detection_with_constant_coefficients():
    # large R and eps: the Riccati term wins and diverges in finite time
    est = synthetic_estimator(2.0, 3, GRID, 50.0, 80.0, 5.0)
    traj = solve_control(est, ConstantsTable())
    assert traj.verdict == "BlowUp"
    assert traj.T_c is not None and 0 < traj.T_c < 20.0
    assert traj.diagnostics["min_step"] < 1e-3


def test_solver_tolerance_convergence():
    est = synthetic_estimator(0.1, 3, GRID, 5.0, 8.0, 0.5)
    c = ConstantsTable()
    t1 = solve_control(est, c, rtol=1e-10, atol=1e-14)
    t2 = solve_control(est, c, rtol=5e-11, atol=5e-15)
    for t in (0.5, 2.0, 8.0):
        assert t1.value(t) == pytest.approx(t2.value(t), rel=1e-8, abs=1e-12)


def test_tolerances_are_checked():
    est = synthetic_estimator(0.1, 3, GRID, 5.0, 8.0, 0.5)
    for rtol, atol in ((1e-10, 0.0), (1e-16, 1e-14), (-1.0, 1e-14)):
        with pytest.raises(ValueError):
            solve_control(est, ConstantsTable(), rtol=rtol, atol=atol)


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


def _assert_matches_scipy(est, c, value_rtol=1e-8, step_slack=0.0):
    """The Dormand-Prince loop against scipy's RK45: the same verdict, T_c
    within 1e-8 relative and located to the float, R_n within value_rtol
    relative at interior times, where the solution is well conditioned
    (below 0.75 T_c and above a thousandth of its maximum: the decayed tail
    is at the absolute tolerance), and as many accepted steps up to
    step_slack relative."""
    got, ref = solve_control(est, c), solve_control_scipy(est, c)
    assert got.verdict == ref.verdict
    assert (got.T_c is None) == (ref.T_c is None)
    if ref.T_c is not None:
        assert got.T_c == pytest.approx(ref.T_c, rel=1e-8)
        # T_c is the first float at which the last step's quartic reaches the threshold
        assert got.values[-1] >= DEFAULT_BLOWUP_THRESHOLD > got.value(math.nextafter(got.T_c, 0))
    top = min(got.times[-1], ref.times[-1])
    if ref.T_c is not None:
        top = 0.75 * ref.T_c
    times = [top * k / 40 for k in range(1, 40)]
    wants = [ref.value(t) for t in times]
    floor = 1e-3 * max(wants)
    checked = [(t, want) for t, want in zip(times, wants) if want > floor]
    assert len(checked) >= 10 or max(wants) == 0.0
    for t, want in checked:
        assert got.value(t) == pytest.approx(want, rel=value_rtol), t
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
def test_dormand_prince_matches_scipy_on_constant_sets(R, D_n, D_n1, eps):
    _assert_matches_scipy(synthetic_estimator(R, 3, GRID, D_n, D_n1, eps), ConstantsTable())


# The bnw N=2 rough transition lies between R = 0.06 and 0.08 on GRID.  Next
# to it the solution is ill conditioned: the two integrators, which differ
# only in rounding, give R_n(0.5) 1.0e-8 apart at R = 0.06 and T_c 1.6e-8
# apart at R = 0.08, about as far as scipy's own T_c moves when rtol changes
# by one part in 1e7.  The estimators are only C1 at the grid nodes, where
# the dense output of either integrator is accurate to about 2e-8: against
# DOP853 at rtol 2e-14, R_n(0.0545) at R = 0.15 is off by 2.0e-8 in scipy's
# RK45 and by 4.3e-9 here, so values are compared to 3e-8.  Steps that
# straddle a node are often rejected, and rounding decides some of them, so
# the step counts differ by up to 14 in 650 here (9 in 800 over the 75 bench
# stage probes); on the smooth constant sets they are equal.
@pytest.mark.parametrize("R", [0.02, 0.04, 0.1, 0.15, 0.3, 3.0])
def test_dormand_prince_matches_scipy_on_real_probes(bnw2, tables2, R):
    c = ConstantsTable()
    est = build_estimator_set(bnw2, R, 3, "rough", constants=c, tables=tables2)
    got, _ = _assert_matches_scipy(est, c, value_rtol=3e-8, step_slack=0.03)
    assert got.verdict == ("GlobalDecay" if R < 0.07 else "BlowUp")


def test_trajectory_dense_output_meets_the_steps():
    est = synthetic_estimator(0.2, 3, GRID, 5.0, 8.0, 0.3)
    traj = solve_control(est, ConstantsTable())
    assert traj.diagnostics["rejected_steps"] >= 0
    for t, v in zip(traj.times, traj.values):
        assert traj.value(t) == pytest.approx(v, rel=1e-12, abs=1e-15)
    assert "_dense" not in repr(traj)
    other = ControlTrajectory(**{k: getattr(traj, k) for k in
                                 ("R", "n", "variant", "times", "values", "verdict", "T_c",
                                  "diagnostics")})
    assert other == traj


@pytest.fixture(scope="module")
def bnw3_taut():
    """bnw N=3 with its tails, and tautological tables on the default grid."""
    exp = expand(datum_bnw().field, 3, datum_id="bnw")
    residual_tail(exp)
    return exp, EstimatorTables(exp, 3)


@pytest.mark.parametrize("R, verdict", [(0.1, "GlobalDecay"), (0.2, "BlowUp")])
def test_trajectory_retains_under_200_bytes_per_accepted_step(bnw3_taut, R, verdict):
    # times and values hold one boxed float each per step (64 B with their
    # list slots) and the dense output 9 doubles (72 B); a step held as
    # tuples of boxed floats costs about 380 B
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
    assert kept <= 200 * traj.diagnostics["num_steps"]


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


def test_rates_memo_leaves_the_higher_order_control_bit_identical(bnw2, tables2, tables2_p4):
    traj_n = solve_control(build_estimator_set(bnw2, 0.06, 3, "rough", HIGHER, tables2), HIGHER)
    est_p = build_estimator_set(bnw2, 0.06, 4, "rough", HIGHER, tables2_p4)
    assert solve_higher_order(est_p, traj_n, HIGHER) == solve_higher_order(
        _unmemoized(est_p), traj_n, HIGHER)


def test_import_loads_neither_scipy_nor_numpy():
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys, reyex\n"
        "from reyex.control import ControlTrajectory, solve_higher_order\n"
        "from reyex.estimators import ConstantsTable, EstimatorSet, default_grid\n"
        "grid = default_grid(40)\n"
        "m = len(grid)\n"
        "est = EstimatorSet(R=0.1, n=4, variant='rough', N=1, grid=grid, D_n=[2.0] * m,\n"
        "                   D_n1=[3.0] * m, eps_n=[0.4] * m, precision=256)\n"
        "traj = ControlTrajectory(R=0.1, n=3, variant='rough', times=grid,\n"
        "                         values=[0.5] * m, verdict='GlobalDecay')\n"
        "c = ConstantsTable(K={3: 0.323, 4: 0.5}, G={3: 0.438, 4: 0.6}, G_pn={(4, 3): 0.7})\n"
        "assert solve_higher_order(est, traj, c)[1][-1] > 0\n"
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


def test_higher_order_zero_error_gives_zero():
    c = ConstantsTable(K={3: 0.323, 4: 0.5}, G={3: 0.438, 4: 0.6},
                       G_pn={(4, 3): 0.7})
    est_p = synthetic_estimator(0.1, 4, GRID, 5.0, 8.0, 0.0)
    traj_n = ControlTrajectory(R=0.1, n=3, variant="rough", times=list(GRID),
                               values=[0.0] * len(GRID), verdict="GlobalDecay")
    times, values = solve_higher_order(est_p, traj_n, c)
    assert max(values) == 0.0


def test_higher_order_at_R_zero_is_plain_convolution():
    c = ConstantsTable(K={3: 0.323, 4: 0.5}, G={3: 0.438, 4: 0.6},
                       G_pn={(4, 3): 0.7})
    eps = 0.25
    est_p = synthetic_estimator(0.0, 4, GRID, 5.0, 8.0, eps)
    traj_n = ControlTrajectory(R=0.0, n=3, variant="rough", times=list(GRID),
                               values=[0.0] * len(GRID), verdict="GlobalDecay")
    times, values = solve_higher_order(est_p, traj_n, c)
    for t, v in zip(times, values):
        # int_0^t e^{s-t} eps ds = eps (1 - e^{-t})
        assert v == pytest.approx(eps * (1 - math.exp(-t)), rel=1e-8, abs=1e-12)


def test_higher_order_satisfies_the_linear_ode():
    c = ConstantsTable(K={3: 0.323, 4: 0.5}, G={3: 0.438, 4: 0.6},
                       G_pn={(4, 3): 0.7})
    est_p = synthetic_estimator(0.3, 4, GRID, 2.0, 3.0, 0.4)
    traj_n = ControlTrajectory(R=0.3, n=3, variant="rough", times=list(GRID),
                               values=[0.5] * len(GRID), verdict="GlobalDecay")
    times, values = solve_higher_order(est_p, traj_n, c)
    from scipy.interpolate import PchipInterpolator

    rp = PchipInterpolator(times, values)
    rate = 0.6 * 2.0 + 0.5 * 3.0 + 0.7 * 0.5  # G_p D_p + K_p D_{p+1} + G_pn R_n
    for t in (1.0, 3.0, 7.0):
        h = 1e-5
        deriv = (rp(t + h) - rp(t - h)) / (2 * h)
        expected = -rp(t) + 0.3 * rate * rp(t) + 0.4
        assert float(deriv) == pytest.approx(float(expected), rel=5e-4, abs=1e-6)


HIGHER = ConstantsTable(K={3: 0.323, 4: 0.5}, G={3: 0.438, 4: 0.6}, G_pn={(4, 3): 0.7})


def _still_R_n(R, grid, value):
    return ControlTrajectory(R=R, n=3, variant="rough", times=list(grid),
                             values=[value] * len(grid), verdict="GlobalDecay")


@pytest.fixture(scope="module")
def tables2_p4(bnw2):
    return EstimatorTables(bnw2, 4, grid=GRID)


@pytest.mark.parametrize("R", [0.01, 0.06])
def test_higher_order_matches_the_dop853_reference_on_real_probes(bnw2, tables2, tables2_p4, R):
    # the solution is well conditioned above a thousandth of its maximum;
    # below it the absolute tolerance dominates
    traj_n = solve_control(build_estimator_set(bnw2, R, 3, "rough", HIGHER, tables2), HIGHER)
    est_p = build_estimator_set(bnw2, R, 4, "rough", HIGHER, tables2_p4)
    times, got = solve_higher_order(est_p, traj_n, HIGHER)
    ref_times, ref = solve_higher_order_reference(est_p, traj_n, HIGHER)
    assert times == ref_times
    top = max(ref)
    assert top > 0
    for t, g, r in zip(times, got, ref):
        if r > 1e-3 * top:
            assert g == pytest.approx(r, rel=1e-6), t


def test_higher_order_forms_each_quartic_of_R_n_once(monkeypatch):
    """bnw N=3 rough at R = 0.05: the solve reads R_n at every stage of its
    own steps, going back after each step it rejects, yet forms the quartic
    of each step at most once, R_n's and its own; the values are those of a
    solve on a fresh R_n."""
    import reyex.control

    exp = expand(datum_bnw().field, 3, datum_id="bnw")
    grid = default_grid()
    est_n = build_estimator_set(exp, 0.05, 3, "rough", HIGHER, EstimatorTables(exp, 3, grid=grid))
    est_p = build_estimator_set(exp, 0.05, 4, "rough", HIGHER, EstimatorTables(exp, 4, grid=grid))
    expected = solve_higher_order(est_p, solve_control(est_n, HIGHER), HIGHER)
    traj_n = solve_control(est_n, HIGHER)
    formed, integrated = [], []
    quartic, integrate = reyex.control._quartic, reyex.control._dormand_prince

    def counted(t_old, record):
        formed.append((t_old, tuple(record)))
        return quartic(t_old, record)

    def marked(*args):
        # while R_p is integrated, with no event, only R_n is read
        out = integrate(*args)
        integrated.append(len(formed))
        return out

    monkeypatch.setattr(reyex.control, "_quartic", counted)
    monkeypatch.setattr(reyex.control, "_dormand_prince", marked)
    assert solve_higher_order(est_p, traj_n, HIGHER) == expected
    assert traj_n.diagnostics["rejected_steps"] > 0
    (of_n,) = integrated
    assert len(set(formed[:of_n])) == of_n <= traj_n.diagnostics["num_steps"]
    assert len(set(formed[of_n:])) == len(formed) - of_n


def test_higher_order_at_R_zero_on_a_long_grid():
    # e^{t} overflows a double past t = 709
    grid = default_grid(100, 800.0)
    eps = 0.25
    est_p = synthetic_estimator(0.0, 4, grid, 5.0, 8.0, eps)
    times, values = solve_higher_order(est_p, _still_R_n(0.0, grid, 0.0), HIGHER)
    assert times == grid
    for t, v in zip(times, values):
        assert v == pytest.approx(eps * (1 - math.exp(-t)), rel=1e-8, abs=1e-12)


def test_higher_order_integrates_from_zero_whatever_the_times():
    eps = 0.25
    est_p = synthetic_estimator(0.0, 4, GRID, 5.0, 8.0, eps)
    times, values = solve_higher_order(est_p, _still_R_n(0.0, GRID, 0.0), HIGHER,
                                       times=[1.0, 2.0])
    assert times == [1.0, 2.0]
    for t, v in zip(times, values):
        assert v == pytest.approx(eps * (1 - math.exp(-t)), rel=1e-8)
    assert solve_higher_order(est_p, _still_R_n(0.0, GRID, 0.0), HIGHER, times=[0.0]) == (
        [0.0], [0.0])


@pytest.mark.parametrize("R", [0.05, 0.3])
def test_higher_order_with_constant_coefficients_is_closed_form(R):
    # R_p' = -lam R_p + eps with lam = 1 - R rate: R_p = eps/lam (1 - e^{-lam t})
    eps = 0.4
    est_p = synthetic_estimator(R, 4, GRID, 2.0, 3.0, eps)
    rate = 0.6 * 2.0 + 0.5 * 3.0 + 0.7 * 0.5  # G_p D_p + K_p D_{p+1} + G_pn R_n
    lam = 1 - R * rate
    times, values = solve_higher_order(est_p, _still_R_n(R, GRID, 0.5), HIGHER)
    for t, v in zip(times, values):
        assert v == pytest.approx(eps / lam * -math.expm1(-lam * t), rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("times, message", [
    ([], "empty"),
    ([1.0, 1.0], "strictly increasing"),
    ([2.0, 1.0], "strictly increasing"),
    ([-1.0, 1.0], "nonnegative"),
    ([1.0, 20.5], "past the end"),
])
def test_higher_order_checks_the_times(times, message):
    est_p = synthetic_estimator(0.1, 4, GRID, 2.0, 3.0, 0.4)
    with pytest.raises(ValueError, match=message):
        solve_higher_order(est_p, _still_R_n(0.1, GRID, 0.5), HIGHER, times=times)


def test_higher_order_reports_a_failed_integration():
    # a growth rate of about 1,400: R_p overflows before t = 1
    est_p = synthetic_estimator(1.0, 4, GRID, 1e3, 1e3, 1.0)
    with pytest.raises(RuntimeError, match="integration failed"):
        solve_higher_order(est_p, _still_R_n(1.0, GRID, 0.0), HIGHER, times=[0.0, 20.0])


def test_coefficient_bound_values():
    traj = ControlTrajectory(R=0.5, n=3, variant="rough", times=[0.0, 1.0, 2.0, 3.0],
                             values=[0.0, 1.441, 1.0, 0.5], verdict="GlobalDecay")
    assert coefficient_bound(traj, (1, 1, 0), 1.0) == pytest.approx(1.441 / 2**1.5)
    k_small = coefficient_bound(traj, (2, 2, 0), 1.0)
    assert k_small < coefficient_bound(traj, (1, 1, 0), 1.0)
    assert coefficient_bound(traj, (1, 0, 0), 0.0) == 0.0
    with pytest.raises(ValueError):
        coefficient_bound(traj, (0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        coefficient_bound(traj, (1, 0, 0), 99.0)


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
