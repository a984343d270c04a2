"""The Riccati control Cauchy problem and its consequences.

The scalar control quantity R_n obeys

    dR_n/dt = -R_n + R (G_n D_n + K_n D_{n+1}) R_n + R G_n R_n^2 + eps_n,
    R_n(0) = 0.

If R_n stays finite up to t the difference between the true solution and the
order-N approximant is controlled mode by mode:
(2 pi)^{3/2} |u_k(t) - u^N_k(t)| <= R_n(t) / |k|^n.  Blow-up of R_n at some
finite time yields no conclusion beyond that time, and the critical Reynolds
parameter is bracketed by bisection on the verdict.

This problem, and the linear one of the higher-order control R_p
(solve_higher_order), are integrated by the Dormand-Prince RK5(4) pair
with its quartic dense output (Dormand & Prince 1980; Hairer, Norsett &
Wanner, Solving Ordinary Differential Equations I, II.4-5), in a loop on
Python floats that takes the steps solve_ivp(method="RK45") takes: the same
tableau, initial step, step-size control and terminal event at the blow-up
threshold.  The event time is located by bisecting the step's dense output
down to adjacent floats, where solve_ivp runs Brent's method, so the two
agree to within that method's tolerance.

Verdicts are computer indications, not certified proofs: the integration is
floating point over interpolated estimator tables.
"""

from __future__ import annotations

import csv
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dc_field

import mpmath

from .estimators import ConstantsTable, EstimatorTables, build_estimator_set
from .fields import wave_norm_sq
from .timepoly import DEFAULT_EVAL_PRECISION

__all__ = [
    "ControlTrajectory",
    "BracketError",
    "solve_control",
    "find_critical_R",
    "solve_higher_order",
    "coefficient_bound",
    "classical_bounds",
    "export_trajectory_csv",
]

DEFAULT_BLOWUP_THRESHOLD = 1e6
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-14
DECAY_FLOOR_FACTOR = 1e-6
DEFAULT_TOL_R = 0.01

EPS = sys.float_info.epsilon

# The Dormand-Prince tableau as solve_ivp's RK45 holds it: the stage times C,
# the stage weights A, the fifth-order weights B, the error weights E (fifth
# minus fourth order, over the seven stages, the last being the derivative
# at the step's end) and the dense-output matrix P.  The second stage has
# zero weight in B, E and P.
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40,
)
P = (  # rows for stages 1, 3, 4, 5, 6, 7
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
SAFETY = 0.9  # factor on the asymptotically optimal step
MIN_FACTOR = 0.2  # the most a rejected step shrinks the next
MAX_FACTOR = 10.0  # the most an accepted step grows the next
ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4


class BracketError(ValueError):
    """The bisection endpoints do not straddle the critical parameter."""


class _QuarticDense:
    """The continuous solution: on each accepted step the quartic
    y_old + h (Q_0 x + Q_1 x^2 + Q_2 x^3 + Q_3 x^4), x = (t - t_old) / h,
    with Q = K P formed from the step's stages K.  Step i serves t in
    (t_i, t_{i+1}], the first step also t_0."""

    def __init__(self):
        self.starts = []
        self.steps = []  # (h, y_old, stages)

    def append(self, t_old, h, y_old, stages):
        self.starts.append(t_old)
        self.steps.append((h, y_old, stages))

    def quartic(self, i):
        """Step i's quartic as a function of t, with its Q formed once."""
        h, y_old, stages = self.steps[i]
        t_old = self.starts[i]
        Q = [sum(k * row[j] for k, row in zip(stages, P)) for j in range(4)]

        def value(t):
            x = (t - t_old) / h
            x2 = x * x
            x3 = x2 * x
            return y_old + h * (Q[0] * x + Q[1] * x2 + Q[2] * x3 + Q[3] * (x3 * x))

        return value

    def __call__(self, t):
        i = min(max(bisect_left(self.starts, t) - 1, 0), len(self.steps) - 1)
        return self.quartic(i)(t)


def _initial_step(rhs, t, y, f, t_bound, rtol, atol):
    """The first step size (Hairer, Norsett & Wanner II.4), as
    select_initial_step chooses it for an error estimate of order 4."""
    interval = t_bound - t
    scale = atol + abs(y) * rtol
    d0, d1 = abs(y / scale), abs(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(t + h0, y + h0 * f)
    d2 = abs((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _dormand_prince(rhs, t_bound, threshold, rtol, atol):
    """Integrate y' = rhs(t, y), y(0) = 0, over [0, t_bound] with a
    terminal event where y crosses threshold upwards.

    Returns (times, values, T_c, failed, dense, diagnostics): the accepted
    step ends (the last one moved to T_c when the event fired), the
    solution there, the event time or None, whether the step size fell
    below 10 ulp(t), the dense output, and the counts of rejected
    steps and right-hand-side evaluations.
    """
    t = y = 0.0
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t_bound, rtol, atol)
    evals, rejected = 2, 0
    times, values, dense = [t], [y], _QuarticDense()
    T_c, failed = None, False
    while t < t_bound:
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                failed = True
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            k1 = f
            k2 = rhs(t + C2 * h, y + (A21 * k1) * h)
            k3 = rhs(t + C3 * h, y + (A31 * k1 + A32 * k2) * h)
            k4 = rhs(t + C4 * h, y + (A41 * k1 + A42 * k2 + A43 * k3) * h)
            k5 = rhs(t + C5 * h, y + (A51 * k1 + A52 * k2 + A53 * k3 + A54 * k4) * h)
            k6 = rhs(t + h, y + (A61 * k1 + A62 * k2 + A63 * k3 + A64 * k4 + A65 * k5) * h)
            y_new = y + h * (B1 * k1 + B3 * k3 + B4 * k4 + B5 * k5 + B6 * k6)
            k7 = rhs(t + h, y_new)
            evals += 6
            scale = atol + max(abs(y), abs(y_new)) * rtol
            error = (E1 * k1 + E3 * k3 + E4 * k4 + E5 * k5 + E6 * k6 + E7 * k7) * h
            error_norm = abs(error / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1.0, factor)
                h_abs = h * factor
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        if failed:
            break
        dense.append(t, h, y, (k1, k3, k4, k5, k6, k7))
        if y <= threshold <= y_new:
            quartic = dense.quartic(len(dense.steps) - 1)
            # bisect down to adjacent floats; T_c is the upper one
            lo, T_c = t, t_new
            while lo < (mid := (lo + T_c) / 2) < T_c:
                if quartic(mid) < threshold:
                    lo = mid
                else:
                    T_c = mid
            times.append(T_c)
            values.append(quartic(T_c))
            break
        t, y, f = t_new, y_new, k7
        times.append(t)
        values.append(y)
    return times, values, T_c, failed, dense, {"rejected_steps": rejected, "rhs_evals": evals}


@dataclass
class ControlTrajectory:
    R: float
    n: int
    variant: str
    times: list
    values: list
    verdict: str  # GlobalDecay | BlowUp | Inconclusive
    T_c: float | None = None
    diagnostics: dict = dc_field(default_factory=dict)
    _dense: object = dc_field(default=None, repr=False, compare=False)

    def value(self, t):
        """Interpolated R_n(t); only valid on the computed time range."""
        if t < 0 or t > self.times[-1]:
            raise ValueError(
                "t = %s outside the computed range [0, %s]" % (t, self.times[-1])
            )
        if self._dense is not None:
            return max(self._dense(t), 0.0)
        # linear between the samples, as numpy's interp
        xs, ys = self.times, self.values
        i = bisect_right(xs, t) - 1
        if i >= len(xs) - 1:
            return max(ys[-1], 0.0)
        slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        return max(slope * (t - xs[i]) + ys[i], 0.0)


def solve_control(
    est,
    constants,
    blowup_threshold=DEFAULT_BLOWUP_THRESHOLD,
    rtol=DEFAULT_RTOL,
    atol=DEFAULT_ATOL,
):
    """Integrate the control problem over the estimator set's time range.

    GlobalDecay requires both a small terminal value and a decreasing trend
    over the final decade; BlowUp requires crossing the threshold with the
    step size collapsing; anything else is Inconclusive.  The diagnostics
    count the accepted steps (num_steps), the rejected ones and the
    right-hand-side evaluations.
    """
    if not (rtol >= 100 * EPS and atol > 0):
        raise ValueError("need rtol >= 100 eps and atol > 0, got %r and %r" % (rtol, atol))
    G = constants.G_of(est.n)
    K = constants.K_of(est.n)
    R = est.R
    RG = R * G
    rates = est.rates

    def rhs(t, r):
        dn, dn1, eps = rates(t)
        return -r + R * (G * dn + K * dn1) * r + RG * r * r + eps

    run = _dormand_prince(rhs, est.t_max, blowup_threshold, rtol, atol)
    return _trajectory(est, *run, blowup_threshold=blowup_threshold, rtol=rtol, atol=atol)


def _trajectory(est, times, ys, T_c, failed, dense, counts, blowup_threshold, rtol, atol):
    """The trajectory and verdict of an integration of est's control
    problem, from what _dormand_prince returns."""
    if failed or not all(math.isfinite(v) for v in ys):
        # integration failure this close to divergence is itself blow-up
        # evidence only when the state already exploded; otherwise report it
        if not (ys and ys[-1] > blowup_threshold):
            raise RuntimeError(
                "control integration failed: "
                "required step size is less than spacing between numbers"
            )
    t_max = est.t_max
    values = [max(v, 0.0) for v in ys]
    steps = [b - a for a, b in zip(times, times[1:])]
    diagnostics = {
        "max_value": max(values),
        "last_value": values[-1],
        "last_time": times[-1],
        "num_steps": len(times) - 1,
        **counts,
        "min_step": min(steps) if steps else None,
        "final_step": steps[-1] if steps else None,
        "rtol": rtol,
        "atol": atol,
        "blowup_threshold": blowup_threshold,
    }

    verdict = "Inconclusive"
    if T_c is not None:
        # corroboration: the adaptive step must have collapsed approaching T_c
        tail_steps = steps[-5:]
        if tail_steps and min(tail_steps) < 1e-3 * max(T_c, 1.0):
            verdict = "BlowUp"
        else:
            diagnostics["note"] = "threshold crossed without step collapse"
    else:
        # values below the solver's absolute tolerance are numerically zero
        floor = max(DECAY_FLOOR_FACTOR * diagnostics["max_value"], 10 * atol)
        decade = [v for t, v in zip(times, values) if t >= t_max / 10.0]
        # noise at the absolute-tolerance level must not spoil the trend test
        decreasing = all(
            b <= a * (1 + 1e-9) + 10 * atol for a, b in zip(decade, decade[1:])
        )
        if values[-1] < floor and decreasing and math.isclose(times[-1], t_max):
            verdict = "GlobalDecay"
        else:
            diagnostics["trend"] = "decreasing" if decreasing else "not decreasing"

    return ControlTrajectory(
        R=float(est.R),
        n=est.n,
        variant=est.variant,
        times=times,
        values=values,
        verdict=verdict,
        T_c=T_c,
        diagnostics=diagnostics,
        _dense=dense,
    )


def find_critical_R(
    exp,
    n,
    variant,
    lo,
    hi,
    tol_R=DEFAULT_TOL_R,
    constants=None,
    tables=None,
    probe_log=None,
):
    """Bisect the GlobalDecay/BlowUp verdict to a bracket of width <= tol_R.

    Returns (R_lo, R_hi) with a verified GlobalDecay at R_lo and BlowUp at
    R_hi.  An Inconclusive probe stops the refinement and the last certified
    bracket is returned (the tool must not overclaim near the transition).
    tables, an EstimatorTables of exp at order n, fixes the grid and the
    precision of every probe; without it, tables on the default grid and
    precision are built.
    """
    if constants is None:
        constants = ConstantsTable()
    if not 0 <= lo < hi < math.inf:
        raise BracketError("need 0 <= lo < hi < inf, got [%s, %s]" % (lo, hi))
    if tables is None:
        tables = EstimatorTables(exp, n)

    def probe(R):
        est = build_estimator_set(exp, R, n, variant, constants=constants, tables=tables)
        traj = solve_control(est, constants)
        if probe_log is not None:
            probe_log.append((R, traj.verdict, traj.T_c))
        return traj.verdict

    v_lo = probe(lo)
    if v_lo != "GlobalDecay":
        raise BracketError("lo = %s is not GlobalDecay (got %s)" % (lo, v_lo))
    v_hi = probe(hi)
    if v_hi != "BlowUp":
        raise BracketError("hi = %s is not BlowUp (got %s)" % (hi, v_hi))

    while hi - lo > tol_R:
        mid = 0.5 * (lo + hi)
        v = probe(mid)
        if v == "GlobalDecay":
            lo = mid
        elif v == "BlowUp":
            hi = mid
        else:
            break
    return lo, hi


def solve_higher_order(est_p, traj_n, constants, times=None):
    """Sampled higher-order control R_p(t), the solution of

        dR_p/dt = -R_p + R (G_p D_p + K_p D_{p+1} + G_pn R_n) R_p + eps_p,
        R_p(0) = 0,

    integrated from 0 by the Dormand-Prince loop of solve_control at its
    default tolerances, with no event, and read off its dense output at
    times (by default the grid points up to the end of traj_n).  traj_n
    supplies R_n; its verdict must not be BlowUp before the last requested
    time.  Returns (times, values).
    """
    p, n = est_p.n, traj_n.n
    G_p = constants.G_of(p)
    K_p = constants.K_of(p)
    G_pn = constants.G_pn_of(p, n)
    R = est_p.R
    t_end = traj_n.times[-1]
    if times is None:
        times = [t for t in est_p.grid if t <= t_end]
    times = list(times)
    if not times:
        raise ValueError("times is empty")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    if times[0] < 0:
        raise ValueError("times must be nonnegative, got %s" % (times[0],))
    if traj_n.verdict == "BlowUp" and traj_n.T_c is not None and times[-1] >= traj_n.T_c:
        raise ValueError("R_n blows up at %s, before the requested range" % (traj_n.T_c,))
    if times[-1] > t_end:
        raise ValueError("time %s is past the end %s of R_n" % (times[-1], t_end))
    if times[-1] == 0:
        return times, [0.0] * len(times)
    rates = est_p.rates
    R_n = traj_n.value

    def rhs(t, r):
        dp, dp1, eps = rates(t)
        return -r + R * (G_p * dp + K_p * dp1 + G_pn * R_n(t)) * r + eps

    run_times, ys, _, failed, dense, _ = _dormand_prince(
        rhs, times[-1], math.inf, DEFAULT_RTOL, DEFAULT_ATOL
    )
    if failed or not all(math.isfinite(v) for v in ys):
        raise RuntimeError("higher-order control integration failed at t = %s" % (run_times[-1],))
    return times, [max(dense(t), 0.0) for t in times]


def coefficient_bound(traj, k, t):
    """(2 pi)^{3/2} |u_k(t) - u^N_k(t)| <= R_n(t) / |k|^n."""
    ksq = wave_norm_sq(k)
    if ksq == 0:
        raise ValueError("k must be nonzero")
    return traj.value(t) / ksq ** (traj.n / 2.0)


def classical_bounds(datum, constants=None, precision=DEFAULT_EVAL_PRECISION):
    """Closed-form global-existence thresholds for a static datum.

    Returns both R-thresholds (enstrophy-type 0.407/||u||_1 and the order-3
    bound 1/(G_3 ||u||_3)) with their physical-Reynolds conversions
    Re = rey_factor * R.
    """
    if constants is None:
        constants = ConstantsTable()
    G3 = constants.G_of(3)
    with mpmath.workprec(precision):
        n1 = datum.sobolev(1, precision)
        n3 = datum.sobolev(3, precision)
        fac = datum.rey_factor(precision)
        r_h1 = mpmath.mpf("0.407") / n1
        r_h3 = 1 / (mpmath.mpf(G3) * n3)
        return {
            "norm_1": float(n1),
            "norm_3": float(n3),
            "R_h1": float(r_h1),
            "R_h3": float(r_h3),
            "rey_factor": float(fac),
            "Rey_h1": float(fac * r_h1),
            "Rey_h3": float(fac * r_h3),
        }


def export_trajectory_csv(traj, path):
    with open(path, "w", newline="") as fh:
        fh.write("# R=%.17g n=%d variant=%s verdict=%s\n" % (traj.R, traj.n, traj.variant, traj.verdict))
        writer = csv.writer(fh)
        writer.writerow(["t", "R_%d" % traj.n])
        for t, v in zip(traj.times, traj.values):
            writer.writerow(["%.17g" % t, "%.17g" % v])

