"""The Riccati control Cauchy problem and its consequences.

The scalar control quantity R_n obeys

    dR_n/dt = -R_n + R (G_n D_n + K_n D_{n+1}) R_n + R G_n R_n^2 + eps_n,
    R_n(0) = 0.

If R_n stays finite up to t the difference between the true solution and the
order-N approximant is controlled mode by mode:
(2 pi)^{3/2} |u_k(t) - u^N_k(t)| <= R_n(t) / |k|^n.  Blow-up of R_n at some
finite time yields no conclusion beyond that time, and the critical Reynolds
parameter is bracketed by bisection on the verdict.

The problem is integrated by the Dormand-Prince RK5(4) pair (Dormand &
Prince 1980; Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, II.4-5), in a loop on Python floats that takes the steps
solve_ivp(method="RK45") takes: the same tableau, initial step, step-size
control and terminal event at the blow-up threshold.  The event time is
located by bisecting the quartic dense output of the step that crosses the
threshold down to adjacent floats, where solve_ivp runs Brent's method, so
the two agree to within that method's tolerance.

Verdicts are computer indications, not certified proofs: the integration is
floating point over interpolated estimator tables.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field

import mpmath

from .estimators import ConstantsTable, EstimatorTables, build_estimator_set
from .timepoly import DEFAULT_EVAL_PRECISION

__all__ = [
    "ControlTrajectory",
    "BracketError",
    "solve_control",
    "find_critical_R",
    "classical_bounds",
    "export_trajectory_csv",
]

DEFAULT_BLOWUP_THRESHOLD = 1e6
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-14
DECAY_FLOOR_FACTOR = 1e-6
DEFAULT_TOL_R = 0.01

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


def _quartic(t_old, h, y_old, k1, k3, k4, k5, k6, k7):
    """The dense output of the step of size h from (t_old, y_old) with
    stages k1, k3, ..., k7: the quartic
    y_old + h (Q_0 x + Q_1 x^2 + Q_2 x^3 + Q_3 x^4), x = (t - t_old) / h,
    with Q = K P, as a function of t."""
    stages = (k1, k3, k4, k5, k6, k7)
    Q = [sum(k * row[j] for k, row in zip(stages, P)) for j in range(4)]

    def value(t):
        x = (t - t_old) / h
        x2 = x * x
        x3 = x2 * x
        return y_old + h * (Q[0] * x + Q[1] * x2 + Q[2] * x3 + Q[3] * (x3 * x))

    return value


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

    Returns (times, values, T_c, failed, diagnostics): the accepted step
    ends (the last one moved to T_c when the event fired), the solution
    there, the event time or None, whether the step size fell below
    10 ulp(t), and the counts of rejected steps and right-hand-side
    evaluations.
    """
    t = y = 0.0
    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t_bound, rtol, atol)
    evals, rejected = 2, 0
    times, values = [t], [y]
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
        if y <= threshold <= y_new:
            quartic = _quartic(t, h, y, k1, k3, k4, k5, k6, k7)
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
    return times, values, T_c, failed, {"rejected_steps": rejected, "rhs_evals": evals}


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


def solve_control(est, constants):
    """Integrate the control problem over the estimator set's time range,
    with the tolerances DEFAULT_RTOL and DEFAULT_ATOL and the threshold
    DEFAULT_BLOWUP_THRESHOLD.

    GlobalDecay requires both a small terminal value and a decreasing trend
    over the final decade; BlowUp requires crossing the threshold with the
    step size collapsing; anything else is Inconclusive.  The diagnostics
    count the accepted steps (num_steps), the rejected ones and the
    right-hand-side evaluations, and record the tolerances and threshold.

    rtol bounds the error of each step, not the error of the solution:
    across the grid nodes, where the log-PCHIP estimators are only C1, the
    accepted steps add up to more.  On the bnw N=2 rough probes the step
    ends are 2.6e-9 to 2.4e-8 relative off a DOP853 reference restarted at
    every node, 26 to 240 times DEFAULT_RTOL.
    """
    G = constants.G_of(est.n)
    K = constants.K_of(est.n)
    R = est.R
    RG = R * G
    rates = est.rates

    def rhs(t, r):
        dn, dn1, eps = rates(t)
        return -r + R * (G * dn + K * dn1) * r + RG * r * r + eps

    threshold, rtol, atol = DEFAULT_BLOWUP_THRESHOLD, DEFAULT_RTOL, DEFAULT_ATOL
    run = _dormand_prince(rhs, est.t_max, threshold, rtol, atol)
    return _trajectory(est, *run, blowup_threshold=threshold, rtol=rtol, atol=atol)


def _trajectory(est, times, ys, T_c, failed, counts, blowup_threshold, rtol, atol):
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
    tol_R must be finite and > 0; the bisection also stops once R_lo and
    R_hi are adjacent floats, as no midpoint lies strictly between them.
    The midpoint is 0.5 (lo + hi), or lo + 0.5 (hi - lo) where lo + hi
    overflows.  A missing G_n or K_n, which every probe's control reads,
    is raised before the first probe.  tables, an EstimatorTables of exp
    at order n, fixes the grid of every probe; without it, tables on the
    default grid are built.  Every probe is solved by solve_control, at
    its one blow-up threshold and tolerances.
    """
    if constants is None:
        constants = ConstantsTable()
    if not 0 <= lo < hi < math.inf:
        raise BracketError("need 0 <= lo < hi < inf, got [%s, %s]" % (lo, hi))
    if not 0 < tol_R < math.inf:
        raise ValueError("tol_R must be a finite number > 0, got %s" % (tol_R,))
    constants.G_of(n)
    constants.K_of(n)
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

    while hi - lo > tol_R and lo < (mid := _midpoint(lo, hi)) < hi:
        v = probe(mid)
        if v == "GlobalDecay":
            lo = mid
        elif v == "BlowUp":
            hi = mid
        else:
            break
    return lo, hi


def _midpoint(lo, hi):
    """0.5 (lo + hi) for 0 <= lo < hi finite; lo + 0.5 (hi - lo) where the
    sum overflows, as 0.5 (lo + hi) is then inf."""
    total = lo + hi
    return 0.5 * total if total < math.inf else lo + 0.5 * (hi - lo)


def classical_bounds(datum, constants=None):
    """Closed-form global-existence thresholds for a static datum.

    Returns both R-thresholds (enstrophy-type 0.407/||u||_1 and the order-3
    bound 1/(G_3 ||u||_3)) with their physical-Reynolds conversions
    Re = rey_factor * R, at the datum layer's working precision.
    """
    if constants is None:
        constants = ConstantsTable()
    G3 = constants.G_of(3)
    with mpmath.workprec(DEFAULT_EVAL_PRECISION):
        n1 = datum.sobolev(1)
        n3 = datum.sobolev(3)
        fac = datum.rey_factor()
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

