"""The Riccati control Cauchy problem and its consequences.

The scalar control quantity R_n obeys

    dR_n/dt = -R_n + R (G_n D_n + K_n D_{n+1}) R_n + R G_n R_n^2 + eps_n,
    R_n(0) = 0.

If R_n stays finite up to t the difference between the true solution and the
order-N approximant is controlled mode by mode:
(2 pi)^{3/2} |u_k(t) - u^N_k(t)| <= R_n(t) / |k|^n.  Blow-up of R_n at some
finite time yields no conclusion beyond that time, and the critical Reynolds
parameter is bracketed by bisection on the verdict.

Verdicts are computer indications, not certified proofs: the integration is
floating point over interpolated estimator tables.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field as dc_field

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp

from .estimators import ConstantsTable, EstimatorTables, build_estimator_set, pchip_scalar
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
    "export_verdict_json",
]

DEFAULT_BLOWUP_THRESHOLD = 1e6
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-14
DECAY_FLOOR_FACTOR = 1e-6


class BracketError(ValueError):
    """The bisection endpoints do not straddle the critical parameter."""


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
    _dense: object = None

    def value(self, t):
        """Interpolated R_n(t); only valid on the computed time range."""
        if t < 0 or t > self.times[-1]:
            raise ValueError(
                "t = %s outside the computed range [0, %s]" % (t, self.times[-1])
            )
        if self._dense is not None:
            return max(float(self._dense(t)[0]), 0.0)
        return max(float(np.interp(t, self.times, self.values)), 0.0)


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
    step size collapsing; anything else is Inconclusive.
    """
    G = constants.G_of(est.n)
    K = constants.K_of(est.n)
    R, t_max = est.R, est.t_max
    Dn, Dn1, eps = est.D_n_f, est.D_n1_f, est.eps_n_f

    def rhs(t, y):
        r = y[0]
        return [-r + R * (G * Dn(t) + K * Dn1(t)) * r + R * G * r * r + eps(t)]

    def blow(t, y):
        return y[0] - blowup_threshold

    blow.terminal = True
    blow.direction = 1

    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        [0.0],
        method="RK45",
        rtol=rtol,
        atol=atol,
        events=blow,
        dense_output=True,
    )
    if sol.status == -1 or not np.all(np.isfinite(sol.y)):
        # integration failure this close to divergence is itself blow-up
        # evidence only when the state already exploded; otherwise report it
        if not (len(sol.y[0]) and sol.y[0][-1] > blowup_threshold):
            raise RuntimeError("control integration failed: %s" % (sol.message,))

    times = list(sol.t)
    values = [max(v, 0.0) for v in sol.y[0]]
    steps = np.diff(sol.t)
    diagnostics = {
        "max_value": max(values),
        "last_value": values[-1],
        "last_time": times[-1],
        "num_steps": len(times) - 1,
        "min_step": float(steps.min()) if len(steps) else None,
        "final_step": float(steps[-1]) if len(steps) else None,
        "rtol": rtol,
        "atol": atol,
        "blowup_threshold": blowup_threshold,
    }

    verdict = "Inconclusive"
    T_c = None
    if sol.status == 1 and len(sol.t_events[0]):
        T_c = float(sol.t_events[0][0])
        # corroboration: the adaptive step must have collapsed approaching T_c
        tail_steps = steps[-5:] if len(steps) >= 5 else steps
        if len(tail_steps) and tail_steps.min() < 1e-3 * max(T_c, 1.0):
            verdict = "BlowUp"
        else:
            verdict = "Inconclusive"
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
        R=float(R),
        n=est.n,
        variant=est.variant,
        times=times,
        values=values,
        verdict=verdict,
        T_c=T_c,
        diagnostics=diagnostics,
        _dense=sol.sol,
    )


def find_critical_R(
    exp,
    n,
    variant,
    lo,
    hi,
    tol_R=0.01,
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
    if not lo < hi:
        raise BracketError("need lo < hi, got [%s, %s]" % (lo, hi))
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
    """Sampled higher-order control R_p(t) from the explicit formula

        R_p(t) = e^{-t + R A_p(t)} int_0^t e^{s - R A_p(s)} eps_p(s) ds,
        A_p(t) = int_0^t (G_p D_p + K_p D_{p+1} + G_pn R_n)(s) ds.

    traj_n supplies R_n; its verdict must not be BlowUp before the last
    requested time.
    """
    p, n = est_p.n, traj_n.n
    G_p = constants.G_of(p)
    K_p = constants.K_of(p)
    G_pn = constants.G_pn_of(p, n)
    R = est_p.R
    if times is None:
        times = [t for t in est_p.grid if t <= traj_n.times[-1]]
    times = list(times)
    if traj_n.verdict == "BlowUp" and traj_n.T_c is not None and times[-1] >= traj_n.T_c:
        raise ValueError("R_n blows up at %s, before the requested range" % (traj_n.T_c,))

    def a_rate(s):
        return G_p * est_p.D_n_f(s) + K_p * est_p.D_n1_f(s) + G_pn * traj_n.value(s)

    # cumulative quadrature of the linear coefficient
    A = [0.0]
    for a, b in zip(times, times[1:]):
        inc, _ = quad(a_rate, a, b, limit=200)
        A.append(A[-1] + inc)
    A_f = pchip_scalar(times, A)

    def inner(s):
        return math.exp(s - R * A_f(s)) * est_p.eps_n_f(s)

    I = [0.0]
    for a, b in zip(times, times[1:]):
        inc, _ = quad(inner, a, b, limit=200)
        I.append(I[-1] + inc)

    values = [math.exp(-t + R * a) * i for t, a, i in zip(times, A, I)]
    return times, [max(v, 0.0) for v in values]


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


def _verdict_record(traj, N):
    return {
        "R": traj.R,
        "n": traj.n,
        "N": N,
        "variant": traj.variant,
        "verdict": traj.verdict,
        "T_c": traj.T_c,
        "diagnostics": traj.diagnostics,
    }


def export_verdict_json(traj, path, N=None):
    record = _verdict_record(traj, N)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record
