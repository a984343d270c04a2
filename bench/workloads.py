"""The benchmark's workloads: inputs made from a seed, one pipeline pass,
and the exact output oracles that decide whether a pass failed.

Every workload runs at expansion order N = 3 and Sobolev order n = 3 on the
default 400-point time grid at 256 bits.  Why each one exists:

bnw-taut-n3   The paper's headline estimator.  Tail Gram sampling dominates,
              exact tails come second, and the 6-matrix reduced group keeps
              orbit materialization minor.
km-rough-n3   The largest group (48 matrices): orbit materialization and
              coefficient Gram sampling dominate.  No tail work, so it
              bypasses the tail layers.
rand-plain-n3 Random two-mode data with general complex coefficients through
              expand(use_symmetry=False), tails and the exact residual
              identity: the plain bilinear_P path and the generic
              4-multiplication branch of GaussianRational.__mul__.  The
              pass has no float stage.

Every workload ends its run with a stage of control probes on prebuilt
tables (outside the timed passes): STAGE_PROBES probes at seeded R plus one
repeat.  It is where per-R assembly, the control solve and probes_per_s are
measured.  The bisection probes inside a pass are checked but not counted
in probes_per_s: they sit near the transition, where a probe costs more,
and how many of them a run holds depends on how many passes it fits.

The library sees only the generated inputs; the seed stays here.
"""

import hashlib
import json
import random
import shutil
import time
from pathlib import Path

import reyex.control as rcontrol
from reyex.control import classical_bounds
from reyex.data import DatumDescriptor, get_datum
from reyex.estimators import ConstantsTable, EstimatorTables, default_grid
from reyex.expansion import cache_load, cache_store, expand, residual_tail
from reyex.fields import bilinear_P, leray_project, static_field
from reyex.rationals import GaussianRational, mpq
from reyex.symmetry import find_symmetries

N = 3
SOBOLEV_ORDER = 3
BISECTION_TOL = 0.01
BISECTION_HALVINGS = 3
GRID = default_grid()
CONSTANTS = ConstantsTable()
GOLDEN_PATH = Path(__file__).with_name("golden.json")

GD, BU = "GlobalDecay", "BlowUp"


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def field_digest(field):
    """sha256 of a field's exact textual payload."""
    payload = json.dumps(field.to_payload(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def term_count(field):
    return sum(p.num_terms() for vec in field.coeffs.values() for p in vec)


def expansion_counts(exp):
    """Per-order term and orbit counts.  Without a symmetry group every
    canonical mode (a +-k pair) is its own orbit."""
    stats = [exp.order_stats(j) for j in range(exp.N + 1)]
    return {
        "terms": [s["terms"] for s in stats],
        "orbits": [s["orbits"] if s["orbits"] is not None else s["canonical_modes"] for s in stats],
        "tail_terms": [term_count(t) for t in exp.tails] if exp.tails is not None else [],
    }


def expansion_digests(exp):
    out = {"u_%03d" % j: field_digest(u) for j, u in enumerate(exp.coeffs)}
    for i, tail in enumerate(exp.tails or ()):
        out["tail_%03d" % (exp.N + 1 + i)] = field_digest(tail)
    return out


# -- oracles: each returns a list of failure messages -----------------------------


def check_against_golden(exp, counts, golden):
    fails = []
    for key in ("terms", "orbits", "tail_terms"):
        if counts[key] != golden[key]:
            fails.append("%s %s != golden %s" % (key, counts[key], golden[key]))
    digests = expansion_digests(exp)
    if sorted(digests) != sorted(golden["digests"]):
        fails.append("payload set %s != golden %s" % (sorted(digests), sorted(golden["digests"])))
    for name, digest in sorted(digests.items()):
        if golden["digests"].get(name, digest) != digest:
            fails.append("sha256 of %s differs from golden" % (name,))
    return fails


def verdict_agrees(R, verdict, band):
    """Recorded seed behaviour: GlobalDecay up to band[0], BlowUp from
    band[1]; between them any verdict, Inconclusive included, is accepted."""
    if R <= band[0]:
        return verdict == GD
    if R >= band[1]:
        return verdict == BU
    return True


def check_bracket(log, lo, hi, tol, band, bracket):
    """Replay the bisection: every probe must sit at the expected midpoint
    with a verdict the recorded band allows, and the returned bracket must be
    the one the replay ends on, GlobalDecay-verified at its low end and
    BlowUp-verified at its high end."""
    seq = [(R, v) for R, v, _ in log]
    if seq[:2] != [(lo, GD), (hi, BU)]:
        return ["bracket endpoints not verified: %r" % (seq[:2],)]
    cur_lo, cur_hi = lo, hi
    for idx, (R, v) in enumerate(seq[2:], start=2):
        mid = 0.5 * (cur_lo + cur_hi)
        if cur_hi - cur_lo <= tol or R != mid:
            return ["probe %d at R=%r, expected %r" % (idx, R, mid)]
        if not verdict_agrees(R, v, band):
            return ["verdict %s at R=%r contradicts the recorded band %r" % (v, R, band)]
        if v == GD:
            cur_lo = R
        elif v == BU:
            cur_hi = R
        elif idx != len(seq) - 1:
            return ["bisection went on after an Inconclusive probe"]
    if seq[-1][1] in (GD, BU) and cur_hi - cur_lo > tol:
        return ["bisection stopped at width %r > tol %r" % (cur_hi - cur_lo, tol)]
    if tuple(bracket) != (cur_lo, cur_hi):
        return ["bracket %r != replayed %r" % (tuple(bracket), (cur_lo, cur_hi))]
    return []


def check_residual_identity(exp):
    """Criterion 8 exactly: u_0 solves the heat equation, each u_j solves its
    forced heat equation, and the tails equal -sum P(u_l, u_{j-l-1})."""
    u, n_ord = exp.coeffs, exp.N
    fails = []
    if not (u[0].derivative() - u[0].laplacian()).is_zero():
        fails.append("u_0 is not a heat solution")
    for j in range(1, n_ord + 1):
        rhs = None
        for l in range(j):
            p = bilinear_P(u[l], u[j - 1 - l])
            rhs = p if rhs is None else rhs + p
        if not (u[j].derivative() - u[j].laplacian() - rhs).is_zero():
            fails.append("residual of order %d does not vanish" % (j,))
    for i, j in enumerate(range(n_ord + 1, 2 * n_ord + 2)):
        expected = None
        for l in range(j - n_ord - 1, n_ord + 1):
            p = bilinear_P(u[l], u[j - 1 - l])
            expected = p if expected is None else expected + p
        if exp.tails[i] != -expected:
            fails.append("tail %d != -sum P(u_l, u_{j-l-1})" % (j,))
    return fails


# -- inputs from the seed --------------------------------------------------------


def bisection_endpoints(rng, band, tol=BISECTION_TOL, halvings=BISECTION_HALVINGS):
    """lo below and hi above the recorded transition band, with hi - lo in
    [tol 2^h, tol 2^(h+1)) and no bisection midpoint inside the band, so
    every seed takes the same h + 1 midpoints and none is Inconclusive."""
    centre = 0.5 * (band[0] + band[1])
    while True:
        width = tol * 2**halvings * (1 + rng.random())
        lo = centre - width * (0.25 + 0.25 * rng.random())
        a, b = lo, lo + width
        while b - a > tol and not band[0] <= 0.5 * (a + b) <= band[1]:
            mid = 0.5 * (a + b)
            a, b = (mid, b) if mid < centre else (a, mid)
        if b - a <= tol:
            return lo, lo + width


def stratified(rng, a, b, count):
    """count values in [a, b], one drawn uniformly from each of count equal
    slices, so every seed probes the same mix of R."""
    step = (b - a) / count
    return [a + (i + rng.random()) * step for i in range(count)]


def probe(exp, tables, variant, R):
    """One control verdict at R on prebuilt tables, called the way
    find_critical_R calls it, through reyex.control's module attributes."""
    est = rcontrol.build_estimator_set(
        exp, R, SOBOLEV_ORDER, variant, constants=CONSTANTS, tables=tables
    )
    return rcontrol.solve_control(est, CONSTANTS)


def probe_sweep(exp, tables, variant, Rs, tr):
    """Control probes at Rs on prebuilt tables, then the first again, which
    must reproduce exactly.  Returns the stage output."""
    t0 = time.perf_counter()
    trajs = [probe(exp, tables, variant, R) for R in Rs + Rs[:1]]
    probe_span = (t0, time.perf_counter())
    verdicts = [t.verdict for t in trajs]
    fails = []
    with tr.span("bench.check"):
        first, again = trajs[0], trajs[-1]
        if (first.verdict, first.values) != (again.verdict, again.values):
            fails.append("repeated probe at R=%r is not reproducible" % (Rs[0],))
    return {
        "probes": len(trajs), "decisive": sum(v in (GD, BU) for v in verdicts),
        "probe_span": probe_span, "cells": 0, "fails": fails,
        "verdicts": list(zip(Rs, verdicts)),
    }


STAGE_PROBES = 24


class ShippedWorkload:
    """expand -> [tails] -> cache store/load -> tables -> bisection at tol
    BISECTION_TOL on one of the shipped data; the inputs are the same on
    every pass."""

    def __init__(self, name, datum, variant, tails):
        self.name = name
        self.datum = datum
        self.variant = variant
        self.tails = tails

    def setup(self, seed, golden):
        field = get_datum(self.datum).field
        sym = find_symmetries(field)
        golden = golden[self.name]
        band = golden["band"]
        rng = random.Random(seed)
        lo, hi = bisection_endpoints(rng, band)
        half = STAGE_PROBES // 2
        stage = (stratified(rng, 0.5 * band[0], band[0] - 0.01, half)
                 + stratified(rng, band[1] + 0.01, 1.5 * band[1], half))
        return {
            "seed": seed, "golden": golden, "field": field, "sym": sym, "lo": lo, "hi": hi,
            "stage": stage, "symmetry_input": field,
        }

    def pass_inputs(self, state, index):
        return None

    def run_pass(self, state, inputs, tr, workdir):
        golden = state["golden"]
        out = {"cells": 0, "cache_bytes": 0}
        with tr.span("expansion.expand"):
            exp = expand(state["field"], N, symmetry=state["sym"], datum_id=self.datum)
        if self.tails:
            with tr.span("expansion.residual_tail"):
                residual_tail(exp)
        cache = Path(workdir) / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        with tr.span("expansion.cache_store"):
            cache_store(exp, str(cache))
        out["cache_bytes"] = sum(f.stat().st_size for f in cache.iterdir())
        with tr.span("expansion.cache_load"):
            exp = cache_load(str(cache))
        tables = EstimatorTables(exp, SOBOLEV_ORDER, grid=GRID)
        with tr.span("estimators.coeff_tables"):
            out["cells"] += len(tables.coeff_tables()) * len(GRID)
        if self.tails:
            with tr.span("estimators.tail_tables"):
                out["cells"] += len(tables.tail_tables()) * len(GRID)

        log = []
        with tr.span("control.find_critical_R"):
            bracket = rcontrol.find_critical_R(
                exp, SOBOLEV_ORDER, self.variant, state["lo"], state["hi"],
                tol_R=BISECTION_TOL, constants=CONSTANTS, tables=tables, probe_log=log,
            )
        verdicts = [v for _, v, _ in log]
        out["probes"] = len(verdicts)
        out["decisive"] = sum(v in (GD, BU) for v in verdicts)

        with tr.span("bench.check"):
            counts = expansion_counts(exp)
            fails = check_against_golden(exp, counts, golden)
            fails += check_bracket(log, state["lo"], state["hi"], BISECTION_TOL, golden["band"],
                                   bracket)
        out.update(fails=fails, coeffs=exp.coeffs[1:], tails=exp.tails or [], exp=exp,
                   tables=tables, **counts)
        return out

    def probe_stage(self, state, tr, last):
        """Probes on the last pass's tables, as many below the transition
        band as above it."""
        out = probe_sweep(last["exp"], last["tables"], self.variant, state["stage"], tr)
        band = state["golden"]["band"]
        out["fails"] += ["verdict %s at R=%r contradicts the recorded band %r" % (v, R, band)
                         for R, v in out["verdicts"] if not verdict_agrees(R, v, band)]
        return out


class RandomPlainWorkload:
    """Seeded batches of random two-mode data through the plain path.

    Each datum is the base pair of wave vectors turned by a random signed
    permutation, with random complex Gaussian-rational amplitudes; the
    rotation keeps the work per datum the same while the inputs differ.
    About one draw in 150 has amplitudes for which whole interactions cancel
    and the expansion collapses to half its terms (and its pass to a
    fiftieth of the work); such draws are redrawn, so a datum is kept only
    when its expansion's per-order term counts are the recorded ones.
    Orders past N may still lose a few terms to cancellation, so the tails
    are checked by the exact residual identity, not by their counts.
    """

    name = "rand-plain-n3"
    BASE_MODES = ((1, 1, 1), (2, 0, 1))
    BATCH = 2
    PROBE_FACTORS = (0.25, 4.0)  # probe R range, in units of the datum's R_h3

    def setup(self, seed, golden):
        state = {"seed": seed, "golden": golden[self.name]}
        state["batch0"] = batch = self.pass_inputs(state, 0)
        for u in batch:
            find_symmetries(u)
        state["symmetry_input"] = batch[0]
        return state

    def pass_inputs(self, state, index):
        if index == 0 and "batch0" in state:
            return state["batch0"]
        rng = random.Random("%d/%d" % (state["seed"], index))
        return [self.generic_datum(rng, state["golden"]["terms"]) for _ in range(self.BATCH)]

    def generic_datum(self, rng, terms):
        """The first draw whose expansion has the given per-order term counts."""
        while True:
            u = self.random_datum(rng)
            exp = expand(u, N, use_symmetry=False)
            if [exp.order_stats(j)["terms"] for j in range(N + 1)] == terms:
                return u

    def random_datum(self, rng):
        perm = rng.sample(range(3), 3)
        signs = [rng.choice((1, -1)) for _ in range(3)]
        modes = {}
        for base in self.BASE_MODES:
            k = tuple(signs[i] * base[perm[i]] for i in range(3))
            while True:
                vec = tuple(GaussianRational(_rand_q(rng), _rand_q(rng)) for _ in range(3))
                proj = leray_project(k, vec)
                if all(c.re and c.im for c in proj):
                    break
            modes[k] = proj
        return static_field(modes)

    def run_pass(self, state, batch, tr, workdir):
        out = {"probes": 0, "decisive": 0, "cells": 0, "cache_bytes": 0,
               "fails": [], "coeffs": [], "tails": [], "terms": [], "orbits": [], "tail_terms": []}
        for u in batch:
            with tr.span("expansion.expand"):
                exp = expand(u, N, use_symmetry=False)
            with tr.span("expansion.residual_tail"):
                residual_tail(exp)
            with tr.span("fields.identity_check"):
                out["fails"] += check_residual_identity(exp)
            counts = expansion_counts(exp)
            for key in ("terms", "orbits"):
                expected = state["golden"][key]
                if counts[key] != expected:
                    out["fails"].append("%s %s != golden %s" % (key, counts[key], expected))
            for key in ("terms", "orbits", "tail_terms"):
                out[key] = _add(out[key], counts[key])
            out["coeffs"] += exp.coeffs[1:]
            out["tails"] += exp.tails
        return out

    def probe_stage(self, state, tr, last):
        """The pass has no float stage, so the probes run on plain-path tables
        built here: rough variant, R across PROBE_FACTORS times the datum's
        classical bound R_h3.  The datum is the same generic draw on every
        seed, because the number of control steps a probe takes depends on
        the datum (2.5x between draws at the same R / R_h3); the seed draws
        the R values.  Verdicts must not return to GlobalDecay once BlowUp."""
        u = self.generic_datum(random.Random("stage"), state["golden"]["terms"])
        exp = expand(u, N, use_symmetry=False)
        tables = EstimatorTables(exp, SOBOLEV_ORDER, grid=GRID)
        with tr.span("estimators.coeff_tables"):
            cells = len(tables.coeff_tables()) * len(GRID)
        r_h3 = classical_bounds(DatumDescriptor(name="rand", field=u))["R_h3"]
        rng = random.Random("%d/probes" % (state["seed"],))
        Rs = [r_h3 * f for f in stratified(rng, *self.PROBE_FACTORS, STAGE_PROBES)]
        out = probe_sweep(exp, tables, "rough", Rs, tr)
        out["cells"] = cells
        verdicts = [v for _, v in out["verdicts"]]
        if BU in verdicts and GD in verdicts[verdicts.index(BU):]:
            out["fails"].append("GlobalDecay above a BlowUp: %r" % (out["verdicts"],))
        return out


def _rand_q(rng):
    return mpq(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))


def _add(acc, counts):
    return [a + b for a, b in zip(acc, counts)] if acc else list(counts)


WORKLOADS = {
    w.name: w
    for w in (
        ShippedWorkload("bnw-taut-n3", "bnw", "tautological", tails=True),
        ShippedWorkload("km-rough-n3", "km", "rough", tails=False),
        RandomPlainWorkload(),
    )
}
