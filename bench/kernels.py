"""Kernel micro-probes: rationals and timepoly calls timed on operands
sampled from a workload's own expansion, never on synthetic ones.

The calls run while a speed.SpeedSampler is on; each metric is read off
the sampler's timeline afterwards, in reference seconds."""

import random
import statistics
import time

from reyex.fields import wave_norm_sq

from workloads import GRID

OPERANDS = 64
SCALAR_PAIRS = 1024
BUDGET_S = 0.2
MIN_BLOCKS = 3


def per_call(fn, args, scale, budget=BUDGET_S):
    """Times blocks that call fn once on every argument tuple.  Returns a
    function of a timeline: scale times the median over blocks of the mean
    reference seconds per call."""
    spans = []
    deadline = time.perf_counter() + budget
    while len(spans) < MIN_BLOCKS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        spans.append((t0, time.perf_counter()))

    def value(timeline):
        return scale * statistics.median(timeline.seconds(*s) / len(args) for s in spans)

    return value


def kernel_metrics(coeffs, tails, seed):
    """coeffs: the fields u_1..u_N a pass produced, whose polys and scalars
    are the operands of the products, the Duhamel step and evaluation;
    tails: its residual tails (may be empty), evaluated too.  Returns each
    metric as a function of the timeline (see per_call)."""
    rng = random.Random("%d/kernels" % (seed,))
    moded = [(k, p) for f in coeffs for k, vec in f.coeffs.items() for p in vec if p.terms]
    polys = [p for _, p in moded]
    scalars = [c for p in polys for c in p.terms.values()]
    evaluated = polys + [p for f in tails for vec in f.coeffs.values() for p in vec if p.terms]

    gr_pairs = [(rng.choice(scalars), rng.choice(scalars)) for _ in range(SCALAR_PAIRS)]
    tp_pairs = [(rng.choice(polys), rng.choice(polys)) for _ in range(OPERANDS)]
    heat = [(p, wave_norm_sq(k)) for k, p in (rng.choice(moded) for _ in range(OPERANDS))]
    evals = [(rng.choice(evaluated), rng.choice(GRID)) for _ in range(OPERANDS)]
    return {
        "rationals.gr_mul_ns": per_call(lambda a, b: a * b, gr_pairs, 1e9),
        "timepoly.mul_us": per_call(lambda p, q: p * q, tp_pairs, 1e6),
        "timepoly.heat_convolve_us": per_call(lambda p, k: p.heat_convolve(k), heat, 1e6),
        "timepoly.evaluate_us": per_call(lambda p, t: p.evaluate(t), evals, 1e6),
    }
