"""reyex benchmark: time to a verified bracket on three pipelines, with
per-layer metrics from a separate traced run.

    python3 bench/run.py --workload bnw-taut-n3 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Load is one closed-loop batch user: a
single process with one worker thread that starts a pipeline pass only after
the previous one finished.  Passes repeat until the next one would end past
--seconds (at least one pass runs); a stage of control probes on prebuilt
tables follows.  Every pass and stage is checked by exact oracles
(workloads.py); a failed check or an exception fails it.

Every time reported is in reference seconds (speed.py): wall time with the
host's swings in speed taken out by a calibration unit timed in the same
process every 10 ms.  The wall times are in the record and on the lines
for people.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  solve_s       median seconds of one pass, datum to verified output
  probes_per_s  control verdicts per second once the Gram tables are built
                (400-point grid, 256 bits), over the probe stage
  peak_rss_mb   peak resident memory of the process
  setup_s       median over fresh interpreters of: import reyex, build the
                workload's datum, discover its symmetry group
fail_ratio (failed over attempted) is the JSON's failed / attempted.

--trace 1 runs one untraced pass, then the same pass again under in-memory
spans (tracing.py), and reports the per-layer metrics: stage times and work
counts, each layer's self time within the pass, the part of the pass no
layer covers (trace.uncovered_s), the tracing overhead (traced minus
untraced pass) and the kernel micro-probes (kernels.py).

The last line of standard output is the JSON result; the lines before it
are the same numbers for people, and the environment.  A full record goes
to .bench_work/results/, the trace's spans to .bench_work/trace/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from benchenv import ROOT, WORK, environment, require_source
from speed import SpeedSampler

SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
FIND_SAMPLES = 3
TRACED_LAYERS = ("expansion", "symmetry", "fields", "timepoly", "estimators", "control")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Runner:
    """One benchmark invocation: runs passes, counts failures, keeps records."""

    def __init__(self, workload, seed, golden):
        self.w = workload
        self.seed = seed
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.workdir = WORK / ("run-%d" % os.getpid())

    def attempt(self, fn, *args):
        """Run one pass or stage; returns ((start, end), output or None) with
        perf_counter readings."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            span = (t0, time.perf_counter())
            self.failed += 1
            self.failures.append(traceback.format_exc())
            sys.stderr.write(self.failures[-1])
            return span, None
        span = (t0, time.perf_counter())
        if out is not None and out["fails"]:
            self.failed += 1
            self.failures.extend(out["fails"])
            for msg in out["fails"]:
                sys.stderr.write("check failed: %s\n" % (msg,))
        return span, out

    def run_pass(self, state, inputs, tracer):
        return self.attempt(self.w.run_pass, state, inputs, tracer, self.workdir)

    # -- the timed run --------------------------------------------------------

    def setup_samples(self):
        script = Path(__file__).with_name("setup_sample.py")
        cmd = [sys.executable, str(script), self.w.name, str(self.seed)]
        samples = []
        for _ in range(SETUP_SAMPLES):
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  timeout=SETUP_TIMEOUT_S)
            samples.append(json.loads(proc.stdout.splitlines()[-1]))
        return samples

    def timed(self, seconds):
        from tracing import NullTracer

        setup = self.setup_samples()
        state = self.w.setup(self.seed, self.golden)
        tracer = NullTracer()
        pass_spans, stage = [], None
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            while True:
                inputs = self.w.pass_inputs(state, len(pass_spans))
                last = out = None  # drop the previous pass's expansion before the next
                span, out = self.run_pass(state, inputs, tracer)
                pass_spans.append(span)
                if out is not None:
                    last = out
                if time.perf_counter() - start + (span[1] - span[0]) > seconds:
                    break
            if last is not None:
                _, stage = self.attempt(self.w.probe_stage, state, tracer, last)
        timeline = sampler.timeline()
        times = [timeline.seconds(*span) for span in pass_spans]
        probes = stage["probes"] if stage else 0
        probe_span = stage["probe_span"] if stage else (0.0, 0.0)
        probe_s = timeline.seconds(*probe_span)
        q1, med, q3 = quartiles(times)
        metrics = {
            "solve_s": med,
            "probes_per_s": probes / probe_s if probe_s > 0 else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(s["setup_s"] for s in setup),
        }
        detail = {
            "pass_s": times, "pass_wall_s": [b - a for a, b in pass_spans],
            "solve_s_quartiles": [q1, med, q3], "passes": len(times), "probes": probes,
            "probe_s": probe_s, "probe_wall_s": probe_span[1] - probe_span[0],
            "setup_samples": setup, "calibration_samples": len(sampler.samples),
        }
        return metrics, detail

    # -- the traced run -------------------------------------------------------

    def traced(self):
        from kernels import kernel_metrics
        from reyex.symmetry import find_symmetries
        from tracing import BILINEAR_SPANS, NullTracer, Tracer

        state = self.w.setup(self.seed, self.golden)
        tr = Tracer()
        with SpeedSampler() as sampler:
            find_spans = []
            for _ in range(FIND_SAMPLES):
                t0 = time.perf_counter()
                sym = find_symmetries(state["symmetry_input"])
                find_spans.append((t0, time.perf_counter()))
            inputs = self.w.pass_inputs(state, 0)
            untraced, _ = self.run_pass(state, inputs, NullTracer())
            with tr.patched():
                with tr.span("bench.pass"):
                    traced, out = self.run_pass(state, inputs, tr)
                if out is None:
                    raise RuntimeError("the traced pass raised; no per-layer metrics")
                with tr.span("bench.probe_stage"):
                    _, stage = self.attempt(self.w.probe_stage, state, tr, out)
            kernels = kernel_metrics(out["coeffs"], out["tails"], self.seed)
        timeline = sampler.timeline()
        tr.remap(timeline)
        finds = [timeline.seconds(*span) for span in find_spans]
        untraced_s, traced_s = timeline.seconds(*untraced), timeline.seconds(*traced)
        stage = stage or {"probes": 0, "decisive": 0, "cells": 0}
        self_s = tr.self_times(0)
        coeff_s = tr.total("estimators.coeff_tables")
        tail_s = tr.total("estimators.tail_tables")
        expand_s = tr.total("expansion.expand")
        cells = out["cells"] + stage["cells"]
        probes = out["probes"] + stage["probes"]
        terms = sum(out["terms"])

        def median_of(name):
            d = tr.durations(name)
            return statistics.median(d) if d else 0.0

        metrics = {
            "symmetry.find_s": statistics.median(finds),
            "symmetry.group_order": len(sym.plus),
            "expansion.expand_s": expand_s,
            "expansion.orbits": sum(out["orbits"]),
            "expansion.terms": terms,
            "expansion.terms_per_s": terms / expand_s,
            "expansion.tails_s": tr.total("expansion.residual_tail"),
            "expansion.tail_terms": sum(out["tail_terms"]),
            "expansion.cache_store_s": tr.total("expansion.cache_store"),
            "expansion.cache_load_s": tr.total("expansion.cache_load"),
            "expansion.cache_bytes": out["cache_bytes"],
            "fields.bilinear_s": tr.total(*BILINEAR_SPANS),
            "fields.identity_check_s": tr.total("fields.identity_check"),
            "estimators.coeff_tables_s": coeff_s,
            "estimators.tail_tables_s": tail_s,
            "estimators.table_cells": cells,
            "estimators.cells_per_s": cells / (coeff_s + tail_s),
            "estimators.assembly_s": median_of("estimators.assembly"),
            "control.solve_s": median_of("control.solve"),
            "control.rk_steps": tr.counts.get("control.solve", 0),
            "control.probes": probes,
            "control.decisive_ratio": (out["decisive"] + stage["decisive"]) / probes,
            "trace.pass_s": traced_s,
            "trace.uncovered_s": self_s.get("bench", 0.0),
            "trace.overhead_s": traced_s - untraced_s,
        }
        for layer in TRACED_LAYERS:
            metrics[layer + ".self_s"] = self_s.get(layer, 0.0)
        metrics.update({name: per_call(timeline) for name, per_call in kernels.items()})

        trace_dir = WORK / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tr.dump(trace_dir / ("%s-s%d.json" % (self.w.name, self.seed)))
        detail = {"untraced_pass_s": untraced_s, "untraced_pass_wall_s": untraced[1] - untraced[0],
                  "self_s": self_s, "spans": len(tr.spans),
                  "calibration_samples": len(sampler.samples)}
        return metrics, detail


def report(spec, args, metrics, detail, runner, env):
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    if set(metrics) != set(units):
        raise RuntimeError(
            "metrics out of step with BENCHMARK.json %s: missing %s, extra %s"
            % (group, sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units)))
        )
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, detail=detail, failures=runner.failures)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / ("%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment %s" % (json.dumps(env, sort_keys=True),))
    print("workload %s seed %d trace %d" % (args.workload, args.seed, args.trace))
    if not args.trace:
        q1, med, q3 = detail["solve_s_quartiles"]
        print("solve_s over %d passes: median %.4f s, quartiles %.4f / %.4f s"
              % (detail["passes"], med, q1, q3))
        print("wall seconds per pass: median %.4f s; calibration samples %d"
              % (statistics.median(detail["pass_wall_s"]), detail["calibration_samples"]))
    for name in units:
        print("  %-28s %16.6f %s" % (name, metrics[name], units[name]))
    print("  %-28s %16.6f (%d failed of %d attempted)"
          % ("fail_ratio", runner.failed / runner.attempted, runner.failed, runner.attempted))
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    require_source()
    spec = load_spec()
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        sys.stderr.write("bench: unknown workload %r (have %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    runner = Runner(w, args.seed, workloads.load_golden())
    try:
        if args.trace:
            metrics, detail = runner.traced()
        else:
            metrics, detail = runner.timed(args.seconds)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    report(spec, args, metrics, detail, runner, environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
