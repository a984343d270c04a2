"""Before/after record of the Gram tables: EstimatorTables.stats for the
coefficient tables of bnw, tg and km, and for the tautological table set of
bnw (coefficient and tail Grams of an expansion that holds its tails), at
N = 3 and 5, on the default 400-point grid at 256 bits.

    python3 tools/bench_sampling.py --before OLD/src --after src --repeats 5 > BENCH_sampling.json

Each side is a `src` directory holding a `reyex` package.  Every repeat runs
each side once in a fresh interpreter, alternating which goes first, and
then the after side once more as if the process could use one CPU only
(after_one_cpu: reyex.timepoly._cpus replaced, where the package has it).

"tables" keeps, per coefficient table and side, the median eval_s and
build_s (wall seconds) with every repeat's eval_s, the precision stats
(workers: the processes that sampled the table; build_workers, where the
side records it: the processes that built it), and a sha256 of every
sampled value's exact mpf tuple, so equal digests mean bit-identical
tables.  "tautological" keeps, per bnw case and side, the median seconds of
the exact builds of both kinds (build_s), of their sampling (eval_s, each
sampling batch counted once: a side that samples both kinds in one batch
records the batch's seconds in the stats of each) and of the whole set
(total_s, from the first accessor call to the last), every repeat's total_s,
each kind's stats, and one sha256 over both kinds.  The record also holds
the interpreter, the rational and mpmath backends, the CPU count, the CPUs
the process may run on, and the peak resident memory of each measuring
process and of the largest child it forked.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

COEFF_CASES = [("bnw", 3), ("tg", 3), ("km", 3), ("bnw", 5), ("tg", 5), ("km", 5)]
TAUTOLOGICAL_CASES = [("bnw", 3), ("bnw", 5)]
SOBOLEV_ORDER = 3


def digest(*tables):
    out = hashlib.sha256()
    for sampled in tables:
        for key in sorted(sampled):
            out.update(repr((key, [v._mpf_ for v in sampled[key]])).encode())
    return out.hexdigest()


def measure(one_cpu):
    """One side, in this interpreter: a JSON object per table set on stdout."""
    import reyex.timepoly
    from reyex.data import get_datum
    from reyex.estimators import EstimatorTables
    from reyex.expansion import expand, residual_tail

    if one_cpu and hasattr(reyex.timepoly, "_cpus"):
        reyex.timepoly._cpus = lambda: 1
    out = {}
    for datum, N in COEFF_CASES:
        exp = expand(get_datum(datum).field, N, datum_id=datum)
        tables = EstimatorTables(exp, SOBOLEV_ORDER)
        sampled = tables.coeff_tables()
        out["%s N=%d coeff" % (datum, N)] = dict(tables.stats["coeff"], sha256=digest(sampled))
    for datum, N in TAUTOLOGICAL_CASES:
        exp = expand(get_datum(datum).field, N, datum_id=datum)
        residual_tail(exp)
        tables = EstimatorTables(exp, SOBOLEV_ORDER)
        start = time.perf_counter()
        coeff = tables.coeff_tables()
        tail = tables.tail_tables()
        total_s = time.perf_counter() - start
        stats = {kind: tables.stats[kind] for kind in ("coeff", "tail")}
        batches = {tuple(s.get("batch", [kind])): s["eval_s"] for kind, s in stats.items()}
        out["%s N=%d tautological" % (datum, N)] = {
            "build_s": sum(s["build_s"] for s in stats.values()),
            "eval_s": sum(batches.values()),
            "total_s": total_s,
            "kinds": stats,
            "sha256": digest(coeff, tail),
        }
    out["peak_rss_mb"] = {
        who: resource.getrusage(getattr(resource, "RUSAGE_" + who.upper())).ru_maxrss / 1024
        for who in ("self", "children")
    }
    print(json.dumps(out))


def run_side(src, one_cpu=False):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cmd = [sys.executable, __file__, "--measure"] + (["--one-cpu"] if one_cpu else [])
    res = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(res.stdout)


def environment():
    import mpmath.libmp

    from reyex.rationals import mpq

    return {
        "python": sys.version.split()[0],
        "mpq": "%s.%s" % (mpq.__module__, mpq.__qualname__),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--one-cpu", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        return measure(args.one_cpu)
    runs = {"before": [], "after": [], "after_one_cpu": []}
    for i in range(args.repeats):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(run_side(getattr(args, side)))
        runs["after_one_cpu"].append(run_side(args.after, one_cpu=True))
    sys.path.insert(0, os.path.abspath(args.after))
    record = {
        "environment": environment(),
        "repeats": args.repeats,
        "peak_rss_mb": {
            side: {who: statistics.median(r["peak_rss_mb"][who] for r in reps)
                   for who in ("self", "children")}
            for side, reps in runs.items()
        },
        "tables": {},
        "tautological": {},
    }
    timing = ("eval_s", "build_s", "workers", "build_workers", "batch")
    for name in runs["after"][0]:
        if name == "peak_rss_mb" or name.endswith("tautological"):
            continue
        row = {}
        for side, reps in runs.items():
            first = reps[0][name]
            row[side] = {
                "eval_s": statistics.median(r[name]["eval_s"] for r in reps),
                "build_s": statistics.median(r[name]["build_s"] for r in reps),
                "eval_s_runs": [round(r[name]["eval_s"], 4) for r in reps],
                **{k: v for k, v in first.items() if k not in ("eval_s", "build_s")},
            }
        row["eval_speedup"] = row["before"]["eval_s"] / row["after"]["eval_s"]
        # the same bits and the same stats, but for time and processes, on
        # every side and in every repeat
        same = [
            {k: v for k, v in r[name].items() if k not in timing}
            for reps in runs.values() for r in reps
        ]
        row["bit_identical"] = all(x == same[0] for x in same)
        record["tables"][name] = row
    for datum, N in TAUTOLOGICAL_CASES:
        name = "%s N=%d tautological" % (datum, N)
        row = {}
        for side, reps in runs.items():
            row[side] = {
                **{key: statistics.median(r[name][key] for r in reps)
                   for key in ("build_s", "eval_s", "total_s")},
                "total_s_runs": [round(r[name]["total_s"], 4) for r in reps],
                "kinds": reps[0][name]["kinds"],
                "sha256": reps[0][name]["sha256"],
            }
        row["total_speedup"] = row["before"]["total_s"] / row["after"]["total_s"]
        same = [
            (r[name]["sha256"],
             {kind: {k: v for k, v in s.items() if k not in timing}
              for kind, s in r[name]["kinds"].items()})
            for reps in runs.values() for r in reps
        ]
        row["bit_identical"] = all(x == same[0] for x in same)
        record["tautological"][name] = row
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
