"""Before/after record of Gram-table sampling: EstimatorTables.stats for the
coefficient tables of bnw, tg and km and the tail tables of bnw, at N = 3
and 5, on the default 400-point grid at 256 bits.

    python3 tools/bench_sampling.py --before OLD/src --after src --repeats 5 > BENCH_sampling.json

Each side is a `src` directory holding a `reyex` package.  Every repeat runs
each side once in a fresh interpreter, alternating which goes first, and
then the after side once more as if the process could use one CPU only
(after_one_cpu: reyex.timepoly._cpus replaced, where the package has it).
The record keeps, per table and side, the median eval_s and build_s (wall
seconds) with every repeat's eval_s, the precision stats (workers: the
processes that sampled the table), and a sha256 of every sampled value's
exact mpf tuple, so equal digests mean bit-identical tables.  It also
records the interpreter, the rational and mpmath backends, the CPU count,
the CPUs the process may run on, and the peak resident memory of each
measuring process and of the largest child it forked.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys

CASES = [("bnw", 3, "coeff"), ("bnw", 3, "tail"), ("tg", 3, "coeff"), ("km", 3, "coeff"),
         ("bnw", 5, "coeff"), ("bnw", 5, "tail"), ("tg", 5, "coeff"), ("km", 5, "coeff")]
SOBOLEV_ORDER = 3


def measure(one_cpu):
    """One side, in this interpreter: a JSON object per table on stdout."""
    import reyex.timepoly
    from reyex.data import get_datum
    from reyex.estimators import EstimatorTables
    from reyex.expansion import expand

    if one_cpu and hasattr(reyex.timepoly, "_cpus"):
        reyex.timepoly._cpus = lambda: 1
    out = {}
    for datum, N, kind in CASES:
        exp = expand(get_datum(datum).field, N, datum_id=datum)
        tables = EstimatorTables(exp, SOBOLEV_ORDER)
        sampled = tables.coeff_tables() if kind == "coeff" else tables.tail_tables()
        digest = hashlib.sha256()
        for key in sorted(sampled):
            digest.update(repr((key, [v._mpf_ for v in sampled[key]])).encode())
        out["%s N=%d %s" % (datum, N, kind)] = dict(tables.stats[kind], sha256=digest.hexdigest())
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
    }
    for name in runs["after"][0]:
        if name == "peak_rss_mb":
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
            {k: v for k, v in r[name].items() if k not in ("eval_s", "build_s", "workers")}
            for reps in runs.values() for r in reps
        ]
        row["bit_identical"] = all(x == same[0] for x in same)
        record["tables"][name] = row
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
