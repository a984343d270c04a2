"""Before/after record of the expansion cache: cache_store and cache_load
wall seconds for km N=3 and 5, tg N=5, and bnw N=3 and 5 with residual
tails, all under their symmetry groups, and bnw N=3 with tails unpruned (the
trivial-group route).

    python3 tools/bench_cache.py --before OLD/src --after src --repeats 5 > BENCH_cache.json

Each side is a `src` directory holding a `reyex` package.  Every repeat runs
each side once in a fresh interpreter, alternating which goes first.  In
each case the expansion (and its tails) is computed once under tracemalloc
and dropped, then computed again, timed, stored in a temporary directory and
dropped; then the cache is loaded back.  The record keeps, per case and
side, the median store and load wall seconds with every repeat's, the median
expand and tails seconds for scale, the median MB the traced expansion holds
(computed_mb), the bytes of the field files (file_bytes) and the sha256 of
every field file written.  loaded_identical says that on both sides and in
every repeat the sha256 of each loaded field's exact payload equals that of
the computed field's, and that the computed payloads are the same on both
sides; the files themselves may differ between cache formats.  One more
load, untimed and after the timed one, runs under tracemalloc: the record
keeps the median MB the loaded expansion holds (loaded_mb) and the median
traced peak during cache_load (load_peak_mb).  Every traced figure is
above what was traced before the traced call; the held ones are read after
gc.collect(), which also empties the interpreter's free lists, so blocks
cached there for reuse do not count as held.  It also records the
interpreter, the rational and mpmath backends and the CPU count.
"""

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

from bench_sampling import environment

# (datum, N, residual tails, symmetry pruning)
CASES = [
    ("km", 3, False, True), ("km", 5, False, True), ("tg", 5, False, True),
    ("bnw", 3, True, True), ("bnw", 5, True, True), ("bnw", 3, True, False),
]
TIMED = ("expand_s", "tails_s", "store_s", "load_s")
TRACED = ("computed_mb", "loaded_mb", "load_peak_mb")


def payload_digests(exp):
    """sha256 of the exact payload of each coefficient, then each tail."""
    return [hashlib.sha256(json.dumps(field.to_payload()).encode()).hexdigest()
            for field in exp.coeffs + (exp.tails or [])]


def measure():
    """One side, in this interpreter: a JSON object per case on stdout."""
    from reyex.data import get_datum
    from reyex.expansion import cache_load, cache_store, expand, residual_tail

    def compute(datum, N, tails, pruned):
        """The expansion with its expand and tails wall seconds."""
        t0 = time.perf_counter()
        exp = expand(get_datum(datum).field, N, use_symmetry=pruned, datum_id=datum)
        t1 = time.perf_counter()
        if tails:
            residual_tail(exp)
        return exp, t1 - t0, time.perf_counter() - t1

    out = {}
    for case in CASES:
        row = {}
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            exp = compute(*case)[0]
            gc.collect()
            row["computed_mb"] = (tracemalloc.get_traced_memory()[0] - base) / 2**20
        finally:
            tracemalloc.stop()
        del exp
        gc.collect()
        exp, row["expand_s"], row["tails_s"] = compute(*case)
        row["payload_sha256"] = payload_digests(exp)
        path = tempfile.mkdtemp()
        try:
            t3 = time.perf_counter()
            cache_store(exp, path)
            t4 = time.perf_counter()
            del exp
            gc.collect()
            t5 = time.perf_counter()
            cache_load(path)
            t6 = time.perf_counter()
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                loaded = cache_load(path)
                peak = tracemalloc.get_traced_memory()[1]
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            row["loaded_identical"] = payload_digests(loaded) == row["payload_sha256"]
            del loaded
            row.update(loaded_mb=(held - base) / 2**20, load_peak_mb=(peak - base) / 2**20)
            names = sorted(n for n in os.listdir(path) if n != "manifest.json")
            row["sha256"], row["file_bytes"] = {}, 0
            for name in names:
                with open(os.path.join(path, name), "rb") as fh:
                    blob = fh.read()
                row["sha256"][name] = hashlib.sha256(blob).hexdigest()
                row["file_bytes"] += len(blob)
        finally:
            shutil.rmtree(path)
        row.update(store_s=t4 - t3, load_s=t6 - t5)
        datum, N, tails, pruned = case
        name = "%s N=%d%s" % (datum, N, " tails" if tails else "")
        out[name if pruned else name + " unpruned"] = row
        gc.collect()
    print(json.dumps(out))


def run_side(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    res = subprocess.run([sys.executable, __file__, "--measure"], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(res.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before")
    ap.add_argument("--after")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        return measure()
    runs = {"before": [], "after": []}
    for i in range(args.repeats):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(run_side(getattr(args, side)))
    sys.path.insert(0, os.path.abspath(args.after))
    record = {"environment": environment(), "repeats": args.repeats, "cases": {}}
    for name in runs["after"][0]:
        row = {}
        for side, reps in runs.items():
            row[side] = {key: statistics.median(r[name][key] for r in reps)
                         for key in TIMED + TRACED}
            row[side]["file_bytes"] = reps[0][name]["file_bytes"]
            for key in ("store_s", "load_s"):
                row[side][key + "_runs"] = [round(r[name][key], 4) for r in reps]
            row[side]["sha256"] = reps[0][name]["sha256"]
            row[side]["files_stable"] = all(r[name]["sha256"] == row[side]["sha256"] for r in reps)
        for key in ("store_s", "load_s"):
            row[key.replace("_s", "_speedup")] = row["before"][key] / row["after"][key]
        row["loaded_identical"] = all(
            r[name]["loaded_identical"]
            and r[name]["payload_sha256"] == runs["before"][0][name]["payload_sha256"]
            for reps in runs.values() for r in reps
        )
        record["cases"][name] = row
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
