"""Summarize benchmark result records: per workload and metric, the number
of runs, the median, the quartiles and the spread (quartile distance over
median), as statistics.quantiles(values, n=4) gives them.

    python3 bench/summarize.py [RECORD.json ...] [--out SUMMARY.json]

With no records named it reads .bench_work/results/*.json.
"""

import argparse
import glob
import json
import statistics
import sys

from benchenv import WORK


def summarize(records):
    groups = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            groups.setdefault((rec["workload"], rec["trace"], name, m["unit"]), []).append(m["value"])
    rows = []
    for (workload, trace, name, unit), values in sorted(groups.items()):
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        rows.append({
            "workload": workload, "trace": trace, "metric": name, "unit": unit,
            "runs": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values,
        })
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", nargs="*")
    p.add_argument("--out")
    args = p.parse_args(argv)
    paths = args.records or sorted(glob.glob(str(WORK / "results" / "*.json")))
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    rows = summarize(records)
    for r in rows:
        spread = "%.4f" % r["spread"] if r["spread"] is not None else "-"
        print("%-14s t%d %-28s n=%-3d median %-14.6g q1 %-14.6g q3 %-14.6g spread %s %s"
              % (r["workload"], r["trace"], r["metric"], r["runs"], r["median"],
                 r["q1"], r["q3"], spread, r["unit"]))
    failed = sum(rec["failed"] for rec in records)
    attempted = sum(rec["attempted"] for rec in records)
    print("records %d, passes failed %d of %d attempted" % (len(records), failed, attempted))
    if args.out:
        envs = {json.dumps(rec["environment"], sort_keys=True) for rec in records}
        with open(args.out, "w") as fh:
            json.dump({
                "environments": [json.loads(e) for e in sorted(envs)],
                "runs": [{k: rec[k] for k in ("workload", "seed", "seconds", "trace", "correct",
                                              "attempted", "failed")} for rec in records],
                "summary": rows,
            }, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
