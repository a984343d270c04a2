"""Record bench/golden.json from the current source.

    python3 bench/record_golden.py

For each shipped-datum workload it stores the sha256 of every u_j and tail
payload, the per-order term and orbit counts, and the verdict band around
the transition.  Near it the verdict interleaves GlobalDecay, Inconclusive
and BlowUp, so the band comes from a dense scan: below its low end every
scanned R was GlobalDecay, above its high end every one was BlowUp, and each
end is moved out by two scan steps.  For rand-plain-n3 it stores the
per-order term and orbit counts of generic amplitudes: the most common
among RANDOM_DRAWS draws, since a degenerate draw has fewer terms.  The
committed file was recorded from the seed source; a change that alters any
of these values is a change in the program's output.
"""

import json
import random
from collections import Counter

from benchenv import require_source

require_source()

from reyex.data import get_datum  # noqa: E402
from reyex.estimators import EstimatorTables  # noqa: E402
from reyex.expansion import expand, residual_tail  # noqa: E402

import workloads as wl  # noqa: E402

# Scan ranges holding each transition, from a coarse scan at steps of 0.01
# that found clean GlobalDecay below and BlowUp above.
SCAN = {"bnw-taut-n3": (0.16, 0.172), "km-rough-n3": (0.157, 0.16)}
SCAN_POINTS = 201
RANDOM_DRAWS = 8


def band(verdict, a, b):
    step = (b - a) / (SCAN_POINTS - 1)
    Rs = [a + i * step for i in range(SCAN_POINTS)]
    vs = [verdict(R) for R in Rs]
    if vs[0] != wl.GD or vs[-1] != wl.BU:
        raise RuntimeError("scan range [%r, %r] does not hold the transition" % (a, b))
    first_other = next(i for i, v in enumerate(vs) if v != wl.GD)
    last_other = max(i for i, v in enumerate(vs) if v != wl.BU)
    return [Rs[first_other - 1] - 2 * step, Rs[last_other + 1] + 2 * step]


def record(w):
    exp = expand(get_datum(w.datum).field, wl.N, datum_id=w.datum)
    if w.tails:
        residual_tail(exp)
    tables = EstimatorTables(exp, wl.SOBOLEV_ORDER, grid=wl.GRID)

    def verdict(R):
        return wl.probe(exp, tables, w.variant, R).verdict

    entry = wl.expansion_counts(exp)
    entry["digests"] = wl.expansion_digests(exp)
    entry["band"] = band(verdict, *SCAN[w.name])
    return entry


def record_random(w):
    rng = random.Random("golden")
    draws = []
    for _ in range(RANDOM_DRAWS):
        counts = wl.expansion_counts(expand(w.random_datum(rng), wl.N, use_symmetry=False))
        draws.append(json.dumps({key: counts[key] for key in ("terms", "orbits")}))
    return json.loads(Counter(draws).most_common(1)[0][0])


def main():
    golden = {name: record(w) if isinstance(w, wl.ShippedWorkload) else record_random(w)
              for name, w in wl.WORKLOADS.items()}
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
