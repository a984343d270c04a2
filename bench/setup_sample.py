"""One set-up sample in a fresh interpreter: import reyex, build the
workload's datum, discover its symmetry group.  Prints
{"setup_s": ..., "wall_s": ...}: the time in reference seconds (speed.py)
and in wall seconds.

    python3 bench/setup_sample.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from speed import SpeedSampler  # noqa: E402

with SpeedSampler() as sampler:
    from benchenv import require_source

    require_source()

    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), workloads.load_golden())
    T1 = time.perf_counter()
print(json.dumps({"setup_s": sampler.timeline().seconds(T0, T1), "wall_s": T1 - T0}))
