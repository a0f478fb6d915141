"""Write bench/golden.json: per-field report digests for the default seeds.

    python3 bench/make_golden.py

Run it from the repository root, on the commit whose behaviour the digests
pin. Later commits are checked against the stored digests; rerun this only
when a change is meant to alter simulation results, and say so.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from workloads import GOLDEN_PATH, REPORT_FIELDS, WORKLOADS, report_digests  # noqa: E402

# Enough seeds to cover the sessions of runs with small base seeds.
SEEDS = {"ex2-payload": 48, "k9-robust": 24, "ex3-repair": 128}


def main() -> None:
    digests = {}
    for name, count in SEEDS.items():
        wl = WORKLOADS[name]
        plan = wl.plan()
        digests[name] = {
            str(seed): report_digests(wl.run(seed, plan)) for seed in range(count)
        }
        print("%s: %d seeds" % (name, count), flush=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"fields": list(REPORT_FIELDS), "digests": digests}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
