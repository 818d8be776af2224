"""Summarize benchmark results over runs.

Every `run.py` invocation writes one result file to `.perfbench_out/`.
This prints, per workload and metric, the median over runs, the highest
percentile that has at least ten runs beyond it (none below 11 runs), and
the run count:

    python3 perfbench/summarize.py [.perfbench_out]
"""

import glob
import json
import os
import statistics
import sys

BEYOND = 10


def tail_percentile(values):
    """(percentile, value) with at least BEYOND values above it, or None."""
    n = len(values)
    if n <= BEYOND:
        return None
    below = n - BEYOND
    return 100 * below // n, sorted(values)[below - 1]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    here = os.path.dirname(os.path.abspath(__file__))
    out_dir = argv[0] if argv else os.path.join(os.path.dirname(here), ".perfbench_out")
    table = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "result-*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        workload = doc["environment"]["workload"]
        for name, metric in doc["metrics"].items():
            table.setdefault((workload, name, metric["unit"]), []).append(metric["value"])
    for (workload, name, unit), values in sorted(table.items()):
        tail = tail_percentile(values)
        tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "p- (needs > 10 runs)"
        print(f"{workload} {name} median {statistics.median(values):.6g} {tail_text} "
              f"{unit} runs {len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
