"""Collapse worker: the process a collapse workload measures.

    python3 perfbench/worker.py INPUTS.json SECONDS

INPUTS.json holds {"warmup": config, "solve": config} as written by run.py.
The worker imports collapse_lab, runs the warm-up solve and prints
{"warmup": csv} -- run.py takes the arrival of that line as the end of
set-up.  With SECONDS > 0 it then calls collapse_experiment on the solve
config until SECONDS have passed and prints the timed solves and its own
peak resident set size as one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def main(argv) -> int:
    inputs_path, seconds = argv[1], float(argv[2])
    from collapse_lab import CollapseConfig, collapse_experiment

    from checks import collapse_csv

    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    warm = collapse_experiment(CollapseConfig.from_json(inputs["warmup"]))
    _emit({"warmup": collapse_csv(warm)})
    if seconds <= 0:
        return 0

    config = CollapseConfig.from_json(inputs["solve"])
    solves = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            rows = collapse_experiment(config)
        except Exception as exc:  # a failed solve is counted, not fatal
            t1 = time.perf_counter()
            solves.append({"seconds": t1 - t0, "error": repr(exc)})
        else:
            t1 = time.perf_counter()
            solves.append({"seconds": t1 - t0, "csv": collapse_csv(rows)})
        if t1 - start >= seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit({"solves": solves, "peak_rss_kb": peak_kb})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
