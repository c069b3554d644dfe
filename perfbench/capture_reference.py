"""Write reference_seed0.json: the seed-0 output of every benchmarked
operation, from the program in ./src.

    python3 perfbench/capture_reference.py

Run it only at a commit whose outputs are trusted (it defines what the
benchmark's seed-0 check accepts).  CLI tables come from the same
subprocess call the benchmark times; collapse tables from an in-process
collapse_experiment, formatted like the CLI's.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import inputs
from run import ROOT, SRC, child_env, cli_call, write_json


def main() -> int:
    work = ROOT / ".perfbench_work" / "capture"
    work.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        env = child_env()
        cli = {}
        for cmd, cfg in inputs.cli_configs(0).items():
            _, text, error = cli_call(cmd, write_json(work / f"{cmd}.json",
                                                      cfg), env, work)
            if error is not None:
                raise SystemExit(f"{cmd}: {error}")
            cli[cmd] = text
        reference["cli-sweep"] = cli

        sys.path.insert(0, str(SRC))
        from collapse_lab import CollapseConfig, collapse_experiment
        for workload in inputs.WORKLOADS[1:]:
            reference[workload] = {
                key: checks.collapse_csv(collapse_experiment(
                    CollapseConfig.from_json(cfg)))
                for key, cfg in inputs.collapse_inputs(workload, 0).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
