"""collapse-lab benchmark.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy.  WORKLOAD is cli-sweep,
collapse-c12 or collapse-fine-grid (see README.md); "all" runs the three
in turn.  With --trace 0 the run measures the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics (tracing.py).  A
human-readable summary goes to stderr; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUPS = 5                 # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 150.0


class Tally:
    """Checked operations and failures; a failure is reported, not fatal."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, command: str, config: dict, text: str | None,
              ref_key: str, error: str | None = None) -> None:
        self.attempted += 1
        if error is not None:
            problems = [f"{command}: {error}"]
        else:
            ref = self.reference.get(ref_key) if self.reference else None
            problems = checks.check_table(command, config, text, ref)
        if problems:
            self.failed += 1
            for line in problems[:5]:
                print(f"perfbench: FAILED {line}", file=sys.stderr)


def child_env() -> dict:
    """Environment of every program process: ./src first on the path; no
    COLLAPSE_LAB_THREADS, so every version runs its serial path; and
    bytecode caching on, as for an installed package, so that calls after
    the first do not recompile the package."""
    env = dict(os.environ)
    env.pop("COLLAPSE_LAB_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def cli_call(command: str, config_path: Path, env: dict, cwd: Path):
    """One `collapse-lab <command> --config <path>` call, as a user makes
    it; returns (seconds from spawn to exit, csv text or None, error)."""
    argv = [sys.executable, "-m", "collapse_lab", command,
            "--config", str(config_path)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=cwd, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, "timed out"
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return elapsed, None, (f"exit {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
    return elapsed, proc.stdout, None


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, allow_nan=False), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# timed runs
# ---------------------------------------------------------------------------

def run_cli_sweep(seed: int, seconds: float, work: Path, tally: Tally):
    env = child_env()
    setups = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        d = work / f"setup{k}"
        d.mkdir()
        configs = inputs.cli_configs(seed)
        paths = {cmd: write_json(d / f"{cmd}.json", cfg)
                 for cmd, cfg in configs.items()}
        first = inputs.CLI_COMMANDS[0]
        _, text, error = cli_call(first, paths[first], env, d)
        setups.append(time.perf_counter() - t0)
        tally.check(first, configs[first], text, first, error)

    times = []
    start = time.perf_counter()
    while True:
        cmd = inputs.CLI_COMMANDS[len(times) % len(inputs.CLI_COMMANDS)]
        elapsed, text, error = cli_call(cmd, paths[cmd], env, d)
        times.append(elapsed)
        tally.check(cmd, configs[cmd], text, cmd, error)
        if time.perf_counter() - start >= seconds:
            break
    # ru_maxrss of RUSAGE_CHILDREN is that of the largest waited-for child
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return times, setups, peak_kb / 1024.0


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_collapse(workload: str, seed: int, seconds: float, work: Path,
                 tally: Tally):
    env = child_env()
    setups = []
    for k in range(SETUPS):
        last = k == SETUPS - 1
        t0 = time.perf_counter()
        d = work / f"setup{k}"
        d.mkdir()
        configs = inputs.collapse_inputs(workload, seed)
        path = write_json(d / "inputs.json", configs)
        argv = [sys.executable, str(BENCH / "worker.py"), str(path),
                repr(seconds if last else 0.0)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                env=env, cwd=d)
        try:
            ready = proc.stdout.readline()
            setups.append(time.perf_counter() - t0)
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            _stop(proc)
        warm = json.loads(ready)["warmup"] if ready else None
        tally.check("collapse", configs["warmup"], warm, "warmup",
                    None if warm else f"worker exited {proc.returncode}")

    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tally.check("collapse", configs["solve"], None, "solve",
                    f"worker exited {proc.returncode}")
        return [], setups, None
    result = json.loads(lines[-1])
    times = []
    for solve in result["solves"]:
        times.append(solve["seconds"])
        tally.check("collapse", configs["solve"], solve.get("csv"), "solve",
                    solve.get("error"))
    return times, setups, result["peak_rss_kb"] / 1024.0


def timed_run(workload: str, seed: int, seconds: float, work: Path,
              tally: Tally) -> dict:
    if workload == "cli-sweep":
        times, setups, peak_mb = run_cli_sweep(seed, seconds, work, tally)
        op, unit_of_work = "call", "calls"
    else:
        times, setups, peak_mb = run_collapse(workload, seed, seconds, work,
                                              tally)
        op, unit_of_work = "solve", "solves"
    if not times or peak_mb is None:
        return {}
    metrics = {"op_p50_s": statistics.median(times),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_mb}

    def say(line: str) -> None:
        print(f"perfbench: {workload}: {line}", file=sys.stderr)

    say(f"{op}_p50_s = {metrics['op_p50_s']:.6f} s "
        f"(n = {len(times)} {unit_of_work})")
    # ten samples beyond the 90th percentile need at least 100 samples
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[8]
        say(f"{op}_p90_s = {p90:.6f} s (n = {len(times)} {unit_of_work})")
    else:
        say(f"{op}_p90_s not reported: {len(times)} {unit_of_work}, "
            f"needs >= 100")
    say(f"setup_s = {metrics['setup_s']:.6f} s (median of {len(setups)})")
    say(f"peak_rss_mb = {peak_mb:.3f} MB")
    say(f"error_rate = {tally.failed}/{tally.attempted} = "
        f"{tally.failed / max(1, tally.attempted):g} ratio")
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    declared = _declared_metrics(trace)
    reference = None
    if seed == 0:
        # a traced run checks the CLI round on every workload
        full = checks.load_reference()
        reference = {**full["cli-sweep"], **full[workload]}
    tally = Tally(reference)
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if trace:
            import tracing
            values = tracing.traced_run(workload, seed, work, tally)
        else:
            values = timed_run(workload, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                        # another run still uses it
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        tally.failed += 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items() if name in values}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": max(1, tally.attempted),
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints one table at the end."""
    table, ok = [], True
    for workload in inputs.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        table.append((workload, "error_rate",
                      result["failed"] / result["attempted"], "ratio"))
        table += [(workload, name, m["value"], m["unit"])
                  for name, m in result["metrics"].items()]
    for row in table:
        print("%-20s %-48s %16.6f %s" % row)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "collapse_lab" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              f"of a collapse-lab checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
