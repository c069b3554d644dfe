"""Traced run: per-layer metrics of one workload.

The program itself records nothing.  This module wraps the public functions
of each collapse_lab module by attribute patching, in this process: every
module of the package that holds a reference to a traced function --
including the names imported into collapse_lab.cli and the package's own
re-exports -- gets the wrapper, and every WarpCurve subclass gets its f
wrapped.  A wrapper records a span (id, parent id, operation id, name,
start, end, counts) in memory; the spans are written out at the end.  Self
time is a span's duration minus that of its direct children.

A name the code no longer defines or calls reports zero calls.  The
import-time metrics come from `python -X importtime` in a child process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import inputs
from run import ROOT, SRC, Tally, child_env, write_json
from checks import collapse_csv

IMPORT_MODULES = (
    "numpy", "scipy.sparse", "scipy.sparse.csgraph", "scipy.optimize",
    "collapse_lab", "collapse_lab.errors", "collapse_lab.warped_metric",
    "collapse_lab.soliton", "collapse_lab.killing_quotient",
    "collapse_lab.su2_geometry", "collapse_lab.gh_collapse",
    "collapse_lab.cli",
)

# (metric prefix, defining module, attribute path, counts kept per call)
SOLVE_TARGETS = (
    ("gh_collapse.SurfaceDistanceField.lookup", "gh_collapse",
     "SurfaceDistanceField.lookup", ("elems",)),
    ("gh_collapse.circle_distance", "gh_collapse", "circle_distance",
     ("elems",)),
    ("gh_collapse.collapse_experiment", "gh_collapse", "collapse_experiment",
     ()),
    ("gh_collapse.surface_distances", "gh_collapse", "surface_distances",
     ("entries",)),
    ("gh_collapse.build_surface_graph", "gh_collapse", "build_surface_graph",
     ("nodes", "edges")),
    ("gh_collapse.distortion", "gh_collapse", "distortion", ()),
    ("gh_collapse.FiniteMetricSpace.init", "gh_collapse",
     "FiniteMetricSpace.__init__", ()),
    ("gh_collapse.natural_correspondence", "gh_collapse",
     "natural_correspondence", ()),
)
# the public callees of the CLI handlers
CLI_TARGETS = (
    ("warped_metric.transformed_warp", "warped_metric", "transformed_warp",
     ()),
    ("warped_metric.gauss_curvature", "warped_metric", "gauss_curvature", ()),
    ("soliton.solve_warp_ode", "soliton", "solve_warp_ode", ()),
    ("soliton.soliton_residual", "soliton", "soliton_residual", ()),
    ("killing_quotient.quotient_metric_form", "killing_quotient",
     "quotient_metric_form", ()),
    ("su2_geometry.submersion_radius_scan", "su2_geometry",
     "submersion_radius_scan", ()),
    ("su2_geometry.find_submersion_radius", "su2_geometry",
     "find_submersion_radius", ()),
)
TARGETS = SOLVE_TARGETS + CLI_TARGETS
WARP_F = "warped_metric.warp_f"   # the f of every WarpCurve subclass

COUNT_KEYS = ("calls", "elems", "entries", "nodes", "edges")


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, in BENCHMARK.json order."""
    names = ["interpreter.start_s", "tracing_overhead_s"]
    names += [f"import.{m}.cum_s" for m in IMPORT_MODULES]
    names += [f"cli.{c}.compute_s" for c in inputs.CLI_COMMANDS]
    for prefix, _, _, keys in TARGETS + ((WARP_F, None, None, ()),):
        names += [f"{prefix}.{k}" for k in ("calls", "self_s") + keys]
    return names


def _count(key: str, result) -> int:
    if key in ("elems", "entries"):
        return int(np.size(result))
    csr = getattr(result, "csr", None)
    if csr is None:
        return 0
    return int(csr.shape[0]) if key == "nodes" else int(csr.nnz // 2)


class Tracer:
    """Spans in memory, one list per traced operation set."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name: str, fn, count_keys=()):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans),
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "op": self.op, "name": name, "counts": {}}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            for key in count_keys:
                span["counts"][key] = _count(key, result)
            return result
        return traced

    @contextmanager
    def patched(self):
        """Install a wrapper at every place a traced name is looked up."""
        undo = []
        mods = [m for n, m in list(sys.modules.items())
                if n == "collapse_lab" or n.startswith("collapse_lab.")]
        try:
            for prefix, module, attr, keys in TARGETS:
                mod = sys.modules.get(f"collapse_lab.{module}")
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                if owner is None or name not in vars(owner):
                    continue                # gone: reports zero calls
                orig = vars(owner)[name]
                wrapper = self.wrap(prefix, orig, keys)
                holders = [owner] if owner_name else mods
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            undo.append((holder, key, orig))
                            setattr(holder, key, wrapper)
            base = sys.modules["collapse_lab.warped_metric"].WarpCurve
            todo = [base]
            while todo:
                cls = todo.pop()
                todo += cls.__subclasses__()
                if cls is not base and "f" in vars(cls):
                    undo.append((cls, "f", vars(cls)["f"]))
                    cls.f = self.wrap(WARP_F, vars(cls)["f"])
            yield self
        finally:
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

    def summary(self) -> dict:
        """name -> {"calls", "self_s", counts...} over all spans."""
        child_s = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += span["end"] - span["start"]
        out = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            agg = out[span["name"]]
            agg["calls"] += 1
            agg["self_s"] += span["end"] - span["start"] - child_s[span["id"]]
            for key, n in span["counts"].items():
                agg[key] += n
        return out


# ---------------------------------------------------------------------------
# start-up and imports, measured in child processes
# ---------------------------------------------------------------------------

def _interpreter_start_s(env: dict, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _import_cum_s(env: dict, repeats: int = 3) -> dict:
    """import.<module>.cum_s from -X importtime; 0 for a module that
    `import collapse_lab.cli` no longer loads.  The first importer of a
    shared module pays for it, so each figure is the cumulative time at
    the place the module was first imported."""
    runs = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import collapse_lab.cli"],
            env=env, capture_output=True, text=True, check=True, timeout=60)
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, cum_us, name = line[len("import time:"):].split("|")
            seen[name.strip()] = int(cum_us) * 1e-6
        for module in IMPORT_MODULES:
            runs[module].append(seen.get(module, 0.0))
    return {f"import.{m}.cum_s": statistics.median(v) for m, v in runs.items()}


# ---------------------------------------------------------------------------
# traced operations, in this process
# ---------------------------------------------------------------------------

def _cli_round(cli, paths: dict, configs: dict, work, tally: Tally,
               tracer: Tracer | None = None) -> dict:
    """One in-process cli.main call per subcommand; seconds per command."""
    seconds = {}
    for cmd in inputs.CLI_COMMANDS:
        out = work / f"{cmd}.csv"
        if tracer is not None:
            tracer.op = cmd
        t0 = time.perf_counter()
        code = cli.main([cmd, "--config", str(paths[cmd]), "--out", str(out),
                         "--quiet"])
        seconds[cmd] = time.perf_counter() - t0
        if code != 0:
            tally.check(cmd, configs[cmd], None, cmd, f"exit {code}")
        else:
            tally.check(cmd, configs[cmd], out.read_text(encoding="utf-8"),
                        cmd)
    return seconds


def _trace_cli(seed: int, work, tally: Tally):
    """cli.<cmd>.compute_s from untraced rounds, the tracing overhead of a
    round, and two traced rounds."""
    cli = importlib.import_module("collapse_lab.cli")
    configs = inputs.cli_configs(seed)
    paths = {cmd: write_json(work / f"{cmd}.json", cfg)
             for cmd, cfg in configs.items()}
    _cli_round(cli, paths, configs, work, tally)          # warm-up
    rounds = [_cli_round(cli, paths, configs, work, tally) for _ in range(3)]
    metrics = {f"cli.{cmd}.compute_s": statistics.median(r[cmd] for r in rounds)
               for cmd in inputs.CLI_COMMANDS}
    untraced_s = statistics.median(sum(r.values()) for r in rounds)
    tracers, traced_s = [], []
    for _ in range(2):
        with Tracer().patched() as tracer:
            traced_s.append(sum(_cli_round(cli, paths, configs, work, tally,
                                           tracer).values()))
        tracers.append(tracer)
    return metrics, traced_s[0] - untraced_s, tracers


def _trace_collapse(workload: str, seed: int, tally: Tally):
    """Tracing overhead of a solve, and two traced solves."""
    gh = importlib.import_module("collapse_lab.gh_collapse")
    configs = inputs.collapse_inputs(workload, seed)
    warm = gh.collapse_experiment(gh.CollapseConfig.from_json(configs["warmup"]))
    tally.check("collapse", configs["warmup"], collapse_csv(warm), "warmup")
    config = gh.CollapseConfig.from_json(configs["solve"])

    def solve(tracer=None) -> float:
        if tracer is not None:
            tracer.op = "solve"
        t0 = time.perf_counter()
        # looked up on the module at call time, so the patch applies
        rows = gh.collapse_experiment(config)
        elapsed = time.perf_counter() - t0
        tally.check("collapse", configs["solve"], collapse_csv(rows), "solve")
        return elapsed

    untraced_s = solve()
    tracers, traced_s = [], []
    for _ in range(2):
        with Tracer().patched() as tracer:
            traced_s.append(solve(tracer))
        tracers.append(tracer)
    return traced_s[0] - untraced_s, tracers


def _span_metrics(summary: dict, targets) -> dict:
    metrics = {}
    for prefix, _, _, keys in targets:
        agg = summary.get(prefix, {})
        for key in ("calls", "self_s") + keys:
            value = agg.get(key, 0)
            metrics[f"{prefix}.{key}"] = (float(value) if key == "self_s"
                                          else int(value))
    return metrics


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if k.rpartition(".")[2] in COUNT_KEYS}


def traced_run(workload: str, seed: int, work, tally: Tally) -> dict:
    env = child_env()
    metrics = {"interpreter.start_s": _interpreter_start_s(env)}
    metrics.update(_import_cum_s(env))

    os.environ.pop("COLLAPSE_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    import collapse_lab
    if not collapse_lab.__file__.startswith(str(SRC)):
        raise RuntimeError(f"collapse_lab imported from {collapse_lab.__file__}")

    # The CLI round runs on every workload, so that the cli layer and the
    # handlers' callees are measured everywhere; the solve-side metrics come
    # from the workload's own operations.
    compute, overhead, cli_tracers = _trace_cli(seed, work, tally)
    metrics.update(compute)
    op_tracers = cli_tracers
    if workload != "cli-sweep":
        overhead, op_tracers = _trace_collapse(workload, seed, tally)
    metrics["tracing_overhead_s"] = overhead
    solve_side = SOLVE_TARGETS + ((WARP_F, None, None, ()),)
    first, second = ({**_span_metrics(op.summary(), solve_side),
                      **_span_metrics(cli.summary(), CLI_TARGETS)}
                     for op, cli in zip(op_tracers, cli_tracers))
    metrics.update(first)

    # every count must repeat exactly across the two traced runs
    tally.attempted += 1
    again = _counts(second)
    diff = {k: (v, again[k]) for k, v in _counts(first).items()
            if v != again[k]}
    if diff:
        tally.failed += 1
        print(f"perfbench: FAILED counts differ across traced runs: {diff}",
              file=sys.stderr)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = {"workload": workload, "seed": seed,
             "cli_rounds": [t.spans for t in cli_tracers],
             "operations": [t.spans for t in op_tracers]}
    write_json(out_dir / f"spans-{workload}-seed{seed}.json", spans)
    for name, value in metrics.items():
        print(f"perfbench: {workload}: {name} = {value:.6g}"
              if isinstance(value, float) else
              f"perfbench: {workload}: {name} = {value}", file=sys.stderr)
    return metrics
