"""Repository benchmark: four workloads through the public ``repro`` APIs.

Run from the repository root:

    python3 perfbench/run.py --workload open_loop_stream --seed 1 \\
        --seconds 15 --trace 0

Workloads (details, offered loads and the held-out validation seed are in
``perfbench/workloads.json``): ``open_loop_stream``,
``functional_pipelined``, ``slo_sweep`` and ``paper_artifact``.

``--trace 0`` measures: repeated runs at the stated input size for
``--seconds`` seconds, timed raw (``wall_s``) and in units of a reference
loop run around each repetition (``wall_ref``, which host speed drift
moves far less), set-up time in fresh interpreters, peak RSS, and the
simulated (virtual-time) figures, which must repeat exactly.
``--trace 1`` runs the workload once untraced and once under span tracing
(``bench_trace.py``) and reports per-layer self times, counts and ratios;
the simulated figures and sweep digests of the two runs must be identical.

Every run checks the program's outputs.  The report is printed as text,
written to ``.perfbench_out/`` with the host stamp, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120.0
#: Iterations of the host-speed reference loop (about 0.13 s on an idle
#: 2.1 GHz x86-64 core).
REFERENCE_ITERATIONS = 1_000_000

#: Per-architecture metric keys: each shard architecture bare and at the
#: QEC distance 3 that ``slo_sweep`` crosses.
ARCHS = tuple(
    bench_trace.arch_key(f"{name}{suffix}")
    for suffix in ("", "@d3")
    for name in bench_trace.ARCH_KEYS
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("peak_rss_mib", "MiB"),
    ("sim_latency_p50_layers", "layers"),
    ("sim_latency_tail_layers", "layers"),
    ("sim_bandwidth_qps", "queries/sim_s"),
)


def per_layer_names(artifacts) -> tuple[tuple[str, str], ...]:
    """Every per-layer metric and its unit, given ``PaperArtifact.ARTIFACTS``."""
    names = [
        ("workloads.requests", "count"),
        ("workloads.self_s", "s"),
        ("scenarios.build_s", "s"),
        ("scenarios.self_s", "s"),
        ("service.fleet_build_s", "s"),
        ("service.self_s", "s"),
        ("schedule_cache.hits", "count"),
        ("schedule_cache.misses", "count"),
        ("schedule_cache.prewarms", "count"),
        ("schedule_cache.hit_rate", "ratio"),
        ("schedule_cache.fidelity_misses", "count"),
        ("engine.run_s", "s"),
        ("engine.self_s", "s"),
        ("engine.heap_pushes", "count"),
        ("engine.heap_pops", "count"),
        ("engine.events_per_request", "ratio"),
        ("engine.rejected_shed_ratio", "ratio"),
        ("engine.pool.workers", "count"),
        ("engine.pool.tasks", "count"),
        ("engine.pool.parent_wait_s", "s"),
        ("backends.self_s", "s"),
    ]
    for arch in ARCHS:
        names += [
            (f"backends.{arch}.windows", "count"),
            (f"backends.{arch}.run_window_s", "s"),
            (f"backends.{arch}.window_ms_p50", "ms"),
            (f"backends.{arch}.window_ms_p99", "ms"),
            (f"backends.{arch}.mean_batch", "queries"),
        ]
    names += [
        ("core.run_pipelined_queries_s", "s"),
        ("core.self_s", "s"),
        ("bucket_brigade.run_query_s", "s"),
        ("bucket_brigade.self_s", "s"),
        ("sim.gates", "count"),
        ("sim.apply_gate_s", "s"),
        ("sim.us_per_gate", "us"),
        ("sim.peak_terms", "count"),
        ("sim.self_s", "s"),
        ("metrics.observe_calls", "count"),
        ("metrics.observe_s", "s"),
        ("metrics.to_stats_s", "s"),
        ("metrics.summarize_s", "s"),
        ("metrics.sink_appends", "count"),
        ("metrics.self_s", "s"),
        ("sweep.points", "count"),
        ("sweep.executions", "count"),
        ("sweep.dedup_ratio", "ratio"),
        ("sweep.digest_s", "s"),
        ("sweep.point_ms_p50", "ms"),
        ("sweep.point_ms_p90", "ms"),
        ("sweep.deadline_miss_rate", "ratio"),
        ("sweep.self_s", "s"),
        ("scheduling.sim_runs", "count"),
        ("scheduling.run_s", "s"),
        ("scheduling.queries", "count"),
        ("scheduling.us_per_query", "us"),
        ("scheduling.self_s", "s"),
    ]
    names += [(f"analysis.{artifact}_s", "s") for artifact, _ in artifacts]
    names += [
        ("analysis.self_s", "s"),
        ("unattributed_s", "s"),
        ("trace.root_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return tuple(names)


# ------------------------------------------------------------------ helpers
def import_workloads():
    """Import the workloads against this checkout's ``src/`` only."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: {SRC / 'repro'} not found; run from a full checkout"
        )
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    import bench_workloads

    return bench_workloads


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def host_stamp() -> dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from interpreter start to a built, ready-to-run scenario."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up probe timed out") from None
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        samples.append(elapsed)
    return samples


def peak_rss_mib() -> float:
    """Peak RSS of this process and of the children waited for so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1.0 / (1024.0 * 1024.0) if sys.platform == "darwin" else 1.0 / 1024.0
    return max(own, children) * scale


def failed_units(result, failures: list[tuple[str, str]]) -> int:
    """Units (requests, points, artifacts) a rep's failures cover."""
    if any(unit == "*" for unit, _ in failures):
        return result.attempted if result is not None else 1
    return len({unit for unit, _ in failures})


class Outcome:
    """Accumulates checks across the reps of one invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, result, failures: list[tuple[str, str]]) -> None:
        self.attempted += result.attempted
        self.failed += failed_units(result, failures)
        self.messages += [f"{unit}: {message}" for unit, message in failures]

    def crash(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.messages.append(what)


def checked(workload, result) -> list[tuple[str, str]]:
    try:
        return workload.check(result)
    except Exception as exc:  # noqa: BLE001 - a crashed check is a failure
        return [("*", f"check raised {type(exc).__name__}: {exc}")]


def same_sim(a, b) -> list[tuple[str, str]]:
    """Simulated figures and digests must repeat exactly."""
    failures = []
    if a.sim != b.sim:
        failures.append(("*", f"simulated figures differ: {a.sim} vs {b.sim}"))
    if a.digests != b.digests:
        diff = sum(x != y for x, y in zip(a.digests, b.digests))
        failures.append(("*", f"{diff} report digests differ between runs"))
    return failures


# ------------------------------------------------------------- measurement
def reference_loop() -> float:
    """Seconds this host takes for a fixed pure-Python loop.

    Shared hosts drift in speed by up to 2x over minutes, which no run
    length averages away.  Timed before and after every repetition, this
    loop tracks that drift; a repetition's wall time divided by the mean of
    the two loops around it (``wall_ref``) is its run time in units of the
    host's current speed.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def run_measured(bench, name: str, seed: int, seconds: float):
    """``--trace 0``: repeated untraced runs plus set-up and memory."""
    outcome = Outcome()
    workload = bench.WORKLOADS[name](seed)
    workload.setup()
    min_reps = 2 if name == "slo_sweep" else 1
    walls: list[float] = []
    normalized: list[float] = []
    references = [reference_loop()]
    offered = dropped = 0
    first = None
    start = time.perf_counter()
    while len(walls) < min_reps or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        result = workload.rep()
        wall = time.perf_counter() - t0
        references.append(reference_loop())
        walls.append(wall)
        normalized.append(wall / statistics.fmean(references[-2:]))
        offered += result.offered
        dropped += result.rejected_or_shed
        failures = checked(workload, result)
        if first is None:
            first = result
        else:
            failures += same_sim(first, result)
            result.payload = None
        outcome.add(result, failures)
    rss = peak_rss_mib()
    setups = measure_setup(name, seed)
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_ref": (statistics.median(normalized), "ref", len(normalized)),
        "peak_rss_mib": (rss, "MiB", 1),
        "sim_latency_p50_layers": (first.sim["latency_p50_layers"], "layers", 1),
        "sim_latency_tail_layers": (
            first.sim["latency_tail_layers"], "layers", 1
        ),
        "sim_bandwidth_qps": (first.sim["bandwidth_qps"], "queries/sim_s", 1),
    }
    # Printed and recorded, not gated: raw host seconds swing with the
    # host's speed (see reference_loop), and failed_ratio is 0 on every
    # workload without bounded queues.
    report_only = {
        "wall_s": (wall_s, "s", len(walls)),
        "sim_requests_per_s": (first.served / wall_s, "1/s", len(walls)),
        "reference_s": (statistics.median(references), "s", len(references)),
        "failed_ratio": ((dropped + outcome.failed) / max(1, offered),
                         "ratio", len(walls)),
    }
    info = {
        "report_only": report_only,
        "walls_s": walls,
        "references_s": references,
        "setups_s": setups,
        "sim": first.sim,
        "extra": first.extra,
        "served": first.served,
        "offered": first.offered,
        "rejected_or_shed": first.rejected_or_shed,
    }
    return metrics, outcome, info


def run_traced(bench, name: str, seed: int):
    """``--trace 1``: one untraced and one traced run; per-layer metrics."""
    from repro.schedule_cache import default_registry

    outcome = Outcome()
    workload = bench.WORKLOADS[name](seed)
    workload.setup()
    inline = {"pool_size": 0} if name == "slo_sweep" else {}

    pool_tracer = bench_trace.Tracer()
    pool_result = None
    if name == "slo_sweep":
        # The measured form of the sweep: on the fork pool, with only the
        # pool boundary wrapped (workers run unmodified code).
        patches = bench_trace.install_pool(pool_tracer)
        try:
            pool_result = workload.rep()
        finally:
            patches.restore()
        outcome.add(pool_result, checked(workload, pool_result))

    t0 = time.perf_counter()
    plain = workload.rep(**inline)
    untraced_wall = time.perf_counter() - t0
    outcome.add(plain, checked(workload, plain))

    tracer = bench_trace.Tracer()
    before = default_registry().stats()
    patches = bench_trace.install(tracer)
    try:
        tracer.begin(bench_trace.ROOT, "rep 1")
        try:
            traced = workload.rep(tracer, **inline)
        finally:
            tracer.end()
    finally:
        patches.restore()
    cache = default_registry().stats().delta(before)
    failures = checked(workload, traced) + same_sim(plain, traced)
    if pool_result is not None:
        failures += same_sim(pool_result, traced)
    outcome.add(traced, failures)

    metrics = layer_metrics(
        bench, tracer, pool_tracer, cache, traced, untraced_wall
    )
    root = metrics["trace.root_s"][0]
    attributed = sum(
        value for key, (value, _, _) in metrics.items()
        if key.endswith(".self_s")
    ) + metrics["unattributed_s"][0]
    if abs(attributed - root) > 1e-6 * max(1.0, root):
        outcome.crash(
            f"layer self times sum to {attributed} s, root span is {root} s"
        )
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{name}-seed{seed}.jsonl"))
    info = {"untraced_wall_s": untraced_wall, "sim": traced.sim,
            "spans": len(tracer.spans)}
    return metrics, outcome, info


def layer_metrics(bench, tracer, pool_tracer, cache, result,
                  untraced_wall: float) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of one traced run (value, unit, sample count)."""
    percentile = bench.percentile
    artifacts = bench.PaperArtifact.ARTIFACTS
    out: dict[str, tuple[float, str, int]] = {}
    units = dict(per_layer_names(artifacts))

    def put(key: str, value: float, samples: int = 1) -> None:
        out[key] = (float(value), units[key], samples)

    counts = tracer.counts
    self_times = tracer.layer_self()
    for layer, seconds in self_times.items():
        if f"{layer}.self_s" in units:
            put(f"{layer}.self_s", seconds)
    root = tracer.root_duration()

    put("workloads.requests", counts["workloads.requests"])
    put("scenarios.build_s", tracer.total(
        "scenarios.build", "scenarios.with_value", "scenarios.expand"))
    put("service.fleet_build_s", tracer.total("service.init"))

    put("schedule_cache.hits", cache.hits)
    put("schedule_cache.misses", cache.misses)
    put("schedule_cache.prewarms", cache.prewarms)
    lookups = cache.hits + cache.misses
    put("schedule_cache.hit_rate", cache.hits / lookups if lookups else 0.0)
    put("schedule_cache.fidelity_misses", cache.fidelity_misses)

    put("engine.run_s", tracer.total("engine.run"))
    put("engine.heap_pushes", counts["engine.heap_pushes"])
    put("engine.heap_pops", counts["engine.heap_pops"])
    offered = result.offered
    put("engine.events_per_request",
        counts["engine.heap_pops"] / offered if offered else 0.0)
    put("engine.rejected_shed_ratio",
        result.rejected_or_shed / offered if offered else 0.0)
    put("engine.pool.workers", pool_tracer.peaks["engine.pool.workers"])
    put("engine.pool.tasks", pool_tracer.counts["engine.pool.tasks"])
    put("engine.pool.parent_wait_s", pool_tracer.total("engine.pool.run"))

    for arch in ARCHS:
        windows = tracer.samples.get(f"backends.{arch}.window_s", [])
        batches = tracer.samples.get(f"backends.{arch}.batch", [])
        put(f"backends.{arch}.windows", len(windows))
        put(f"backends.{arch}.run_window_s", sum(windows))
        put(f"backends.{arch}.window_ms_p50",
            1e3 * percentile(windows, 50.0) if windows else 0.0, len(windows))
        put(f"backends.{arch}.window_ms_p99",
            1e3 * percentile(windows, 99.0) if windows else 0.0, len(windows))
        put(f"backends.{arch}.mean_batch",
            statistics.fmean(batches) if batches else 0.0, len(batches))

    put("core.run_pipelined_queries_s",
        tracer.total("core.run_pipelined_queries"))
    put("bucket_brigade.run_query_s", tracer.total("bucket_brigade.run_query"))
    gates = tracer.durations("sim.apply_gate")
    put("sim.gates", len(gates))
    put("sim.apply_gate_s", sum(gates))
    put("sim.us_per_gate", 1e6 * sum(gates) / len(gates) if gates else 0.0,
        len(gates))
    put("sim.peak_terms", tracer.peaks["sim.peak_terms"])

    observe = tracer.durations("metrics.observe")
    put("metrics.observe_calls", len(observe))
    put("metrics.observe_s", sum(observe))
    put("metrics.to_stats_s", tracer.total("metrics.to_stats"))
    put("metrics.summarize_s", tracer.total("metrics.summarize"))
    put("metrics.sink_appends", counts["metrics.sink_appends"])

    points = tracer.durations("sweep.point")
    total_points = result.extra.get("points", 0.0)
    executions = result.extra.get("executions", 0.0)
    put("sweep.points", total_points)
    put("sweep.executions", executions)
    put("sweep.dedup_ratio", executions / total_points if total_points else 0.0)
    put("sweep.digest_s", tracer.total("sweep.digest"))
    put("sweep.point_ms_p50",
        1e3 * percentile(points, 50.0) if points else 0.0, len(points))
    put("sweep.point_ms_p90",
        1e3 * percentile(points, 90.0) if points else 0.0, len(points))
    put("sweep.deadline_miss_rate", result.sim.get("deadline_miss_rate", 0.0))

    runs = counts["scheduling.sim_runs"]
    queries = counts["scheduling.queries"]
    sim_seconds = tracer.total("scheduling.run")
    put("scheduling.sim_runs", runs)
    put("scheduling.run_s", sim_seconds)
    put("scheduling.queries", queries)
    put("scheduling.us_per_query", 1e6 * sim_seconds / queries if queries else 0.0)

    for artifact, _ in artifacts:
        put(f"analysis.{artifact}_s", tracer.total(f"analysis.{artifact}"))

    put("unattributed_s", tracer.unattributed())
    put("trace.root_s", root)
    put("trace.spans", len(tracer.spans))
    put("trace.overhead_ratio", root / untraced_wall if untraced_wall else 0.0)
    missing = [key for key in units if key not in out]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return out


# --------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = import_workloads()
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(bench.WORKLOADS)}")
    stamp = host_stamp()
    try:
        if args.trace:
            metrics, outcome, info = run_traced(bench, args.workload, args.seed)
        else:
            metrics, outcome, info = run_measured(
                bench, args.workload, args.seed, args.seconds
            )
    except Exception:  # noqa: BLE001 - report the crash, exit nonzero
        traceback.print_exc()
        print(f"perfbench: {args.workload} crashed", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for key, value in stamp.items():
        print(f"  stamp {key} = {value}")
    shown = {**metrics, **info.get("report_only", {})}
    for key, (value, unit, samples) in shown.items():
        print(f"  {key} = {value:.6g} {unit} (n={samples})")
    for message in outcome.messages[:20]:
        print(f"  CHECK FAILED {message}")
    correct = outcome.failed == 0 and not outcome.messages

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp,
        "metrics": {
            key: {"value": value, "unit": unit, "samples": samples}
            for key, (value, unit, samples) in metrics.items()
        },
        "info": info,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "check_failures": outcome.messages,
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, default=str), encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit, _) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
