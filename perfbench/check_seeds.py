"""Seed discipline and tracing checks of the benchmark itself.

Run explicitly (the file name keeps it out of the tier-1 collection):

    python3 -m pytest perfbench/check_seeds.py -q

Workloads run at reduced sizes here; the properties checked do not
depend on size.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402


def small(name: str, seed: int):
    if name == "open_loop_stream":
        return bw.OpenLoopStream(seed, requests=2_000)
    if name == "functional_pipelined":
        return bw.FunctionalPipelined(seed, queries=6)
    return bw.SloSweep(seed, queries=40, data_seeds=1)


SEEDED = ("open_loop_stream", "functional_pipelined", "slo_sweep")


def test_same_seed_gives_identical_simulated_figures():
    for name in SEEDED:
        first = small(name, 3).rep()
        again = small(name, 3).rep()
        assert first.sim == again.sim, name
        assert first.digests == again.digests, name
        assert not small(name, 3).check(first), name


def test_different_seed_gives_a_different_trace():
    for name in SEEDED:
        a = small(name, 3).first_requests(5)
        b = small(name, 4).first_requests(5)
        assert len(a) == len(b) == 5, name
        assert [
            (r.request_time, r.address_amplitudes) for r in a
        ] != [(r.request_time, r.address_amplitudes) for r in b], name


def test_memory_image_follows_the_seed():
    assert small("functional_pipelined", 3).memory != (
        small("functional_pipelined", 4).memory
    )


def test_held_out_seed_is_named_and_unused():
    meta = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    held_out = meta["held_out_seed"]
    assert isinstance(held_out, int)
    assert held_out not in meta["seeds_used_while_writing"]
    bench = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(meta["workloads"]) == list(bw.WORKLOADS)


def test_tracing_is_observational_and_self_times_add_up():
    for name in ("open_loop_stream", "slo_sweep"):
        workload = small(name, 5)
        # Spans are recorded in this process only, so the sweep runs inline.
        inline = {"pool_size": 0} if name == "slo_sweep" else {}
        plain = workload.rep()
        tracer = bench_trace.Tracer()
        patches = bench_trace.install(tracer)
        try:
            tracer.begin(bench_trace.ROOT, "rep 1")
            try:
                traced = workload.rep(tracer, **inline)
            finally:
                tracer.end()
        finally:
            patches.restore()
        assert traced.sim == plain.sim, name
        assert traced.digests == plain.digests, name
        root = tracer.root_duration()
        attributed = sum(tracer.layer_self().values()) + tracer.unattributed()
        assert abs(attributed - root) <= 1e-9 * max(1.0, root), name
        assert tracer.counts["workloads.requests"] > 0, name
        # The wrappers are gone again: a later run records nothing.
        before = len(tracer.spans)
        workload.rep()
        assert len(tracer.spans) == before, name
