"""Run one benchmark workload, check its outputs, print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sort_int64_mem --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` is the separate traced run: it first repeats
the workload untraced, then repeats it with the outside-in tracer
(``layers.py``) installed, and reports the per-layer metrics, the
hardware floor, the tracing overhead and the share of wall time no
layer span covers; the spans are written as a Chrome trace to
``.perfbench_out/``.

Each repetition sets the workload up on a fresh machine (timed as
``setup_s``), runs it, and checks every output against a reference
computed without the library.  Times are reported in reference
seconds (``hostspeed.py``): each repetition's measured seconds are
scaled by the host's speed, timed with a fixed kernel right before and
after it.  The last line of standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"

#: Hardware-floor measurements after each traced-run repetition
#: (median taken).
FLOOR_REPS = 3
#: Fewest measured repetitions per phase, whatever ``--seconds`` says.
MIN_REPS = 2

WORKLOAD_NAMES = ("sort_int64_mem", "sort_records_file",
                  "join_tuples_file", "service_mix")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "records_per_s": "1/s",
    "olap_s": "s", "io_transfers": "count",
    "io_steps": "count", "peak_rss_mb": "MB", "success_rate": "ratio",
    "get_p50_ms": "ms", "get_p99_ms": "ms", "get_slo_frac": "ratio",
}

PER_LAYER = {
    "sort.runs.self_s": "s", "sort.merge.self_s": "s",
    "sort.merge.chunks": "count", "sort.steps.self_s": "s",
    "sort.steps.max_advance_ms": "ms", "pipeline.sorter.self_s": "s",
    "relational.join.self_s": "s", "stream.self_s": "s",
    "stream.blocks_appended": "count", "stream.blocks_read": "count",
    "runtime.scheduler.self_s": "s", "runtime.scheduler.waves": "count",
    "runtime.scheduler.wave_fill": "ratio",
    "runtime.writebehind.self_s": "s", "runtime.prefetch.self_s": "s",
    "runtime.retries": "count", "cache.pool.self_s": "s",
    "cache.pool.hits": "count", "cache.pool.misses": "count",
    "cache.pool.hit_rate": "ratio", "cache.pool.evictions": "count",
    "cache.pool.reclaims": "count", "disk.self_s": "s",
    "disk.reads": "count", "disk.writes": "count",
    "disk.ns_per_block": "ns", "disk.bytes_written": "bytes",
    "disk.high_water_blocks": "blocks", "memory.budget_peak": "records",
    "service.self_s": "s", "service.rounds": "count",
    "service.arrival_lag_p99_ms": "ms", "service.rejected": "count",
    "search.btree.self_s": "s", "floor_s": "s", "floor_ratio": "ratio",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
    "host.kernel_ms": "ms", "wall_raw_s": "s",
}

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIMED = ("sort.runs", "sort.merge", "sort.steps", "pipeline.sorter",
              "relational.join", "stream", "runtime.scheduler",
              "runtime.writebehind", "runtime.prefetch", "cache.pool",
              "disk", "service", "search.btree")


def reset_peak_rss() -> None:
    """Reset the kernel's resident-set high-water mark to the current
    resident set (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """The resident-set high-water mark since the last reset, in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Sample:
    """One checked repetition: set-up time, the workload's Rep, the
    process's peak resident set during the run, the machine counters
    the traced run reports, the host-speed kernel's time around it and
    its check result."""

    def __init__(self, setup_s, rep, peak_mb, machine, io, pool,
                 kernel_s):
        self.setup_s = setup_s
        self.rep = rep
        self.peak_rss_mb = peak_mb
        self.floor_s = None
        self.io = io
        self.pool = pool
        self.num_disks = machine.D
        self.budget_peak = machine.budget.peak
        self.high_water = machine.disk.high_water_blocks
        self.attempted = self.failed = 0
        self.kernel_s = kernel_s

    @property
    def scale(self) -> float:
        """Reference seconds per measured second in this repetition."""
        return hostspeed.REF_S / self.kernel_s


POOL_COUNTERS = ("hits", "misses", "evictions")


def repetition(workload, tracer=None, floor=False) -> Sample:
    """Set up, run and check the workload once; with ``floor``, also
    time the hardware floor (only the traced run reports it)."""
    gc.collect()
    kernel_before = hostspeed.kernel_seconds()
    start = perf_counter()
    state = workload.setup()
    setup_s = perf_counter() - start
    try:
        machine = state[0]
        pool = [getattr(machine.pool, name) for name in POOL_COUNTERS]
        before = machine.stats()
        # The collector stays on while the run is timed, so the
        # library's own collections are part of its cost; the inputs,
        # references and machine built so far are frozen out of it, so
        # their size does not set how long each collection takes.
        gc.collect()
        gc.freeze()
        # The peak is the run's alone: the reference arrays, the floor
        # and the checks' copies come before the reset or after the
        # reading.
        reset_peak_rss()
        rep = run_once(workload, state, tracer)
        peak_mb = peak_rss_mb()
        kernel_after = hostspeed.kernel_seconds()
        sample = Sample(setup_s, rep, peak_mb, machine,
                        machine.stats() - before, {
                            name: getattr(machine.pool, name) - count
                            for name, count in zip(POOL_COUNTERS, pool)},
                        (kernel_before + kernel_after) / 2)
        if floor:
            # The floor is timed next to the run it is compared with,
            # so both see the same load on a shared host.
            sample.floor_s = statistics.median(
                workload.floor(rep) for _ in range(FLOOR_REPS))
        sample.attempted, sample.failed = workload.check(state, rep)
        # The outputs pin the repetition's whole device; keep only the
        # numbers so that repetitions do not pile up in memory.
        rep.output = None
        return sample
    finally:
        gc.unfreeze()
        workload.teardown(state)


def run_once(workload, state, tracer):
    if tracer is None:
        return workload.run(state)
    from layers import Instrumentation
    tracer.run_id += 1
    instrumentation = Instrumentation(tracer, workload.file_backend)
    tracer.enter("workload")
    try:
        return workload.run(state, tracer)
    finally:
        tracer.exit()
        instrumentation.remove()


def repeat(workload, seconds, tracer=None, floor=False):
    samples = []
    deadline = perf_counter() + seconds
    while len(samples) < MIN_REPS or perf_counter() < deadline:
        samples.append(repetition(workload, tracer, floor))
    return samples


def end_to_end(workload, samples):
    from repro.service.metrics import nearest_rank

    median = statistics.median

    # Every time is the repetition's own, scaled to reference seconds
    # by the host speed measured around it, and the run reports the
    # median over repetitions.  The host's slow phases outlast a run, so
    # no statistic of measured times alone is steady from run to run
    # (README.md, "Measurement notes").
    def scaled(seconds_of):
        return [seconds_of(sample) * sample.scale for sample in samples]

    wall = scaled(lambda sample: sample.rep.wall_s)

    def percentile(pct):
        """Median over repetitions of each repetition's scaled
        percentile of its completed operations."""
        return median(
            nearest_rank([ms for ms in sample.rep.latencies_ms
                          if math.isfinite(ms)] or [math.inf], pct)
            * sample.scale for sample in samples)

    within = sum(ms * sample.scale <= workload.slo_ms
                 for sample in samples for ms in sample.rep.latencies_ms)
    operations = sum(len(sample.rep.latencies_ms) for sample in samples)
    return {
        "setup_s": median(scaled(lambda sample: sample.setup_s)),
        "wall_s": median(wall),
        "records_per_s": median(sample.rep.records / seconds
                                for sample, seconds in zip(samples, wall)),
        "olap_s": median(scaled(lambda sample: sample.rep.olap_s)),
        "io_transfers": median(sample.rep.transfers for sample in samples),
        "io_steps": median(sample.rep.steps for sample in samples),
        "peak_rss_mb": median(sample.peak_rss_mb for sample in samples),
        "get_p50_ms": percentile(50),
        "get_p99_ms": percentile(99),
        "get_slo_frac": within / operations,
    }


def per_layer(tracer, samples, plain):
    """Per-layer metrics of the traced ``samples``, per repetition.
    Layer times are measured, not scaled: their shares of the traced
    wall time are what they report, and ``host.kernel_ms`` is the host
    speed they were measured at."""
    from repro.service.metrics import nearest_rank

    count = len(samples)
    counts = tracer.counts

    def mean(values):
        return sum(values) / count

    metrics = {f"{layer}.self_s": tracer.self_ns(layer) / 1e9 / count
               for layer in SELF_TIMED}
    waves = counts["runtime.scheduler.waves"]
    pool = {name: mean(s.pool[name] for s in samples)
            for name in POOL_COUNTERS}
    looked_up = pool["hits"] + pool["misses"]
    transfers = sum(s.io.total for s in samples)
    lags = [lag for s in samples for lag in s.rep.extra.get("lags_ms", ())]
    root = tracer.total_ns("workload")
    traced_wall = statistics.median(s.rep.wall_s * s.scale for s in samples)
    plain_wall = statistics.median(s.rep.wall_s * s.scale for s in plain)
    metrics.update({
        "sort.merge.chunks": counts["sort.merge.chunks"] / count,
        "sort.steps.max_advance_ms": tracer.max_ns("sort.steps") / 1e6,
        "stream.blocks_appended": counts["stream.blocks_appended"] / count,
        "stream.blocks_read": counts["stream.blocks_read"] / count,
        "runtime.scheduler.waves": waves / count,
        "runtime.scheduler.wave_fill":
            counts["runtime.scheduler.wave_blocks"] / waves
            / samples[0].num_disks if waves else 0.0,
        "runtime.retries": mean(s.io.retries for s in samples),
        "cache.pool.hits": pool["hits"],
        "cache.pool.misses": pool["misses"],
        "cache.pool.hit_rate": pool["hits"] / looked_up if looked_up
        else 0.0,
        "cache.pool.evictions": pool["evictions"],
        "cache.pool.reclaims": counts["cache.pool.reclaims"] / count,
        "disk.reads": mean(s.io.reads for s in samples),
        "disk.writes": mean(s.io.writes for s in samples),
        "disk.ns_per_block": tracer.self_ns("disk") / transfers
        if transfers else 0.0,
        "disk.bytes_written": counts["disk.bytes_written"] / count,
        "disk.high_water_blocks": max(s.high_water for s in samples),
        "memory.budget_peak": max(s.budget_peak for s in samples),
        "service.rounds": mean(s.rep.extra.get("rounds", 0)
                               for s in samples),
        "service.arrival_lag_p99_ms": nearest_rank(lags, 99) if lags
        else 0.0,
        "service.rejected": mean(s.rep.extra.get("rejected", 0)
                                 for s in samples),
        "floor_s": statistics.median(s.floor_s for s in samples),
        # Both sides are timed on the same host within a second of each
        # other, so the ratio needs no scaling.  It is a reference value
        # rather than an end-to-end metric: the host's slow phases slow
        # numpy and the raw file I/O of the floor differently from the
        # library's interpreted work (README.md, "Measurement notes").
        "floor_ratio": statistics.median(s.rep.olap_s / s.floor_s
                                         for s in plain),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.unattributed_frac":
            tracer.self_ns("workload") / root if root else 0.0,
        "host.kernel_ms": statistics.median(s.kernel_s for s in plain) * 1e3,
        "wall_raw_s": statistics.median(s.rep.wall_s for s in plain),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(WORKDIR))
        warmup = repetition(workload, floor=bool(args.trace))
        if args.trace:
            from tracer import Tracer
            plain = repeat(workload, args.seconds / 2, floor=True)
            tracer = Tracer()
            traced = repeat(workload, args.seconds / 2, tracer, floor=True)
            samples = [warmup] + plain + traced
            metrics = per_layer(tracer, traced, plain)
            units = PER_LAYER
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.save(TRACE_DIR /
                        f"trace-{args.workload}-seed{args.seed}.json")
        else:
            measured = repeat(workload, args.seconds)
            samples = [warmup] + measured
            metrics = end_to_end(workload, measured)
            units = END_TO_END
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = sum(sample.attempted for sample in samples)
    failed = sum(sample.failed for sample in samples)
    if not args.trace:
        metrics["success_rate"] = 1.0 - failed / attempted
    for name in units:
        print(f"{name:32s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
