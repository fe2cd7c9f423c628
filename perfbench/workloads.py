"""The benchmark's four workloads.

Each workload builds its inputs from the seed once (``__init__``), then
repeats *set up → run → check*: :meth:`setup` loads the inputs into a
fresh machine (timed as ``setup_s``), :meth:`run` does the measured work
and returns a :class:`Rep`, and :meth:`check` compares every output with
a reference computed without the library.  :meth:`floor` times the
hardware floor the run is compared against.

Every ``N`` is much larger than the machine's ``M``:

* ``sort_int64_mem`` — 2·10⁶ int64, B=1024, m=32 (M = 32768), D=1,
  memory backend: run formation plus two merge passes.
* ``sort_records_file`` — 5·10⁵ 64-byte records sorted by ``field("key")``
  on a ``FileDiskArray`` with ``StripedStream``, B=512, m=32, D=4.
* ``join_tuples_file`` — fused ``sort_merge_join`` of 2·10⁴ × 2·10⁵
  Python tuples on a ``FileDiskArray``, B=256, m=32, D=1.
* ``service_mix`` — ``QueryService`` on the memory backend, B=64, m=64,
  D=4: open-loop B+-tree gets against a 5·10⁴-key tree plus one
  ``sort_job`` and one ``pipeline_job``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field
from operator import itemgetter
from time import perf_counter, perf_counter_ns
from typing import List, Optional

import numpy as np

from repro import FileStream, Machine, StripedStream
from repro.core import FileDiskArray, encode_block, field
from repro.relational import joins
from repro.relational.table import Table
from repro.search.btree import BPlusTree
from repro.service import (DONE, AdmissionError, Job, QueryService,
                           pipeline_job, sort_job)
from repro.sort import external_merge_sort
from repro.workloads import foreign_key_relations

#: Chunk size of the raw sequential pwrite/pread floor pass.
_RAW_CHUNK = 1 << 20


@dataclass
class Rep:
    """What one measured repetition produced."""

    wall_s: float                 # the measured work, end to end
    transfers: int                # simulated block transfers
    steps: int                    # simulated parallel I/O steps
    records: int                  # records (plus gets) processed
    olap_s: float                 # completion of the last OLAP job
    latencies_ms: List[float]     # one per operation
    output: object = None         # what check() inspects
    extra: dict = dc_field(default_factory=dict)


def _payload_of(stream) -> np.ndarray:
    """Concatenate a finalized stream's blocks (read after measuring)."""
    parts = [np.asarray(block) for block in stream.iter_blocks()]
    if not parts:
        return np.empty(0)
    return np.concatenate(parts)


def _fresh_path(path: str) -> str:
    for stale in (path, path + ".meta"):
        if os.path.exists(stale):
            os.unlink(stale)
    return path


def _raw_io_seconds(path: str, read_bytes: int, write_bytes: int) -> float:
    """Time a raw sequential ``os.pwrite`` of ``write_bytes`` followed by
    a sequential ``os.pread`` of ``read_bytes`` through ``path``."""
    chunk = b"\xa5" * _RAW_CHUNK
    fd = os.open(_fresh_path(path), os.O_RDWR | os.O_CREAT, 0o600)
    try:
        start = perf_counter()
        offset = 0
        while offset < write_bytes:
            size = min(_RAW_CHUNK, write_bytes - offset)
            os.pwrite(fd, chunk[:size], offset)
            offset += size
        span = max(write_bytes, 1)
        done = 0
        while done < read_bytes:
            size = min(_RAW_CHUNK, read_bytes - done)
            os.pread(fd, size, done % span)
            done += size
        return perf_counter() - start
    finally:
        os.close(fd)
        os.unlink(path)


class Workload:
    """Base class: subclasses fill in the five hooks."""

    name = ""
    file_backend = False
    #: Latency limit of one operation (``get_slo_frac``).
    slo_ms = 0.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def setup(self):
        raise NotImplementedError

    def run(self, state, tracer=None) -> Rep:
        raise NotImplementedError

    def check(self, state, rep: Rep):
        """Return ``(attempted, failed)`` operations of the repetition."""
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def floor(self, rep: Rep) -> float:
        raise NotImplementedError

    @staticmethod
    def budget_ok(machine) -> bool:
        return machine.budget.peak <= machine.M


# ----------------------------------------------------------------------
class SortInt64Mem(Workload):
    name = "sort_int64_mem"
    slo_ms = 2500.0
    N = 2_000_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.data = self.rng.integers(
            np.iinfo(np.int64).min, np.iinfo(np.int64).max,
            size=self.N, dtype=np.int64)
        self.expected = np.sort(self.data)

    def setup(self):
        machine = Machine(block_size=1024, memory_blocks=32)
        return machine, FileStream.from_payload(machine, self.data)

    def run(self, state, tracer=None):
        machine, stream = state
        start = perf_counter()
        with machine.measure() as io:
            out = external_merge_sort(machine, stream)
        wall = perf_counter() - start
        return Rep(wall, io.total, io.total_steps, self.N, wall,
                   [wall * 1e3], out)

    def check(self, state, rep):
        machine, _ = state
        ok = self.budget_ok(machine) and np.array_equal(
            _payload_of(rep.output), self.expected)
        return 1, 0 if ok else 1

    def floor(self, rep):
        start = perf_counter()
        np.sort(self.data)
        return perf_counter() - start


class SortRecordsFile(Workload):
    name = "sort_records_file"
    file_backend = True
    slo_ms = 2500.0
    N = 500_000
    DTYPE = np.dtype([("key", "<i8"), ("payload", "<i8", (7,))])

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        data = np.zeros(self.N, dtype=self.DTYPE)
        # A narrow key range makes equal keys common, so stability is
        # checked too: the payload carries the input position.
        data["key"] = self.rng.integers(0, self.N // 4, size=self.N)
        data["payload"] = np.arange(self.N)[:, None] * np.arange(1, 8)
        self.data = data
        self.expected = data[np.argsort(data["key"], kind="stable")]
        self.path = os.path.join(workdir, "records.blocks")

    def setup(self):
        disk = FileDiskArray(512, 4, path=_fresh_path(self.path))
        machine = Machine(block_size=512, memory_blocks=32, num_disks=4,
                          disk=disk)
        return machine, StripedStream.from_payload(machine, self.data)

    def run(self, state, tracer=None):
        machine, stream = state
        start = perf_counter()
        with machine.measure() as io:
            out = external_merge_sort(machine, stream, key=field("key"),
                                      stream_cls=StripedStream)
        wall = perf_counter() - start
        return Rep(wall, io.total, io.total_steps, self.N, wall,
                   [wall * 1e3], out,
                   {"reads": io.reads, "writes": io.writes})

    def check(self, state, rep):
        machine, _ = state
        got = _payload_of(rep.output)
        ok = self.budget_ok(machine) and got.dtype == self.DTYPE \
            and np.array_equal(got["key"], np.sort(self.data["key"])) \
            and np.array_equal(got, self.expected)
        return 1, 0 if ok else 1

    def teardown(self, state):
        state[0].disk.close(remove=True)

    def floor(self, rep):
        itemsize = self.DTYPE.itemsize * 512
        start = perf_counter()
        self.data[np.argsort(self.data["key"], kind="stable")]
        sort_s = perf_counter() - start
        return sort_s + _raw_io_seconds(
            os.path.join(self.workdir, "floor.raw"),
            rep.extra["reads"] * itemsize, rep.extra["writes"] * itemsize)


class JoinTuplesFile(Workload):
    name = "join_tuples_file"
    file_backend = True
    slo_ms = 5000.0
    BUILD = 20_000
    PROBE = 200_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.build, self.probe = foreign_key_relations(
            self.BUILD, self.PROBE, seed=seed)
        # The reference: a dict join, in the merge join's output order
        # (by key; equal keys in probe input order).
        index = {row[0]: row for row in self.build}
        self.expected = [index[row[0]] + row
                         for row in sorted(self.probe, key=itemgetter(0))
                         if row[0] in index]
        self.path = os.path.join(workdir, "join.blocks")
        # Device bytes per record: one encoded block of probe rows.
        self.record_bytes = len(encode_block(self.probe[:256])) / 256
        self.build_keys = np.array([row[0] for row in self.build])
        self.probe_keys = np.array([row[0] for row in self.probe])

    def setup(self):
        disk = FileDiskArray(256, 1, path=_fresh_path(self.path))
        machine = Machine(block_size=256, memory_blocks=32, disk=disk)
        build = Table.from_rows(machine, ("k", "b"), self.build, "build")
        probe = Table.from_rows(machine, ("k", "p"), self.probe, "probe")
        return machine, build, probe

    def run(self, state, tracer=None):
        machine, build, probe = state
        start = perf_counter()
        with machine.measure() as io:
            out = joins.sort_merge_join(build, probe, "k", "k")
        wall = perf_counter() - start
        return Rep(wall, io.total, io.total_steps,
                   self.BUILD + self.PROBE, wall, [wall * 1e3], out,
                   {"reads": io.reads, "writes": io.writes})

    def check(self, state, rep):
        machine = state[0]
        ok = self.budget_ok(machine) \
            and list(rep.output.rows()) == self.expected
        return 1, 0 if ok else 1

    def teardown(self, state):
        state[0].disk.close(remove=True)

    def floor(self, rep):
        build_keys, probe_keys = self.build_keys, self.probe_keys
        start = perf_counter()
        np.argsort(build_keys, kind="stable")
        order = np.argsort(probe_keys, kind="stable")
        np.searchsorted(np.sort(build_keys), probe_keys[order])
        sort_s = perf_counter() - start
        block = 256 * self.record_bytes
        return sort_s + _raw_io_seconds(
            os.path.join(self.workdir, "floor.raw"),
            int(rep.extra["reads"] * block),
            int(rep.extra["writes"] * block))


class ServiceMix(Workload):
    """Open-loop OLTP gets beside two OLAP jobs on one ``QueryService``.

    A feeder job in the OLTP tenant submits each get when it falls due
    (``RATE`` per second for ``WINDOW_S`` seconds), so the admission
    queue only ever holds due gets; each get's latency runs from its due
    time to its completion, so a late feeder counts against the get.
    """

    name = "service_mix"
    slo_ms = 25.0
    KEYS = 50_000
    HOT = 1_000
    HOT_SHARE = 0.8
    RATE = 4_000
    WINDOW_S = 1.5
    SORT_N = 200_000
    PIPE_N = 100_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        gets = int(self.RATE * self.WINDOW_S)
        hot_low = int(rng.integers(0, self.KEYS - self.HOT))
        hot = rng.integers(hot_low, hot_low + self.HOT, size=gets)
        cold = rng.integers(0, self.KEYS, size=gets)
        self.get_keys = np.where(rng.random(gets) < self.HOT_SHARE,
                                 hot, cold).tolist()
        self.sort_data = rng.integers(0, 1 << 62, size=self.SORT_N,
                                      dtype=np.int64)
        self.pipe_data = rng.integers(0, 1 << 62, size=self.PIPE_N,
                                      dtype=np.int64)
        self.sort_expected = np.sort(self.sort_data)
        self.pipe_expected = self._pipe_reference()

    @staticmethod
    def pipe_filter(value):
        return value % 3 != 0

    @staticmethod
    def pipe_map(value):
        return value // 2

    def _pipe_reference(self):
        data = self.pipe_data
        return np.sort(data[data % 3 != 0] // 2)

    def setup(self):
        machine = Machine(block_size=64, memory_blocks=64, num_disks=4)
        tree = BPlusTree.bulk_load(
            machine, ((key, 3 * key) for key in range(self.KEYS)))
        return (machine, tree,
                FileStream.from_payload(machine, self.sort_data),
                FileStream.from_payload(machine, self.pipe_data))

    def run(self, state, tracer=None):
        machine, tree, sort_stream, pipe_stream = state
        service = QueryService(machine, max_queued=len(self.get_keys) + 8)
        service.add_tenant("oltp", weight=1, max_running=64)
        # One OLAP job at a time, below the library's default of two,
        # because of an open library defect: admission checks a job's
        # reservation floor against the share's headroom but does not
        # hold it, so with both jobs admitted at t=0 the sort's adaptive
        # memoryload takes the share and pipeline_job fails with merge
        # fan-in 0 on every run.  The benchmark keeps to workloads on
        # which no operation fails; raising this to 2 shows the defect.
        service.add_tenant("olap", weight=1, max_running=1)
        keys = self.get_keys
        period_ns = 1e9 / self.RATE
        values: List[Optional[int]] = [None] * len(keys)
        # A get that never completes keeps an infinite latency, so it
        # counts as a miss of the latency limit.
        latencies = [float("inf")] * len(keys)
        lags = []
        finished = {}
        start = perf_counter_ns()

        def get(index, due, budget):
            values[index] = yield from tree.lookup_steps(keys[index])
            latencies[index] = (perf_counter_ns() - due) / 1e6

        def feeder(budget):
            index = 0
            while index < len(keys):
                now = perf_counter_ns()
                while index < len(keys):
                    due = start + int(index * period_ns)
                    if due > now:
                        break
                    lags.append((now - due) / 1e6)
                    try:
                        service.submit("oltp", Job(
                            "get", lambda b, i=index, d=due: get(i, d, b)))
                    except AdmissionError:
                        pass  # counted by the tenant; value stays None
                    index += 1
                yield None

        def timed(job, label):
            make = job.make

            def wrapped(budget):
                result = yield from make(budget)
                finished[label] = perf_counter_ns()
                return result

            job.make = wrapped
            return job

        def loadgen(budget):
            if tracer is None:
                return feeder(budget)
            from tracer import TimedIter
            return TimedIter(tracer, "bench.loadgen", feeder(budget))

        service.submit("oltp", Job("feeder", loadgen))
        sort = timed(sort_job(machine, sort_stream), "sort")
        pipe = timed(pipeline_job(
            machine, pipe_stream, filter_fn=self.pipe_filter,
            map_fn=self.pipe_map), "pipeline")
        service.submit("olap", sort)
        service.submit("olap", pipe)
        with machine.measure() as io:
            report = service.run()
        end = perf_counter_ns()
        last_olap = max(finished.values(), default=end)
        rejected = sum(t["rejected"] for t in report["tenants"].values())
        return Rep(
            (end - start) / 1e9, io.total, io.total_steps,
            self.SORT_N + self.PIPE_N + len(keys),
            (last_olap - start) / 1e9, latencies,
            (values, sort, pipe),
            {"rounds": report["rounds"], "lags_ms": lags,
             "rejected": rejected})

    def check(self, state, rep):
        machine = state[0]
        values, sort, pipe = rep.output
        # Wrong, failed and rejected gets all leave a wrong value.
        failed = sum(1 for key, value in zip(self.get_keys, values)
                     if value != 3 * key)
        for job, expected in ((sort, self.sort_expected),
                              (pipe, self.pipe_expected)):
            if job.status != DONE or not np.array_equal(
                    _payload_of(job.result), expected):
                failed += 1
        if not self.budget_ok(machine):
            failed += 1
        return len(values) + 2, failed

    def floor(self, rep):
        start = perf_counter()
        np.sort(self.sort_data)
        self._pipe_reference()
        return perf_counter() - start


WORKLOADS = {
    cls.name: cls
    for cls in (SortInt64Mem, SortRecordsFile, JoinTuplesFile, ServiceMix)
}
