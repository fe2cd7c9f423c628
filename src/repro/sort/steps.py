"""The cooperative external merge sort: an intent-yielding generator.

The OLAP engine of the multi-tenant query service
(:mod:`repro.service`) and the only cooperative sort in the library:
the same memoryload-runs-then-k-way-merge algorithm as
:func:`~repro.sort.merge.external_merge_sort`, but every read is a
yielded :class:`~repro.core.intents.StreamRead` intent, so a driver can
interleave the sort's waves with other jobs, and every byte of working
memory is reserved from a caller-supplied *budget* — a tenant's
:class:`~repro.core.memory.SubBudget` under the service, the machine's
global :class:`~repro.core.memory.MemoryBudget` standalone.

Run formation is the eager sort's: :func:`~repro.sort.runs.memoryload_blocks`
sizes the memoryload to the budget actually available, so a tenant
with a small share forms shorter runs (and pays more merge passes)
instead of overflowing its share — the fair-share analogue of the
survey's ``M``-bounded run formation — and
:func:`~repro.sort.runs.write_sorted_run` orders each memoryload by
(key, pointer), vectorized when the payload is typed.  Optional
``filter_fn``/``map_fn`` stages run on each memoryload before it is
sorted, so a scan → filter → map → sort job never writes the
transformed intermediate (:func:`repro.pipeline.steps.pipeline_sort_steps`
is this function).

Writes need no staging frames of their own, so no hidden reservation
lands on the parent ledger: the tenant's ``in_use`` peak is exactly
what its jobs reserved.  A merge pass that finds too little of a shared
budget free for a binary merge (another job holds its memoryload
across a read) waits at a bare-``yield`` checkpoint until it frees up.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from ..core.exceptions import ConfigurationError
from ..core.intents import StreamRead
from ..core.machine import Machine
from ..core.records import concat
from ..core.stream import FileStream
from .runs import identity, memoryload_blocks, write_sorted_run


def merge_sort_steps(
    machine: Machine,
    stream: FileStream,
    key: Optional[Callable[[Any], Any]] = None,
    map_fn: Optional[Callable[[Any], Any]] = None,
    filter_fn: Optional[Callable[[Any], bool]] = None,
    budget=None,
    name: str = "coop",
):
    """Sort ``stream`` cooperatively; a generator for a driver loop.

    Yields :class:`~repro.core.intents.StreamRead` intents and expects
    the payload list back via ``send``; *returns* the finalized sorted
    :class:`~repro.core.stream.FileStream` (surfaced by the driver from
    ``StopIteration``).  Stable, like the eager sort.

    Args:
        machine: the machine whose disk the stream lives on.
        key: sort key over the (transformed) records; default sorts
            records directly.
        map_fn: per-record transform applied before sorting.
        filter_fn: predicate applied before ``map_fn``; records it
            rejects are dropped.
        budget: ledger to reserve working memory from — a tenant's
            :class:`~repro.core.memory.SubBudget` under the service;
            defaults to ``machine.budget``.
        name: label prefix for the intermediate run streams.
    """
    key = key or identity
    budget = budget if budget is not None else machine.budget
    B = machine.block_size
    block_ids = list(stream.block_ids)

    # ------------------------------------------------------------------
    # run formation: budget-sized memoryloads, counted in *input*
    # records so the reservation covers nothing being filtered out
    # ------------------------------------------------------------------
    blocks_per_run = memoryload_blocks(machine, budget.available)
    runs: List[FileStream] = []
    next_runs: List[FileStream] = []
    try:
        for start in range(0, len(block_ids), blocks_per_run):
            wanted = block_ids[start:start + blocks_per_run]
            with budget.reserve(len(wanted) * B):
                chunk = concat((yield StreamRead(wanted)))
                if filter_fn is not None:
                    chunk = [record for record in chunk
                             if filter_fn(record)]
                if map_fn is not None:
                    chunk = [map_fn(record) for record in chunk]
                if len(chunk):
                    runs.append(write_sorted_run(
                        machine, chunk, key, FileStream,
                        f"{name}/run/{len(runs)}",
                    ))

        # --------------------------------------------------------------
        # merge passes: one cursor frame per run + one output frame
        # --------------------------------------------------------------
        level = 0
        while len(runs) > 1:
            level += 1
            arity = min(machine.fan_in, budget.available // B - 1)
            while arity < 2:
                # Jobs sharing the budget (a tenant's share) hold their
                # frames across yielded reads: wait at a checkpoint for
                # them to release.  Fail at once when even the whole
                # budget cannot hold a binary merge.
                if min(machine.fan_in, budget.capacity // B - 1) < 2:
                    raise ConfigurationError(
                        f"cooperative merge fan-in must be >= 2, got "
                        f"{arity} (budget {budget!r} too small)"
                    )
                yield
                arity = min(machine.fan_in, budget.available // B - 1)
            for start in range(0, len(runs), arity):
                group = runs[start:start + arity]
                if len(group) == 1:
                    # Straggler: carried forward untouched.
                    next_runs.append(group[0])
                    continue
                merged = yield from _merge_group_steps(
                    machine, group, key, budget,
                    f"{name}/merge-{level}/{len(next_runs)}",
                )
                next_runs.append(merged)
                for member in group:
                    member.delete()
            runs = next_runs
            next_runs = []
    except BaseException:
        # A fault (or a driver .throw) mid-sort must not leak blocks:
        # the job fails alone, its intermediates reclaimed.  delete()
        # is idempotent, so a straggler run appearing in both lists
        # (or a group member already deleted) is harmless.
        for formed in runs + next_runs:
            formed.delete()
        raise

    if not runs:
        return FileStream(machine, name=f"{name}/sorted").finalize()
    return runs[0]


def _merge_group_steps(
    machine: Machine,
    group: List[FileStream],
    key: Callable[[Any], Any],
    budget,
    name: str,
):
    """Merge one group of sorted runs cooperatively.

    Holds one block per input run plus one output buffer, all reserved
    from ``budget``; exhausted cursors refill with one ``StreamRead``
    each (the driver batches refills across jobs into shared waves).
    """
    B = machine.block_size
    ids = [list(member.block_ids) for member in group]
    out = FileStream(machine, name=name)
    with budget.reserve((len(group) + 1) * B):
        try:
            first = [run_ids[0] for run_ids in ids if run_ids]
            payloads = yield StreamRead(first)
            blocks: List[List[Any]] = []
            position = 0
            for run_ids in ids:
                if run_ids:
                    blocks.append(payloads[position])
                    position += 1
                else:
                    blocks.append([])
            # Heap of (key, run index, record): run index both breaks
            # key ties in input order (stability) and avoids comparing
            # records directly.
            cursor = [0] * len(group)  # next block to fetch per run
            offset = [0] * len(group)  # next record within the block
            heap = []
            for index, block in enumerate(blocks):
                if len(block):  # ndarray truthiness is ambiguous
                    heap.append((key(block[0]), index, block[0]))
                    offset[index] = 1
                    cursor[index] = 1
            heapify(heap)
            buffer: List[Any] = []
            while heap:
                _, index, record = heappop(heap)
                buffer.append(record)
                if len(buffer) == B:
                    out.append_block(buffer)
                    buffer = []
                if offset[index] >= len(blocks[index]):
                    if cursor[index] < len(ids[index]):
                        [payload] = yield StreamRead(
                            [ids[index][cursor[index]]]
                        )
                        blocks[index] = payload
                        cursor[index] += 1
                        offset[index] = 0
                    else:
                        blocks[index] = []
                        continue
                record = blocks[index][offset[index]]
                offset[index] += 1
                heappush(heap, (key(record), index, record))
            if buffer:
                out.append_block(buffer)
        except BaseException:
            out.delete()
            raise
    return out.finalize()
