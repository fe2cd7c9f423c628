"""Tests for the cooperative sort (``repro.sort.steps.merge_sort_steps``)
and its pipeline name (``repro.pipeline.steps.pipeline_sort_steps``).

Covers typed (ndarray) and list inputs across several merge passes,
list/ndarray parity of output and counters, the fused filter/map
stages, the service's ``pipeline_job`` (alone, and beside a
``sort_job`` in one tenant), the merge's too-small-budget error, and
the regression in which a caller's key function merely *named*
``identity`` was mistaken for the library's identity key.
"""

import math

import numpy as np
import pytest

from repro.core import ConfigurationError, FileStream, Machine
from repro.core.intents import fulfill
from repro.core.memory import MemoryBudget
from repro.pipeline import pipeline_sort_steps
from repro.service import DONE, QueryService, drive, pipeline_job, sort_job
from repro.sort import external_merge_sort, merge_sort_steps
from repro.sort.runs import memoryload_blocks


def machine(D=1, B=16, m=16):
    return Machine(block_size=B, memory_blocks=m, num_disks=D)


def int64_data(n, seed=0):
    return np.random.default_rng(seed).integers(0, 10 * n, n,
                                                dtype=np.int64)


def load(m, values, payload):
    """A finalized input stream of ``values`` as list or ndarray blocks,
    with the stats clock zeroed."""
    if payload == "list":
        stream = FileStream.from_records(m, [int(v) for v in values])
    else:
        stream = FileStream.from_payload(m, values)
    m.runtime.flush()
    m.reset_stats()
    return stream


def counters(m):
    stats = m.stats()
    return stats.total, stats.total_steps


def identity(record):
    """A caller's own key that happens to share the library key's name."""
    return -record


# ---------------------------------------------------------------------
# identity is recognized by object, never by name
# ---------------------------------------------------------------------
@pytest.mark.parametrize("payload", ["list", "ndarray"])
def test_eager_sort_applies_a_key_named_identity(payload):
    m = machine()
    values = int64_data(3000, seed=1)
    out = external_merge_sort(m, load(m, values, payload), key=identity)
    assert [int(v) for v in out] == sorted(values.tolist(), reverse=True)


@pytest.mark.parametrize("payload", ["list", "ndarray"])
def test_cooperative_sort_applies_a_key_named_identity(payload):
    m = machine()
    values = int64_data(3000, seed=1)
    out = drive(m, merge_sort_steps(m, load(m, values, payload),
                                    key=identity))
    assert [int(v) for v in out] == sorted(values.tolist(), reverse=True)
    assert m.budget.in_use == 0


# ---------------------------------------------------------------------
# typed input through the cooperative sort
# ---------------------------------------------------------------------
@pytest.mark.parametrize("D", [1, 4])
def test_typed_input_over_two_merge_passes(D):
    m = machine(D=D)
    values = int64_data(6000, seed=2)
    load_records = memoryload_blocks(m, m.budget.available) * m.B
    # More runs than one merge can take: at least two merge passes.
    assert math.ceil(len(values) / load_records) > m.fan_in
    out = drive(m, merge_sort_steps(m, load(m, values, "ndarray")))
    assert np.array_equal(np.array(list(out), dtype=np.int64),
                          np.sort(values))
    assert m.budget.in_use == 0


@pytest.mark.parametrize("D", [1, 4])
def test_list_and_ndarray_payloads_agree(D):
    values = int64_data(6000, seed=3)
    results = {}
    for payload in ("list", "ndarray"):
        m = machine(D=D)
        out = drive(m, merge_sort_steps(m, load(m, values, payload)))
        results[payload] = ([int(v) for v in out], counters(m))
    assert results["list"] == results["ndarray"]
    assert results["list"][0] == sorted(values.tolist())


# ---------------------------------------------------------------------
# fused stages (the pipeline name of the same engine)
# ---------------------------------------------------------------------
def test_pipeline_name_is_the_cooperative_sort():
    assert pipeline_sort_steps is merge_sort_steps


@pytest.mark.parametrize("payload", ["list", "ndarray"])
def test_filter_map_sort_matches_python_reference(payload):
    m = machine(D=4)
    values = int64_data(5000, seed=4)

    def keep(record):
        return record % 3 != 0

    def pair(record):
        return (int(record) % 97, int(record))

    def bucket(record):
        return record[0]

    out = drive(m, pipeline_sort_steps(
        m, load(m, values, payload), key=bucket, map_fn=pair,
        filter_fn=keep,
    ))
    expected = sorted((pair(v) for v in values.tolist() if keep(v)),
                      key=bucket)
    assert list(out) == expected
    assert m.budget.in_use == 0


def test_filter_dropping_every_record_gives_an_empty_stream():
    m = machine()
    out = drive(m, pipeline_sort_steps(
        m, load(m, int64_data(800), "list"), filter_fn=lambda r: False,
    ))
    assert len(out) == 0 and list(out) == []
    assert m.budget.in_use == 0


@pytest.mark.parametrize("payload", ["list", "ndarray"])
def test_no_stages_equals_plain_cooperative_sort(payload):
    values = int64_data(5000, seed=5)
    results = []
    for steps in (merge_sort_steps, pipeline_sort_steps):
        m = machine(D=4)
        out = drive(m, steps(m, load(m, values, payload)))
        results.append(([int(v) for v in out], counters(m)))
    assert results[0] == results[1]


def test_pipeline_job_finishes_under_the_service():
    m = machine(D=4, m=32)
    values = int64_data(3000, seed=6)
    stream = load(m, values, "ndarray")
    service = QueryService(m)
    olap = service.add_tenant("olap", weight=1, max_running=1)
    job = service.submit("olap", pipeline_job(
        m, stream, map_fn=lambda r: r // 2, filter_fn=lambda r: r % 3 != 0,
    ))
    service.run()
    assert job.status == DONE and job.error is None
    expected = np.sort(values[values % 3 != 0] // 2)
    assert np.array_equal(np.array(list(job.result), dtype=np.int64),
                          expected)
    assert olap.share.in_use == 0
    assert m.budget.in_use == 0


def test_sort_and_pipeline_jobs_share_one_tenant_at_default_settings():
    # Two OLAP jobs run side by side under add_tenant's default
    # max_running=2: the sort's merge takes most of the share while the
    # pipeline holds a one-block memoryload across its read, so the
    # pipeline's merge finds less than a binary merge free and must
    # wait for the sort's frames instead of failing.
    m = Machine(block_size=64, memory_blocks=64, num_disks=4)
    rng = np.random.default_rng(7)
    sort_values = rng.integers(0, 1 << 62, 60_000, dtype=np.int64)
    pipe_values = rng.integers(0, 1 << 62, 30_000, dtype=np.int64)
    sort_stream = FileStream.from_payload(m, sort_values)
    pipe_stream = FileStream.from_payload(m, pipe_values)
    service = QueryService(m)
    service.add_tenant("oltp")
    olap = service.add_tenant("olap")
    sort = service.submit("olap", sort_job(m, sort_stream))
    pipe = service.submit("olap", pipeline_job(
        m, pipe_stream, filter_fn=lambda r: r % 3 != 0,
        map_fn=lambda r: r // 2,
    ))
    service.run()
    assert sort.status == DONE and sort.error is None
    assert pipe.status == DONE and pipe.error is None
    assert np.array_equal(np.array(list(sort.result), dtype=np.int64),
                          np.sort(sort_values))
    expected = np.sort(pipe_values[pipe_values % 3 != 0] // 2)
    assert np.array_equal(np.array(list(pipe.result), dtype=np.int64),
                          expected)
    assert olap.share.in_use == 0
    assert m.budget.in_use == 0


def test_budget_too_small_for_a_binary_merge_fails_at_once():
    m = machine(D=4)
    stream = load(m, int64_data(200, seed=8), "ndarray")
    job = merge_sort_steps(m, stream, budget=MemoryBudget(2 * m.B))
    with pytest.raises(ConfigurationError):
        drive(m, job)

    # Stepped by hand: every yield up to the error is a read, never a
    # bare checkpoint waiting for frames nobody else holds.
    job = merge_sort_steps(m, stream, budget=MemoryBudget(2 * m.B))
    payloads = None
    with pytest.raises(ConfigurationError):
        while True:
            intent = job.send(payloads)
            assert intent is not None
            payloads = fulfill(m, intent)
