"""Outside-in instrumentation: wrap the library's public entry points.

:class:`Instrumentation` replaces entry points on the library's modules
and classes with wrappers that open a :class:`~tracer.Tracer` span per
call (or per ``next()``/``send()`` for entry points that return a
generator), and restores the originals on :meth:`Instrumentation.remove`.
Functions are patched in the namespace they are *looked up* in (e.g.
``read_ahead`` inside ``repro.core.stream``), so calls made inside the
library are caught too.

Layer names follow the repository's modules:

========================  =============================================
``sort.runs``             run formation (``form_runs_load_sort``)
``sort.merge``            merge passes, ``merge_streams``, ``BlockMerger``
``sort.steps``            cooperative sort engines behind service jobs
                          (``merge_sort_steps``, ``pipeline_sort_steps``)
``pipeline.sorter``       push/pull ``Sorter``
``relational.join``       ``sort_merge_join`` (incl. its merge-join loop)
``stream``                ``FileStream``/``StripedStream`` block I/O calls
``runtime.scheduler``     ``IOScheduler`` waves, ``Runtime`` reads
``runtime.writebehind``   ``WriteBehind``
``runtime.prefetch``      ``read_ahead``, ``ForecastingPrefetcher``
``cache.pool``            ``BufferPool``
``disk``                  ``DiskArray``/``FileDiskArray`` transfers
``service``               ``QueryService.run`` (the scheduling loop)
``search.btree``          ``BPlusTree.lookup_steps``
========================  =============================================
"""

from __future__ import annotations

import functools

from tracer import TimedIter, Tracer


def _span(tracer: Tracer, name: str, fn, lazy: bool = False,
          count: str = None, on_call=None):
    """Wrap ``fn`` in a span.  ``lazy`` additionally wraps the returned
    iterator so each of its steps is a span of the same layer;
    ``count`` counts the iterator's items; ``on_call`` sees the
    arguments and result of every call (for counters), inside the span
    so that counting cost lands on the layer it measures."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, result)
        finally:
            tracer.exit()
        if lazy:
            return TimedIter(tracer, name, result, count)
        return result

    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    """Wrap a generator function so its items are counted (no span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tracer.counts[key] += 1
            yield item

    return wrapper


class Instrumentation:
    """Installs the wrappers on construction; :meth:`remove` undoes them.

    Args:
        tracer: the span recorder every wrapper reports to.
        file_backend: whether the workload's device is a real file (the
            serialized bytes are then counted at ``encode_block``).
    """

    def __init__(self, tracer: Tracer, file_backend: bool):
        self.tracer = tracer
        self._saved = []
        self._install(file_backend)

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrap) -> None:
        """Replace ``owner.attr`` (a module attribute, a class's own
        attribute, or a dict entry) with ``wrap(original)``.  Missing
        attributes are skipped, so a later refactor of the library
        drops a span instead of breaking the benchmark."""
        if isinstance(owner, dict):
            if attr not in owner:
                return
            original = owner[attr]
            owner[attr] = wrap(original)
        else:
            if attr not in vars(owner):
                return
            original = vars(owner)[attr]
            setattr(owner, attr, wrap(original))
        self._saved.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved = []

    # ------------------------------------------------------------------
    def _install(self, file_backend: bool) -> None:
        import repro.core.cache as cache
        import repro.core.disk as disk
        import repro.core.filedisk as filedisk
        import repro.core.stream as stream
        import repro.pipeline.sorter as sorter
        import repro.pipeline.steps as pipeline_steps
        import repro.relational.joins as joins
        import repro.runtime as runtime
        import repro.runtime.prefetch as prefetch
        import repro.runtime.scheduler as scheduler
        import repro.runtime.writebehind as writebehind
        import repro.search.btree as btree
        import repro.service.jobs as jobs
        import repro.service.service as service
        import repro.sort.merge as merge

        tracer = self.tracer
        patch = self._patch

        def span(name, **options):
            return lambda fn: _span(tracer, name, fn, **options)

        # sort kernel
        patch(merge.RUN_STRATEGIES, "load", span("sort.runs"))
        for owner in (merge, sorter):
            patch(owner, "merge_pass", span("sort.merge"))
        patch(merge, "merge_streams", span("sort.merge"))
        patch(merge.BlockMerger, "blocks", span("sort.merge", lazy=True))
        patch(merge.BlockMerger, "records", span("sort.merge", lazy=True))
        # A chunk is one batch merge round (or one galloping segment).
        patch(merge.BlockMerger, "_rounds",
              lambda fn: _counted(tracer, "sort.merge.chunks", fn))
        patch(merge.BlockMerger, "segments",
              lambda fn: _counted(tracer, "sort.merge.chunks", fn))

        # cooperative engines driven by the service
        patch(jobs, "merge_sort_steps", span("sort.steps", lazy=True))
        patch(pipeline_steps, "pipeline_sort_steps",
              span("sort.steps", lazy=True))

        # pipeline / relational
        patch(sorter.Sorter, "consume", span("pipeline.sorter"))
        patch(sorter.Sorter, "finish", span("pipeline.sorter", lazy=True))
        patch(sorter.Sorter, "close", span("pipeline.sorter"))
        patch(joins, "sort_merge_join", span("relational.join"))

        # streams
        def counted_finalize(fn):
            @functools.wraps(fn)
            def wrapper(self, *args, **kwargs):
                fresh = not self.is_finalized
                tracer.enter("stream")
                try:
                    return fn(self, *args, **kwargs)
                finally:
                    tracer.exit()
                    if fresh:
                        tracer.counts["stream.blocks_appended"] += \
                            self.num_blocks
            return wrapper

        def ranged(args, result):
            tracer.counts["stream.blocks_read"] += args[2] - args[1]

        def one_block(args, result):
            tracer.counts["stream.blocks_read"] += 1

        for cls in (stream.FileStream, stream.StripedStream):
            for attr in ("append", "append_block", "append_blocks",
                         "delete"):
                patch(cls, attr, span("stream"))
        # Blocks read are counted where FileStream readers get them
        # (read_ahead below), and at the two random-access reads.
        patch(stream.FileStream, "iter_blocks", span("stream", lazy=True))
        # StripedStream.finalize calls FileStream.finalize first, so
        # counting in the base method counts every stream once.
        patch(stream.FileStream, "finalize", counted_finalize)
        patch(stream.StripedStream, "finalize", span("stream"))
        patch(stream.FileStream, "read_block",
              span("stream", on_call=one_block))
        patch(stream.FileStream, "read_block_range",
              span("stream", on_call=ranged))

        # runtime
        patch(stream, "read_ahead", span(
            "runtime.prefetch", lazy=True, count="stream.blocks_read"))
        for attr in ("block_reader", "reader", "close"):
            lazy = attr != "close"
            patch(prefetch.ForecastingPrefetcher, attr,
                  span("runtime.prefetch", lazy=lazy))
        for attr in ("read_batch", "write_batch", "drain"):
            patch(scheduler.IOScheduler, attr, span("runtime.scheduler"))
        for attr in ("read_block", "read_batch", "flush"):
            patch(runtime.Runtime, attr, span("runtime.scheduler"))
        for attr in ("put", "put_batch", "flush", "discard"):
            patch(writebehind.WriteBehind, attr,
                  span("runtime.writebehind"))

        # buffer pool
        def reclaimed(args, result):
            tracer.counts["cache.pool.reclaims"] += 1

        for attr in ("get", "get_many", "put_new", "flush", "flush_all",
                     "drop", "invalidate"):
            patch(cache.BufferPool, attr, span("cache.pool"))
        patch(cache.BufferPool, "reclaim",
              span("cache.pool", on_call=reclaimed))

        # device
        def waved(args, result):
            tracer.counts["runtime.scheduler.waves"] += 1
            tracer.counts["runtime.scheduler.wave_blocks"] += len(args[1])

        def payload_bytes(payload) -> int:
            # The memory store keeps the payload object itself: a typed
            # block counts its buffer, an object block one 8-byte
            # reference per record.
            nbytes = getattr(payload, "nbytes", None)
            return nbytes if nbytes is not None else 8 * len(payload)

        def wrote_one(args, result):
            if not file_backend:
                tracer.counts["disk.bytes_written"] += \
                    payload_bytes(args[2])

        def wrote_many(args, result):
            waved(args, result)
            if not file_backend:
                tracer.counts["disk.bytes_written"] += sum(
                    payload_bytes(records) for _, records in args[1])

        patch(disk.DiskArray, "read", span("disk"))
        patch(disk.DiskArray, "write", span("disk", on_call=wrote_one))
        patch(disk.DiskArray, "parallel_read", span("disk", on_call=waved))
        patch(disk.DiskArray, "parallel_write",
              span("disk", on_call=wrote_many))
        if file_backend:
            def encoded(args, result):
                tracer.counts["disk.bytes_written"] += len(result)

            # Only FileDiskArray._store serializes through this name.
            patch(filedisk, "encode_block", lambda fn: _span(
                tracer, "disk", fn, on_call=encoded))

        # service and search
        patch(service.QueryService, "run", span("service"))
        patch(service.QueryService, "submit", span("service"))
        patch(btree.BPlusTree, "lookup_steps",
              span("search.btree", lazy=True))
