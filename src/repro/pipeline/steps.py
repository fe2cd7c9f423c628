"""Cooperative pipelined sort: the service's fused scan → filter → map
→ sort job.

There is one cooperative sort, :func:`~repro.sort.steps.merge_sort_steps`;
its ``filter_fn`` and ``map_fn`` stages run inside run formation, so
transformed records go straight into the sorted runs and the job skips
the ``2·(N/DB)`` I/Os the materialized idiom would spend writing and
re-reading the transformed intermediate stream.  This module exports
it under the pipeline name :func:`pipeline_sort_steps` (the same
function object), which :func:`repro.service.jobs.pipeline_job` looks
up.

The final merge still lands in an output stream (a cooperative job's
result must outlive its generator), so the savings here are the *input*
boundary; the in-process :class:`~repro.pipeline.sorter.Sorter` also
elides the output one.
"""

from ..sort.steps import merge_sort_steps as pipeline_sort_steps

__all__ = ["pipeline_sort_steps"]
