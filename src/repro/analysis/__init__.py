"""EM-lint: static and dynamic I/O-model compliance tooling.

The library's contract is that every algorithm pays for its work in
block transfers through :class:`~repro.core.machine.Machine` and never
holds more than ``M`` records in internal memory.  This package checks
that contract from two sides:

* :mod:`repro.analysis.emlint` — an AST-based linter (rules EM001–EM007)
  that flags code which could bypass the model: unbounded stream
  materialization, raw file I/O, undeclared bounds, whole-dataset
  in-memory sorts, unbudgeted accumulation, and private machinery
  construction.  Legitimate in-memory steps are *documented*, not
  invisible, via ``# em: ok(<rule>) <reason>`` waiver comments.
* :mod:`repro.analysis.flow` — the whole-program side (rules
  EM101–EM105): per-function CFGs with exception edges, a project call
  graph with stream/budget taint summaries, and a fixpoint that catches
  budget leaks, nested full scans, cross-call stream materialization,
  unguarded reservations and machine aliasing, with SARIF 2.1.0 output
  and a CI baseline workflow.  :mod:`repro.analysis.cost` (EM201–EM205,
  symbolic I/O-cost certification) and :mod:`repro.analysis.state`
  (EM301–EM306, resource typestate) run on the same project build.
* :mod:`repro.analysis.sanitizer` — an :func:`io_bound` decorator
  registry turning the survey's fundamental-bounds table into an
  executable contract: with ``REPRO_IO_SANITIZE=1`` every decorated
  algorithm asserts measured I/Os ≤ c·theory and reports
  measured-vs-theory ratios.

Run the linter with ``python tools/emlint.py src/repro`` (or the
``emlint`` console script): one pass checks every tier.
"""

from .emlint import Finding, Waiver, lint_paths, lint_sources, unwaived
from .flow import to_sarif, write_baseline
from .rules import ALL_RULES, FLOW_RULES, RULES
from .sanitizer import (
    IOBoundViolation,
    SanitizerRecord,
    clear_records,
    io_bound,
    records,
    registry,
    sanitize_enabled,
    sanitizer_report,
    sized,
)

__all__ = [
    "Finding",
    "Waiver",
    "ALL_RULES",
    "RULES",
    "FLOW_RULES",
    "lint_paths",
    "lint_sources",
    "to_sarif",
    "unwaived",
    "write_baseline",
    "IOBoundViolation",
    "SanitizerRecord",
    "io_bound",
    "registry",
    "records",
    "clear_records",
    "sanitize_enabled",
    "sanitizer_report",
    "sized",
]
