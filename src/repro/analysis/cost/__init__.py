"""EM-cost: symbolic I/O-complexity inference and bound certification.

The EM200-series tier sits between the per-line rules (EM001-EM007) and
the dynamic sanitizer envelope: it *statically* derives a symbolic I/O
cost for every ``@io_bound``-decorated algorithm by composing
per-statement transfer counts through loop nests and callee summaries,
then certifies the declared bound (the theory callable and the docstring
form) against the inferred expression.

The checks run inside the one ``emlint`` pass
(:func:`repro.analysis.emlint.lint_sources`); pass it a ``report`` dict
(``emlint --cost-report FILE``) to get the inferred/declared expression
table, for cross-checking sanitizer envelopes.
"""

from .expr import Cost, Term, render

__all__ = [
    "Cost",
    "Term",
    "render",
]
