"""Test-suite configuration.

Hypothesis runs derandomized so the suite is fully deterministic: the
simulated disk already makes every I/O count exact, and fixed example
generation extends that reproducibility to the property-based tests.

``tree_lint`` lints ``src/repro`` once per session with every emlint
tier; each tier's tree gates filter its findings by rule id.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "emkit",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("emkit")


SRC_TREE = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(scope="session")
def tree_lint():
    """One all-tier emlint pass over ``src/repro``: (findings, the cost
    report of every ``@io_bound`` function)."""
    from repro.analysis import lint_paths

    report = {}
    findings = lint_paths([str(SRC_TREE)], report=report)
    return findings, report
