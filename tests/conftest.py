import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from spherediv import divisibility

sys.path.insert(0, str(Path(__file__).parent))

# CI runs with HYPOTHESIS_PROFILE=ci, so a failing example there reproduces
# on every rerun; local runs keep hypothesis's random exploration
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

collected_reports = []


def _collect(report):
    collected_reports.append(report)


@pytest.fixture(scope="session", autouse=True)
def certificate_soundness_gate():
    """Suite-wide gate: no report may claim divisibility without a passing residual.

    Every DivisibilityReport produced anywhere in the suite is collected; at
    teardown, each one with a divisible verdict must carry a verified
    residual of at most 1e-8.
    """
    divisibility.report_hooks.append(_collect)
    yield
    divisibility.report_hooks.remove(_collect)
    offenders = [
        rep
        for rep in collected_reports
        if rep.divisible
        and (
            rep.verification is None
            or not rep.verification.passed
            or rep.verification.max_residual > 1e-8
        )
    ]
    assert not offenders, (
        f"{len(offenders)} divisible verdict(s) lack a passing residual <= 1e-8"
    )
