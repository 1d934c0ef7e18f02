"""Suite-wide configuration.

Two process-wide knobs select which engine paths the suite exercises
end to end (the CI matrix legs):

* ``REPRO_EXEC=tuple`` runs the tuple-at-a-time join oracle instead of
  the default set-at-a-time ``batch`` path
  (:data:`repro.config.DEFAULT_EXEC`).
* ``REPRO_BACKEND=sqlite`` stores every default-constructed fact store
  out of core in SQLite instead of the in-process ``dict`` backend
  (:data:`repro.config.DEFAULT_BACKEND`).
* ``REPRO_JOIN=wcoj`` runs the worst-case-optimal leapfrog triejoin on
  every eligible rule body instead of the ``auto`` planner default
  (:data:`repro.config.DEFAULT_JOIN`).

All defaults are read when :mod:`repro.config` is imported and become
``EngineConfig()``'s field defaults, which every seam falls back to, so
no test needs to thread the knobs explicitly.
"""

import os

import pytest

# A typo'd REPRO_EXEC / REPRO_BACKEND / REPRO_JOIN fails these imports
# (the values are validated where the defaults are read), so the whole
# session aborts with one clear error before any test runs.
from repro.config import DEFAULT_BACKEND, DEFAULT_EXEC, DEFAULT_JOIN


def pytest_report_header(config):
    exec_source = "REPRO_EXEC" if os.environ.get("REPRO_EXEC") else "default"
    backend_source = (
        "REPRO_BACKEND" if os.environ.get("REPRO_BACKEND") else "default"
    )
    join_source = "REPRO_JOIN" if os.environ.get("REPRO_JOIN") else "default"
    return (
        f"repro join exec mode: {DEFAULT_EXEC} ({exec_source}); "
        f"fact-store backend: {DEFAULT_BACKEND} ({backend_source}); "
        f"join algo: {DEFAULT_JOIN} ({join_source})"
    )


@pytest.fixture(scope="session")
def exec_mode() -> str:
    """The execution model this test session runs under."""
    return DEFAULT_EXEC


@pytest.fixture(scope="session")
def backend() -> str:
    """The fact-store backend this test session runs under."""
    return DEFAULT_BACKEND


@pytest.fixture(scope="session")
def join_algo() -> str:
    """The default join algorithm this test session runs under."""
    return DEFAULT_JOIN
