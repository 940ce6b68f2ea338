"""Shared fixtures for the benchmark harness.

Every ``bench_*`` module regenerates one table/figure of the paper via
``repro.experiments`` (model-based figures run at full paper scale; the
numeric accuracy tables run at library scale) and asserts the paper's
qualitative structure on the result, so ``pytest benchmarks/
--benchmark-only`` doubles as the reproduction gate.

The whole benchmark session runs under a telemetry collector
(:mod:`repro.obs`) and writes a phase-resolved run manifest under
``runs/`` at session end — each ``run_experiment`` call contributes an
``experiment.<name>`` root span — so each session's figures come with
a per-phase timeline.  Set
``REPRO_OBS=0`` to disable, or ``REPRO_RUNS_DIR`` to redirect the
output directory.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)


@pytest.fixture(scope="session", autouse=True)
def bench_telemetry():
    """Collect spans for the whole benchmark session → runs/ manifest."""
    if os.environ.get("REPRO_OBS", "1") == "0":
        yield None
        return
    with obs.collect() as session:
        yield session
    path = obs.write_manifest(
        session,
        run_dir=os.environ.get("REPRO_RUNS_DIR", "runs"),
        label="bench",
        events="none",
    )
    print(f"\ntelemetry manifest written: {path}")
