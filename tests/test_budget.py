"""Wall-clock budget guards: structured BudgetExceededError from solvers.

Time is injected through the telemetry clock (``collect(clock=...)``), so
every test is deterministic — no real sleeps, no flaky timing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eig.budget import WallClockBudget
from repro.eig.qliter import tridiag_eig_ql
from repro.errors import BudgetExceededError, ConfigurationError, ConvergenceError
from repro.obs import spans as obs


class FakeClock:
    """Each read advances one second: any budget < 1 s trips immediately."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


@pytest.fixture
def tridiag(rng):
    d = rng.standard_normal(24)
    e = rng.standard_normal(23)
    return d, e


class TestWallClockBudget:
    def test_none_budget_is_inert(self):
        budget = WallClockBudget(None, phase="x")
        assert not budget.active
        assert budget.elapsed() == 0.0
        budget.check(iterations=10**9)  # never raises

    def test_rejects_nonpositive_budget(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="max_seconds"):
                WallClockBudget(bad, phase="x")

    def test_error_carries_full_context(self):
        with obs.collect(clock=FakeClock()):
            budget = WallClockBudget(0.5, phase="test_phase")
            with pytest.raises(BudgetExceededError) as ei:
                budget.check(iterations=3)
        err = ei.value
        assert isinstance(err, ConvergenceError)  # existing handlers still work
        assert err.phase == "test_phase"
        assert err.iterations == 3
        assert err.budget == 0.5 and err.elapsed > 0.5
        assert "wall-clock budget" in str(err)

    def test_generous_budget_never_trips(self):
        with obs.collect(clock=FakeClock(step=1e-9)):
            budget = WallClockBudget(60.0, phase="x")
            for its in range(1000):
                budget.check(iterations=its)
            assert not budget.expired


class TestSolverBudgets:
    def test_solvers_unaffected_without_budget(self, tridiag):
        d, e = tridiag
        lam, z = tridiag_eig_ql(d, e)
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(t), atol=1e-10)
        np.testing.assert_allclose(z @ np.diag(lam) @ z.T, t, atol=1e-10)


class TestBudgetDeadlineApi:
    """remaining() / expired / until() — the serving layer's SLO hooks."""

    def test_remaining_counts_down_and_clamps(self):
        clk = FakeClock(step=1.0)
        with obs.collect(clock=clk):
            budget = WallClockBudget(5.0, phase="x")
            first = budget.remaining()
            assert first is not None and first <= 5.0
            for _ in range(10):
                clk()
            assert budget.remaining() == 0.0
            assert budget.expired

    def test_inactive_budget_has_no_remaining(self):
        budget = WallClockBudget(None, phase="x")
        assert budget.remaining() is None
        assert not budget.expired

    def test_until_none_is_disabled(self):
        budget = WallClockBudget.until(None, phase="x")
        assert not budget.active

    def test_until_future_deadline(self):
        with obs.collect(clock=FakeClock(step=0.0)):
            t0 = obs.now()
            budget = WallClockBudget.until(t0 + 30.0, phase="x")
            assert budget.active
            assert budget.max_seconds == pytest.approx(30.0)

    def test_until_past_deadline_trips_first_check(self):
        clk = FakeClock(step=1.0)
        with obs.collect(clock=clk):
            budget = WallClockBudget.until(obs.now() - 10.0, phase="x")
            with pytest.raises(BudgetExceededError):
                budget.check(iterations=0)
