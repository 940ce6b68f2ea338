"""The WY panel step's snapshot restores the exact pre-step state.

``sbr.wy._snapshot_step`` saves only the step's ``b``-column strip of
``A`` and restores the trailing matrix from the block's ``OA``, relying
on the deferred update having left ``A[i+b:, i+b:] == OA[r:, r:]``.
Every kind of step is run, rolled back with the restorer, and compared
bitwise with the state it started from, then rolled forward again so the
reduction carries on unchanged.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.gemm.engine import make_engine
from repro.resilience import ResilienceContext
from repro.sbr.wy import sbr_wy

wy = importlib.import_module("repro.sbr.wy")


def _sym(n, seed=0):
    x = np.random.default_rng(seed).standard_normal((n, n))
    return (x + x.T) / 2


def _kind(*, r, n, j0, b, nb, resumed):
    """The step's kind, as ``_panel_step`` branches on it."""
    m = n - j0 - r - b
    if resumed:
        return "resumed"
    if m <= b + 1:
        return "narrow_tail" if m < b else "tail"
    if r + b >= nb:
        return "block_end"
    return "block_first" if r == 0 else "advance"


def _check_every_restore(monkeypatch):
    """Wrap the step: after it runs, restore, compare, then roll forward.

    Returns the list of step kinds checked.
    """
    real_snapshot, real_step = wy._snapshot_step, wy._panel_step
    taken = []  # (A, st.k, restorer) when run_unit took the snapshot
    kinds = []

    def snapshot(A, OA, st, i, r, b):
        restore = real_snapshot(A, OA, st, i, r, b)
        taken.append((A.copy(), st.k, restore))
        return restore

    def step(A, OA, st, eng, ctx, ws, **kw):
        # A step after a resume starts at an r the loop did not reach.
        resumed = not kinds and kw["r"] > 0
        status = real_step(A, OA, st, eng, ctx, ws, **kw)
        before, k, restore = taken.pop()
        after, k_after = A.copy(), st.k
        restored = restore()
        assert A.tobytes() == before.tobytes()
        assert st.k == k
        i = kw["j0"] + kw["r"]
        assert np.shares_memory(restored, A)
        assert restored.tobytes() == before[i:, i:].tobytes()
        A[...] = after  # roll forward: the run continues as it would have
        st.k = k_after
        kinds.append(_kind(r=kw["r"], n=kw["n"], j0=kw["j0"], b=kw["b"],
                           nb=kw["nb"], resumed=resumed))
        return status

    monkeypatch.setattr(wy, "_snapshot_step", snapshot)
    monkeypatch.setattr(wy, "_panel_step", step)
    return kinds


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
@pytest.mark.parametrize("n,b,nb,want", [
    # Two full blocks then a full-width tail panel (m = b).
    (96, 8, 32, {"block_first", "advance", "block_end", "tail"}),
    # Ends on a narrow tail panel: m = 4 < b.
    (100, 8, 24, {"block_first", "advance", "block_end", "narrow_tail"}),
])
def test_restore_gives_back_the_pre_step_state(monkeypatch, precision, n, b,
                                               nb, want):
    a = _sym(n, seed=n)
    ref = sbr_wy(a, b, nb, engine=make_engine(precision),
                 resilience=ResilienceContext())
    kinds = _check_every_restore(monkeypatch)
    got = sbr_wy(a, b, nb, engine=make_engine(precision),
                 resilience=ResilienceContext())
    assert set(kinds) == want
    # Rolling back and forward again left the reduction as it was.
    assert got.band.tobytes() == ref.band.tobytes()
    assert got.q.tobytes() == ref.q.tobytes()


def test_restore_after_a_mid_block_resume(monkeypatch, tmp_path):
    from repro.ckpt import CheckpointConfig, CheckpointManager
    from repro.errors import SimulatedCrashError
    from repro.resilience.crash import CrashFaultSpec, CrashInjector

    a = _sym(96, seed=1)
    crash = CrashInjector(CrashFaultSpec(site="ckpt.save.sbr_panel.post",
                                         call_index=1))
    first = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path), crash=crash))
    first.begin(a, {"driver": "t"})
    with pytest.raises(SimulatedCrashError):
        sbr_wy(a, 8, 32, engine=make_engine("fp32"), checkpoint=first)
    kinds = _check_every_restore(monkeypatch)
    again = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path)))
    # No resilience context: the interrupt flush alone makes run_unit
    # take the snapshot.
    sbr_wy(a, 8, 32, engine=make_engine("fp32"), checkpoint=again)
    assert again.report.resumed_from is not None
    assert kinds[0] == "resumed"
    assert {"advance", "block_end", "block_first", "tail"} <= set(kinds)
