"""Checkpoint/restart subsystem: atomic IO, ABFT, store, crash recovery.

The recovery tests are the acceptance criteria of the subsystem: a run
killed at *every* phase boundary (mid-SBR-panel, post-band, post-bulge,
post-D&C, pre-result) must resume to a bitwise-identical result
(:func:`repro.ckpt.result_digest` equality), and a torn or
checksum-violating checkpoint must surface as a structured
:class:`repro.errors.CheckpointCorruptionError` naming file and field —
never as silently wrong numbers.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.ckpt import (
    CheckpointConfig,
    CheckpointManager,
    abft_signature,
    resume,
    result_digest,
    verify_abft,
)
from repro.eig.driver import syevd_2stage
from repro.errors import (
    CheckpointCorruptionError,
    CheckpointSchemaError,
    ConfigurationError,
    SimulatedCrashError,
)
from repro.ioutils import (
    atomic_write_bytes,
    atomic_write_json,
    file_crc32,
    sweep_orphans,
)
from repro.resilience import FaultInjector, FaultSpec
from repro.resilience.crash import CrashFaultSpec, CrashInjector, parse_kill_site

from conftest import random_symmetric


def small_problem(n=48, seed=7, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return random_symmetric(n, rng, dtype=dtype)


# ---------------------------------------------------------------------------
# Atomic IO primitives
# ---------------------------------------------------------------------------


class TestAtomicIO:
    def test_atomic_write_replaces_complete_file(self, tmp_path):
        p = str(tmp_path / "x.bin")
        atomic_write_bytes(p, b"one")
        atomic_write_bytes(p, b"two-longer")
        with open(p, "rb") as fh:
            assert fh.read() == b"two-longer"
        assert not [n for n in os.listdir(tmp_path) if ".tmp-" in n]

    def test_atomic_write_json_rejects_before_touching_disk(self, tmp_path):
        p = str(tmp_path / "x.json")
        atomic_write_json(p, {"ok": 1})
        with pytest.raises(TypeError):
            atomic_write_json(p, {"bad": object()})
        with open(p) as fh:
            assert json.load(fh) == {"ok": 1}

    def test_sweep_orphans_removes_only_tmp_files(self, tmp_path):
        keep = tmp_path / "ckpt-000000-band.json"
        keep.write_text("{}")
        orphan = tmp_path / "ckpt-000001-band.npz.tmp-abc123"
        orphan.write_bytes(b"partial")
        removed = sweep_orphans(str(tmp_path))
        assert removed == [str(orphan)]
        assert keep.exists() and not orphan.exists()

    def test_file_crc32_detects_any_byte_change(self, tmp_path):
        p = str(tmp_path / "x.bin")
        atomic_write_bytes(p, b"payload bytes")
        before = file_crc32(p)
        with open(p, "r+b") as fh:
            fh.seek(3)
            fh.write(b"X")
        assert file_crc32(p) != before


# ---------------------------------------------------------------------------
# ABFT signatures
# ---------------------------------------------------------------------------


class TestAbft:
    def test_roundtrip_passes(self, rng):
        a = rng.standard_normal((9, 5)).astype(np.float32)
        verify_abft("a", a, abft_signature(a))

    def test_detects_single_element_corruption(self, rng):
        a = rng.standard_normal((8, 8))
        sig = abft_signature(a)
        bad = a.copy()
        bad[3, 4] += 1e-9
        with pytest.raises(CheckpointCorruptionError) as ei:
            verify_abft("w", bad, sig, path="/run/x.npz")
        assert ei.value.reason == "abft"
        assert ei.value.path == "/run/x.npz"
        assert ei.value.field.startswith("abft:w")

    def test_detects_shape_and_dtype_changes(self, rng):
        a = rng.standard_normal((6, 4))
        sig = abft_signature(a)
        with pytest.raises(CheckpointCorruptionError, match="shape"):
            verify_abft("a", a[:5], sig)
        with pytest.raises(CheckpointCorruptionError, match="dtype"):
            verify_abft("a", a.astype(np.float32), sig)

    def test_1d_arrays_signed_too(self, rng):
        d = rng.standard_normal(17)
        sig = abft_signature(d)
        verify_abft("d", d, sig)
        bad = d.copy()
        bad[0] = -bad[0]
        with pytest.raises(CheckpointCorruptionError):
            verify_abft("d", bad, sig)

    def test_catches_silent_payload_patch_behind_valid_file_crc(self, tmp_path):
        """ABFT is independent of the file CRC: rewrite the payload with a
        perturbed array *and* a matching CRC in the commit record — the
        per-array signature still flags it."""
        a = small_problem(24)
        mgr = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path)))
        mgr.begin(a, {"driver": "t"})
        w = np.arange(12.0).reshape(3, 4)
        meta_path = mgr.save("band", arrays={"w": w}, scalars={})
        npz_path = meta_path[:-len(".json")] + ".npz"
        patched = w.copy()
        patched[1, 2] += 1.0
        import io as _io

        buf = _io.BytesIO()
        np.savez(buf, w=patched)
        atomic_write_bytes(npz_path, buf.getvalue())
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["crc"] = file_crc32(npz_path)  # attacker fixes the CRC too
        atomic_write_json(meta_path, meta, indent=1)
        with pytest.raises(CheckpointCorruptionError) as ei:
            mgr.load_path(meta_path)
        assert ei.value.reason == "abft"


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


class TestStore:
    def test_save_load_roundtrip_exact_bits(self, tmp_path, rng):
        a = small_problem(16)
        mgr = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path)))
        mgr.begin(a, {"driver": "t", "n": 16})
        w = rng.standard_normal((5, 3)).astype(np.float32)
        mgr.save("band", arrays={"w": w, "skip": None},
                 scalars={"panel_index": 4, "norm": 1.25})
        ck = mgr.phase("band")
        assert ck is not None
        assert ck.step == "band" and ck.scalars["panel_index"] == 4
        assert ck.arrays["w"].tobytes() == w.tobytes()
        assert "skip" not in ck.arrays  # None-valued arrays are dropped

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(run_dir=str(tmp_path), every=0)
        with pytest.raises(ConfigurationError):
            CheckpointConfig(run_dir=str(tmp_path), keep_panels=0)

    def test_begin_refuses_different_config(self, tmp_path):
        a = small_problem(16)
        mgr = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path)))
        mgr.begin(a, {"driver": "t", "b": 4})
        mgr2 = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path)))
        with pytest.raises(ConfigurationError, match="differs"):
            mgr2.begin(a, {"driver": "t", "b": 8})

    def test_begin_refuses_different_input_matrix(self, tmp_path):
        a = small_problem(16)
        mgr = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path)))
        mgr.begin(a, {"driver": "t"})
        other = a.copy()
        other[0, 0] += 1.0
        mgr2 = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path)))
        with pytest.raises(CheckpointCorruptionError):
            mgr2.begin(other, {"driver": "t"})

    def test_torn_payload_raises_with_context(self, tmp_path, rng):
        mgr = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path)))
        mgr.begin(small_problem(16), {"driver": "t"})
        meta_path = mgr.save("band", arrays={"w": rng.standard_normal((8, 8))})
        npz_path = meta_path[:-len(".json")] + ".npz"
        size = os.path.getsize(npz_path)
        with open(npz_path, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(CheckpointCorruptionError) as ei:
            mgr.load_path(meta_path)
        assert ei.value.reason == "torn"
        assert ei.value.path == npz_path
        assert ei.value.field == "crc"

    def test_stale_schema_raises_schema_error(self, tmp_path, rng):
        mgr = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path)))
        mgr.begin(small_problem(16), {"driver": "t"})
        meta_path = mgr.save("band", arrays={"w": rng.standard_normal(4)})
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["schema"] = 99
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(CheckpointSchemaError) as ei:
            mgr.load_path(meta_path)
        assert ei.value.reason == "schema" and ei.value.field == "schema"
        assert isinstance(ei.value, CheckpointCorruptionError)

    def test_missing_commit_record_means_no_checkpoint(self, tmp_path, rng):
        """An orphan payload without its commit record is invisible — the
        commit record *is* the commit point."""
        mgr = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path)))
        mgr.begin(small_problem(16), {"driver": "t"})
        meta_path = mgr.save("band", arrays={"w": rng.standard_normal(4)})
        os.unlink(meta_path)
        assert mgr.phase("band") is None

    def test_nonstrict_latest_falls_back_and_records_skip(self, tmp_path, rng):
        cfg = CheckpointConfig(run_dir=str(tmp_path), strict=False)
        mgr = CheckpointManager(cfg)
        mgr.begin(small_problem(16), {"driver": "t"})
        mgr.save("band", arrays={"w": np.ones(3)}, scalars={"gen": 1})
        newer = mgr.save("band", arrays={"w": np.ones(3)}, scalars={"gen": 2})
        npz = newer[:-len(".json")] + ".npz"
        with open(npz, "r+b") as fh:
            fh.truncate(os.path.getsize(npz) // 2)
        ck = mgr.latest(steps=("band",))
        assert ck is not None and ck.scalars["gen"] == 1
        assert len(mgr.report.skipped_corrupt) == 1
        assert mgr.report.skipped_corrupt[0]["path"] == newer

    def test_panel_pruning_keeps_newest(self, tmp_path, rng):
        cfg = CheckpointConfig(run_dir=str(tmp_path), keep_panels=2)
        mgr = CheckpointManager(cfg)
        mgr.begin(small_problem(16), {"driver": "t"})
        for i in range(5):
            mgr.save("sbr_panel", arrays={"a": np.full(2, float(i))},
                     scalars={"panel_index": i})
        kept = [s for _seq, s, _p in mgr.list() if s == "sbr_panel"]
        assert len(kept) == 2
        assert mgr.phase("sbr_panel").scalars["panel_index"] == 4


# ---------------------------------------------------------------------------
# Crash injector
# ---------------------------------------------------------------------------


class TestCrashInjector:
    def test_fires_at_site_and_index_once(self):
        inj = CrashInjector(CrashFaultSpec(site="ckpt.save.band.post", call_index=1))
        inj.fire("ckpt.save.band.pre")        # different site: no-op
        inj.fire("ckpt.save.band.post")       # index 0: no-op
        with pytest.raises(SimulatedCrashError) as ei:
            inj.fire("ckpt.save.band.post")   # index 1: fires
        assert ei.value.site == "ckpt.save.band.post" and ei.value.kind == "kill"
        inj.fire("ckpt.save.band.post")       # count exhausted: no-op
        assert len(inj.fired) == 1

    def test_glob_site_patterns(self):
        inj = CrashInjector(CrashFaultSpec(site="ckpt.save.*.pre"))
        with pytest.raises(SimulatedCrashError):
            inj.fire("ckpt.save.tridiag.pre")

    def test_parse_kill_site(self):
        spec = parse_kill_site("ckpt.save.band.post:2:torn_write")
        assert (spec.site, spec.call_index, spec.kind) == (
            "ckpt.save.band.post", 2, "torn_write")
        assert parse_kill_site("x").kind == "kill"
        with pytest.raises(ValueError):
            parse_kill_site("x:0:bitrot")

    def test_rejects_unknown_kind_and_bad_fraction(self):
        with pytest.raises(ValueError, match="crash kind"):
            CrashFaultSpec(site="x", kind="meteor")
        with pytest.raises(ValueError, match="truncate_fraction"):
            CrashFaultSpec(site="x", kind="torn_write", truncate_fraction=1.0)


# ---------------------------------------------------------------------------
# Crash → resume at every phase boundary
# ---------------------------------------------------------------------------

#: (site, call_index) covering every restart point the driver writes:
#: mid-SBR panel stream, post-band, post-bulge (tridiag), post-D&C
#: (trieig), and the instant before the final result is durable.
CRASH_SITES = [
    ("ckpt.save.sbr_panel.post", 1),
    ("ckpt.save.band.post", 0),
    ("ckpt.save.tridiag.post", 0),
    ("ckpt.save.trieig.post", 0),
    ("ckpt.save.result.pre", 0),
]


def reference_digest(a, **kw):
    return result_digest(syevd_2stage(a, **kw))


class TestCrashResume:
    @pytest.mark.parametrize("site,index", CRASH_SITES, ids=[s for s, _ in CRASH_SITES])
    # Stage 2 runs ?sbtrd at n=48, b=4 and ?sytrd + ?orgqr at n=128, b=32.
    @pytest.mark.parametrize("n,b,nb", [(48, 4, 8), (128, 32, 64)],
                             ids=["n48b4", "n128b32"])
    def test_resume_is_bitwise_identical_fp64(self, tmp_path, n, b, nb, site, index):
        a = small_problem(n)
        kw = dict(b=b, nb=nb, precision="fp64", want_vectors=True)
        expected = reference_digest(a, **kw)
        crash = CrashInjector(CrashFaultSpec(site=site, call_index=index))
        cfg = CheckpointConfig(run_dir=str(tmp_path / "run"), crash=crash)
        with pytest.raises(SimulatedCrashError):
            syevd_2stage(a, checkpoint=cfg, **kw)
        res = resume(str(tmp_path / "run"))
        assert res.checkpoint_report.resumed_from is not None
        assert result_digest(res) == expected

    def test_band_checkpoint_keeps_the_blocks_not_q(self, tmp_path):
        a = small_problem(48)
        run_dir = str(tmp_path / "run")
        res = syevd_2stage(a, b=4, nb=8, checkpoint=run_dir)
        assert res.sbr.q is None
        band = CheckpointManager(CheckpointConfig(run_dir=run_dir)).phase("band")
        assert "q" not in band.arrays
        assert len(band.scalars["block_offsets"]) == len(res.sbr.blocks) > 0
        again = resume(run_dir)
        assert again.sbr.q is None and len(again.sbr.blocks) == len(res.sbr.blocks)

    def test_resume_mid_sbr_fp32(self, tmp_path):
        a = small_problem(48, dtype=np.float64)
        kw = dict(b=4, nb=8, precision="fp32", want_vectors=True)
        expected = reference_digest(a, **kw)
        crash = CrashInjector(
            CrashFaultSpec(site="ckpt.save.sbr_panel.post", call_index=2))
        with pytest.raises(SimulatedCrashError):
            syevd_2stage(a, checkpoint=CheckpointConfig(
                run_dir=str(tmp_path / "run"), crash=crash), **kw)
        res = resume(str(tmp_path / "run"))
        assert result_digest(res) == expected
        lam_ref = np.linalg.eigvalsh(a)
        assert np.abs(np.sort(res.eigenvalues) - lam_ref).max() < 1e-3

    def test_resume_zy_method(self, tmp_path):
        a = small_problem(40)
        kw = dict(b=4, method="zy", precision="fp64", want_vectors=True)
        expected = reference_digest(a, **kw)
        crash = CrashInjector(
            CrashFaultSpec(site="ckpt.save.sbr_panel.post", call_index=1))
        with pytest.raises(SimulatedCrashError):
            syevd_2stage(a, checkpoint=CheckpointConfig(
                run_dir=str(tmp_path / "run"), crash=crash), **kw)
        res = resume(str(tmp_path / "run"))
        assert result_digest(res) == expected

    def test_double_kill_then_resume(self, tmp_path):
        """Kill the initial run mid-SBR, kill the first resume at the
        tridiag boundary, and still converge to the reference digest."""
        a = small_problem(48)
        kw = dict(b=4, nb=8, precision="fp64", want_vectors=True)
        expected = reference_digest(a, **kw)
        run_dir = str(tmp_path / "run")
        with pytest.raises(SimulatedCrashError):
            syevd_2stage(a, checkpoint=CheckpointConfig(
                run_dir=run_dir,
                crash=CrashInjector(CrashFaultSpec(
                    site="ckpt.save.sbr_panel.post", call_index=1))), **kw)
        with pytest.raises(SimulatedCrashError):
            resume(run_dir, crash=CrashInjector(
                CrashFaultSpec(site="ckpt.save.tridiag.post")))
        res = resume(run_dir)
        assert result_digest(res) == expected

    def test_resume_completed_run_replays_result(self, tmp_path):
        a = small_problem(32)
        run_dir = str(tmp_path / "run")
        first = syevd_2stage(a, b=4, nb=8, checkpoint=run_dir)
        again = resume(run_dir)
        assert result_digest(again) == result_digest(first)
        assert again.checkpoint_report.saves == 0  # nothing recomputed

    def test_resume_without_vectors(self, tmp_path):
        a = small_problem(32)
        kw = dict(b=4, nb=8, want_vectors=False)
        expected = reference_digest(a, **kw)
        with pytest.raises(SimulatedCrashError):
            syevd_2stage(a, checkpoint=CheckpointConfig(
                run_dir=str(tmp_path / "run"),
                crash=CrashInjector(CrashFaultSpec(site="ckpt.save.band.post"))),
                **kw)
        res = resume(str(tmp_path / "run"))
        assert res.eigenvectors is None
        assert result_digest(res) == expected

    def test_torn_checkpoint_strict_resume_raises(self, tmp_path):
        a = small_problem(48)
        crash = CrashInjector(CrashFaultSpec(
            site="ckpt.save.tridiag.post", kind="torn_write"))
        with pytest.raises(SimulatedCrashError):
            syevd_2stage(a, b=4, nb=8, checkpoint=CheckpointConfig(
                run_dir=str(tmp_path / "run"), crash=crash))
        with pytest.raises(CheckpointCorruptionError) as ei:
            resume(str(tmp_path / "run"))
        assert ei.value.reason == "torn"

    def test_torn_checkpoint_nonstrict_resume_falls_back(self, tmp_path):
        a = small_problem(48)
        kw = dict(b=4, nb=8, want_vectors=True)
        expected = reference_digest(a, **kw)
        crash = CrashInjector(CrashFaultSpec(
            site="ckpt.save.tridiag.post", kind="torn_write"))
        with pytest.raises(SimulatedCrashError):
            syevd_2stage(a, checkpoint=CheckpointConfig(
                run_dir=str(tmp_path / "run"), crash=crash), **kw)
        res = resume(str(tmp_path / "run"), strict=False)
        assert result_digest(res) == expected
        assert len(res.checkpoint_report.skipped_corrupt) == 1

    def test_stale_schema_resume_raises_schema_error(self, tmp_path):
        a = small_problem(48)
        crash = CrashInjector(CrashFaultSpec(
            site="ckpt.save.band.post", kind="stale_schema"))
        with pytest.raises(SimulatedCrashError):
            syevd_2stage(a, b=4, nb=8, checkpoint=CheckpointConfig(
                run_dir=str(tmp_path / "run"), crash=crash))
        with pytest.raises(CheckpointSchemaError):
            resume(str(tmp_path / "run"))

    def test_report_lands_on_result_and_in_manifest_dict(self, tmp_path):
        a = small_problem(32)
        res = syevd_2stage(a, b=4, nb=8, checkpoint=str(tmp_path / "run"))
        rep = res.checkpoint_report
        assert rep is not None and rep.saves >= 4  # band/tridiag/trieig/result
        d = rep.to_dict()
        assert d["run_dir"] == str(tmp_path / "run")
        assert "checkpoint" in rep.summary()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCkptCli:
    def run_cli(self, *argv):
        from repro.ckpt.__main__ import main

        return main(list(argv))

    def test_kill_resume_verify_list_cycle(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        rc = self.run_cli(
            "run", "--run-dir", run_dir, "--n", "32", "--b", "4", "--nb", "8",
            "--kill-at", "ckpt.save.sbr_panel.post:1")
        assert rc == CrashInjector.HARD_EXIT_CODE
        rc = self.run_cli("resume", run_dir)
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed from" in out and "digest" in out
        assert self.run_cli("list", run_dir) == 0
        assert self.run_cli("verify", run_dir) == 0
        listing = capsys.readouterr().out
        assert "result" in listing

    def test_verify_flags_torn_file(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert self.run_cli("run", "--run-dir", run_dir,
                            "--n", "32", "--b", "4", "--nb", "8") == 0
        npz = [n for n in sorted(os.listdir(run_dir))
               if n.startswith("ckpt-") and n.endswith(".npz")][0]
        p = os.path.join(run_dir, npz)
        with open(p, "r+b") as fh:
            fh.truncate(os.path.getsize(p) // 2)
        assert self.run_cli("verify", run_dir) == 1

    def test_resume_corrupt_exits_2(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        rc = self.run_cli(
            "run", "--run-dir", run_dir, "--n", "32", "--b", "4", "--nb", "8",
            "--kill-at", "ckpt.save.band.post:0:torn_write")
        assert rc == CrashInjector.HARD_EXIT_CODE
        assert self.run_cli("resume", run_dir) == 2


class TestConcurrentStores:
    """Two checkpointed runs in parallel threads sharing one workspace
    arena and one installed metrics registry — the serving layer's
    worker-pool configuration in miniature."""

    def test_parallel_runs_are_isolated_and_bitwise(self, tmp_path):
        import threading

        from repro.obs.live.registry import MetricsRegistry, install, uninstall
        from repro.perf.workspace import Workspace

        mats = [small_problem(40, seed=s) for s in (1, 2)]
        kw = dict(b=4, nb=8, precision="fp64", want_vectors=True)
        expected = [reference_digest(a, **kw) for a in mats]

        ws = Workspace()
        reg = MetricsRegistry()
        prev = install(reg)
        results: list = [None, None]
        errors: list = []

        def run(i):
            try:
                res = syevd_2stage(
                    mats[i], workspace=ws,
                    checkpoint=str(tmp_path / f"run-{i}"), **kw)
                results[i] = result_digest(res)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            uninstall(prev)
        assert not errors
        assert results == expected
        # Both run dirs hold independent, verifiable checkpoint stores.
        for i in range(2):
            mgr = CheckpointManager(
                CheckpointConfig(run_dir=str(tmp_path / f"run-{i}")))
            assert mgr.latest("result") is not None

    def test_crash_in_one_thread_leaves_other_intact(self, tmp_path):
        import threading

        a_ok, a_crash = small_problem(40, seed=3), small_problem(40, seed=4)
        kw = dict(b=4, nb=8, precision="fp64")
        expected_ok = reference_digest(a_ok, **kw)
        expected_crash = reference_digest(a_crash, **kw)
        outcome: dict = {}

        def run_ok():
            res = syevd_2stage(
                a_ok, checkpoint=str(tmp_path / "ok"), **kw)
            outcome["ok"] = result_digest(res)

        def run_crash():
            crash = CrashInjector(CrashFaultSpec(
                site="ckpt.save.sbr_panel.post", call_index=1))
            try:
                syevd_2stage(a_crash, checkpoint=CheckpointConfig(
                    run_dir=str(tmp_path / "crash"), crash=crash), **kw)
            except SimulatedCrashError:
                outcome["crashed"] = True

        threads = [threading.Thread(target=run_ok),
                   threading.Thread(target=run_crash)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert outcome.get("crashed") is True
        assert outcome.get("ok") == expected_ok
        res = resume(str(tmp_path / "crash"))
        assert result_digest(res) == expected_crash


class TestInterruptFlush:
    """KeyboardInterrupt mid-run flushes a committed checkpoint before
    re-raising, so an interactive ^C (or SIGTERM) is resumable."""

    def _interrupt_at(self, monkeypatch, module, attr, nth):
        import importlib
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        calls = {"k": 0}

        def wrapper(*args, **kwargs):
            calls["k"] += 1
            if calls["k"] == nth:
                raise KeyboardInterrupt("test interrupt")
            return original(*args, **kwargs)

        monkeypatch.setattr(mod, attr, wrapper)

    def test_wy_interrupt_flush_and_resume(self, tmp_path, monkeypatch):
        a = small_problem(48, seed=11)
        kw = dict(b=4, nb=8, precision="fp64", want_vectors=True)
        expected = reference_digest(a, **kw)
        self._interrupt_at(
            monkeypatch, "repro.sbr.wy", "_panel_step", nth=4)
        with pytest.raises(KeyboardInterrupt):
            syevd_2stage(a, checkpoint=str(tmp_path / "run"), **kw)
        monkeypatch.undo()
        # The flush committed a mid-SBR checkpoint, not just phase zero.
        mgr = CheckpointManager(CheckpointConfig(run_dir=str(tmp_path / "run")))
        assert mgr.latest("sbr_panel") is not None
        res = resume(str(tmp_path / "run"))
        assert result_digest(res) == expected

    def test_zy_interrupt_flush_and_resume(self, tmp_path, monkeypatch):
        a = small_problem(48, seed=12)
        kw = dict(b=4, method="zy", precision="fp64", want_vectors=True)
        expected = reference_digest(a, **kw)
        self._interrupt_at(
            monkeypatch, "repro.sbr.zy", "_zy_panel_step", nth=3)
        with pytest.raises(KeyboardInterrupt):
            syevd_2stage(a, checkpoint=str(tmp_path / "run"), **kw)
        monkeypatch.undo()
        res = resume(str(tmp_path / "run"))
        assert result_digest(res) == expected

    def test_interrupt_after_escalated_retry_resumes_identically(
            self, tmp_path, monkeypatch):
        # One snapshot serves both the retry and the flush: a NaN at the
        # second wy_right launch (panel 2; panel 1 ends the first big
        # block with a full update) retries that panel at an escalated
        # precision, and an interrupt in the next panel must flush a
        # checkpoint that resumes to the uninterrupted faulted run.
        a = small_problem(48, seed=13)
        kw = dict(b=4, nb=8, precision="fp32", want_vectors=True)

        def faults():
            return FaultInjector(FaultSpec(site="wy_right", kind="nan", call_index=1))

        ref = syevd_2stage(a, faults=faults(), checkpoint=str(tmp_path / "ref"), **kw)
        assert [e.panel for e in ref.resilience_report.escalations] == [2]
        # _panel_step calls: panels 0, 1, 2, the retry of 2, then panel 3.
        self._interrupt_at(monkeypatch, "repro.sbr.wy", "_panel_step", nth=5)
        with pytest.raises(KeyboardInterrupt):
            syevd_2stage(a, faults=faults(), checkpoint=str(tmp_path / "run"), **kw)
        monkeypatch.undo()
        res = resume(str(tmp_path / "run"))
        assert result_digest(res) == result_digest(ref)
        assert len(res.resilience_report.escalations) == len(
            ref.resilience_report.escalations)

    def test_sigterm_context_converts_to_interrupt(self):
        import os
        import signal

        from repro.ioutils import sigterm_as_interrupt

        with sigterm_as_interrupt():
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGTERM)
        # Handler restored: SIGTERM no longer raises KeyboardInterrupt.
        assert signal.getsignal(signal.SIGTERM) != sigterm_as_interrupt


class TestResumeOverrides:
    """resume(**overrides): run-environment knobs only, never pinned config."""

    def _crashed_run(self, tmp_path):
        a = small_problem(40, seed=21)
        crash = CrashInjector(CrashFaultSpec(
            site="ckpt.save.sbr_panel.post", call_index=1))
        with pytest.raises(SimulatedCrashError):
            syevd_2stage(a, b=4, nb=8, precision="fp64",
                         checkpoint=CheckpointConfig(
                             run_dir=str(tmp_path / "run"), crash=crash))
        return a

    def test_environment_override_forwarded(self, tmp_path):
        from repro.perf.workspace import Workspace
        a = self._crashed_run(tmp_path)
        expected = reference_digest(a, b=4, nb=8, precision="fp64")
        res = resume(str(tmp_path / "run"), workspace=Workspace())
        assert result_digest(res) == expected

    def test_pinned_config_override_rejected(self, tmp_path):
        self._crashed_run(tmp_path)
        with pytest.raises(ConfigurationError, match="pinned"):
            resume(str(tmp_path / "run"), precision="fp32")

    def test_every_pinned_key_is_forwarded_or_exempt(self, tmp_path):
        # A key pinned in run.json but not forwarded by resume() comes
        # back at its default, so the resumed run's header never matches.
        from repro.ckpt.driver import _FORWARDED

        self._crashed_run(tmp_path)
        with open(tmp_path / "run" / "run.json") as fh:
            pinned = set(json.load(fh)["config"])
        assert pinned - {"driver", "n"} <= set(_FORWARDED)

    def test_stale_knob_in_header_raises_configuration_error(self, tmp_path):
        # A directory written before a driver knob was removed pins it
        # in run.json; resuming it is refused with the structured
        # config-mismatch error, not a TypeError.
        for knob, value in (("bulge_variant", "givens"),
                            ("tridiag_solver", "dc"),
                            ("panel", "tsqr")):
            base = tmp_path / knob
            self._crashed_run(base)
            path = base / "run" / "run.json"
            with open(path) as fh:
                header = json.load(fh)
            header["config"][knob] = value
            with open(path, "w") as fh:
                json.dump(header, fh)
            with pytest.raises(ConfigurationError, match="differs"):
                resume(str(base / "run"))
