"""The stage-1 method table and the precision table, and their readers.

Every consumer of a method or precision name looks it up in one table
(:mod:`repro.sbr.methods`, :class:`repro.precision.Precision`).  These
tests walk each table and check that every reader accepts every name,
that an unknown name is a structured error wherever it enters, and that
the defaults the tables carry (``nb = 4 * b``, the degradation ladder)
are applied the same way everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_symmetric
from repro.device import PerfModel
from repro.eig.driver import syevd_2stage, syevd_selected
from repro.errors import ConfigurationError
from repro.gemm.engine import TensorCoreEngine, make_engine
from repro.obs.analytics import attribute_manifest
from repro.obs.live import phase_plan
from repro.obs.record import record_syevd
from repro.precision import Precision
from repro.sbr import methods
from repro.sbr.methods import METHODS, SBR_METHODS, default_nb, sbr_method
from repro.serve import EvdService, cheaper_precision

METHOD_NAMES = list(METHODS)


def _service(tmp_path):
    return EvdService(workers=1, spool_dir=str(tmp_path / "spool"),
                      scheduler_interval=0.01, tick=0.01)


def _cli_choices(main, argv, capsys) -> list[str]:
    """The choices argparse lists when ``argv`` ends in a bad value."""
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    err = capsys.readouterr().err
    listed = err.split("choose from ")[1].split(")")[0]
    return [c.strip(" '") for c in listed.split(",")]


class TestMethodTable:
    def test_names(self):
        assert SBR_METHODS == ("wy", "zy")
        assert sbr_method("wy").takes_nb and not sbr_method("zy").takes_nb

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_drivers_accept(self, rng, name):
        a = random_symmetric(48, rng)
        ref = np.linalg.eigvalsh(a)
        res = syevd_2stage(a, b=4, method=name, precision="fp64")
        np.testing.assert_allclose(res.eigenvalues, ref, atol=1e-11)
        sel = syevd_selected(a, b=4, method=name, precision="fp64", select=(0, 3))
        np.testing.assert_allclose(sel.eigenvalues, ref[:3], atol=1e-11)

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_perf_model_accepts(self, name):
        bd = PerfModel().sbr_time(1024, 32, 128, method=name)
        assert bd.total > 0 and bd.label.startswith(name)

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_phase_plan_uses_the_row_flops(self, name):
        plan = phase_plan(256, 16, 64, method=name, want_vectors=False)
        assert plan["sbr"] == float(sbr_method(name).flops(256, 16, 64, want_q=False))

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_attribution_joins_the_flop_count(self, tmp_path, name):
        run = record_syevd(n=64, b=4, method=name, want_vectors=False,
                           probes=False, run_dir=str(tmp_path))
        report = attribute_manifest(run.path)
        assert report.analytic is not None
        assert report.analytic["sbr_flops"] == sbr_method(name).flops(
            64, 4, default_nb(4), want_q=False)

    @pytest.mark.parametrize("want_q", [False, True], ids=["band", "q"])
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_reduce_runs(self, rng, name, want_q):
        # Stage 1 alone, the route the benchmark's SBR workload times.
        a = random_symmetric(32, rng)
        res = sbr_method(name).reduce(a, 4, default_nb(4),
                                      engine=make_engine("fp64"), want_q=want_q)
        assert res.bandwidth == 4
        assert not np.triu(res.band, 5).any() and not np.tril(res.band, -5).any()
        np.testing.assert_allclose(np.linalg.eigvalsh(res.band),
                                   np.linalg.eigvalsh(a), atol=1e-11)
        if want_q:
            np.testing.assert_allclose(res.q @ res.band @ res.q.T, a, atol=1e-11)
        else:
            assert res.q is None

    def test_serve_admits_every_name(self, rng, tmp_path):
        a = random_symmetric(24, rng)
        with _service(tmp_path) as svc:
            ids = [svc.submit(a, b=4, method=name) for name in METHOD_NAMES]
            for jid in ids:
                assert svc.result(jid, timeout=60.0).outcome == "done"

    def test_cli_choices(self, capsys):
        from repro.ckpt.__main__ import main as ckpt_main
        from repro.obs.__main__ import main as obs_main

        assert _cli_choices(obs_main, ["run", "--method", "qr"], capsys) == METHOD_NAMES
        assert _cli_choices(
            ckpt_main, ["run", "--run-dir", "x", "--method", "qr"], capsys,
        ) == METHOD_NAMES

    def test_unknown_method_is_a_structured_error(self, rng):
        # Serve admission: tests/test_serve.py.
        a = random_symmetric(32, rng)
        with pytest.raises(ConfigurationError, match="'qr'"):
            sbr_method("qr")
        with pytest.raises(ConfigurationError):
            syevd_2stage(a, b=4, method="qr")
        with pytest.raises(ConfigurationError):
            syevd_selected(a, b=4, method="qr")
        with pytest.raises(ConfigurationError):
            PerfModel().sbr_time(256, 16, 64, method="qr")
        with pytest.raises(ConfigurationError):
            phase_plan(256, 16, method="qr")

    def test_wy_perf_model_requires_nb(self):
        with pytest.raises(ConfigurationError, match="requires nb"):
            PerfModel().sbr_time(256, 16, None, method="wy")

    def test_reduction_is_read_off_the_module_at_call_time(self, rng, monkeypatch):
        # The bench tracer times stage 1 by replacing these attributes.
        calls = []
        real = methods.sbr_zy

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(methods, "sbr_zy", counted)
        syevd_2stage(random_symmetric(32, rng), b=4, method="zy")
        assert calls == [4]


class TestDefaultNb:
    B = 8

    def test_rule(self):
        assert default_nb(self.B) == 4 * self.B

    def test_driver(self, rng):
        a = random_symmetric(96, rng)
        default = syevd_2stage(a, b=self.B, precision="fp32")
        explicit = syevd_2stage(a, b=self.B, nb=4 * self.B, precision="fp32")
        np.testing.assert_array_equal(default.eigenvalues, explicit.eigenvalues)
        np.testing.assert_array_equal(default.sbr.band, explicit.sbr.band)

    def test_phase_plan(self):
        assert phase_plan(128, self.B) == phase_plan(128, self.B, 4 * self.B)

    def test_record(self, tmp_path):
        from repro.obs import load_manifest

        run = record_syevd(n=64, b=self.B, want_vectors=False, probes=False,
                           run_dir=str(tmp_path))
        assert load_manifest(run.path).meta["config"]["nb"] == 4 * self.B

    def test_serve(self, rng, tmp_path):
        with _service(tmp_path) as svc:
            wy = svc.job(svc.submit(random_symmetric(64, rng), b=self.B))
            # Clamped to the matrix and rounded down to a multiple of b.
            small = svc.job(svc.submit(random_symmetric(20, rng), b=self.B))
            zy = svc.job(svc.submit(random_symmetric(64, rng), b=self.B, method="zy"))
            for job in (wy, small, zy):
                svc.result(job.id, timeout=60.0)
        assert wy.spec.nb == 4 * self.B
        assert small.spec.nb == 16
        assert zy.spec.nb is None


class TestPrecisionTable:
    @pytest.mark.parametrize("mode", list(Precision))
    def test_row(self, mode):
        assert Precision.from_name(mode.value.upper()) is mode
        assert make_engine(mode).precision is mode
        assert mode.uses_tensor_core == mode.value.endswith("_tc")
        assert mode.machine_eps > 0
        x = np.linspace(-1, 1, 7)
        assert mode.round_operand(x).dtype == mode.working_dtype
        if mode.operand_format != "fp64":
            plain = TensorCoreEngine(operand_format=mode.operand_format).precision
            assert plain.operand_format == mode.operand_format
            assert not plain.is_error_corrected

    @pytest.mark.parametrize("mode", list(Precision))
    def test_drivers_accept(self, rng, mode):
        a = random_symmetric(32, rng)
        res = syevd_2stage(a, b=4, precision=mode.value, want_vectors=False)
        assert res.engine.precision is mode

    @pytest.mark.parametrize("mode", list(Precision))
    def test_reduce_accepts(self, rng, mode):
        # Stage 1 alone runs every GEMM on the mode's engine.
        a = random_symmetric(32, rng)
        engine = make_engine(mode.value, record=True)
        res = sbr_method("wy").reduce(a, 4, default_nb(4), engine=engine,
                                      want_q=False)
        assert engine.precision is mode and len(engine.trace) > 0
        assert res.band.dtype == mode.working_dtype
        err = np.abs(np.linalg.eigvalsh(res.band.astype(np.float64))
                     - np.linalg.eigvalsh(a)).max()
        assert err <= 2 * len(a) * mode.machine_eps * np.linalg.norm(a, 2)

    def test_escalation_ladder(self):
        assert [m.value for m in Precision.FP16_TC.ladder()] == [
            "fp16_tc", "fp16_ec_tc", "tf32_tc", "fp32", "fp64",
        ]
        assert Precision.BF16_TC.next_safer is Precision.TF32_TC

    def test_cheaper_precision_order(self):
        walk, name = [], "fp64"
        while name is not None:
            walk.append(name)
            name = cheaper_precision(name)
        assert walk == ["fp64", "fp32", "tf32_tc", "fp16_ec_tc", "fp16_tc"]
        assert cheaper_precision("bf16_tc") is None

    def test_serve_admits_every_precision(self, rng, tmp_path):
        a = random_symmetric(24, rng)
        with _service(tmp_path) as svc:
            ids = [svc.submit(a, b=4, precision=m.value) for m in Precision]
            for jid in ids:
                assert svc.result(jid, timeout=60.0).ok

    def test_cli_choices(self, capsys):
        from repro.ckpt.__main__ import main as ckpt_main
        from repro.obs.__main__ import main as obs_main

        names = [m.value for m in Precision]
        assert _cli_choices(obs_main, ["run", "--precision", "fp8"], capsys) == names
        assert _cli_choices(
            ckpt_main, ["run", "--run-dir", "x", "--precision", "fp8"], capsys,
        ) == names

    def test_unknown_precision_is_a_structured_error(self):
        with pytest.raises(ConfigurationError, match="unknown precision 'fp8'"):
            Precision.from_name("fp8")
        for fmt in ("fp8", "fp64"):
            with pytest.raises(ConfigurationError):
                TensorCoreEngine(operand_format=fmt)
