"""CLI for the checkpoint subsystem: run, resume, list, verify.

::

    python -m repro.ckpt run --run-dir runs/job --n 96 --b 8
    python -m repro.ckpt run --run-dir runs/job --kill-at 'ckpt.save.sbr_panel.post:2'
    python -m repro.ckpt resume runs/job
    python -m repro.ckpt list runs/job
    python -m repro.ckpt verify runs/job

``run`` executes a deterministic seeded ``syevd_2stage`` under
checkpointing and prints the result digest; pointing it at a directory
holding an earlier interrupted run resumes it (the run header pins the
configuration and the input digest, so mismatched re-runs are refused).
``--kill-at SITE[:CALL_INDEX[:KIND]]`` arms the crash injector
(``--hard`` makes kills terminate the process with exit code 137, like a
real SIGKILL) — the harness the CI crash-recovery job and the recovery
tests drive.  ``verify`` integrity-checks every checkpoint (CRC + ABFT)
without loading the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..errors import CheckpointCorruptionError, ConfigurationError, SimulatedCrashError
from ..ioutils import sigterm_as_interrupt
from ..precision.modes import Precision
from ..resilience.crash import CrashInjector, parse_kill_site
from ..sbr.methods import SBR_METHODS
from .store import CheckpointConfig, CheckpointManager


def _crash_from_args(args) -> "CrashInjector | None":
    specs = [parse_kill_site(text) for text in (args.kill_at or [])]
    if not specs:
        return None
    return CrashInjector(specs, hard=args.hard)


def _test_matrix(n: int, seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


def _print_result(res) -> None:
    from .driver import result_digest

    rep = res.checkpoint_report
    if rep is not None and rep.resumed_from:
        print(f"resumed from {rep.resumed_from}")
    print(f"eigenvalues: {res.eigenvalues.size}  "
          f"[{res.eigenvalues[0]:+.6e} .. {res.eigenvalues[-1]:+.6e}]")
    print(f"digest: {result_digest(res)}")
    if rep is not None:
        print(rep.summary())


def _cmd_run(args) -> int:
    from ..eig.driver import syevd_2stage

    cfg = CheckpointConfig(
        run_dir=args.run_dir, every=args.every,
        strict=not args.no_strict, crash=_crash_from_args(args),
    )
    a = _test_matrix(args.n, args.seed)
    try:
        with sigterm_as_interrupt():
            res = syevd_2stage(
                a, b=args.b, nb=args.nb, method=args.method,
                precision=args.precision, want_vectors=not args.no_vectors,
                checkpoint=cfg,
            )
    except KeyboardInterrupt:
        print("interrupted; checkpoint flushed, resume with "
              f"'python -m repro.ckpt resume {args.run_dir}'", file=sys.stderr)
        return 130
    except SimulatedCrashError as exc:
        print(f"crashed (simulated): {exc}", file=sys.stderr)
        return CrashInjector.HARD_EXIT_CODE
    _print_result(res)
    return 0


def _cmd_resume(args) -> int:
    from .driver import resume

    try:
        with sigterm_as_interrupt():
            res = resume(
                args.run_dir, strict=not args.no_strict,
                crash=_crash_from_args(args),
            )
    except KeyboardInterrupt:
        print("interrupted; checkpoint flushed, resume again with "
              f"'python -m repro.ckpt resume {args.run_dir}'", file=sys.stderr)
        return 130
    except SimulatedCrashError as exc:
        print(f"crashed (simulated): {exc}", file=sys.stderr)
        return CrashInjector.HARD_EXIT_CODE
    except CheckpointCorruptionError as exc:
        print(f"corrupt checkpoint: {exc}", file=sys.stderr)
        return 2
    _print_result(res)
    return 0


def _cmd_list(args) -> int:
    mgr = CheckpointManager(CheckpointConfig(run_dir=args.run_dir))
    entries = mgr.list()
    if not entries:
        print(f"no checkpoints under {args.run_dir}")
        return 0
    for seq, step, meta_path in entries:
        arrays_path = meta_path[: -len(".json")] + ".npz"
        try:
            size = os.path.getsize(arrays_path)
        except OSError:
            size = 0
        print(f"{seq:6d}  {step:<10s}  {size:>12d} B  {os.path.basename(meta_path)}")
    return 0


def _cmd_verify(args) -> int:
    mgr = CheckpointManager(CheckpointConfig(run_dir=args.run_dir))
    failures: list[dict] = []
    try:
        mgr.input_matrix()
        print("input.npz: ok")
    except CheckpointCorruptionError as exc:
        failures.append(exc.to_dict())
        print(f"input.npz: CORRUPT ({exc})")
    for seq, step, meta_path in mgr.list():
        name = os.path.basename(meta_path)
        try:
            mgr.load_path(meta_path)
            print(f"{name}: ok")
        except CheckpointCorruptionError as exc:
            failures.append(exc.to_dict())
            print(f"{name}: CORRUPT ({exc})")
    if args.json:
        print(json.dumps({"failures": failures}, indent=1))
    return 1 if failures else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ckpt",
        description="Durable checkpoint/restart for EVD runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_crash_opts(p):
        p.add_argument(
            "--kill-at", action="append", metavar="SITE[:IDX[:KIND]]",
            help="arm a crash at a save site, e.g. 'ckpt.save.band.post' or "
                 "'ckpt.save.sbr_panel.post:2:torn_write' (repeatable)",
        )
        p.add_argument(
            "--hard", action="store_true",
            help="kills use os._exit(137) instead of raising (real-SIGKILL mode)",
        )
        p.add_argument(
            "--no-strict", action="store_true",
            help="skip corrupt checkpoints (fall back to older ones) instead of raising",
        )

    p_run = sub.add_parser("run", help="run a seeded syevd_2stage under checkpointing")
    p_run.add_argument("--run-dir", required=True)
    p_run.add_argument("--n", type=int, default=96)
    p_run.add_argument("--b", type=int, default=8)
    p_run.add_argument("--nb", type=int, default=None)
    p_run.add_argument("--method", choices=SBR_METHODS, default="wy")
    p_run.add_argument("--precision", default="fp32", type=str.lower,
                       choices=[p.value for p in Precision])
    p_run.add_argument("--no-vectors", action="store_true")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--every", type=int, default=1,
                       help="checkpoint every N-th SBR panel")
    _add_crash_opts(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_res = sub.add_parser("resume", help="resume an interrupted run directory")
    p_res.add_argument("run_dir")
    _add_crash_opts(p_res)
    p_res.set_defaults(func=_cmd_resume)

    p_list = sub.add_parser("list", help="list committed checkpoints")
    p_list.add_argument("run_dir")
    p_list.set_defaults(func=_cmd_list)

    p_ver = sub.add_parser("verify", help="integrity-check every checkpoint")
    p_ver.add_argument("run_dir")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
