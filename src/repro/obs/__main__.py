"""Telemetry CLI.

Usage::

    python -m repro.obs run [--n 256 --b 16 --nb 64 --precision fp32]
    python -m repro.obs run --live runs/live [--live-interval 1.0]
    python -m repro.obs live [DIR]
    python -m repro.obs report MANIFEST
    python -m repro.obs report --compare BASELINE CANDIDATE
    python -m repro.obs list [--dir runs]
    python -m repro.obs attribution MANIFEST
    python -m repro.obs export (--chrome | --flame) MANIFEST [-o FILE]
    python -m repro.obs trace SPOOL_DIR [--chrome -o FILE] [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..precision.modes import Precision
from ..sbr.methods import SBR_METHODS
from .analytics import (
    attribute_manifest,
    render_attribution,
    serve_trace_to_chrome,
    to_chrome_trace,
    to_collapsed_stacks,
)
from .manifest import DEFAULT_RUN_DIR, load_manifest
from .tracing import (
    check_trace_continuity,
    load_serve_manifest,
    render_trace_summary,
)
from .report import REGRESSION_THRESHOLD, compare_phases, render_compare, render_report


def _cmd_run(args: argparse.Namespace) -> int:
    from .record import record_syevd

    live = None
    if args.live is not None:
        from .live import LiveConfig

        live = LiveConfig(dir=args.live, interval=args.live_interval)
    run = record_syevd(
        n=args.n,
        b=args.b,
        nb=args.nb,
        method=args.method,
        precision=args.precision,
        want_vectors=not args.no_vectors,
        seed=args.seed,
        path=args.out,
        run_dir=args.dir,
        probes=not args.no_probes,
        checkpoint=args.checkpoint_dir,
        live=live,
    )
    if live is not None:
        print(f"live metrics written under: {args.live}")
    print(f"manifest written: {run.path}")
    print()
    print(render_report(load_manifest(run.path)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.compare:
        base, cand = args.compare
        print(render_compare(base, cand, threshold=args.threshold))
        if args.fail_on_regression:
            joined = compare_phases(base, cand, threshold=args.threshold)
            if any(e["verdict"] == "regression" for e in joined):
                return 2
        return 0
    if not args.manifest:
        print("error: a manifest path (or --compare A B) is required", file=sys.stderr)
        return 1
    print(render_report(args.manifest))
    return 0


def _cmd_attribution(args: argparse.Namespace) -> int:
    report = attribute_manifest(args.manifest)
    print(render_attribution(report))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    if args.chrome:
        payload = json.dumps(to_chrome_trace(args.manifest), indent=1)
    else:
        payload = to_collapsed_stacks(args.manifest)
    if args.out:
        parent = os.path.dirname(args.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
        kind = "chrome trace" if args.chrome else "collapsed stacks"
        print(f"{kind} written: {args.out}")
    else:
        print(payload)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    records = load_serve_manifest(args.spool)
    if not records:
        print(f"error: no serve_job records under {args.spool!r}", file=sys.stderr)
        return 1
    if args.chrome:
        payload = json.dumps(serve_trace_to_chrome(records), indent=1)
        if args.out:
            parent = os.path.dirname(args.out)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(args.out, "w") as fh:
                fh.write(payload)
                fh.write("\n")
            print(f"serve chrome trace written: {args.out}")
        else:
            print(payload)
    else:
        print(render_trace_summary(records))
    if args.check:
        problems = check_trace_continuity(records)
        if problems:
            for p in problems:
                print(f"continuity: {p}", file=sys.stderr)
            return 2
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    from .live import DEFAULT_LIVE_DIR, render_live_dir

    print(render_live_dir(args.dir or DEFAULT_LIVE_DIR))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.dir):
        print(f"no manifests: directory {args.dir!r} does not exist")
        return 0
    names = sorted(n for n in os.listdir(args.dir) if n.endswith(".jsonl"))
    if not names:
        print(f"no manifests under {args.dir!r}")
        return 0
    for name in names:
        path = os.path.join(args.dir, name)
        try:
            man = load_manifest(path)
        except (ValueError, OSError) as exc:
            print(f"{path}  <unreadable: {exc}>")
            continue
        created = man.meta.get("created", "?")
        print(
            f"{path}  label={man.label or '?'}  created={created}  "
            f"wall={man.total_wall:.3f}s  spans={len(man.spans)}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Telemetry: instrumented runs, manifests, profiling reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="instrumented syevd_2stage run → manifest")
    p_run.add_argument("--n", type=int, default=256, help="matrix size")
    p_run.add_argument("--b", type=int, default=16, help="stage-1 bandwidth")
    p_run.add_argument("--nb", type=int, default=None, help="WY big-block size (default 4*b)")
    p_run.add_argument("--method", choices=SBR_METHODS, default="wy")
    p_run.add_argument(
        "--precision", default="fp32", type=str.lower,
        choices=[p.value for p in Precision], help="stage-1 precision policy",
    )
    p_run.add_argument("--seed", type=int, default=0, help="test-matrix RNG seed")
    p_run.add_argument("--no-vectors", action="store_true", help="eigenvalues only")
    p_run.add_argument("--no-probes", action="store_true", help="skip accuracy probes")
    p_run.add_argument("--out", default=None, metavar="FILE", help="manifest path")
    p_run.add_argument("--dir", default=DEFAULT_RUN_DIR, help="manifest directory")
    p_run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write durable checkpoints under DIR (resume with "
             "python -m repro.ckpt resume DIR)",
    )
    p_run.add_argument(
        "--live", default=None, metavar="DIR",
        help="stream live metrics (Prometheus snapshot, JSONL, heartbeat) "
             "under DIR while the run executes; inspect with "
             "python -m repro.obs live DIR",
    )
    p_run.add_argument(
        "--live-interval", type=float, default=1.0, metavar="SECONDS",
        help="reporter flush interval for --live (default 1.0)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_live = sub.add_parser(
        "live", help="render the current state of a live-metrics directory"
    )
    p_live.add_argument(
        "dir", nargs="?", default=None,
        help="live-metrics directory (default runs/live)",
    )
    p_live.set_defaults(func=_cmd_live)

    p_rep = sub.add_parser("report", help="per-phase breakdown or A/B comparison")
    p_rep.add_argument("manifest", nargs="?", help="manifest to report on")
    p_rep.add_argument(
        "--compare", nargs=2, metavar=("BASELINE", "CANDIDATE"),
        help="phase-level delta table between two manifests",
    )
    p_rep.add_argument(
        "--threshold", type=float, default=REGRESSION_THRESHOLD,
        help="relative slowdown flagged as regression (default 0.10)",
    )
    p_rep.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 2 when --compare finds a phase regression",
    )
    p_rep.set_defaults(func=_cmd_report)

    p_list = sub.add_parser("list", help="list manifests in a directory")
    p_list.add_argument("--dir", default=DEFAULT_RUN_DIR)
    p_list.set_defaults(func=_cmd_list)

    p_attr = sub.add_parser(
        "attribution",
        help="model-vs-measured efficiency per phase/tag (Table-1 rate model)",
    )
    p_attr.add_argument("manifest", help="manifest with a full GEMM event stream")
    p_attr.set_defaults(func=_cmd_attribution)

    p_exp = sub.add_parser(
        "export", help="export a manifest as a Chrome trace or flamegraph stacks"
    )
    p_exp.add_argument("manifest", help="manifest to export")
    fmt = p_exp.add_mutually_exclusive_group(required=True)
    fmt.add_argument(
        "--chrome", action="store_true",
        help="Chrome Trace Event JSON (chrome://tracing / Perfetto)",
    )
    fmt.add_argument(
        "--flame", action="store_true",
        help="collapsed stacks (flamegraph.pl / speedscope)",
    )
    p_exp.add_argument("-o", "--out", default=None, metavar="FILE",
                       help="output file (default: stdout)")
    p_exp.set_defaults(func=_cmd_export)

    p_tr = sub.add_parser(
        "trace",
        help="per-job causal timeline of a serving soak (summary, Chrome "
             "trace export, or continuity gate)",
    )
    p_tr.add_argument(
        "spool",
        help="serve spool directory (or its manifest.jsonl) from "
             "python -m repro.serve",
    )
    p_tr.add_argument(
        "--chrome", action="store_true",
        help="emit Chrome Trace Event JSON (per-worker lanes + flow "
             "arrows) instead of the summary table",
    )
    p_tr.add_argument("-o", "--out", default=None, metavar="FILE",
                      help="output file for --chrome (default: stdout)")
    p_tr.add_argument(
        "--check", action="store_true",
        help="exit 2 if any job's trace is broken (missing ids, orphan "
             "parents, preempted without resume)",
    )
    p_tr.set_defaults(func=_cmd_trace)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
