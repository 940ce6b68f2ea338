"""CLI demo / soak harness for the EVD serving layer.

Demo (a small mixed burst)::

    python -m repro.serve --jobs 12 --workers 2

CI soak (mixed-priority burst, injected crash faults, induced overload)::

    python -m repro.serve --jobs 24 --workers 2 --queue-cap 8 \\
        --inject-faults --crash-one --overload

The soak asserts the serving layer's core robustness invariants and
exits non-zero if any is violated:

- **zero jobs lost** — every submitted job reached a terminal state
  (rejected submissions got an explicit AdmissionError, which is the
  backpressure contract, not a loss);
- **no orphaned run dirs** — every checkpoint spool entry belongs to a
  known, terminal job;
- **crash-resume correctness** — a job whose run was crash-killed at a
  checkpoint commit still finished, and (when preempted) its result is
  bitwise-identical to an uninterrupted run;
- **latency rows recorded** — every finished job landed in its class's
  latency sketch; the soak prints per-class p50/p99.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading

import numpy as np

from ..errors import AdmissionError
from ..obs.analytics import serve_trace_to_chrome
from ..obs.live.sinks import parse_prometheus
from ..obs.tracing import check_trace_continuity, load_serve_manifest
from ..resilience.crash import CrashFaultSpec, CrashInjector
from .job import JobSpec, RetryPolicy
from .service import EvdService


def _sym(rng, n: int) -> np.ndarray:
    b = rng.standard_normal((n, n))
    return (b + b.T) / 2.0


def _mixed_specs(args, rng) -> "list[JobSpec]":
    """Round-robin mixed-priority burst: interactive coalescible smalls,
    standard mediums, checkpointed batch jobs with deadlines."""
    specs = []
    for i in range(args.jobs):
        kind = i % 3
        if kind == 0:
            specs.append(JobSpec(
                a=_sym(rng, args.n // 2), priority="interactive",
                coalescible=True, deadline_seconds=30.0,
                tag=f"interactive-{i}",
            ))
        elif kind == 1:
            specs.append(JobSpec(
                a=_sym(rng, args.n), priority="standard",
                deadline_seconds=60.0, tag=f"standard-{i}",
            ))
        else:
            specs.append(JobSpec(
                a=_sym(rng, args.n), b=4, priority="batch",
                checkpointed=True, deadline_seconds=120.0,
                retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
                tag=f"batch-{i}",
            ))
    return specs


def _install_faults(svc: EvdService, args) -> "set[str]":
    """Plant one crash-kill per tagged job on its first attempt only."""
    crash_tags: "set[str]" = set()
    if not (args.inject_faults or args.crash_one):
        return crash_tags

    def factory(job):
        if (
            job.spec.tag in crash_tags
            and job.spec.checkpointed
            and job.attempts == 1
        ):
            return CrashInjector(CrashFaultSpec(
                site="ckpt.save.*.post", call_index=2, kind="kill",
            ))
        return None

    svc.fault_factory = factory
    return crash_tags


def _preempt_one(svc: EvdService, job_ids: "list[str]", fired: "list[str]") -> None:
    """Evict the first running checkpointed job we catch (priority evict).

    Runs on a helper thread: polls the submitted jobs until one is
    running with a live preemption token, requests eviction once, and
    records which job it hit so the soak can assert the preempt→resume
    trace afterwards.
    """
    for _ in range(2000):
        for jid in job_ids:
            try:
                job = svc.job(jid)
            except KeyError:
                continue
            token = job.token
            if (
                job.spec.checkpointed
                and job.state == "running"
                and token is not None
                and not token.requested
            ):
                token.request("priority")
                fired.append(jid)
                return
        svc.sleep(0.005)


def _sdc_chaos(svc: EvdService, args) -> "list[str]":
    """SDC chaos segment (``--faults bitflip``): prove the ABFT contract.

    Three correct-mode jobs take a transient single-bit flip at distinct
    GEMM sites (``wy_right``, the SBR partial trailing update;
    ``wy_full_right``, the full trailing update; ``back_transform``);
    each must finish with eigenpairs bitwise-identical to an uninjected
    run of the same config.  Stage 2 is a LAPACK call and launches no
    engine GEMMs, so it has no site here.  One detect-mode job takes a
    persistent flip that exhausts the in-driver escalation ladder; the
    propagated :class:`~repro.errors.SdcError` must surface as the
    worker's distinct ``sdc`` retry class and the job must still finish.
    """
    from ..eig.driver import syevd_2stage
    from ..resilience.faults import FaultInjector, FaultSpec

    problems: "list[str]" = []
    rng = np.random.default_rng(args.seed + 9001)
    a = _sym(rng, args.n)
    clean = syevd_2stage(a, b=8, precision="fp32", check_input=False)

    # wy_full_right launches once per run at soak sizes, so its flip
    # targets call index 0; the others take their second launch.
    for i, (site, call_index) in enumerate((
        ("wy_right", 1), ("wy_full_right", 0), ("back_transform", 1),
    )):
        inj = FaultInjector(FaultSpec(
            site=site, kind="bitflip", call_index=call_index,
            seed=args.seed + i,
        ))
        jid = svc.submit(spec=JobSpec(
            a=a, b=8, precision="fp32", abft="correct", faults=inj,
            tag=f"sdc-correct-{site}",
        ))
        res = svc.result(jid, timeout=300.0)
        if res is None or not res.ok:
            problems.append(
                f"sdc-correct-{site}: job not ok "
                f"({res.outcome if res else 'lost'}: "
                f"{res.error if res else '?'})"
            )
        elif not inj.fired:
            problems.append(f"sdc-correct-{site}: bitflip never fired")
        elif not np.array_equal(clean.eigenvalues, res.eigenvalues) or not (
            np.array_equal(clean.eigenvectors, res.eigenvectors)
        ):
            problems.append(
                f"sdc-correct-{site}: corrected result diverged from the "
                f"uninjected run"
            )
        else:
            print(f"sdc-correct-{site}: {len(inj.fired)} flip(s) corrected "
                  f"in-flight, result bitwise-identical")

    # Persistent damage: the flip re-fires on every in-driver retry until
    # the ladder gives up, so the SdcError reaches the worker; spare
    # worker attempts drain the remaining firings.
    inj = FaultInjector(FaultSpec(
        site="wy_right", kind="bitflip", call_index=1, count=5,
        seed=args.seed,
    ))
    jid = svc.submit(spec=JobSpec(
        a=a, b=8, precision="fp32", abft="detect", faults=inj,
        retry=RetryPolicy(max_attempts=4, backoff_base=0.001),
        tag="sdc-detect-persistent",
    ))
    res = svc.result(jid, timeout=300.0)
    if res is None or not res.ok:
        problems.append(
            f"sdc-detect-persistent: job not ok "
            f"({res.outcome if res else 'lost'}: {res.error if res else '?'})"
        )
    elif res.sdc_retries < 1:
        problems.append(
            f"sdc-detect-persistent: expected an sdc-class retry, got "
            f"attempts={res.attempts} sdc_retries={res.sdc_retries}"
        )
    else:
        print(f"sdc-detect-persistent: recovered after "
              f"{res.sdc_retries} sdc-class retr"
              f"{'y' if res.sdc_retries == 1 else 'ies'}")
    return problems


def _bitwise_reference(spec: JobSpec, result) -> bool:
    """Re-run an evicted job's config uninterrupted; compare bitwise."""
    from ..eig.driver import syevd_2stage

    with tempfile.TemporaryDirectory(prefix="serve-ref-") as ref_dir:
        ref = syevd_2stage(
            spec.a, b=spec.b, nb=spec.nb, method=spec.method,
            precision=result.precision_used,
            want_vectors=result.eigenvectors is not None,
            checkpoint=os.path.join(ref_dir, "run"),
        )
    if not np.array_equal(ref.eigenvalues, result.eigenvalues):
        return False
    if result.eigenvectors is not None:
        return np.array_equal(ref.eigenvectors, result.eigenvectors)
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="EVD-as-a-service demo / soak harness",
    )
    ap.add_argument("--jobs", type=int, default=12, help="burst size")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--n", type=int, default=48, help="base matrix size")
    ap.add_argument("--queue-cap", type=int, default=32)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spool", default=None, help="spool dir (default: temp)")
    ap.add_argument("--faults", choices=["bitflip"], default=None,
                    help="SDC chaos: inject single-bit flips into the GEMM "
                         "stream and assert the online ABFT layer detects, "
                         "corrects in place, and surfaces uncorrectable "
                         "damage as sdc-class retries")
    ap.add_argument("--inject-faults", action="store_true",
                    help="crash-kill every 4th checkpointed job at a "
                         "checkpoint commit (retry-resume path)")
    ap.add_argument("--crash-one", action="store_true",
                    help="crash-kill exactly one checkpointed job")
    ap.add_argument("--overload", action="store_true",
                    help="submit the whole burst at once against the "
                         "bounded queue (exercises backpressure/shedding)")
    ap.add_argument("--preempt-one", action="store_true",
                    help="priority-evict one running checkpointed job "
                         "mid-flight and assert it resumed on the same "
                         "trace id")
    ap.add_argument("--trace-out", default=None, metavar="FILE",
                    help="export the soak as one Chrome trace (per-worker "
                         "lanes + flow arrows) after shutdown")
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    specs = _mixed_specs(args, rng)

    svc = EvdService(
        workers=args.workers, queue_capacity=args.queue_cap,
        spool_dir=args.spool, seed=args.seed,
    )
    crash_tags = _install_faults(svc, args)
    ckpt_tags = [s.tag for s in specs if s.checkpointed]
    if args.inject_faults:
        crash_tags.update(ckpt_tags[::4] or ckpt_tags[:1])
    elif args.crash_one:
        crash_tags.update(ckpt_tags[:1])

    submitted: "list[tuple[str, JobSpec]]" = []
    rejected = 0
    ckpt_ids: "list[str]" = []
    preempted_ids: "list[str]" = []
    evictor = None
    with svc:
        if args.preempt_one:
            evictor = threading.Thread(
                target=_preempt_one, args=(svc, ckpt_ids, preempted_ids),
                name="soak-evictor", daemon=True,
            )
            evictor.start()
        for spec in specs:
            try:
                jid = svc.submit(spec=spec)
                submitted.append((jid, spec))
                if spec.checkpointed and spec.tag not in crash_tags:
                    ckpt_ids.append(jid)
            except AdmissionError as exc:
                rejected += 1
                print(f"rejected ({exc.reason}): {spec.tag}", file=sys.stderr)
            if not args.overload:
                # Pace the burst so the queue breathes between arrivals.
                svc.sleep(0.01)
        results = {
            jid: svc.result(jid, timeout=300.0) for jid, _ in submitted
        }
        if evictor is not None:
            evictor.join(timeout=5.0)
        sdc_failures = _sdc_chaos(svc, args) if args.faults == "bitflip" else []
    # -- report ------------------------------------------------------------
    stats = svc.stats()
    print(f"submitted={len(submitted)} rejected={rejected} "
          f"outcomes={stats['outcomes']}")
    failures: "list[str]" = list(sdc_failures)

    lost = [jid for jid, res in results.items() if res is None]
    if lost or stats["jobs_pending"]:
        failures.append(f"jobs lost/non-terminal: {lost or stats['jobs_pending']}")

    # No orphaned run dirs: every spool entry belongs to a terminal job.
    known = {jid for jid, _ in submitted}
    for entry in sorted(os.listdir(svc.spool_dir)):
        path = os.path.join(svc.spool_dir, entry)
        if not os.path.isdir(path):
            continue
        if entry not in known:
            failures.append(f"orphaned run dir: {entry}")
        elif results.get(entry) is None:
            failures.append(f"run dir for non-terminal job: {entry}")

    # Crash-killed jobs must still have terminated (resume or retry).
    for jid, spec in submitted:
        res = results[jid]
        if res is None:
            continue
        if spec.tag in crash_tags and res.outcome == "failed":
            failures.append(
                f"{spec.tag}: crash-killed job failed outright "
                f"(attempts={res.attempts}): {res.error}"
            )

    # Evicted jobs that finished must match an uninterrupted run bitwise.
    checked = 0
    for jid, spec in submitted:
        res = results[jid]
        if (
            res is not None and res.ok and res.preemptions > 0
            and spec.checkpointed and spec.tag not in crash_tags
            and checked < 2
        ):
            checked += 1
            if not _bitwise_reference(spec, res):
                failures.append(f"{spec.tag}: evicted job result diverged")
            else:
                print(f"{spec.tag}: preempted x{res.preemptions}, "
                      f"resume bitwise-identical")

    latency = svc.latency_rows()
    if not latency:
        failures.append("no latency rows")
    else:
        print("latency:")
        for row in latency:
            print(f"  {row['key']}: jobs={row['jobs']} "
                  f"p50={row['p50'] * 1e3:.1f}ms "
                  f"p99={row['p99'] * 1e3:.1f}ms "
                  f"qwait_p50={row['queue_wait_p50'] * 1e3:.1f}ms "
                  f"qwait_p99={row['queue_wait_p99'] * 1e3:.1f}ms")

    # -- SLO accounting ----------------------------------------------------
    slo_rows = svc.slo.rows()
    if slo_rows:
        print("slo:")
        for row in slo_rows:
            print(f"  {row['priority']}: good={row['good']} bad={row['bad']} "
                  f"target={row['target']:.3f} "
                  f"burn_rate={row['burn_rate']:.2f} "
                  f"budget_left={row['error_budget_remaining']:.2f}")

    # -- trace continuity --------------------------------------------------
    try:
        records = load_serve_manifest(svc.spool_dir)
    except (OSError, ValueError) as exc:
        records = []
        failures.append(f"serve manifest unreadable: {exc}")
    if submitted and not records:
        failures.append("no serve_job records in spool manifest")
    for problem in check_trace_continuity(records):
        failures.append(f"trace continuity: {problem}")

    if args.preempt_one:
        if not preempted_ids:
            failures.append("--preempt-one: evictor never caught a "
                            "running checkpointed job")
        else:
            jid = preempted_ids[0]
            rec = next((r for r in records if r.get("job") == jid), None)
            names = [ev.get("name") for ev in (rec or {}).get("timeline", [])]
            if rec is None:
                failures.append(f"--preempt-one: no manifest record for {jid}")
            elif "serve.preempt" not in names or "serve.resume" not in names:
                failures.append(
                    f"--preempt-one: {jid} timeline lacks preempt+resume "
                    f"(got {names})"
                )
            else:
                res = results.get(jid)
                print(f"preempted {jid}: resumed on same trace "
                      f"(attempts={res.attempts if res else '?'})")

    # Burn-rate gauges must have landed in the Prometheus snapshot.
    prom_path = os.path.join(svc.spool_dir, "metrics.prom")
    if os.path.exists(prom_path):
        with open(prom_path) as fh:
            prom = parse_prometheus(fh.read())
        if not any(
            key.startswith("repro_serve_slo_burn_rate") for key in prom
        ):
            failures.append("metrics.prom lacks repro_serve_slo_burn_rate")
    else:
        failures.append("service did not write metrics.prom")

    if args.trace_out:
        parent = os.path.dirname(args.trace_out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.trace_out, "w") as fh:
            json.dump(serve_trace_to_chrome(records), fh, indent=1)
            fh.write("\n")
        print(f"chrome trace: {args.trace_out}")

    if failures:
        for f in failures:
            print(f"SOAK FAIL: {f}", file=sys.stderr)
        return 1
    print("soak ok: all jobs terminal, spool clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
