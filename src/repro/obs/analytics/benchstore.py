"""Continuous-benchmark store: pinned scenario suites, persisted sessions.

A *bench session* runs a pinned suite of (n, b, nb, precision) scenarios
``repeats`` times each and persists every repeat's wall time and
per-phase breakdown as one versioned ``BENCH_<suite>.json`` under
``runs/``, together with an environment fingerprint (platform, Python,
NumPy, CPU count) so sessions from different machines are never compared
silently.  Two sessions feed the regression detector
(:mod:`~repro.obs.analytics.regress`); the CI perf-smoke job runs the
``smoke`` suite against a committed baseline on every push.

The suites are deliberately *pinned*: scenario keys are stable across
PRs, so a stored session from PR N is comparable with PR N+5.  Add new
scenarios rather than mutating existing ones.

Timing uses the injectable telemetry clock (:mod:`repro.obs.spans`), so
the store's statistics are testable with a deterministic fake clock.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

from ...ioutils import atomic_write_json
from ..live import MetricsRegistry, use_registry
from ..spans import collect

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchScenario",
    "SUITES",
    "run_suite",
    "make_session",
    "write_session",
    "load_session",
    "default_session_path",
]

BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchScenario:
    """One pinned benchmark configuration.

    The ``key`` is the join identity between sessions — never reuse a
    key for a different configuration.

    ``stage`` selects what is timed: ``"evd"`` runs the full two-stage
    eigensolver, and ``"sbr"`` runs only the stage-1 band reduction
    (the paper's hot loop — large-``n`` scenarios use this, since the
    pure-Python bulge chase would dwarf the GEMM stream being measured).
    ``workspace`` (``"on"``/``"off"``) and ``abft`` are layered knobs
    forwarded to the target driver *only when its signature supports
    them*, so a session recorded on an older tree stays comparable.  ``abft="detect"`` prices the online-ABFT
    verification overhead on the GEMM stream.
    """

    key: str
    n: int
    b: int
    nb: int | None = None
    precision: str = "fp32"
    method: str = "wy"
    want_vectors: bool = False
    seed: int = 1234
    stage: str = "evd"
    workspace: str = "on"
    abft: str = "off"


#: Pinned suites.  ``smoke`` is the CI gate: small sizes, seconds per
#: scenario.  ``standard`` is the local trajectory suite.
SUITES: dict[str, tuple[BenchScenario, ...]] = {
    "smoke": (
        BenchScenario("wy-fp32-n128", n=128, b=8, nb=32),
        BenchScenario("wy-fp32-n256", n=256, b=16, nb=64),
        BenchScenario("zy-fp32-n128", n=128, b=8, method="zy"),
        BenchScenario("wy-fp16-n128", n=128, b=8, nb=32, precision="fp16_tc"),
        BenchScenario("sbr-wy-fp32-n256", n=256, b=16, nb=64, stage="sbr"),
    ),
    "standard": (
        BenchScenario("wy-fp32-n128", n=128, b=8, nb=32),
        BenchScenario("wy-fp32-n256", n=256, b=16, nb=64),
        BenchScenario("wy-fp32-n512", n=512, b=16, nb=64),
        BenchScenario("zy-fp32-n256", n=256, b=16, method="zy"),
        BenchScenario("wy-fp16-n256", n=256, b=16, nb=64, precision="fp16_tc"),
        BenchScenario("wy-ec-n256", n=256, b=16, nb=64, precision="fp16_ec_tc"),
        BenchScenario("wy-fp32-n256-vec", n=256, b=16, nb=64, want_vectors=True),
        # Stage-1-only hot-loop scenarios (PR 5): the paper's target shape
        # at n=1024, plus a workspace on/off pair isolating the arena.
        BenchScenario(
            "sbr-wy-ec-n1024", n=1024, b=32, nb=256,
            precision="fp16_ec_tc", stage="sbr",
        ),
        BenchScenario(
            "sbr-wy-ec-n512-ws", n=512, b=32, nb=128,
            precision="fp16_ec_tc", stage="sbr",
        ),
        BenchScenario(
            "sbr-wy-ec-n512-nows", n=512, b=32, nb=128,
            precision="fp16_ec_tc", stage="sbr", workspace="off",
        ),
        # Online-ABFT overhead row (PR 9): same shape as wy-fp32-n256,
        # but every GEMM launch is checksum-verified in detect mode —
        # the pair prices the verification tax for the regression gate.
        BenchScenario(
            "wy-fp32-n256-abft", n=256, b=16, nb=64, abft="detect",
        ),
        # Full EVD at the paper's target bandwidth: ``syevd/bulge`` is the
        # stage-2 chase the regression gate protects.
        BenchScenario("wy-fp32-n1024", n=1024, b=32, nb=128),
    ),
}


def environment_fingerprint() -> dict:
    """Where a session was measured (joined into every session file)."""
    import platform

    try:
        import numpy as np

        numpy_version = np.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
    }


def _collector_phases(session) -> dict[str, float]:
    """Phase-path -> seconds of one collected run (driver-level phases).

    Mirrors :meth:`RunManifest.phase_paths`: with one root span the
    phases are its direct children, otherwise the roots themselves.
    """
    roots = {s.path for s in session.spans if s.depth == 0}
    depth = 1 if len(roots) == 1 and any(s.depth == 1 for s in session.spans) else 0
    out: dict[str, float] = {}
    for s in session.spans:
        if s.depth == depth:
            out[s.path] = out.get(s.path, 0.0) + s.duration
    return out


def _perf_kwargs(sc: BenchScenario, fn) -> dict:
    """Perf-layer kwargs (workspace/abft) the target driver supports.

    Non-default knobs are forwarded only when ``fn``'s signature has the
    parameter, so a suite definition referencing newer knobs still runs
    (and stays comparable) against an older driver.
    """
    import inspect

    params = inspect.signature(fn).parameters
    kwargs: dict = {}
    if sc.workspace == "off" and "workspace" in params:
        kwargs["workspace"] = False
    if sc.abft != "off" and "abft" in params:
        kwargs["abft"] = sc.abft
    return kwargs


def _scenario_runner(sc: BenchScenario, syevd_2stage):
    """Bind one scenario to its timed callable (full EVD or SBR-only)."""
    if sc.stage == "evd":
        kwargs = _perf_kwargs(sc, syevd_2stage)

        def run(a):
            syevd_2stage(
                a, b=sc.b, nb=sc.nb, method=sc.method, precision=sc.precision,
                want_vectors=sc.want_vectors, **kwargs,
            )

        return run
    if sc.stage != "sbr":
        raise ValueError(
            f"unknown bench stage {sc.stage!r}; expected 'evd' or 'sbr'")

    from ...gemm.engine import make_engine
    from ...sbr.methods import default_nb, sbr_method

    row = sbr_method(sc.method)
    nb = sc.nb if sc.nb is not None else default_nb(sc.b)
    kwargs = _perf_kwargs(sc, row.function)

    def run(a):
        row.reduce(
            a, sc.b, nb, engine=make_engine(sc.precision),
            want_q=sc.want_vectors, **kwargs,
        )

    return run


def run_suite(
    suite: str = "smoke",
    *,
    repeats: int = 3,
    scenarios: "tuple[BenchScenario, ...] | None" = None,
    clock=None,
) -> dict:
    """Run one suite and return the session dict (not yet persisted).

    Parameters
    ----------
    suite : str
        Suite name (``smoke`` / ``standard``); the session records it.
    repeats : int
        Timed repetitions per scenario (medians feed the regression
        gate; >= 2 recommended so bootstrap CIs exist).
    scenarios : tuple of BenchScenario, optional
        Explicit scenario list (tests use this); default: ``SUITES[suite]``.
    clock : callable, optional
        Deterministic time source forwarded to the telemetry collector.
    """
    import numpy as np

    from ...eig.driver import syevd_2stage
    from ...matrices import generate_symmetric

    if scenarios is None:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)}")
        scenarios = SUITES[suite]
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    clk = clock if clock is not None else time.perf_counter
    rows = []
    for sc in scenarios:
        a, _ = generate_symmetric(
            sc.n, distribution="geo", cond=1e3, rng=np.random.default_rng(sc.seed)
        )
        run = _scenario_runner(sc, syevd_2stage)
        wall: list[float] = []
        phases: dict[str, list[float]] = {}
        # One live registry per scenario: the merged GEMM latency sketch
        # over all repeats lands in the row as quantiles (p50/p90/p99).
        reg = MetricsRegistry(clock=clk)
        for _ in range(repeats):
            t0 = clk()
            with use_registry(reg), collect(clock=clk) as session:
                run(a)
            wall.append(clk() - t0)
            for path, secs in _collector_phases(session).items():
                phases.setdefault(path, []).append(secs)
        latency = reg.histogram_merged("repro_gemm_latency_seconds")
        rows.append({
            "key": sc.key, "config": asdict(sc), "wall": wall, "phases": phases,
            "gemm_latency": latency.summary() if len(latency) else None,
        })

    return {
        "kind": "bench_session",
        "schema": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "repeats": repeats,
        "env": environment_fingerprint(),
        "scenarios": rows,
    }


def make_session(
    suite: str,
    scenarios: "list[dict]",
    *,
    repeats: int = 1,
    extra: "dict | None" = None,
) -> dict:
    """Build a bench-session dict from externally measured scenario rows.

    For producers that are not solver re-runs — the serving layer records
    one row per priority class with ``wall`` holding the observed
    per-request latencies — so their sessions flow through the same
    :func:`write_session` / :func:`load_session` / regression-gate path
    as the solver suites.  Each row must carry ``key`` (the join
    identity) and a ``wall`` list; everything else rides along verbatim.
    """
    for row in scenarios:
        if not isinstance(row, dict) or "key" not in row:
            raise ValueError(f"scenario row missing 'key': {row!r}")
        if not isinstance(row.get("wall"), list):
            raise ValueError(f"scenario {row.get('key')!r} missing 'wall' list")
    session = {
        "kind": "bench_session",
        "schema": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "repeats": repeats,
        "env": environment_fingerprint(),
        "scenarios": list(scenarios),
    }
    if extra:
        session.update(extra)
    return session


def default_session_path(suite: str, run_dir: str = "runs") -> str:
    return os.path.join(run_dir, f"BENCH_{suite}.json")


def write_session(session: dict, path: str | None = None, *, run_dir: str = "runs") -> str:
    """Persist a session as ``BENCH_<suite>.json`` (returns the path).

    The write is crash-safe: the session is serialized in memory and
    committed with one atomic rename, so a concurrent reader (or the
    regression gate after a killed bench run) never sees a torn file.
    """
    if path is None:
        path = default_session_path(session.get("suite", "suite"), run_dir)
    return atomic_write_json(path, session, indent=1)


def load_session(path: str) -> dict:
    """Load and validate one persisted bench session."""
    with open(path) as fh:
        try:
            session = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a bench session: {exc}") from None
    if not isinstance(session, dict) or session.get("kind") != "bench_session":
        raise ValueError(f"{path}: not a bench session (missing kind discriminator)")
    schema = session.get("schema")
    if not isinstance(schema, int) or schema > BENCH_SCHEMA_VERSION or schema < 1:
        raise ValueError(
            f"{path}: bench-session schema {schema!r} is outside the supported "
            f"range [1, {BENCH_SCHEMA_VERSION}]"
        )
    if not isinstance(session.get("scenarios"), list):
        raise ValueError(f"{path}: bench session has no scenario list")
    return session
