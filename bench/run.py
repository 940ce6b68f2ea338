#!/usr/bin/env python3
"""Closed-loop benchmark of the two-stage symmetric eigensolver.

One workload, one pass, one process::

    python3 bench/run.py --workload evd-values-n384 --seed 7 --seconds 25 --trace 0

A single client calls the solver serially, each call after the previous
one returns, for ``--seconds`` seconds after one untimed warm-up call.
Every output is checked against a scipy oracle outside the timed region.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The traced pass also writes its spans to
``bench/out/trace-<workload>-seed<S>.jsonl``.

Every workload, both passes, each in a fresh subprocess, into one file::

    python3 bench/run.py --seed 7 --out A.json

See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pinning: one thread, set before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREAD_ENV)

import argparse
import functools
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla

from tracer import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: workload names, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


#: Unit roundoff of each stage-1 precision policy.
U = {"fp64": 2.0**-53, "fp32": 2.0**-24, "fp16_tc": 2.0**-11,
     "fp16_ec_tc": 2.0**-24}

#: Correctness tolerances in units of the call's precision ``u``, at
#: least ten times the worst value seen over seeds 0-9, 11 and 20-29 at the
#: commit that introduced the benchmark.  ``eig``: max eigenvalue error
#: over ||A||_2; ``resid``: max column ||A x - lam x|| over ||A||_2;
#: ``orth``: max |X^T X - I|; ``leak``: largest band entry outside the
#: bandwidth over ||A||_2.
TOL_U = {
    "fp64": {"eig": 500.0, "resid": 500.0, "orth": 500.0},
    "fp32": {"eig": 100.0, "resid": 200.0, "orth": 200.0},
    "fp16_tc": {"eig": 50.0, "resid": 50.0, "orth": 100.0},
    "fp16_ec_tc": {"eig": 20.0, "leak": 20.0},
}

SPECTRA = ("geo", "arith", "cluster0", "normal")
SETUP_REPS = 7
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import repro
import numpy as np
a = np.random.default_rng(0).standard_normal((64, 64))
a = a + a.T
{call}
print(time.perf_counter() - t0)
"""


# -- inputs -------------------------------------------------------------------
@dataclass(eq=False)
class Case:
    """One distinct input of a workload and the solver call made on it."""

    key: str  # stratum: cases with one key share a latency distribution
    a: np.ndarray
    precision: str
    vectors: bool
    b: int
    nb: int
    kind: str = "evd"  # "evd": syevd_2stage; "sbr": sbr_wy alone
    ref: np.ndarray = field(init=False)  # oracle eigenvalues
    norm: float = field(init=False)  # ||A||_2

    def __post_init__(self) -> None:
        self.ref = sla.eigvalsh(self.a)
        self.norm = float(np.abs(self.ref).max())

    def probe(self) -> str:
        """The same call on a 64x64 matrix, for the set-up measurement."""
        if self.kind == "sbr":
            return (f"repro.sbr_wy(a, 8, 32, engine=repro.make_engine("
                    f"{self.precision!r}), want_q=False)")
        return (f"repro.syevd_2stage(a, b=8, nb=32, precision={self.precision!r}, "
                f"want_vectors={self.vectors})")


def evd_case(repro, rng, n, spectrum, precision, vectors, b, nb) -> Case:
    a, _ = repro.generate_symmetric(n, distribution=spectrum, cond=1e3, rng=rng)
    mode = "vectors" if vectors else "values"
    return Case(f"n{n}/{precision}/{mode}", a, precision, vectors, b, nb)


def sbr_case(repro, rng, n, b, nb) -> Case:
    a, _ = repro.generate_symmetric(n, distribution="geo", cond=1e3, rng=rng)
    return Case(f"n{n}/fp16_ec_tc/band", a, "fp16_ec_tc", False, b, nb, kind="sbr")


@dataclass
class Workload:
    """Distinct inputs plus the order the closed loop visits them in.

    A *round* is the unit a run either completes or does not start: one
    input for a single-shape workload, a seeded permutation of every
    stratum for a mixed one (so each stratum is sampled equally often).
    The traced pass always runs whole permutations of all inputs.
    """

    name: str
    seed: int
    cases: list[Case]
    mixed: bool = False

    def rounds(self, traced: bool = False):
        order = np.random.default_rng([self.seed, 1])
        while True:
            if self.mixed:
                yield [int(i) for i in order.permutation(len(self.cases))]
            elif traced:
                yield list(range(len(self.cases)))
            else:
                yield from ([i] for i in range(len(self.cases)))


def make_workload(repro, name: str, seed: int) -> Workload:
    """Build a named workload's inputs from ``seed`` (same seed, same inputs)."""
    rng = np.random.default_rng(seed)
    if name == "evd-values-n384":
        cases = [evd_case(repro, rng, 384, "geo", "fp32", False, 32, 128)
                 for _ in range(2)]
    elif name == "evd-vectors-n256":
        cases = [evd_case(repro, rng, 256, "geo", "fp32", True, 32, 128)
                 for _ in range(2)]
    elif name == "sbr-band-n1024-ec":
        cases = [sbr_case(repro, rng, 1024, 32, 256) for _ in range(2)]
    elif name == "evd-small-mixed":
        cases = [
            evd_case(repro, rng, n, SPECTRA[rng.integers(len(SPECTRA))],
                     precision, vectors, 8, 32)
            for n in (64, 96, 128)
            for precision in ("fp32", "fp16_tc", "fp64")
            for vectors in (False, True)
        ]
        return Workload(name, seed, cases, mixed=True)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, seed, cases)


def run_case(repro, case: Case):
    """The solver call itself (resolved through ``repro`` on every call)."""
    if case.kind == "sbr":
        return repro.sbr_wy(case.a, case.b, case.nb,
                            engine=repro.make_engine(case.precision), want_q=False)
    return repro.syevd_2stage(case.a, b=case.b, nb=case.nb,
                              precision=case.precision,
                              want_vectors=case.vectors)


# -- correctness gate -----------------------------------------------------------
def lower_band(band: np.ndarray, b: int) -> np.ndarray:
    """LAPACK lower band storage of a dense symmetric band matrix."""
    n = band.shape[0]
    ab = np.zeros((b + 1, n))
    for k in range(b + 1):
        ab[k, : n - k] = np.diagonal(band, -k)
    return ab


def band_eigvals(band, b: int) -> np.ndarray:
    """Eigenvalues of a dense symmetric band matrix by LAPACK (``eig_banded``)."""
    ab = lower_band(np.asarray(band, dtype=np.float64), b)
    return sla.eig_banded(ab, lower=True, eigvals_only=True)


def quality(case: Case, out) -> dict[str, float]:
    """Errors of one output against the oracle, in units of the call's ``u``."""
    u = U[case.precision]
    if case.kind == "sbr":
        band = np.asarray(out.band, dtype=np.float64)
        rows, cols = np.indices(band.shape)
        leak = np.abs(band[np.abs(rows - cols) > case.b])
        lam = band_eigvals(band, case.b)
        return {
            "eig": float(np.abs(lam - case.ref).max()) / (case.norm * u),
            "leak": float(leak.max()) / (case.norm * u) if leak.size else 0.0,
        }
    lam = np.asarray(out.eigenvalues, dtype=np.float64)
    order = np.argsort(lam)
    lam = lam[order]
    q = {"eig": float(np.abs(lam - case.ref).max()) / (case.norm * u)}
    if case.vectors:
        x = np.asarray(out.eigenvectors, dtype=np.float64)[:, order]
        resid = case.a @ x - x * lam
        q["resid"] = float(np.linalg.norm(resid, axis=0).max()) / (case.norm * u)
        q["orth"] = float(np.abs(x.T @ x - np.eye(x.shape[1])).max()) / u
    return q


def _digest(case: Case, out) -> str:
    h = hashlib.sha1()
    arrays = ([out.band] if case.kind == "sbr"
              else [out.eigenvalues, out.eigenvectors])
    for arr in arrays:
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class Gate:
    """Checks every output against the oracle; caches by (input, output)."""

    def __init__(self) -> None:
        self._verdicts: dict = {}
        self.qualities: list[tuple[str, dict]] = []

    def check(self, case: Case, out) -> bool:
        try:
            key = (id(case), _digest(case, out))
            if key not in self._verdicts:
                q = quality(case, out)
                tol = TOL_U[case.precision]
                # NaN compares False, so a non-finite error fails.
                ok = all(v <= tol[k] for k, v in q.items())
                self._verdicts[key] = (ok, q)
                self.qualities.append((case.precision, q))
        except (AttributeError, TypeError, ValueError, IndexError):
            print(f"{case.key}: malformed output\n{traceback.format_exc()}",
                  file=sys.stderr)
            return False
        ok, q = self._verdicts[key]
        if not ok:
            print(f"{case.key}: wrong answer {q}", file=sys.stderr)
        return ok

    def summary(self) -> dict:
        """Worst and median error per (precision, quantity) over distinct outputs."""
        groups = defaultdict(list)
        for precision, q in self.qualities:
            for k, v in q.items():
                groups[f"{precision}.{k}_u"].append(v)
        return {k: {"max": max(v), "median": statistics.median(v), "n": len(v)}
                for k, v in sorted(groups.items())}


# -- measurement -----------------------------------------------------------------
@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


def attempt(repro, case: Case, gate: Gate, tally: Tally, around=nullcontext):
    """One call: time it, then check its output.  Returns (seconds, out).

    ``seconds`` is None when the call raised or gave a wrong answer.
    """
    tally.attempted += 1
    try:
        with around():
            t0 = time.perf_counter()
            out = run_case(repro, case)
            dt = time.perf_counter() - t0
    except Exception:  # the loop must go on; the failure is counted
        tally.failed += 1
        print(f"{case.key}: call raised\n{traceback.format_exc()}", file=sys.stderr)
        return None, None
    if not gate.check(case, out):
        tally.failed += 1
        return None, out
    return dt, out


def within(rounds, seconds: float, run_round) -> float:
    """Run whole rounds while the next one is expected to end in time."""
    t_start = time.perf_counter()
    done = 0
    for rnd in rounds:
        elapsed = time.perf_counter() - t_start
        if done and elapsed + elapsed / done > seconds:
            break
        run_round(rnd)
        done += 1
    return time.perf_counter() - t_start


def measure(repro, wl: Workload, seconds: float, gate: Gate, tally: Tally,
            setup_reps: int = SETUP_REPS) -> dict:
    """The untraced closed loop, with the set-up probes spread through it.

    ``solve_s_min`` is each stratum's fastest call time, averaged over
    strata.  On a shared host, contention comes in bursts of a few seconds
    and only ever adds time, so the fastest of many calls tracks the
    solver's own cost; the median tracks the neighbours' load as much.
    ``setup_s`` is the median of ``setup_reps`` fresh-interpreter probes
    run between rounds, evenly spaced over the run, so one burst cannot
    move them all at once.
    """
    probe = SETUP_PROBE.format(call=wl.cases[0].probe())
    setup: list[float] = []
    attempt(repro, wl.cases[0], gate, tally)  # warm-up, untimed
    samples = defaultdict(list)
    t_start = time.perf_counter()

    def run_round(rnd):
        while (len(setup) < setup_reps and time.perf_counter() - t_start
               >= len(setup) * seconds / setup_reps):
            setup.append(setup_seconds(probe))
        for i in rnd:
            dt, _ = attempt(repro, wl.cases[i], gate, tally)
            if dt is not None:
                samples[wl.cases[i].key].append(dt)

    elapsed = within(wl.rounds(), seconds, run_round)
    while len(setup) < setup_reps:
        setup.append(setup_seconds(probe))
    return {
        "solve_s_min": fastest_per_stratum(samples),
        "setup_s": statistics.median(setup),
        "detail": {"measured_s": elapsed, "samples_s": dict(sorted(samples.items())),
                   "setup_samples_s": setup},
    }


def fastest_per_stratum(samples: dict) -> "float | None":
    """Each stratum's fastest time, averaged over strata."""
    return statistics.fmean(min(v) for v in samples.values()) if samples else None


def setup_seconds(probe: str) -> float:
    """One fresh interpreter: ``import repro`` plus a first 64x64 call."""
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def floor_seconds(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def floors(case: Case, band, de) -> dict[str, float]:
    """scipy's LAPACK on the same matrix, band, and (d, e)."""
    only = not case.vectors
    solve = (lambda: sla.eigvalsh(case.a)) if only else (lambda: sla.eigh(case.a))
    ab = lower_band(np.asarray(band, dtype=np.float64), case.b)
    out = {
        "floor.solve_s": floor_seconds(solve),
        "floor.band_s": floor_seconds(
            lambda: sla.eig_banded(ab, lower=True, eigvals_only=only)),
        "floor.tridiag_s": 0.0,
    }
    if de is not None:
        out["floor.tridiag_s"] = floor_seconds(
            lambda: sla.eigh_tridiagonal(de[0], de[1], eigvals_only=only))
    return out


def layer_errors(case: Case, out, band) -> dict[str, float]:
    """Eigenvalue error added by SBR (band vs A, in the call's ``u``) and by
    stage 2 plus the tridiagonal solve (result vs band, in fp64 ``u``)."""
    lam_band = band_eigvals(band, case.b)
    err = {"sbr.err_u": float(np.abs(lam_band - case.ref).max())
           / (case.norm * U[case.precision]), "stage2.err_u": 0.0}
    if case.kind == "evd":
        lam = np.sort(np.asarray(out.eigenvalues, dtype=np.float64))
        err["stage2.err_u"] = float(np.abs(lam - lam_band).max()) / (case.norm * U["fp64"])
    return err


def engine_overhead_us(repro, reps: int = 2000, repeats: int = 5) -> float:
    """Per-launch cost of an 8x8 fp64 ``engine.gemm`` over a bare ``@``."""
    x = np.ones((8, 8))
    eng = repro.make_engine("fp64")

    def per_call(fn):
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            runs.append((time.perf_counter() - t0) / reps)
        return min(runs)

    return (per_call(lambda: eng.gemm(x, x)) - per_call(lambda: x @ x)) * 1e6


def traced_pass(repro, wl: Workload, seconds: float, gate: Gate, tally: Tally,
                trace_path=None) -> dict:
    """Paired untraced/traced calls over whole rounds; per-layer numbers.

    Like ``solve_s_min``, the layer times come from the fastest traced
    call of each stratum, averaged over strata, so they add up to a call
    comparable with the untraced one.  Floors and layer errors are means
    over the distinct inputs.
    """
    attempt(repro, wl.cases[0], gate, tally)  # warm-up, untimed
    tracer = Tracer()
    plain = defaultdict(list)
    seen = {}

    @contextmanager
    def traced(case):
        with tracer.installed(repro), tracer.call(case.key):
            yield

    def run_round(rnd):
        for i in rnd:
            case = wl.cases[i]
            dt_plain, _ = attempt(repro, case, gate, tally)
            dt_traced, out = attempt(repro, case, gate, tally,
                                     around=lambda: traced(case))
            if dt_plain is None or dt_traced is None:
                continue
            plain[case.key].append(dt_plain)
            bulge = tracer.outputs.get("bulge")
            seen.setdefault(id(case), (case, out, tracer.outputs["sbr"].band,
                                       None if bulge is None else bulge[:2]))

    within(wl.rounds(traced=True), seconds, run_round)
    if trace_path is not None:
        tracer.write(trace_path)
    fastest = {}
    for span in tracer.spans:
        if span["name"] == "call":
            best = fastest.get(span["key"])
            if best is None or span["end"] - span["start"] < best["end"] - best["start"]:
                fastest[span["key"]] = span
    keep = {span["call"] for span in fastest.values()}
    metrics = layer_metrics([s for s in tracer.spans if s["call"] in keep])
    per_case = [{**floors(case, band, de), **layer_errors(case, out, band)}
                for case, out, band, de in seen.values()]
    for k in per_case[0]:
        metrics[k] = statistics.fmean(c[k] for c in per_case)
    plain_s = fastest_per_stratum(plain)
    metrics["solve.x_floor"] = plain_s / metrics["floor.solve_s"]
    metrics["stage2.x_floor"] = (
        (metrics["bulge.wall_s"] + metrics["tridiag.wall_s"]) / metrics["floor.band_s"])
    metrics["tridiag.x_floor"] = (
        metrics["tridiag.wall_s"] / metrics["floor.tridiag_s"]
        if metrics["floor.tridiag_s"] else 0.0)
    metrics["trace.overhead_frac"] = metrics["call.wall_s"] / plain_s - 1.0
    metrics["gemm.overhead_us"] = engine_overhead_us(repro)
    return metrics


# -- environment -------------------------------------------------------------------
def child_env() -> dict:
    env = {**os.environ, **THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_repro():
    """Import the checkout's ``src/repro``; None when it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return None
    return repro


def _git_commit() -> "str | None":
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return " ".join(str(blas.get(k, "")) for k in ("name", "version",
                                                    "openblas configuration"))


def fingerprint() -> dict:
    """The host and software a result was measured on."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# -- entry points --------------------------------------------------------------------
def emit(values: dict, section: str) -> dict:
    """Every metric of ``BENCHMARK.json``'s section, with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec()[section]}


def run_one(repro, wl: Workload, seconds: float, trace: bool,
            trace_path=None, setup_reps: int = SETUP_REPS) -> dict:
    """One pass over a workload: the result object the last line prints."""
    gate, tally = Gate(), Tally()
    if trace:
        values = traced_pass(repro, wl, seconds, gate, tally, trace_path)
        detail = {}
        section = "per_layer"
    else:
        res = measure(repro, wl, seconds, gate, tally, setup_reps)
        values = {
            "solve_s_min": res["solve_s_min"],
            "setup_s": res["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail = res["detail"]
        section = "end_to_end"
    detail["quality"] = gate.summary()
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": emit(values, section),
            "detail": detail}


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """``run_one`` in a fresh interpreter; its result line, plus detail."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    detail = [ln for ln in lines if ln.startswith("detail ")]
    result["detail"] = json.loads(detail[-1][len("detail "):]) if detail else {}
    return result


def print_metrics(name: str, metrics: dict) -> None:
    for metric, mv in metrics.items():
        print(f"{name:20s} {metric:28s} {mv['value']:.6g} {mv['unit']}")


def main(argv=None) -> int:
    names = [w["name"] for w in spec()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, action="append",
                    help="workload to run (repeatable; default: all with --out)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="run every pass of the workloads into FILE")
    args = ap.parse_args(argv)

    repro = load_repro()
    if repro is None:
        print(f"no importable repro package under {SRC}", file=sys.stderr)
        return 2

    if args.out is None:
        if not args.workload or len(args.workload) != 1:
            ap.error("give exactly one --workload, or --out FILE")
        name = args.workload[0]
        trace_path = None
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            trace_path = OUT_DIR / f"trace-{name}-seed{args.seed}.jsonl"
        res = run_one(repro, make_workload(repro, name, args.seed), args.seconds,
                      bool(args.trace), trace_path)
        print_metrics(name, res["metrics"])
        print("detail " + json.dumps(res.pop("detail"), sort_keys=True))
        print(json.dumps(res))
        return 0 if res["correct"] else 1

    report = {"seed": args.seed, "seconds": args.seconds,
              "fingerprint": fingerprint(), "workloads": {}}
    ok = True
    for name in args.workload or names:
        plain = run_child(name, args.seed, args.seconds, False)
        traced = run_child(name, args.seed, args.seconds, True)
        report["workloads"][name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "metrics": plain["metrics"], "detail": plain["detail"],
            "trace": {"attempted": traced["attempted"], "failed": traced["failed"],
                      "metrics": traced["metrics"]},
        }
        ok = ok and report["workloads"][name]["correct"]
        print(f"{name:20s} attempted {plain['attempted']} failed {plain['failed']}")
        print_metrics(name, plain["metrics"])
        print_metrics(name, traced["metrics"])
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
