#!/usr/bin/env python3
"""Compare two benchmark result files under the bounds of ``BENCHMARK.json``.

    python3 bench/compare.py A.json B.json [--runs-a A2.json ...] [--runs-b B2.json ...]

``A`` is the baseline, ``B`` the candidate; each side may bring extra
runs.  For every (workload, end-to-end metric) pair the side's median is
compared and the change is judged against the metric's bound:

- ``worse``: B's median is worse than A's by more than the bound (a breach);
- ``better`` / ``same``: better by more than the bound / within it;
- ``unresolved``: the spread of one side's own runs, (max - min) / median,
  exceeds the bound, so a change of that size cannot be told from noise,
  unless every B run is better than every A run.

A candidate that fails more calls than the baseline is a breach too.  One
row is printed per workload.  Exits 1 on a breach or when the two sides
were measured on different hosts or software (the environment
fingerprint), else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fingerprint fields that must match; commit and source digest may differ.
ENV_KEYS = ("nproc", "cpu_count", "machine", "python", "numpy", "scipy",
            "blas", "threads")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better" if sign * (med_b - med_a) < -bound * abs(med_a) else "same"
    for side, med in ((a, med_a), (b, med_b)):
        if len(side) > 1 and (max(side) - min(side)) > bound * abs(med):
            return "unresolved"
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if worse > bound:
        return "worse"
    return "better" if worse < -bound else "same"


def compare(side_a: list[dict], side_b: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Table rows, and whether any pair breached its bound."""
    rows, breach = [], False
    for wl in spec["workloads"]:
        name = wl["name"]
        res_a = [r["workloads"][name] for r in side_a if name in r["workloads"]]
        res_b = [r["workloads"][name] for r in side_b if name in r["workloads"]]
        if not res_a or not res_b:
            rows.append(f"{name}: missing on one side")
            breach = True
            continue
        cells = []
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in res_a]
            b = [r["metrics"][m["name"]]["value"] for r in res_b]
            v = verdict(a, b, m["better"], m["bound"])
            breach |= v == "worse"
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / med_a * 100 if med_a else 0.0
            cells.append(f"{m['name']} {med_a:.4g}->{med_b:.4g} {m['unit']} "
                         f"({change:+.1f}%, bound {m['bound']:.0%}) {v}")
        failed_a = max(r["failed"] for r in res_a)
        failed_b = max(r["failed"] for r in res_b)
        if failed_b > failed_a:
            breach = True
            cells.append(f"failed {failed_a}->{failed_b} worse")
        rows.append(f"{name}: " + " | ".join(cells))
    return rows, breach


def fingerprint_mismatch(results: list[dict]) -> list[str]:
    first = results[0]["fingerprint"]
    return [k for k in ENV_KEYS
            if any(r["fingerprint"].get(k) != first.get(k) for r in results[1:])]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="baseline result file (bench/run.py --out)")
    ap.add_argument("b", help="candidate result file")
    ap.add_argument("--runs-a", nargs="*", default=[], help="more baseline runs")
    ap.add_argument("--runs-b", nargs="*", default=[], help="more candidate runs")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def load(paths):
        return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]

    side_a = load([args.a, *args.runs_a])
    side_b = load([args.b, *args.runs_b])
    rows, breach = compare(side_a, side_b, spec)
    print("\n".join(rows))
    mismatch = fingerprint_mismatch(side_a + side_b)
    if mismatch:
        print("environment fingerprint differs: " + ", ".join(mismatch))
    return 1 if breach or mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
