"""Exhaustive check of the EC split kernel against NumPy's float16 cast.

Runs every float32 bit pattern (or every ``--step``-th) through
:func:`repro.precision.split_fp16_into` and compares ``hi`` with
``cast(x)`` and ``lo`` with ``cast((x - hi) * 2^11)`` bit for bit, where
``cast`` is NumPy's float16 cast, back to float32 (a NaN matches any
NaN).  It checks the EC-TCGEMM split,
:func:`repro.precision.rounding.ec_split_into`, the same way, against
``cast((x - hi) * 2^11) * 2^-11``.  The cast is spelled out rather than
taken from ``round_fp16``, which uses the same kernel as the split for
large arrays.  The pattern space can be cut into ``--shards`` equal
shards, one per process::

    PYTHONPATH=src python tests/sweep_split_fp16.py --shard 0 --shards 4

Exits 1 and prints the first mismatching patterns if any differ.  The
whole space, both splits, took about 1,640 s (27 minutes) in one process
on a 2.4 GHz Xeon; ``--step 1009`` takes a few seconds.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.precision.rounding import OOTOMO_SCALE, ec_split_into, split_fp16_into

SPACE = 1 << 32
#: Patterns per NumPy batch (about 40 bytes of arrays each).
CHUNK = 1 << 22


def cast(x: np.ndarray) -> np.ndarray:
    """NumPy's float16 cast of float32 ``x``, back to float32: the oracle."""
    return x.astype(np.float16).astype(np.float32)


def mismatches(x: np.ndarray, hi: np.ndarray, lo: np.ndarray, *,
               descaled: bool = False) -> np.ndarray:
    """Indices where ``(hi, lo)`` is not bitwise the NumPy-cast split of
    ``x`` (with ``descaled``, the split whose ``lo`` is stored times 2^-11)."""
    ref_hi = cast(x)
    ref_lo = cast((x - ref_hi) * np.float32(OOTOMO_SCALE))
    if descaled:
        ref_lo *= np.float32(1 / OOTOMO_SCALE)
    bad = np.zeros(x.shape, bool)
    for got, ref in ((hi, ref_hi), (lo, ref_lo)):
        same = got.view(np.uint32) == ref.view(np.uint32)
        bad |= ~(same | (np.isnan(got) & np.isnan(ref)))
    return np.flatnonzero(bad)


def sweep(start: int, stop: int, *, step: int = 1) -> int:
    """Check patterns ``start, start+step, ... < stop``; return the mismatch count."""
    hi = np.empty(CHUNK, np.float32)
    lo = np.empty(CHUNK, np.float32)
    found = 0
    for lo_bits in range(start, stop, CHUNK * step):
        hi_bits = min(lo_bits + CHUNK * step, stop)
        bits = np.arange(lo_bits, hi_bits, step, dtype=np.uint64).astype(np.uint32)
        x = bits.view(np.float32)
        for split, descaled in ((split_fp16_into, False), (ec_split_into, True)):
            with np.errstate(all="ignore"):
                split(x, hi[:x.size], lo[:x.size])
                bad = mismatches(x, hi[:x.size], lo[:x.size], descaled=descaled)
            for i in bad[: max(0, 10 - found)]:
                print(f"{split.__name__} mismatch at 0x{int(bits[i]):08x}: "
                      f"x={x[i]!r} hi={hi[i]!r} lo={lo[i]!r}", file=sys.stderr)
            found += bad.size
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shard", type=int, default=0)
    ap.add_argument("--shards", type=int, default=1)
    ap.add_argument("--step", type=int, default=1,
                    help="check every STEP-th pattern (1: all of them)")
    args = ap.parse_args(argv)
    if not 0 <= args.shard < args.shards:
        ap.error("need 0 <= --shard < --shards")
    start = SPACE * args.shard // args.shards
    stop = SPACE * (args.shard + 1) // args.shards
    start += -(start % args.step) % args.step  # keep one global lattice
    t0 = time.perf_counter()
    found = sweep(start, stop, step=args.step)
    checked = len(range(start, stop, args.step))
    print(f"shard {args.shard}/{args.shards}: {checked} patterns, "
          f"{found} mismatches, {time.perf_counter() - t0:.0f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
