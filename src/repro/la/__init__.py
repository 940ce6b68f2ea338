"""Dense linear-algebra kernels built from scratch on NumPy.

This package is the substrate beneath the band-reduction algorithms:

- :mod:`~repro.la.householder` — Householder reflector generation and
  application (the BLAS2 core).
- :mod:`~repro.la.wy` — WY accumulation of reflector products (Bischof &
  Van Loan 1987).
- :mod:`~repro.la.qr` — unblocked and blocked Householder QR (the panel
  ablation baselines).
- :mod:`~repro.la.tsqr` — communication-avoiding Tall-Skinny QR with
  Householder local factorizations (LAPACK ``geqrf`` + ``orgqr``; paper
  §5.1).
- :mod:`~repro.la.reconstruct` — Householder-vector reconstruction from an
  explicit Q via non-pivoted LU (Ballard et al. 2014; paper Algorithm 3).
- :mod:`~repro.la.band` — symmetric band storage and verification helpers.
- :mod:`~repro.la.tridiagonal` — dense assembly of a tridiagonal matrix.
"""

from .householder import (
    apply_reflector_left,
    make_reflector,
    reflector_matrix,
)
from .wy import build_wy, wy_matrix
from .qr import blocked_qr, householder_qr
from .recursive_qr import recursive_qr, trace_recursive_qr
from .tsqr import tsqr
from .reconstruct import reconstruct_wy
from .band import (
    band_to_dense,
    bandwidth_of,
    extract_band,
    is_banded,
    to_symmetric_band_storage,
)
from .tridiagonal import tridiag_to_dense

__all__ = [
    "make_reflector",
    "apply_reflector_left",
    "reflector_matrix",
    "build_wy",
    "wy_matrix",
    "householder_qr",
    "blocked_qr",
    "recursive_qr",
    "trace_recursive_qr",
    "tsqr",
    "reconstruct_wy",
    "bandwidth_of",
    "extract_band",
    "band_to_dense",
    "is_banded",
    "to_symmetric_band_storage",
    "tridiag_to_dense",
]
