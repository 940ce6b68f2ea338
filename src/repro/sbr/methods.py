"""The stage-1 band-reduction methods, one row per name.

``"wy"`` is the paper's Algorithm 1 (:func:`repro.sbr.wy.sbr_wy`);
``"zy"`` is the conventional ZY reduction inside MAGMA's
``ssytrd_sy2sb`` (:func:`repro.sbr.zy.sbr_zy`).  A :class:`SbrMethod`
row holds the reduction, its symbolic GEMM trace, its flop count and
whether it takes the big-block size ``nb``; :func:`default_nb` is the
one default for ``nb``.  The two-stage drivers, the performance model,
the live progress plan, manifest attribution, the
obs/ckpt CLIs and serve admission all look names up here, through
:func:`sbr_method` or :data:`SBR_METHODS`.

A row names its reduction instead of holding the function: the
benchmark's tracer times stage 1 by replacing the module attributes
``sbr_wy``/``sbr_zy`` in every ``repro`` module, so :meth:`SbrMethod.reduce`
reads this module's attribute on every call.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..gemm.symbolic import trace_sbr_wy, trace_sbr_zy
from ..metrics.flops import sbr_wy_flops, sbr_zy_flops
from .wy import sbr_wy  # noqa: F401  (read by name in SbrMethod.function)
from .zy import sbr_zy  # noqa: F401

__all__ = ["SbrMethod", "METHODS", "SBR_METHODS", "default_nb", "sbr_method"]


def default_nb(b: int) -> int:
    """The WY big-block size used when none is given: ``4 * b``."""
    return 4 * b


@dataclass(frozen=True)
class SbrMethod:
    """One stage-1 method: how to run, trace and count it.

    ``reduction`` names the function in this module; ``trace_fn`` and
    ``flops_fn`` are its :mod:`repro.gemm.symbolic` and
    :mod:`repro.metrics.flops` counterparts.  ``nb`` reaches the three
    only when ``takes_nb``.
    """

    name: str
    takes_nb: bool
    reduction: str
    trace_fn: Callable
    flops_fn: Callable

    def _sizes(self, b: int, nb: "int | None") -> tuple:
        return (b, nb) if self.takes_nb else (b,)

    @property
    def function(self) -> Callable:
        """The reduction, read off this module on every access."""
        return globals()[self.reduction]

    def reduce(self, a, b: int, nb: "int | None", **kwargs):
        """Run the reduction on ``a``; returns its :class:`~repro.sbr.types.SbrResult`."""
        return self.function(a, *self._sizes(b, nb), **kwargs)

    def trace(self, n: int, b: int, nb: "int | None", **kwargs):
        """The reduction's symbolic GEMM stream (a ``GemmTrace``)."""
        return self.trace_fn(n, *self._sizes(b, nb), **kwargs)

    def flops(self, n: int, b: int, nb: "int | None", **kwargs) -> int:
        """The reduction's analytic flop count."""
        return self.flops_fn(n, *self._sizes(b, nb), **kwargs)


METHODS: "dict[str, SbrMethod]" = {
    row.name: row for row in (
        SbrMethod("wy", True, "sbr_wy", trace_sbr_wy, sbr_wy_flops),
        SbrMethod("zy", False, "sbr_zy", trace_sbr_zy, sbr_zy_flops),
    )
}

#: The method names, in table order (argparse ``choices``).
SBR_METHODS = tuple(METHODS)


def sbr_method(name: str) -> SbrMethod:
    """The row for ``name``; :class:`~repro.errors.ConfigurationError` if unknown."""
    try:
        return METHODS[name]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"method must be one of {', '.join(map(repr, SBR_METHODS))}, "
            f"got {name!r}"
        ) from None
