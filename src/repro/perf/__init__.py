"""Performance layer: workspace arena and hot-path helpers.

This package holds the machinery that takes the SBR/EVD hot loops'
per-iteration scratch allocations out of the loops without changing
their numerics:

- :mod:`~repro.perf.workspace` — the :class:`Workspace` scratch-buffer
  arena threaded through ``sbr_wy``/``sbr_zy``, the EC-TCGEMM split
  path, and the TSQR tree; its allocation counters surface as the
  ``alloc`` line of run manifests (see ``docs/performance.md``).
"""

from .workspace import NullWorkspace, Workspace, call_arena, resolve_workspace

__all__ = ["Workspace", "NullWorkspace", "call_arena", "resolve_workspace"]
