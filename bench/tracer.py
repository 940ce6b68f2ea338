"""Outside-in span tracing for the benchmark's traced pass.

The benchmark times layers from outside the library: :class:`Tracer`
temporarily replaces the public layer functions (``sbr_wy``, ``sbr_zy``,
``bulge_chase``, ``tridiag_eig_dc``, ``tridiag_eig_ql``,
``eigvals_bisect``) in every loaded ``repro.*`` namespace, and the
launch methods of every ``GemmEngine`` class (``gemm``,
``gemm_batched``, ``syr2k``, ``prepare_operand``), with wrappers that
record spans.  Nothing inside ``src/`` is edited; :meth:`Tracer.installed`
puts every original object back on exit.

A span is ``(id, parent, call, name, start, end)`` plus attributes.  The
benchmark opens one ``call`` span per solver invocation; layer spans
(``sbr``, ``bulge``, ``tridiag``) nest under it and ``gemm`` spans under
those.  Only the outermost span of a layer, and only the outermost engine
launch, is recorded, so a layer that calls itself (D&C calling QL on its
leaves) or an engine that calls another engine is counted once.  Every
per-layer number is derived from the span list by :func:`layer_metrics`.

Spans are kept on one stack, so the traced calls must run serially on
one thread (the solver defaults do).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

#: Public layer functions wrapped in the traced pass, and their layer.
LAYER_FUNCS = {
    "sbr_wy": "sbr",
    "sbr_zy": "sbr",
    "bulge_chase": "bulge",
    "tridiag_eig_dc": "tridiag",
    "tridiag_eig_ql": "tridiag",
    "eigvals_bisect": "tridiag",
}
LAYERS = ("sbr", "bulge", "tridiag")

#: SBR GEMM time is split by the ``tag=`` each engine launch receives.
#: Tags missing here still count toward ``sbr.gemm_s``.
SBR_TAG_GROUPS = {
    "panel": ("panel_tsqr", "panel_reconstruct", "qr_formq", "qr_trailing"),
    "form_w": ("form_w",),
    "oaw": ("wy_oaw", "sbr_OA"),
    "partial_update": ("wy_right", "wy_left", "sbr_strip"),
    "full_update": ("wy_full_right", "wy_full_left"),
    "form_q": ("formw", "form_q"),
}
_GROUP_OF_TAG = {t: g for g, tags in SBR_TAG_GROUPS.items() for t in tags}


def _dims(x) -> tuple:
    # Prepared EC operands carry the source array as ``.array``.
    return np.shape(getattr(x, "array", x))


def gemm_flop(a, b, *, ta=False, tb=False, **_) -> int:
    """Computed flops of ``op(a) @ op(b)``: ``2 m n k``."""
    m, k = _dims(a)[::-1] if ta else _dims(a)
    n = _dims(b)[0] if tb else _dims(b)[1]
    return 2 * m * n * k


def gemm_batched_flop(a, b, *, ta=False, tb=False, **_) -> int:
    """Computed flops of a strided batch: ``2 batch m n k``."""
    batch, m, k = _dims(a)
    if ta:
        m, k = k, m
    n = _dims(b)[1] if tb else _dims(b)[2]
    return 2 * batch * m * n * k


def syr2k_flop(y, z, **_) -> int:
    """Computed flops of ``Y Z^T + Z Y^T`` at the engine's convention: ``2 m m k``."""
    m, k = _dims(y)
    return 2 * m * m * k


def prepare_flop(a, **_) -> int:
    """An operand split performs no multiply-adds."""
    return 0


ENGINE_METHODS = {
    "gemm": gemm_flop,
    "gemm_batched": gemm_batched_flop,
    "syr2k": syr2k_flop,
    "prepare_operand": prepare_flop,
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._call = -1
        self._epoch = time.perf_counter()
        #: Last return value of each layer in the current call (the
        #: benchmark runs LAPACK floors on the same band and (d, e)).
        self.outputs: dict = {}

    # -- spans ----------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1]["id"] if self._stack else None
        rec = {"id": len(self.spans), "parent": parent, "call": self._call,
               "name": name, **attrs}
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter() - self._epoch
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._epoch
            self._stack.pop()

    @contextmanager
    def call(self, key: str):
        """One solver invocation: the root of a span tree."""
        self._call += 1
        self.outputs = {}
        with self.span("call", key=key) as rec:
            yield rec

    def _inside(self, name: str) -> bool:
        return any(s["name"] == name for s in self._stack)

    # -- wrappers -------------------------------------------------------------
    def _wrap_layer(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._inside(layer):
                return fn(*args, **kwargs)
            with self.span(layer, func=fn.__name__):
                out = fn(*args, **kwargs)
            self.outputs[layer] = out
            return out
        return traced

    def _wrap_launch(self, method, op: str, flop):
        @functools.wraps(method)
        def traced(engine, *args, **kwargs):
            if self._inside("gemm"):
                return method(engine, *args, **kwargs)
            with self.span("gemm", op=op, tag=kwargs.get("tag", ""),
                           flop=flop(*args, **kwargs)):
                return method(engine, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self, repro):
        """Install the wrappers for the duration of the block, then restore."""
        originals = {
            id(fn): (fn, self._wrap_layer(fn, layer))
            for fn, layer in ((getattr(repro, name), layer)
                              for name, layer in LAYER_FUNCS.items())
        }
        undo = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, value))
        classes, todo = [], [repro.GemmEngine]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for op, flop in ENGINE_METHODS.items():
                method = cls.__dict__.get(op)
                if method is not None:
                    setattr(cls, op, self._wrap_launch(method, op, flop))
                    undo.append((cls, op, method))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def write(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-call means of the per-layer numbers, derived from the spans."""
    by_id = {s["id"]: s for s in spans}
    calls = [s for s in spans if s["name"] == "call"]
    ncalls = max(len(calls), 1)

    def layer_of(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] in LAYERS:
                return s["name"]
        return None

    def dur(s):
        return s["end"] - s["start"]

    wall = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s["name"] in LAYERS:
            wall[s["name"]] += dur(s)
    gemm = {layer: [0.0, 0, 0] for layer in (*LAYERS, None)}  # s, launches, flop
    groups = {g: 0.0 for g in SBR_TAG_GROUPS}
    for s in spans:
        if s["name"] != "gemm":
            continue
        layer = layer_of(s)
        acc = gemm[layer]
        acc[0] += dur(s)
        acc[1] += 1
        acc[2] += s["flop"]
        group = _GROUP_OF_TAG.get(s["tag"])
        if group is not None and layer == "sbr":
            groups[group] += dur(s)
    own = self_times(spans)
    out = {
        "call.wall_s": sum(dur(c) for c in calls),
        "driver.self_s": sum(own[c["id"]] for c in calls),
        "sbr.wall_s": wall["sbr"],
        "sbr.gemm_s": gemm["sbr"][0],
        "sbr.nongemm_s": wall["sbr"] - gemm["sbr"][0],
        "sbr.launches": gemm["sbr"][1],
        "sbr.gflop": gemm["sbr"][2] / 1e9,
        "bulge.wall_s": wall["bulge"],
        "bulge.nongemm_s": wall["bulge"] - gemm["bulge"][0],
        "bulge.launches": gemm["bulge"][1],
        "tridiag.wall_s": wall["tridiag"],
        "gemm.launches": sum(v[1] for v in gemm.values()),
        "gemm.s": sum(v[0] for v in gemm.values()),
    }
    for g, secs in groups.items():
        out[f"sbr.{g}.gemm_s"] = secs
    out = {k: v / ncalls for k, v in out.items()}
    out["sbr.gemm_gflops"] = (
        gemm["sbr"][2] / gemm["sbr"][0] / 1e9 if gemm["sbr"][0] else 0.0
    )
    out["gemm.s_per_launch"] = (
        out["gemm.s"] / out["gemm.launches"] if out["gemm.launches"] else 0.0
    )
    return out
