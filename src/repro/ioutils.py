"""Crash-safe file persistence primitives shared across the library.

Every durable artifact the library writes — checkpoints and run
manifests — goes through the same commit protocol: write the full
payload to a temporary file *in the destination directory*, flush and
``fsync`` it, then ``os.replace`` it over the final name.  ``os.replace``
is atomic on POSIX and Windows, so a reader (or a restarted run) sees
either the old complete file or the new complete file — never a torn
prefix of the new one.  A crash before the replace leaves at most a
``*.tmp-*`` orphan, which :func:`sweep_orphans` removes.

This module depends only on the standard library so :mod:`repro.obs` and
:mod:`repro.ckpt` can both import it without cycles.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import tempfile
import threading
import zlib

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "append_jsonl",
    "file_crc32",
    "sweep_orphans",
    "sigterm_as_interrupt",
]

#: Suffix marker of in-flight temporary files (see :func:`sweep_orphans`).
TMP_MARKER = ".tmp-"


def atomic_write_bytes(path: str, data: bytes, *, fsync: bool = True) -> str:
    """Atomically replace ``path`` with ``data`` (returns ``path``).

    The payload lands in a same-directory temp file first so the final
    ``os.replace`` never crosses a filesystem boundary.  ``fsync=False``
    skips the durability flush for artifacts where torn-write protection
    matters but power-loss durability does not (e.g. report files a CI
    job immediately re-reads).
    """
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=parent, prefix=os.path.basename(path) + TMP_MARKER
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: str, text: str, *, fsync: bool = True) -> str:
    """Atomically replace ``path`` with UTF-8 ``text`` (returns ``path``)."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(path: str, obj, *, indent: int | None = None,
                      fsync: bool = True) -> str:
    """Atomically serialize ``obj`` as JSON to ``path`` (returns ``path``).

    Serialization happens fully in memory before any byte reaches disk,
    so a ``TypeError`` from an unserializable object can never leave a
    half-written file behind.
    """
    payload = json.dumps(obj, indent=indent, sort_keys=False)
    if not payload.endswith("\n"):
        payload += "\n"
    return atomic_write_text(path, payload, fsync=fsync)


def append_jsonl(path: str, obj, *, fsync: bool = False) -> str:
    """Append one JSON object as a complete line to a stream file.

    The line is serialized fully in memory, then written in a single
    ``write`` call ending in ``\\n`` and flushed, so concurrent readers
    of the stream see only whole lines plus at most one torn *final*
    line after a crash mid-write.  Stream consumers (the metrics JSONL
    validator, the manifest loader) must therefore tolerate a torn last
    line — that is the whole crash-safety contract for append-only
    streams, as opposed to the replace-based protocol above for
    single-object artifacts.
    """
    payload = json.dumps(obj, sort_keys=False) + "\n"
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(payload)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    return path


def file_crc32(path: str, *, chunk: int = 1 << 20) -> int:
    """CRC32 of a file's bytes (the checkpoint payload checksum)."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                return crc & 0xFFFFFFFF
            crc = zlib.crc32(block, crc)


def sweep_orphans(directory: str) -> list[str]:
    """Remove in-flight temp files a crashed writer left behind.

    Returns the paths removed.  Only files carrying the
    :data:`TMP_MARKER` infix are touched — committed artifacts are never
    candidates.
    """
    removed: list[str] = []
    if not os.path.isdir(directory):
        return removed
    for name in os.listdir(directory):
        if TMP_MARKER in name:
            path = os.path.join(directory, name)
            try:
                os.unlink(path)
                removed.append(path)
            except OSError:
                pass
    return removed


@contextlib.contextmanager
def sigterm_as_interrupt():
    """Convert SIGTERM into ``KeyboardInterrupt`` inside this block.

    Long-running entry points (the checkpoint CLI, the serving worker
    loop) wrap their work in this so an orchestrator's polite kill takes
    the same graceful path as Ctrl-C: the SBR drivers flush a committed
    checkpoint and re-raise, leaving the run directory resumable.

    Signal handlers are process-global and can only be installed from
    the main thread; anywhere else this is a documented no-op (worker
    *threads* already receive the main thread's ``KeyboardInterrupt``
    path via their job's cancellation token instead).  The previous
    handler is restored on exit.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt("SIGTERM")

    previous = signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
