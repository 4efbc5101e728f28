"""Crash-safe file writes: temp file + fsync + atomic rename.

One helper, shared by every durable artifact the repo produces —
checkpoint ``.npz`` archives (:mod:`repro.train.checkpoint`), Chrome
traces (:meth:`repro.obs.Tracer.write_chrome`), Prometheus text and
flight-recorder JSONL exports (:mod:`repro.obs.export`).  The contract is
the one the checkpoint layer has always honoured: a crash at any point
leaves either the complete old file or the complete new file, never a
truncated hybrid, because the data is staged under a temp name in the
*same directory* (so the rename cannot cross filesystems), fsynced, and
then moved into place with ``os.replace`` (atomic on POSIX).

This module is intentionally stdlib-only and import-free within the
repo, so :mod:`repro.obs` can use it without creating an import cycle
(``repro.resilience.faults`` imports the obs hooks).
"""

from __future__ import annotations

import os

__all__ = ["atomic_write"]


def atomic_write(path: str, data: bytes | str) -> str:
    """Write ``data`` to ``path`` atomically; returns ``path``.  The temp
    file is flushed and fsynced before the rename; on any exception it is
    removed and the destination is left untouched."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path
