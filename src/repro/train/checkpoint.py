"""Checkpointing: model weights, optimizer state, and EMA shadow weights.

One format (:func:`write_sharded_checkpoint` /
:func:`read_sharded_checkpoint` over the training engine's
``state_payload`` / ``restore``): a directory of per-group ``.npz``
shards plus a ``manifest.json`` carrying a CRC32 per array.  The
directory is staged under a temp name and renamed into place (an
overwritten generation is moved aside first and put back if the rename
fails); loads verify every array against the manifest and raise
:class:`CheckpointCorruption` on any mismatch, which the elastic
supervisor treats as "fall back to the previous checkpoint".

Typed errors: :class:`CheckpointError` for structural problems (missing
directory, a generation without optimizer state, a generation of another
model or whose moments or EMA do not fit),
:class:`CheckpointCorruption` (a subclass) for integrity failures.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

from ..obs.profile import count as _count
from ..obs.profile import record_event as _record_event
from ..resilience.checksum import payload_checksum, state_digest

__all__ = [
    "CheckpointError", "CheckpointCorruption", "MANIFEST_NAME",
    "checkpoint_lineage", "write_sharded_checkpoint",
    "read_sharded_checkpoint", "inspect_sharded_checkpoint",
    "list_checkpoints", "prune_checkpoints", "newest_valid_checkpoint",
]

MANIFEST_NAME = "manifest.json"
#: marks a save's staging / moved-aside directory; never a generation.
_STAGING = ".tmp."


class CheckpointError(RuntimeError):
    """A checkpoint is missing, incomplete, or structurally wrong."""


class CheckpointCorruption(CheckpointError):
    """A checkpoint failed integrity verification (checksum / unreadable)."""


# -- sharded format (manifest + per-array checksums) ---------------------------
def write_sharded_checkpoint(directory: str,
                             shards: dict[str, dict[str, np.ndarray]],
                             extra: dict | None = None) -> str:
    """Write shard groups (``{shard_name: {array_name: array}}``) plus a
    manifest with per-array CRC32s; the whole directory appears
    atomically (staged as ``<directory>.tmp.<pid>``, then renamed).  A
    generation being overwritten is moved aside first and moved back if
    the rename fails, so one of the two always survives.

    ``extra`` must be JSON-serializable; it rides in the manifest (used
    for rng states, step counters, topology descriptors).
    """
    directory = os.path.abspath(directory)
    parent = os.path.dirname(directory)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{directory}{_STAGING}{os.getpid()}"
    aside = tmp + ".old"
    manifest = {"format": 1, "extra": extra or {}, "shards": {}}
    try:
        os.makedirs(tmp)
        for shard_name, arrays in shards.items():
            fname = f"{shard_name}.npz"
            with open(os.path.join(tmp, fname), "wb") as fh:
                np.savez(fh, **arrays)
                fh.flush()
                os.fsync(fh.fileno())
            manifest["shards"][fname] = {
                "arrays": {name: payload_checksum(array)
                           for name, array in arrays.items()}}
        with open(os.path.join(tmp, MANIFEST_NAME), "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.isdir(directory):
            os.replace(directory, aside)
        os.replace(tmp, directory)
    except BaseException:
        if os.path.isdir(aside) and not os.path.exists(directory):
            os.replace(aside, directory)  # the publishing rename failed
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(aside, ignore_errors=True)
    return directory


def inspect_sharded_checkpoint(directory: str
                               ) -> tuple[dict[str, dict[str, np.ndarray]],
                                          dict, list[tuple[str, str, str]]]:
    """Read one generation against its manifest without raising:
    ``(shards, extra, problems)``, one ``(shard file, array, reason)``
    per defect — an unreadable or malformed manifest is one, like a bad
    shard.  :func:`read_sharded_checkpoint` raises on the first problem,
    the scrubber (:mod:`repro.resilience.scrub`) reports them all.
    """
    try:
        with open(os.path.join(directory, MANIFEST_NAME)) as fh:
            manifest = json.load(fh)
        promised = {fname: entry["arrays"]
                    for fname, entry in manifest["shards"].items()}
        extra = manifest.get("extra", {})
    except (OSError, ValueError, KeyError, TypeError,
            AttributeError) as exc:
        return {}, {}, [(MANIFEST_NAME, "-", f"manifest unreadable: {exc!r}")]
    shards: dict[str, dict[str, np.ndarray]] = {}
    problems: list[tuple[str, str, str]] = []
    for fname, expected in promised.items():
        try:
            with open(os.path.join(directory, fname), "rb") as f, \
                    np.load(f) as data:
                arrays = {name: data[name] for name in data.files}
        except Exception as exc:
            problems.append((fname, "-", f"shard unreadable: {exc}"))
            continue
        for name, crc in expected.items():
            if name not in arrays:
                problems.append((fname, name, "array missing from shard"))
            elif payload_checksum(arrays[name]) != crc:
                problems.append((
                    fname, name, f"crc mismatch (manifest {crc}, shard "
                                 f"{payload_checksum(arrays[name])})"))
        shards[fname[:-len(".npz")]] = arrays
    return shards, extra, problems


def read_sharded_checkpoint(directory: str
                            ) -> tuple[dict[str, dict[str, np.ndarray]],
                                       dict]:
    """Load every shard, verifying each array against the manifest.

    Returns ``(shards, extra)``.  Raises :class:`CheckpointError` if the
    directory/manifest is absent and :class:`CheckpointCorruption` on the
    first problem :func:`inspect_sharded_checkpoint` finds.
    """
    if not os.path.isfile(os.path.join(directory, MANIFEST_NAME)):
        raise CheckpointError(f"no sharded checkpoint at {directory} "
                              f"(missing {MANIFEST_NAME})")
    shards, extra, problems = inspect_sharded_checkpoint(directory)
    if problems:
        raise CheckpointCorruption(
            f"{directory}: {':'.join(problems[0][:2])}: {problems[0][2]}")
    return shards, extra


def list_checkpoints(root: str) -> list[str]:
    """Sharded checkpoint directories under ``root``, oldest first (by
    name — the supervisor names them ``step-<n>``, zero-padded).  A
    crashed save's ``.tmp.`` staging directory is not a generation."""
    if not os.path.isdir(root):
        return []
    return [os.path.join(root, name) for name in sorted(os.listdir(root))
            if _STAGING not in name
            and os.path.isfile(os.path.join(root, name, MANIFEST_NAME))]


def prune_checkpoints(root: str, keep: int) -> list[str]:
    """N-replica retention: delete all but the newest ``keep`` checkpoint
    generations under ``root``; returns the directories removed.

    Retaining several generations is what makes scrub-and-fall-back
    resume possible — a corrupted newest generation is only survivable
    while an older intact one still exists.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    removed = []
    for directory in list_checkpoints(root)[:-keep]:
        shutil.rmtree(directory)
        removed.append(directory)
    return removed


def newest_valid_checkpoint(root: str) -> tuple[str | None, dict, dict]:
    """``(directory, shards, extra)`` of the newest generation under
    ``root`` that reads back and verifies (``(None, {}, {})`` when none
    does): the elastic supervisor's fall-back resume.  Each corrupted
    generation stepped over is booked (``resilience.checkpoints_rejected``
    + a critical ``checkpoint.corrupt`` event)."""
    for directory in reversed(list_checkpoints(root)):
        try:
            shards, extra = read_sharded_checkpoint(directory)
        except CheckpointCorruption as exc:
            _count("resilience.checkpoints_rejected",
                   "corrupted generations skipped on resume")
            _record_event("checkpoint.corrupt", subsystem="resilience",
                          severity="critical", path=directory,
                          detail=str(exc))
            continue
        return directory, shards, extra
    return None, {}, {}


def checkpoint_lineage(config, state_norm, residual_norm,
                       forcing_norm=None, seed: int = 0,
                       parameterization: str = "TrigFlow") -> dict:
    """Lineage block for a checkpoint manifest's ``extra`` dict.

    Embeds the model config plus each normalizer's statistics *and* its
    SHA-256 content digest, so a reader can rebuild the normalizers from
    the checkpoint alone and prove the stats were not altered in transit.
    Manifests written before this field existed simply lack the
    ``lineage`` key — readers must treat its absence as "pre-lineage
    checkpoint", not an error.  ``parameterization`` is the class name of
    the objective the weights were trained under (lineage written before
    the key existed is TrigFlow).
    """
    from ..model.config import config_to_dict
    normalizers = {}
    for name, norm in (("state", state_norm), ("residual", residual_norm),
                       ("forcing", forcing_norm)):
        if norm is None:
            continue
        normalizers[name] = {
            "mean": [float(v) for v in norm.mean],
            "std": [float(v) for v in norm.std],
            "digest": state_digest({"mean": norm.mean, "std": norm.std}),
        }
    return {"model_config": config_to_dict(config),
            "normalizers": normalizers, "seed": int(seed),
            "parameterization": parameterization}
