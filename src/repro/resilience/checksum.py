"""Content checksums for in-flight messages and checkpointed arrays.

At AERIS scale (120,960 Aurora tiles) silent data corruption — a flipped
bit on a link, a torn write on a burst buffer — is a *when*, not an *if*.
Every simulated collective payload and every checkpoint shard therefore
carries a CRC32 over its raw bytes plus a header binding the dtype and
shape, so a corrupted message is detected at delivery (and retried, see
:mod:`repro.parallel.comm`) and a corrupted checkpoint is rejected at load
(and an older one used, see :mod:`repro.resilience.supervisor`).

CRC32 is deliberate: it is stdlib, fast enough to run on every simulated
message, and detects the single/low-multiplicity bit flips the fault
model injects.  It is *not* cryptographic — the threat model is hardware
corruption, not an adversary.

Alongside the fast CRCs live the SHA-256 *content digests* used wherever
an artifact needs a collision-resistant address rather than a corruption
check: the forecast cache keys entries by them, the model registry stores
blobs under them, and checkpoint manifests embed them so lineage survives
the round trip.  They live here (not in :mod:`repro.serve`) because both
the training and serving stacks need the exact same byte-level hash — a
registry weights digest must equal the digest the forecast cache computes
for the same ``state_dict``, or version isolation silently breaks.
"""

from __future__ import annotations

import hashlib
import json
import zlib

import numpy as np

__all__ = ["payload_checksum", "content_digest", "state_digest", "json_digest"]


def payload_checksum(array: np.ndarray) -> int:
    """CRC32 over an array's bytes, seeded with its dtype + shape.

    Binding the header means a payload that was truncated or reinterpreted
    (same bytes, different shape) also fails verification, not only one
    with flipped bits.
    """
    a = np.ascontiguousarray(array)
    header = f"{a.dtype.str}:{a.shape}".encode()
    return zlib.crc32(a.tobytes(), zlib.crc32(header))


def content_digest(array: np.ndarray) -> str:
    """SHA-256 over dtype, shape, and raw bytes (content address).

    This is the canonical single-array digest: the forecast cache keys
    initial states with it and the registry addresses blobs by it, so the
    byte layout (dtype string, shape tuple repr, then raw bytes) must not
    change — doing so would orphan every stored blob and cache entry.
    """
    h = hashlib.sha256()
    _hash_array(h, array)
    return h.hexdigest()


def state_digest(state: dict) -> str:
    """SHA-256 over a named mapping of arrays (sorted by name).

    The canonical multi-array digest: ``serve.cache.weights_digest`` is
    this applied to a model's ``state_dict``, and the registry uses the
    same hash for its weight blobs — which is what makes a registry
    version and a live serving binding comparable by digest alone.
    """
    h = hashlib.sha256()
    for name, array in sorted(state.items()):
        h.update(name.encode())
        _hash_array(h, array)
    return h.hexdigest()


def _hash_array(h, array: np.ndarray) -> None:
    """Feed ``h`` one array's dtype string, shape tuple repr, then raw
    bytes (the layout every digest here is pinned to)."""
    a = np.ascontiguousarray(array)
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())


def json_digest(obj) -> str:
    """SHA-256 over the canonical JSON of ``obj`` (sorted keys, no
    whitespace): a plan's inputs, a registry record, a simtest violation
    set.  Committed plan snapshots, registry blobs and corpus fingerprints
    are addressed by it, so the serialization must not change."""
    return hashlib.sha256(json.dumps(
        obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
