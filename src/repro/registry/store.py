"""Content-addressed model registry: immutable versions + lineage.

Operational earth-system models ship as a *stream* of retrained and
fine-tuned versions; what separates a research checkpoint from a
deployable release is exactly the metadata this registry makes durable:

* **artifacts** — weights, model config, and normalizer statistics, each
  stored once under its SHA-256 content digest (``blobs/<digest>.npz`` /
  ``.json``).  The weights digest is :func:`repro.resilience.state_digest`
  over the ``state_dict`` — byte-identical to the digest the forecast
  cache keys entries with, so "registry version" and "serving cache
  namespace" are the same address space;
* **lineage** — parent version, training step, seed, and free-form
  provenance (checkpoint path, experiment name);
* **scorecard** — eval-harness skill numbers attached at registration
  and consulted by the promotion gate (:mod:`repro.registry.gate`);
* **status** — a validated lifecycle state machine
  ``registered → {servable | rejected}``, ``servable → canary → {live |
  rolled_back}``, ``live → retired``, every transition booked as
  ``registry.transitions`` metrics and flight-recorder events.

The index file is one JSON document written via
:func:`repro.resilience.atomic_write` (tmp + fsync + rename), so a crash
mid-registration leaves either the old or the new index, never a torn
one; blobs are written before the index references them, so a referenced
blob always exists (the converse — an unreferenced blob after a crash —
is what :meth:`ModelRegistry.gc` collects).
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from ..data.normalize import FieldNormalizer
from ..model import Aeris
from ..model.config import AerisConfig, config_from_dict, config_to_dict
from ..obs.profile import count, record_event
from ..resilience.atomic import atomic_write
from ..resilience.checksum import json_digest, state_digest

__all__ = ["RegistryError", "ModelVersion", "ModelRegistry",
           "STATUSES", "TRANSITIONS"]

#: Lifecycle states a version can be in.
STATUSES = ("registered", "servable", "rejected", "canary", "live",
            "retired", "rolled_back")

#: Legal transitions (terminal states map to an empty tuple).
TRANSITIONS: dict[str, tuple[str, ...]] = {
    "registered": ("servable", "rejected"),
    "servable": ("canary", "live", "retired"),
    "canary": ("live", "rolled_back"),
    "live": ("retired",),
    "rejected": (),
    "retired": (),
    "rolled_back": (),
}

_VERSION_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_INDEX_FORMAT = 1


class RegistryError(Exception):
    """Typed failure for registry operations (missing version, illegal
    transition, digest mismatch)."""


@dataclass
class ModelVersion:
    """One immutable registered model version (metadata only; the bytes
    live in the blob store under the digests recorded here)."""

    version: str
    status: str = "registered"
    parent: str | None = None
    source: str = ""
    weights_digest: str = ""
    config_digest: str = ""
    artifacts: dict = field(default_factory=dict)   # name -> digest
    scorecard: dict | None = None
    history: list = field(default_factory=list)     # transition records

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelVersion":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ModelRegistry:
    """Content-addressed store of model versions under one root dir."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.blob_dir = os.path.join(self.root, "blobs")
        self.index_path = os.path.join(self.root, "index.json")
        os.makedirs(self.blob_dir, exist_ok=True)
        self._index = self._load_index()

    # -- index persistence -------------------------------------------------
    def _load_index(self) -> dict:
        if not os.path.exists(self.index_path):
            return {"format": _INDEX_FORMAT, "versions": {}}
        try:
            with open(self.index_path) as fh:
                index = json.load(fh)
        except ValueError as exc:
            raise RegistryError(f"unreadable registry index "
                                f"{self.index_path}: {exc}") from exc
        if index.get("format") != _INDEX_FORMAT:
            raise RegistryError(
                f"unsupported registry index format {index.get('format')!r}")
        return index

    def _save_index(self) -> None:
        atomic_write(self.index_path,
                     json.dumps(self._index, indent=2, sort_keys=True))

    # -- blob store --------------------------------------------------------
    def _blob_path(self, digest: str, kind: str) -> str:
        ext = "npz" if kind == "arrays" else "json"
        return os.path.join(self.blob_dir, f"{digest}.{ext}")

    def _put_arrays(self, arrays: dict) -> str:
        """Store a named array mapping once, addressed by its content.

        The digest is over the *arrays* (names, dtypes, shapes, bytes),
        not the npz container bytes, so re-serialization can never fork
        the address of identical content.
        """
        digest = state_digest(arrays)
        path = self._blob_path(digest, "arrays")
        if not os.path.exists(path):
            buf = io.BytesIO()
            np.savez(buf, **arrays)
            atomic_write(path, buf.getvalue())
        return digest

    def _put_json(self, obj) -> str:
        digest = json_digest(obj)
        path = self._blob_path(digest, "json")
        if not os.path.exists(path):
            atomic_write(path, _canonical_json(obj))
        return digest

    def _get_arrays(self, digest: str) -> dict:
        path = self._blob_path(digest, "arrays")
        if not os.path.exists(path):
            raise RegistryError(f"missing blob {digest[:12]} (npz)")
        import zipfile  # np.load imports it for every .npz anyway
        try:
            with open(path, "rb") as f, np.load(f) as npz:
                arrays = {k: npz[k] for k in npz.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise RegistryError(
                f"unreadable blob {digest[:12]} at {path}: "
                f"{type(exc).__name__}: {exc}") from exc
        actual = state_digest(arrays)
        if actual != digest:
            raise RegistryError(
                f"blob {digest[:12]} content digest mismatch "
                f"(got {actual[:12]}): corrupted blob store")
        return arrays

    def _get_json(self, digest: str) -> dict:
        path = self._blob_path(digest, "json")
        if not os.path.exists(path):
            raise RegistryError(f"missing blob {digest[:12]} (json)")
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except ValueError as exc:
            raise RegistryError(f"unreadable blob {digest[:12]} at {path}: "
                                f"{exc}") from exc
        if json_digest(obj) != digest:
            raise RegistryError(
                f"blob {digest[:12]} content digest mismatch: "
                "corrupted blob store")
        return obj

    # -- bookkeeping -------------------------------------------------------
    def _book(self, event: str, version: str, **data) -> None:
        if event == "transition":
            count("registry.transitions", "version lifecycle transitions", 1,
                  src=data.get("src", ""), dst=data.get("dst", ""))
        else:
            count("registry.registrations", "versions registered")
        record_event(f"registry.{event}", subsystem="registry",
                     version=version, **data)

    # -- queries -----------------------------------------------------------
    def versions(self) -> list[str]:
        return list(self._index["versions"])

    def __contains__(self, version: str) -> bool:
        return version in self._index["versions"]

    def get(self, version: str) -> ModelVersion:
        try:
            record = self._index["versions"][version]
        except KeyError:
            raise RegistryError(f"unknown version {version!r}") from None
        return ModelVersion.from_dict(record)

    def live(self) -> str | None:
        """The single live version, if any."""
        for vid, record in self._index["versions"].items():
            if record["status"] == "live":
                return vid
        return None

    def lineage(self, version: str) -> list[str]:
        """Ancestry chain, newest first (``version`` included)."""
        chain = []
        cursor: str | None = version
        while cursor is not None:
            if cursor in chain:
                raise RegistryError(f"lineage cycle at {cursor!r}")
            chain.append(cursor)
            cursor = self.get(cursor).parent
        return chain

    # -- registration ------------------------------------------------------
    def _next_version(self) -> str:
        n = len(self._index["versions"]) + 1
        while f"v{n:04d}" in self._index["versions"]:
            n += 1
        return f"v{n:04d}"

    def register_state(self, state: dict, config: AerisConfig,
                       state_norm: FieldNormalizer,
                       residual_norm: FieldNormalizer,
                       forcing_norm: FieldNormalizer | None = None, *,
                       version: str | None = None, parent: str | None = None,
                       source: str = "",
                       scorecard: dict | None = None) -> ModelVersion:
        """Register a raw ``state_dict`` + config + normalizers.

        Blobs are written first, the index last (atomically) — a crash in
        between leaves only unreferenced blobs, which ``gc`` reclaims.
        """
        if version is None:
            version = self._next_version()
        if not _VERSION_RE.match(version):
            raise RegistryError(f"invalid version name {version!r}")
        if version in self:
            raise RegistryError(f"version {version!r} already registered")
        if parent is not None and parent not in self:
            raise RegistryError(f"unknown parent version {parent!r}")

        weights = self._put_arrays(state)
        cfg = self._put_json(config_to_dict(config))
        artifacts = {"weights": weights, "config": cfg}
        norms = {"state": state_norm, "residual": residual_norm,
                 "forcing": forcing_norm}
        for name, norm in norms.items():
            if norm is not None:
                artifacts[f"{name}_norm"] = self._put_arrays(
                    {"mean": norm.mean, "std": norm.std})

        record = ModelVersion(
            version=version, status="registered", parent=parent,
            source=source,
            weights_digest=weights, config_digest=cfg,
            artifacts=artifacts, scorecard=scorecard)
        self._index["versions"][version] = record.to_dict()
        self._save_index()
        self._book("register", version, parent=parent or "",
                   weights=weights[:12])
        return record


    # -- lifecycle ---------------------------------------------------------
    def set_status(self, version: str, status: str,
                   reason: str = "") -> ModelVersion:
        """Transition a version; illegal moves raise ``RegistryError``."""
        if status not in STATUSES:
            raise RegistryError(f"unknown status {status!r}")
        record = self.get(version)
        if status not in TRANSITIONS[record.status]:
            raise RegistryError(
                f"illegal transition {record.status!r} -> {status!r} "
                f"for {version!r}")
        if status == "live":
            incumbent = self.live()
            if incumbent is not None and incumbent != version:
                raise RegistryError(
                    f"cannot mark {version!r} live while {incumbent!r} "
                    "is live; retire it first")
        src = record.status
        record.status = status
        record.history.append({"src": src, "dst": status, "reason": reason})
        self._index["versions"][version] = record.to_dict()
        self._save_index()
        self._book("transition", version, src=src, dst=status,
                   reason=reason)
        return record

    # -- materialization ---------------------------------------------------
    def load_state(self, version: str) -> dict:
        """The version's weights as a ``state_dict`` (digest-verified)."""
        return self._get_arrays(self.get(version).weights_digest)

    def load_config(self, version: str) -> AerisConfig:
        return config_from_dict(self._get_json(
            self.get(version).config_digest))

    def load_normalizer(self, version: str,
                        name: str) -> FieldNormalizer | None:
        digest = self.get(version).artifacts.get(f"{name}_norm")
        if digest is None:
            return None
        arrays = self._get_arrays(digest)
        return FieldNormalizer(mean=arrays["mean"], std=arrays["std"])

    def load_model(self, version: str) -> Aeris:
        """Instantiate the architecture and load the version's weights."""
        model = Aeris(self.load_config(version))
        model.load_state_dict(self.load_state(version))
        model.eval()
        return model

    def forecaster(self, version: str, forcing_fn):
        """Build a ready-to-serve :class:`ResidualForecaster` (TrigFlow,
        the paper's solver defaults)."""
        from ..diffusion.sampler import ResidualForecaster
        return ResidualForecaster(
            model=self.load_model(version),
            state_norm=self.load_normalizer(version, "state"),
            residual_norm=self.load_normalizer(version, "residual"),
            forcing_fn=forcing_fn,
            forcing_norm=self.load_normalizer(version, "forcing"))

    # -- maintenance -------------------------------------------------------
    def referenced_blobs(self) -> set:
        refs = set()
        for record in self._index["versions"].values():
            refs.update(record["artifacts"].values())
        return refs

    def gc(self, dry_run: bool = False) -> list[str]:
        """Delete unreferenced blob files; returns the digests removed.

        Safe by construction: registration writes blobs before the index
        references them, so anything on disk but not in the index is
        either an interrupted registration or content from a deleted
        index entry — never a referenced artifact.
        """
        refs = self.referenced_blobs()
        removed = []
        for fname in sorted(os.listdir(self.blob_dir)):
            digest = fname.rsplit(".", 1)[0]
            if digest not in refs:
                if not dry_run:
                    os.remove(os.path.join(self.blob_dir, fname))
                removed.append(digest)
        if removed and not dry_run:
            self._book("gc", "", removed=len(removed))
        return removed

    def verify(self) -> list[str]:
        """Re-hash every referenced blob; returns human-readable findings
        (empty means the store is clean)."""
        findings = []
        for vid, record in self._index["versions"].items():
            for name, digest in record["artifacts"].items():
                kind = "json" if name == "config" else "arrays"
                try:
                    if kind == "json":
                        self._get_json(digest)
                    else:
                        self._get_arrays(digest)
                except RegistryError as exc:
                    findings.append(f"{vid}:{name}: {exc}")
        return findings

    def stats(self) -> dict:
        by_status: dict[str, int] = {}
        for record in self._index["versions"].values():
            by_status[record["status"]] = by_status.get(
                record["status"], 0) + 1
        blob_bytes = sum(
            os.path.getsize(os.path.join(self.blob_dir, f))
            for f in os.listdir(self.blob_dir))
        return {"versions": len(self._index["versions"]),
                "by_status": by_status,
                "blobs": len(os.listdir(self.blob_dir)),
                "blob_bytes": blob_bytes}
