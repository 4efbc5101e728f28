"""Model versions: which weights answer which request.

Every loaded version is a :class:`ModelBinding`; the :class:`VersionTable`
owns them, the active version, the optional canary router and the
admission checks that need a binding.  A request is pinned to a version
at admission and a micro-batch never mixes versions; the serving loop
(:mod:`~repro.serve.service`) and the canary controller
(:mod:`~repro.serve.deploy`) both talk to this one object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace

import numpy as np

from ..obs.profile import count as _count
from ..obs.profile import gauge as _gauge
from ..obs.profile import record_event as _record_event
from .api import ForecastRequest, Rejected
from .cache import solver_digest, weights_digest
from .samplers import OneStepForecaster, TierPolicy

__all__ = ["ModelBinding", "VersionTable"]


@dataclass(eq=False)
class ModelBinding:
    """One servable model version: per-tier steppers + content digests.

    The binding is what a request is routed *to*: ``steppers[tier]`` runs
    the forecast, ``digests[tier]`` namespaces its cache entries, and
    ``weights_digest`` is the version's identity — the same SHA-256 the
    registry records, so "which weights are live" is answerable by digest
    comparison alone (:func:`~repro.serve.deploy.deploy_check` relies on
    this to prove a rollback restored the incumbent exactly).
    """

    version: str
    steppers: dict[str, object]
    digests: dict[str, tuple[str, str]]
    weights_digest: str
    weights_nbytes: int
    field_shape: tuple | None

    @classmethod
    def build(cls, version: str, forecaster, student,
              policies: dict[str, TierPolicy]) -> "ModelBinding":
        """Per-tier steppers + content digests for one model version.
        A tier whose model is missing (no student) simply isn't served
        by this version."""
        base_digest = weights_digest(forecaster.model)
        steppers: dict[str, object] = {}
        digests: dict[str, tuple[str, str]] = {}
        for name, policy in policies.items():
            if policy.solver_config is None:
                if student is None:
                    continue
                steppers[name] = OneStepForecaster(
                    model=student, state_norm=forecaster.state_norm,
                    residual_norm=forecaster.residual_norm,
                    forcing_fn=forecaster.forcing_fn,
                    forcing_norm=forecaster.forcing_norm,
                    flow=forecaster.flow)
                digests[name] = (weights_digest(student),
                                 solver_digest(None))
            else:
                steppers[name] = _dc_replace(
                    forecaster, solver_config=policy.solver_config)
                digests[name] = (base_digest,
                                 solver_digest(policy.solver_config))
        cfg = getattr(forecaster.model, "config", None)
        field_shape = ((cfg.height, cfg.width, cfg.channels)
                       if cfg is not None else None)
        nbytes = sum(int(np.asarray(a).nbytes)
                     for a in forecaster.model.state_dict().values())
        return cls(version=version, steppers=steppers, digests=digests,
                   weights_digest=base_digest, weights_nbytes=nbytes,
                   field_shape=field_shape)


class VersionTable:
    """The loaded versions of one service, over its tier ``policies`` and
    its admission ``queue`` (whose pending work :meth:`remove` re-labels).
    """

    def __init__(self, policies: dict[str, TierPolicy], queue):
        self.policies = policies
        self.queue = queue
        self.bindings: dict[str, ModelBinding] = {}
        #: Default target of new admissions: the first version added.
        self.active: str | None = None
        #: Optional ``request -> version`` override (canary routing).
        self.router = None

    def add(self, version: str, forecaster, student=None) -> ModelBinding:
        """Load a servable version.  The first one is what the service is
        born serving (active, announced by nothing); a later one shifts no
        traffic — routing is the ``router``'s / :meth:`activate`'s job."""
        if version in self.bindings:
            raise ValueError(f"version {version!r} already loaded")
        binding = ModelBinding.build(version, forecaster, student,
                                     self.policies)
        if self.active is None:
            self.active = version
            self.bindings[version] = binding
            return binding
        active = self.bindings[self.active]
        if (binding.field_shape is not None
                and active.field_shape is not None
                and binding.field_shape != active.field_shape):
            raise ValueError(
                f"version {version!r} field shape {binding.field_shape} "
                f"differs from active {active.field_shape}")
        self.bindings[version] = binding
        self._gauge_loaded()
        _record_event("serve.version_loaded", subsystem="serve",
                      version=version,
                      weights=binding.weights_digest[:12])
        return binding

    def activate(self, version: str) -> None:
        """Make ``version`` the default target for new admissions."""
        if version not in self.bindings:
            raise ValueError(f"version {version!r} not loaded")
        previous, self.active = self.active, version
        _record_event("serve.version_activated", subsystem="serve",
                      version=version, previous=previous)

    def remove(self, version: str) -> int:
        """Unload a version; queued requests pinned to it are re-routed
        to the active version (returned count) — no request is lost."""
        if version == self.active:
            raise ValueError("cannot remove the active version")
        if version not in self.bindings:
            raise ValueError(f"version {version!r} not loaded")
        del self.bindings[version]
        moved = self.queue.reassign_version(version, self.active)
        self._gauge_loaded()
        if moved:
            _count("serve.requests_reassigned",
                   "queued requests re-routed off an unloaded version",
                   moved, src=version, dst=self.active)
        _record_event("serve.version_unloaded", subsystem="serve",
                      version=version, reassigned=moved)
        return moved

    def admit(self, request: ForecastRequest) -> tuple[str, ModelBinding]:
        """Route ``request`` to a version that can serve it, or raise the
        :class:`Rejected` saying why none can."""
        version = (self.active if self.router is None
                   else self.router(request))
        binding = self.bindings.get(version)
        if binding is None:
            raise Rejected("version_unavailable",
                           f"version {version!r} not loaded")
        if request.tier not in binding.steppers:
            raise Rejected("tier_unavailable",
                           f"tier {request.tier!r} has no model in "
                           f"version {version!r}")
        if (binding.field_shape is not None
                and tuple(request.init_state.shape) != binding.field_shape):
            raise Rejected("bad_shape",
                           f"want {binding.field_shape}, got "
                           f"{tuple(request.init_state.shape)}")
        return version, binding

    def _gauge_loaded(self) -> None:
        _gauge("serve.loaded_versions", "model versions loaded",
               len(self.bindings))

    def stats(self) -> dict:
        return {"active": self.active,
                "loaded": {v: b.weights_digest[:12]
                           for v, b in self.bindings.items()}}
