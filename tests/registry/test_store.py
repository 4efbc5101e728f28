"""Registry store: content addressing, lineage, lifecycle, durability."""

import os

import numpy as np
import pytest

from repro.registry import ModelRegistry, RegistryError, TRANSITIONS
from repro.resilience import state_digest
from tests.resilience.test_checkpoint import resource_warnings, truncate


def register(registry, trainer, **kwargs):
    """Register ``trainer``'s live model and normalizers."""
    return registry.register_state(
        trainer.model.state_dict(), trainer.model.config, trainer.state_norm,
        trainer.residual_norm, trainer.forcing_norm, **kwargs)


class TestRegistration:
    def test_roundtrip(self, registry, reg_world):
        _, trainer = reg_world
        record = register(registry, trainer, source="unit-test")
        assert record.version == "v0001"
        assert record.status == "registered"
        assert record.source == "unit-test"
        assert record.weights_digest == state_digest(
            trainer.model.state_dict())
        assert record.version in registry

        state = registry.load_state(record.version)
        for name, array in trainer.model.state_dict().items():
            assert np.array_equal(state[name], array)
        assert registry.load_config(record.version) == trainer.model.config
        norm = registry.load_normalizer(record.version, "state")
        assert np.array_equal(norm.mean, trainer.state_norm.mean)
        assert np.array_equal(norm.std, trainer.state_norm.std)

    def test_content_dedup(self, registry, reg_world):
        """Identical bytes registered twice share one blob set."""
        _, trainer = reg_world
        a = register(registry, trainer, version="a")
        blobs = registry.stats()["blobs"]
        b = register(registry, trainer, version="b", parent="a")
        assert a.weights_digest == b.weights_digest
        assert registry.stats()["blobs"] == blobs

    def test_duplicate_and_invalid_names(self, registry, reg_world):
        _, trainer = reg_world
        register(registry, trainer, version="a")
        with pytest.raises(RegistryError, match="already registered"):
            register(registry, trainer, version="a")
        with pytest.raises(RegistryError, match="invalid version"):
            register(registry, trainer, version="../escape")
        with pytest.raises(RegistryError, match="unknown parent"):
            register(registry, trainer, version="c", parent="nope")

    def test_lineage_chain(self, registry, reg_world):
        _, trainer = reg_world
        register(registry, trainer, version="a")
        register(registry, trainer, version="b", parent="a")
        register(registry, trainer, version="c", parent="b")
        assert registry.lineage("c") == ["c", "b", "a"]

    def test_index_survives_reopen(self, registry, reg_world):
        _, trainer = reg_world
        record = register(registry, trainer, source="durability")
        reopened = ModelRegistry(registry.root)
        again = reopened.get(record.version)
        assert again.weights_digest == record.weights_digest
        assert again.source == "durability"
        state = reopened.load_state(record.version)
        name = next(iter(trainer.model.state_dict()))
        assert np.array_equal(state[name],
                              trainer.model.state_dict()[name])


class TestLifecycle:
    def test_legal_chain_records_history(self, registry, reg_world):
        _, trainer = reg_world
        record = register(registry, trainer)
        v = record.version
        for status in ("servable", "canary", "live", "retired"):
            registry.set_status(v, status, reason=f"to {status}")
        history = registry.get(v).history
        assert [h["dst"] for h in history] == ["servable", "canary",
                                               "live", "retired"]

    def test_illegal_transition_raises(self, registry, reg_world):
        _, trainer = reg_world
        v = register(registry, trainer).version
        with pytest.raises(RegistryError, match="illegal transition"):
            registry.set_status(v, "live")  # registered -> live

    def test_single_live_invariant(self, registry, reg_world):
        _, trainer = reg_world
        for name in ("a", "b"):
            register(registry, trainer, version=name)
            registry.set_status(name, "servable")
        registry.set_status("a", "live")
        assert registry.live() == "a"
        with pytest.raises(RegistryError, match="retire it first"):
            registry.set_status("b", "live")
        registry.set_status("a", "retired")
        registry.set_status("b", "live")
        assert registry.live() == "b"

    def test_terminal_states_are_terminal(self):
        for status, nexts in TRANSITIONS.items():
            if status in ("rejected", "retired", "rolled_back"):
                assert nexts == ()


class TestMaintenance:
    def test_gc_reclaims_only_orphans(self, registry, reg_world):
        _, trainer = reg_world
        record = register(registry, trainer)
        orphan = os.path.join(registry.blob_dir, "deadbeef" * 8 + ".npz")
        with open(orphan, "wb") as fh:
            fh.write(b"junk")
        assert registry.gc(dry_run=True) == ["deadbeef" * 8]
        assert os.path.exists(orphan)
        assert registry.gc() == ["deadbeef" * 8]
        assert not os.path.exists(orphan)
        # The referenced version still materializes.
        assert registry.load_state(record.version)

    def test_verify_catches_corrupted_blob(self, registry, reg_world):
        _, trainer = reg_world
        record = register(registry, trainer)
        assert registry.verify() == []
        path = registry._blob_path(record.weights_digest, "arrays")
        arrays = dict(np.load(path))
        name = sorted(arrays)[0]
        arrays[name] = arrays[name] + 1.0
        np.savez(path, **arrays)
        findings = registry.verify()
        assert findings and "digest mismatch" in findings[0]
        with pytest.raises(RegistryError, match="digest mismatch"):
            registry.load_state(record.version)

    def test_truncated_blob_is_a_finding(self, registry, reg_world):
        _, trainer = reg_world
        record = register(registry, trainer)
        path = registry._blob_path(record.weights_digest, "arrays")
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        findings = registry.verify()
        assert len(findings) == 1
        assert findings[0].startswith(f"{record.version}:weights: unreadable")
        assert path in findings[0] and record.weights_digest[:12] in findings[0]
        with pytest.raises(RegistryError, match="unreadable blob"):
            registry.load_state(record.version)
        with pytest.raises(RegistryError, match="unreadable blob"):
            registry.forecaster(record.version, forcing_fn=None)

    def test_a_truncated_blob_leaks_no_handle(self, registry, reg_world):
        _, trainer = reg_world
        record = register(registry, trainer)
        truncate(registry._blob_path(record.weights_digest, "arrays"))
        findings, leaked = resource_warnings(registry.verify)
        assert len(findings) == 1 and "unreadable" in findings[0]
        assert leaked == []

    def test_torn_index_is_typed(self, registry, reg_world):
        _, trainer = reg_world
        register(registry, trainer)
        with open(registry.index_path) as fh:
            text = fh.read()
        with open(registry.index_path, "w") as fh:
            fh.write(text[:len(text) // 2])
        with pytest.raises(RegistryError, match="unreadable registry index") \
                as excinfo:
            ModelRegistry(registry.root)
        assert registry.index_path in str(excinfo.value)

