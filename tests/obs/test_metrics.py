"""Metrics registry: instruments, labels, snapshots, merging, rendering."""

import json

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        c = Counter("bytes", "")
        c.inc(10, primitive="alltoall", locality="intra")
        c.inc(5, primitive="alltoall", locality="inter")
        c.inc(2, primitive="alltoall", locality="intra")
        assert c.value(primitive="alltoall", locality="intra") == 12
        assert c.value(primitive="alltoall", locality="inter") == 5
        assert c.value(primitive="p2p") == 0

    def test_total_filters_by_label_subset(self):
        c = Counter("bytes", "")
        c.inc(10, primitive="alltoall", locality="intra")
        c.inc(5, primitive="p2p", locality="intra")
        c.inc(7, primitive="p2p", locality="inter")
        assert c.total() == 22
        assert c.total(primitive="p2p") == 12
        assert c.total(locality="intra") == 15

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c", "").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("loss", "")
        g.set(2.0)
        g.set(1.5)
        assert g.value() == 1.5

    def test_labeled_series_independent(self):
        g = Gauge("lr", "")
        g.set(0.1, group="a")
        g.set(0.2, group="b")
        assert g.value(group="a") == 0.1
        assert g.value(group="b") == 0.2


class TestHistogram:
    def test_stats(self):
        h = Histogram("t", "", (0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        s = h.stats()
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(5.55)
        assert s["min"] == 0.05 and s["max"] == 5.0
        assert s["mean"] == pytest.approx(5.55 / 3)

    def test_bucket_counts_including_overflow(self):
        h = Histogram("t", "", (1.0, 2.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        cell = h.series[()]
        assert cell["bucket_counts"] == [1, 1, 2]

    def test_unseen_labels_zero_stats(self):
        h = MetricsRegistry().histogram("t")
        assert h.stats(metric="rmse")["count"] == 0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        # Gauge subclasses Counter; the reverse direction must also fail.
        reg.gauge("g")
        with pytest.raises(TypeError):
            reg.counter("g")

    def test_snapshot_roundtrip_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3, k="v")
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1.0,)).observe(0.5, m="x")
        snap = json.loads(json.dumps(reg.snapshot()))
        reg2 = MetricsRegistry()
        reg2.load_snapshot(snap)
        assert reg2.counter("c").value(k="v") == 3
        assert reg2.gauge("g").value() == 1.5
        assert reg2.histogram("h", buckets=(1.0,)).stats(m="x")["count"] == 1

    def test_merge_accumulates_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            reg.counter("c").inc(2, k="v")
            reg.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        a.load_snapshot(b.snapshot(), merge=True)
        assert a.counter("c").value(k="v") == 4
        s = a.histogram("h", buckets=(1.0, 2.0)).stats()
        assert s["count"] == 2 and s["sum"] == pytest.approx(1.0)

    def test_load_snapshot_merge_true_multi_label(self):
        """Per-rank snapshot aggregation (the obs_dashboard path):
        snapshot -> JSON -> load(merge=True) over several files must
        accumulate shared series, keep rank-disjoint ones, and replay
        histograms exactly."""
        ranks = []
        for rank in range(3):
            reg = MetricsRegistry()
            reg.counter("serve.requests", "req").inc(
                rank + 1, event="completed", tier="fast")
            reg.counter("serve.requests").inc(1, event="rejected",
                                              tier=f"t{rank}")
            reg.gauge("serve.queue_depth").set(float(rank), tier="fast")
            reg.histogram("serve.latency_s", buckets=(0.1, 1.0)) \
                .observe(0.05 * (rank + 1), tier="fast")
            ranks.append(json.loads(reg.to_json()))
        merged = MetricsRegistry()
        for snap in ranks:
            merged.load_snapshot(snap, merge=True)
        req = merged.counter("serve.requests")
        assert req.value(event="completed", tier="fast") == 6
        for rank in range(3):
            assert req.value(event="rejected", tier=f"t{rank}") == 1
        # Gauges overwrite on merge: last snapshot loaded wins.
        assert merged.gauge("serve.queue_depth").value(tier="fast") == 2.0
        stats = merged.histogram("serve.latency_s", buckets=(0.1, 1.0)) \
            .stats(tier="fast")
        assert stats["count"] == 3
        assert stats["sum"] == pytest.approx(0.3)
        # And the merged registry itself roundtrips.
        again = MetricsRegistry()
        again.load_snapshot(json.loads(merged.to_json()))
        assert again.snapshot() == merged.snapshot()

    def test_as_table_lists_every_series(self):
        reg = MetricsRegistry()
        reg.counter("comm.bytes").inc(512, primitive="p2p", locality="intra")
        reg.gauge("train.loss").set(0.25)
        reg.histogram("serve.latency_s").observe(0.5, tier="fast")
        table = reg.as_table()
        # Byte-identical to the renderer before repro.obs.text_table.
        assert table == (
            "metric           labels                        value\n"
            "---------------  ----------------------------  "
            "--------------------\n"
            "comm.bytes       locality=intra,primitive=p2p  512\n"
            "serve.latency_s  tier=fast                     "
            "n=1 sum=0.5 mean=0.5\n"
            "train.loss       -                             0.25")
        assert "comm.bytes" in table
        assert "primitive=p2p" in table
        assert "512" in table
        assert "train.loss" in table
