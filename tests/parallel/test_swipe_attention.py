"""End-to-end functional test of the composed SWiPe attention data path
(Figure 2): WP round-robin window distribution x intra-node Ulysses SP with
RoPE, on real model weights, must equal the single-process attention —
``np.array_equal``, BF16 autocast included, the same FLOPs booked and the
parent's traffic metered byte for byte."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.model import (
    AerisConfig,
    axial_rope_table,
    cyclic_shift,
    window_merge,
    window_partition,
)
from repro.nn import MultiHeadAttention
from repro.obs import TraceReport, observed
from repro.parallel import (
    RankTopology,
    SimCluster,
    comm_check,
    swipe_window_attention,
)
from repro.perf import AURORA, CommModel
from repro.tensor import Tensor, autocast_bf16, count_flops, no_grad
from tests.switches import maybe

rng = np.random.default_rng(0)

DIM, HEADS = 16, 4
WINDOW = (4, 4)
GRID = (8, 16)
LAYOUTS = [((1, 1), 1), ((2, 2), 1), ((2, 2), 2), ((1, 2), 4), ((2, 4), 2)]
#: (dim, window, grid): head_dim 4 / 8 / 12 / 16, 16- and 32-token windows.
SHAPES = [(16, (4, 4), (8, 16)), (32, (4, 8), (16, 32)),
          (48, (4, 4), (8, 16)), (64, (4, 4), (16, 32))]
GOLDEN = Path(__file__).with_name("golden_swipe_comm.json")


@pytest.fixture(scope="module")
def attention():
    return MultiHeadAttention(DIM, HEADS, rng=np.random.default_rng(5))


def reference(attention, image, shifted, window=WINDOW):
    """Single-process shifted-window attention (the model's own path)."""
    cos, sin = axial_rope_table(window, attention.head_dim)
    x = Tensor(image)
    if shifted:
        x = cyclic_shift(x, (window[0] // 2, window[1] // 2))
    with no_grad():
        windows = window_partition(x, window)
        out = attention(windows, cos, sin)
        merged = window_merge(out, image.shape[1:3], window)
    if shifted:
        merged = cyclic_shift(merged, (window[0] // 2, window[1] // 2),
                              reverse=True)
    return merged.numpy()


def golden_record():
    """``layout/shifted -> {primitive/locality: [bytes, ops]}`` of one
    metered pass per layout.  ``golden_swipe_comm.json`` is this, run on
    the *parent* commit's ``src``."""
    attention = MultiHeadAttention(DIM, HEADS, rng=np.random.default_rng(5))
    image = np.random.default_rng(0).normal(
        size=(2,) + GRID + (DIM,)).astype(np.float32)
    record = {}
    for wp_grid, sp in LAYOUTS:
        topo = RankTopology(dp=1, pp=1, wp_grid=wp_grid, sp=sp)
        for shifted in (False, True):
            cluster = SimCluster(topo.world_size, ranks_per_node=sp)
            swipe_window_attention(image, attention, WINDOW, topo,
                                   cluster=cluster, shifted=shifted)
            stats = cluster.stats
            record[f"wp{wp_grid[0]}x{wp_grid[1]}.sp{sp}/"
                   f"{'shifted' if shifted else 'unshifted'}"] = {
                f"{primitive}/{locality}": [stats.bytes[primitive, locality],
                                            stats.ops[primitive, locality]]
                for primitive, locality in sorted(stats.bytes)}
    return record


class TestSwipeAttention:
    @pytest.mark.parametrize("wp_grid,sp", LAYOUTS)
    @pytest.mark.parametrize("shifted", [False, True])
    def test_equivalence(self, attention, wp_grid, sp, shifted):
        topo = RankTopology(dp=1, pp=1, wp_grid=wp_grid, sp=sp)
        image = rng.normal(size=(2,) + GRID + (DIM,)).astype(np.float32)
        out = swipe_window_attention(image, attention, WINDOW, topo,
                                     shifted=shifted)
        np.testing.assert_array_equal(out, reference(attention, image, shifted))

    @pytest.mark.parametrize("wp_grid,sp", LAYOUTS)
    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("bf16", [False, True])
    @pytest.mark.parametrize("dim,window,grid", SHAPES)
    def test_exact_at_every_shape_and_autocast(self, dim, window, grid, bf16,
                                               shifted, wp_grid, sp):
        """Each shard computes the single-rank math: equal arrays at every
        head_dim and window length, rounded operands included."""
        attention = MultiHeadAttention(dim, HEADS, rng=np.random.default_rng(5))
        topo = RankTopology(dp=1, pp=1, wp_grid=wp_grid, sp=sp)
        image = np.random.default_rng(1).normal(
            size=(2,) + grid + (dim,)).astype(np.float32)
        with maybe(autocast_bf16, bf16):
            out = swipe_window_attention(image, attention, window, topo,
                                         shifted=shifted)
            ref = reference(attention, image, shifted, window)
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("wp_grid,sp", [((1, 1), 1), ((2, 2), 2),
                                            ((1, 2), 4)])
    def test_books_the_single_process_flops(self, wp_grid, sp):
        attention = MultiHeadAttention(32, HEADS, rng=np.random.default_rng(5))
        topo = RankTopology(dp=1, pp=1, wp_grid=wp_grid, sp=sp)
        image = rng.normal(size=(2, 16, 32, 32)).astype(np.float32)
        with count_flops() as sharded:
            swipe_window_attention(image, attention, (4, 8), topo)
        with count_flops() as single:
            reference(attention, image, False, (4, 8))
        assert sharded.total == single.total == 12_582_912

    def test_traffic_is_the_parents(self):
        """Every (primitive, locality) byte and op count of the 5 layouts x
        unshifted / shifted, as the parent commit's ``src`` metered them."""
        assert golden_record() == json.loads(GOLDEN.read_text())

    @pytest.mark.parametrize("wp_grid,sp", LAYOUTS)
    def test_alltoall_is_the_comm_models_message(self, attention, wp_grid, sp):
        """The executed witness ``comm_check`` promises: 4·M·(SP−1)·WP bytes
        of all-to-all, M = b·s·h/SP/WP from ``CommModel`` at the simulation's
        FP32 itemsize (the model books BF16), all of it intra-node."""
        topo = RankTopology(dp=1, pp=1, wp_grid=wp_grid, sp=sp)
        config = AerisConfig("swipe", height=GRID[0], width=GRID[1], dim=DIM,
                             heads=HEADS, window=WINDOW)
        image = rng.normal(size=(2,) + GRID + (DIM,)).astype(np.float32)
        m = CommModel(config, AURORA, topo).alltoall_message_bytes(2) \
            * image.itemsize // 2
        with observed() as (tracer, registry):
            cluster = SimCluster(topo.world_size, ranks_per_node=sp)
            swipe_window_attention(image, attention, WINDOW, topo,
                                   cluster=cluster)
            result = TraceReport(tracer, registry).run(
                comm_check, cluster.stats,
                predicted={"alltoall": 4 * m * (sp - 1) * topo.wp}, rel_tol=0)
        assert result["agrees"], result["summary"]
        assert cluster.stats.bytes[("alltoall", "inter")] == 0

    def test_sp_alltoall_stays_intra_node(self, attention):
        topo = RankTopology(dp=1, pp=1, wp_grid=(2, 2), sp=2)
        cluster = SimCluster(topo.world_size, ranks_per_node=topo.sp)
        image = rng.normal(size=(1,) + GRID + (DIM,)).astype(np.float32)
        swipe_window_attention(image, attention, WINDOW, topo,
                               cluster=cluster, shifted=False)
        assert cluster.stats.bytes[("alltoall", "inter")] == 0
        assert cluster.stats.bytes[("alltoall", "intra")] > 0

    def test_unshifted_needs_no_p2p(self, attention):
        topo = RankTopology(dp=1, pp=1, wp_grid=(2, 2), sp=2)
        cluster = SimCluster(topo.world_size, ranks_per_node=topo.sp)
        image = rng.normal(size=(1,) + GRID + (DIM,)).astype(np.float32)
        swipe_window_attention(image, attention, WINDOW, topo,
                               cluster=cluster, shifted=False)
        assert cluster.stats.total_bytes("p2p") == 0

    def test_shifted_pays_bounded_exchange(self, attention):
        topo = RankTopology(dp=1, pp=1, wp_grid=(2, 2), sp=2)
        cluster = SimCluster(topo.world_size, ranks_per_node=topo.sp)
        image = rng.normal(size=(1,) + GRID + (DIM,)).astype(np.float32)
        swipe_window_attention(image, attention, WINDOW, topo,
                               cluster=cluster, shifted=True)
        moved = cluster.stats.total_bytes("p2p")
        # At most the whole activation twice (shift out + back).
        assert 0 < moved <= 2 * image.nbytes

    def test_alltoall_volume_scales_inverse_wp(self, attention):
        """Per the paper's M = b·s·h/SP/WP: doubling WP halves the total
        all-to-all payload per rank; the *aggregate* over all ranks is
        constant, so we compare per-rank averages."""
        image = rng.normal(size=(1,) + GRID + (DIM,)).astype(np.float32)
        volumes = {}
        for wp_grid in ((1, 2), (2, 2)):
            topo = RankTopology(dp=1, pp=1, wp_grid=wp_grid, sp=2)
            cluster = SimCluster(topo.world_size, ranks_per_node=topo.sp)
            swipe_window_attention(image, attention, WINDOW, topo,
                                   cluster=cluster)
            wp = wp_grid[0] * wp_grid[1]
            volumes[wp] = cluster.stats.total_bytes("alltoall") / (wp * 2)
        assert volumes[4] == pytest.approx(volumes[2] / 2)

    def test_rejects_a_cluster_smaller_than_the_topology(self, attention):
        """A 2-rank cluster cannot judge locality for an 8-rank layout."""
        topo = RankTopology(dp=1, pp=1, wp_grid=(2, 2), sp=2)
        image = rng.normal(size=(1,) + GRID + (DIM,)).astype(np.float32)
        with pytest.raises(ValueError, match="RankTopology"):
            swipe_window_attention(image, attention, WINDOW, topo,
                                   cluster=SimCluster(2))

    def test_rejects_sp_not_dividing_window_tokens(self):
        """Named for what it is, not NumPy's 'array split does not result
        in an equal division'."""
        attention = MultiHeadAttention(12, 3, rng=np.random.default_rng(5))
        topo = RankTopology(dp=1, pp=1, wp_grid=(1, 1), sp=3)
        image = rng.normal(size=(1,) + GRID + (12,)).astype(np.float32)
        with pytest.raises(ValueError, match="SP=3.*RankTopology"):
            swipe_window_attention(image, attention, WINDOW, topo)
