"""Kernel microbenchmarks: the hot operations of the reproduction.

These use pytest-benchmark's statistical timing (multiple rounds), unlike
the figure benches which run their expensive workload once.  Workload
definitions live in :mod:`kernel_workloads` (shared with
``run_benches.py``); each optimized workload gets a ``_reference`` twin
that runs the same computation with the kernel layer disabled, so a single
``pytest benchmarks/bench_kernels.py`` shows the before/after side by side.
"""

import numpy as np

from kernel_workloads import (
    aeris_forward_quickstart_rows1,
    aeris_forward_quickstart_rows16,
    aeris_forward_tiny,
    aeris_train_step_tiny,
    gcm_step,
    ulysses_alltoall_attention,
    window_attention_forward,
    window_attention_long_window,
    window_attention_quickstart,
    window_partition_roundtrip,
)

from repro.data import GcmConfig, LatLonGrid, StaticFields, ToyGCM
from repro.model import TINY


def test_window_partition_roundtrip(benchmark):
    w = window_partition_roundtrip()
    out = benchmark(w.optimized)
    assert out.shape == (4, 32, 64, 32)


def test_window_partition_roundtrip_reference(benchmark):
    w = window_partition_roundtrip()
    out = benchmark(w.reference)
    assert out.shape == (4, 32, 64, 32)


def test_window_attention_forward(benchmark):
    w = window_attention_forward()
    out = benchmark(w.optimized)
    assert out.shape == (2, 16, 64, 64)


def test_window_attention_forward_reference(benchmark):
    w = window_attention_forward()
    out = benchmark(w.reference)
    assert out.shape == (2, 16, 64, 64)


def test_window_attention_quickstart(benchmark):
    out = benchmark(window_attention_quickstart().optimized)
    assert out.shape == (16, 32, 16, 32)


def test_window_attention_quickstart_reference(benchmark):
    benchmark(window_attention_quickstart().reference)


def test_window_attention_long_window(benchmark):
    out = benchmark(window_attention_long_window().optimized)
    assert out.shape == (1, 2, 576, 32)


def test_window_attention_long_window_reference(benchmark):
    benchmark(window_attention_long_window().reference)


def test_ulysses_alltoall_attention(benchmark):
    w = ulysses_alltoall_attention()
    out = benchmark(w.optimized)
    assert len(out) == 4


def test_gcm_step(benchmark):
    benchmark(gcm_step().optimized)


def test_gcm_diagnostics(benchmark):
    grid = LatLonGrid(24, 48)
    gcm = ToyGCM(grid, StaticFields.generate(grid), GcmConfig())
    state = gcm.initial_state(seed=0, spinup_steps=40)
    fields = benchmark(lambda: gcm.diagnostics(state))
    assert fields.shape == (24, 48, 9)


def test_aeris_forward_tiny(benchmark):
    w = aeris_forward_tiny()
    out = benchmark(w.optimized)
    assert out.shape == (1, TINY.height, TINY.width, TINY.channels)


def test_aeris_forward_tiny_reference(benchmark):
    w = aeris_forward_tiny()
    benchmark(w.reference)


def test_aeris_forward_quickstart_rows1(benchmark):
    benchmark(aeris_forward_quickstart_rows1().optimized)


def test_aeris_forward_quickstart_rows1_reference(benchmark):
    benchmark(aeris_forward_quickstart_rows1().reference)


def test_aeris_forward_quickstart_rows16(benchmark):
    benchmark(aeris_forward_quickstart_rows16().optimized)


def test_aeris_forward_quickstart_rows16_reference(benchmark):
    benchmark(aeris_forward_quickstart_rows16().reference)


def test_aeris_train_step_tiny(benchmark):
    benchmark(aeris_train_step_tiny().optimized)


def test_aeris_train_step_tiny_reference(benchmark):
    benchmark(aeris_train_step_tiny().reference)


def test_optimized_paths_match_reference():
    """Spot-check (also held exhaustively by tests/kernels/test_golden.py):
    every paired workload's two callables agree bit-for-bit."""
    for factory in (window_attention_forward, window_attention_quickstart,
                    window_attention_long_window,
                    window_partition_roundtrip, aeris_forward_tiny,
                    aeris_forward_quickstart_rows1,
                    aeris_forward_quickstart_rows16):
        w = factory()
        a, b = w.optimized(), w.reference()
        np.testing.assert_array_equal(a.numpy(), b.numpy(), err_msg=w.name)
