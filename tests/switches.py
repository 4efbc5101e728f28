"""Test helper: enter a process switch only in the cases that arm it."""

from contextlib import nullcontext


def maybe(switch, on: bool):
    """``switch()`` (``autocast_bf16``, ``abft_guard``) when ``on``, else
    a block that changes nothing."""
    return switch() if on else nullcontext()
