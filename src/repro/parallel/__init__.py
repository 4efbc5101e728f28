"""SWiPe parallelism on a simulated, metered cluster."""

from .comm import CommStats, SimCluster, comm_check
from .domain_parallel import DomainSharding
from .pipeline import AerisPipeline, pipeline_check
from .sequence_parallel import shard_sequence, ulysses_attention
from .swipe_attention import swipe_window_attention
from .topology import RankTopology
from .window_parallel import (
    WindowSharding,
    shift_owner_change_bytes,
    window_sharding,
)
from .zero import ZeroOptimizer

#: Autotuner exports sit above :mod:`repro.perf` (which imports this
#: package's topology), and the SWiPe engine above :mod:`repro.train`
#: (whose engine runs this package's pipeline); lazy loading (PEP 562)
#: keeps the layering acyclic.
_AUTOTUNE_EXPORTS = ("Candidate", "TunedPlan", "NoFeasibleLayout",
                     "enumerate_candidates", "plan_for", "calibrated_step_s",
                     "load_plan",
                     "verify_plan")

__all__ = [
    "SimCluster", "CommStats", "comm_check", "RankTopology",
    "shard_sequence", "ulysses_attention",
    "WindowSharding", "window_sharding", "shift_owner_change_bytes",
    "DomainSharding",
    "AerisPipeline", "pipeline_check", "ZeroOptimizer",
    "SwipeEngine", "swipe_window_attention",
    *_AUTOTUNE_EXPORTS,
]


def __getattr__(name):
    if name in _AUTOTUNE_EXPORTS:
        from . import autotune
        return getattr(autotune, name)
    if name == "SwipeEngine":
        from .swipe import SwipeEngine
        return SwipeEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
