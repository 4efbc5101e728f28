"""Background CRC scrubbing over retained sharded checkpoints.

At-rest state rots: storage firmware bugs, torn writes behind a crashed
node, and plain bit rot all corrupt checkpoint shards *after* a clean
save.  Waiting until a resume to discover that is the worst time — the
newest generation is exactly the one a recovering run reaches for.  The
scrubber walks every retained generation, re-verifies each array against
the per-array CRC32s in the checkpoint manifest, and reports findings
without raising, so one rotten generation never hides the health of the
others (contrast :func:`repro.train.read_sharded_checkpoint`, which
fail-stops on the first of the same problems because its caller is about
to *use* the arrays).

Paired with N-replica retention (``tools/scrub_checkpoints.py --keep``,
:func:`repro.train.prune_checkpoints`) and fall-back resume
(:func:`repro.train.newest_valid_checkpoint`), this closes the
state-domain corruption loop: scrub finds rot early, retention guarantees
an older intact generation exists, resume skips past the rotten one
bit-exactly.

``tools/scrub_checkpoints.py`` is the operational CLI over this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.profile import count as _count
from ..obs.profile import record_event as _record_event
from ..train.checkpoint import inspect_sharded_checkpoint, list_checkpoints

__all__ = ["ScrubFinding", "ScrubReport", "scrub_checkpoint",
           "scrub_checkpoints"]


@dataclass(frozen=True)
class ScrubFinding:
    """One corrupted array (or unreadable shard) in one generation."""

    shard: str
    array: str
    reason: str


@dataclass
class ScrubReport:
    """Verification result for one checkpoint generation."""

    directory: str
    n_arrays: int = 0
    nbytes: int = 0
    findings: list[ScrubFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        status = "OK" if self.ok else f"CORRUPT ({len(self.findings)})"
        lines = [f"{self.directory}: {status}  "
                 f"[{self.n_arrays} arrays, {self.nbytes:,} bytes]"]
        for f in self.findings:
            lines.append(f"  {f.shard}:{f.array}: {f.reason}")
        return "\n".join(lines)


def scrub_checkpoint(directory: str) -> ScrubReport:
    """Verify every array of one generation against its manifest CRCs.

    Collects *all* findings instead of raising on the first, so an
    operator sees the full blast radius of a rotten generation.
    """
    shards, _, problems = inspect_sharded_checkpoint(directory)
    arrays = [a for shard in shards.values() for a in shard.values()]
    return ScrubReport(directory=directory, n_arrays=len(arrays),
                       nbytes=sum(int(a.nbytes) for a in arrays),
                       findings=[ScrubFinding(*p) for p in problems])


def scrub_checkpoints(root: str) -> list[ScrubReport]:
    """Scrub every retained generation under ``root`` (oldest first),
    booking telemetry per generation and alert-grade events per corrupt
    one."""
    reports = []
    for directory in list_checkpoints(root):
        report = scrub_checkpoint(directory)
        reports.append(report)
        _count("resilience.checkpoints_scrubbed",
               "checkpoint generations CRC-verified")
        if not report.ok:
            _count("resilience.scrub_corruptions",
                   "corrupted arrays found by the scrubber",
                   len(report.findings))
            _record_event("checkpoint.scrub_corrupt", subsystem="resilience",
                          severity="critical", path=directory,
                          findings=len(report.findings))
    return reports

