"""Admission control — degradation as a serving policy, not just a flag.

PRs 2–6 taught HAC to *report* trouble: breakers open, shards go down,
directories carry stale flags.  But a reporting-only system keeps
accepting work it cannot finish — strong reads convoy behind a barrier
that hammers a dead back-end, and the maintenance queue grows without
bound while drains fail and requeue.  The
:class:`AdmissionController` turns the same health signals into policy
at the two points where load enters the system:

* **reads** (``glimpse``) — when any back-end is degraded, a
  ``strong`` read is *downgraded* to ``snapshot``: the published-replica
  path is entirely in-process, so it keeps serving complete as-of-publish
  answers while the live scatter-gather would return partial results
  (``admission.downgraded_reads`` counts these);
* **writes** (``HacFileSystem.write_file``/``create``/``truncate``,
  descriptor ``write`` and write-mode ``open``, each before any bytes
  land, and the scheduler's enqueue for direct callers) — when back-ends
  are degraded *and* the pending maintenance queue has reached
  ``max_queue_depth``, the write is *shed* with
  :class:`~repro.errors.AdmissionRejected` (``admission.shed_writes``
  counts these) instead of deepening a queue that cannot drain usefully.

The gate is **disabled by default** — enabling it is an explicit serving
policy decision (``hac.admission.enable()``, or ``admit on`` in the
shell), so nothing changes for existing workloads.  All decisions read
only deterministic state (breaker states, shard health, queue depth), so
shed/downgrade counts are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from repro.errors import AdmissionRejected

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem

#: pending maintenance entries at which a degraded system starts shedding
DEFAULT_MAX_QUEUE_DEPTH = 64

#: back-end health values that count as degraded: a tripped (or probing)
#: breaker, or a shard marked down outright
_DEGRADED_STATES = ("open", "half_open", "down")


class AdmissionController:
    """Sheds or downgrades load when health signals say the system is
    degraded; a no-op until :meth:`enable` is called."""

    def __init__(self, hacfs: "HacFileSystem",
                 max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
                 downgrade_reads: bool = True,
                 shed_writes: bool = True):
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        self.hacfs = hacfs
        self.enabled = False
        self.max_queue_depth = max_queue_depth
        self.downgrade_reads = downgrade_reads
        self.shed_writes = shed_writes
        self._stats = hacfs.counters.scoped("admission")

    # ------------------------------------------------------------------
    # policy switches
    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # health evaluation (reads only deterministic state)
    # ------------------------------------------------------------------

    def degraded_backends(self) -> List[str]:
        """Names of back-ends currently degraded: mounted name spaces with
        tripped breakers, and shards down or breaker-open."""
        out = [ns_id
               for ns_id, state in sorted(self.hacfs.semmounts.health().items())
               if state in _DEGRADED_STATES]
        out.extend(f"shard.{sid}"
                   for sid, state in sorted(self.hacfs.engine.health().items())
                   if state in _DEGRADED_STATES)
        return out

    def state(self) -> str:
        """``healthy`` | ``degraded`` | ``overloaded`` (degraded with the
        maintenance queue at or past ``max_queue_depth``)."""
        if not self.degraded_backends():
            return "healthy"
        if self.hacfs.maintenance.pending >= self.max_queue_depth:
            return "overloaded"
        return "degraded"

    # ------------------------------------------------------------------
    # the gates
    # ------------------------------------------------------------------

    def admit_read(self, consistency: str) -> str:
        """Admission decision for one query; returns the consistency level
        the read should actually run at."""
        if not self.enabled:
            return consistency
        self._stats.add("reads")
        if consistency != "strong" or not self.downgrade_reads:
            return consistency
        if not self.degraded_backends():
            return consistency
        self._stats.add("downgraded_reads")
        if self.hacfs.obs.trace.enabled:
            self.hacfs.obs.trace.event("admission.downgrade",
                                       to="snapshot")
        return "snapshot"

    def admit_write(self, path: str = "") -> None:
        """Admission decision for one mutation — called *before* any state
        is touched.  Raises :class:`~repro.errors.AdmissionRejected` when
        shedding; otherwise a no-op."""
        if not self.enabled:
            return
        self._stats.add("writes")
        if not self.shed_writes:
            return
        degraded = self.degraded_backends()
        pending = self.hacfs.maintenance.pending
        if not degraded or pending < self.max_queue_depth:
            return
        self._stats.add("shed_writes")
        if self.hacfs.obs.trace.enabled:
            self.hacfs.obs.trace.event("admission.shed", path=path,
                                       pending=pending)
        raise AdmissionRejected(
            ",".join(degraded),
            f"load shed at queue depth {pending} >= {self.max_queue_depth}"
            + (f" ({path})" if path else ""))

    def admit_enqueue(self) -> None:
        """Gate for upsert enqueues made directly on the scheduler
        (``maintenance.note_upsert``), which pass through no file
        operation.  Every content-changing file operation is gated by
        :meth:`admit_write` before it touches state; its watch event's
        check here re-runs against the same deterministic state and
        passes again, so a write never sheds *after* its bytes landed.

        Only upserts are gated: a shed upsert leaves the index stale
        until the next sync's mtime diff repairs it (info-severity at
        fsck).  Shedding a removal would leave a ghost document
        answering queries, and shedding a move would strand the old path
        forever (moves keep the document mtime, invisible to incremental
        reindex) — those events are always accepted.
        """
        if not self.enabled or not self.shed_writes:
            return
        degraded = self.degraded_backends()
        pending = self.hacfs.maintenance.pending
        if not degraded or pending < self.max_queue_depth:
            return
        self._stats.add("shed_writes")
        if self.hacfs.obs.trace.enabled:
            self.hacfs.obs.trace.event("admission.shed", path="<enqueue>",
                                       pending=pending)
        raise AdmissionRejected(
            ",".join(degraded),
            f"enqueue shed at queue depth {pending} >= {self.max_queue_depth}")

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Structured snapshot for ``hac.health()['admission']`` and the
        shell's ``admit status``."""
        return {
            "enabled": self.enabled,
            "state": self.state(),
            "max_queue_depth": self.max_queue_depth,
            "pending": self.hacfs.maintenance.pending,
            "degraded_backends": self.degraded_backends(),
            "reads": self._stats.get("reads"),
            "writes": self._stats.get("writes"),
            "downgraded_reads": self._stats.get("downgraded_reads"),
            "shed_writes": self._stats.get("shed_writes"),
        }
