"""Reindex planning (the data-consistency workhorse, paper §2.4).

HAC settles data inconsistencies *lazily*: at user-initiated ``ssync`` or on
the periodic schedule, the CBA mechanism re-examines the file system and
updates its index.  This module computes the minimal work: given the mtime
snapshot taken at the previous reindex and the current state of the files,
classify every document as added, removed, changed, or untouched.

The planner is pure data — it never touches the index — so it can be tested
exhaustively and benchmarked against full rebuilds (ablation D).
:func:`execute_reindex` is the one place a plan is carried out, against
whichever back-end (monolithic engine or cluster coordinator) is handed in.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple


class ReindexPlan(NamedTuple):
    """The minimal index maintenance implied by a snapshot diff."""

    added: List[Hashable]
    removed: List[Hashable]
    changed: List[Hashable]
    unchanged: int

    @property
    def is_noop(self) -> bool:
        return not (self.added or self.removed or self.changed)

    @property
    def touched(self) -> int:
        return len(self.added) + len(self.removed) + len(self.changed)

    def __repr__(self):
        return (f"ReindexPlan(+{len(self.added)} -{len(self.removed)} "
                f"~{len(self.changed)} ={self.unchanged})")


def plan_reindex(previous: Dict[Hashable, float],
                 current: Dict[Hashable, float]) -> ReindexPlan:
    """Diff two ``{doc key: mtime}`` snapshots into a :class:`ReindexPlan`.

    Keys present only in *current* are added; only in *previous*, removed;
    in both with a different mtime, changed.
    """
    added: List[Hashable] = []
    changed: List[Hashable] = []
    unchanged = 0
    for key, mtime in current.items():
        old = previous.get(key)
        if old is None:
            added.append(key)
        elif old != mtime:
            changed.append(key)
        else:
            unchanged += 1
    removed = [key for key in previous if key not in current]
    return ReindexPlan(added=added, removed=removed,
                       changed=changed, unchanged=unchanged)


def execute_reindex(backend,
                    current: Iterable[Tuple[Hashable, str, float]],
                    previous: Optional[Dict[Hashable, float]] = None
                    ) -> ReindexPlan:
    """Bring *backend* in line with *current* ``(key, path, mtime)`` files
    through its own maintenance methods; returns the executed plan.

    *previous* restricts the comparison baseline (default: the back-end's
    whole :meth:`mtime_snapshot`) so documents outside a reindexed subtree
    are not treated as removed.
    """
    listing = {key: (path, mtime) for key, path, mtime in current}
    baseline = backend.mtime_snapshot() if previous is None else previous
    plan = plan_reindex(baseline,
                        {key: mtime for key, (_path, mtime) in listing.items()})
    for key in plan.removed:
        backend.remove_document(key)
    for key in plan.added:
        path, mtime = listing[key]
        backend.index_document(key, path, mtime)
    for key in plan.changed:
        path, mtime = listing[key]
        backend.update_document(key, path, mtime)
    # paths may drift without mtime changes (rename); refresh cheaply —
    # unless a transducer derives terms from the name, in which case the
    # document must be re-tokenised under its new path
    for key, (path, mtime) in listing.items():
        doc = backend.doc_by_key(key)
        if doc is not None and doc.path != path:
            if backend.transducer is not None:
                backend.update_document(key, path, mtime)
            else:
                backend.rename_document(key, path)
    backend._stats.add("reindex_runs")
    return plan


def merge_plans(first: ReindexPlan, second: ReindexPlan) -> ReindexPlan:
    """Compose two plans computed against disjoint key sets (e.g. separate
    subtrees reindexed in one ``ssync``)."""
    overlap = (set(first.added + first.removed + first.changed)
               & set(second.added + second.removed + second.changed))
    if overlap:
        raise ValueError(f"plans overlap on {sorted(map(str, overlap))[:3]}...")
    return ReindexPlan(
        added=first.added + second.added,
        removed=first.removed + second.removed,
        changed=first.changed + second.changed,
        unchanged=first.unchanged + second.unchanged,
    )
