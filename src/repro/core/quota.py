"""Per-tenant resource budgets: specs, a check-then-measure ledger.

The tenant facade (:mod:`repro.core.tenant`) checks every mutation against
the tenant's :class:`QuotaSpec` *before* delegating to the shared
:class:`~repro.core.hacfs.HacFileSystem` — a rejected request raises
:class:`~repro.errors.QuotaExceeded` with nothing to roll back.  The
pre-check is an *upper bound* on what the operation may add; what is
committed afterwards is a *measurement* — :func:`usage_at` of every tree
site the operation could change, after minus before — so the ledger
cannot drift from the tree by mispredicting an operation (an ``open(p,
"w")`` truncation, a rename replacing a file, a write into the middle of
a file).  Budgets:

* **inodes** — directories and regular files under the tenant root (the
  root itself is free; symlinks are uncharged because semantic-directory
  re-evaluation materialises and drops them outside the facade);
* **bytes** — total file content bytes;
* **docs** — documents the content index holds under the tenant root
  (checked against the engine's CAS subtree count, so a tenant cannot
  grow the shared index past its share even through un-watched writes
  followed by ``ssync``).

The ledger is in-memory and authoritative during a run; after a restore
(or ``TenantManager`` re-attach) it is *recomputed from the tree*, which
is both simpler and safer than persisting usage per-op: the tree is
already crash-consistent, so the recomputed numbers are too.  ``fsck``'s
tenant pass cross-checks the ledger against a fresh recount and reports
any drift as a finding.

Quota checks compose with PR 7's admission control rather than replacing
it: the facade charges the quota first (per-tenant policy), then the
underlying op runs the admission gate (whole-system backpressure).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import (FileNotFound, NotADirectory, QuotaExceeded,
                          SymlinkLoop)
from repro.util import pathutil

#: ledger resources, in reporting order
RESOURCES = ("inodes", "bytes", "docs")


class QuotaSpec:
    """One tenant's budgets.  ``None`` means unlimited.

    ``weight`` is not a budget but the tenant's fair-share weight in the
    maintenance scheduler's weighted round-robin drain order.
    """

    __slots__ = ("max_inodes", "max_bytes", "max_docs", "weight")

    def __init__(self, max_inodes: Optional[int] = None,
                 max_bytes: Optional[int] = None,
                 max_docs: Optional[int] = None,
                 weight: int = 1):
        if weight < 1:
            raise ValueError("fair-share weight must be >= 1")
        self.max_inodes = max_inodes
        self.max_bytes = max_bytes
        self.max_docs = max_docs
        self.weight = int(weight)

    def limit_of(self, resource: str) -> Optional[int]:
        return {"inodes": self.max_inodes, "bytes": self.max_bytes,
                "docs": self.max_docs}[resource]

    def to_obj(self) -> Dict[str, object]:
        return {"max_inodes": self.max_inodes, "max_bytes": self.max_bytes,
                "max_docs": self.max_docs, "weight": self.weight}

    @classmethod
    def from_obj(cls, obj) -> "QuotaSpec":
        return cls(max_inodes=obj.get("max_inodes"),
                   max_bytes=obj.get("max_bytes"),
                   max_docs=obj.get("max_docs"),
                   weight=int(obj.get("weight", 1)))

    def __repr__(self):
        return (f"QuotaSpec(inodes={self.max_inodes}, bytes={self.max_bytes},"
                f" docs={self.max_docs}, weight={self.weight})")


class QuotaLedger:
    """Running usage for one tenant: checked ahead of every mutation,
    committed from what the mutation measurably did."""

    __slots__ = ("tenant", "spec", "inodes", "bytes")

    def __init__(self, tenant: str, spec: QuotaSpec):
        self.tenant = tenant
        self.spec = spec
        self.inodes = 0
        self.bytes = 0

    # -- the check-then-commit protocol -------------------------------------

    def check(self, resource: str, delta: int) -> None:
        """Raise :class:`QuotaExceeded` if charging *delta* would overrun.

        Pure check — call :meth:`commit` only after the underlying
        operation succeeded, so a failed op never shifts the ledger.
        """
        if delta <= 0:
            return
        limit = self.spec.limit_of(resource)
        if limit is None:
            return
        used = getattr(self, resource, 0)
        if used + delta > limit:
            raise QuotaExceeded(self.tenant, resource, used, limit,
                                requested=delta)

    def check_docs(self, indexed: int, delta: int = 1) -> None:
        """Doc budget check against the engine's live subtree count."""
        limit = self.spec.max_docs
        if limit is not None and indexed + delta > limit:
            raise QuotaExceeded(self.tenant, "docs", indexed, limit,
                                requested=delta)

    def commit(self, resource: str, delta: int) -> None:
        """Apply a charge (or a release, with negative *delta*)."""
        setattr(self, resource, max(0, getattr(self, resource) + delta))

    def usage(self) -> Dict[str, int]:
        return {"inodes": self.inodes, "bytes": self.bytes}


def usage_at(fs, path: str, follow: bool = False) -> Tuple[int, int]:
    """``(inodes, bytes)`` charged for the one tree entry at *path*.

    A directory or a regular file is one inode, a file also its content
    bytes.  A missing entry is nothing, and so is a symlink — links are
    uncharged because semantic-directory re-evaluation materialises and
    drops them behind the tenant's back.  *follow* measures the file a
    link names instead (content written through a link lands there).
    """
    try:
        st = fs.stat(path) if follow else fs.lstat(path)
    except (FileNotFound, NotADirectory, SymlinkLoop):
        return 0, 0
    return _charge(st)


def _charge(entry) -> Tuple[int, int]:
    """The ``(inodes, bytes)`` rule for one entry, an inode or its stat."""
    if entry.is_symlink:
        return 0, 0
    return 1, (entry.attrs.size if entry.is_file else 0)


def recompute_usage(fs, root: str) -> Dict[str, int]:
    """Recount a tenant subtree from the live tree (restore / fsck audit).

    Counts every directory and regular file strictly below *root* (the
    root itself is infrastructure, not tenant usage) and sums file
    content bytes — :func:`usage_at`'s rule per entry, the same one the
    facade commits by.
    """
    from repro.vfs.walker import walk

    inodes = 0
    total_bytes = 0
    for dirpath, _dirnames, filenames, (_owner, dirnode) in walk(fs, root):
        if pathutil.canonical(dirpath) != pathutil.canonical(root):
            inodes += 1
        for name in filenames:
            entry_inodes, entry_bytes = _charge(dirnode.entries[name])
            inodes += entry_inodes
            total_bytes += entry_bytes
    return {"inodes": inodes, "bytes": total_bytes}
