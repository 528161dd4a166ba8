"""The formal SearchBackend protocol — HAC's CBA seam, written down.

The paper argues its content-based access API is general enough to host
any search system (§2.2).  This module makes the contract explicit — a
:class:`typing.Protocol` that the monolithic
:class:`~repro.cba.engine.CBAEngine` and the
:class:`~repro.cluster.ShardedSearchCluster` both satisfy — so
``HacFileSystem`` and friends can type against one name and drop the
ad-hoc sniffing.  (A semantically mounted remote system is a
:class:`~repro.remote.namespace.NameSpace`, a different and much
narrower seam.)

Two method families beyond the obvious maintenance/query core deserve a
note:

* **Doc-id reservation** (:meth:`SearchBackend.reserve_doc_id`).  Block
  assignment is ``doc_id % num_blocks``, so query answers depend on the
  ids documents received.  The batched maintenance pipeline reserves ids
  at *enqueue* time and pins them at apply time, which is what keeps a
  coalesced batch bit-identical to the eager sequence it replaced.

* **Degradation surface** (:meth:`SearchBackend.shard_of`,
  :meth:`SearchBackend.reset_missing_shards`, :meth:`SearchBackend.health`).
  A monolithic engine has no shards, so its implementations are trivial
  (``None`` / empty) — but having them lets the consistency cascade and
  the shell run one unconditional code path against either back-end.
"""

from __future__ import annotations

from typing import (Dict, Hashable, Iterable, List, Optional, Protocol, Set,
                    Tuple, runtime_checkable)

from repro.util.bitmap import Bitmap
from repro.cba.glimpse import DEFAULT_NUM_BLOCKS
from repro.cba.incremental import ReindexPlan
from repro.cba.queryast import Node


@runtime_checkable
class SearchBackend(Protocol):
    """What HAC requires of a content-search back-end.

    ``isinstance(obj, SearchBackend)`` checks method *presence* (a
    :func:`typing.runtime_checkable` protocol cannot check signatures);
    the equivalence property suites check behaviour.
    """

    # -- maintenance ---------------------------------------------------------

    def index_document(self, key: Hashable, path: str, mtime: float,
                       text: Optional[str] = None,
                       doc_id: Optional[int] = None) -> int:
        """Add a new document; *doc_id* pins a previously reserved id."""

    def remove_document(self, key: Hashable) -> int:
        """Withdraw a document; returns the freed doc id."""

    def update_document(self, key: Hashable, path: str, mtime: float,
                        text: Optional[str] = None) -> int:
        """Re-tokenise a changed document in place (doc id preserved)."""

    def rename_document(self, key: Hashable, new_path: str) -> None:
        """Update the display path without re-tokenising."""

    def reindex(self, current: Iterable[Tuple[Hashable, str, float]],
                previous: Optional[Dict[Hashable, float]] = None
                ) -> ReindexPlan:
        """Bring the index in line with *current* ``(key, path, mtime)``."""

    def rebase_paths(self, old_prefix: str, new_prefix: str) -> int:
        """Directory rename: re-root every path under *old_prefix*."""

    def reserve_doc_id(self) -> int:
        """Claim the next doc id now, for a later pinned ``index_document``."""

    # -- registry ------------------------------------------------------------

    def doc_by_id(self, doc_id: int): ...

    def doc_by_key(self, key: Hashable): ...

    def paths_of(self, hits: Bitmap) -> List[str]:
        """Registered paths of the live documents in *hits* (bulk read)."""

    def doc_id_of(self, key: Hashable) -> Optional[int]: ...

    def all_docs(self) -> Bitmap: ...

    def mtime_snapshot(self) -> Dict[Hashable, float]: ...

    def __contains__(self, key: Hashable) -> bool: ...

    def __len__(self) -> int: ...

    # -- queries -------------------------------------------------------------

    def search(self, query: Node, scope: Optional[Bitmap] = None) -> Bitmap:
        """Evaluate a content-only query over an optional scope bitmap."""

    def search_blocks(self, query: Node, blocks: Bitmap,
                      scope: Optional[Bitmap] = None) -> Bitmap:
        """Verify a pre-planned query against externally nominated blocks."""

    def estimate_docs(self, node: Node) -> int:
        """Planner selectivity estimate for *node* (upper bound on hits)."""

    def extract(self, key: Hashable, query: Node) -> List[str]:
        """Match-carrying lines of one document (``sact``)."""

    def scope_docs(self, prefix: str) -> Bitmap:
        """Exact set of indexed documents at-or-below a path prefix."""

    def scope_count(self, prefix: str) -> int:
        """How many indexed documents lie at-or-below a path prefix."""

    # -- serving tier --------------------------------------------------------

    def publish(self) -> int:
        """Publish current state as the next snapshot version; returns it."""

    def snapshot_view(self):
        """The freshest published read view (zero-barrier query surface)."""

    def snapshot_info(self) -> Dict[str, object]:
        """Published version, pending op count, and per-replica state."""

    # -- degradation surface -------------------------------------------------

    def shard_of(self, key: Hashable) -> Optional[str]:
        """Owning shard id, or None on an unsharded back-end."""

    def reset_missing_shards(self) -> Set[str]:
        """Clear and return the shards missed since the last reset."""

    def health(self) -> Dict[str, str]:
        """Per-shard health (empty on an unsharded back-end)."""

    # -- persistence ---------------------------------------------------------

    def to_obj(self): ...

    @classmethod
    def from_obj(cls, obj, loader, **kwargs) -> "SearchBackend": ...


# ======================================================================
# unified backend construction
# ======================================================================

class BackendFactory:
    """Builds (and restores) one kind of engine for ``HacFileSystem``.

    What belongs to the file system — loader, counters, transducer, block
    count, and the clock for engines that keep time — arrives per call;
    everything else (cluster topology, fault-injection knobs,
    ``segmented``) is fixed here as *options* and forwarded to the engine
    class's constructor, ``from_obj`` and ``from_segments`` alike.
    """

    def __init__(self, engine_cls, clocked: bool = False, **options):
        self.engine_cls = engine_cls
        self.clocked = clocked
        self.options = options

    def _config(self, counters=None, clock=None,
                transducer=None) -> Dict[str, object]:
        config = dict(self.options, counters=counters, transducer=transducer)
        if self.clocked:
            config["clock"] = clock
        return config

    def __call__(self, loader, *, num_blocks: int = DEFAULT_NUM_BLOCKS,
                 **site):
        return self.engine_cls(loader, num_blocks=num_blocks,
                               **self._config(**site))

    def from_obj(self, obj, *, loader, **site):
        return self.engine_cls.from_obj(obj, loader, **self._config(**site))

    @property
    def folds_segments(self) -> bool:
        """Whether a restore may merge this backend back from persisted
        segments: a segmented single engine (a cluster persists none)."""
        return bool(self.options.get("segmented")) and \
            hasattr(self.engine_cls, "from_segments")

    def from_segments(self, store, *, loader, next_doc_id: int,
                      num_blocks: int, **site):
        return self.engine_cls.from_segments(
            store, loader, next_doc_id=next_doc_id, num_blocks=num_blocks,
            **self._config(**site))


def open_backend(spec, **options):
    """One entry point for every search-backend kind.

    ``open_backend`` takes a *spec* and returns the right thing for the
    seam the spec names:

    * ``"monolith"`` (or ``None``) → a :class:`BackendFactory` over
      :class:`~repro.cba.engine.CBAEngine`, segmented by default (pass as
      ``HacFileSystem(backend=...)``);
    * ``"cluster"`` or ``"cluster:<K>"`` → a :class:`BackendFactory` over
      :class:`~repro.cluster.ShardedSearchCluster` with K shards;
    * a dict ``{"kind": ..., **kwargs}`` — the explicit form of any of
      the above;
    * an already-built factory passes through unchanged.

    Keyword *options* are forwarded to the underlying constructor
    (``shards=``, ``latency=``, ``segmented=``, ...).
    """
    if spec is None:
        spec = "monolith"
    if isinstance(spec, dict):
        spec = dict(spec)
        kind = spec.pop("kind", "monolith")
        return _build_backend(str(kind), {**spec, **options})
    if isinstance(spec, str):
        kind, _, arg = spec.partition(":")
        merged = dict(options)
        if arg and kind == "cluster":
            merged.setdefault("shards", int(arg))
        return _build_backend(kind, merged)
    # anything already satisfying a backend seam passes through
    return spec


def _build_backend(kind: str, options: Dict[str, object]):
    if kind == "monolith":
        from repro.cba.engine import CBAEngine

        options.setdefault("segmented", True)
        return BackendFactory(CBAEngine, **options)
    if kind == "cluster":
        from repro.cluster import ShardedSearchCluster

        shards = options.pop("shards", 3)
        options.setdefault("shard_ids", [f"shard{i}" for i in range(shards)])
        return BackendFactory(ShardedSearchCluster, clocked=True, **options)
    raise ValueError(f"unknown backend kind: {kind!r} "
                     "(monolith | cluster)")
