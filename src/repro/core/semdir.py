"""Per-directory HAC state and its persistence (the MetaStore).

The paper's Table 1 analysis is explicit about what HAC does on every
``mkdir``: it creates and initialises *to empty* the data structures storing
the directory's query, its query-result, and its permanent and prohibited
link sets; records the directory in the global map; and adds an empty node
to the dependency graph — all persisted to disk.  We reproduce that
faithfully: **every** directory gets a :class:`SemanticDirState`; a
directory is "semantic" exactly when a query has been attached to it.
(The graph alone is not persisted: it is derived from the other two on
load, :meth:`~repro.core.depgraph.DependencyGraph.derive`.)

:class:`MetaStore` persists each state record write-through onto the
simulated block device using the record codec, so the Makedir/Copy overheads
in the Table 1 bench come from real (simulated) I/O, and the space-overhead
bench can report HAC's metadata footprint the way the paper does (222 KB vs
210 KB in their example).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.util import serialization
from repro.util.bitmap import Bitmap
from repro.vfs.blockdev import BlockDevice
from repro.cba import queryast
from repro.core.links import LinkSets


class SemanticDirState:
    """Everything HAC knows about one directory beyond the VFS itself."""

    __slots__ = ("uid", "query", "query_text", "links", "result_cache",
                 "degraded_remote", "degraded_shards")

    def __init__(self, uid: int):
        self.uid = uid
        #: the user's query AST, or None for a plain directory
        self.query: Optional[queryast.Node] = None
        #: the original query text as the user typed it (for display)
        self.query_text: Optional[str] = None
        self.links = LinkSets()
        #: doc ids of the local permanent and transient targets: the paper's
        #: N/8-byte stored result, the scope its children see (``stale-result``)
        self.result_cache = Bitmap()
        #: namespace id → virtual time since when that back-end has been
        #: unreachable; its links are last-known-good (stale) while listed
        self.degraded_remote: Dict[str, float] = {}
        #: search-cluster shard id → virtual time since when that shard has
        #: been missing from this directory's evaluations (same degradation
        #: contract as ``degraded_remote``, for the local sharded engine)
        self.degraded_shards: Dict[str, float] = {}

    @property
    def is_semantic(self) -> bool:
        return self.query is not None

    def to_obj(self):
        return {
            "uid": self.uid,
            "query": self.query.to_obj() if self.query is not None else None,
            "query_text": self.query_text,
            "links": self.links.to_obj(),
            "result": self.result_cache.to_bytes(),
            "degraded_remote": dict(self.degraded_remote),
            "degraded_shards": dict(self.degraded_shards),
        }

    @classmethod
    def from_obj(cls, obj) -> "SemanticDirState":
        state = cls(obj["uid"])
        if obj["query"] is not None:
            state.query = queryast.from_obj(obj["query"])
        state.query_text = obj["query_text"]
        state.links = LinkSets.from_obj(obj["links"])
        state.result_cache = Bitmap.from_bytes(obj["result"])
        # records written before degradation tracking lack the fields
        state.degraded_remote = {str(k): float(v)
                                 for k, v in obj.get("degraded_remote", {}).items()}
        state.degraded_shards = {str(k): float(v)
                                 for k, v in obj.get("degraded_shards", {}).items()}
        return state

    def __repr__(self):
        kind = "semantic" if self.is_semantic else "plain"
        return f"SemanticDirState(uid={self.uid}, {kind}, {self.links!r})"


class MetaStore:
    """Write-through persistence of HAC state onto the block device.

    Records:
      * ``semdir:<uid>`` — one per directory;
      * their owners' auxiliary records (:meth:`flush_aux`) —
        ``globalmap`` (the UID ↔ path table), ``engineconf``, ``tenants``.

    The in-memory copy is authoritative during a run; the store exists to
    (a) charge honest I/O for every state mutation and (b) support
    save/restore across :class:`HacFileSystem` instances (tested by the
    durability tests).
    """

    def __init__(self, device: BlockDevice):
        self.device = device
        self._states: Dict[int, SemanticDirState] = {}

    # -- directory state ------------------------------------------------------

    def create(self, uid: int) -> SemanticDirState:
        if uid in self._states:
            raise ValueError(f"state already exists for uid {uid}")
        state = SemanticDirState(uid)
        self._states[uid] = state
        self.flush(uid)
        return state

    def get(self, uid: int) -> Optional[SemanticDirState]:
        return self._states.get(uid)

    def require(self, uid: int) -> SemanticDirState:
        state = self._states.get(uid)
        if state is None:
            raise KeyError(f"no HAC state for uid {uid}")
        return state

    def drop(self, uid: int) -> None:
        self._states.pop(uid, None)
        self.device.delete_record(f"semdir:{uid}")

    def flush(self, uid: int) -> None:
        """Write-through one directory's record to the device."""
        state = self._states[uid]
        self.device.write_record(f"semdir:{uid}",
                                 serialization.dumps(state.to_obj()))

    def flush_aux(self, name: str, obj) -> None:
        """Persist an auxiliary structure (global map, tenant table)."""
        self.device.write_record(name, serialization.dumps(obj))

    def load_aux(self, name: str):
        raw = self.device.read_record(name)
        return serialization.loads(raw) if raw is not None else None

    def uids(self) -> Iterator[int]:
        return iter(list(self._states))

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, uid: int) -> bool:
        return uid in self._states

    # -- reporting / durability -------------------------------------------------

    def metadata_bytes(self) -> int:
        """Bytes of persisted HAC metadata (the paper's +5 % figure)."""
        return self.device.record_bytes

    def reload_all(self) -> None:
        """Rebuild the in-memory states from device records (crash recovery)."""
        self._states.clear()
        for key in self.device.record_keys():
            if key.startswith("semdir:"):
                raw = self.device.read_record(key)
                if raw is None:
                    continue
                state = SemanticDirState.from_obj(serialization.loads(raw))
                self._states[state.uid] = state
