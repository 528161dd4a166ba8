"""A simulated remote search service (the paper's digital library).

The paper's running example semantically mounts "a digital library with
scientific articles" and commercial web search engines.  We cannot reach
either, so this service is the closest synthetic equivalent: a corpus of
named documents indexed by its *own* CBA engine (a separate Glimpse
instance — remote systems do not share the local index), fronted by the
simulated RPC transport.

It speaks the same ``glimpse`` query language as local HAC, minus directory
references — exactly the constraint multiple semantic mounts impose.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cba.engine import CBAEngine, Document
from repro.cba.queryparser import parse_query
from repro.remote.namespace import NameSpace, RemoteDoc
from repro.remote.rpc import RpcTransport


class SimulatedSearchService(NameSpace):
    """An independent searchable corpus behind a (simulated) network."""

    query_language = "glimpse"

    def __init__(self, namespace_id: str,
                 documents: Optional[Dict[str, str]] = None,
                 transport: Optional[RpcTransport] = None,
                 titles: Optional[Dict[str, str]] = None):
        self.namespace_id = namespace_id
        self.transport = transport if transport is not None \
            else RpcTransport(namespace_id)
        self._docs: Dict[str, str] = {}
        self._titles: Dict[str, str] = dict(titles or {})
        self._engine = CBAEngine(loader=self._load)
        #: monotonic per-service version, stamped as the engine mtime so
        #: updates are distinguishable from the original version to
        #: incremental-reindex staleness checks (mtime snapshots diff)
        self._version = 0
        for doc, text in (documents or {}).items():
            self.add_document(doc, text)

    # -- corpus maintenance (the "publisher" side, not RPC) --------------------

    def _load(self, key) -> str:
        return self._docs.get(key, "")

    def _next_version(self) -> float:
        self._version += 1
        return float(self._version)

    def add_document(self, doc: str, text: str, title: Optional[str] = None,
                     clear_title: bool = False) -> None:
        """Add or update *doc*.

        Title contract: ``title=None`` on an update *keeps* the existing
        title (callers re-publishing text need not re-supply it); pass
        ``clear_title=True`` (or call :meth:`clear_title`) to drop it
        explicitly.
        """
        if title is not None and clear_title:
            raise ValueError("pass either title or clear_title, not both")
        version = self._next_version()
        if doc in self._docs:
            self._docs[doc] = text
            self._engine.update_document(doc, path=doc, mtime=version,
                                         text=text)
        else:
            self._docs[doc] = text
            self._engine.index_document(doc, path=doc, mtime=version,
                                        text=text)
        if title is not None:
            self._titles[doc] = title
        elif clear_title:
            self._titles.pop(doc, None)

    def clear_title(self, doc: str) -> None:
        """Drop *doc*'s stored title (it falls back to the document name)."""
        self._titles.pop(doc, None)

    def remove_document(self, doc: str) -> None:
        if doc in self._docs:
            del self._docs[doc]
            self._engine.remove_document(doc)
            self._titles.pop(doc, None)

    def mtime_snapshot(self) -> Dict[str, float]:
        """``{doc: version}`` as of now — the staleness baseline remote
        mirrors diff against (versions are this service's monotonic
        counter, not wall time)."""
        return self._engine.mtime_snapshot()

    def __len__(self) -> int:
        return len(self._docs)

    # -- the NameSpace protocol (goes over "the network") -----------------------

    def search(self, query_text: str) -> List[RemoteDoc]:
        def run() -> List[RemoteDoc]:
            ast = parse_query(query_text)  # no directory references here
            hits = self._engine.search(ast)
            out = []
            for doc_id in hits:
                doc = self._engine.doc_by_id(doc_id)
                if doc is not None:
                    out.append(RemoteDoc(doc=str(doc.key),
                                         title=self._titles.get(doc.key,
                                                                str(doc.key))))
            return sorted(out)
        return self.transport.call("search", run)

    def fetch(self, doc: str) -> str:
        def run() -> str:
            if doc not in self._docs:
                raise KeyError(f"no such document: {doc}")
            return self._docs[doc]
        return self.transport.call("fetch", run)

    def title_of(self, doc: str) -> Optional[str]:
        return self._titles.get(doc)

    # -- the SearchBackend protocol ---------------------------------------------
    #
    # The service's own engine surface, exposed so the same
    # :class:`~repro.cba.backend.SearchBackend` contract covers all three
    # back-ends.  Document keys here are plain strings (document names),
    # not HAC's ``(fsid, ino)`` pairs, which is why the service carries
    # its own ``to_obj``/``from_obj`` format instead of borrowing the
    # engine's.  ``search`` keeps its wire signature (query *text* over
    # RPC) — the protocol checks presence, and remote queries are exactly
    # the calls that must cross the simulated network.

    def index_document(self, key: str, path: str, mtime: float,
                       text: Optional[str] = None,
                       doc_id: Optional[int] = None) -> int:
        if text is not None:
            self._docs[key] = text
        return self._engine.index_document(key, path, mtime, text=text,
                                           doc_id=doc_id)

    def update_document(self, key: str, path: str, mtime: float,
                        text: Optional[str] = None) -> int:
        if text is not None:
            self._docs[key] = text
        return self._engine.update_document(key, path, mtime, text=text)

    def rename_document(self, key: str, new_path: str) -> None:
        self._engine.rename_document(key, new_path)

    def rebase_paths(self, old_prefix: str, new_prefix: str) -> int:
        return self._engine.rebase_paths(old_prefix, new_prefix)

    def reindex(self, current, previous=None):
        return self._engine.reindex(current, previous)

    def reserve_doc_id(self) -> int:
        return self._engine.reserve_doc_id()

    def doc_by_id(self, doc_id: int):
        return self._engine.doc_by_id(doc_id)

    def doc_by_key(self, key: str):
        return self._engine.doc_by_key(key)

    def doc_id_of(self, key: str) -> Optional[int]:
        return self._engine.doc_id_of(key)

    def all_docs(self):
        return self._engine.all_docs()

    def __contains__(self, key: str) -> bool:
        return key in self._engine

    def search_blocks(self, query, blocks, scope=None):
        return self._engine.search_blocks(query, blocks, scope)

    def estimate_docs(self, node) -> int:
        return self._engine.estimate_docs(node)

    def extract(self, key: str, query) -> List[str]:
        return self._engine.extract(key, query)

    def scope_docs(self, prefix: str):
        return self._engine.scope_docs(prefix)

    def scope_count(self, prefix: str) -> int:
        return self._engine.scope_count(prefix)

    def publish(self) -> int:
        return self._engine.publish()

    def snapshot_view(self):
        return self._engine.snapshot_view()

    def snapshot_info(self) -> Dict[str, object]:
        return self._engine.snapshot_info()

    def shard_of(self, key: str) -> None:
        return None

    def reset_missing_shards(self) -> Set[str]:
        return set()

    def health(self) -> Dict[str, str]:
        return {}

    def to_obj(self):
        """Dump corpus + index to plain primitives (string doc keys)."""
        return {
            "service": 1,
            "docs": dict(self._docs),
            "titles": dict(self._titles),
            "version": self._version,
            "index": self._engine.index.to_obj(),
            "registry": [[doc.doc_id, doc.key, doc.path, doc.mtime, doc.size]
                         for doc in self._engine._docs.values()],
            "next": self._engine._next_doc_id,
        }

    @classmethod
    def from_obj(cls, obj, loader=None, *, namespace_id: str = "service",
                 transport: Optional[RpcTransport] = None
                 ) -> "SimulatedSearchService":
        """Rebuild a service from :meth:`to_obj` output without
        re-tokenising (*loader* is accepted for protocol symmetry and
        ignored — the corpus travels inside the object)."""
        service = cls(namespace_id, transport=transport,
                      titles=obj.get("titles"))
        service._docs = dict(obj["docs"])
        service._version = obj.get("version", 0)
        service._engine._adopt(obj["index"],
                               (Document(*row) for row in obj["registry"]),
                               obj["next"])
        return service
