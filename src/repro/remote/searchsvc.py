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

from typing import Dict, List, Optional

from repro.cba.engine import CBAEngine
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
