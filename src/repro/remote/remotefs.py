"""A whole HAC file system exported as a mountable name space (paper §3).

The paper wants users to "export their file systems as mini-digital
libraries to others": a coworker semantically mounts your HAC file system
and searches your files — including the personal classification you built —
without you doing anything beyond exporting.

:class:`RemoteHacFileSystem` wraps a :class:`HacFileSystem` behind the
simulated RPC transport.  ``search`` runs the query with the *exporting*
side's engine over its whole name space (directory references are not
accepted — the importer's hierarchy means nothing here), and ``fetch``
reads file contents.  Document ids are the exporter's file paths, so the
importer's links read naturally.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.cba.queryparser import parse_query
from repro.remote.namespace import NameSpace, RemoteDoc
from repro.remote.rpc import RpcTransport

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem


class RemoteHacFileSystem(NameSpace):
    """Another user's HAC file system, reachable only through queries."""

    query_language = "glimpse"

    def __init__(self, namespace_id: str, hacfs: "HacFileSystem",
                 transport: Optional[RpcTransport] = None,
                 export_root: str = "/"):
        self.namespace_id = namespace_id
        self.hacfs = hacfs
        self.export_root = export_root
        self.transport = transport if transport is not None \
            else RpcTransport(namespace_id)

    def search(self, query_text: str) -> List[RemoteDoc]:
        def run() -> List[RemoteDoc]:
            ast = parse_query(query_text)  # exporter hierarchy not exposed
            scope = self.hacfs.scopes.provided(self.export_root)
            hits = self.hacfs.engine.search(ast, scope=scope.local)
            return sorted(RemoteDoc(doc=path, title=path)
                          for path in self.hacfs.engine.paths_of(hits))
        return self.transport.call("search", run)

    def fetch(self, doc: str) -> str:
        def run() -> str:
            return self.hacfs.read_file(doc).decode("utf-8", errors="replace")
        return self.transport.call("fetch", run)

    def title_of(self, doc: str) -> Optional[str]:
        return doc
