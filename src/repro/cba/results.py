"""Result-set types shared by the CBA engine and the HAC core.

A query result in HAC can mix *local* files (tracked as engine doc-ids in a
compact :class:`~repro.util.bitmap.Bitmap`, the paper's N/8-byte
representation) with *remote* results imported through semantic mount points
(tracked as :class:`RemoteId` tokens — the paper keeps remote result sets
disjoint per mounted name space, and so do we: the namespace id is part of
the token).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Set

from repro.util.bitmap import Bitmap


class RemoteId(NamedTuple):
    """Identity of one remote result: which name space, which document."""

    namespace: str
    doc: str

    def uri(self) -> str:
        return f"{self.namespace}://{self.doc}"

    @classmethod
    def from_uri(cls, uri: str) -> "RemoteId":
        namespace, sep, doc = uri.partition("://")
        if not sep:
            raise ValueError(f"not a remote uri: {uri!r}")
        return cls(namespace, doc)


class ResultSet:
    """A set of query results: local doc-ids plus remote tokens."""

    __slots__ = ("local", "remote")

    def __init__(self, local: Optional[Bitmap] = None,
                 remote: Optional[Iterable[RemoteId]] = None):
        self.local: Bitmap = local if local is not None else Bitmap()
        self.remote: Set[RemoteId] = set(remote) if remote is not None else set()

    @classmethod
    def empty(cls) -> "ResultSet":
        return cls()

    def copy(self) -> "ResultSet":
        return ResultSet(self.local.copy(), set(self.remote))

    # -- algebra (mirrors Bitmap) ---------------------------------------------

    def __or__(self, other: "ResultSet") -> "ResultSet":
        return ResultSet(self.local | other.local, self.remote | other.remote)

    def __and__(self, other: "ResultSet") -> "ResultSet":
        return ResultSet(self.local & other.local, self.remote & other.remote)

    def __sub__(self, other: "ResultSet") -> "ResultSet":
        return ResultSet(self.local - other.local, self.remote - other.remote)

    def __eq__(self, other):
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self.local == other.local and self.remote == other.remote

    def __hash__(self):
        return hash((self.local, frozenset(self.remote)))

    def __len__(self) -> int:
        return len(self.local) + len(self.remote)

    def __bool__(self) -> bool:
        return bool(self.local) or bool(self.remote)

    def __contains__(self, item) -> bool:
        if isinstance(item, RemoteId):
            return item in self.remote
        return item in self.local

    def issubset(self, other: "ResultSet") -> bool:
        return (self.local.issubset(other.local)
                and self.remote.issubset(other.remote))

    def __repr__(self):
        return f"ResultSet(local={len(self.local)}, remote={len(self.remote)})"
