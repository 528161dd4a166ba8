"""Link targets and the three-way link classification (paper §2.3).

Every symbolic link a semantic directory holds points at a *target*:

* a **local** target — a file in some file system of the local name space,
  identified by ``(fsid, ino)``.  Identifying by inode rather than path
  keeps the classification stable across renames: a file moved elsewhere is
  still the same file, and a prohibition on it still holds (the paper keeps
  a "compact representation of the list of all file names"; inode identity
  is our equivalent).
* a **remote** target — a result imported through a semantic mount point,
  identified by ``(namespace, doc)``.

A directory's links are classified three ways, and the classification is
what the scope-consistency algorithm preserves:

* **permanent** — explicitly added by the user; never removed by HAC;
* **transient** — produced by query evaluation; wholly owned by HAC;
* **prohibited** — once present, explicitly deleted by the user; HAC will
  never silently re-add them.

:class:`LinkSets` owns the three collections plus the link *names* under
which permanent and transient targets are materialised as symlink entries.
Only what the user said is persisted — the permanent and prohibited sets.
The transient class is a function of the query, the scope and the index,
and each of its links already exists in the tree as a symlink, so a load
reads it back from there (:meth:`LinkSets.adopt`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Set

from repro.cba.results import RemoteId
from repro.util.bitmap import Bitmap
from repro.vfs.inode import SymlinkNode

LOCAL = "local"
REMOTE = "remote"


class Target(NamedTuple):
    """Identity of what a link points at (local file or remote result)."""

    kind: str
    realm: str   # fsid for local, namespace id for remote
    ident: str   # str(ino) for local, doc id for remote

    @classmethod
    def local(cls, fsid: str, ino: int) -> "Target":
        return cls(LOCAL, fsid, str(ino))

    @classmethod
    def remote(cls, namespace: str, doc: str) -> "Target":
        return cls(REMOTE, namespace, doc)

    @classmethod
    def from_remote_id(cls, rid: RemoteId) -> "Target":
        return cls(REMOTE, rid.namespace, rid.doc)

    @property
    def is_local(self) -> bool:
        return self.kind == LOCAL

    @property
    def is_remote(self) -> bool:
        return self.kind == REMOTE

    @property
    def ino(self) -> int:
        if not self.is_local:
            raise ValueError(f"not a local target: {self}")
        return int(self.ident)

    @property
    def key(self):
        """The CBA engine document key for a local target."""
        if not self.is_local:
            raise ValueError(f"not a local target: {self}")
        return (self.realm, int(self.ident))

    def remote_id(self) -> RemoteId:
        if not self.is_remote:
            raise ValueError(f"not a remote target: {self}")
        return RemoteId(self.realm, self.ident)

    def to_obj(self):
        return [self.kind, self.realm, self.ident]

    @classmethod
    def from_obj(cls, obj) -> "Target":
        kind, realm, ident = obj
        return cls(kind, realm, ident)

    def __str__(self):
        if self.is_local:
            return f"{self.realm}:ino{self.ident}"
        return f"{self.realm}://{self.ident}"


class LinkSets:
    """The permanent/transient/prohibited classification for one directory.

    Permanent and transient targets carry the entry *name* they are
    materialised under inside the directory; prohibited targets are pure
    tombstones (the entry is gone).

    Beside the tables sits a derived view of the transient class, the only
    one that grows with the corpus: ``transient_ids``, the doc ids of its
    local targets in the engine ``bound`` names, and ``name_by_id``, the
    entry each is materialised under.  The consistency pass maintains the
    view link by link; a hand edit or a load unbinds it, and the next
    evaluation derives it again (:meth:`bind`).  ``remote`` is the class's
    few remote targets, kept by every mutator.
    """

    def __init__(self):
        self.permanent: Dict[str, Target] = {}
        self.transient: Dict[str, Target] = {}
        self.prohibited: Set[Target] = set()
        self.transient_name: Dict[Target, str] = {}
        self.remote: Set[Target] = set()
        self.bound = None
        self.transient_ids = Bitmap()
        self.name_by_id: Dict[int, str] = {}
        #: the registry's ``paths_moved`` when the link texts last agreed
        self.texts_at: Optional[int] = None

    # -- queries ---------------------------------------------------------------

    def classify(self, target: Target) -> Optional[str]:
        """'permanent' | 'transient' | 'prohibited' | None."""
        if target in self.prohibited:
            return "prohibited"
        if target in self.permanent.values():
            return "permanent"
        return "transient" if target in self.transient_name else None

    def name_of(self, target: Target) -> Optional[str]:
        for name, tgt in self.permanent.items():
            if tgt == target:
                return name
        return self.transient_name.get(target)

    def target_of(self, name: str) -> Optional[Target]:
        return self.permanent.get(name) or self.transient.get(name)

    def all_targets(self) -> Set[Target]:
        """Permanent ∪ transient — the directory's current query-result."""
        return set(self.permanent.values()) | set(self.transient_name)

    def names(self) -> Iterator[str]:
        yield from self.permanent
        yield from self.transient

    def used_names(self) -> Set[str]:
        return set(self.permanent) | set(self.transient)

    # -- mutation ----------------------------------------------------------------

    def bind(self, engine) -> List[str]:
        """Derive the id view against *engine*.  Local transient links
        whose document it does not hold leave the table — no result can
        contain them — and their names are returned for unlinking."""
        self.bound, self.name_by_id, dead = engine, {}, []
        self.texts_at = None
        for name, target in self.transient.items():
            if target.is_local:
                doc_id = engine.doc_id_of(target.key)
                if doc_id is None:
                    dead.append(name)
                else:
                    self.name_by_id[doc_id] = name
        for name in dead:
            del self.transient_name[self.transient.pop(name)]
        self.transient_ids = Bitmap(self.name_by_id)
        return dead

    def adopt(self, entries, resolve) -> List[str]:
        """Read the transient class from a directory's *entries*: every
        symlink not under a permanent name is transient, its target the
        one ``resolve(text)`` gives.  Returns the names left out — whose
        text resolves to no file, or to a target another name already
        holds — for the caller to unlink, a user's link to a directory
        excepted."""
        held = set(self.permanent.values())
        debris = []
        for name, node in entries.items():
            if not isinstance(node, SymlinkNode) or name in self.permanent:
                continue
            target = resolve(node.target)
            if target is None or target in held:
                debris.append(name)
            else:
                held.add(target)
                self.add_transient(name, target)
        return debris

    def add_permanent(self, name: str, target: Target) -> None:
        """User created a link: permanent, and any prohibition is lifted
        (re-adding by hand is the paper's "direct action by the user")."""
        self.prohibited.discard(target)
        self.permanent[name] = target
        self._unbind(target)

    def add_transient(self, name: str, target: Target,
                      doc_id: Optional[int] = None) -> None:
        self.transient[name] = target
        self.transient_name[target] = name
        if doc_id is not None:
            self.name_by_id[doc_id] = name
            self.transient_ids.add(doc_id)
        elif target.is_local:
            self.bound = None
        else:
            self.remote.add(target)

    def drop_transient_id(self, doc_id: int) -> str:
        """Drop the transient link of *doc_id* — by id, so a withdrawn
        document needs no registry row; returns the entry's name."""
        name = self.name_by_id.pop(doc_id)
        self.transient_ids.discard(doc_id)
        del self.transient_name[self.transient.pop(name)]
        return name

    def prohibit(self, name: str) -> Optional[Target]:
        """User deleted the entry *name*: tombstone its target."""
        target = self.forget(name)
        if target is not None:
            self.prohibited.add(target)
        return target

    def forget(self, name: str) -> Optional[Target]:
        """Drop the entry without prohibiting (internal maintenance)."""
        target = self.permanent.pop(name, None)
        if target is None:
            target = self.transient.pop(name, None)
            if target is None:
                return None
            del self.transient_name[target]
            self.remote.discard(target)
        self._unbind(target)
        return target

    def unprohibit(self, target: Target) -> bool:
        """Explicitly lift a tombstone (the sophisticated-user API)."""
        lifted = target in self.prohibited
        self.prohibited.discard(target)
        self._unbind(target)
        return lifted

    def _unbind(self, target: Target) -> None:
        """An edit outside evaluation moved a local target: the id view
        and the result derived from it are stale until rebound."""
        if target.is_local:
            self.bound = None

    def clear_transient(self) -> None:
        self.transient.clear()
        self.transient_name.clear()
        self.remote.clear()
        self.bound = None

    # -- persistence ----------------------------------------------------------------

    def to_obj(self):
        """The user's facts only; the transient class lives in the tree."""
        return {
            "permanent": {n: t.to_obj() for n, t in self.permanent.items()},
            "prohibited": [t.to_obj() for t in sorted(self.prohibited)],
        }

    @classmethod
    def from_obj(cls, obj) -> "LinkSets":
        ls = cls()
        ls.permanent = {n: Target.from_obj(t) for n, t in obj["permanent"].items()}
        ls.prohibited = {Target.from_obj(t) for t in obj["prohibited"]}
        return ls

    def __repr__(self):
        return (f"LinkSets(permanent={len(self.permanent)}, "
                f"transient={len(self.transient)}, "
                f"prohibited={len(self.prohibited)})")
