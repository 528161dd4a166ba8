"""Expected answers, computed from the generated texts alone.

The oracle never looks at HAC: it keeps ``path -> text`` for one tenant,
an inverted ``term -> paths`` map built with its own tokeniser, and answers
a query by set algebra.  The benchmark mirrors every write, rename and
delete into it, so at any drained point ``answer(q)`` is what a strong
``glimpse`` must return and what a semantic directory's links must target.
"""

from __future__ import annotations

import hashlib
import re
from collections import defaultdict
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

_WORD = re.compile(r"[A-Za-z0-9_]+")

#: words HAC does not index (too common); the query streams avoid them
STOPWORDS = frozenset(
    "a an and are as at be by for from in is it of on or that the to was "
    "with not".split())


def tokens_of(text: str) -> List[str]:
    return [w.lower() for w in _WORD.findall(text)]


class Query(NamedTuple):
    """A conjunction of literals plus a subtree restriction."""

    must: Tuple[str, ...] = ()
    must_not: Tuple[str, ...] = ()
    phrase: Tuple[str, ...] = ()
    #: tenant-relative directory the answer is confined to
    scope: str = "/"

    def text(self, host_root: str = "") -> str:
        """HAC query text.  With *host_root* the scope is spelled as a
        ``scope:`` term (what ``smkdir`` needs); without it the caller
        passes ``scope`` to ``glimpse(scope_path=...)`` instead."""
        parts = list(self.must)
        if self.phrase:
            parts.append('"' + " ".join(self.phrase) + '"')
        parts.extend(f"NOT {w}" for w in self.must_not)
        if host_root and self.scope != "/":
            parts.insert(0, f"scope:{host_root}{self.scope}")
        return " AND ".join(parts)


def under(path: str, prefix: str) -> bool:
    return prefix == "/" or path == prefix or path.startswith(prefix + "/")


class Oracle:
    """One tenant's documents and what any query over them must return."""

    def __init__(self) -> None:
        self._tokens: Dict[str, List[str]] = {}
        self._size: Dict[str, int] = {}
        self._index: Dict[str, Set[str]] = defaultdict(set)

    # -- mirroring mutations ------------------------------------------------

    def put(self, path: str, text: str) -> None:
        if path in self._tokens:
            self.remove(path)
        toks = tokens_of(text)
        self._tokens[path] = toks
        self._size[path] = len(text.encode("utf-8"))
        for tok in set(toks):
            self._index[tok].add(path)

    def remove(self, path: str) -> None:
        for tok in set(self._tokens.pop(path)):
            self._index[tok].discard(path)
        del self._size[path]

    def rename(self, old: str, new: str) -> None:
        toks = self._tokens.pop(old)
        self._tokens[new] = toks
        self._size[new] = self._size.pop(old)
        for tok in set(toks):
            self._index[tok].discard(old)
            self._index[tok].add(new)

    def rename_prefix(self, old: str, new: str) -> None:
        for path in [p for p in self._tokens if under(p, old)]:
            self.rename(path, new + path[len(old):])

    # -- reading -------------------------------------------------------------

    def __contains__(self, path: str) -> bool:
        return path in self._tokens

    def __len__(self) -> int:
        return len(self._tokens)

    def paths(self) -> List[str]:
        return sorted(self._tokens)

    def size(self, path: str) -> int:
        return self._size[path]

    def vocabulary(self) -> List[str]:
        """Indexable terms, most frequent first (ties by spelling)."""
        terms = [(-len(paths), term) for term, paths in self._index.items()
                 if paths and len(term) >= 2 and term not in STOPWORDS]
        return [term for _df, term in sorted(terms)]

    def frequency(self, term: str) -> int:
        """Documents containing *term*."""
        return len(self._index.get(term, ()))

    def answer(self, query: Query,
               within: Optional[Iterable[str]] = None) -> List[str]:
        """Sorted paths satisfying *query*; *within* (a parent semantic
        directory's targets) narrows the candidates when given."""
        if query.must:
            cands = set.intersection(*(self._index.get(w, set())
                                       for w in query.must))
        else:
            cands = set(self._tokens)
        if within is not None:
            cands &= set(within)
        out = []
        for path in cands:
            if not under(path, query.scope):
                continue
            toks = self._tokens[path]
            if any(path in self._index.get(w, ()) for w in query.must_not):
                continue
            if query.phrase and not _has_run(toks, query.phrase):
                continue
            out.append(path)
        return sorted(out)


def _has_run(tokens: List[str], words: Tuple[str, ...]) -> bool:
    n = len(words)
    first = words[0]
    return any(tokens[i] == first and tuple(tokens[i:i + n]) == words
               for i in range(len(tokens) - n + 1))


def tree_digest(tenant, top: str = "/") -> str:
    """SHA-256 over one tenant's tree as seen through its facade: every
    entry's path and kind, file sizes, and link targets.  Equal digests
    before and after ``restore`` mean the tree and every semantic
    directory's link set came back."""
    h = hashlib.sha256()
    stack = [top]
    while stack:
        cur = stack.pop()
        for name in sorted(tenant.listdir(cur)):
            path = (cur.rstrip("/") + "/" + name)
            st = tenant.lstat(path)
            if st.is_dir:
                h.update(f"d {path}\n".encode())
                stack.append(path)
            elif st.is_symlink:
                h.update(f"l {path} {tenant.readlink(path)}\n".encode())
            else:
                h.update(f"f {path} {st.size}\n".encode())
    return h.hexdigest()


def link_targets(tenant, path: str) -> List[str]:
    """Tenant-relative targets of the links in semantic directory *path*."""
    base = path.rstrip("/")
    return sorted(tenant.readlink(f"{base}/{name}")
                  for name in tenant.listdir(path)
                  if tenant.islink(f"{base}/{name}"))
