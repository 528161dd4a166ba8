"""Abstract syntax trees for the HAC query language.

A query combines *content predicates* (words, phrases, approximate words)
with boolean operators and — the HAC twist — *directory references*:
a path name inside a query stands for "the existing query-result of that
directory" (paper §2.5).  Directory references are stored as stable UIDs
from the global directory map, never as raw paths, so renames cannot break
queries; ``to_text`` renders them back through the map.

Nodes are immutable and hashable; ``children`` lists are tuples.  Each node
serialises to plain dict/list primitives (``to_obj``/``from_obj``) for the
MetaStore.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple


class Node:
    """Base class for query AST nodes."""

    __slots__ = ("_hash",)

    def terms(self) -> Iterator[str]:
        """Every content word mentioned (for index lookups)."""
        return iter(())

    def dir_refs(self) -> Iterator[int]:
        """Every directory UID referenced."""
        return iter(())

    def to_obj(self):
        raise NotImplementedError

    def to_text(self, path_of_uid: Optional[Callable[[int], str]] = None) -> str:
        """Render back to query-language text."""
        raise NotImplementedError

    # structural equality/hashing provided by subclasses via _key()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def _seal(self) -> None:
        """Store the structural hash.  A node never changes, so each
        constructor computes it once, last; a sweep over cached queries
        then never walks an AST."""
        object.__setattr__(self, "_hash",
                           hash((type(self).__name__,) + self._key()))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.to_text(lambda uid: f"<dir:{uid}>")


class MatchAll(Node):
    """Matches every document in scope (the empty query)."""

    __slots__ = ()

    def __init__(self):
        self._seal()

    def to_obj(self):
        return {"op": "all"}

    def to_text(self, path_of_uid=None) -> str:
        return "*"

    def _key(self):
        return ()


class Term(Node):
    """A single word must appear in the document."""

    __slots__ = ("word",)

    def __init__(self, word: str):
        object.__setattr__(self, "word", word.lower())
        self._seal()

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Term is immutable")

    def terms(self):
        yield self.word

    def to_obj(self):
        return {"op": "term", "word": self.word}

    def to_text(self, path_of_uid=None) -> str:
        return self.word

    def _key(self):
        return (self.word,)


class Approx(Node):
    """A word must appear within edit distance ``k`` (agrep's ``word~k``)."""

    __slots__ = ("word", "k")

    def __init__(self, word: str, k: int):
        if k < 1:
            raise ValueError("approximate distance must be >= 1")
        object.__setattr__(self, "word", word.lower())
        object.__setattr__(self, "k", int(k))
        self._seal()

    def __setattr__(self, name, value):
        raise AttributeError("Approx is immutable")

    def terms(self):
        # the index cannot help with approximate terms; evaluator treats the
        # word as a scan-only predicate, so no exact-index terms are exposed.
        return iter(())

    def to_obj(self):
        return {"op": "approx", "word": self.word, "k": self.k}

    def to_text(self, path_of_uid=None) -> str:
        return f"{self.word}~{self.k}"

    def _key(self):
        return (self.word, self.k)


class FieldTerm(Node):
    """An attribute/value pair must hold for the document (``from:alice``).

    This is the SFS query model hosted inside HAC's language (an extension:
    the paper argues its CBA API can host attribute-based mechanisms like
    SFS; this node is that claim made concrete).  Attributes come from a
    *transducer* configured on the engine; a document with no transducer
    output never matches a field term.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: str, value: str):
        object.__setattr__(self, "field", field.lower())
        object.__setattr__(self, "value", value.lower())
        self._seal()

    def __setattr__(self, name, value):
        raise AttributeError("FieldTerm is immutable")

    def terms(self):
        # indexed under a colon-joined token that plain words can never be
        yield f"{self.field}:{self.value}"

    def to_obj(self):
        return {"op": "field", "field": self.field, "value": self.value}

    def to_text(self, path_of_uid=None) -> str:
        return f"{self.field}:{self.value}"

    def _key(self):
        return (self.field, self.value)


class Phrase(Node):
    """Words must appear adjacently, in order."""

    __slots__ = ("words",)

    def __init__(self, words: Sequence[str]):
        if not words:
            raise ValueError("empty phrase")
        object.__setattr__(self, "words", tuple(w.lower() for w in words))
        self._seal()

    def __setattr__(self, name, value):
        raise AttributeError("Phrase is immutable")

    def terms(self):
        return iter(self.words)

    def to_obj(self):
        return {"op": "phrase", "words": list(self.words)}

    def to_text(self, path_of_uid=None) -> str:
        return '"' + " ".join(self.words) + '"'

    def _key(self):
        return (self.words,)


class ScopeTerm(Node):
    """The document's registered path must lie at-or-below a prefix
    (``scope:/projects/mail``) — the path dimension as a first-class
    query predicate, answered by the CAS index when one is attached.

    Unlike :class:`DirRef` (which names a *directory's stored result*),
    a scope term names a *subtree of the hierarchy*: it matches every
    indexed document whose path is under the prefix, independent of any
    semantic directory's query.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix: str):
        from repro.util import pathutil
        object.__setattr__(self, "prefix", pathutil.normalize(prefix))
        self._seal()

    def __setattr__(self, name, value):
        raise AttributeError("ScopeTerm is immutable")

    def to_obj(self):
        return {"op": "scope", "prefix": self.prefix}

    def to_text(self, path_of_uid=None) -> str:
        return f"scope:{self.prefix}"

    def _key(self):
        return (self.prefix,)


def scoped(node: Node, prefix: str) -> Node:
    """*node* restricted to the subtree at *prefix* — the programmatic
    form of writing ``scope:<prefix> AND <query>``.

    The tenant facade builds every query this way, so one shared index
    answers per-tenant searches from its CAS prefix partitions.  A node
    already scoped at-or-below *prefix* is returned unchanged (the
    narrower scope subsumes the wider one).
    """
    from repro.util import pathutil

    term = ScopeTerm(prefix)
    if isinstance(node, ScopeTerm) and \
            pathutil.is_ancestor(term.prefix, node.prefix, strict=False):
        return node
    if isinstance(node, MatchAll):
        return term
    return And([term, node])


class DirRef(Node):
    """The stored query-result of another directory, by UID."""

    __slots__ = ("uid",)

    def __init__(self, uid: int):
        object.__setattr__(self, "uid", int(uid))
        self._seal()

    def __setattr__(self, name, value):
        raise AttributeError("DirRef is immutable")

    def dir_refs(self):
        yield self.uid

    def to_obj(self):
        return {"op": "dir", "uid": self.uid}

    def to_text(self, path_of_uid=None) -> str:
        if path_of_uid is None:
            return f"<dir:{self.uid}>"
        path = path_of_uid(self.uid)
        return path if path is not None else f"<dir:{self.uid}>"

    def _key(self):
        return (self.uid,)


class _Compound(Node):
    """Shared machinery for AND/OR."""

    __slots__ = ("children",)
    _opname = "?"

    def __init__(self, children: Sequence[Node]):
        flat: List[Node] = []
        for child in children:
            if type(child) is type(self):
                flat.extend(child.children)  # type: ignore[attr-defined]
            else:
                flat.append(child)
        if len(flat) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two operands")
        object.__setattr__(self, "children", tuple(flat))
        self._seal()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def terms(self):
        for child in self.children:
            yield from child.terms()

    def dir_refs(self):
        for child in self.children:
            yield from child.dir_refs()

    def to_obj(self):
        return {"op": self._opname, "children": [c.to_obj() for c in self.children]}

    def to_text(self, path_of_uid=None) -> str:
        parts = []
        for child in self.children:
            text = child.to_text(path_of_uid)
            if isinstance(child, _Compound) and type(child) is not type(self):
                text = f"({text})"
            parts.append(text)
        return f" {self._opname.upper()} ".join(parts)

    def _key(self):
        return (self.children,)


class And(_Compound):
    """Every operand must match."""

    __slots__ = ()
    _opname = "and"


class Or(_Compound):
    """At least one operand must match."""

    __slots__ = ()
    _opname = "or"


class Not(Node):
    """The operand must not match (evaluated relative to the scope)."""

    __slots__ = ("child",)

    def __init__(self, child: Node):
        object.__setattr__(self, "child", child)
        self._seal()

    def __setattr__(self, name, value):
        raise AttributeError("Not is immutable")

    def terms(self):
        return self.child.terms()

    def dir_refs(self):
        return self.child.dir_refs()

    def to_obj(self):
        return {"op": "not", "child": self.child.to_obj()}

    def to_text(self, path_of_uid=None) -> str:
        text = self.child.to_text(path_of_uid)
        if isinstance(self.child, (_Compound, Not)):
            text = f"({text})"
        return f"NOT {text}"

    def _key(self):
        return (self.child,)


def from_obj(obj) -> Node:
    """Inverse of ``Node.to_obj`` (MetaStore deserialisation)."""
    op = obj["op"]
    if op == "all":
        return MatchAll()
    if op == "term":
        return Term(obj["word"])
    if op == "field":
        return FieldTerm(obj["field"], obj["value"])
    if op == "approx":
        return Approx(obj["word"], obj["k"])
    if op == "phrase":
        return Phrase(obj["words"])
    if op == "scope":
        return ScopeTerm(obj["prefix"])
    if op == "dir":
        return DirRef(obj["uid"])
    if op == "and":
        return And([from_obj(c) for c in obj["children"]])
    if op == "or":
        return Or([from_obj(c) for c in obj["children"]])
    if op == "not":
        return Not(from_obj(obj["child"]))
    raise ValueError(f"unknown query op: {op!r}")


def has_field_terms(node: Node) -> bool:
    """True when the subtree contains any attribute/value predicate."""
    if isinstance(node, FieldTerm):
        return True
    if isinstance(node, _Compound):
        return any(has_field_terms(c) for c in node.children)
    if isinstance(node, Not):
        return has_field_terms(node.child)
    return False


def has_scope_terms(node: Node) -> bool:
    """True when the subtree contains any subtree-scope predicate."""
    if isinstance(node, ScopeTerm):
        return True
    if isinstance(node, _Compound):
        return any(has_scope_terms(c) for c in node.children)
    if isinstance(node, Not):
        return has_scope_terms(node.child)
    return False


def required_scope_prefixes(node: Node) -> List[str]:
    """Scope prefixes every match must satisfy: scope terms sitting on
    the top-level ``And`` spine (or the node itself).  Terms under
    ``Or``/``Not`` are not required and are excluded — the CAS index may
    prune scan candidates only by the required ones.
    """
    if isinstance(node, ScopeTerm):
        return [node.prefix]
    if isinstance(node, And):
        return [c.prefix for c in node.children if isinstance(c, ScopeTerm)]
    return []


def conjoin(left: Optional[Node], right: Optional[Node]) -> Node:
    """AND two optional queries, treating None/MatchAll as neutral.

    This is how HAC builds a child semantic directory's *effective* query:
    ``conjoin(user_query, DirRef(parent_uid))`` — the paper's "<old query>
    AND <path-name of parent>" rewriting.
    """
    lhs = None if left is None or isinstance(left, MatchAll) else left
    rhs = None if right is None or isinstance(right, MatchAll) else right
    if lhs is None and rhs is None:
        return MatchAll()
    if lhs is None:
        return rhs  # type: ignore[return-value]
    if rhs is None:
        return lhs
    return And([lhs, rhs])


def content_projection(node: Node) -> Node:
    """The content-only part of a query, for forwarding to remote name
    spaces (whose query language knows nothing of the local hierarchy).

    Directory references are replaced by MatchAll and the result is
    simplified; a reference under NOT also projects to MatchAll (no remote
    restriction) — the local evaluator still applies the reference exactly.
    """
    if isinstance(node, (DirRef, ScopeTerm)):
        # scope prefixes, like directory references, are meaningless to a
        # remote name space's flat content index
        return MatchAll()
    if isinstance(node, And):
        kept = [content_projection(c) for c in node.children]
        kept = [c for c in kept if not isinstance(c, MatchAll)]
        if not kept:
            return MatchAll()
        if len(kept) == 1:
            return kept[0]
        return And(kept)
    if isinstance(node, Or):
        projected = [content_projection(c) for c in node.children]
        if any(isinstance(c, MatchAll) for c in projected):
            return MatchAll()
        return Or(projected)
    if isinstance(node, Not):
        child = content_projection(node.child)
        if isinstance(child, MatchAll):
            return MatchAll()
        return Not(child)
    return node


def rewrite_dir_refs(node: Node, mapping) -> Node:
    """Return a copy of *node* with DirRef uids translated via *mapping*
    (a dict or callable); used when importing shared queries."""
    translate = mapping if callable(mapping) else mapping.__getitem__
    if isinstance(node, DirRef):
        return DirRef(translate(node.uid))
    if isinstance(node, And):
        return And([rewrite_dir_refs(c, mapping) for c in node.children])
    if isinstance(node, Or):
        return Or([rewrite_dir_refs(c, mapping) for c in node.children])
    if isinstance(node, Not):
        return Not(rewrite_dir_refs(node.child, mapping))
    return node
