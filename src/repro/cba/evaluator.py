"""Boolean evaluation of full HAC queries (content + directory references).

The engine itself only understands content predicates.  Queries in HAC may
also reference directories ("``fingerprint AND /projects/fbi``", and — under
the covers — every child semantic directory's implicit ``AND <parent>``).
This evaluator bridges the two: it walks the AST, hands maximal
*content-only* subtrees to :meth:`CBAEngine.search` in one shot (so a
document is scanned once per subtree, not once per leaf), and resolves
``DirRef`` nodes through a callback that HAC backs with each directory's
stored query-result (paper §2.5: "the CBA mechanism can use HAC's API to
obtain the existing query-result stored in that directory").

Every intermediate result is a :class:`Bitmap` that is, by construction, a
subset of the scope it was evaluated under — which is precisely the scope
invariant the consistency algorithm needs.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.util.bitmap import Bitmap
from repro.cba import planner
from repro.cba.engine import CBAEngine
from repro.cba.queryast import And, DirRef, MatchAll, Node, Not, Or


def is_content_only(node: Node) -> bool:
    """True when the subtree contains no directory references."""
    return next(node.dir_refs(), None) is None


def evaluate(query: Node, engine: CBAEngine,
             resolve_dirref: Callable[[int], Bitmap],
             scope: Optional[Bitmap] = None) -> Bitmap:
    """Evaluate *query* over *scope* (default: every indexed document).

    :param resolve_dirref: maps a directory UID to the bitmap of local doc
        ids in that directory's current query-result / provided scope.
    :returns: doc ids matching the query, always a subset of *scope*.
    """
    universe = engine.all_docs() if scope is None else scope
    return _eval(query, engine, resolve_dirref, universe)


def _eval(node: Node, engine: CBAEngine,
          resolve: Callable[[int], Bitmap], scope: Bitmap) -> Bitmap:
    if not scope:
        # every result is scope ∩ something; an empty scope settles it
        # without touching the index or the loader
        return Bitmap()
    if isinstance(node, MatchAll):
        return scope.copy()
    if isinstance(node, DirRef):
        return resolve(node.uid) & scope
    if is_content_only(node):
        return engine.search(node, scope)
    if isinstance(node, And):
        # narrow the scope child by child; directory references first, since
        # they are set lookups while content terms cost index + scan work —
        # then content operands most-selective-first
        dir_children = [c for c in node.children if isinstance(c, DirRef)]
        other_children = [c for c in node.children if not isinstance(c, DirRef)]
        if len(other_children) > 1:
            other_children = planner.order_children(
                other_children, engine.index,
                engine.counters.scoped("engine"))
        acc = scope
        for child in dir_children + other_children:
            acc = _eval(child, engine, resolve, acc)
            if not acc:
                break
        return acc
    if isinstance(node, Or):
        out = Bitmap()
        for child in node.children:
            out |= _eval(child, engine, resolve, scope)
        return out
    if isinstance(node, Not):
        return scope - _eval(node.child, engine, resolve, scope)
    raise TypeError(f"unknown query node: {type(node).__name__}")
