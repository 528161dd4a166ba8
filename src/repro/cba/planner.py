"""Query planning: AST normalization and selectivity-ordered conjunctions.

The block index and the verification scanner both evaluate ``And`` nodes
child by child with short-circuiting, and the boolean evaluator narrows the
scope progressively through a conjunction — so child *order* never changes
the answer, only the work.  This module exploits that freedom, the same way
CSI-style engines order conjunctive predicates by selectivity (PAPERS.md:
*Robust and Scalable Content-and-Structure Indexing*):

* :func:`normalize` flattens nested And/Or chains, removes duplicate
  operands, and drops neutral ``MatchAll`` elements — all answer-preserving
  rewrites (double negation is deliberately *preserved*: cancelling it
  would change answers for non-indexable leaves, see :func:`normalize`);
* :func:`order_children` sorts the operands of a conjunction so the most
  selective (fewest estimated matching documents) runs first, shrinking
  the candidate set before the expensive operands see it;
* :func:`plan` composes the two;
* :func:`settle` is the prologue every search entry point runs: plan, then
  answer outright when planning alone decides the query.

Selectivity estimates come from :meth:`GlimpseIndex.estimate_docs`, which
reads exact document frequencies out of the lexicon — no sampling, no
statistics maintenance beyond what the index already keeps.  Directory
references sort before content predicates: resolving one is a stored-bitmap
lookup, cheaper than any index probe.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.util.bitmap import Bitmap
from repro.cba.queryast import (And, DirRef, FieldTerm, MatchAll, Node, Not,
                                Or, Phrase, ScopeTerm, Term)


def normalize(node: Node) -> Node:
    """Answer-preserving simplification: flatten, dedup, drop neutrals.

    ``And``/``Or`` constructors already flatten same-typed children; on top
    of that this removes duplicate operands (sets are idempotent), treats
    ``MatchAll`` as the neutral element of ``And`` and the absorbing element
    of ``Or``, and collapses single-operand compounds.

    Double negation is deliberately *not* cancelled: block nomination is
    incomplete for non-indexable leaves (a stopword term nominates no
    blocks, so ``Term(stopword)`` finds nothing), and ``NOT`` flips that
    incompleteness — ``NOT NOT x`` nominates every block and lets the
    scanner see matches that ``x`` alone misses.  Rewriting one to the
    other would change answers, not just cost.
    """
    if isinstance(node, (And, Or)):
        absorbing = isinstance(node, Or)
        kids: List[Node] = []
        seen = set()
        for child in node.children:
            child = normalize(child)
            if isinstance(child, MatchAll):
                if absorbing:
                    return MatchAll()
                continue
            grand = (child.children if type(child) is type(node) else (child,))
            for g in grand:
                if g not in seen:
                    seen.add(g)
                    kids.append(g)
        if not kids:
            return MatchAll()
        if len(kids) == 1:
            return kids[0]
        return type(node)(kids)
    if isinstance(node, Not):
        return Not(normalize(node.child))
    return node


def order_children(children: Sequence[Node], index,
                   stats=None) -> List[Node]:
    """Operands of a conjunction, cheapest-first.

    Directory references come first (stored-bitmap lookups), then content
    predicates by ascending estimated document count; ties keep their
    original order, so the sort is deterministic and stable.
    """
    def rank(pair):
        pos, child = pair
        if isinstance(child, DirRef):
            return (0, 0, pos)
        return (1, _estimate(child, index), pos)

    ranked = sorted(enumerate(children), key=rank)
    ordered = [child for _pos, child in ranked]
    if stats is not None and [id(c) for c in ordered] != \
            [id(c) for c in children]:
        stats.add("planner_reorders")
    return ordered


def _estimate(node: Node, index) -> int:
    return index.estimate_docs(node)


def provably_empty(node: Node, df: Callable[[str], int],
                   indexable: Callable[[str], bool],
                   scope_count: Optional[Callable[[str], int]] = None) -> bool:
    """True when *node* provably matches **no** document, so evaluation
    (candidate blocks, probe RPCs, the scan fallback) can be skipped
    entirely and an empty result returned.

    The proof obligations are conservative — only leaves whose index
    bookkeeping is *exact* participate:

    * an **indexable** term (long enough, not a stopword) with zero
      document frequency cannot match anywhere (non-indexable terms are
      invisible to the lexicon, so a zero df proves nothing);
    * a field term with a zero-df pair token — transduced pairs are
      always indexed under their joined token;
    * a phrase containing any indexable zero-df word;
    * a scope prefix covering zero indexed documents, when the caller
      supplies exact scope counts;
    * an ``And`` with any provably-empty required conjunct, an ``Or``
      whose branches are all provably empty.

    ``Not``/``Approx``/``MatchAll``/``DirRef`` prove nothing.  Document
    frequencies and scope counts are additive over a shard partition, so
    the cluster coordinator reaches the identical verdict as the
    monolith from its summed statistics.
    """
    if isinstance(node, Term):
        return indexable(node.word) and df(node.word) == 0
    if isinstance(node, FieldTerm):
        return df(f"{node.field}:{node.value}") == 0
    if isinstance(node, Phrase):
        return any(indexable(w) and df(w) == 0 for w in node.words)
    if isinstance(node, ScopeTerm):
        return scope_count is not None and scope_count(node.prefix) == 0
    if isinstance(node, And):
        return any(provably_empty(c, df, indexable, scope_count)
                   for c in node.children)
    if isinstance(node, Or):
        return all(provably_empty(c, df, indexable, scope_count)
                   for c in node.children)
    return False


def plan(node: Node, index, stats=None) -> Node:
    """Normalize *node* and selectivity-order every conjunction in it."""
    return _order_tree(normalize(node), index, stats)


def settle(query: Node, index, proof: tuple, universe: Bitmap, stats,
           span, plan_span) -> Tuple[Node, Optional[Bitmap]]:
    """Plan *query*; answer it when the plan alone settles it.

    Returns ``(planned query, answer)``.  *answer* is a fresh bitmap when
    no index probe is needed — a planned ``MatchAll`` is *universe*
    itself, a :func:`provably_empty` query (*proof* is its ``(df,
    indexable, scope_count)`` sources) matches nothing — and ``None``
    when evaluation must go on.  The monolithic engine, the cluster
    coordinator and a snapshot cut all start here, each with its own
    statistics, so the three reach the same verdict on the same corpus.
    *span* is the caller's search span (tagged with the verdict),
    *plan_span* the one to time planning under.
    """
    with plan_span:
        query = plan(query, index, stats)
    if isinstance(query, MatchAll):
        span.set(mode="matchall", hits=len(universe))
        return query, universe.copy()
    if provably_empty(query, *proof):
        # a required conjunct has zero postings (or a scope prefix covers
        # nothing): skip candidate blocks, probes and the scan outright
        stats.add("planner_empty_shortcircuit")
        span.set(mode="empty", hits=0)
        return query, Bitmap()
    return query, None


def _order_tree(node: Node, index, stats) -> Node:
    if isinstance(node, And):
        kids = [_order_tree(c, index, stats) for c in node.children]
        return And(order_children(kids, index, stats))
    if isinstance(node, Or):
        return Or([_order_tree(c, index, stats) for c in node.children])
    if isinstance(node, Not):
        return Not(_order_tree(node.child, index, stats))
    return node
