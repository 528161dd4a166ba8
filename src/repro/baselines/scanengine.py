"""The seed scan-everything engine — the reference the fast engine is
checked against, and the Glimpse-faithful baseline of the paper's tables.

:class:`ScanEngine` evaluates a query as the seed did, and as the real
Glimpse binary does: the block index nominates candidate blocks, then
*every* candidate document is fetched through the loader and verified by
the agrep scanner, path predicate included.  No planner, no doc-level
postings, no verification memo, no result cache, no CAS pruning.  It
shares index maintenance with :class:`~repro.cba.engine.CBAEngine`, so the
two differ in how they answer, never in what they index — which is what
lets the equivalence suites demand bit-identical answers, and lets
``bench_table4_queries`` / the block, fast-path and CAS ablations measure
the scan without an engine mode.  Use it through the ordinary seam:
``HacFileSystem(backend=BackendFactory(ScanEngine, segmented=True))``.
"""

from __future__ import annotations

from typing import Optional

from repro.cba.engine import CBAEngine
from repro.cba.queryast import MatchAll, Node, has_field_terms
from repro.util.bitmap import Bitmap


class ScanEngine(CBAEngine):
    """Block nomination, then agrep over every candidate document."""

    def search(self, query: Node, scope: Optional[Bitmap] = None) -> Bitmap:
        self._stats.add("searches")
        if isinstance(query, MatchAll):
            return self.index.all_docs() if scope is None else scope.copy()
        return self.search_blocks(query, self.index.candidate_blocks(query),
                                  scope)

    def search_blocks(self, query: Node, blocks: Bitmap,
                      scope: Optional[Bitmap] = None) -> Bitmap:
        candidates = self.index.docs_in_blocks(blocks)
        if scope is not None:
            candidates &= scope
        needs_pairs = self.transducer is not None and has_field_terms(query)
        return Bitmap(doc_id for doc_id in candidates
                      if self._agrep_doc(self._docs[doc_id], query,
                                         needs_pairs))
