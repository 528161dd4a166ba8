"""Baselines the paper's tables and ablations measure HAC against.

Tests are their only users, so they live here rather than in ``src/``:

* :mod:`tests.baselines.jadefs` — a Jade-style logical name space: every
  path is translated through a per-user mapping table before reaching the
  physical file system (Table 2);
* :mod:`tests.baselines.pseudofs` — a Pseudo-FS-style interposition: every
  operation is marshalled, "sent" to a user-level server, executed, and the
  reply unmarshalled (Table 2);
* :mod:`tests.baselines.scanengine` — the scan-everything Glimpse engine
  that Table 4, the engine ablations and the equivalence suites measure
  the fast engine against;
* :mod:`tests.baselines.sfs`, :mod:`tests.baselines.nebula` and
  :mod:`tests.baselines.prospero` — the semantic file systems of §5's
  prose, contrasted with HAC in ``tests/integration/test_capability_matrix.py``.
"""
