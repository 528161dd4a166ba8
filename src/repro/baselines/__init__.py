"""Baselines the paper's tables measure HAC against.

Table 2 compares HAC's Andrew-benchmark slowdown with two other
*user-level* file systems.  We reimplement the mechanism of each so the
comparison is measured, not quoted:

* :mod:`repro.baselines.jadefs` — a Jade-style logical name space: every
  path is translated through a per-user mapping table before reaching the
  physical file system;
* :mod:`repro.baselines.pseudofs` — a Pseudo-FS-style interposition: every
  operation is marshalled, "sent" to a user-level server, executed, and the
  reply unmarshalled;
* :mod:`repro.baselines.scanengine` — the scan-everything Glimpse engine
  that Table 4 and the engine ablations measure the fast engine against.

SFS, Nebula and Prospero appear only in §5's prose.  Tests are the only
users of their reimplementations, so those live in ``tests/baselines/``
beside the related-work table, ``tests/integration/test_capability_matrix.py``.
"""

from repro.baselines.jadefs import JadeFileSystem
from repro.baselines.pseudofs import PseudoFileSystem

__all__ = ["JadeFileSystem", "PseudoFileSystem"]
