"""Wall-clock end-to-end benchmark of HAC through its public surface.

Imported as the ``e2e`` package (``run.py`` puts ``benchmarks/`` on the
path) so that ``trace.py`` never shadows the standard library's ``trace``.
See README.md in this directory for the metric and workload catalogue.
"""
