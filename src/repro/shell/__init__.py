"""The user-facing command layer.

:class:`~repro.shell.session.HacShell` gives the paper's command set —
``cd``/``ls``/``mkdir``/``mv``/``rm``/``cat`` plus ``smkdir``/``squery``/
``ssync``/``sact``/``smount``/``sls`` — over one :class:`HacFileSystem`
or one tenant's view of it, resolving paths against a current working
directory the way a login shell does.  :mod:`repro.shell.cli` wraps it in an interactive REPL (the ``hac``
entry point) for poking at a demo file system.
"""

from repro.shell.session import HacShell

__all__ = ["HacShell"]
