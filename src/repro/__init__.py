"""HAC — a Hierarchy-And-Content file system.

A from-scratch Python reproduction of *Integrating Content-Based Access
Mechanisms with Hierarchical File Systems* (Gopal & Manber, OSDI 1999):
a file system offering path-name access and content-based (query) access at
the same time, with user-editable query results kept scope-consistent.

Quick start::

    from repro import HacFileSystem

    hac = HacFileSystem()
    hac.makedirs("/notes")
    hac.write_file("/notes/a.txt", b"fingerprint matching ideas")
    hac.ssync("/")                       # index the name space
    hac.smkdir("/fp", "fingerprint")     # a semantic directory
    hac.listdir("/fp")                   # -> ["a.txt"] (a symbolic link)

Public surface:

* :class:`HacFileSystem` — the whole system (``repro.core``);
* :class:`HacShell` — cwd-relative command layer (``repro.shell``);
* :class:`FileSystem` — the POSIX-like substrate (``repro.vfs``);
* :class:`CBAEngine` and :func:`parse_query` — the Glimpse-style content
  engine and query language (``repro.cba``);
* :class:`SimulatedSearchService`, :class:`RemoteHacFileSystem`,
  :class:`SharedDirectoryRegistry` — mountable remote name spaces
  (``repro.remote``);
* workload generators under ``repro.workloads``.
"""

from repro.core.hacfs import HacFileSystem
from repro.cba.engine import CBAEngine
from repro.cba.queryparser import parse_query
from repro.remote.registry import SharedDirectoryRegistry
from repro.remote.remotefs import RemoteHacFileSystem
from repro.remote.searchsvc import SimulatedSearchService
from repro.shell.session import HacShell
from repro.vfs.filesystem import FileSystem

__version__ = "1.0.0"

__all__ = [
    "HacFileSystem",
    "CBAEngine",
    "parse_query",
    "SharedDirectoryRegistry",
    "RemoteHacFileSystem",
    "SimulatedSearchService",
    "HacShell",
    "FileSystem",
    "__version__",
]
