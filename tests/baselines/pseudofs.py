"""A Pseudo-FS-style interposition layer (Table 2 baseline).

Pseudo file systems (Welch & Ousterhout's pseudo-devices / pseudo-file-
systems in Sprite) route every file operation through a user-level server
process: the kernel marshals the request, the server unmarshals it, does
the work, and marshals the reply.  Published Andrew slowdown: ~33 %.

We reproduce the mechanism with a real marshal/unmarshal round trip per
operation using the C-speed stdlib ``marshal`` codec (the channel must
not dominate; real pseudo-device channels were kernel buffers).  As in Sprite, bulk *data* moves through
a shared buffer rather than the request channel — only control information
(paths, modes, sizes, buffer handles) is marshalled — so the per-operation
interposition cost is what Table 2 measures, not a memcpy tax
the original system never paid.
"""

from __future__ import annotations

import marshal

from typing import Any, List, Optional

from repro.util.stats import Counters
from repro.vfs.fd import FDTable
from repro.vfs.filesystem import FileSystem, StatResult


class _SharedBuffers:
    """The Sprite-style shared data buffers: bulk bytes bypass the codec."""

    def __init__(self):
        self._slots: dict = {}
        self._next = 0

    def put(self, data: bytes) -> int:
        handle = self._next
        self._next += 1
        self._slots[handle] = bytes(data)
        return handle

    def take(self, handle: int) -> bytes:
        return self._slots.pop(handle)


class _Server:
    """The user-level server side: executes unmarshalled requests."""

    def __init__(self, fs: FileSystem, buffers: "_SharedBuffers"):
        self.fs = fs
        self.fdtable = FDTable()
        self.buffers = buffers

    def handle(self, request: bytes) -> bytes:
        op, args = marshal.loads(request)
        method = getattr(self, f"_op_{op}")
        result = method(*args)
        return marshal.dumps(result)

    def _op_mkdir(self, path: str, mode: int):
        self.fs.mkdir(path, mode=mode)
        return None

    def _op_rmdir(self, path: str):
        self.fs.rmdir(path)
        return None

    def _op_create(self, path: str, mode: int):
        self.fs.create(path, mode=mode)
        return None

    def _op_write_file(self, path: str, handle: int, append: bool):
        return self.fs.write_file(path, self.buffers.take(handle),
                                  append=append)

    def _op_read_file(self, path: str):
        return self.buffers.put(self.fs.read_file(path))

    def _op_unlink(self, path: str):
        self.fs.unlink(path)
        return None

    def _op_symlink(self, target: str, linkpath: str):
        self.fs.symlink(target, linkpath)
        return None

    def _op_readlink(self, path: str):
        return self.fs.readlink(path)

    def _op_rename(self, old: str, new: str):
        self.fs.rename(old, new)
        return None

    def _op_stat(self, path: str):
        st = self.fs.stat(path)
        return {"ino": st.ino, "type": st.type.value, **st.attrs.as_dict()}

    def _op_listdir(self, path: str):
        return self.fs.listdir(path)

    def _op_open(self, path: str, mode: str):
        return self.fs.open(self.fdtable, path, mode)

    def _op_read(self, fd: int, size: int):
        return self.buffers.put(self.fs.read(self.fdtable, fd, size))

    def _op_write(self, fd: int, handle: int):
        return self.fs.write(self.fdtable, fd, self.buffers.take(handle))

    def _op_close(self, fd: int):
        self.fs.close(self.fdtable, fd)
        return None


class PseudoFileSystem:
    """Client side: marshals every call to the in-process server."""

    def __init__(self, physical: FileSystem,
                 counters: Optional[Counters] = None):
        self.physical = physical
        self.counters = counters if counters is not None else physical.counters
        self._stats = self.counters.scoped("pseudo")
        self._buffers = _SharedBuffers()
        self._server = _Server(physical, self._buffers)

    def _call(self, op: str, *args) -> Any:
        request = marshal.dumps((op, args))
        self._stats.add("requests")
        self._stats.add("request_bytes", len(request))
        reply = self._server.handle(request)
        self._stats.add("reply_bytes", len(reply))
        return marshal.loads(reply)

    # -- forwarded operations ---------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._call("mkdir", path, mode)

    def rmdir(self, path: str) -> None:
        self._call("rmdir", path)

    def create(self, path: str, mode: int = 0o644) -> None:
        self._call("create", path, mode)

    def write_file(self, path: str, data: bytes, append: bool = False) -> int:
        return self._call("write_file", path, self._buffers.put(data), append)

    def read_file(self, path: str) -> bytes:
        return self._buffers.take(self._call("read_file", path))

    def unlink(self, path: str) -> None:
        self._call("unlink", path)

    def symlink(self, target: str, linkpath: str) -> None:
        self._call("symlink", target, linkpath)

    def readlink(self, path: str) -> str:
        return self._call("readlink", path)

    def rename(self, old: str, new: str) -> None:
        self._call("rename", old, new)

    def stat(self, path: str) -> dict:
        return self._call("stat", path)

    def listdir(self, path: str) -> List[str]:
        return self._call("listdir", path)

    def exists(self, path: str) -> bool:
        try:
            self._call("stat", path)
            return True
        except Exception:
            return False

    def open(self, path: str, mode: str = "r") -> int:
        return self._call("open", path, mode)

    def read(self, fd: int, size: int = -1) -> bytes:
        return self._buffers.take(self._call("read", fd, size))

    def write(self, fd: int, data: bytes) -> int:
        return self._call("write", fd, self._buffers.put(data))

    def close(self, fd: int) -> None:
        self._call("close", fd)
