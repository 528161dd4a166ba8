"""The POSIX-like virtual file system.

One :class:`FileSystem` owns a tree of inodes rooted at ``/``.  Path
resolution follows symbolic links (with an ELOOP bound), crosses syntactic
mount points into other :class:`FileSystem` instances, and resolves ``..``
correctly across mount boundaries by keeping an explicit crossing stack.

All byte and metadata traffic is charged to the attached
:class:`repro.vfs.blockdev.BlockDevice`, so higher layers (HAC, the Jade and
Pseudo baselines) inherit honest I/O accounting for free.

The API takes absolute paths; the shell layer translates a user's working
directory.  Operations raise the errno-flavoured exceptions from
:mod:`repro.errors`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    BadFileDescriptor,
    CrossDevice,
    DeviceBusy,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
    SymlinkLoop,
)
from repro.obs.trace import NULL_TRACER
from repro.util import pathutil
from repro.util.clock import VirtualClock
from repro.util.stats import Counters
from repro.vfs.blockdev import BlockDevice
from repro.vfs.fd import FDTable, OpenFile
from repro.vfs.pathmap import PathMap
from repro.vfs.inode import (
    Attributes,
    DirNode,
    FileNode,
    Inode,
    InodeType,
    SymlinkNode,
    path_of,
)

#: maximum number of symlink expansions before ELOOP (Linux uses 40).
MAX_SYMLINK_FOLLOWS = 40

_fsid_counter = itertools.count(1)


class StatResult:
    """Snapshot of an inode's identity and attributes."""

    __slots__ = ("fsid", "ino", "type", "attrs")

    def __init__(self, fsid: str, ino: int, node_type: InodeType, attrs: Attributes):
        self.fsid = fsid
        self.ino = ino
        self.type = node_type
        self.attrs = attrs

    @property
    def is_dir(self) -> bool:
        return self.type is InodeType.DIRECTORY

    @property
    def is_file(self) -> bool:
        return self.type is InodeType.FILE

    @property
    def is_symlink(self) -> bool:
        return self.type is InodeType.SYMLINK

    @property
    def size(self) -> int:
        return self.attrs.size

    @property
    def mtime(self) -> float:
        return self.attrs.mtime

    def __repr__(self):
        return f"StatResult({self.fsid}:{self.ino}, {self.type.value}, size={self.size})"


class Resolved:
    """Result of path resolution: the owning file system and the node."""

    __slots__ = ("fs", "node")

    def __init__(self, fs: "FileSystem", node: Inode):
        self.fs = fs
        self.node = node


class FileSystem:
    """An in-memory hierarchical file system with syntactic mount support."""

    def __init__(self, name: str = "fs",
                 clock: Optional[VirtualClock] = None,
                 counters: Optional[Counters] = None,
                 device: Optional[BlockDevice] = None,
                 fsid: Optional[str] = None):
        self.name = name
        # fsid defaults to a process-unique id; callers needing runs that
        # are reproducible across processes (the chaos soak hashes doc
        # keys — which embed the fsid — onto shards) pin it explicitly
        self.fsid = fsid if fsid is not None else f"{name}#{next(_fsid_counter)}"
        self.clock = clock if clock is not None else VirtualClock()
        self.counters = counters if counters is not None else Counters()
        self._ops = self.counters.scoped("vfs")
        self.device = device if device is not None else BlockDevice(counters=self.counters)
        self._next_ino = itertools.count(2)
        self.root = DirNode(ino=1, mode=0o755, now=self.clock.now)
        self.root.name = "/"  # lets path_of() recognise the root
        self._inodes: Dict[int, Inode] = {1: self.root}
        #: covered-directory ino → mounted file system
        self._mounts: Dict[int, "FileSystem"] = {}
        #: optional hooks fired after mutating operations; the HAC layer
        #: subscribes to feed its watch/maintenance pipeline (dirty-set
        #: tracking), tests subscribe for assertions.  Signature:
        #: callback(event: str, **details).
        self.observers: List[Callable[..., None]] = []
        #: observability hook (wired by HacFileSystem); syscalls emit trace
        #: events through it when enabled — one attribute check when not
        self.tracer = NULL_TRACER
        #: the tree folded into a map (see repro.vfs.pathmap): literal
        #: resolutions are served from one dict probe, :meth:`_walk` is
        #: only its miss path; mutators keep it coherent with fs-local
        #: canonical keys.
        self._pathmap = PathMap(is_live=self._node_is_live,
                                counters=self.counters)

    def _node_is_live(self, node) -> bool:
        return self._inodes.get(node.ino) is node

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _notify(self, event: str, **details) -> None:
        for cb in self.observers:
            cb(event, **details)

    def _new_ino(self) -> int:
        return next(self._next_ino)

    def _register(self, node: Inode) -> None:
        self._inodes[node.ino] = node

    def node_by_ino(self, ino: int) -> Optional[Inode]:
        """The live node with this ino, or None when freed."""
        return self._inodes.get(ino)

    def path_of_ino(self, ino: int) -> Optional[str]:
        """Absolute path (within this FS) of a live, attached inode."""
        node = self._inodes.get(ino)
        if node is None:
            return None
        try:
            return path_of(node)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    # path resolution
    # ------------------------------------------------------------------

    def resolve(self, path: str, follow: bool = True) -> Resolved:
        """Resolve *path* to its node, following mounts (and symlinks unless
        ``follow=False`` for the final component)."""
        self._ops.add("namei")
        if self.tracer.enabled:
            self.tracer.event("vfs.namei", path=path)
        fs, node = self._resolve_norm(pathutil.normalize(path), follow=follow)
        return Resolved(fs, node)

    def _resolve_parent(self, path: str) -> Tuple["FileSystem", DirNode, str]:
        """Resolve all but the last component; returns (fs, parent, name).

        The final name must be a plain component (not empty, ``.`` or ``..``).
        """
        norm = pathutil.normalize(path)
        parent_path, name = pathutil.split(norm)
        if not name or name in (".", ".."):
            raise InvalidArgument(path, "operation needs a plain final component")
        fs, node = self._resolve_norm(parent_path, follow=True)
        if not node.is_dir:
            raise NotADirectory(parent_path)
        # a mount covering the parent was already followed by _walk
        return fs, node, name  # type: ignore[return-value]

    def _resolve_norm(self, norm: str,
                      follow: bool) -> Tuple["FileSystem", Inode]:
        """Map-first resolution of a normalized path.

        A cached entry is only ever a literal, mount-local, non-symlink
        resolution (see :meth:`_walk`'s cacheability rules), so a hit is
        valid for both ``follow`` modes and always owned by *self*.
        """
        node = self._pathmap.lookup(norm)
        if node is not None:
            return self, node
        fs, node, literal = self._walk(norm, follow_last=follow)
        if literal and fs is self and not node.is_symlink:
            self._pathmap.insert(norm, node)
        return fs, node

    def _walk(self, path: str,
              follow_last: bool) -> Tuple["FileSystem", Inode, bool]:
        """Component walk; returns ``(fs, node, literal)``.

        *literal* is True when the resolution is safe to cache in the
        path map: no symlink was followed, no mount boundary crossed,
        and no ``..`` component seen — i.e. the normalized input path
        IS the node's fs-local canonical path.
        """
        norm = pathutil.normalize(path)
        comps = list(pathutil.split_components(norm))
        # stack of (host_fs, covered_dirnode) for each mount crossing
        stack: List[Tuple[FileSystem, DirNode]] = []
        fs: FileSystem = self
        cur: Inode = self.root
        follows = 0
        literal = True
        steps = 0
        while comps:
            steps += 1
            comp = comps.pop(0)
            if comp == "..":
                literal = False
                if cur is fs.root:
                    if stack:
                        fs, covered = stack.pop()
                        cur = covered.parent or covered
                    # else: ".." at the top root stays put (POSIX)
                else:
                    if not cur.is_dir:
                        self._ops.add("walk_steps", steps)
                        raise NotADirectory(norm)
                    cur = cur.parent if cur.parent is not None else fs.root
                continue
            if not cur.is_dir:
                self._ops.add("walk_steps", steps)
                raise NotADirectory(norm)
            child = cur.lookup(comp)  # type: ignore[union-attr]
            if child is None:
                self._ops.add("walk_steps", steps)
                raise FileNotFound(norm)
            is_last = not comps
            if child.is_symlink and (not is_last or follow_last):
                literal = False
                follows += 1
                if follows > MAX_SYMLINK_FOLLOWS:
                    self._ops.add("walk_steps", steps)
                    raise SymlinkLoop(norm)
                target = child.target  # type: ignore[union-attr]
                tcomps = pathutil.split_components(target)
                if pathutil.is_absolute(target):
                    # absolute targets restart from the top-level root
                    stack.clear()
                    fs = self
                    cur = self.root
                comps = tcomps + comps
                continue
            if child.is_dir and child.ino in fs._mounts:
                literal = False
                stack.append((fs, child))  # type: ignore[arg-type]
                fs = fs._mounts[child.ino]
                cur = fs.root
                continue
            cur = child
        if steps:
            self._ops.add("walk_steps", steps)
        return fs, cur, literal

    # ------------------------------------------------------------------
    # path-map coherence (see repro.vfs.pathmap for the protocol)
    # ------------------------------------------------------------------

    def _pm_key(self, parent: DirNode, name: str) -> Optional[str]:
        """Fs-local canonical path of *name* under *parent*, or None when
        the parent chain is detached (entry cannot be cached either)."""
        try:
            ppath = path_of(parent)
        except ValueError:
            return None
        return pathutil.join(ppath, name)

    def reset_path_map(self) -> None:
        """Drop every cached resolution and bump the map generation.

        For callers that hand the live tree to a new owner (crash-recovery
        reopen pins the fsid and reuses this very instance): entries cached
        before the handover would otherwise revalidate as live and serve
        resolutions the new owner never vetted.
        """
        self._pathmap.clear()

    def _pm_invalidate(self, parent: DirNode, name: str,
                       prefix: bool = False) -> None:
        """Invalidate the map entry for ``parent/name`` on *this* fs."""
        pm = self._pathmap
        key = self._pm_key(parent, name)
        if key is None:
            pm.clear()
            return
        if prefix:
            pm.invalidate_prefix(key)
        else:
            pm.invalidate(key)

    # ------------------------------------------------------------------
    # directories
    # ------------------------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755) -> StatResult:
        self._ops.add("mkdir")
        if self.tracer.enabled:
            self.tracer.event("vfs.mkdir", path=path)
        fs, parent, name = self._resolve_parent(path)
        if parent.lookup(name) is not None:
            raise FileExists(path)
        node = DirNode(ino=fs._new_ino(), mode=mode, now=self.clock.now)
        fs._register(node)
        parent.attach(name, node)
        parent.attrs.mtime = self.clock.now
        fs.device.charge_meta_write()
        self._notify("mkdir", path=pathutil.normalize(path), fs=fs, node=node)
        return StatResult(fs.fsid, node.ino, node.type, node.attrs.copy())

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        """Create every missing ancestor, then the leaf (no error if present)."""
        norm = pathutil.normalize(path)
        built = "/"
        for comp in pathutil.split_components(norm):
            built = pathutil.join(built, comp)
            try:
                res = self.resolve(built)
                if not res.node.is_dir:
                    raise NotADirectory(built)
            except FileNotFound:
                self.mkdir(built, mode=mode)

    def rmdir(self, path: str) -> None:
        self._ops.add("rmdir")
        fs, parent, name = self._resolve_parent(path)
        node = parent.lookup(name)
        if node is None:
            raise FileNotFound(path)
        if not node.is_dir:
            raise NotADirectory(path)
        if node.ino in fs._mounts:
            raise DeviceBusy(path, "is a mount point")
        if not node.is_empty():  # type: ignore[union-attr]
            raise DirectoryNotEmpty(path)
        fs._pm_invalidate(parent, name)
        parent.detach(name)
        del fs._inodes[node.ino]
        parent.attrs.mtime = self.clock.now
        fs.device.charge_meta_write()
        self._notify("rmdir", path=pathutil.normalize(path), fs=fs, node=node)

    def listdir(self, path: str) -> List[str]:
        self._ops.add("listdir")
        res = self.resolve(path)
        if not res.node.is_dir:
            raise NotADirectory(path)
        res.node.attrs.atime = self.clock.now
        res.fs.device.charge_meta_read()
        return list(res.node.names())  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------

    def create(self, path: str, mode: int = 0o644,
               exist_ok: bool = False) -> StatResult:
        """Create an empty regular file."""
        self._ops.add("create")
        fs, parent, name = self._resolve_parent(path)
        existing = parent.lookup(name)
        if existing is not None:
            if exist_ok and existing.is_file:
                return StatResult(fs.fsid, existing.ino, existing.type,
                                  existing.attrs.copy())
            raise FileExists(path)
        node = FileNode(ino=fs._new_ino(), mode=mode, now=self.clock.now)
        fs._register(node)
        parent.attach(name, node)
        parent.attrs.mtime = self.clock.now
        fs.device.charge_meta_write()
        self._notify("create", path=pathutil.normalize(path), fs=fs, node=node)
        return StatResult(fs.fsid, node.ino, node.type, node.attrs.copy())

    def write_file(self, path: str, data: bytes, append: bool = False) -> int:
        """Whole-file write helper; creates the file when missing."""
        self._ops.add("write_file")
        if self.tracer.enabled:
            self.tracer.event("vfs.write_file", path=path, nbytes=len(data))
        if isinstance(data, str):
            raise InvalidArgument(path, "write_file takes bytes")
        created = False
        try:
            res = self.resolve(path)
            node = res.node
            fs = res.fs
            if node.is_dir:
                raise IsADirectory(path)
        except FileNotFound:
            self.create(path)
            created = True
            res = self.resolve(path)
            node, fs = res.node, res.fs
        assert isinstance(node, FileNode)
        old = len(node.data)
        new_len = old + len(data) if append else len(data)
        # allocate before touching the bytes: ENOSPC must leave the old
        # content intact, and must not leave behind a file this call created
        try:
            fs.device.allocate(old, new_len, path)
        except Exception:
            if created:
                self.unlink(path)
            raise
        if append:
            node.data.extend(data)
        else:
            node.data[:] = data
        fs.device.charge_write(len(data))
        node.attrs.size = len(node.data)
        node.attrs.mtime = self.clock.now
        self._notify("write", path=pathutil.normalize(path), fs=fs, node=node)
        return len(data)

    def read_file(self, path: str) -> bytes:
        self._ops.add("read_file")
        if self.tracer.enabled:
            self.tracer.event("vfs.read_file", path=path)
        res = self.resolve(path)
        node = res.node
        if node.is_dir:
            raise IsADirectory(path)
        if not node.is_file:
            raise InvalidArgument(path, "not a regular file")
        assert isinstance(node, FileNode)
        res.fs.device.charge_read(len(node.data))
        node.attrs.atime = self.clock.now
        return bytes(node.data)

    def truncate(self, path: str, size: int = 0) -> None:
        self._ops.add("truncate")
        res = self.resolve(path)
        node = res.node
        if not node.is_file:
            raise InvalidArgument(path, "not a regular file")
        assert isinstance(node, FileNode)
        old = len(node.data)
        res.fs.device.allocate(old, size, path)
        node.resize(size)
        node.attrs.mtime = self.clock.now
        self._notify("write", path=pathutil.normalize(path), fs=res.fs, node=node)

    def unlink(self, path: str) -> None:
        self._ops.add("unlink")
        if self.tracer.enabled:
            self.tracer.event("vfs.unlink", path=path)
        fs, parent, name = self._resolve_parent(path)
        node = parent.lookup(name)
        if node is None:
            raise FileNotFound(path)
        if node.is_dir:
            raise IsADirectory(path)
        fs._pm_invalidate(parent, name)
        parent.detach(name)
        del fs._inodes[node.ino]
        if isinstance(node, FileNode):
            fs.device.allocate(len(node.data), 0, path)
        parent.attrs.mtime = self.clock.now
        fs.device.charge_meta_write()
        self._notify("unlink", path=pathutil.normalize(path), fs=fs, node=node)

    # ------------------------------------------------------------------
    # symbolic links
    # ------------------------------------------------------------------

    def symlink(self, target: str, linkpath: str) -> StatResult:
        """Create a symbolic link at *linkpath* pointing at *target*."""
        self._ops.add("symlink")
        fs, parent, name = self._resolve_parent(linkpath)
        if parent.lookup(name) is not None:
            raise FileExists(linkpath)
        node = SymlinkNode(ino=fs._new_ino(), mode=0o777,
                           now=self.clock.now, target=target)
        fs._register(node)
        parent.attach(name, node)
        parent.attrs.mtime = self.clock.now
        fs.device.charge_meta_write()
        self._notify("symlink", path=pathutil.normalize(linkpath),
                     fs=fs, node=node, target=target)
        return StatResult(fs.fsid, node.ino, node.type, node.attrs.copy())

    def readlink(self, path: str) -> str:
        self._ops.add("readlink")
        res = self.resolve(path, follow=False)
        if not res.node.is_symlink:
            raise InvalidArgument(path, "not a symbolic link")
        res.fs.device.charge_meta_read()
        return res.node.target  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # rename
    # ------------------------------------------------------------------

    def rename(self, old: str, new: str) -> None:
        """POSIX-style rename; replaces same-kind targets, refuses to move a
        directory into its own subtree or across mount boundaries."""
        self._ops.add("rename")
        if self.tracer.enabled:
            self.tracer.event("vfs.rename", old=old, new=new)
        old_norm = pathutil.normalize(old)
        new_norm = pathutil.normalize(new)
        if old_norm == "/":
            raise InvalidArgument(old, "cannot rename the root")
        ofs, oparent, oname = self._resolve_parent(old_norm)
        nfs, nparent, nname = self._resolve_parent(new_norm)
        node = oparent.lookup(oname)
        if node is None:
            raise FileNotFound(old)
        if ofs is not nfs:
            raise CrossDevice(new, "rename across mount points")
        if node.is_dir and self._subtree_has_mounts(ofs, node):
            raise DeviceBusy(old, "subtree contains mount points")
        if node.is_dir:
            # refuse to move a directory under itself
            probe: Optional[Inode] = nparent
            while probe is not None:
                if probe is node:
                    raise InvalidArgument(new, "cannot move a directory into itself")
                probe = probe.parent
        existing = nparent.lookup(nname)
        if existing is not None:
            if existing is node:
                return
            if node.is_dir:
                if not existing.is_dir:
                    raise NotADirectory(new)
                if existing.ino in nfs._mounts:
                    raise DeviceBusy(new, "is a mount point")
                if not existing.is_empty():  # type: ignore[union-attr]
                    raise DirectoryNotEmpty(new)
            else:
                if existing.is_dir:
                    raise IsADirectory(new)
            nparent.detach(nname)
            del nfs._inodes[existing.ino]
            if isinstance(existing, FileNode):
                nfs.device.allocate(len(existing.data), 0, new)
        # canonical keys while both parents are still attached; the moved
        # node's descendants keep their entries via a one-pass rebase
        old_key = ofs._pm_key(oparent, oname)
        new_key = ofs._pm_key(nparent, nname)
        oparent.detach(oname)
        nparent.attach(nname, node)
        pm = ofs._pathmap
        if old_key is None or new_key is None:
            pm.clear()
        else:
            pm.invalidate(new_key)
            if node.is_dir:
                pm.rebase_prefix(old_key, new_key)
            else:
                pm.invalidate(old_key)
        now = self.clock.now
        oparent.attrs.mtime = now
        nparent.attrs.mtime = now
        node.attrs.ctime = now
        ofs.device.charge_meta_write()
        nfs.device.charge_meta_write()
        self._notify("rename", old=old_norm, new=new_norm, fs=nfs, node=node)

    @staticmethod
    def _subtree_has_mounts(fs: "FileSystem", node: Inode) -> bool:
        if not fs._mounts:
            return False
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur.ino in fs._mounts:
                return True
            if cur.is_dir:
                stack.extend(cur.entries.values())  # type: ignore[union-attr]
        return False

    # ------------------------------------------------------------------
    # stat and predicates
    # ------------------------------------------------------------------

    def stat(self, path: str) -> StatResult:
        self._ops.add("stat")
        res = self.resolve(path, follow=True)
        res.fs.device.charge_meta_read()
        return StatResult(res.fs.fsid, res.node.ino, res.node.type,
                          res.node.attrs.copy())

    def lstat(self, path: str) -> StatResult:
        self._ops.add("lstat")
        res = self.resolve(path, follow=False)
        res.fs.device.charge_meta_read()
        return StatResult(res.fs.fsid, res.node.ino, res.node.type,
                          res.node.attrs.copy())

    def exists(self, path: str, follow: bool = True) -> bool:
        try:
            self.resolve(path, follow=follow)
            return True
        except (FileNotFound, NotADirectory, SymlinkLoop):
            return False

    def isdir(self, path: str) -> bool:
        try:
            return self.resolve(path).node.is_dir
        except (FileNotFound, NotADirectory, SymlinkLoop):
            return False

    def isfile(self, path: str) -> bool:
        try:
            return self.resolve(path).node.is_file
        except (FileNotFound, NotADirectory, SymlinkLoop):
            return False

    def islink(self, path: str) -> bool:
        try:
            return self.resolve(path, follow=False).node.is_symlink
        except (FileNotFound, NotADirectory, SymlinkLoop):
            return False

    def chmod(self, path: str, mode: int) -> None:
        res = self.resolve(path)
        res.node.attrs.mode = mode
        res.node.attrs.ctime = self.clock.now
        res.fs.device.charge_meta_write()

    def utime(self, path: str, mtime: Optional[float] = None) -> None:
        res = self.resolve(path)
        res.node.attrs.mtime = self.clock.now if mtime is None else mtime
        res.fs.device.charge_meta_write()

    # ------------------------------------------------------------------
    # descriptor-based I/O
    # ------------------------------------------------------------------

    def open(self, table: FDTable, path: str, mode: str = "r") -> int:
        """Open *path*; modes are ``r``, ``w`` (truncate/create), ``a``
        (append/create), ``rw``."""
        self._ops.add("open")
        if mode not in ("r", "w", "a", "rw"):
            raise InvalidArgument(path, f"bad open mode {mode!r}")
        try:
            res = self.resolve(path)
            node, fs = res.node, res.fs
            if node.is_dir:
                raise IsADirectory(path)
            if not node.is_file:
                raise InvalidArgument(path, "not a regular file")
        except FileNotFound:
            if mode == "r":
                raise
            self.create(path)
            res = self.resolve(path)
            node, fs = res.node, res.fs
        assert isinstance(node, FileNode)
        if mode == "w":
            fs.device.allocate(len(node.data), 0, path)
            node.resize(0)
            node.attrs.mtime = self.clock.now
        offset = len(node.data) if mode == "a" else 0
        readable = mode in ("r", "rw")
        writable = mode in ("w", "a", "rw")
        open_file = OpenFile(fs=fs, node=node, readable=readable,
                             writable=writable, offset=offset)
        return table.install(open_file)

    def read(self, table: FDTable, fd: int, size: int = -1) -> bytes:
        self._ops.add("read")
        of = table.get(fd)
        if not of.readable:
            raise BadFileDescriptor(str(fd), "not open for reading")
        node = of.node
        end = len(node.data) if size < 0 else min(len(node.data), of.offset + size)
        data = bytes(node.data[of.offset:end])
        of.offset = end
        of.fs.device.charge_read(len(data))
        node.attrs.atime = self.clock.now
        return data

    def write(self, table: FDTable, fd: int, data: bytes) -> int:
        self._ops.add("write")
        of = table.get(fd)
        if not of.writable:
            raise BadFileDescriptor(str(fd), "not open for writing")
        node = of.node
        old = len(node.data)
        end = of.offset + len(data)
        if end > old:
            of.fs.device.allocate(old, end)
            node.resize(end)
        node.data[of.offset:end] = data
        of.offset = end
        node.attrs.size = len(node.data)
        node.attrs.mtime = self.clock.now
        of.fs.device.charge_write(len(data))
        try:
            node_path = path_of(node)
        except ValueError:
            node_path = ""
        self._notify("write", path=node_path, fs=of.fs, node=node)
        return len(data)

    def lseek(self, table: FDTable, fd: int, offset: int, whence: int = 0) -> int:
        of = table.get(fd)
        if whence == 0:
            new = offset
        elif whence == 1:
            new = of.offset + offset
        elif whence == 2:
            new = len(of.node.data) + offset
        else:
            raise InvalidArgument(str(fd), f"bad whence {whence}")
        if new < 0:
            raise InvalidArgument(str(fd), "negative seek position")
        of.offset = new
        return new

    def close(self, table: FDTable, fd: int) -> None:
        self._ops.add("close")
        table.remove(fd)

    # ------------------------------------------------------------------
    # mounts
    # ------------------------------------------------------------------

    def mount(self, path: str, fs: "FileSystem") -> None:
        """Graft *fs* over the directory at *path* (a syntactic mount)."""
        self._ops.add("mount")
        res = self.resolve(path)
        if not res.node.is_dir:
            raise NotADirectory(path)
        if res.node is res.fs.root and res.fs is not self:
            raise DeviceBusy(path, "already a mount point")
        if res.node.ino in res.fs._mounts:
            raise DeviceBusy(path, "already a mount point")
        if fs is self:
            raise InvalidArgument(path, "cannot mount a file system on itself")
        pm = res.fs._pathmap
        cover = res.fs.path_of_ino(res.node.ino)
        if cover is None:
            pm.clear()
        else:
            pm.invalidate_prefix(cover)
        res.fs._mounts[res.node.ino] = fs
        self._notify("mount", path=pathutil.normalize(path), fs=res.fs, mounted=fs)

    def unmount(self, path: str) -> "FileSystem":
        """Detach the file system mounted at *path*; returns it."""
        self._ops.add("unmount")
        # resolve the *covered* directory: walk to the mounted root, then
        # find it via the parent chain is messy — resolve parent instead.
        norm = pathutil.normalize(path)
        if norm == "/":
            raise InvalidArgument(path, "cannot unmount the root")
        fs, parent, name = self._resolve_parent(norm)
        covered = parent.lookup(name)
        if covered is None:
            raise FileNotFound(path)
        if covered.ino not in fs._mounts:
            raise InvalidArgument(path, "not a mount point")
        mounted = fs._mounts.pop(covered.ino)
        fs._pm_invalidate(parent, name, prefix=True)
        self._notify("unmount", path=norm, fs=fs, unmounted=mounted)
        return mounted

    def mounts(self) -> List[Tuple[str, "FileSystem"]]:
        """(cover path, mounted fs) pairs for mounts directly on this FS."""
        out = []
        for ino, mounted in self._mounts.items():
            cover = self.path_of_ino(ino)
            if cover is not None:
                out.append((cover, mounted))
        return sorted(out)

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------

    def du(self, path: str = "/") -> int:
        """Total bytes of file data at/below *path* (this FS only)."""
        res = self.resolve(path)
        total = 0
        stack = [res.node]
        while stack:
            node = stack.pop()
            if isinstance(node, FileNode):
                total += len(node.data)
            elif node.is_dir:
                stack.extend(node.entries.values())  # type: ignore[union-attr]
        return total

    def inode_count(self) -> int:
        return len(self._inodes)

    def __repr__(self):
        return f"FileSystem({self.fsid}, inodes={len(self._inodes)})"
