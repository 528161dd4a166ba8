"""Recursive traversal helpers over a :class:`~repro.vfs.filesystem.FileSystem`.

``walk`` mirrors :func:`os.fwalk`: beside the names it hands out the
directory it is listing, so a consumer reads a child as
``dirnode.entries[name]`` instead of resolving the joined path again.
``iter_files`` yields every regular file with its absolute path, optionally
descending into syntactic mounts (the HAC indexer uses this to enumerate
its whole personal name space).  Symbolic links are reported but never
followed during traversal, so link cycles cannot hang a walk.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.util import pathutil
from repro.vfs.filesystem import FileSystem
from repro.vfs.inode import DirNode, FileNode, SymlinkNode

#: the directory a walk step lists: its owning file system (the mounted one
#: once a syntactic mount has been crossed) and its node
Listed = Tuple[FileSystem, DirNode]


def walk(fs: FileSystem, top: str = "/", cross_mounts: bool = True
         ) -> Iterator[Tuple[str, List[str], List[str], Listed]]:
    """Yield ``(dirpath, dirnames, filenames, (owner, dirnode))`` top-down.

    ``dirnames`` may be pruned in place by the caller, as with ``os.walk``.
    Symlinks appear in ``filenames`` regardless of what they point at, and
    every name in ``filenames`` is a key of ``dirnode.entries`` owned by
    ``owner``.
    """
    res = fs.resolve(top)
    if not res.node.is_dir:
        raise ValueError(f"walk() needs a directory, got {top}")
    stack: List[Tuple[str, FileSystem, DirNode]] = [
        (pathutil.normalize(top), res.fs, res.node)  # type: ignore[list-item]
    ]
    while stack:
        dirpath, cur_fs, dirnode = stack.pop()
        dirnames: List[str] = []
        filenames: List[str] = []
        children = {}
        for name in sorted(dirnode.entries):
            child = dirnode.entries[name]
            target_fs = cur_fs
            if child.is_dir and child.ino in cur_fs._mounts:
                if not cross_mounts:
                    continue
                target_fs = cur_fs._mounts[child.ino]
                child = target_fs.root
            if child.is_dir:
                dirnames.append(name)
                children[name] = (target_fs, child)
            else:
                filenames.append(name)
        yield dirpath, dirnames, filenames, (cur_fs, dirnode)
        # honour caller-side pruning of dirnames
        for name in reversed(dirnames):
            if name in children:
                sub_fs, sub_node = children[name]
                stack.append((pathutil.join(dirpath, name), sub_fs, sub_node))


def _iter_kind(fs: FileSystem, top: str, cross_mounts: bool, kind: type):
    for dirpath, _dirnames, filenames, (_owner, dirnode) in walk(
            fs, top, cross_mounts=cross_mounts):
        for name in filenames:
            node = dirnode.entries[name]
            if isinstance(node, kind):
                yield pathutil.join(dirpath, name), node


def iter_files(fs: FileSystem, top: str = "/",
               cross_mounts: bool = True) -> Iterator[Tuple[str, FileNode]]:
    """Yield ``(path, FileNode)`` for every regular file under *top*."""
    return _iter_kind(fs, top, cross_mounts, FileNode)


def iter_symlinks(fs: FileSystem, top: str = "/",
                  cross_mounts: bool = True) -> Iterator[Tuple[str, SymlinkNode]]:
    """Yield ``(path, SymlinkNode)`` for every symlink under *top*."""
    return _iter_kind(fs, top, cross_mounts, SymlinkNode)
