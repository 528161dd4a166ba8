"""The Andrew Benchmark, five phases, over any file-system layer (Table 1/2).

Phases exactly as the paper describes them:

1. **Makedir** — reconstruct the source directory hierarchy at the
   destination;
2. **Copy** — copy every source file into it;
3. **Scan** — recursively stat every file without reading data;
4. **Read** — read every byte of every file;
5. **Make** — "compile and link": tokenise every source file, build a
   symbol table, compute checksums, write one object file per source and a
   final linked binary.  Compute-bound, which is why the paper sees the
   least relative overhead here.

The benchmark drives a *target* object through a small uniform interface
(mkdir/write_file/read_file/stat/listdir/open/read/write/close).  Plain
:class:`FileSystem`, :class:`HacFileSystem`, :class:`JadeFileSystem` and
:class:`PseudoFileSystem` all satisfy it (the raw VFS through a tiny
adapter that owns a descriptor table).
"""

from __future__ import annotations

import random
import time
import zlib
from typing import Dict, List, Optional, Tuple

from repro.vfs.fd import FDTable
from repro.vfs.filesystem import FileSystem

PHASES = ("makedir", "copy", "scan", "read", "make")


class AndrewConfig:
    """Size of the synthetic source tree."""

    def __init__(self, dirs: int = 8, files_per_dir: int = 6,
                 functions_per_file: int = 12, seed: int = 7):
        self.dirs = dirs
        self.files_per_dir = files_per_dir
        self.functions_per_file = functions_per_file
        self.seed = seed


class RawFsAdapter:
    """Uniform interface over a plain :class:`FileSystem` (the "UNIX" row)."""

    def __init__(self, fs: FileSystem):
        self.fs = fs
        self.fdtable = FDTable()

    def mkdir(self, path: str) -> None:
        self.fs.mkdir(path)

    def write_file(self, path: str, data: bytes) -> int:
        return self.fs.write_file(path, data)

    def read_file(self, path: str) -> bytes:
        return self.fs.read_file(path)

    def stat(self, path: str):
        return self.fs.stat(path)

    def listdir(self, path: str) -> List[str]:
        return self.fs.listdir(path)

    def open(self, path: str, mode: str = "r") -> int:
        return self.fs.open(self.fdtable, path, mode)

    def read(self, fd: int, size: int = -1) -> bytes:
        return self.fs.read(self.fdtable, fd, size)

    def write(self, fd: int, data: bytes) -> int:
        return self.fs.write(self.fdtable, fd, data)

    def close(self, fd: int) -> None:
        self.fs.close(self.fdtable, fd)


def generate_source_tree(config: AndrewConfig) -> Dict[str, str]:
    """``{relative path: C-like source text}`` for the benchmark input."""
    rng = random.Random(config.seed)
    tree: Dict[str, str] = {}
    for d in range(config.dirs):
        for f in range(config.files_per_dir):
            name = f"module{d:02d}/src{f:02d}.c"
            lines = [f"/* generated module {d}.{f} */",
                     '#include "system.h"', ""]
            for g in range(config.functions_per_file):
                fname = f"fn_{d}_{f}_{g}"
                lines.append(f"int {fname}(int a, int b) {{")
                body = rng.randint(2, 6)
                for i in range(body):
                    op = rng.choice(["+", "-", "*", "^"])
                    lines.append(f"    a = (a {op} b) + {rng.randint(1, 999)};")
                lines.append("    return a;")
                lines.append("}")
                lines.append("")
            tree[name] = "\n".join(lines)
    return tree


class AndrewBenchmark:
    """Runs the five phases and reports per-phase wall-clock seconds."""

    def __init__(self, target, config: Optional[AndrewConfig] = None,
                 src_root: str = "/andrew/src", dst_root: str = "/andrew/dst"):
        self.target = target
        self.config = config if config is not None else AndrewConfig()
        self.src_root = src_root.rstrip("/")
        self.dst_root = dst_root.rstrip("/")
        self.source = generate_source_tree(self.config)

    # -- setup (not timed) -----------------------------------------------------

    def install_sources(self) -> None:
        made = set()
        for part in self._ancestor_dirs(self.src_root):
            self._mkdir_once(part, made)
        for rel in sorted(self.source):
            dirname = rel.rsplit("/", 1)[0]
            self._mkdir_once(f"{self.src_root}/{dirname}", made)
            self.target.write_file(f"{self.src_root}/{rel}",
                                   self.source[rel].encode("utf-8"))

    @staticmethod
    def _ancestor_dirs(path: str) -> List[str]:
        comps = [c for c in path.split("/") if c]
        return ["/" + "/".join(comps[:i + 1]) for i in range(len(comps))]

    def _mkdir_once(self, path: str, made: set) -> None:
        if path in made:
            return
        try:
            self.target.mkdir(path)
        except Exception:
            pass  # already exists
        made.add(path)

    # -- the phases ----------------------------------------------------------------

    def phase_makedir(self) -> None:
        made = set()
        for part in self._ancestor_dirs(self.dst_root):
            self._mkdir_once(part, made)
        dirs = sorted({rel.rsplit("/", 1)[0] for rel in self.source})
        for d in dirs:
            self.target.mkdir(f"{self.dst_root}/{d}")

    def phase_copy(self) -> None:
        for rel in sorted(self.source):
            data = self.target.read_file(f"{self.src_root}/{rel}")
            self.target.write_file(f"{self.dst_root}/{rel}", data)

    def phase_scan(self) -> int:
        count = 0
        stack = [self.dst_root]
        while stack:
            cur = stack.pop()
            for name in self.target.listdir(cur):
                path = f"{cur}/{name}"
                st = self.target.stat(path)
                count += 1
                is_dir = st.is_dir if hasattr(st, "is_dir") \
                    else st.get("nlink", 1) >= 2
                if is_dir:
                    stack.append(path)
        return count

    def phase_read(self) -> int:
        total = 0
        for rel in sorted(self.source):
            fd = self.target.open(f"{self.dst_root}/{rel}", "r")
            while True:
                chunk = self.target.read(fd, 4096)
                if not chunk:
                    break
                total += len(chunk)
            self.target.close(fd)
        return total

    def phase_make(self) -> str:
        """Tokenise, 'compile' each file to a .o, then 'link' a binary."""
        symbols: Dict[str, int] = {}
        objects: List[Tuple[str, int]] = []
        for rel in sorted(self.source):
            data = self.target.read_file(f"{self.dst_root}/{rel}")
            text = data.decode("utf-8")
            tokens = text.replace("(", " ").replace(")", " ").split()
            for tok in tokens:
                if tok.startswith("fn_"):
                    symbols[tok.rstrip("{")] = len(symbols)
            checksum = zlib.crc32(data)
            # a quadratic-ish "optimisation pass" to keep Make compute-bound
            acc = checksum
            for tok in tokens:
                acc = (acc * 1000003 + hash(tok)) & 0xFFFFFFFF
            obj_path = f"{self.dst_root}/{rel}.o"
            payload = f"OBJ {rel} {checksum} {acc} {len(tokens)}\n".encode()
            self.target.write_file(obj_path, payload * 8)
            objects.append((obj_path, acc))
        link = zlib.crc32(repr(sorted(symbols)).encode())
        for _path, acc in objects:
            link = (link ^ acc) * 2654435761 & 0xFFFFFFFF
        binary = f"{self.dst_root}/a.out"
        self.target.write_file(binary, f"BIN {link} {len(symbols)}\n"
                               .encode() * 64)
        return binary

    # -- driver --------------------------------------------------------------------

    def run_phase(self, phase: str) -> float:
        """Run one phase; returns its wall-clock seconds."""
        fn = getattr(self, f"phase_{phase}")
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def run(self) -> Dict[str, float]:
        """Install sources, run all five phases, return seconds per phase."""
        self.install_sources()
        timings = {phase: self.run_phase(phase) for phase in PHASES}
        timings["total"] = sum(timings[p] for p in PHASES)
        return timings
