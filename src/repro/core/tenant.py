"""Multi-tenant namespaces over one shared HAC file system.

The paper's semantic directories assume a single user over a single name
space; the cluster, snapshot, and chaos planes of PRs 4–9 scale the *index*
but still expose one flat namespace.  This module carves that namespace
into per-tenant scope roots — Prospero-style virtual namespaces synthesized
over shared infrastructure — and makes the :class:`Tenant` handle the
single public API surface:

* every VFS op, semantic op, ``glimpse`` query, and ``health()`` call on a
  :class:`Tenant` rewrites tenant-relative paths under the tenant's root
  (``/tenants/<name>``) and reverse-maps every path in the result, so a
  tenant never sees — and can never name — another tenant's tree;
* queries are scoped to the tenant subtree by wrapping the parsed AST in a
  ``scope:`` term, which the CAS index answers from its prefix partitions
  in one probe (PR 9) — the *index* stays shared, the *visibility* is
  per-tenant;
* mutations are charged against the tenant's :class:`QuotaSpec`
  (:mod:`repro.core.quota`) *before* any bytes land, composing with the
  admission gate (quota = per-tenant policy, admission = whole-system
  backpressure);
* every journaled intent a tenant op opens carries the tenant id in its
  payload, every facade op runs under a ``tenant.<op>`` span tagged with
  the tenant, and every maintenance event the op enqueues is attributed to
  the tenant's drain bucket (fair-share weighted round-robin — see
  :class:`~repro.core.scheduler.MaintenanceScheduler`).

Isolation is load-bearing, not advisory: the tenant soak
(``tests/chaos/tenantsoak.py``) drives two tenants, aims every fault at
tenant A's ops, and asserts tenant B's state digest is bit-identical to a
B-only fault-free oracle world.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from itertools import repeat
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import FileNotFound, InvalidArgument, UnknownTenant
from repro.util import pathutil
from repro.core.quota import (QuotaLedger, QuotaSpec, recompute_usage,
                              usage_at)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem

#: host directory every tenant root lives under (created lazily)
TENANTS_ROOT = "/tenants"

#: aux record persisting the tenant table (quota specs; usage is
#: recomputed from the tree on every attach/restore)
TENANTS_RECORD = "tenants"


#: tenant names become path components and CAS prefix-partition keys, so
#: the charset is strict: lowercase alphanumerics, dash, underscore
_NAME_RE = re.compile(r"[a-z0-9][a-z0-9_-]*\Z")


def _valid_name(name: str) -> bool:
    return bool(_NAME_RE.match(name))


class TenantManager:
    """Carves per-tenant scope roots out of one shared HAC file system.

    Owned by the :class:`~repro.core.hacfs.HacFileSystem` (``hac.tenants``);
    an empty manager costs nothing — the ``/tenants`` host directory, the
    scheduler's per-tenant buckets, and the ``health()`` tenant section all
    appear only once the first tenant is created.
    """

    def __init__(self, hacfs: "HacFileSystem"):
        self.hacfs = hacfs
        self._tenants: Dict[str, Tenant] = {}
        hacfs.maintenance.set_tenant_resolver(self.tenant_of_path)

    # -- lifecycle ----------------------------------------------------------

    def create(self, name: str, quota: Optional[QuotaSpec] = None) -> "Tenant":
        """Register a tenant and create its scope root.

        Journaled as one ``tenant_create`` intent: the root directories and
        the persisted tenant table land together or not at all.
        """
        if not _valid_name(name):
            raise InvalidArgument(name, "invalid tenant name")
        if name in self._tenants:
            raise InvalidArgument(name, "tenant already exists")
        spec = quota if quota is not None else QuotaSpec()
        root = pathutil.join(TENANTS_ROOT, name)
        with self.hacfs._journaled("tenant_create",
                                   {"tenant": name, "root": root}):
            self.hacfs.makedirs(root)
            tenant = self._attach(name, spec)
            # always index-fresh on its own writes: the root watch makes
            # every mutation enqueue (so it counts against the doc budget
            # and lands in the tenant's fair-share bucket) right away
            self.hacfs.watch(root)
            self._persist()
        return tenant

    def get(self, name: str) -> "Tenant":
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenant(name)
        return tenant

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    def names(self) -> List[str]:
        return sorted(self._tenants)

    def set_quota(self, name: str, quota: QuotaSpec) -> None:
        """Replace a tenant's budgets (usage carries over)."""
        tenant = self.get(name)
        tenant.ledger.spec = quota
        self.hacfs.maintenance.register_tenant(name, quota.weight)
        with self.hacfs._journaled("tenant_quota",
                                   {"tenant": name, "quota": quota.to_obj()}):
            self._persist()

    # -- attribution hooks --------------------------------------------------

    def tenant_of_path(self, path: str) -> Optional[str]:
        """The tenant owning *path*, or None for shared-namespace paths
        (the maintenance scheduler's bucket resolver)."""
        if not self._tenants or not path.startswith(TENANTS_ROOT):
            return None
        rest = path[len(TENANTS_ROOT):]
        if not rest.startswith("/"):
            return None
        name = rest[1:].split("/", 1)[0]
        return name if name in self._tenants else None

    # -- reporting ----------------------------------------------------------

    def describe(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant usage/quota/pending — ``health()``'s tenant section."""
        pending = self.hacfs.maintenance.pending_by_tenant()
        out: Dict[str, Dict[str, object]] = {}
        for name in self.names():
            tenant = self._tenants[name]
            out[name] = {
                "root": tenant.root,
                "usage": tenant.ledger.usage(),
                "quota": tenant.ledger.spec.to_obj(),
                "pending": pending.get(name, 0),
            }
        return out

    # -- persistence --------------------------------------------------------

    def _attach(self, name: str, spec: QuotaSpec) -> "Tenant":
        tenant = Tenant(self, name, spec)
        self._tenants[name] = tenant
        self.hacfs.maintenance.register_tenant(name, spec.weight)
        return tenant

    def _persist(self) -> None:
        self.hacfs.meta.flush_aux(TENANTS_RECORD, {
            name: {"quota": t.ledger.spec.to_obj()}
            for name, t in self._tenants.items()
        })

    def reload(self) -> int:
        """Re-attach every persisted tenant (the restore path); usage is
        recounted from the live tree, which recovery already healed.  Root
        watches are only registered: ``restore``'s one ``ssync("/")`` syncs."""
        raw = self.hacfs.meta.load_aux(TENANTS_RECORD) or {}
        for name in sorted(raw):
            if name in self._tenants:
                continue
            spec = QuotaSpec.from_obj(raw[name].get("quota", {}))
            tenant = self._attach(name, spec)
            if self.hacfs.fs.isdir(tenant.root):
                self.hacfs.watches.register(tenant.root)
                tenant.recount()
        return len(self._tenants)


class Tenant:
    """The tenant-scoped facade — the public API surface of a namespace.

    Every method mirrors the :class:`HacFileSystem` call of the same name,
    with tenant-relative paths in and out.  Mutations charge the quota
    ledger first (a :class:`~repro.errors.QuotaExceeded` leaves no trace),
    run under a ``tenant.<op>`` span, and stamp the tenant id onto any
    journal intent they open.
    """

    def __init__(self, manager: TenantManager, name: str, spec: QuotaSpec):
        self.manager = manager
        self.name = name
        self.root = pathutil.join(TENANTS_ROOT, name)
        self.ledger = QuotaLedger(name, spec)
        self._hacfs = manager.hacfs
        self._stats = self._hacfs.counters.scoped(f"tenant.{name}")

    def __repr__(self):
        return f"Tenant({self.name!r}, root={self.root!r})"

    # -- path translation ---------------------------------------------------

    def _host(self, path: str) -> str:
        """Tenant-relative → host path; ``..`` cannot escape the root
        because it is collapsed lexically *before* the root is prefixed,
        clamping at the tenant's own root (chroot semantics)."""
        norm = pathutil.normalize(path if path.startswith("/") else "/" + path)
        comps: List[str] = []
        for comp in pathutil.split_components(norm):
            if comp == "..":
                if comps:
                    comps.pop()
            else:
                comps.append(comp)
        return self.root if not comps else self.root + "/" + "/".join(comps)

    def _rel(self, host_path: str) -> Optional[str]:
        """Host → tenant-relative path; None for paths outside the root."""
        if host_path == self.root:
            return "/"
        if host_path.startswith(self.root + "/"):
            return host_path[len(self.root):]
        return None

    @contextmanager
    def _op(self, op: str, sites: Sequence[str] = (),
            creates: Optional[str] = None, grows: int = 0,
            replaces: bool = False, follow: bool = False, **tags):
        """One facade operation: a tenant-tagged span, tenant-attributed
        journal intents, a per-tenant op counter — and the quota.

        *sites* are the host paths whose tree entries the operation may
        add, remove, or resize.  They are measured first
        (:func:`~repro.core.quota.usage_at`; *follow* measures the file a
        link names, where content written through it lands) and an upper
        bound on the charge is checked, so
        :class:`~repro.errors.QuotaExceeded` fires before any byte lands:
        with *creates* (``"dir"`` or ``"file"``) every missing site may
        become an inode — a file also an indexed document — and the sites
        may gain *grows* bytes, on top of what they hold or, with
        *replaces*, in place of it.  After the operation succeeds they
        are measured again, and the difference is what the ledger commits.
        """
        hacfs = self._hacfs
        self._stats.add("ops")
        prev = hacfs.journal.tenant
        hacfs.journal.tenant = self.name
        try:
            with hacfs.obs.trace.span(f"tenant.{op}", tenant=self.name,
                                      **tags):
                if not sites:
                    yield
                    return
                ledger = self.ledger
                inodes, nbytes = self._usage_at(sites, follow)
                if creates is not None and inodes < len(sites):
                    ledger.check("inodes", len(sites) - inodes)
                    if creates == "file":
                        ledger.check_docs(self._indexed_docs())
                ledger.check("bytes", grows - nbytes if replaces else grows)
                yield
                now_inodes, now_bytes = self._usage_at(sites, follow)
                if now_inodes != inodes:
                    ledger.commit("inodes", now_inodes - inodes)
                if now_bytes != nbytes:
                    ledger.commit("bytes", now_bytes - nbytes)
        finally:
            hacfs.journal.tenant = prev

    # -- quota plumbing -----------------------------------------------------

    def _usage_at(self, sites: Sequence[str], follow: bool):
        """``(inodes, bytes)`` the tree holds at *sites* right now."""
        fs = self._hacfs.fs
        inodes = nbytes = 0
        for site in sites:
            site_inodes, site_bytes = usage_at(fs, site, follow)
            inodes += site_inodes
            nbytes += site_bytes
        return inodes, nbytes

    def _indexed_docs(self) -> int:
        """Documents the shared index holds under this root, plus updates
        still queued in this tenant's drain bucket."""
        pending = self._hacfs.maintenance.pending_by_tenant()
        return self._hacfs.engine.scope_count(self.root) + \
            pending.get(self.name, 0)

    def usage(self) -> Dict[str, int]:
        return self.ledger.usage()

    def quota(self) -> QuotaSpec:
        return self.ledger.spec

    def recount(self) -> Dict[str, int]:
        """Recompute the ledger from the live tree (attach/restore/audit)."""
        counted = recompute_usage(self._hacfs.fs, self.root)
        self.ledger.inodes = counted["inodes"]
        self.ledger.bytes = counted["bytes"]
        return counted

    # -- hierarchical operations --------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755):
        host = self._host(path)
        with self._op("mkdir", (host,), creates="dir", path=path):
            return self._hacfs.mkdir(host, mode=mode)

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        host = self._host(path)
        below_root = [p for p in list(pathutil.ancestors(host)) + [host]
                      if len(p) > len(self.root)]
        with self._op("makedirs", below_root, creates="dir", path=path):
            self._hacfs.makedirs(host, mode=mode)

    def rmdir(self, path: str) -> None:
        host = self._host(path)
        if host == self.root:
            raise InvalidArgument(path, "cannot remove the tenant root")
        with self._op("rmdir", (host,), path=path):
            self._hacfs.rmdir(host)

    def create(self, path: str, mode: int = 0o644):
        host = self._host(path)
        with self._op("create", (host,), creates="file", path=path):
            return self._hacfs.create(host, mode=mode)

    def write_file(self, path: str, data: bytes, append: bool = False) -> int:
        host = self._host(path)
        with self._op("write_file", (host,), creates="file",
                      grows=len(data), replaces=not append, follow=True,
                      path=path):
            return self._hacfs.write_file(host, data, append=append)

    def read_file(self, path: str) -> bytes:
        with self._op("read_file", path=path):
            return self._hacfs.read_file(self._host(path))

    def truncate(self, path: str, size: int = 0) -> None:
        host = self._host(path)
        with self._op("truncate", (host,), grows=size, replaces=True,
                      follow=True, path=path):
            self._hacfs.truncate(host, size)

    def unlink(self, path: str) -> None:
        host = self._host(path)
        with self._op("unlink", (host,), path=path):
            self._hacfs.unlink(host)

    def symlink(self, target: str, linkpath: str):
        # links are uncharged: re-evaluation materialises and drops them
        # outside the facade, so charging user links would drift the ledger
        host_target = target if "://" in target else self._host(target)
        with self._op("symlink", link=linkpath):
            return self._hacfs.symlink(host_target, self._host(linkpath))

    def rename(self, old: str, new: str) -> None:
        host_old, host_new = self._host(old), self._host(new)
        # a rename charges nothing, but may release what it replaces
        with self._op("rename", (host_old, host_new), old=old, new=new):
            self._hacfs.rename(host_old, host_new)

    # -- read-side pass-throughs --------------------------------------------

    def stat(self, path: str):
        return self._hacfs.stat(self._host(path))

    def lstat(self, path: str):
        return self._hacfs.lstat(self._host(path))

    def listdir(self, path: str = "/") -> List[str]:
        return self._hacfs.listdir(self._host(path))

    def readlink(self, path: str) -> str:
        text = self._hacfs.readlink(self._host(path))
        if "://" in text:
            return text
        return self._rel(pathutil.normalize(text)) or text

    def canonical_dir(self, path: str) -> str:
        canon = self._hacfs.canonical_dir(self._host(path))
        rel = self._rel(canon)
        if rel is None:
            raise FileNotFound(path, "outside the tenant")
        return rel

    def exists(self, path: str, follow: bool = True) -> bool:
        return self._hacfs.exists(self._host(path), follow=follow)

    def isdir(self, path: str) -> bool:
        return self._hacfs.isdir(self._host(path))

    def isfile(self, path: str) -> bool:
        return self._hacfs.isfile(self._host(path))

    def islink(self, path: str) -> bool:
        return self._hacfs.islink(self._host(path))

    def chmod(self, path: str, mode: int) -> None:
        with self._op("chmod", path=path):
            self._hacfs.chmod(self._host(path), mode)

    # -- descriptor I/O -----------------------------------------------------

    def open(self, path: str, mode: str = "r") -> int:
        host = self._host(path)
        if mode == "r":
            return self._hacfs.open(host, mode)
        # write modes create a missing file, and "w" truncates a present one
        with self._op("open", (host,), creates="file", replaces=mode == "w",
                      follow=True, path=path, mode=mode):
            return self._hacfs.open(host, mode)

    def read(self, fd: int, size: int = -1) -> bytes:
        return self._hacfs.read(fd, size)

    def write(self, fd: int, data: bytes) -> int:
        of = self._hacfs.fdtable.get(fd)
        live = of.fs.path_of_ino(of.node.ino)
        # an unlinked (or moved-out) open file is no longer tenant usage
        sites = (live,) if live and self._rel(live) is not None else ()
        with self._op("write", sites, grows=len(data), fd=fd):
            return self._hacfs.write(fd, data)

    def lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        return self._hacfs.lseek(fd, offset, whence)

    def close(self, fd: int) -> None:
        self._hacfs.close(fd)

    # -- semantic operations ------------------------------------------------

    def _resolve_dir(self, path: str) -> Optional[int]:
        """Query dir-references resolve in the *tenant's* namespace."""
        return self._hacfs.dirmap.uid_of(self._host(path))

    def smkdir(self, path: str, query: str) -> str:
        host = self._host(path)
        with self._op("smkdir", (host,), creates="dir", path=path,
                      query=query):
            canon = self._hacfs.smkdir(host, query,
                                       resolve_dir=self._resolve_dir)
            return self._rel(canon) or canon

    def set_query(self, path: str, query: Optional[str]) -> None:
        with self._op("set_query", path=path):
            self._hacfs.set_query(self._host(path), query,
                                  resolve_dir=self._resolve_dir)

    def get_query(self, path: str) -> Optional[str]:
        _uid, state = self._hacfs._state_of(self._host(path))
        if state.query is None:
            return None
        return state.query.to_text(
            lambda uid: self._rel(self._hacfs.dirmap.path_of(uid) or "")
            or self._hacfs.dirmap.path_of(uid))

    def is_semantic(self, path: str) -> bool:
        return self._hacfs.is_semantic(self._host(path))

    def links(self, path: str) -> Dict[str, tuple]:
        return self._hacfs.links(self._host(path))

    def prohibited(self, path: str) -> List[str]:
        return self._hacfs.prohibited(self._host(path))

    def classify(self, link_path: str) -> Optional[str]:
        return self._hacfs.classify(self._host(link_path))

    def make_permanent(self, link_path: str) -> None:
        with self._op("make_permanent", link=link_path):
            self._hacfs.make_permanent(self._host(link_path))

    def unprohibit(self, dir_path: str, target_text: str) -> bool:
        target = target_text if "://" in target_text \
            else self._host(target_text)
        with self._op("unprohibit", path=dir_path):
            return self._hacfs.unprohibit(self._host(dir_path), target)

    def sact(self, link_path: str) -> List[str]:
        return self._hacfs.sact(self._host(link_path))

    def ssync(self, path: str = "/"):
        with self._op("ssync", path=path):
            return self._hacfs.ssync(self._host(path))

    def watch(self, path: str = "/") -> str:
        with self._op("watch", path=path):
            host_root = self._hacfs.watch(self._host(path))
            return self._rel(host_root) or host_root

    def unwatch(self, path: str = "/") -> bool:
        host = self._hacfs.watches.root_named(self._host(path))
        if host == self.root:
            raise InvalidArgument(path, "cannot lift the tenant root watch")
        with self._op("unwatch", path=path):
            return self._hacfs.unwatch(host)

    def barrier(self) -> int:
        """Drain only this tenant's pending maintenance (fair-share: a
        neighbour's write storm stays in the neighbour's bucket)."""
        return self._hacfs.maintenance.barrier(tenant=self.name)

    # -- search -------------------------------------------------------------

    def glimpse(self, query: str, scope_path: str = "/",
                consistency: str = "strong") -> List[str]:
        """Ad-hoc search confined to the tenant subtree.

        The parsed query is wrapped in a ``scope:`` term, so the CAS
        index answers the subtree restriction from its prefix partitions
        in one probe (PR 9) — no per-tenant index, no walk.  A plain
        *scope_path* is that term; a semantic one provides its curated
        result as the scope (docs/SEMANTICS.md §2, as in the shell) and
        the term confines it to the tenant root.  ``strong`` drains only
        this tenant's bucket first (fair-share), ``snapshot`` answers from
        the last published version with no barrier at all.
        """
        from repro.cba.queryparser import parse_query
        from repro.cba import queryast

        hacfs = self._hacfs
        consistency = hacfs.admission.admit_read(consistency)
        host_scope = self._host(scope_path)
        with self._op("glimpse", query=query, consistency=consistency):
            ast = parse_query(query, resolve_dir=self._resolve_dir)
            curated = hacfs.scopes.semantic_state(host_scope) is not None
            paths = hacfs.query_paths(
                queryast.scoped(ast, self.root if curated else host_scope),
                host_scope if curated else None, consistency, self.name)
            paths.sort()
            # strings sorted between two that start with ``cut`` start
            # with it too: the ends prove confinement for the whole answer
            cut = self.root + "/"
            if paths and not (paths[0].startswith(cut)
                              and paths[-1].startswith(cut)):
                paths = [path for path in paths if path.startswith(cut)]
            return list(map(str.removeprefix, paths, repeat(self.root)))

    # -- status -------------------------------------------------------------

    def health(self, path: Optional[str] = None) -> Dict[str, object]:
        """The tenant's view of :meth:`HacFileSystem.health`: shared-plane
        sections pass through, the ``directories`` section is filtered to
        (and rebased under) the tenant root, and a ``tenant`` section adds
        this tenant's usage/quota/pending."""
        host = self._hacfs.health(self._host(path) if path is not None
                                  else None)
        directories = {}
        for dir_path, entry in host["directories"].items():
            rel = self._rel(dir_path)
            if rel is not None:
                directories[rel] = entry
        report = dict(host)
        report["directories"] = directories
        report["tenant"] = {
            "name": self.name,
            "root": self.root,
            "usage": self.ledger.usage(),
            "quota": self.ledger.spec.to_obj(),
            "pending": self._hacfs.maintenance.pending_by_tenant()
                           .get(self.name, 0),
        }
        return report

    def describe_scope(self, path: str = "/") -> Dict[str, object]:
        return self._hacfs.describe_scope(self._host(path))
