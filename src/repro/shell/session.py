"""HacShell — the paper's command set over one HAC file system.

"Well-known file system commands, such as cd, ls, mkdir, mv, rm etc., can
be used to access and manipulate objects in the file system in the usual
way.  HAC also provides additional commands that manipulate queries and
semantic directories."  (§4)

The shell resolves relative paths against a current working directory and
maps each command onto :class:`~repro.core.hacfs.HacFileSystem`.  The
semantic commands follow the paper's names where it gives them: ``smkdir``
creates a semantic directory, ``squery``/``schquery`` read and change a
query (the paper calls these ``sreadin``/``srm``), ``sact`` extracts the
matching content of a link, ``smount`` adds a semantic mount point, and
``ssync`` re-evaluates everything depending on a directory.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import FileNotFound, InvalidArgument, NotADirectory
from repro.util import pathutil
from repro.core.hacfs import HacFileSystem
from repro.remote.namespace import NameSpace
from repro.shell.formatting import long_listing
from repro.vfs.filesystem import FileSystem


class HacShell:
    """One user's session: a cwd plus the command set."""

    def __init__(self, hacfs: Optional[HacFileSystem] = None):
        self.hacfs = hacfs if hacfs is not None else HacFileSystem()
        self.cwd = "/"
        #: the tenant facade queries route through (None = the host view)
        self.tenant = None

    # -- path handling ---------------------------------------------------------

    def resolve_path(self, path: str) -> str:
        """Make *path* absolute against the cwd (lexical; ``..`` is resolved
        by the VFS so symlinked directories behave correctly)."""
        if not path:
            return self.cwd
        return path if pathutil.is_absolute(path) else pathutil.join(self.cwd, path)

    # -- navigation ---------------------------------------------------------------

    def cd(self, path: str) -> str:
        target = self.resolve_path(path)
        res = self.hacfs.fs.resolve(target)
        if not res.node.is_dir:
            raise NotADirectory(target)
        self.cwd = self.hacfs._canonical_dir(target)
        return self.cwd

    def pwd(self) -> str:
        return self.cwd

    # -- listing ----------------------------------------------------------------

    def ls(self, path: str = "", long: bool = False) -> str:
        target = self.resolve_path(path)
        names = self.hacfs.listdir(target)
        if not long:
            return "\n".join(names)
        classifications = {}
        try:
            classifications = {name: cls for name, (cls, _t)
                               in self.hacfs.links(target).items()}
        except (FileNotFound, KeyError):
            pass
        rows = []
        for name in names:
            entry = pathutil.join(target, name)
            st = self.hacfs.lstat(entry)
            link_target = self.hacfs.readlink(entry) if st.is_symlink else None
            rows.append((name, st.type, st.attrs.mode, st.size, st.mtime,
                         link_target, classifications.get(name)))
        return long_listing(rows)

    def sls(self, path: str = "") -> List[Tuple[str, str, str]]:
        """Classified link listing: (name, classification, target)."""
        target = self.resolve_path(path)
        return sorted((name, cls, tgt) for name, (cls, tgt)
                      in self.hacfs.links(target).items())

    # -- ordinary commands ----------------------------------------------------------

    def mkdir(self, path: str) -> None:
        self.hacfs.mkdir(self.resolve_path(path))

    def rmdir(self, path: str) -> None:
        self.hacfs.rmdir(self.resolve_path(path))

    def touch(self, path: str) -> None:
        target = self.resolve_path(path)
        if not self.hacfs.exists(target, follow=False):
            self.hacfs.create(target)

    def write(self, path: str, text: str, append: bool = False) -> int:
        return self.hacfs.write_file(self.resolve_path(path),
                                     text.encode("utf-8"), append=append)

    def cat(self, path: str) -> str:
        return self.hacfs.read_file(self.resolve_path(path)).decode(
            "utf-8", errors="replace")

    def cp(self, src: str, dst: str) -> None:
        data = self.hacfs.read_file(self.resolve_path(src))
        self.hacfs.write_file(self.resolve_path(dst), data)

    def mv(self, src: str, dst: str) -> None:
        self.hacfs.rename(self.resolve_path(src), self.resolve_path(dst))

    def rm(self, path: str) -> None:
        self.hacfs.unlink(self.resolve_path(path))

    def ln(self, target: str, linkpath: str) -> None:
        self.hacfs.symlink(self.resolve_path(target),
                           self.resolve_path(linkpath))

    def stat(self, path: str):
        return self.hacfs.stat(self.resolve_path(path))

    # -- semantic commands -------------------------------------------------------------

    def smkdir(self, path: str, query: str) -> str:
        return self.hacfs.smkdir(self.resolve_path(path), query)

    def squery(self, path: str = "") -> Optional[str]:
        """Read a directory's query (the paper's ``sreadin``)."""
        return self.hacfs.get_query(self.resolve_path(path))

    def schquery(self, path: str, query: Optional[str]) -> None:
        """Change (or with None, detach) a directory's query."""
        self.hacfs.set_query(self.resolve_path(path), query)

    def sact(self, link_path: str) -> List[str]:
        return self.hacfs.sact(self.resolve_path(link_path))

    def ssync(self, path: str = "/", asynchronous: bool = False):
        """Reindex + re-evaluate *path*'s subtree.

        With ``asynchronous=True`` the sync is queued behind the
        maintenance scheduler's next drain instead of running inline —
        in batched mode it returns ``None`` immediately, in eager mode
        (nothing to defer behind) it degrades to a synchronous sync.
        """
        target = self.resolve_path(path)
        if asynchronous and self.hacfs.maintenance.request_sync(target):
            return None
        return self.hacfs.ssync(target)

    def smount(self, path: str, namespace: NameSpace) -> None:
        self.hacfs.smount(self.resolve_path(path), namespace)

    def sunmount(self, path: str, namespace_id: Optional[str] = None) -> None:
        self.hacfs.sunmount(self.resolve_path(path), namespace_id)

    def mount(self, path: str, fs: FileSystem) -> None:
        self.hacfs.mount(self.resolve_path(path), fs)

    def unmount(self, path: str) -> FileSystem:
        return self.hacfs.unmount(self.resolve_path(path))

    def sprohibited(self, path: str = "") -> List[str]:
        return self.hacfs.prohibited(self.resolve_path(path))

    def sscope(self, path: str = "") -> dict:
        """What the directory provides: local/remote/namespace composition
        plus the same staleness entries ``health()`` reports — one source
        of truth, so this display and ``health()`` always agree."""
        return self.hacfs.describe_scope(self.resolve_path(path))

    def spermanent(self, link_path: str) -> None:
        self.hacfs.make_permanent(self.resolve_path(link_path))

    def swatch(self, path: str) -> str:
        """Keep a subtree index-fresh on every write (eager mode)."""
        return self.hacfs.watch(self.resolve_path(path))

    def sunwatch(self, path: str) -> bool:
        return self.hacfs.unwatch(self.resolve_path(path))

    def fsck(self, repair: bool = False) -> List[str]:
        """Audit HAC's structures; returns rendered findings."""
        return [str(f) for f in self.hacfs.fsck(repair=repair)]

    # -- tenants -----------------------------------------------------------------

    def tenant_create(self, name: str,
                      max_inodes: Optional[int] = None,
                      max_bytes: Optional[int] = None,
                      max_docs: Optional[int] = None,
                      weight: int = 1) -> str:
        """Create a tenant namespace; returns its host scope root."""
        from repro.core.quota import QuotaSpec

        tenant = self.hacfs.tenants.create(
            name, quota=QuotaSpec(max_inodes=max_inodes, max_bytes=max_bytes,
                                  max_docs=max_docs, weight=weight))
        return tenant.root

    def tenant_list(self) -> dict:
        """Per-tenant root/usage/quota/pending, as ``health()`` reports."""
        return self.hacfs.tenants.describe()

    def tenant_use(self, name: Optional[str] = None) -> str:
        """Route subsequent ``glimpse`` calls through one tenant's facade
        (quota-aware, subtree-scoped); ``None`` returns to the host view."""
        if name is None:
            self.tenant = None
            return "(host)"
        self.tenant = self.hacfs.tenants.get(name)
        return self.tenant.name

    def tenant_quota(self, name: str,
                     max_inodes: Optional[int] = None,
                     max_bytes: Optional[int] = None,
                     max_docs: Optional[int] = None,
                     weight: int = 1) -> dict:
        """Replace a tenant's budgets; returns its refreshed describe row."""
        from repro.core.quota import QuotaSpec

        self.hacfs.tenants.set_quota(
            name, QuotaSpec(max_inodes=max_inodes, max_bytes=max_bytes,
                            max_docs=max_docs, weight=weight))
        return self.hacfs.tenants.describe()[name]

    # -- search cluster ----------------------------------------------------------

    def smkcluster(self, shards: int = 3) -> str:
        """Replace the CBA engine with a sharded search cluster and reindex
        the corpus into it (semantic directories re-evaluate against the
        cluster from here on)."""
        from repro.cba.backend import open_backend

        hacfs = self.hacfs
        old = hacfs.engine
        num_blocks = old.num_blocks
        factory = open_backend(f"cluster:{shards}")
        cluster = factory(hacfs._load_doc, counters=hacfs.counters,
                          clock=hacfs.clock, transducer=old.transducer,
                          num_blocks=num_blocks)
        hacfs.adopt_engine(cluster)
        return (f"sharded cluster with {shards} shard(s), "
                f"{len(cluster)} docs indexed")

    def shards(self) -> List[Tuple[str, int, str, int]]:
        """Per-shard rows ``(shard id, docs, health, rpc calls)`` — empty
        when the engine is not a cluster."""
        from repro.cluster import ShardedSearchCluster

        engine = self.hacfs.engine
        if not isinstance(engine, ShardedSearchCluster):
            return []
        health = engine.health()
        return [(sid, len(shard.engine), health[sid],
                 int(shard.transport.calls))
                for sid, shard in engine.shards.items()]

    def shards_kill(self, shard_id: str) -> str:
        """Partition one shard off (every RPC to it fails until revival)."""
        engine = self.hacfs.engine
        if not hasattr(engine, "kill_shard"):
            raise InvalidArgument(shard_id, "engine is not a sharded cluster")
        if shard_id not in engine.shards:
            raise InvalidArgument(shard_id, "no such shard")
        engine.kill_shard(shard_id)
        return shard_id

    def shards_restore(self, shard_id: str) -> str:
        """Heal a killed shard and force its breaker closed."""
        engine = self.hacfs.engine
        if not hasattr(engine, "revive_shard"):
            raise InvalidArgument(shard_id, "engine is not a sharded cluster")
        if shard_id not in engine.shards:
            raise InvalidArgument(shard_id, "no such shard")
        engine.revive_shard(shard_id)
        return shard_id

    # -- maintenance scheduler ----------------------------------------------------

    def sched_status(self) -> dict:
        """Snapshot of the maintenance scheduler (mode, queue, counters)."""
        return self.hacfs.maintenance.status()

    def sched_mode(self, mode: str) -> str:
        """Switch the scheduler between ``eager`` and ``batched``."""
        self.hacfs.maintenance.set_mode(mode)
        return self.hacfs.maintenance.mode

    def sched_drain(self) -> int:
        """Apply everything pending right now; returns ops applied."""
        return self.hacfs.maintenance.drain(reason="explicit")

    def sched_publish(self) -> int:
        """Force a snapshot publish of the engine's current state without
        draining the pending batch; returns the new version."""
        return self.hacfs.maintenance.publish()

    def sched_lag(self, replica: str, publishes: int) -> str:
        """Make replicas skip the next *publishes* publishes (the
        staleness-injection control behind ``sched lag``).

        On a cluster, ``shard0:r1`` lags one replica and a bare
        ``shard0`` lags the whole shard; on a monolithic engine the
        argument is a replica id (see ``snapshot_info()['replicas']``).
        """
        engine = self.hacfs.engine
        if hasattr(engine, "shards"):
            shard_id = replica.split(":", 1)[0]
            if shard_id not in engine.shards:
                raise InvalidArgument(replica, "no such shard")
            engine.set_replica_lag(
                shard_id, publishes,
                replica_id=replica if ":" in replica else None)
        else:
            engine.set_replica_lag(replica, publishes)
        return replica

    # -- admission control --------------------------------------------------------

    def admit_status(self) -> dict:
        """The admission gate's structured status (also in health())."""
        return self.hacfs.admission.status()

    def admit_on(self) -> dict:
        self.hacfs.admission.enable()
        return self.hacfs.admission.status()

    def admit_off(self) -> dict:
        self.hacfs.admission.disable()
        return self.hacfs.admission.status()

    # -- chaos soak ---------------------------------------------------------------

    def chaos_run(self, seed: int = 0, k: int = 0, steps: int = 40,
                  windows: int = 2, admission: bool = True) -> dict:
        """Run one seeded chaos soak in a *throwaway* twin world (this
        shell's file system is untouched) and return its report; the
        report is kept for ``chaos_status``."""
        # lazy import: repro.chaos builds worlds out of this module, so a
        # top-level import would be circular
        from repro.chaos import ChaosRun

        run = ChaosRun(seed=seed, k=k, steps=steps, windows=windows,
                       admission=admission)
        run.run()
        self._last_chaos = run.report()
        return self._last_chaos

    def chaos_status(self) -> Optional[dict]:
        """The report of the last ``chaos_run`` in this session, if any."""
        return getattr(self, "_last_chaos", None)

    # -- observability -----------------------------------------------------------

    def hacstat(self, prefix: str = "") -> dict:
        """Snapshot of counters, histograms, and the span breakdown,
        optionally restricted to counter names starting with *prefix*."""
        snap = self.hacfs.obs.snapshot()
        if prefix:
            snap["counters"] = {k: v for k, v in snap["counters"].items()
                                if k.startswith(prefix)}
        return snap

    def trace_on(self) -> None:
        self.hacfs.obs.enable()

    def trace_off(self) -> None:
        self.hacfs.obs.disable()

    def trace_clear(self) -> None:
        self.hacfs.obs.clear()

    def trace_spans(self, name: Optional[str] = None,
                    op_id: Optional[int] = None) -> List[dict]:
        return [s.to_obj() for s in
                self.hacfs.obs.trace.spans(name=name, op_id=op_id)]

    def trace_export(self, path: str) -> int:
        """Write the captured spans as JSONL *into the HAC file system*;
        returns the number of spans written."""
        text = self.hacfs.obs.trace.export_jsonl()
        count = len(self.hacfs.obs.trace.spans())
        self.hacfs.write_file(self.resolve_path(path), text.encode("utf-8"))
        return count

    def glimpse(self, query: str, scope_path: str = "/",
                consistency: str = "strong") -> List[str]:
        """Ad-hoc search without creating a semantic directory — the
        'regular glimpse' usage the Table 4 bench compares against.

        ``consistency='strong'`` (the default) keeps the read-your-writes
        barrier semantics: drain pending maintenance, then answer from the
        live engine.  ``consistency='snapshot'`` answers from the last
        *published* index version with no barrier at all — the query never
        waits on (or triggers) write-side work, at the cost of not seeing
        batched updates newer than the last publish.
        """
        from repro.cba.queryparser import parse_query

        if self.tenant is not None:
            return self.tenant.glimpse(query, scope_path=scope_path,
                                       consistency=consistency)
        hacfs = self.hacfs
        # the admission gate may downgrade a strong read to snapshot while
        # back-ends are degraded (a no-op until 'admit on')
        consistency = hacfs.admission.admit_read(consistency)
        ast = parse_query(query, resolve_dir=hacfs.dirmap.uid_of)
        target = self.resolve_path(scope_path)
        # scopes resolve through the *live* directory state at either level,
        # so a snapshot read scoped to a semantic directory can mix a
        # fresher membership with as-of-publish content (callers needing
        # scope-exact answers use ``consistency='strong'``)
        if consistency == "snapshot" and hacfs._canonical_dir(target) == "/":
            target = None  # the whole cut, not the live root's documents
        return sorted(hacfs.query_paths(ast, target, consistency))
