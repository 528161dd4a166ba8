"""HacShell — the paper's command set over one HAC file system.

"Well-known file system commands, such as cd, ls, mkdir, mv, rm etc., can
be used to access and manipulate objects in the file system in the usual
way.  HAC also provides additional commands that manipulate queries and
semantic directories."  (§4)

A session is a current working directory over one *view*: the host
:class:`~repro.core.hacfs.HacFileSystem`, or a tenant's
:class:`~repro.core.tenant.Tenant` facade after :meth:`HacShell.tenant_use`,
which rebases, charges and traces every path verb.  The one-call verbs are
the table :data:`VERBS`, made into methods when the class is created.  The
semantic verbs keep the paper's names where it gives them (``squery`` and
``schquery`` are its ``sreadin`` and ``srm``).
"""

from __future__ import annotations

import inspect
from operator import attrgetter
from typing import List, Optional, Tuple

from repro.errors import FileNotFound, InvalidArgument, NotADirectory
from repro.util import pathutil
from repro.core.hacfs import HacFileSystem
from repro.core.quota import QuotaSpec
from repro.shell.formatting import long_listing

#: verb → (method, its parameters, how many of them lead as paths).  A
#: plain method is the view's, and path arguments resolve against the cwd;
#: a dotted one belongs to a host component (the operator verbs).  A
#: bracketed parameter may be left out: a path then means the cwd, any
#: other parameter None.
VERBS = {
    "mkdir": ("mkdir", "path", 1),
    "rmdir": ("rmdir", "path", 1),
    "rm": ("unlink", "path", 1),
    "mv": ("rename", "src dst", 2),
    "ln": ("symlink", "target linkpath", 2),
    "stat": ("stat", "path", 1),
    "smkdir": ("smkdir", "path query", 1),
    "squery": ("get_query", "[path]", 1),
    "schquery": ("set_query", "path query", 1),
    "sact": ("sact", "link_path", 1),
    "sprohibited": ("prohibited", "[path]", 1),
    "sscope": ("describe_scope", "[path]", 1),
    "spermanent": ("make_permanent", "link_path", 1),
    "swatch": ("watch", "path", 1),
    "sunwatch": ("unwatch", "path", 1),
    "smount": ("smount", "path namespace", 1),
    "sunmount": ("sunmount", "path [namespace_id]", 1),
    "mount": ("mount", "path fs", 1),
    "unmount": ("unmount", "path", 1),
    "tenant_list": ("tenants.describe", "", 0),
    "sched_status": ("maintenance.status", "", 0),
    "sched_mode": ("maintenance.set_mode", "mode", 0),
    "sched_drain": ("maintenance.drain", "", 0),
    "sched_publish": ("maintenance.publish", "", 0),
    "admit_status": ("admission.status", "", 0),
    "trace_on": ("obs.enable", "", 0),
    "trace_off": ("obs.disable", "", 0),
    "trace_clear": ("obs.clear", "", 0),
}

_ARG = inspect.Parameter.POSITIONAL_OR_KEYWORD


def _verb(verb: str, method: str, params: str, paths: int):
    """The :class:`HacShell` method for one :data:`VERBS` row."""
    sig = inspect.Signature([inspect.Parameter("self", _ARG)] + [
        inspect.Parameter(name.strip("[]"), _ARG,
                          default=("" if i < paths else None)
                          if name.startswith("[") else inspect.Parameter.empty)
        for i, name in enumerate(params.split())])

    def call(self, *args, **kwargs):
        bound = sig.bind(self, *args, **kwargs)
        bound.apply_defaults()
        values = list(bound.arguments.values())[1:]
        values[:paths] = map(self.resolve_path, values[:paths])
        if "." in method:
            return attrgetter(method)(self.hacfs)(*values)
        return self._view(method)(*values)

    call.__name__, call.__qualname__ = verb, f"HacShell.{verb}"
    call.__signature__ = sig
    call.__doc__ = f"The host's ``{method}``." if "." in method else \
        f"The view's ``{method}``, path arguments resolved against the cwd."
    return call


def _with_verbs(cls):
    for verb, row in VERBS.items():
        setattr(cls, verb, _verb(verb, *row))
    return cls


@_with_verbs
class HacShell:
    """One user's session: a cwd over a view, plus the command set."""

    def __init__(self, hacfs: Optional[HacFileSystem] = None):
        self.hacfs = hacfs if hacfs is not None else HacFileSystem()
        #: what path verbs act on: the host, or a tenant facade
        self.view = self.hacfs
        self.cwd = "/"

    def resolve_path(self, path: str) -> str:
        """Make *path* absolute against the cwd (lexical; ``..`` is resolved
        by the view, so symlinked directories behave correctly and a tenant
        view clamps it at the tenant root)."""
        if not path:
            return self.cwd
        return path if pathutil.is_absolute(path) else pathutil.join(self.cwd, path)

    def _view(self, method: str):
        """The view's *method*; a tenant view refuses one its facade lacks."""
        if not hasattr(self.view, method):
            raise InvalidArgument(method, "not available in a tenant view")
        return getattr(self.view, method)

    # -- composite path verbs ----------------------------------------------------

    def cd(self, path: str = "/") -> str:
        target = self.resolve_path(path)
        if not self.view.isdir(target):
            raise NotADirectory(target)
        self.cwd = self.view.canonical_dir(target)
        return self.cwd

    def pwd(self) -> str:
        return self.cwd

    def ls(self, path: str = "", long: bool = False) -> str:
        target = self.resolve_path(path)
        view = self.view
        names = view.listdir(target)
        if not long:
            return "\n".join(names)
        try:
            classes = {name: cls for name, (cls, _t)
                       in view.links(target).items()}
        except (FileNotFound, KeyError):
            classes = {}
        rows = []
        for name in names:
            entry = pathutil.join(target, name)
            st = view.lstat(entry)
            link_target = view.readlink(entry) if st.is_symlink else None
            rows.append((name, st.type, st.attrs.mode, st.size, st.mtime,
                         link_target, classes.get(name)))
        return long_listing(rows)

    def sls(self, path: str = "") -> List[Tuple[str, str, str]]:
        """Classified link listing: (name, classification, target)."""
        return sorted((name, cls, tgt) for name, (cls, tgt)
                      in self.view.links(self.resolve_path(path)).items())

    def touch(self, path: str) -> None:
        target = self.resolve_path(path)
        if not self.view.exists(target, follow=False):
            self.view.create(target)

    def write(self, path: str, text: str, append: bool = False) -> int:
        return self.view.write_file(self.resolve_path(path),
                                    text.encode("utf-8"), append=append)

    def cat(self, path: str) -> str:
        return self.view.read_file(self.resolve_path(path)).decode(
            "utf-8", errors="replace")

    def cp(self, src: str, dst: str) -> None:
        data = self.view.read_file(self.resolve_path(src))
        self.view.write_file(self.resolve_path(dst), data)

    def ssync(self, path: str = "/", asynchronous: bool = False):
        """Reindex + re-evaluate *path*'s subtree.

        With ``asynchronous=True`` the sync is queued behind the
        maintenance scheduler's next drain instead of running inline —
        in batched mode it returns ``None`` immediately, in eager mode
        (nothing to defer behind) it degrades to a synchronous sync.
        """
        target = self.resolve_path(path)
        if asynchronous and self._view("maintenance").request_sync(target):
            return None
        return self.view.ssync(target)

    def glimpse(self, query: str, scope_path: str = "/",
                consistency: str = "strong") -> List[str]:
        """Ad-hoc search of the view (a tenant's answers only from its
        subtree); see :meth:`HacFileSystem.glimpse`."""
        return self.view.glimpse(query, self.resolve_path(scope_path),
                                 consistency)

    # -- operator verbs: they act on the host ------------------------------------

    def fsck(self, repair: bool = False) -> List[str]:
        """Audit HAC's structures; returns rendered findings."""
        return [str(f) for f in self.hacfs.fsck(repair=repair)]

    def tenant_create(self, name: str, max_inodes: Optional[int] = None,
                      max_bytes: Optional[int] = None,
                      max_docs: Optional[int] = None, weight: int = 1) -> str:
        """Create a tenant namespace; returns its host scope root."""
        return self.hacfs.tenants.create(name, QuotaSpec(
            max_inodes, max_bytes, max_docs, weight)).root

    def tenant_use(self, name: Optional[str] = None) -> str:
        """Make tenant *name*'s facade the view, with the cwd at its root;
        ``None`` or ``-`` returns to the host view at ``/``.  Returns the
        view's name."""
        host = name in (None, "-")
        self.view = self.hacfs if host else self.hacfs.tenants.get(name)
        self.cwd = "/"
        return "host" if host else name

    def tenant_quota(self, name: str, max_inodes: Optional[int] = None,
                     max_bytes: Optional[int] = None,
                     max_docs: Optional[int] = None, weight: int = 1) -> dict:
        """Replace a tenant's budgets; returns its refreshed describe row."""
        self.hacfs.tenants.set_quota(name, QuotaSpec(
            max_inodes, max_bytes, max_docs, weight))
        return self.hacfs.tenants.describe()[name]

    def smkcluster(self, shards: int = 3) -> str:
        """Replace the CBA engine with a sharded search cluster and reindex
        the corpus into it (semantic directories re-evaluate against the
        cluster from here on)."""
        from repro.cba.backend import open_backend

        hacfs = self.hacfs
        cluster = open_backend(f"cluster:{shards}")(
            hacfs._load_doc, counters=hacfs.counters, clock=hacfs.clock,
            transducer=hacfs.engine.transducer,
            num_blocks=hacfs.engine.num_blocks)
        hacfs.adopt_engine(cluster)
        return (f"sharded cluster with {shards} shard(s), "
                f"{len(cluster)} docs indexed")

    def shards(self) -> List[Tuple[str, int, str, int]]:
        """Per-shard rows ``(shard id, docs, health, rpc calls)`` — empty
        when the engine is not a cluster."""
        engine = self.hacfs.engine
        if not hasattr(engine, "kill_shard"):
            return []
        health = engine.health()
        return [(sid, len(shard.engine), health[sid],
                 int(shard.transport.calls))
                for sid, shard in engine.shards.items()]

    def _cluster(self, shard: str):
        """The engine, if it is a cluster holding *shard*."""
        engine = self.hacfs.engine
        if not hasattr(engine, "kill_shard"):
            raise InvalidArgument(shard, "engine is not a sharded cluster")
        if shard not in engine.shards:
            raise InvalidArgument(shard, "no such shard")
        return engine

    def shards_kill(self, shard: str) -> str:
        """Partition one shard off (every RPC to it fails until revival)."""
        self._cluster(shard).kill_shard(shard)
        return shard

    def shards_restore(self, shard: str) -> str:
        """Heal a killed shard and force its breaker closed."""
        self._cluster(shard).revive_shard(shard)
        return shard

    def sched_lag(self, replica: str, publishes: int) -> str:
        """Make replicas skip the next *publishes* publishes (the
        staleness-injection control behind ``sched lag``).

        On a cluster, ``shard0:r1`` lags one replica and a bare
        ``shard0`` lags the whole shard; on a monolithic engine the
        argument is a replica id (see ``snapshot_info()['replicas']``).
        """
        engine = self.hacfs.engine
        if hasattr(engine, "shards"):
            shard = replica.split(":", 1)[0]
            self._cluster(shard).set_replica_lag(
                shard, publishes, replica_id=replica if ":" in replica else None)
        else:
            engine.set_replica_lag(replica, publishes)
        return replica

    def admit_on(self) -> dict:
        self.hacfs.admission.enable()
        return self.hacfs.admission.status()

    def admit_off(self) -> dict:
        self.hacfs.admission.disable()
        return self.hacfs.admission.status()

    def chaos_run(self, seed: int = 0, k: int = 0, steps: int = 40,
                  windows: int = 2, admission: bool = True) -> dict:
        """Run one seeded chaos soak in a *throwaway* twin world (this
        shell's file system is untouched) and return its report; the
        report is kept for ``chaos_status``."""
        # lazy: repro.chaos builds its worlds from this module (a cycle)
        from repro.chaos import ChaosRun

        run = ChaosRun(seed=seed, k=k, steps=steps, windows=windows,
                       admission=admission)
        run.run()
        self._last_chaos = run.report()
        return self._last_chaos

    def chaos_status(self) -> Optional[dict]:
        """The report of the last ``chaos_run`` in this session, if any."""
        return getattr(self, "_last_chaos", None)

    def hacstat(self, prefix: str = "") -> dict:
        """Snapshot of counters, histograms, and the span breakdown,
        optionally restricted to counter names starting with *prefix*."""
        snap = self.hacfs.obs.snapshot()
        if prefix:
            snap["counters"] = {k: v for k, v in snap["counters"].items()
                                if k.startswith(prefix)}
        return snap

    def trace_show(self, name: Optional[str] = None,
                   op_id: Optional[int] = None) -> List[dict]:
        return [s.to_obj() for s in
                self.hacfs.obs.trace.spans(name=name, op_id=op_id)]

    def trace_export(self, path: str) -> int:
        """Write the captured spans as JSONL to *path* in the view;
        returns the number of spans written."""
        trace = self.hacfs.obs.trace
        count = len(trace.spans())
        self.write(path, trace.export_jsonl())
        return count
