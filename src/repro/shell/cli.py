"""Interactive REPL for exploring a HAC file system (the ``hac`` script).

Starts with a small demo name space (notes, mail, and a mountable demo
"digital library") and accepts the shell's command set::

    hac> smkdir fingerprint fingerprint
    hac> ls -l fingerprint

``verb [sub] args…`` calls :class:`~repro.shell.session.HacShell`'s
``<verb>_<sub>`` if it has one, else ``<verb>``, binding the arguments by
the method's signature; programmatic users drive the shell directly.
"""

from __future__ import annotations

import inspect
import json
import shlex
import sys
import typing
from typing import List, Optional

from repro.shell.formatting import render_metrics
from repro.shell.session import HacShell
from repro.remote.searchsvc import SimulatedSearchService
from repro.workloads.mailgen import MailGenerator

HELP = """\
commands:
  ls [-l] [path]        list a directory (with -l, show link classifications)
  cd PATH | pwd         navigate
  mkdir/rmdir PATH | stat PATH  directories / a file's attributes
  cat PATH              show a file (remote links fetch over 'the network')
  touch PATH | cp SRC DST  create an empty file / copy a file
  write PATH TEXT...    write a file
  mv SRC DST | rm PATH  move / remove (removing a query link prohibits it)
  ln TARGET LINK        symbolic link (permanent inside semantic dirs)
  smkdir PATH QUERY...  create a semantic directory
  squery [PATH] | schquery PATH QUERY..  show / change a directory's query
  sscope [PATH]         scope composition (local/remote/degraded breakdown)
  sls [PATH]            classified link listing
  sprohibited [PATH] | spermanent LINK  prohibited targets / pin a link
  sact LINK             show the matching lines behind a link
  ssync [--async] [PATH]  reindex + re-evaluate dependents (--async queues it)
  sched [status|mode M|drain|publish]  maintenance scheduler (modes: eager,
                        batched; publish forces a snapshot publish, no drain)
  sched lag ID N        lag replica ID (cluster: shard0 or shard0:r1) N publishes
  smount PATH demo      mount the demo digital library semantically
  sunmount PATH [NS] | unmount PATH  remove a semantic / syntactic mount
  smkcluster [K]        shard the content index across K engines (default 3)
  shards [kill|restore S]  per-shard docs, health, RPC traffic; partition
                        shard S off / heal it again
  admit [status|on|off] breaker-driven admission gate (downgrade strong
                        reads, shed writes past the queue-depth bound)
  tenant create NAME [inodes=N] [bytes=N] [docs=N] [weight=N]
                        carve a tenant namespace with optional budgets
  tenant list           per-tenant root, usage, quota, and pending work
  tenant use [NAME|-]   work inside a tenant: every path verb is rebased and
                        charged, mounts are refused (- = back to the host)
  tenant quota NAME [inodes=N] [bytes=N] [docs=N] [weight=N]
                        replace a tenant's budgets / fair-share weight
  glimpse QUERY...      ad-hoc search of the view (a tenant's own subtree)
  swatch/sunwatch PATH  automatic index maintenance for a subtree
  fsck [--repair]       audit HAC's internal structures
  hacstat [PREFIX]      counters, histograms, and span breakdown
  trace on|off|clear | trace show [NAME]  toggle span capture / dump spans
  trace export PATH     write spans as JSONL into the file system
  help | quit
"""


def build_demo_shell() -> HacShell:
    """A small populated name space so the REPL is interesting."""
    shell = HacShell()
    hacfs = shell.hacfs
    hacfs.makedirs("/notes")
    hacfs.write_file("/notes/fp-design.txt",
                     b"fingerprint matcher design notes: minutiae, ridges\n")
    hacfs.write_file("/notes/todo.txt", b"buy milk, call bob about the budget\n")
    MailGenerator().populate(hacfs, "/mail", count=10)
    hacfs.mkdir("/library")
    hacfs.ssync("/")
    return shell


_DEMO_LIBRARY_DOCS = {
    "fp-survey": "a survey of fingerprint recognition techniques",
    "nn-paper": "neural networks and their discontents",
    "glimpse-paper": "glimpse a tool to search through entire file systems",
}

#: what a bare group verb means
_DEFAULT_SUB = {"sched": "status", "admit": "status", "tenant": "list",
                "trace": "show"}
#: REPL flags, and the boolean parameter each one sets
_FLAGS = {"-l": "long", "--async": "asynchronous", "--repair": "repair"}
#: verbs whose last required parameter takes the rest of the line, and
#: what the joined text becomes
_FREE_TEXT = {"write": "{}\n".format, "smkdir": str, "glimpse": str,
              "schquery": lambda text: text or None}


def _rows(template: str, empty: str):
    return lambda rows, _args: "\n".join(
        template.format(*row) for row in rows) if rows else empty


def _tenant_rows(described: dict) -> str:
    return "\n".join(
        f"{name}  root={row['root']}  inodes={row['usage']['inodes']}  "
        f"bytes={row['usage']['bytes']}  pending={row['pending']}  "
        f"quota={row['quota']}"
        for name, row in sorted(described.items()))


def _render(result, _args) -> str:
    if result is None:
        return ""
    if isinstance(result, list):
        return "\n".join(map(str, result))
    if isinstance(result, dict):
        return "\n".join(f"{k}: {v}" for k, v in result.items())
    return str(result)


#: how a method's result prints, where :func:`_render` would not: a format
#: string over ``result`` and the call's arguments, or a function of both
_RENDER = {
    "mkdir": "", "ln": "", "write": "",
    "squery": lambda query, _args: str(query),
    "smkdir": "semantic directory {result}",
    "sls": _rows("{}  [{}]  {}", ""),
    "ssync": lambda plan, _args: repr(plan) if plan is not None
    else "sync queued behind the next drain",
    "swatch": "watching {result}",
    "sunwatch": lambda was, _args: "unwatched" if was else "was not watched",
    "fsck": lambda findings, _args: "\n".join(findings) or "clean",
    "hacstat": lambda snap, _args: render_metrics(snap),
    "shards": _rows("{}  docs={}  {}  calls={}",
                    "(engine is not a cluster — try 'smkcluster')"),
    "shards_kill": "killed {result}", "shards_restore": "restored {result}",
    "sched_status": lambda status, _args: "\n".join(
        f"{k}: {v:g}" if isinstance(v, float) else f"{k}: {v}"
        for k, v in status.items()),
    "sched_mode": "scheduler mode: {mode}",
    "sched_drain": "drained ({result} index ops)",
    "sched_publish": "published snapshot version {result}",
    "sched_lag": "lagged {result} by {publishes} publish(es)",
    "tenant_create": "tenant {name} at {result}",
    "tenant_list": lambda rows, _args: _tenant_rows(rows) if rows
    else "(no tenants — try 'tenant create NAME')",
    "tenant_use": "view: {result}",
    "tenant_quota": lambda row, args: _tenant_rows({args["name"]: row}),
    "trace_on": "tracing on", "trace_off": "tracing off",
    "trace_clear": "trace buffer cleared",
    "trace_show": lambda spans, _args: "\n".join(
        json.dumps(s, sort_keys=True) for s in spans)
    or "(no spans captured — try 'trace on')",
    "trace_export": lambda count, args: f"wrote {count} spans to "
    f"{args['self'].resolve_path(args['path'])}",
}


class _Reply(Exception):
    """A REPL answer that is not a command's result: usage, unknown verb."""


def lookup(shell: HacShell, argv: List[str]):
    """``(method name, its arguments)`` for one split command line."""
    verb, args = argv[0], argv[1:]
    known = [name for name, value in vars(type(shell)).items()
             if not name.startswith("_") and callable(value)]
    subs = [name[len(verb) + 1:] for name in known
            if name.startswith(verb + "_")]
    if args and args[0] in subs:
        return f"{verb}_{args[0]}", args[1:]
    if verb in known:
        return verb, args
    if subs and args:
        raise _Reply(f"unknown {verb} subcommand: {args[0]} "
                     f"({'|'.join(subs)})")
    if verb not in _DEFAULT_SUB:
        raise _Reply(f"unknown command: {verb} (try help)")
    return f"{verb}_{_DEFAULT_SUB[verb]}", args


def _bind(shell: HacShell, name: str, args: List[str]):
    """Bind text *args* by method *name*'s signature: a flag sets its
    boolean, ``KEY=N`` the int parameter ``KEY`` or ``max_KEY``, an int
    parameter converts, and surplus arguments are ignored."""
    sig = inspect.signature(getattr(type(shell), name), eval_str=True)
    params = list(sig.parameters)[1:]
    ints = {p for p, v in sig.parameters.items()
            if int in (v.annotation, *typing.get_args(v.annotation))}
    flags = {flag: param for flag, param in _FLAGS.items() if param in params}
    kwargs = {flags[arg]: True for arg in args if arg in flags}
    positional = []
    for arg in (a for a in args if a not in flags):
        key, eq, value = arg.partition("=")
        key = next((k for k in (key, "max_" + key) if k in ints), None)
        if eq and key:
            kwargs[key] = int(value)
        else:
            positional.append(arg)
    required = [p for p in params
                if sig.parameters[p].default is inspect.Parameter.empty]
    rest = len(required) - 1
    if name in _FREE_TEXT and len(positional) >= rest:
        positional[rest:] = [_FREE_TEXT[name](" ".join(positional[rest:]))]
    limit = min([params.index(k) for k in kwargs] + [len(params)])
    values = [int(a) if p in ints else a
              for p, a in zip(params, positional[:limit])]
    try:
        return sig.bind(shell, *values, **kwargs)
    except TypeError:
        raise _Reply(" ".join(["usage:", name.replace("_", " ")]
                              + [p.upper() for p in required])) from None


def _smount_demo(shell: HacShell, path: str = "demo", *_rest) -> str:
    path = "/library" if path == "demo" else path
    shell.smount(path, SimulatedSearchService(
        "demolib", documents=_DEMO_LIBRARY_DOCS))
    return f"mounted demo library at {path}"


def execute(shell: HacShell, line: str) -> Optional[str]:
    """Run one command line; returns output text (None to quit)."""
    try:
        argv = shlex.split(line)
    except ValueError as exc:
        return f"parse error: {exc}"
    if not argv:
        return ""
    if argv[0] in ("quit", "exit"):
        return None
    if argv[0] == "help":
        return HELP
    try:
        if argv[0] == "smount":
            return _smount_demo(shell, *argv[1:])
        name, args = lookup(shell, argv)
        bound = _bind(shell, name, args)
        result = getattr(type(shell), name)(*bound.args, **bound.kwargs)
        render = _RENDER.get(name, _render)
        if isinstance(render, str):
            return render.format(result=result, **bound.arguments)
        return render(result, bound.arguments)
    except _Reply as reply:
        return str(reply)
    except Exception as exc:  # the REPL must survive any command error
        return f"error: {exc}"


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``hac`` console script."""
    shell = build_demo_shell()
    print("HAC demo shell — 'help' for commands, 'quit' to leave.")
    while True:
        try:
            line = input(f"hac:{shell.pwd()}> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        out = execute(shell, line)
        if out is None:
            return 0
        if out:
            print(out)


if __name__ == "__main__":
    sys.exit(main())
