"""The interactive REPL's command dispatch."""

import pytest

from repro.shell.cli import build_demo_shell, execute


@pytest.fixture(scope="module")
def shell():
    return build_demo_shell()


class TestDispatch:
    def test_help(self, shell):
        assert "smkdir" in execute(shell, "help")

    def test_empty_line(self, shell):
        assert execute(shell, "") == ""

    def test_unknown_command(self, shell):
        assert "unknown command" in execute(shell, "frobnicate")

    def test_parse_error_reported(self, shell):
        assert "parse error" in execute(shell, 'cat "unterminated')

    def test_ls_and_cat(self, shell):
        assert "notes" in execute(shell, "ls")
        assert "fingerprint" in execute(shell, "cat /notes/fp-design.txt")

    def test_cd_pwd(self, shell):
        assert execute(shell, "cd /notes") == "/notes"
        assert execute(shell, "pwd") == "/notes"
        execute(shell, "cd /")

    def test_semantic_flow(self, shell):
        out = execute(shell, "smkdir /fpdemo fingerprint")
        assert "semantic directory /fpdemo" in out
        assert execute(shell, "squery /fpdemo") == "fingerprint"
        listing = execute(shell, "sls /fpdemo")
        assert "[transient]" in listing
        sact = execute(shell, "sact /fpdemo/fp-design.txt")
        assert "fingerprint" in sact

    def test_write_mv_rm(self, shell):
        execute(shell, "mkdir /scratch")
        execute(shell, "write /scratch/a.txt hello there")
        assert "hello there" in execute(shell, "cat /scratch/a.txt")
        execute(shell, "mv /scratch/a.txt /scratch/b.txt")
        execute(shell, "rm /scratch/b.txt")
        assert execute(shell, "ls /scratch") == ""

    def test_smount_and_glimpse(self, shell):
        out = execute(shell, "smount /library")
        assert "mounted demo library" in out
        execute(shell, "smkdir /glimpsed glimpse")
        # the demo mail corpus has glimpse-topic messages
        assert "/mail/" in execute(shell, "glimpse glimpse")

    def test_ssync(self, shell):
        assert "ReindexPlan" in execute(shell, "ssync /")

    def test_errors_survive(self, shell):
        assert "error:" in execute(shell, "cat /does/not/exist")
        assert "error:" in execute(shell, "rmdir /notes")  # not empty

    def test_watch_commands(self, shell):
        assert "watching /mail" in execute(shell, "swatch /mail")
        execute(shell, "smkdir /fresh fingerprint")
        execute(shell, "write /mail/live.txt breaking fingerprint news")
        assert "live.txt" in execute(shell, "ls /fresh")
        assert execute(shell, "sunwatch /mail") == "unwatched"
        assert execute(shell, "sunwatch /mail") == "was not watched"

    def test_fsck_command(self, shell):
        assert execute(shell, "fsck") == "clean"
        shell.hacfs.meta.create(31337, None, "x")      # plant an orphan record
        assert "orphan-state" in execute(shell, "fsck")
        assert execute(shell, "fsck --repair") != "clean"  # reports as it fixes
        assert execute(shell, "fsck") == "clean"

    def test_quit(self, shell):
        assert execute(shell, "quit") is None


class TestObservabilityCommands:
    @pytest.fixture()
    def shell(self):
        # fresh world per test: these commands mutate trace state
        return build_demo_shell()

    def test_hacstat_counters_and_prefix_filter(self, shell):
        out = execute(shell, "hacstat")
        assert "counter" in out and "vfs." in out
        filtered = execute(shell, "hacstat engine")
        assert "engine." in filtered and "vfs." not in filtered

    def test_trace_lifecycle(self, shell):
        assert "try 'trace on'" in execute(shell, "trace show")
        assert execute(shell, "trace on") == "tracing on"
        execute(shell, "mkdir /traced")
        shown = execute(shell, "trace show hac.mkdir")
        assert '"name": "hac.mkdir"' in shown
        assert execute(shell, "trace off") == "tracing off"
        assert execute(shell, "trace clear") == "trace buffer cleared"
        assert "try 'trace on'" in execute(shell, "trace show")

    def test_trace_export_writes_jsonl(self, shell):
        execute(shell, "trace on")
        execute(shell, "mkdir /t")
        out = execute(shell, "trace export /trace.jsonl")
        assert "spans" in out
        dump = execute(shell, "cat /trace.jsonl")
        assert '"name": "vfs.namei"' in dump

    def test_trace_usage_errors(self, shell):
        # bare `trace` defaults to show
        assert "try 'trace on'" in execute(shell, "trace")
        assert "unknown trace subcommand" in execute(shell, "trace bogus")
        assert "usage:" in execute(shell, "trace export")


class TestSchedulerCommands:
    @pytest.fixture()
    def shell(self):
        # fresh world per test: these commands mutate scheduler state
        return build_demo_shell()

    def test_status_renders_counters(self, shell):
        out = execute(shell, "sched status")
        assert "mode: eager" in out
        assert "pending: 0" in out
        # counters render as integers, not "0.0"
        assert "events: 0" in out and "0.0" not in out

    def test_mode_switch_and_drain(self, shell):
        assert execute(shell, "sched mode batched") == \
            "scheduler mode: batched"
        execute(shell, "swatch /mail")
        execute(shell, "write /mail/d.txt fingerprint draft one")
        execute(shell, "write /mail/d.txt fingerprint draft two")
        assert "pending: 1" in execute(shell, "sched status")
        assert execute(shell, "sched drain") == "drained (1 index ops)"
        assert "pending: 0" in execute(shell, "sched status")

    def test_usage_errors(self, shell):
        assert "usage: sched mode" in execute(shell, "sched mode")
        assert "unknown sched subcommand" in execute(shell, "sched bogus")

    def test_ssync_async_queues_behind_the_drain(self, shell):
        execute(shell, "sched mode batched")
        assert execute(shell, "ssync --async") == \
            "sync queued behind the next drain"
        assert "pending_syncs: 1" in execute(shell, "sched status")
        assert "index ops" in execute(shell, "sched drain")
        assert "pending_syncs: 0" in execute(shell, "sched status")

    def test_ssync_async_in_eager_mode_runs_synchronously(self, shell):
        assert "ReindexPlan" in execute(shell, "ssync --async /")
