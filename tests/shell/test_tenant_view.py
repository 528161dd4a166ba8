"""``tenant use``: the session's view becomes a tenant facade, so every
path verb is rebased under the tenant root and none reaches the host."""

import pytest

from repro.errors import InvalidArgument
from repro.remote.searchsvc import SimulatedSearchService
from repro.shell.cli import execute
from repro.shell.session import HacShell
from repro.vfs.filesystem import FileSystem

HOST_TEXT = b"fingerprint notes of the host\n"
ACME_TEXT = b"fingerprint notes of acme\n"


@pytest.fixture
def shell():
    shell = HacShell()
    hac = shell.hacfs
    hac.makedirs("/notes")
    hac.write_file("/notes/a.txt", HOST_TEXT)
    acme = hac.tenants.create("acme")
    acme.makedirs("/notes")
    acme.write_file("/notes/a.txt", ACME_TEXT)
    hac.ssync("/")
    shell.tenant_use("acme")
    return shell


def host_untouched(shell):
    hac = shell.hacfs
    return hac.listdir("/notes") == ["a.txt"] and \
        hac.read_file("/notes/a.txt") == HOST_TEXT


def test_every_glimpse_hit_reads_as_the_tenants_file(shell):
    hits = execute(shell, "glimpse fingerprint").splitlines()
    assert hits == ["/notes/a.txt"]
    for path in hits:
        assert execute(shell, f"cat {path}") == ACME_TEXT.decode()


def test_ls_lists_the_tenant_root(shell):
    assert execute(shell, "ls /") == "notes"
    assert execute(shell, "ls") == "notes"


def test_smkdir_links_only_the_tenants_files(shell):
    assert execute(shell, "smkdir /q fingerprint") == "semantic directory /q"
    hac = shell.hacfs
    assert hac.listdir("/tenants/acme/q") == ["a.txt"]
    assert hac.readlink("/tenants/acme/q/a.txt") == "/tenants/acme/notes/a.txt"
    assert not hac.exists("/q")
    assert execute(shell, "sls /q").startswith("a.txt  [transient]")


def test_cwd_is_tenant_relative_and_clamped_at_its_root(shell):
    assert execute(shell, "cd notes") == "/notes"
    assert execute(shell, "cat a.txt") == ACME_TEXT.decode()
    assert execute(shell, "cd ../..") == "/"
    assert execute(shell, "cd ..") == "/"
    assert execute(shell, "cat ../../notes/a.txt") == ACME_TEXT.decode()


@pytest.mark.parametrize("line", [
    "write /notes/a.txt overwritten",
    "write ../../notes/a.txt overwritten",
    "cp /notes/a.txt /notes/b.txt",
    "touch /notes/c.txt",
    "ln /notes/a.txt /notes/l.txt",
    "mkdir /notes/sub",
    "mv /notes/a.txt /notes/moved.txt",
    "rm /notes/a.txt",
    "rm ../notes/a.txt",
    "stat /notes/a.txt",
    "swatch /notes",
    "ssync /notes",
    "schquery /notes fingerprint",
    "spermanent /notes/a.txt",
])
def test_no_path_verb_reaches_the_host(shell, line):
    execute(shell, line)
    assert host_untouched(shell)


def test_mounts_are_refused(shell):
    for line in ("smount /notes", "sunmount /notes", "unmount /notes"):
        assert "not available in a tenant view" in execute(shell, line)
    with pytest.raises(InvalidArgument, match="not available in a tenant"):
        shell.mount("/notes", FileSystem())
    with pytest.raises(InvalidArgument, match="not available in a tenant"):
        shell.smount("/notes", SimulatedSearchService("lib", documents={}))


def test_operator_verbs_stay_on_the_host(shell):
    assert "acme  root=/tenants/acme" in execute(shell, "tenant list")
    assert execute(shell, "fsck") == "clean"


def test_tenant_use_dash_restores_the_host_view(shell):
    assert execute(shell, "tenant use acme") == "view: acme"
    execute(shell, "cd /notes")
    assert execute(shell, "tenant use -") == "view: host"
    assert execute(shell, "pwd") == "/"
    assert execute(shell, "cat /notes/a.txt") == HOST_TEXT.decode()
    assert execute(shell, "ls /") == "notes\ntenants"
