"""A write through a symlink is a write to the file it reaches.

HAC's post-write bookkeeping (the §4 attribute cache and the eager watch)
must land on the written file's live path, whatever name the caller used:
a link to the file, a link beside it, or a path through a directory link.
"""

import pytest

ALPHA = b"alpha\n"


@pytest.fixture
def docs(hacfs):
    hacfs.makedirs("/docs")
    hacfs.write_file("/docs/a.txt", ALPHA)
    hacfs.symlink("/docs/a.txt", "/l")
    hacfs.symlink("/docs/a.txt", "/docs/l2")
    hacfs.symlink("/docs", "/d")
    return hacfs


@pytest.mark.parametrize("name", ["/l", "/docs/l2", "/d/a.txt"])
def test_write_refreshes_the_cached_attributes(docs, name):
    docs.stat("/docs/a.txt")                   # cache the live path
    data = b"twenty-seven bytes of text\n"
    docs.write_file(name, data)
    assert docs.stat("/docs/a.txt").size == len(data)
    assert docs.stat(name).size == len(data)
    assert docs.stat(name).type == docs.fs.stat(name).type


@pytest.mark.parametrize("name", ["/l", "/d/a.txt"])
def test_chmod_truncate_and_open_refresh_the_cached_attributes(docs, name):
    docs.stat("/docs/a.txt")
    docs.chmod(name, 0o600)
    assert docs.stat("/docs/a.txt").attrs.mode == 0o600
    docs.truncate(name, 2)
    assert docs.stat("/docs/a.txt").size == 2
    docs.close(docs.open(name, "w"))
    assert docs.stat("/docs/a.txt").size == 0


@pytest.mark.parametrize("name",
                         ["/docs/a.txt", "/l", "/docs/l2", "/d/a.txt"])
def test_watched_write_is_seen_through_any_name(docs, name):
    docs.watch("/docs")
    docs.smkdir("/q", "omega")
    assert list(docs.links("/q")) == []
    docs.write_file(name, b"omega\n")
    assert list(docs.links("/q")) == ["a.txt"]


def test_create_through_a_directory_link_is_watched(docs):
    docs.watch("/docs")
    docs.smkdir("/q", "name:new")
    docs.create("/d/new.txt")
    assert list(docs.links("/q")) == ["new.txt"]
