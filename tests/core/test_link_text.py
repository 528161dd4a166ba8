"""A user's link is read where it lives (docs/SEMANTICS.md §2): a link
added to a semantic directory is permanent whatever its text spells — a
path relative to the link's directory, a chain through another link, or a
path through a link to a directory — because the text is resolved from
the link's own directory, as a read through the link would resolve it.
So the link survives a reopen, follows a rename of its file, and its
``unlink`` records a prohibition."""

import pytest

from repro.core.hacfs import HacFileSystem

#: kind → (file the link names, the link's text in /q)
TEXTS = {
    "relative": ("/docs/b.txt", "../docs/b.txt"),
    "chained": ("/docs/c.txt", "/links/c"),
    "through_a_directory_link": ("/docs/d.txt", "/dlink/d.txt"),
}


@pytest.fixture
def world():
    hac = HacFileSystem()
    hac.mkdir("/docs")
    for path, _text in TEXTS.values():
        hac.write_file(path, f"alpha {path}".encode())
    hac.mkdir("/links")
    hac.symlink("/docs/c.txt", "/links/c")
    hac.symlink("/docs", "/dlink")
    hac.ssync("/")
    # a query none of the files matches: /q holds only the user's links
    hac.smkdir("/q", "beta")
    return hac


def link(hac, kind):
    path, text = TEXTS[kind]
    name = f"/q/{kind}"
    hac.symlink(text, name)
    return name, path


@pytest.mark.parametrize("kind", sorted(TEXTS))
def test_the_link_is_permanent_across_a_reopen(world, kind):
    name, path = link(world, kind)
    assert world.classify(name) == "permanent"
    world.save_index()
    hac = HacFileSystem.restore(world.fs)
    assert hac.classify(name) == "permanent"
    assert hac.read_file(name) == f"alpha {path}".encode()
    assert [f for f in hac.fsck() if f.severity != "info"] == []


@pytest.mark.parametrize("kind", sorted(TEXTS))
def test_the_link_follows_a_rename_of_its_file(world, kind):
    name, path = link(world, kind)
    world.rename(path, path + ".moved")
    assert world.classify(name) == "permanent"
    assert world.read_file(name) == f"alpha {path}".encode()
    hac = HacFileSystem.restore(world.fs)
    assert hac.classify(name) == "permanent"
    assert hac.read_file(name) == f"alpha {path}".encode()


@pytest.mark.parametrize("kind", sorted(TEXTS))
def test_unlinking_the_link_prohibits_its_file(world, kind):
    name, path = link(world, kind)
    world.unlink(name)
    assert not world.exists(name, follow=False)
    assert len(world.prohibited("/q")) == 1
    world.set_query("/q", "alpha")
    # the file matches now, but is prohibited in /q
    assert all(world.readlink(f"/q/{n}") != path for n in world.listdir("/q"))
    hac = HacFileSystem.restore(world.fs)
    assert len(hac.prohibited("/q")) == 1
    assert hac.unprohibit("/q", path)
