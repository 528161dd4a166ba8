"""The Prospero baseline: flexible filters, zero consistency guarantees."""

import pytest

from repro.errors import InvalidArgument
from repro.vfs.filesystem import FileSystem
from tests.baselines.prospero import (
    ProsperoFileSystem,
    grep_filter,
    suffix_filter,
)


@pytest.fixture
def prospero():
    fs = FileSystem()
    fs.makedirs("/docs")
    fs.write_file("/docs/a.txt", b"fingerprint study")
    fs.write_file("/docs/b.txt", b"image processing")
    fs.write_file("/docs/c.md", b"fingerprint markdown")
    return ProsperoFileSystem(fs)


class TestFilters:
    def test_plain_link_lists_target(self, prospero):
        prospero.add_link("all", "/docs")
        assert prospero.view("all") == ["/docs/a.txt", "/docs/b.txt",
                                        "/docs/c.md"]

    def test_grep_filter(self, prospero):
        prospero.add_link("fp", "/docs",
                          [grep_filter("fingerprint", prospero.physical)])
        assert prospero.run_filter("fp") == ["/docs/a.txt", "/docs/c.md"]

    def test_filter_composition(self, prospero):
        prospero.add_link("fp-txt", "/docs",
                          [grep_filter("fingerprint", prospero.physical)])
        prospero.compose("fp-txt", suffix_filter(".txt"))
        assert prospero.run_filter("fp-txt") == ["/docs/a.txt"]

    def test_arbitrary_callable_is_a_filter(self, prospero):
        prospero.add_link("weird", "/docs",
                          [lambda _d, entries: entries[::-1][:1]])
        assert prospero.run_filter("weird") == ["/docs/c.md"]

    def test_link_validation(self, prospero):
        with pytest.raises(InvalidArgument):
            prospero.add_link("bad", "/docs/a.txt")
        prospero.add_link("x", "/docs")
        with pytest.raises(InvalidArgument):
            prospero.add_link("x", "/docs")
        with pytest.raises(InvalidArgument):
            prospero.view("ghost")


class TestNoConsistencyGuarantees:
    """§5: 'Prospero does not offer consistency guarantees of any kind.'"""

    def test_view_before_first_run_is_an_error(self, prospero):
        prospero.add_link("fp", "/docs",
                          [grep_filter("fingerprint", prospero.physical)])
        with pytest.raises(InvalidArgument):
            prospero.view("fp")

    def test_view_goes_stale_on_data_change(self, prospero):
        prospero.add_link("fp", "/docs",
                          [grep_filter("fingerprint", prospero.physical)])
        prospero.run_filter("fp")
        prospero.physical.write_file("/docs/d.txt", b"new fingerprint file")
        # the view is silently stale...
        assert "/docs/d.txt" not in prospero.view("fp")
        # ...until the USER re-runs the filter
        assert "/docs/d.txt" in prospero.run_filter("fp")

    def test_view_goes_stale_on_filter_change(self, prospero):
        prospero.add_link("fp", "/docs",
                          [grep_filter("fingerprint", prospero.physical)])
        prospero.run_filter("fp")
        prospero.compose("fp", suffix_filter(".md"))
        assert prospero.view("fp") == ["/docs/a.txt", "/docs/c.md"]  # stale
        assert prospero.run_filter("fp") == ["/docs/c.md"]

    def test_contrast_hac_keeps_results_consistent(self, populated):
        """The §5 punchline: the same curation event that Prospero leaves
        stale triggers HAC's automatic cascade."""
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/fp/mail", "alice")
        populated.unlink("/fp/msg1.txt")
        # no user-driven re-run anywhere — the dependent updated itself
        assert populated.listdir("/fp/mail") == []
