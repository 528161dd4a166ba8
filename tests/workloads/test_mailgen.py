"""The synthetic mail generator."""

from repro.core.hacfs import HacFileSystem
from repro.workloads.mailgen import MailGenerator


class TestMailGenerator:
    def test_deterministic(self):
        a, b = MailGenerator(seed=3), MailGenerator(seed=3)
        assert a.render(7) == b.render(7)

    def test_headers_present(self):
        headers, body = MailGenerator().message(0)
        assert set(headers) == {"From", "To", "Subject", "Date"}
        assert headers["From"] != headers["To"]
        assert body

    def test_topic_rotation(self):
        gen = MailGenerator(topics=("a", "b"))
        assert gen.topic_of(0) == "a" and gen.topic_of(1) == "b"
        assert gen.topic_of(0) in gen.message(0)[0]["Subject"]

    def test_topic_word_in_body(self):
        gen = MailGenerator()
        for i in range(5):
            _h, body = gen.message(i)
            assert gen.topic_of(i) in body.split()

    def test_populate(self):
        hac = HacFileSystem()
        paths = MailGenerator().populate(hac, "/mail", count=6)
        assert len(paths) == 6
        assert hac.read_file(paths[0]).startswith(b"From: ")
