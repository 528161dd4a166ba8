"""The ``hac`` entry point, and the REPL's reach: every text verb of
:class:`HacShell` and every verb ``HELP`` names dispatches."""

import re

import pytest

from repro.shell import cli
from repro.shell.session import HacShell


def drive(monkeypatch, lines):
    """Run ``main()`` over scripted input; EOF after the last line."""
    feed = iter(lines)

    def scripted(_prompt):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", scripted)
    return cli.main()


SESSION = ["help", "tenant create acme", "tenant use acme",
           "write /a.txt hello from acme", "cat /a.txt", "tenant use -",
           "ls /tenants/acme"]


@pytest.mark.parametrize("ending", [["quit"], []], ids=["quit", "eof"])
def test_main_round_trip(monkeypatch, capsys, ending):
    assert drive(monkeypatch, SESSION + ending + ["pwd"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("HAC demo shell")
    assert "tenant use [NAME|-]" in out               # help
    assert "tenant acme at /tenants/acme" in out
    assert "view: acme" in out
    assert "hello from acme\n\nview: host\na.txt\n" in out
    assert out.endswith("a.txt\n" if ending else "a.txt\n/\n\n")


def test_every_text_verb_dispatches():
    shell = cli.build_demo_shell()
    public = [name for name in dir(HacShell) if not name.startswith("_")
              and callable(getattr(HacShell, name))]
    for name in sorted(set(public) - {"mount", "resolve_path"}):
        out = cli.execute(shell, name.replace("_", " "))
        assert out is None or "unknown" not in out, (name, out)
        assert cli.lookup(shell, name.split("_", 1)) == (name, []), name


def test_every_help_verb_dispatches():
    verbs = set()
    for line in cli.HELP.splitlines()[1:]:
        if line.startswith("  ") and not line.startswith("   "):
            for usage in line.strip().split(" | "):
                verbs.update(re.match(r"[a-z/]+", usage)[0].split("/"))
    assert {"touch", "cp", "stat", "sprohibited", "spermanent", "sunmount",
            "unmount"} <= verbs
    for verb in sorted(verbs):
        out = cli.execute(cli.build_demo_shell(), verb)
        assert out is None or "unknown" not in out, (verb, out)
