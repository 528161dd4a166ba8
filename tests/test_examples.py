"""Every runnable example under ``examples/`` exits cleanly."""

import pathlib
import runpy

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parent.parent
                   / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_as_main(script, capsys):
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    assert capsys.readouterr().out
