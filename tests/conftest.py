"""Shared fixtures for the HAC reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.hacfs import HacFileSystem
from repro.remote.rpc import RpcTransport
from repro.remote.searchsvc import SimulatedSearchService
from repro.vfs.filesystem import FileSystem


@pytest.fixture
def fs():
    """A fresh plain file system."""
    return FileSystem()


@pytest.fixture
def backend():
    """The search backend the HAC fixtures are built on (the default);
    parametrize ``backend`` to build them on another."""
    return None


@pytest.fixture
def hacfs(backend):
    """A fresh empty HAC file system."""
    return HacFileSystem(backend=backend)


@pytest.fixture
def populated(hacfs):
    """A small populated HAC name space, already indexed.

    Layout::

        /notes/fp-design.txt      fingerprint content
        /notes/recipe.txt         cooking content
        /mail/msg1.txt            fingerprint mail from alice
        /mail/msg2.txt            lunch mail
        /src/match.c              fingerprint source code
    """
    hacfs.makedirs("/notes")
    hacfs.makedirs("/mail")
    hacfs.makedirs("/src")
    hacfs.write_file("/notes/fp-design.txt",
                     b"design notes for the fingerprint matcher\n"
                     b"minutiae extraction and ridge counting\n")
    hacfs.write_file("/notes/recipe.txt",
                     b"banana bread recipe with walnuts\n")
    hacfs.write_file("/mail/msg1.txt",
                     b"From: alice\nSubject: fingerprint sensor\n\n"
                     b"the fingerprint sensor prototype works\n")
    hacfs.write_file("/mail/msg2.txt",
                     b"From: bob\nSubject: lunch\n\nlunch at noon?\n")
    hacfs.write_file("/src/match.c",
                     b"/* fingerprint minutiae matcher */\n"
                     b"int match(int a) { return a; }\n")
    hacfs.clock.tick()
    hacfs.ssync("/")
    return hacfs


@pytest.fixture
def library(hacfs):
    """A simulated remote digital library sharing the hacfs clock."""
    return SimulatedSearchService(
        "digilib",
        documents={
            "fp-survey": "survey of fingerprint recognition methods",
            "fp-sensors": "capacitive fingerprint sensors in practice",
            "nn-paper": "convolutional networks for images",
        },
        titles={"fp-survey": "Survey", "fp-sensors": "Sensors",
                "nn-paper": "ConvNets"},
        transport=RpcTransport("digilib", clock=hacfs.clock),
    )
