"""Transducers: attribute/value extraction from file contents.

SFS introduced transducers — programs that derive typed attribute/value
pairs from files so queries like ``author:/smith`` work.  HAC's paper keeps
its CBA interface mechanism-agnostic; this module hosts the SFS model
inside our engine: a transducer is any ``f(name, text) -> [(field, value)]``
callable, and the engine (a) indexes each pair under a ``field:value``
token and (b) re-derives pairs at verification time so ``from:alice`` terms
evaluate exactly.  *name* is the document's name — the last component of
its path, never its directory — so moving a directory changes no pair,
and the engine re-tokenises a document exactly when its name changes.

Two stock transducers cover the common cases; users compose their own with
:func:`combine`.
"""

from __future__ import annotations

import re
from typing import Callable, List, Sequence, Tuple

#: the transducer signature
Transducer = Callable[[str, str], List[Tuple[str, str]]]

_HEADER_RE = re.compile(r"^(\w+):\s*(.+)$")
_WORD_RE = re.compile(r"[A-Za-z0-9_]+")


def header_transducer(name: str, text: str) -> List[Tuple[str, str]]:
    """Mail-style headers: leading ``Field: value`` lines become pairs.

    Multi-word values contribute one pair per word, so ``Subject: budget
    meeting`` matches both ``subject:budget`` and ``subject:meeting``.
    """
    pairs: List[Tuple[str, str]] = []
    for line in text.splitlines():
        m = _HEADER_RE.match(line.strip())
        if m is None:
            break  # headers end at the first non-header line
        field = m.group(1).lower()
        for word in _WORD_RE.findall(m.group(2)):
            pairs.append((field, word.lower()))
    return pairs


def filename_transducer(name: str, text: str) -> List[Tuple[str, str]]:
    """``name:<word>`` and ``ext:<suffix>`` pairs from the name (a path
    is read by its last component)."""
    base = name.rsplit("/", 1)[-1].lower()
    pairs = [("name", word) for word in _WORD_RE.findall(base)]
    if "." in base:
        pairs.append(("ext", base.rsplit(".", 1)[-1]))
    return pairs


def combine(*transducers: Transducer) -> Transducer:
    """One transducer running several in sequence."""

    def run(name: str, text: str) -> List[Tuple[str, str]]:
        pairs: List[Tuple[str, str]] = []
        for t in transducers:
            pairs.extend(t(name, text))
        return pairs

    return run


#: what :class:`~repro.cba.engine.CBAEngine` uses unless told otherwise
default_transducer = combine(header_transducer, filename_transducer)
