"""Word extraction for indexing and scanning.

Glimpse indexes lower-cased alphanumeric words.  We follow suit: a token is
a maximal run of ASCII letters/digits (plus ``_``), lower-cased.  Tokens
shorter than ``min_length`` are skipped at *index* time but still visible to
the scanner, so quoted phrases like ``"fingerprint of a"`` verify correctly.

The tokenizer is deliberately stateless module-level code — it is on the hot
path of both indexing and agrep verification.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Set

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")

#: words too common to be worth block postings (tiny, Glimpse-flavoured list)
DEFAULT_STOPWORDS: Set[str] = {
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in",
    "is", "it", "of", "on", "or", "that", "the", "to", "was", "with",
}


def tokenize(text: str) -> List[str]:
    """All tokens of *text*, in order, lower-cased.

    >>> tokenize("Fingerprint-matching, FBI_v2!")
    ['fingerprint', 'matching', 'fbi_v2']
    """
    return [m.group(0).lower() for m in _WORD_RE.finditer(text)]


def iter_tokens(text: str) -> Iterator[str]:
    """Streaming variant of :func:`tokenize`."""
    for m in _WORD_RE.finditer(text):
        yield m.group(0).lower()


def indexable(word: str, min_length: int = 2,
              stopwords: Set[str] = DEFAULT_STOPWORDS) -> bool:
    """Does the index hold *word*?  A stopword or a word shorter than
    *min_length* is seen by the scanner only."""
    return len(word) >= min_length and word not in stopwords


def index_terms(text: str, min_length: int = 2,
                stopwords: Set[str] = DEFAULT_STOPWORDS) -> Set[str]:
    """The distinct terms a document contributes to the index."""
    return {tok for tok in {t.lower() for t in _WORD_RE.findall(text)}
            if indexable(tok, min_length, stopwords)}


def tokenize_lines(text: str) -> List[List[str]]:
    """Per-line token lists, used by match-line extraction (``sact``)."""
    return [tokenize(line) for line in text.splitlines()]


def normalize_word(word: str) -> str:
    """Canonical form of a single query term."""
    tokens = tokenize(word)
    if len(tokens) != 1:
        raise ValueError(f"not a single word: {word!r}")
    return tokens[0]
