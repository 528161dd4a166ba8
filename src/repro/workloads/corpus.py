"""Deterministic synthetic text corpus with controllable query selectivity.

The generator builds a pseudo-word vocabulary from a seed, samples word
frequencies Zipf-style (a few very common words, a long tail), and spreads
files across a directory fan-out.  *Topics* are the selectivity control:
``topics={"fingerprint": 0.05}`` plants the marker word ``fingerprint`` in
5 % of the files (several times each, so the word also survives tokenised
previews), which is how the Table 4 bench dials in queries that match few,
intermediate, or many files.

Everything is pure functions of the seed: the same configuration always
produces byte-identical files.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"


class CorpusConfig:
    """Shape of a generated corpus."""

    def __init__(self, n_files: int = 100, words_per_file: int = 200,
                 vocabulary: int = 2000, dirs: int = 10,
                 topics: Optional[Dict[str, float]] = None,
                 topic_repeats: int = 3, seed: int = 42):
        if n_files <= 0 or words_per_file <= 0 or vocabulary <= 0 or dirs <= 0:
            raise ValueError("corpus dimensions must be positive")
        self.n_files = n_files
        self.words_per_file = words_per_file
        self.vocabulary = vocabulary
        self.dirs = dirs
        #: topic word → fraction of files carrying it
        self.topics = dict(topics or {})
        self.topic_repeats = topic_repeats
        self.seed = seed


class CorpusGenerator:
    """Generates files (as strings) and writes them into a file system."""

    def __init__(self, config: Optional[CorpusConfig] = None):
        self.config = config if config is not None else CorpusConfig()
        self._rng = random.Random(self.config.seed)
        self._vocab = self._make_vocabulary()
        self._weights = self._zipf_weights(len(self._vocab))
        self._topic_sets: Dict[str, set] = {}

    # -- vocabulary -----------------------------------------------------------

    def _make_word(self, rng: random.Random) -> str:
        syllables = rng.randint(2, 4)
        return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                       for _ in range(syllables))

    def _make_vocabulary(self) -> List[str]:
        rng = random.Random(self.config.seed * 7919 + 1)
        vocab = set()
        while len(vocab) < self.config.vocabulary:
            vocab.add(self._make_word(rng))
        # topic markers must never collide with background vocabulary
        for topic in self.config.topics:
            vocab.discard(topic.lower())
        return sorted(vocab)

    @staticmethod
    def _zipf_weights(n: int, s: float = 1.1) -> List[float]:
        return [1.0 / (rank ** s) for rank in range(1, n + 1)]

    # -- documents ---------------------------------------------------------------

    def topic_files(self, topic: str) -> List[int]:
        """Indices of the files that carry *topic* (deterministic)."""
        fraction = self.config.topics[topic]
        count = max(1, round(fraction * self.config.n_files))
        # a str seed is hashed by SHA-512, not by the per-process salted
        # ``hash()``: the carriers are the same under every PYTHONHASHSEED
        rng = random.Random(f"{self.config.seed}:{topic}")
        return sorted(rng.sample(range(self.config.n_files), count))

    def document(self, index: int) -> str:
        """The text of file *index* (stable across calls)."""
        rng = random.Random(self.config.seed * 104729 + index)
        words = rng.choices(self._vocab, weights=self._weights,
                            k=self.config.words_per_file)
        for topic in sorted(self.config.topics):
            if index in self._topic_sets.setdefault(
                    topic, set(self.topic_files(topic))):
                for _ in range(self.config.topic_repeats):
                    pos = rng.randrange(len(words) + 1)
                    words.insert(pos, topic.lower())
        lines = []
        for start in range(0, len(words), 12):
            lines.append(" ".join(words[start:start + 12]))
        return "\n".join(lines) + "\n"

    def documents(self) -> Iterator[Tuple[str, str]]:
        """Yield ``(relative path, text)`` for the whole corpus."""
        for index in range(self.config.n_files):
            yield self.relative_path(index), self.document(index)

    def relative_path(self, index: int) -> str:
        d = index % self.config.dirs
        return f"dir{d:03d}/file{index:05d}.txt"

    # -- materialisation ------------------------------------------------------------

    def populate(self, fs, root: str = "/corpus") -> List[str]:
        """Write the corpus into *fs* (anything with makedirs/write_file);
        returns the absolute paths written."""
        root = root.rstrip("/") or "/corpus"
        fs.makedirs(root)
        made_dirs = set()
        paths: List[str] = []
        for rel, text in self.documents():
            dirname, _, fname = rel.rpartition("/")
            dirpath = f"{root}/{dirname}"
            if dirpath not in made_dirs:
                fs.makedirs(dirpath)
                made_dirs.add(dirpath)
            path = f"{dirpath}/{fname}"
            fs.write_file(path, text.encode("utf-8"))
            paths.append(path)
        return paths

    def as_dict(self, prefix: str = "") -> Dict[str, str]:
        """The corpus as ``{name: text}`` — feeds remote search services."""
        return {prefix + rel: text for rel, text in self.documents()}

    def total_bytes(self) -> int:
        return sum(len(text) for _rel, text in self.documents())
