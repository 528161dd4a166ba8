"""Synthetic mail for the paper's running "fingerprint project" example.

The fingerprint semantic directory is supposed to gather project mail,
notes, source files, and articles scattered across the name space.  This
generator produces deterministic mailbox files with ``From:`` / ``To:`` /
``Subject:`` headers (which the engine's mail transducer understands)
and topic-tagged bodies, so the examples and integration tests have a
realistic mixed corpus.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

DEFAULT_PEOPLE = ("alice", "bob", "carol", "dave", "erin")
DEFAULT_TOPICS = ("fingerprint", "budget", "lunch", "deadline", "glimpse")

_BODY_WORDS = (
    "the results look promising and we should discuss them next week "
    "please review the attached notes before the meeting and send any "
    "comments about the design the implementation is mostly done but the "
    "tests still fail on large inputs"
).split()


class MailGenerator:
    """Deterministic mail messages with controllable topic mix."""

    def __init__(self, people: Sequence[str] = DEFAULT_PEOPLE,
                 topics: Sequence[str] = DEFAULT_TOPICS, seed: int = 11):
        self.people = list(people)
        self.topics = list(topics)
        self.seed = seed

    def message(self, index: int) -> Tuple[Dict[str, str], str]:
        """Headers and body of message *index* (stable)."""
        rng = random.Random(self.seed * 65537 + index)
        sender = rng.choice(self.people)
        recipient = rng.choice([p for p in self.people if p != sender])
        topic = self.topics[index % len(self.topics)]
        headers = {
            "From": sender,
            "To": recipient,
            "Subject": f"{topic} update {index}",
            "Date": f"1999-0{1 + index % 9}-{1 + index % 27:02d}",
        }
        words = rng.choices(_BODY_WORDS, k=rng.randint(30, 80))
        insert_at = rng.randrange(len(words))
        words[insert_at:insert_at] = [topic, "project"]
        body_lines = [" ".join(words[i:i + 10]) for i in range(0, len(words), 10)]
        return headers, "\n".join(body_lines)

    def render(self, index: int) -> str:
        headers, body = self.message(index)
        head = "\n".join(f"{k}: {v}" for k, v in headers.items())
        return f"{head}\n\n{body}\n"

    def populate(self, fs, root: str = "/mail", count: int = 20) -> List[str]:
        """Write *count* messages under *root*; returns the paths."""
        root = root.rstrip("/") or "/mail"
        fs.makedirs(root)
        paths = []
        for index in range(count):
            path = f"{root}/msg{index:04d}.txt"
            fs.write_file(path, self.render(index).encode("utf-8"))
            paths.append(path)
        return paths

    def topic_of(self, index: int) -> str:
        return self.topics[index % len(self.topics)]
