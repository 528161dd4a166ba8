"""Compact bit-set over non-negative integer ids.

The paper stores the result of each semantic directory's query as a bitmap of
``N/8`` bytes, where ``N`` is the number of indexed files ("we use bitmaps
since it is simple to implement and has speed advantages for Glimpse").  This
module is that representation: a growable bit vector with the set algebra the
scope-consistency algorithm needs (and/or/difference), plus population count
and iteration for materialising symbolic links.

The backing store is a single Python big integer: CPython's arbitrary-
precision ints do word-at-a-time boolean algebra in C, so ``|``/``&``/``&~``
over whole result sets are one interpreter operation instead of a Python
loop over bytes, and popcount is ``int.bit_count()``.  The serialized form
is unchanged from the byte-array implementation this replaced: little-endian
``N/8`` bytes, bit ``i % 8`` of byte ``i // 8``, trailing zero bytes trimmed
so that equality and ``nbytes`` reflect the logical set, not the allocation
history.

Turning a set back into ids has two kernels, chosen per set from its own
``bit_count()`` and ``bit_length()``: peeling the lowest set bit off a copy
of the integer (k steps that each touch the whole integer — cheapest for a
handful of members), or rendering it once as 0/1 selectors for
``itertools.compress`` — one C-level pass over the span however dense.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

#: ``bin()`` digits -> ``compress`` selectors (``b"0"`` alone is truthy)
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


class Bitmap:
    """A growable set of non-negative integers stored one bit per id.

    >>> b = Bitmap([1, 9])
    >>> 9 in b and 1 in b
    True
    >>> sorted(b | Bitmap([2]))
    [1, 2, 9]
    """

    __slots__ = ("_n",)

    def __init__(self, ids: Iterable[int] = ()):
        # bulk kernel: stage bits in a bytearray, then one int.from_bytes —
        # per-id ``n |= 1 << i`` would copy the whole integer every time
        buf = bytearray()
        for i in ids:
            if i < 0:
                raise ValueError(f"bitmap ids must be non-negative, got {i}")
            byte = i >> 3
            if byte >= len(buf):
                buf.extend(b"\x00" * (byte + 1 - len(buf)))
            buf[byte] |= 1 << (i & 7)
        self._n = int.from_bytes(buf, "little")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitmap":
        """Rebuild a bitmap from :meth:`to_bytes` output."""
        bm = cls()
        bm._n = int.from_bytes(data, "little")
        return bm

    def to_bytes(self) -> bytes:
        """Serialise to the paper's N/8-byte on-disk form."""
        return self._n.to_bytes((self._n.bit_length() + 7) // 8, "little")

    def copy(self) -> "Bitmap":
        bm = Bitmap()
        bm._n = self._n
        return bm

    # -- element operations --------------------------------------------------

    def add(self, i: int) -> None:
        if i < 0:
            raise ValueError(f"bitmap ids must be non-negative, got {i}")
        self._n |= 1 << i

    def discard(self, i: int) -> None:
        if i < 0:
            return
        self._n &= ~(1 << i)

    def __contains__(self, i: int) -> bool:
        return i >= 0 and (self._n >> i) & 1 == 1

    # -- set algebra ---------------------------------------------------------

    def __or__(self, other: "Bitmap") -> "Bitmap":
        result = Bitmap()
        result._n = self._n | other._n
        return result

    def __and__(self, other: "Bitmap") -> "Bitmap":
        result = Bitmap()
        result._n = self._n & other._n
        return result

    def __sub__(self, other: "Bitmap") -> "Bitmap":
        result = Bitmap()
        result._n = self._n & ~other._n
        return result

    def __ior__(self, other: "Bitmap") -> "Bitmap":
        self._n |= other._n
        return self

    def __iand__(self, other: "Bitmap") -> "Bitmap":
        self._n &= other._n
        return self

    def __isub__(self, other: "Bitmap") -> "Bitmap":
        self._n &= ~other._n
        return self

    def intersects(self, other: "Bitmap") -> bool:
        return (self._n & other._n) != 0

    def issubset(self, other: "Bitmap") -> bool:
        return (self._n & ~other._n) == 0

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return self._n.bit_count()

    def __bool__(self) -> bool:
        return self._n != 0

    def _is_sparse(self) -> bool:
        """Whether peeling beats the linear pass: a peel step costs about
        eight ``compress`` steps plus one per 256 bits it copies, the
        linear pass one step per bit of the span."""
        span = self._n.bit_length()
        return self._n.bit_count() * (8 + (span >> 8)) <= span

    def _peel(self) -> Iterator[int]:
        n = self._n
        while n:
            lsb = n & -n
            yield lsb.bit_length() - 1
            n ^= lsb

    def _selectors(self) -> bytes:
        return bin(self._n)[:1:-1].encode().translate(_SELECTORS)

    def __iter__(self) -> Iterator[int]:
        if self._is_sparse():
            return self._peel()
        return compress(range(self._n.bit_length()), self._selectors())

    def select(self, column: Sequence) -> list:
        """``[column[i] for i in self]``, gathered in bulk; raises
        :class:`IndexError` when *column* stops short of the largest id."""
        if len(column) < self._n.bit_length():
            raise IndexError(f"no column entry for id {self.max_id()}")
        if self._is_sparse():
            return [column[i] for i in self._peel()]
        return list(compress(column, self._selectors()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._n == other._n

    def __hash__(self):
        return hash(self._n)

    def __repr__(self) -> str:
        members = list(self)
        if len(members) > 12:
            head = ", ".join(str(m) for m in members[:12])
            return f"Bitmap({{{head}, ... {len(members)} ids}})"
        return f"Bitmap({{{', '.join(str(m) for m in members)}}})"

    @property
    def nbytes(self) -> int:
        """Bytes the on-disk form occupies — the paper's N/8 figure."""
        return (self._n.bit_length() + 7) // 8

    def max_id(self) -> int:
        """Largest member, or -1 when empty."""
        return self._n.bit_length() - 1
