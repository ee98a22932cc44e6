"""What the checkpoint digest is built from (the tree itself is in
:mod:`repro.hub.durability.checkpoint`): the leaf encoder for plain
rows, and the two digests a history part keeps so that a checkpoint
costs what changed — an additive multiset hash (Bellare & Micciancio,
*A New Paradigm for Collision-free Hashing: Incrementality at Reduced
Cost*, EUROCRYPT 1997) and a per-element SHA-256 chain.
"""

import hashlib
import marshal
from typing import Any, Iterable

_sha256 = hashlib.sha256
_MASK = (1 << 256) - 1
_SCALARS = frozenset({int, float, str, bytes, bool, type(None)})


def encode(rows: Any) -> bytes:
    """The bytes ``rows`` is hashed from: ``marshal`` version 2, which
    writes floats as binary and no back-references, so the bytes depend
    only on values and types.  A value ``marshal`` rejects (a custom
    device state, a scalar subclass) is encoded as its ``repr``; dicts
    keep their insertion order and a set is not a row value."""
    try:
        return marshal.dumps(rows, 2)
    except ValueError:
        return marshal.dumps(_plain(rows), 2)


def _plain(value: Any) -> Any:
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple or kind is list:
        return kind(_plain(item) for item in value)
    if kind is dict:
        return {_plain(key): _plain(item) for key, item in value.items()}
    return repr(value)


def part_digest(part: Any) -> bytes:
    """A part's 32-byte digest: history parts arrive as one already."""
    return part if type(part) is bytes else _sha256(encode(part)).digest()


class MultisetDigest:
    """Sum mod 2**256 of ``sha256(encode(rows))`` over keyed leaves:
    replacing one leaf costs one hash, whatever the number of leaves.
    A leaf should name its key, so the multiset determines the keys."""

    __slots__ = ("_leaves", "_sum")

    def __init__(self) -> None:
        self._leaves = {}
        self._sum = 0

    def __len__(self) -> int:
        return len(self._leaves)

    def put(self, key: Any, rows: Any) -> None:
        leaf = int.from_bytes(_sha256(encode(rows)).digest(), "big")
        self._sum = (self._sum + leaf - self._leaves.get(key, 0)) & _MASK
        self._leaves[key] = leaf

    def digest(self) -> bytes:
        return self._sum.to_bytes(32, "big")


class ChainDigest:
    """``head = sha256(head + encode(element))`` per element of an
    append-only sequence, ``count`` elements in: the head depends on
    the elements only, never on how many each fold took in."""

    __slots__ = ("count", "head")

    def __init__(self) -> None:
        self.count = 0
        self.head = bytes(32)

    def extend(self, elements: Iterable[Any]) -> bytes:
        """Fold the elements past ``count`` (the caller slices them)."""
        head = self.head
        for element in elements:
            head = _sha256(head + encode(element)).digest()
            self.count += 1
        self.head = head
        return head
