"""Merkle trees over 32-byte leaf digests, plus inclusion proofs.

Conventions, pinned by the golden vectors: adjacent nodes pair left-to-right
and the last node of an odd level pairs with itself; a single leaf is its own
root; the empty tree's root is the digest of the empty byte string.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .crypto import DIGEST_LEN, digest

EMPTY_ROOT = digest(b"")


class InclusionProof(NamedTuple):
    """Authentication path from one leaf to the root.

    Each step is ``(sibling_digest, sibling_on_left)``; the path runs from
    the leaf level upward and has exactly tree-height entries.
    """

    leaf_index: int
    path: tuple[tuple[bytes, bool], ...]


def _check_leaves(leaves: Sequence[bytes]) -> None:
    for leaf in leaves:
        if len(leaf) != DIGEST_LEN:
            raise ValueError("leaves must be 32-byte digests")


def _parent_level(level: list[bytes]) -> list[bytes]:
    """The level above ``level``: adjacent nodes pair left to right, and the
    last node of an odd level pairs with itself."""
    if len(level) % 2:
        level = level + level[-1:]
    return [digest(left + right) for left, right in zip(level[::2], level[1::2])]


class MerkleTree:
    def __init__(self, leaves: list[bytes]):
        _check_leaves(leaves)
        levels = [list(leaves)]
        while len(levels[-1]) > 1:
            levels.append(_parent_level(levels[-1]))
        self.leaves = tuple(leaves)
        self.levels = tuple(tuple(level) for level in levels)

    @property
    def root(self) -> bytes:
        top = self.levels[-1]
        return top[0] if top else EMPTY_ROOT

    @property
    def height(self) -> int:
        return len(self.levels) - 1

    def prove_inclusion(self, index: int) -> InclusionProof:
        if not 0 <= index < len(self.leaves):
            raise IndexError(f"leaf index {index} out of range")
        path = []
        pos = index
        for level in self.levels[:-1]:
            if pos % 2 == 0:
                sibling = level[pos + 1] if pos + 1 < len(level) else level[pos]
                path.append((sibling, False))
            else:
                path.append((level[pos - 1], True))
            pos //= 2
        return InclusionProof(leaf_index=index, path=tuple(path))


def build_tree(leaf_digests: list[bytes]) -> MerkleTree:
    return MerkleTree(list(leaf_digests))


def merkle_root(leaf_digests: Sequence[bytes]) -> bytes:
    """``build_tree(leaf_digests).root``, keeping only one level at a time."""
    _check_leaves(leaf_digests)
    level = list(leaf_digests)
    if not level:
        return EMPTY_ROOT
    while len(level) > 1:
        level = _parent_level(level)
    return level[0]


def verify_inclusion(root: bytes, leaf: bytes, proof: InclusionProof) -> bool:
    """Recompute the root from ``leaf`` along ``proof`` and compare."""
    node = leaf
    for sibling, sibling_on_left in proof.path:
        node = digest(sibling + node) if sibling_on_left else digest(node + sibling)
    return node == root
