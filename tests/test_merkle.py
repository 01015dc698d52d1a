import hashlib
import random
from pathlib import Path

import pytest

from gridledger.crypto import digest
from gridledger.merkle import (
    EMPTY_ROOT,
    InclusionProof,
    build_tree,
    merkle_root,
    verify_inclusion,
)

FIXTURES = Path(__file__).parent / "fixtures"


def oracle_root(leaves):
    """Independent brute-force root: direct recursive level hashing."""
    if not leaves:
        return hashlib.sha256(b"").digest()
    level = list(leaves)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [
            hashlib.sha256(level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
    return level[0]


def random_leaves(rng, count):
    return [rng.randbytes(32) for _ in range(count)]


class TestRoot:
    def test_empty_tree_root_is_empty_digest(self):
        assert build_tree([]).root == EMPTY_ROOT == digest(b"")

    def test_single_leaf_is_its_own_root(self):
        leaf = digest(b"only")
        assert build_tree([leaf]).root == leaf

    def test_three_leaves_hand_formula(self):
        d1, d2, d3 = digest(b"a"), digest(b"b"), digest(b"c")
        expected = digest(digest(d1 + d2) + digest(d3 + d3))
        assert build_tree([d1, d2, d3]).root == expected

    def test_rejects_wrong_leaf_size(self):
        with pytest.raises(ValueError):
            build_tree([b"too short"])

    def test_matches_oracle_for_all_sizes_to_64(self):
        rng = random.Random(2024)
        for count in range(65):
            leaves = random_leaves(rng, count)
            assert build_tree(leaves).root == oracle_root(leaves), f"count={count}"

    def test_root_only_matches_tree_and_oracle(self):
        rng = random.Random(2025)
        for count in range(65):
            leaves = random_leaves(rng, count)
            assert merkle_root(leaves) == build_tree(leaves).root == oracle_root(leaves), count

    def test_root_only_rejects_wrong_leaf_size(self):
        with pytest.raises(ValueError):
            merkle_root([digest(b"a"), b"too short"])

    def test_golden_roots_fixture(self):
        import struct

        for line in (FIXTURES / "merkle_roots.txt").read_text().splitlines():
            count_str, root_hex = line.split("\t")
            leaves = [
                digest(b"leaf" + struct.pack(">I", i)) for i in range(int(count_str))
            ]
            assert build_tree(leaves).root.hex() == merkle_root(leaves).hex() == root_hex

    def test_any_leaf_change_changes_root(self):
        rng = random.Random(31)
        for count in (1, 2, 5, 17, 64):
            leaves = random_leaves(rng, count)
            root = build_tree(leaves).root
            for i in range(count):
                mutated = list(leaves)
                flipped = bytearray(mutated[i])
                flipped[0] ^= 1
                mutated[i] = bytes(flipped)
                assert build_tree(mutated).root != root, f"count={count} leaf={i}"


class TestInclusionProofs:
    def test_proof_round_trip(self):
        rng = random.Random(8)
        leaves = random_leaves(rng, 12)
        tree = build_tree(leaves)
        for i in range(12):
            proof = tree.prove_inclusion(i)
            assert verify_inclusion(tree.root, leaves[i], proof)

    def test_path_length_is_tree_height(self):
        rng = random.Random(9)
        for count in (1, 2, 3, 7, 16, 33):
            tree = build_tree(random_leaves(rng, count))
            proof = tree.prove_inclusion(count - 1)
            assert len(proof.path) == tree.height

    def test_index_out_of_range(self):
        tree = build_tree(random_leaves(random.Random(1), 4))
        with pytest.raises(IndexError):
            tree.prove_inclusion(4)
        with pytest.raises(IndexError):
            tree.prove_inclusion(-1)
        with pytest.raises(IndexError):
            build_tree([]).prove_inclusion(0)

    def test_seven_leaf_exhaustive_and_cross_index(self):
        rng = random.Random(77)
        leaves = random_leaves(rng, 7)
        tree = build_tree(leaves)
        proofs = [tree.prove_inclusion(i) for i in range(7)]
        for i in range(7):
            assert verify_inclusion(tree.root, leaves[i], proofs[i])
            for j in range(7):
                if i != j:
                    assert not verify_inclusion(tree.root, leaves[i], proofs[j])

    def test_perturbed_sibling_fails(self):
        rng = random.Random(55)
        leaves = random_leaves(rng, 9)
        tree = build_tree(leaves)
        for i in range(9):
            proof = tree.prove_inclusion(i)
            for step in range(len(proof.path)):
                sibling, side = proof.path[step]
                bad = bytearray(sibling)
                bad[rng.randrange(32)] ^= 1 << rng.randrange(8)
                mutated = list(proof.path)
                mutated[step] = (bytes(bad), side)
                assert not verify_inclusion(
                    tree.root, leaves[i], InclusionProof(i, tuple(mutated))
                )

    def test_proof_is_bound_to_its_leaf_index(self):
        # a valid path for leaf 2 of 4 does not verify under another index
        leaves = random_leaves(random.Random(24), 4)
        tree = build_tree(leaves)
        proof = tree.prove_inclusion(2)
        assert verify_inclusion(tree.root, leaves[2], proof)
        for index in (0, 1, 3, 6, 99, -2):
            assert not verify_inclusion(tree.root, leaves[2], proof._replace(leaf_index=index)), index

    def test_single_leaf_proof_is_index_zero_only(self):
        leaf = random_leaves(random.Random(25), 1)[0]
        proof = build_tree([leaf]).prove_inclusion(0)
        assert proof.path == () and verify_inclusion(leaf, leaf, proof)
        assert not verify_inclusion(leaf, leaf, proof._replace(leaf_index=1))

    def test_perturbed_leaf_and_root_fail(self):
        rng = random.Random(56)
        leaves = random_leaves(rng, 6)
        tree = build_tree(leaves)
        proof = tree.prove_inclusion(2)
        bad_leaf = bytearray(leaves[2])
        bad_leaf[5] ^= 1
        assert not verify_inclusion(tree.root, bytes(bad_leaf), proof)
        bad_root = bytearray(tree.root)
        bad_root[5] ^= 1
        assert not verify_inclusion(bytes(bad_root), leaves[2], proof)

    def test_random_sizes_property(self):
        rng = random.Random(404)
        for _ in range(40):
            count = rng.randrange(1, 65)
            leaves = random_leaves(rng, count)
            tree = build_tree(leaves)
            index = rng.randrange(count)
            proof = tree.prove_inclusion(index)
            assert verify_inclusion(tree.root, leaves[index], proof)
