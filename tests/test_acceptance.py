"""Acceptance suite: one test per criterion, each printing a PASS line with
the numbers it checked (run with ``pytest -s tests/test_acceptance.py`` to
see them). Tolerances are exact counts and byte equality throughout; the
underlying claims are all discrete."""

import hashlib
import itertools
import json
import random
import time
from pathlib import Path

from gridledger import chain as chain_mod
from gridledger import crypto
from gridledger.chain import Chain, RecordKind, block_bytes, block_from_bytes, verify_chain
from gridledger.codec import ByteReader
from gridledger.credit import (
    CreditReason,
    apply_record_outcome,
    apply_validator_outcomes,
    fold_events,
    initialize_roles,
    reelect,
)
from gridledger.datastore import DataStore, StoredObject
from gridledger.merkle import InclusionProof, build_tree
from gridledger.simnet import SimConfig, new_sim, run

from testutil import build_chain, keypair, sealed_payloads

FIXTURES = Path(__file__).parent / "fixtures"
SCENARIOS = Path(__file__).parent / "scenarios"


def desk_config(seed=7, **overrides):
    defaults = dict(seed=seed, r_max=3, s_max=1)
    defaults.update(overrides)
    return SimConfig(**defaults)


def twenty_node_scenario():
    nodes = "".join(f"node {i} assessment {200 - i}\n" for i in range(20))
    uploads = "".join(f"upload 7 load 64 at {t}\n" for t in range(10, 1100, 90))
    return (
        nodes
        + "authorize 7\nauthorize 8\n"
        + uploads
        + "share 7 12 0 at 700\n"
        + "fault crash-node 15 at 400\n"
        + "run until 1200\n"
    )


def test_criterion_1_determinism_and_runtime():
    cases = [
        ("honest.txt", (SCENARIOS / "honest.txt").read_text(), desk_config()),
        ("faults.txt", (SCENARIOS / "faults.txt").read_text(), desk_config(seed=11)),
        ("sharing.txt", (SCENARIOS / "sharing.txt").read_text(), desk_config(seed=3)),
        ("20-node", twenty_node_scenario(), SimConfig(seed=5, r_max=5, s_max=3)),
    ]
    worst = 0.0
    for name, text, config in cases:
        started = time.perf_counter()
        first = run(new_sim(config, text))
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        second = run(new_sim(config, text))
        assert first.chain_export_text() == second.chain_export_text(), name
        assert first.credit_log_text() == second.credit_log_text(), name
        assert first.trace_text() == second.trace_text(), name
        assert elapsed < 5.0, f"{name} took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 1 PASS: {len(cases)} scenarios byte-identical across reruns,"
        f" slowest run {worst:.2f}s (< 5s)"
    )


def test_criterion_2_crypto_round_trips_and_perturbations():
    rng = random.Random(20240)
    for _ in range(1000):
        kp = crypto.generate_keypair(rng.randbytes(32))
        message = rng.randbytes(rng.randrange(1, 96))
        assert crypto.verify(kp.public_key, message, crypto.sign(kp.private_key, message))
        payload = rng.randbytes(rng.randrange(0, 160))
        envelope = crypto.encrypt_for(kp.public_key, payload, rng)
        assert crypto.decrypt(kp.private_key, envelope) == payload
    failures = 0
    for i in range(1000):
        kp = crypto.generate_keypair(rng.randbytes(32))
        message = rng.randbytes(rng.randrange(1, 64))
        signature = crypto.sign(kp.private_key, message)
        target = i % 3
        if target == 0:
            mutated = bytearray(message)
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            ok = crypto.verify(kp.public_key, bytes(mutated), signature)
        elif target == 1:
            mutated = bytearray(signature)
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            ok = crypto.verify(kp.public_key, message, bytes(mutated))
        else:
            mutated = bytearray(kp.public_key)
            mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
            ok = crypto.verify(bytes(mutated), message, signature)
        failures += 0 if ok else 1
    assert failures == 1000
    print(
        "\nACCEPTANCE 2 PASS: 1000 sign/verify + 1000 encrypt/decrypt round trips ok,"
        " 1000/1000 single-bit perturbations rejected"
    )


def test_criterion_3_merkle_against_brute_force_oracle():
    def oracle(leaves):
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

    from gridledger.merkle import verify_inclusion

    rng = random.Random(3333)
    proofs_checked = 0
    for count in range(65):
        leaves = [rng.randbytes(32) for _ in range(count)]
        tree = build_tree(leaves)
        assert tree.root == oracle(leaves), f"count={count}"
        for index in range(count):
            proof = tree.prove_inclusion(index)
            assert verify_inclusion(tree.root, leaves[index], proof)
            if proof.path:
                step = rng.randrange(len(proof.path))
                sibling, side = proof.path[step]
                mutated = bytearray(sibling)
                mutated[rng.randrange(32)] ^= 1 << rng.randrange(8)
                path = list(proof.path)
                path[step] = (bytes(mutated), side)
                bad = InclusionProof(proof.leaf_index, tuple(path))
                assert not verify_inclusion(tree.root, leaves[index], bad)
            else:
                # single-leaf proofs have no path; perturb the leaf instead
                bad_leaf = bytearray(leaves[index])
                bad_leaf[rng.randrange(32)] ^= 1
                assert not verify_inclusion(tree.root, bytes(bad_leaf), proof)
            proofs_checked += 1
    print(
        f"\nACCEPTANCE 3 PASS: roots equal oracle for leaf counts 0..64,"
        f" {proofs_checked} proofs verified and their perturbations rejected"
    )


def test_criterion_4_tamper_propagation_exhaustive_blocks():
    chain = build_chain(9, records_per_block=3)  # genesis + 9 = 10 blocks
    assert len(chain) == 10
    rng = random.Random(4444)
    mutations = 0
    for i, block in enumerate(chain.blocks):
        raw = block_bytes(block)
        positions = rng.sample(range(len(raw)), 100)
        for pos in positions:
            mutated = bytearray(raw)
            mutated[pos] ^= 1 << rng.randrange(8)
            mutations += 1
            try:
                candidate = block_from_bytes(bytes(mutated))
            except chain_mod.EncodingError:
                continue  # structural break pinpoints block i directly
            blocks = list(chain.blocks)
            blocks[i] = candidate
            violation = verify_chain(Chain(tuple(blocks)))
            assert violation is not None, f"undetected mutation: block {i} byte {pos}"
            assert violation.index <= i + 1, (
                f"late detection: block {i} byte {pos} reported at {violation.index}"
            )
    print(
        f"\nACCEPTANCE 4 PASS: {mutations} single-byte mutations across all 10 blocks,"
        " every one detected at index <= mutated+1"
    )


def test_criterion_5_credit_rule_conformance():
    table = json.loads((FIXTURES / "vote_patterns.json").read_text())
    assert len(table) == 8
    for row in table:
        events, verdict = apply_validator_outcomes([(i, v) for i, v in enumerate(row["votes"])], tick=0)
        assert verdict == row["verdict"], row
        assert [e.delta for e in events] == row["deltas"], row
    for name, seed in (("honest.txt", 7), ("faults.txt", 11), ("sharing.txt", 3)):
        sim = new_sim(desk_config(seed=seed), (SCENARIOS / name).read_text())
        report = run(sim)
        assert fold_events(report.credits.keys(), report.events) == report.credits == sim.credit.credits, name
    print(
        "\nACCEPTANCE 5 PASS: all 8 vote patterns match the pinned delta table;"
        " ledger equals audit-log fold on 3 scenarios"
    )


def test_criterion_6_reelection_oracle_sweep():
    rng = random.Random(66)
    for trial in range(200):
        n = rng.randrange(3, 201)
        node_ids = list(range(n))
        assignment = initialize_roles(dict.fromkeys(node_ids, 0), r_max=101, s_max=20)
        events = []
        for nid in node_ids:
            delta = rng.randrange(-20, 21)
            events += [apply_record_outcome(nid, delta > 0, 0)] * abs(delta)
        credits = fold_events(node_ids, events)
        new = reelect(credits, assignment)
        oracle = sorted(sorted(node_ids), key=lambda nid: -credits[nid])  # stable
        assert list(new.recorders + new.supervisors + new.candidates) == oracle, f"trial {trial}"
        assert len(new.recorders) == min(101, n)
        assert len(new.supervisors) == min(20, max(0, n - 101))
    print(
        "\nACCEPTANCE 6 PASS: 200 random ledgers (3..200 nodes) match the stable-sort"
        " oracle; committee caps 101/20 respected"
    )


def test_criterion_7_end_to_end_honest_scenario():
    text = (SCENARIOS / "honest.txt").read_text()
    report = run(new_sim(desk_config(), text))
    assert report.blocks_committed == 2
    assert report.blocks_rejected == 0
    assert report.records_committed == 12
    assert report.records_quarantined == 0
    assert len(report.chain) == 3  # genesis + 2
    assert verify_chain(report.chain) is None
    from gridledger.simnet import parse_scenario

    uploads_per_node = {}
    for plan in parse_scenario(text).uploads:
        uploads_per_node[plan.node_id] = uploads_per_node.get(plan.node_id, 0) + 1
    for node_id, count in uploads_per_node.items():
        assert report.credits[node_id] == count, (node_id, count, report.credits[node_id])
    print(
        "\nACCEPTANCE 7 PASS: 6-node honest run -> 2 blocks, 12 records, 0 quarantined,"
        f" uploader credit equals upload count ({uploads_per_node})"
    )


def test_criterion_8_fault_detection_scenario():
    report = run(new_sim(desk_config(seed=11), (SCENARIOS / "faults.txt").read_text()))
    forge_outcomes = [f for f in report.fault_outcomes if f.spec.kind == "forge-record"]
    assert len(forge_outcomes) == 3
    assert all(f.outcome.startswith("quarantined@") for f in forge_outcomes)
    assert report.records_quarantined == 3
    forger_penalties = [
        e
        for e in report.events
        if e.node_id == 2 and e.reason is CreditReason.RECORD_ERRONEOUS
    ]
    assert len(forger_penalties) == 3 and all(e.delta == -1 for e in forger_penalties)
    assert report.credits[2] == -3
    assert report.credits[3] < 0  # the byzantine supervisor
    assert verify_chain(report.chain) is None
    for nid, status in report.node_chain_status.items():
        if report.node_status[nid] == "ok":
            assert status == "ok", f"honest node {nid}: {status}"
    print(
        "\nACCEPTANCE 8 PASS: 3/3 forgeries quarantined (forger -1 each),"
        f" byzantine credit {report.credits[3]} < 0, honest chains verify ok"
    )


def _extract_envelope(kind, data):
    offset = 160 if kind == "upload-envelope" else 224
    return crypto.ENVELOPE.decode(ByteReader(data[offset:]).var_bytes())


def test_criterion_9_sharing_round_trip():
    sim = new_sim(desk_config(seed=3), (SCENARIOS / "sharing.txt").read_text())
    with sealed_payloads() as payloads:
        report = run(sim)
    assert len(report.deliveries) == 1
    delivery = report.deliveries[0]
    assert delivery.payload == payloads[0]  # exact plaintext
    assert any(f.reason == "not-owner" for f in report.share_failures)
    rows = chain_mod.trace(report.chain, report.upload_digests[0])
    assert [r.metadata.kind for _, _, r in rows] == [
        RecordKind.GRID_DATA,
        RecordKind.SHARE_TRANSACTION,
    ]
    assert (rows[0][0], rows[0][1]) < (rows[1][0], rows[1][1])
    checked = 0
    for entry in report.tap:
        if entry.kind not in ("upload-envelope", "share-envelope"):
            continue
        envelope = _extract_envelope(entry.kind, entry.data)
        opened_by = []
        for nid, node in sim.nodes.items():
            try:
                crypto.decrypt(node.keypair.private_key, envelope)
                opened_by.append(nid)
            except crypto.DecryptionError:
                continue
        assert opened_by == [entry.dst], f"{entry.kind} opened by {opened_by}, dst {entry.dst}"
        checked += 1
    assert checked >= 3  # two upload envelopes plus the share envelope
    print(
        "\nACCEPTANCE 9 PASS: share delivered bit-exact, non-owner rejected, lineage"
        f" origin+share in order, {checked} captured envelopes open only for addressees"
    )


def test_criterion_10_storage_resilience():
    owner = keypair(10)
    pairs = list(itertools.combinations(range(5), 2))
    for pair in pairs:
        store = DataStore([f"u{i}" for i in range(5)], replication_factor=3)
        objects = []
        for i in range(12):
            payload = b"grid-object-%d" % i
            obj = StoredObject(
                payload_digest=crypto.digest(payload),
                ciphertext=crypto.encrypt_for(owner.public_key, payload, random.Random(i)),
                owner_public_key=owner.public_key,
            )
            store.put(obj)
            objects.append(obj)
        for unit_index in pair:
            store.fail_unit(f"u{unit_index}")
        for obj in objects:
            got = store.get(obj.payload_digest)
            assert got is not None, f"unreadable after killing {pair}"
            assert got.ciphertext == obj.ciphertext
        for unit_index in pair:
            store.recover_unit(f"u{unit_index}")
        audit = store.audit()
        assert all(not status.under_replicated for status in audit)
        for obj in objects:
            for unit_id in store.placements[obj.payload_digest]:
                assert store.units[unit_id].objects[obj.payload_digest].ciphertext == obj.ciphertext
    print(
        f"\nACCEPTANCE 10 PASS: all {len(pairs)} two-unit failure combinations kept 12"
        " objects readable; recovery restored byte-equal full replication"
    )
