import random
from dataclasses import replace

import pytest

from gridledger import chain as chain_mod
from gridledger import crypto
from gridledger.chain import Chain, LinkMismatchError, RecordKind, RecordMetadata, RootMismatchError, genesis
from gridledger.credit import CreditLedger, CreditReason, NodeProfile, initialize_roles
from gridledger.merkle import build_tree
from gridledger.record_protocol import (
    ProtocolError,
    UploadError,
    UploadRejected,
    choose_validators,
    commit,
    prepare_upload,
    receive_upload,
    seal_block,
    sign_vote,
    validate_proposal,
)

from testutil import keypair


def metadata(tick=0, data_class="load"):
    return RecordMetadata(kind=RecordKind.GRID_DATA, data_class=data_class, created_tick=tick)


@pytest.fixture
def net():
    """Six keyed nodes, ids 0..5: recorders 0-2, supervisor 3, candidates 4-5."""
    keys = {i: keypair(100 + i) for i in range(6)}
    profiles = [NodeProfile(i, keys[i].public_key, 60 - 10 * i) for i in range(6)]
    assignment = initialize_roles(profiles, r_max=3, s_max=1)
    permissions = frozenset(k.public_key for k in keys.values())
    return keys, assignment, permissions


class TestPrepareReceive:
    def test_round_trip_reproduces_digest(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[0].public_key, b"telemetry bytes", metadata())
        stored = receive_upload(keys[0], env, permissions)
        assert env.record.payload_digest == stored.payload_digest == crypto.digest(b"telemetry bytes")
        assert env.record.uploader_public_key == keys[2].public_key
        assert env.record.metadata == metadata()
        assert crypto.verify(*chain_mod.signature_triple(env.record))

    def test_zero_byte_payload(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[0].public_key, b"", metadata())
        stored = receive_upload(keys[0], env, permissions)
        assert stored.payload_digest == crypto.digest(b"")

    def test_wrong_recorder_key_decryption_failure(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[1].public_key, b"data", metadata())
        with pytest.raises(UploadRejected) as exc_info:
            receive_upload(keys[0], env, permissions)
        assert exc_info.value.reason is UploadError.DECRYPTION_FAILURE

    def test_unauthorized_uploader_denied(self, net):
        keys, _, _ = net
        env = prepare_upload(keys[2], keys[0].public_key, b"data", metadata())
        with pytest.raises(UploadRejected) as exc_info:
            receive_upload(keys[0], env, frozenset())
        assert exc_info.value.reason is UploadError.PERMISSION_DENIED

    def test_payload_swapped_after_signing_is_digest_mismatch(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[0].public_key, b"honest", metadata())
        swapped = env._replace(payload_envelope=crypto.encrypt_for(keys[0].public_key, b"swapped"))
        with pytest.raises(UploadRejected) as exc_info:
            receive_upload(keys[0], swapped, permissions)
        assert exc_info.value.reason is UploadError.DIGEST_MISMATCH

    def test_signature_by_other_key_is_signature_invalid(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[0].public_key, b"claim", metadata())
        # claimed key B, signed by A
        imposter = env._replace(record=replace(env.record, uploader_public_key=keys[4].public_key))
        with pytest.raises(UploadRejected) as exc_info:
            receive_upload(keys[0], imposter, permissions)
        assert exc_info.value.reason is UploadError.SIGNATURE_INVALID

    def test_at_rest_object_sealed_to_uploader(self, net):
        keys, _, permissions = net
        env = prepare_upload(keys[2], keys[0].public_key, b"owner sealed", metadata())
        stored = receive_upload(keys[0], env, permissions)
        assert stored.owner_public_key == keys[2].public_key
        assert crypto.decrypt(keys[2].private_key, stored.ciphertext) == b"owner sealed"
        with pytest.raises(crypto.DecryptionError):
            crypto.decrypt(keys[0].private_key, stored.ciphertext)

    def test_payload_hashed_once(self, net, monkeypatch):
        keys, _, _ = net
        payload = bytes(range(256)) * 256  # 64 KiB
        hashed = []
        real_digest = crypto.digest

        def counting_digest(data):
            hashed.append(len(data))
            return real_digest(data)

        monkeypatch.setattr(crypto, "digest", counting_digest)
        env = prepare_upload(keys[2], keys[0].public_key, payload, metadata())
        assert env.record.payload_digest == real_digest(payload)
        assert hashed.count(len(payload)) == 1

    def test_oversized_metadata_rejected(self, net):
        keys, _, _ = net
        with pytest.raises(chain_mod.EncodingError):
            prepare_upload(keys[2], keys[0].public_key, b"x", metadata(data_class="y" * 65))


def pending_records(keys, permissions, payloads, uploader=2, recorder=0):
    out = []
    for tick, payload in payloads:
        env = prepare_upload(keys[uploader], keys[recorder].public_key, payload, metadata(tick))
        receive_upload(keys[recorder], env, permissions)
        out.append(env.record)
    return out


class TestSealBlock:
    def test_root_matches_independent_recompute(self, net):
        keys, assignment, permissions = net
        chain = Chain((genesis("t"),))
        pending = pending_records(keys, permissions, [(10, b"a"), (20, b"b"), (30, b"c"), (40, b"d"), (50, b"e")])
        proposal = seal_block(
            keys[0], 0, pending, chain.tip_digest, 600, 3, assignment.candidates, random.Random(1)
        )
        assert len(proposal.block.records) == 5
        oracle = build_tree([crypto.digest(chain_mod.record_bytes(r)) for r in pending]).root
        assert proposal.block.header.merkle_root == oracle
        assert proposal.block.records == tuple(pending)  # arrival order

    def test_empty_interval_seals_empty_block(self, net):
        keys, assignment, _ = net
        chain = Chain((genesis("t"),))
        proposal = seal_block(
            keys[0], 0, [], chain.tip_digest, 600, 3, assignment.candidates, random.Random(1)
        )
        assert proposal.block.records == ()
        assert proposal.block.header.merkle_root == build_tree([]).root

    def test_validators_are_supervisor_plus_two_candidates(self, net):
        keys, assignment, _ = net
        chain = Chain((genesis("t"),))
        proposal = seal_block(
            keys[0], 0, [], chain.tip_digest, 600, 3, assignment.candidates, random.Random(1)
        )
        sup, c1, c2 = proposal.validator_ids
        assert sup == 3
        assert {c1, c2} <= set(assignment.candidates)
        assert c1 != c2

    def test_needs_two_candidates(self, net):
        keys, _, _ = net
        with pytest.raises(ProtocolError):
            seal_block(keys[0], 0, [], b"\x00" * 32, 600, 3, (4,), random.Random(1))


def make_proposal(net, payloads, rng_seed=1):
    keys, assignment, permissions = net
    chain = Chain((genesis("t"),))
    pending = pending_records(keys, permissions, payloads)
    proposal = seal_block(
        keys[0], 0, pending, chain.tip_digest, 600, 3, assignment.candidates, random.Random(rng_seed)
    )
    return chain, proposal


def check_of(proposal, tip):
    return chain_mod.validate_block(proposal.block, tip)


class TestValidateProposal:
    def test_clean_block_gets_ok_vote(self, net):
        keys, _, _ = net
        chain, proposal = make_proposal(net, [(10, b"fine")])
        vote = validate_proposal(keys[3], 3, proposal, check_of(proposal, chain.tip), lambda r: True)
        assert vote.ok and vote.bad_indices == ()

    def test_fabricated_record_flagged(self, net):
        keys, _, _ = net
        chain, proposal = make_proposal(net, [(10, b"good"), (20, b"fake"), (30, b"good2")])
        fake = crypto.digest(b"fake")
        vote = validate_proposal(
            keys[3], 3, proposal, check_of(proposal, chain.tip), lambda r: r.payload_digest != fake
        )
        assert not vote.ok
        assert vote.bad_indices == (1,)

    def test_header_level_failure_flags_no_records(self, net):
        keys, _, _ = net
        chain, proposal = make_proposal(net, [(10, b"x")])
        vote = validate_proposal(keys[3], 3, proposal, check_of(proposal, genesis("other")), lambda r: True)
        assert not vote.ok and vote.bad_indices == ()

    def test_unassigned_validator_rejected(self, net):
        keys, _, _ = net
        chain, proposal = make_proposal(net, [])
        with pytest.raises(ProtocolError):
            validate_proposal(keys[1], 1, proposal, check_of(proposal, chain.tip), lambda r: True)

    def test_vote_signature_verifies(self, net):
        keys, _, _ = net
        chain, proposal = make_proposal(net, [(10, b"x")])
        vote = validate_proposal(keys[3], 3, proposal, check_of(proposal, chain.tip), lambda r: True)
        from gridledger.record_protocol import vote_signing_bytes

        assert crypto.verify(
            keys[3].public_key,
            vote_signing_bytes(chain_mod.block_digest(proposal.block), vote.ok, vote.bad_indices),
            vote.signature,
        )


def commit_env(net, payloads):
    keys, assignment, permissions = net
    chain, proposal = make_proposal(net, payloads)
    ledger = CreditLedger(range(6))
    public_keys = {i: keys[i].public_key for i in range(6)}
    uploader_ids = {keys[i].public_key: i for i in range(6)}
    return keys, chain, proposal, ledger, public_keys, uploader_ids


def votes_for(keys, proposal, verdicts):
    block_digest = chain_mod.block_digest(proposal.block)
    out = []
    for vid, (ok, bad) in zip(proposal.validator_ids, verdicts):
        out.append(sign_vote(keys[vid], vid, block_digest, ok, bad))
    return out


class TestCommit:
    def test_unanimous_ok_appends_and_credits(self, net):
        keys, chain, proposal, ledger, pks, uids = commit_env(net, [(10, b"a"), (20, b"b")])
        votes = votes_for(keys, proposal, [(True, ())] * 3)
        result = commit(proposal, votes, check_of(proposal, chain.tip), ledger, pks, uids)
        assert result.committed
        assert ledger.credit(0) == 1  # recorder block-clean
        assert ledger.credit(2) == 2  # uploader, two records
        for vid in proposal.validator_ids:
            assert ledger.credit(vid) == 1

    def test_majority_erroneous_quarantines_flagged(self, net):
        keys, chain, proposal, ledger, pks, uids = commit_env(
            net, [(10, b"good"), (20, b"bad"), (30, b"good2")]
        )
        votes = votes_for(keys, proposal, [(False, (1,)), (False, (1,)), (True, ())])
        result = commit(proposal, votes, check_of(proposal, chain.tip), ledger, pks, uids)
        assert not result.committed
        assert [i for i, _ in result.quarantined] == [1]
        assert [r.payload_digest for r in result.survivors] == [
            crypto.digest(b"good"),
            crypto.digest(b"good2"),
        ]
        assert ledger.credit(0) == -1  # recorder block-erroneous
        assert ledger.credit(2) == -1  # uploader of the flagged record
        dissenter = proposal.validator_ids[2]
        assert ledger.credit(dissenter) == -1

    def test_ok_majority_with_dissenter_appends(self, net):
        keys, chain, proposal, ledger, pks, uids = commit_env(net, [(10, b"a")])
        votes = votes_for(keys, proposal, [(True, ()), (True, ()), (False, (0,))])
        result = commit(proposal, votes, check_of(proposal, chain.tip), ledger, pks, uids)
        assert result.committed
        dissenter = proposal.validator_ids[2]
        assert ledger.credit(dissenter) == -1

    def test_quarantine_requires_quorum_of_flags(self, net):
        # two erroneous votes naming different records: neither reaches quorum
        keys, chain, proposal, ledger, pks, uids = commit_env(net, [(10, b"a"), (20, b"b")])
        votes = votes_for(keys, proposal, [(False, (0,)), (False, (1,)), (True, ())])
        result = commit(proposal, votes, check_of(proposal, chain.tip), ledger, pks, uids)
        assert not result.committed
        assert result.quarantined == ()
        assert len(result.survivors) == 2

    def test_wrong_vote_count_rejected(self, net):
        keys, chain, proposal, ledger, pks, uids = commit_env(net, [])
        votes = votes_for(keys, proposal, [(True, ())] * 3)
        with pytest.raises(ProtocolError):
            commit(proposal, votes[:2], check_of(proposal, chain.tip), ledger, pks, uids)

    def test_unverifiable_vote_signature_rejected(self, net):
        keys, chain, proposal, ledger, pks, uids = commit_env(net, [])
        votes = votes_for(keys, proposal, [(True, ())] * 3)
        forged = type(votes[0])(
            validator_id=votes[0].validator_id,
            ok=False,  # verdict no longer matches the signature
            bad_indices=(),
            signature=votes[0].signature,
        )
        with pytest.raises(ProtocolError):
            commit(proposal, [forged, votes[1], votes[2]], check_of(proposal, chain.tip), ledger, pks, uids)

    def test_timestamp_regression_voted_erroneous_and_not_committed(self, net):
        keys, assignment, permissions = net
        chain = Chain((genesis("t"),))
        chain = chain.append(chain_mod.make_block(keys[0], chain.tip_digest, 600, ()))
        pending = pending_records(keys, permissions, [(10, b"early")])
        ledger = CreditLedger(range(6))
        pks = {i: keys[i].public_key for i in range(6)}
        uids = {keys[i].public_key: i for i in range(6)}
        for tick, ok in ((600, True), (5, False)):  # the tip's own tick is allowed
            proposal = seal_block(
                keys[1], 1, pending, chain.tip_digest, tick, 3, assignment.candidates, random.Random(1)
            )
            votes = [
                validate_proposal(keys[v], v, proposal, check_of(proposal, chain.tip), lambda r: True)
                for v in proposal.validator_ids
            ]
            assert [(v.ok, v.bad_indices) for v in votes] == [(ok, ())] * 3, tick
        result = commit(proposal, votes, check_of(proposal, chain.tip), ledger, pks, uids)
        assert not result.committed
        assert result.quarantined == ()
        assert result.survivors == tuple(pending)
        assert ledger.credit(1) == -1  # recorder block-erroneous

    @pytest.mark.parametrize("fault", ["flipped-root", "stale-link"])
    def test_ok_votes_on_a_faulty_block_raise_its_fault(self, net, fault):
        # the round's check is commit's gate: three ok votes do not commit a
        # block it faults, and only the validator credits are applied
        keys, chain, proposal, ledger, pks, uids = commit_env(net, [(10, b"a")])
        if fault == "flipped-root":
            header = proposal.block.header
            root = bytes([header.merkle_root[0] ^ 1]) + header.merkle_root[1:]
            block = replace(proposal.block, header=header._replace(merkle_root=root))
            proposal, expected = proposal._replace(block=block), RootMismatchError
        else:  # sealed on genesis, judged against a block appended since
            chain = chain.append(chain_mod.make_block(keys[1], chain.tip_digest, 300, ()))
            expected = LinkMismatchError
        check = check_of(proposal, chain.tip)
        assert isinstance(check.error(), expected)
        votes = votes_for(keys, proposal, [(True, ())] * 3)
        with pytest.raises(expected):
            commit(proposal, votes, check, ledger, pks, uids)
        assert [(e.node_id, e.reason) for e in ledger.events] == [
            (vid, CreditReason.VALIDATOR_AGREED) for vid in proposal.validator_ids
        ]

    def test_vote_from_unassigned_validator_rejected(self, net):
        keys, chain, proposal, ledger, pks, uids = commit_env(net, [])
        votes = votes_for(keys, proposal, [(True, ())] * 3)
        outsider = sign_vote(keys[1], 1, chain_mod.block_digest(proposal.block), True, ())
        with pytest.raises(ProtocolError):
            commit(proposal, [outsider, votes[1], votes[2]], check_of(proposal, chain.tip), ledger, pks, uids)


class TestChooseValidators:
    def test_duty_supervisor_skips_crashed(self):
        keys = {i: keypair(200 + i) for i in range(7)}
        profiles = [NodeProfile(i, keys[i].public_key, 70 - 10 * i) for i in range(7)]
        assignment = initialize_roles(profiles, r_max=2, s_max=2)  # supervisors 2, 3
        sup, pool = choose_validators(assignment, 0, alive=lambda n: n != 2)
        assert sup == 3
        assert set(pool) == {4, 5, 6}

    def test_single_crashed_supervisor_raises(self, net):
        _, assignment, _ = net
        with pytest.raises(ProtocolError):
            choose_validators(assignment, 0, alive=lambda n: n != 3)

    def test_pool_excludes_crashed_candidates(self, net):
        _, assignment, _ = net
        with pytest.raises(ProtocolError):
            choose_validators(assignment, 0, alive=lambda n: n != 4)
