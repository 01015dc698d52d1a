import itertools
import random

import pytest

from gridledger import crypto
from gridledger.datastore import DataStore, StorageError, StoredObject

from testutil import keypair


def make_store(n_units=5, r=3):
    return DataStore([f"u{i}" for i in range(n_units)], replication_factor=r)


def make_object(owner, payload, rng=None):
    return StoredObject(
        payload_digest=crypto.digest(payload),
        ciphertext=crypto.encrypt_for(owner.public_key, payload, rng),
        owner_public_key=owner.public_key,
    )


@pytest.mark.parametrize(
    "unit_ids, replication_factor, message",
    [(["u0", "u1"], 0, "replication_factor must be >= 1"), (["u0", "u1", "u0"], 2, "duplicate unit ids")],
)
def test_a_store_that_cannot_place_is_refused(unit_ids, replication_factor, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DataStore(unit_ids, replication_factor)


class TestPlacement:
    def test_three_distinct_deterministic(self):
        owner = keypair(1)
        obj = make_object(owner, b"obj-1", random.Random(0))
        store_a, store_b = make_store(), make_store()
        pa = store_a.put(obj)
        pb = store_b.put(obj)
        assert pa == pb
        assert len(set(pa)) == 3

    def test_single_replica(self):
        store = make_store(r=1)
        placement = store.put(make_object(keypair(1), b"solo"))
        assert len(placement) == 1

    def test_idempotent_reput(self):
        store = make_store()
        obj = make_object(keypair(1), b"again")
        assert store.put(obj) == store.put(obj)
        assert len(store.audit()) == 1

    def test_insufficient_live_units(self):
        store = make_store(n_units=3, r=3)
        store.fail_unit("u0")
        with pytest.raises(StorageError):
            store.put(make_object(keypair(1), b"x"))

    def test_placement_spreads_by_digest(self):
        store = make_store()
        placements = set()
        for i in range(30):
            placements.add(store.put(make_object(keypair(1), b"obj-%d" % i)))
        assert len(placements) > 1


class TestGet:
    def test_survives_two_of_three_failures(self):
        store = make_store()
        owner = keypair(1)
        obj = make_object(owner, b"resilient")
        placement = store.put(obj)
        for dead in placement[:2]:
            store.fail_unit(dead)
        got = store.get(obj.payload_digest)
        assert got is not None
        assert got.ciphertext == obj.ciphertext

    def test_all_replicas_dead_is_missing(self):
        store = make_store()
        obj = make_object(keypair(1), b"gone")
        for dead in store.put(obj):
            store.fail_unit(dead)
        assert store.get(obj.payload_digest) is None

    def test_unknown_digest_missing(self):
        assert make_store().get(crypto.digest(b"nope")) is None


class TestFailRecover:
    def test_recover_restores_every_object(self):
        store = make_store()
        owner = keypair(1)
        objects = [make_object(owner, b"item-%d" % i) for i in range(40)]
        for obj in objects:
            store.put(obj)
        victims = [d for d, p in store.placements.items() if "u1" in p]
        assert victims  # placement spreads enough that u1 holds something
        store.fail_unit("u1")
        report = store.recover_unit("u1")
        assert sorted(report.restored) == sorted(victims)
        assert report.unrecoverable == ()
        assert all(not s.under_replicated for s in store.audit())

    def test_recovered_bytes_identical(self):
        store = make_store()
        obj = make_object(keypair(1), b"exact bytes", random.Random(4))
        placement = store.put(obj)
        store.fail_unit(placement[0])
        store.recover_unit(placement[0])
        assert store.units[placement[0]].objects[obj.payload_digest].ciphertext == obj.ciphertext

    def test_object_with_no_surviving_replica_unrecoverable(self):
        store = make_store()
        obj = make_object(keypair(1), b"doomed")
        placement = store.put(obj)
        for dead in placement:
            store.fail_unit(dead)
        report = store.recover_unit(placement[0])
        assert obj.payload_digest in report.unrecoverable

    def test_recover_live_unit_is_noop(self):
        store = make_store()
        store.put(make_object(keypair(1), b"x"))
        report = store.recover_unit("u0")
        assert report.restored == () and report.unrecoverable == ()

    def test_unknown_unit(self):
        with pytest.raises(StorageError):
            make_store().fail_unit("u99")


class TestAudit:
    def test_healthy_store_no_flags(self):
        store = make_store()
        for i in range(10):
            store.put(make_object(keypair(1), b"obj-%d" % i))
        assert all(not s.under_replicated for s in store.audit())

    def test_failure_flags_exactly_the_placed_objects(self):
        store = make_store()
        for i in range(25):
            store.put(make_object(keypair(1), b"obj-%d" % i))
        on_u2 = {d for d, p in store.placements.items() if "u2" in p}
        store.fail_unit("u2")
        flagged = {s.payload_digest for s in store.audit() if s.under_replicated}
        assert flagged == on_u2
        for status in store.audit():
            if status.under_replicated:
                assert status.live == 2

    def test_flags_clear_after_recovery(self):
        store = make_store()
        for i in range(25):
            store.put(make_object(keypair(1), b"obj-%d" % i))
        store.fail_unit("u2")
        store.recover_unit("u2")
        assert all(not s.under_replicated for s in store.audit())


def test_availability_under_random_kill_schedules():
    # any failure sequence leaving >= 1 replica alive keeps every object readable
    rng = random.Random(2718)
    for trial in range(20):
        store = make_store(n_units=6, r=3)
        owner = keypair(trial)
        objects = [make_object(owner, b"t%d-%d" % (trial, i), rng) for i in range(15)]
        for obj in objects:
            store.put(obj)
        kills = rng.sample(sorted(store.units), rng.randrange(1, 4))
        for unit in kills:
            store.fail_unit(unit)
        for obj in objects:
            survivors = [
                u for u in store.placements[obj.payload_digest] if store.units[u].alive
            ]
            got = store.get(obj.payload_digest)
            if survivors:
                assert got is not None and got.ciphertext == obj.ciphertext
            else:
                assert got is None


def test_kill_any_two_of_five_units_keeps_everything_readable():
    for pair in itertools.combinations(range(5), 2):
        store = make_store(n_units=5, r=3)
        owner = keypair(9)
        objects = [make_object(owner, b"obj-%d" % i, random.Random(i)) for i in range(12)]
        for obj in objects:
            store.put(obj)
        for unit_index in pair:
            store.fail_unit(f"u{unit_index}")
        for obj in objects:
            got = store.get(obj.payload_digest)
            assert got is not None, f"lost {obj.payload_digest.hex()[:8]} killing {pair}"
            assert got.ciphertext == obj.ciphertext

