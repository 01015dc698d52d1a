"""Replicated content-addressed storage for at-rest ciphertext.

Objects are keyed by the digest of their plaintext and placed on a fixed
number of distinct units by rendezvous hashing, so placement is a pure
function of (digest, unit set) and replays are byte-identical. A failed unit
loses its contents; recovery re-copies from surviving replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import crypto
from .crypto import Envelope, digest


class StorageError(Exception):
    pass


class StoredObject(NamedTuple):
    payload_digest: bytes
    ciphertext: Envelope
    owner_public_key: bytes


@dataclass
class StorageUnit:
    unit_id: str
    alive: bool = True
    objects: dict[bytes, StoredObject] = field(default_factory=dict)


class RepairReport(NamedTuple):
    unit_id: str
    restored: tuple[bytes, ...]
    unrecoverable: tuple[bytes, ...]


class ReplicaStatus(NamedTuple):
    payload_digest: bytes
    expected: int
    live: int
    units: tuple[str, ...]

    @property
    def under_replicated(self) -> bool:
        return self.live < self.expected


class DataStore:
    def __init__(self, unit_ids: list[str], replication_factor: int = 3):
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if len(set(unit_ids)) != len(unit_ids):
            raise ValueError("duplicate unit ids")
        self.replication_factor = replication_factor
        self.units: dict[str, StorageUnit] = {uid: StorageUnit(unit_id=uid) for uid in unit_ids}
        # placement chosen at put time, remembered for audit and recovery
        self.placements: dict[bytes, tuple[str, ...]] = {}

    def placement_for(self, payload_digest: bytes) -> tuple[str, ...]:
        """Rendezvous placement over the live units."""
        pool = [u.unit_id for u in self.units.values() if u.alive]
        if len(pool) < self.replication_factor:
            raise StorageError(
                f"need {self.replication_factor} live units, have {len(pool)}"
            )
        ranked = sorted(pool, key=lambda uid: digest(payload_digest + uid.encode()), reverse=True)
        return tuple(ranked[: self.replication_factor])

    def put(self, obj: StoredObject) -> tuple[str, ...]:
        """Place on replication_factor distinct live units; re-putting an
        already-stored digest is a no-op returning the original placement."""
        existing = self.placements.get(obj.payload_digest)
        if existing is not None:
            return existing
        placement = self.placement_for(obj.payload_digest)
        for uid in placement:
            self.units[uid].objects[obj.payload_digest] = obj
        self.placements[obj.payload_digest] = placement
        return placement

    def get(self, payload_digest: bytes) -> StoredObject | None:
        placement = self.placements.get(payload_digest)
        if placement is None:
            return None
        for uid in placement:
            unit = self.units[uid]
            if unit.alive and payload_digest in unit.objects:
                return unit.objects[payload_digest]
        return None

    def fail_unit(self, unit_id: str) -> None:
        """The unit is destroyed: it serves nothing and its contents are
        gone until recovered from replicas."""
        unit = self._unit(unit_id)
        unit.alive = False
        unit.objects.clear()

    def recover_unit(self, unit_id: str) -> RepairReport:
        """Bring a unit back and re-copy everything placed on it from
        surviving replicas. Recovering a live unit is a no-op."""
        unit = self._unit(unit_id)
        if unit.alive:
            return RepairReport(unit_id=unit_id, restored=(), unrecoverable=())
        unit.alive = True
        restored = []
        unrecoverable = []
        for payload_digest, placement in self.placements.items():
            if unit_id not in placement:
                continue
            source = self.get(payload_digest)
            if source is None:
                unrecoverable.append(payload_digest)
            elif payload_digest not in unit.objects:
                unit.objects[payload_digest] = source
                restored.append(payload_digest)
        return RepairReport(
            unit_id=unit_id, restored=tuple(restored), unrecoverable=tuple(unrecoverable)
        )

    def audit(self) -> list[ReplicaStatus]:
        """Live replica count per object, flagging under-replication."""
        out = []
        for payload_digest, placement in self.placements.items():
            live = sum(
                1
                for uid in placement
                if self.units[uid].alive and payload_digest in self.units[uid].objects
            )
            out.append(
                ReplicaStatus(
                    payload_digest=payload_digest,
                    expected=self.replication_factor,
                    live=live,
                    units=placement,
                )
            )
        out.sort(key=lambda s: s.payload_digest)
        return out

    def _unit(self, unit_id: str) -> StorageUnit:
        if unit_id not in self.units:
            raise StorageError(f"unknown unit {unit_id}")
        return self.units[unit_id]
