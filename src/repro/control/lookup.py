"""The global lookup service (§6.2).

The paper assumes IANA (or similar) operates a durable, scalable lookup
service that:

* binds each address to the **public key of its owner** — join messages to
  owned groups must carry a signature this key validates;
* stores **signed open-group statements** so anyone may join open groups;
* tracks, per group, **which edomains have members** (written by edomain
  cores when their first member joins) and supports watches so cores with
  senders learn about new member edomains;
* resolves point-to-point names to (address, associated SNs) — see
  :mod:`repro.control.naming` which layers on this.

One instance is shared by every edomain core in a federation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..core.crypto import KeyPair, SignatureRegistry

WatchCallback = Callable[[str, str, Any], None]


class LookupError_(Exception):
    """Raised on invalid lookup operations (trailing _ avoids the builtin)."""


@dataclass
class AddressRecord:
    owner_public: bytes
    associated_sns: list[str] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)


@dataclass
class OpenGroupStatement:
    """A signed statement that a group accepts all joiners."""

    group: str
    owner_public: bytes
    signature: bytes

    @staticmethod
    def message_for(group: str) -> bytes:
        return b"open-group|" + group.encode()


class GlobalLookupService:
    """The IANA-like registry shared across the whole InterEdge."""

    def __init__(self, registry: Optional[SignatureRegistry] = None) -> None:
        self.registry = registry or SignatureRegistry()
        self._addresses: dict[str, AddressRecord] = {}
        self._group_owners: dict[str, bytes] = {}
        self._open_groups: dict[str, OpenGroupStatement] = {}
        self._group_edomains: dict[str, set[str]] = {}
        self._service_nodes: dict[str, set[str]] = {}
        self._watches: dict[str, list[WatchCallback]] = {}
        self.queries = 0
        self.updates = 0

    # -- identity -----------------------------------------------------------
    def register_address(
        self,
        address: str,
        owner: KeyPair,
        associated_sns: Optional[list[str]] = None,
        **metadata: Any,
    ) -> None:
        self.registry.register(owner)
        self._addresses[address] = AddressRecord(
            owner_public=owner.public,
            associated_sns=list(associated_sns or []),
            metadata=dict(metadata),
        )
        self.updates += 1

    def upsert_alias(
        self,
        alias: str,
        owner_public: bytes,
        associated_sns: list[str],
        **metadata: Any,
    ) -> None:
        """Create/replace a derived record (e.g. a mobility binding) whose
        owner key is inherited from an existing registration."""
        self._addresses[alias] = AddressRecord(
            owner_public=owner_public,
            associated_sns=list(associated_sns),
            metadata=dict(metadata),
        )
        self.updates += 1

    def address_record(self, address: str) -> Optional[AddressRecord]:
        self.queries += 1
        return self._addresses.get(address)

    def owner_public(self, address: str) -> Optional[bytes]:
        record = self.address_record(address)
        return record.owner_public if record else None

    # -- groups -----------------------------------------------------------
    def register_group(self, group: str, owner: KeyPair) -> None:
        """Claim a group name; joins must be authorized by this owner."""
        self.registry.register(owner)
        self._group_owners[group] = owner.public
        self.updates += 1

    def post_open_group(self, group: str, owner: KeyPair) -> OpenGroupStatement:
        """Owner posts a signed everyone-may-join statement (§6.2)."""
        if self._group_owners.get(group) != owner.public:
            raise LookupError_(f"{group!r} not owned by this key")
        stmt = OpenGroupStatement(
            group=group,
            owner_public=owner.public,
            signature=owner.sign(OpenGroupStatement.message_for(group)),
        )
        self._open_groups[group] = stmt
        self.updates += 1
        return stmt

    def open_group_statement(self, group: str) -> Optional[OpenGroupStatement]:
        self.queries += 1
        stmt = self._open_groups.get(group)
        if stmt is None:
            return None
        if not self.registry.verify(
            stmt.owner_public, OpenGroupStatement.message_for(group), stmt.signature
        ):
            return None
        return stmt

    def validate_join(self, group: str, joiner: bytes, signature: bytes) -> bool:
        """Is this join authorized? Open group, or owner-signed grant."""
        if self.open_group_statement(group) is not None:
            return True
        owner = self._group_owners.get(group)
        if owner is None:
            return False
        grant = b"join-grant|" + group.encode() + b"|" + joiner
        return self.registry.verify(owner, grant, signature)

    # -- group → edomains (written by cores) --------------------------------
    def add_group_edomain(self, group: str, edomain: str) -> bool:
        added = edomain not in self._group_edomains.setdefault(group, set())
        if added:
            self._group_edomains[group].add(edomain)
            self.updates += 1
            self._notify(group, "add", edomain)
        return added

    def remove_group_edomain(self, group: str, edomain: str) -> bool:
        edomains = self._group_edomains.get(group, set())
        if edomain in edomains:
            edomains.remove(edomain)
            self.updates += 1
            self._notify(group, "remove", edomain)
            return True
        return False

    def group_edomains(self, group: str) -> set[str]:
        self.queries += 1
        return set(self._group_edomains.get(group, set()))

    def watch_group(self, group: str, callback: WatchCallback) -> None:
        self._watches.setdefault(group, []).append(callback)

    def unwatch_group(self, group: str, callback: WatchCallback) -> bool:
        """Remove one registration of ``callback`` on ``group``.

        Returns True if a registration was removed. Watchers must call this
        on teardown — a leaked watch keeps delivering updates to (and
        keeps alive) a subscriber that no longer wants them.
        """
        callbacks = self._watches.get(group)
        if not callbacks:
            return False
        try:
            callbacks.remove(callback)
        except ValueError:
            return False
        if not callbacks:
            del self._watches[group]
        return True

    def _notify(self, group: str, op: str, edomain: str) -> None:
        for callback in list(self._watches.get(group, ())):
            callback(group, op, edomain)

    # -- service directory ---------------------------------------------------
    # A durable registry of which SNs participate in a named service role
    # (e.g. message-queue homes). Used for rendezvous hashing across
    # edomains, the same way the group→edomain table serves multipoint.
    def register_service_node(self, service_name: str, sn_address: str) -> None:
        self._service_nodes.setdefault(service_name, set()).add(sn_address)
        self.updates += 1

    def deregister_service_node(self, service_name: str, sn_address: str) -> None:
        self._service_nodes.get(service_name, set()).discard(sn_address)

    def service_nodes(self, service_name: str) -> set[str]:
        self.queries += 1
        return set(self._service_nodes.get(service_name, set()))

    def service_keys(self, prefix: str = "") -> list[str]:
        """All registered service-directory keys starting with ``prefix``."""
        return sorted(k for k in self._service_nodes if k.startswith(prefix))

    # -- stats ----------------------------------------------------------
    def state_size(self) -> dict[str, int]:
        """State-footprint accounting for the A-MCAST benchmark."""
        return {
            "addresses": len(self._addresses),
            "groups": len(self._group_owners),
            "group_edomain_entries": sum(
                len(v) for v in self._group_edomains.values()
            ),
            "watches": sum(len(v) for v in self._watches.values()),
        }
