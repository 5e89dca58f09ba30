"""Group membership for multipoint services (§6.2 "Multipoint delivery").

The paper's protocol, implemented faithfully:

* **Receivers join** a group by sending a join message to their first-hop
  SN, carrying an owner-authorizing signature (or relying on a signed
  open-group statement in the lookup service).
* **Senders must register** with their first-hop SN before sending
  (the changed anycast/multicast semantics that buy scalability).
* When an SN gains its **first local member** of a group it notifies the
  edomain core; when the edomain gains its first member the core notifies
  the global lookup service. Symmetric teardown on last-leave.
* When a **sender registers**, the SN reads from the core the set of other
  local SNs with members and installs a watch; the core reads from the
  lookup service the set of member edomains and installs a watch.

Resulting knowledge (asserted by tests, measured by A-MCAST):

* every SN knows the group memberships of its own hosts;
* every SN with a local sender knows all member SNs in its edomain;
* every core knows the memberships of its SNs, and for groups with a local
  sender, which other edomains have members;
* the lookup service knows which edomains have members of each group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core_store import CoreStore
from .lookup import GlobalLookupService


class MembershipError(Exception):
    """Raised on protocol violations (unauthorized join, unregistered send)."""


def _members_key(group: str) -> str:
    return f"groups/{group}/member-sns"


def _senders_key(group: str) -> str:
    return f"groups/{group}/sender-sns"


@dataclass
class GroupView:
    """What one SN knows about a group it has a sender for."""

    local_member_sns: set[str] = field(default_factory=set)
    watching: bool = False
    #: core-store watch token, held so the watch can be torn down when the
    #: last local sender unregisters (tests/test_watch_teardown.py)
    watch_token: Optional[int] = None


class EdomainMembershipCore:
    """The membership half of an edomain core."""

    def __init__(
        self, edomain_name: str, store: CoreStore, lookup: GlobalLookupService
    ) -> None:
        self.edomain_name = edomain_name
        self.store = store
        self.lookup = lookup
        #: groups for which this edomain watches the lookup service
        self._lookup_watched: set[str] = set()
        #: group -> remote member edomains (kept fresh by lookup watches)
        self.remote_member_edomains: dict[str, set[str]] = {}

    # -- member-side (driven by SN join/leave notices) -----------------------
    def sn_gained_member(self, group: str, sn_address: str) -> None:
        first_in_edomain = self.store.set_size(_members_key(group)) == 0
        self.store.add(_members_key(group), sn_address)
        if first_in_edomain:
            self.lookup.add_group_edomain(group, self.edomain_name)

    def sn_lost_member(self, group: str, sn_address: str) -> None:
        self.store.remove(_members_key(group), sn_address)
        if self.store.set_size(_members_key(group)) == 0:
            self.lookup.remove_group_edomain(group, self.edomain_name)

    # -- sender-side ----------------------------------------------------------
    def sn_registered_sender(self, group: str, sn_address: str) -> set[str]:
        """Record a sender; begin watching the lookup service for the group.

        Returns the current set of *other* edomains with members.
        """
        self.store.add(_senders_key(group), sn_address)
        if group not in self._lookup_watched:
            self._lookup_watched.add(group)
            self.lookup.watch_group(group, self._on_lookup_update)
            edomains = self.lookup.group_edomains(group)
            edomains.discard(self.edomain_name)
            self.remote_member_edomains[group] = edomains
        return set(self.remote_member_edomains.get(group, set()))

    def sn_unregistered_sender(self, group: str, sn_address: str) -> None:
        self.store.remove(_senders_key(group), sn_address)
        if (
            self.store.set_size(_senders_key(group)) == 0
            and group in self._lookup_watched
        ):
            # Last sender in the edomain gone: stop watching the lookup
            # service and drop the remote-edomain view it was maintaining.
            self._lookup_watched.discard(group)
            self.lookup.unwatch_group(group, self._on_lookup_update)
            self.remote_member_edomains.pop(group, None)

    def purge_sn(self, sn_address: str) -> int:
        """Remove a dead SN from every group it appears in (§3.3 repair).

        Called by the failover coordinator when an SN is declared dead:
        senders must stop fanning out to it, and the lookup service must
        forget this edomain for groups whose only member SN it was. Goes
        through :meth:`sn_lost_member` / :meth:`sn_unregistered_sender`
        so watches and lookup bookkeeping fire exactly as on a voluntary
        leave. Returns the number of entries removed.
        """
        removed = 0
        for key in self.store.keys("groups/"):
            group = key.split("/")[1]
            if key.endswith("/member-sns") and sn_address in self.store.members(key):
                self.sn_lost_member(group, sn_address)
                removed += 1
            elif key.endswith("/sender-sns") and sn_address in self.store.members(
                key
            ):
                self.sn_unregistered_sender(group, sn_address)
                removed += 1
        return removed

    def _on_lookup_update(self, group: str, op: str, edomain: str) -> None:
        if edomain == self.edomain_name:
            return
        current = self.remote_member_edomains.setdefault(group, set())
        if op == "add":
            current.add(edomain)
        elif op == "remove":
            current.discard(edomain)

    # -- queries ----------------------------------------------------------
    def member_sns(self, group: str) -> set[str]:
        return self.store.members(_members_key(group))

    def member_edomains(self, group: str) -> set[str]:
        """Other edomains with members (valid for sender-registered groups)."""
        return set(self.remote_member_edomains.get(group, set()))

    def state_size(self) -> dict[str, int]:
        member_keys = [k for k in self.store.keys("groups/") if k.endswith("member-sns")]
        sender_keys = [k for k in self.store.keys("groups/") if k.endswith("sender-sns")]
        return {
            "groups_with_members": len(member_keys),
            "member_entries": sum(self.store.set_size(k) for k in member_keys),
            "sender_entries": sum(self.store.set_size(k) for k in sender_keys),
            "lookup_watches": len(self._lookup_watched),
        }


class SNMembershipAgent:
    """The membership bookkeeping inside one SN.

    Multipoint service modules (anycast/multicast/pubsub) delegate joins,
    leaves, and sender registration here; the agent talks to the edomain
    core and maintains the SN's local knowledge.
    """

    def __init__(
        self,
        sn_address: str,
        core: EdomainMembershipCore,
        lookup: GlobalLookupService,
    ) -> None:
        self.sn_address = sn_address
        self.core = core
        self.lookup = lookup
        #: group -> locally joined host addresses
        self.local_members: dict[str, set[str]] = {}
        #: group -> locally registered sender host addresses
        self.local_senders: dict[str, set[str]] = {}
        #: group -> view (only for groups with a local sender)
        self._views: dict[str, GroupView] = {}
        self.joins_rejected = 0

    # -- joins ------------------------------------------------------------
    def join(self, group: str, host: str, signature: bytes = b"") -> bool:
        """Validate and record a host's join (§6.2 authorization rules)."""
        record = self.lookup.address_record(host)
        joiner_public = record.owner_public if record else b""
        if not self.lookup.validate_join(group, joiner_public, signature):
            self.joins_rejected += 1
            return False
        members = self.local_members.setdefault(group, set())
        first = not members
        members.add(host)
        if first:
            self.core.sn_gained_member(group, self.sn_address)
        return True

    def leave(self, group: str, host: str) -> bool:
        members = self.local_members.get(group)
        if not members or host not in members:
            return False
        members.remove(host)
        if not members:
            self.core.sn_lost_member(group, self.sn_address)
            del self.local_members[group]
        return True

    # -- senders -----------------------------------------------------------
    def register_sender(self, group: str, host: str) -> GroupView:
        """Register a sender; build and watch the local-member-SN view."""
        self.local_senders.setdefault(group, set()).add(host)
        view = self._views.get(group)
        if view is None:
            view = GroupView()
            self._views[group] = view
            view.local_member_sns = self.core.member_sns(group)
            view.watch_token = self.core.store.watch(
                _members_key(group), self._on_member_update
            )
            view.watching = True
            self.core.sn_registered_sender(group, self.sn_address)
        return view

    def unregister_sender(self, group: str, host: str) -> None:
        senders = self.local_senders.get(group)
        if senders:
            senders.discard(host)
            if not senders:
                del self.local_senders[group]
                view = self._views.pop(group, None)
                if view is not None and view.watch_token is not None:
                    self.core.store.unwatch(_members_key(group), view.watch_token)
                    view.watch_token = None
                    view.watching = False
                self.core.sn_unregistered_sender(group, self.sn_address)

    def _on_member_update(self, key: str, op: str, sn_address: str) -> None:
        group = key.split("/")[1]
        view = self._views.get(group)
        if view is None:
            return
        if op == "add":
            view.local_member_sns.add(sn_address)
        elif op == "remove":
            view.local_member_sns.discard(sn_address)

    # -- queries ----------------------------------------------------------
    def is_sender(self, group: str, host: str) -> bool:
        return host in self.local_senders.get(group, set())

    def is_member(self, group: str, host: str) -> bool:
        return host in self.local_members.get(group, set())

    def members_of(self, group: str) -> set[str]:
        return set(self.local_members.get(group, set()))

    def member_sns_in_edomain(self, group: str) -> set[str]:
        """All member SNs in this edomain (valid when we have a sender)."""
        view = self._views.get(group)
        if view is not None:
            return set(view.local_member_sns)
        return self.core.member_sns(group)

    def member_edomains(self, group: str) -> set[str]:
        return self.core.member_edomains(group)

    def host_groups(self, host: str) -> set[str]:
        """All group memberships of one associated host (§6.2 knowledge)."""
        return {
            group
            for group, members in self.local_members.items()
            if host in members
        }

    def state_size(self) -> dict[str, int]:
        return {
            "groups_with_local_members": len(self.local_members),
            "member_entries": sum(len(m) for m in self.local_members.values()),
            "sender_groups": len(self.local_senders),
            "views": len(self._views),
        }


def make_join_grant(owner_keypair, group: str, joiner_public: bytes) -> bytes:
    """Owner-side helper producing the signature a join message carries."""
    return owner_keypair.sign(b"join-grant|" + group.encode() + b"|" + joiner_public)
