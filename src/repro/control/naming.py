"""Name services (§3.2 "Name services").

Different InterEdge services use different name/address spaces (pub/sub has
topics, multicast has groups); for point-to-point services, resolution must
return not just the destination address but also one or more SNs associated
with the destination host — the sender's SN needs a next hop.

The resolver layers on the global lookup service's address records and adds
a human-name → address directory (a DNS stand-in).
"""

from __future__ import annotations

from dataclasses import dataclass

from .lookup import GlobalLookupService


class NamingError(Exception):
    """Raised when resolution fails."""


@dataclass(frozen=True)
class Resolution:
    """The result of resolving a point-to-point name."""

    name: str
    address: str
    associated_sns: tuple[str, ...]

    @property
    def primary_sn(self) -> str:
        if not self.associated_sns:
            raise NamingError(f"{self.name} has no associated SN")
        return self.associated_sns[0]


class NameService:
    """Point-to-point name resolution for the InterEdge."""

    def __init__(self, lookup: GlobalLookupService) -> None:
        self._lookup = lookup
        self._names: dict[str, str] = {}  # name -> address
        self.resolutions = 0

    def register_name(self, name: str, address: str) -> None:
        self._names[name] = address

    def deregister_name(self, name: str) -> bool:
        return self._names.pop(name, None) is not None

    def resolve(self, name: str) -> Resolution:
        """Resolve a name to (address, associated SNs).

        Raises:
            NamingError: unknown name or address without a lookup record.
        """
        self.resolutions += 1
        address = self._names.get(name, name if "." in name else None)
        if address is None:
            raise NamingError(f"unknown name {name!r}")
        record = self._lookup.address_record(address)
        if record is None:
            raise NamingError(f"no lookup record for {address}")
        return Resolution(
            name=name,
            address=address,
            associated_sns=tuple(record.associated_sns),
        )
