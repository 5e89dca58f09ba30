"""Coverage brokers (§5).

With standard rates published openly, brokers can stitch together coverage
from several smaller IESPs on a customer's behalf — the paper's mechanism
for letting collections of small IESPs compete with global providers.

A broker takes a set of regions a customer wants covered plus every IESP's
published card + coverage map, and solves for the cheapest assignment of
one IESP per region (a weighted set-cover special case that is exact here
because coverage is per-region independent once rates are public).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rates import RateCard, RateError


class BrokerError(Exception):
    """Raised when requested coverage is unachievable."""


@dataclass
class IESPOffer:
    """One IESP as visible to brokers: published card + covered regions."""

    name: str
    card: RateCard
    regions: set[str]

    def __post_init__(self) -> None:
        if not self.card.published:
            raise BrokerError(f"{self.name}'s rate card is not published")


@dataclass
class CoveragePlan:
    """The broker's stitched result."""

    assignments: dict[str, str]  # region -> IESP name
    total_monthly: float
    per_region: dict[str, float]

    @property
    def iesps_used(self) -> set[str]:
        return set(self.assignments.values())


class CoverageBroker:
    """Stitches multi-IESP coverage from published rates."""

    def __init__(self, offers: list[IESPOffer]) -> None:
        self.offers = list(offers)

    def plan(
        self, service_id: int, regions: list[str], volume_gb_per_region: float
    ) -> CoveragePlan:
        """Cheapest per-region assignment across all offering IESPs.

        Raises:
            BrokerError: if some region has no covering IESP that sells the
                service.
        """
        assignments: dict[str, str] = {}
        per_region: dict[str, float] = {}
        for region in regions:
            best_name: Optional[str] = None
            best_price = float("inf")
            for offer in self.offers:
                if region not in offer.regions:
                    continue
                try:
                    price = offer.card.price(service_id, region, volume_gb_per_region)
                except RateError:
                    continue
                if price < best_price:
                    best_price = price
                    best_name = offer.name
            if best_name is None:
                raise BrokerError(
                    f"no IESP covers region {region!r} for service {service_id}"
                )
            assignments[region] = best_name
            per_region[region] = best_price
        return CoveragePlan(
            assignments=assignments,
            total_monthly=sum(per_region.values()),
            per_region=per_region,
        )

    def compare_with_global(
        self,
        service_id: int,
        regions: list[str],
        volume_gb_per_region: float,
        global_offer: IESPOffer,
    ) -> tuple[CoveragePlan, float]:
        """Broker-stitched plan vs one global IESP's price for all regions."""
        plan = self.plan(service_id, regions, volume_gb_per_region)
        global_total = 0.0
        for region in regions:
            if region not in global_offer.regions:
                raise BrokerError(
                    f"global IESP {global_offer.name} lacks region {region!r}"
                )
            global_total += global_offer.card.price(
                service_id, region, volume_gb_per_region
            )
        return plan, global_total
