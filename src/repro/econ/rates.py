"""Published rate cards and nondiscrimination (§5 "how do we ensure
neutrality?").

Each IESP must publish standard rates and serve everyone on those terms.
Prices may vary by service, volume tier, and location — but never by
customer identity. :class:`RateCard` encodes exactly that structure, and
:class:`BillingEngine` computes charges from it; because the card has no
customer dimension, identical usage is priced identically by construction,
and the auditor (:mod:`repro.econ.neutrality`) verifies observed invoices.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class RateError(Exception):
    """Raised for malformed rate cards or unknown services."""


@dataclass(frozen=True)
class VolumeTier:
    """Price applies to usage at or above ``min_gb`` (up to the next tier)."""

    min_gb: float
    price_per_gb: float


@dataclass
class ServiceRate:
    service_id: int
    base_monthly: float
    tiers: list[VolumeTier]
    region_multipliers: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.tiers:
            raise RateError("a service rate needs at least one tier")
        mins = [tier.min_gb for tier in self.tiers]
        if mins != sorted(mins) or mins[0] != 0.0:
            raise RateError("tiers must start at 0 and be ascending")


@dataclass(frozen=True)
class Invoice:
    customer: str
    service_id: int
    region: str
    volume_gb: float
    amount: float


class RateCard:
    """One IESP's published standard rates."""

    def __init__(self, iesp: str) -> None:
        self.iesp = iesp
        self._rates: dict[int, ServiceRate] = {}
        self.published = False

    def set_rate(self, rate: ServiceRate) -> None:
        self._rates[rate.service_id] = rate

    def publish(self) -> None:
        """Make the card public — a precondition for selling (§5)."""
        if not self._rates:
            raise RateError("cannot publish an empty rate card")
        self.published = True

    def rate_for(self, service_id: int) -> ServiceRate:
        try:
            return self._rates[service_id]
        except KeyError:
            raise RateError(
                f"{self.iesp} publishes no rate for service {service_id}"
            ) from None

    def services(self) -> list[int]:
        return sorted(self._rates)

    def price(self, service_id: int, region: str, volume_gb: float) -> float:
        """Price a month of usage. Customer identity is *not* an input."""
        if volume_gb < 0:
            raise RateError("volume cannot be negative")
        rate = self.rate_for(service_id)
        multiplier = rate.region_multipliers.get(region, 1.0)
        total = rate.base_monthly
        # Marginal tiered pricing over the volume.
        boundaries = [tier.min_gb for tier in rate.tiers] + [float("inf")]
        for i, tier in enumerate(rate.tiers):
            lo, hi = boundaries[i], boundaries[i + 1]
            if volume_gb <= lo:
                break
            total += (min(volume_gb, hi) - lo) * tier.price_per_gb
        return total * multiplier


class BillingEngine:
    """Computes invoices strictly from a published rate card."""

    def __init__(self, card: RateCard) -> None:
        self.card = card
        self.invoices: list[Invoice] = []

    def bill(
        self, customer: str, service_id: int, region: str, volume_gb: float
    ) -> Invoice:
        if not self.card.published:
            raise RateError(f"{self.card.iesp} has not published rates")
        invoice = Invoice(
            customer=customer,
            service_id=service_id,
            region=region,
            volume_gb=volume_gb,
            amount=self.card.price(service_id, region, volume_gb),
        )
        self.invoices.append(invoice)
        return invoice
