"""Neutrality auditing (§5).

The InterEdge's neutrality rule: an IESP may vary prices by service type,
volume, and location — never by customer identity — and may not refuse
service selectively. The auditor checks a set of observed invoices and
service decisions against those rules and reports violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rates import Invoice, RateCard


@dataclass(frozen=True)
class Violation:
    kind: str  # "price-discrimination" | "off-card-price" | "service-denial"
    detail: str


@dataclass
class ServiceDecision:
    """An observed accept/deny of a customer's service request."""

    customer: str
    service_id: int
    region: str
    accepted: bool
    reason: str = ""


class NeutralityAuditor:
    """Checks an IESP's observed behavior against its published card."""

    def __init__(self, card: RateCard, tolerance: float = 1e-9) -> None:
        self.card = card
        self.tolerance = tolerance

    def audit_invoices(self, invoices: list[Invoice]) -> list[Violation]:
        violations: list[Violation] = []
        # Rule 1: every invoice must match the published card exactly.
        for inv in invoices:
            expected = self.card.price(inv.service_id, inv.region, inv.volume_gb)
            if abs(inv.amount - expected) > self.tolerance:
                violations.append(
                    Violation(
                        kind="off-card-price",
                        detail=(
                            f"{inv.customer}: billed {inv.amount:.4f} for "
                            f"service {inv.service_id} ({inv.volume_gb} GB in "
                            f"{inv.region}), card says {expected:.4f}"
                        ),
                    )
                )
        # Rule 2: identical (service, region, volume) must cost the same for
        # every customer — detects discrimination even if the card itself
        # was quietly edited between invoices.
        seen: dict[tuple[int, str, float], tuple[str, float]] = {}
        for inv in invoices:
            key = (inv.service_id, inv.region, inv.volume_gb)
            if key in seen:
                other_customer, other_amount = seen[key]
                if (
                    abs(inv.amount - other_amount) > self.tolerance
                    and inv.customer != other_customer
                ):
                    violations.append(
                        Violation(
                            kind="price-discrimination",
                            detail=(
                                f"{inv.customer} pays {inv.amount:.4f} but "
                                f"{other_customer} pays {other_amount:.4f} for "
                                f"identical usage {key}"
                            ),
                        )
                    )
            else:
                seen[key] = (inv.customer, inv.amount)
        return violations

    def audit_decisions(self, decisions: list[ServiceDecision]) -> list[Violation]:
        """Denying a customer a (service, region) that was accepted for
        another customer is a neutrality violation."""
        accepted: dict[tuple[int, str], str] = {}
        for dec in decisions:
            if dec.accepted:
                accepted[(dec.service_id, dec.region)] = dec.customer
        violations = []
        for dec in decisions:
            if dec.accepted:
                continue
            key = (dec.service_id, dec.region)
            if key in accepted:
                violations.append(
                    Violation(
                        kind="service-denial",
                        detail=(
                            f"{dec.customer} denied service {dec.service_id} in "
                            f"{dec.region} (reason: {dec.reason!r}) while "
                            f"{accepted[key]} is served"
                        ),
                    )
                )
        return violations

    def audit(
        self,
        invoices: list[Invoice],
        decisions: Optional[list[ServiceDecision]] = None,
    ) -> list[Violation]:
        violations = self.audit_invoices(invoices)
        if decisions:
            violations.extend(self.audit_decisions(decisions))
        return violations
