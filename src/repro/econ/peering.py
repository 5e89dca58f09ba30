"""Settlement-free peering ledger (§5).

Every edomain peers settlement-free with every other edomain: ILP traffic
between edomains moves no money. The ledger records inter-edomain traffic
and enforces the invariant — any attempt to post a settlement charge for
ILP peering traffic is rejected, and the zero-balance property is
checkable at all times. Customer payments (host owners, application and
content providers paying their IESPs) flow through a separate account set.
"""

from __future__ import annotations

from dataclasses import dataclass


class PeeringError(Exception):
    """Raised when a settlement would violate the settlement-free rule."""


@dataclass
class TrafficRecord:
    src_edomain: str
    dst_edomain: str
    bytes_sent: int = 0
    packets_sent: int = 0


class PeeringLedger:
    """Traffic accounting with an enforced settlement-free invariant."""

    def __init__(self) -> None:
        self._traffic: dict[tuple[str, str], TrafficRecord] = {}
        #: customer -> IESP payments (the *allowed* money flows)
        self.customer_payments: list[tuple[str, str, float]] = []
        #: edomain-to-edomain transfer attempts (must stay empty)
        self.settlement_attempts: list[tuple[str, str, float]] = []

    def record_traffic(
        self, src_edomain: str, dst_edomain: str, n_bytes: int, n_packets: int = 1
    ) -> None:
        key = (src_edomain, dst_edomain)
        record = self._traffic.setdefault(
            key, TrafficRecord(src_edomain, dst_edomain)
        )
        record.bytes_sent += n_bytes
        record.packets_sent += n_packets

    def traffic(self, src_edomain: str, dst_edomain: str) -> TrafficRecord:
        return self._traffic.get(
            (src_edomain, dst_edomain), TrafficRecord(src_edomain, dst_edomain)
        )

    def imbalance(self, a: str, b: str) -> int:
        """Byte asymmetry between two edomains (informational only —
        settlement-free means it never triggers payment)."""
        return self.traffic(a, b).bytes_sent - self.traffic(b, a).bytes_sent

    def post_settlement(self, payer: str, payee: str, amount: float) -> None:
        """Attempting inter-edomain settlement is a protocol violation."""
        self.settlement_attempts.append((payer, payee, amount))
        raise PeeringError(
            f"settlement-free peering forbids {payer} paying {payee} "
            f"{amount:.2f} for ILP traffic"
        )

    def pay_iesp(self, customer: str, iesp: str, amount: float) -> None:
        """The legitimate money flow: customers pay their own IESP."""
        if amount < 0:
            raise PeeringError("payments cannot be negative")
        self.customer_payments.append((customer, iesp, amount))

    def interdomain_balance(self) -> float:
        """Total money moved between edomains — invariantly zero."""
        return 0.0  # post_settlement always raises; nothing can accrue

    def edomain_revenue(self, iesp: str) -> float:
        return sum(amount for _c, i, amount in self.customer_payments if i == iesp)
