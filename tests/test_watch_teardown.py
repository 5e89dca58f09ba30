"""Control-plane watches do not outlive the state that registered them.

The end-state relation: run a workload that registers watches (multipoint
sender churn, resilience on and off), and every core-store watcher count
is back where it started, and no detached callback fires when the keys it
watched change again. A leaked watch keeps delivering control-plane
pushes to a subscriber that no longer wants them.
"""

from __future__ import annotations

from repro import WellKnownService
from repro.core.ilp import TLV
from repro.services.multipoint import (
    OP_UNREGISTER_SENDER,
    join_group,
    leave_group,
    register_sender,
)

from tests.conftest import open_group, sns_of

GROUPS = ("alpha", "beta")
SERVICES = (WellKnownService.PUBSUB, WellKnownService.MULTICAST)


def _unregister_sender(host, service_id: int, group: str) -> bool:
    return host.send_control(
        service_id,
        {TLV.SERVICE_OPTS: OP_UNREGISTER_SENDER, TLV.TOPIC: group.encode()},
    )


WATCHED_KEYS = ["resilience/border"] + [
    f"groups/{prefix}:{group}/member-sns"
    for prefix in ("pubsub", "multicast")
    for group in GROUPS
]


def _watchers(net) -> dict[tuple[str, str], int]:
    return {
        (name, key): edomain.store.watcher_count(key)
        for name, edomain in net.edomains.items()
        for key in WATCHED_KEYS
    }


def _hosts(net):
    west, east = sns_of(net, "west"), sns_of(net, "east")
    return {
        "w0": net.add_host(west[0], name="w0"),
        "w1": net.add_host(west[1], name="w1"),
        "e0": net.add_host(east[0], name="e0"),
        "e1": net.add_host(east[1], name="e1"),
    }


def _sender_churn(net, hosts, rounds: int = 3) -> dict[tuple[str, str], int]:
    """Senders on every SN register and unregister, with members on both
    sides joining and leaving in between. Returns the watcher counts seen
    while every sender was registered."""
    registered: dict[tuple[str, str], int] = {}
    owner = hosts["w0"]
    for group in GROUPS:
        open_group(net, owner, group)
    for _ in range(rounds):
        for service in SERVICES:
            for group in GROUPS:
                join_group(hosts["e1"], service, group)
                join_group(hosts["w1"], service, group)
                for host in hosts.values():
                    register_sender(host, service, group)
        net.run(0.5)
        registered = _watchers(net)
        for service in SERVICES:
            for group in GROUPS:
                for host in hosts.values():
                    _unregister_sender(host, service, group)
                leave_group(hosts["e1"], service, group)
                leave_group(hosts["w1"], service, group)
        net.run(0.5)
    return registered


class TestWatchesEndWhereTheyStarted:
    def test_sender_churn_and_resilience_toggle(self, two_edomain_net):
        net = two_edomain_net
        hosts = _hosts(net)
        before = _watchers(net)

        registered = _sender_churn(net, hosts)
        # Every SN had a sender, so each group key had one watch per SN.
        assert all(
            count == 2 + before[name, key]
            for (name, key), count in registered.items()
            if key.startswith("groups/")
        )
        net.enable_resilience()
        assert all(
            net.edomains[name].store.watcher_count("resilience/border") == 2
            for name in ("west", "east")
        )
        agents = [sn.resilience_agent for sn in net.all_sns()]
        net.disable_resilience()
        net.sim.run_until_idle()

        assert _watchers(net) == before
        assert net.coordinator is None
        assert all(sn.resilience_agent is None for sn in net.all_sns())

        # Nothing detached hears a later change to what it used to watch.
        resyncs = [agent.resyncs for agent in agents]
        for edomain in net.edomains.values():
            edomain.store.put("resilience/probe", "after-disable")
        assert [agent.resyncs for agent in agents] == resyncs
        for service in SERVICES:
            for group in GROUPS:
                join_group(hosts["e0"], service, group)
                join_group(hosts["w0"], service, group)
        net.run(0.5)
        for edomain in net.edomains.values():
            assert edomain.membership_core.remote_member_edomains == {}

    def test_enable_after_disable_rebuilds(self, two_edomain_net):
        net = two_edomain_net
        first = net.enable_resilience()
        agents = [sn.resilience_agent for sn in net.all_sns()]
        net.disable_resilience()
        second = net.enable_resilience()
        assert second is not first
        assert all(
            sn.resilience_agent is not None and sn.resilience_agent not in agents
            for sn in net.all_sns()
        )
        assert all(
            edomain.store.watcher_count("resilience/border") == 2
            for edomain in net.edomains.values()
        )
        net.disable_resilience()
        net.sim.run_until_idle()
