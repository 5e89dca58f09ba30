"""A-MCAST — multipoint membership-plane scaling (§6.2).

The paper's changed anycast/multicast semantics (sender registration) buy
state proportionality: an SN holds state only for groups with local
members or senders; the core holds per-(group, member-SN) entries; the
lookup service per-(group, member-edomain) entries. This benchmark sweeps
groups × members, measures join throughput, and asserts the state bounds.
"""

from __future__ import annotations

import pytest

from repro.control.core_store import CoreStore
from repro.control.lookup import GlobalLookupService
from repro.control.membership import EdomainMembershipCore, SNMembershipAgent
from repro.core.crypto import KeyPair

from .conftest import report

_results: list[dict] = []


def _world(n_edomains: int, sns_per_edomain: int):
    lookup = GlobalLookupService()
    owner = KeyPair.generate()
    cores = {}
    agents = []
    for d in range(n_edomains):
        name = f"dom{d}"
        cores[name] = EdomainMembershipCore(name, CoreStore(name), lookup)
        for s in range(sns_per_edomain):
            agents.append(
                SNMembershipAgent(f"10.{d}.{s}.1", cores[name], lookup)
            )
    return lookup, owner, cores, agents


def _register_hosts(lookup, n: int) -> list[str]:
    hosts = []
    for i in range(n):
        addr = f"192.168.{i // 250}.{i % 250 + 1}"
        lookup.register_address(addr, KeyPair.generate())
        hosts.append(addr)
    return hosts


def _join_storm(n_groups: int, members_per_group: int):
    lookup, owner, cores, agents = _world(n_edomains=4, sns_per_edomain=4)
    for g in range(n_groups):
        group = f"g{g}"
        lookup.register_group(group, owner)
        lookup.post_open_group(group, owner)
    hosts = _register_hosts(lookup, members_per_group)
    joins = 0
    for g in range(n_groups):
        for m, host in enumerate(hosts):
            agent = agents[(g + m) % len(agents)]
            assert agent.join(f"g{g}", host)
            joins += 1
    return lookup, cores, agents, joins


@pytest.mark.parametrize(
    "n_groups,members", [(10, 10), (50, 20), (100, 50)]
)
def test_join_throughput_and_state(benchmark, n_groups, members):
    lookup, cores, agents, joins = benchmark.pedantic(
        _join_storm, args=(n_groups, members), rounds=1, iterations=1
    )
    state = lookup.state_size()
    # Lookup state is bounded by groups x edomains, NOT groups x members.
    assert state["group_edomain_entries"] <= n_groups * 4
    core_entries = sum(
        core.state_size()["member_entries"] for core in cores.values()
    )
    # Core state is bounded by groups x SNs, NOT groups x members.
    assert core_entries <= n_groups * 16
    if benchmark.stats is None:  # --benchmark-disable: no timing row
        return
    time_s = benchmark.stats.stats.mean
    _results.append(
        {
            "groups": n_groups,
            "members/group": members,
            "joins/s": f"{joins / time_s:,.0f}",
            "lookup entries": state["group_edomain_entries"],
            "core entries": core_entries,
        }
    )


def test_sender_watch_fanout(benchmark):
    """A sender's view stays fresh under churn; cost is per-event O(watchers)."""

    def run():
        lookup, owner, cores, agents = _world(n_edomains=2, sns_per_edomain=8)
        lookup.register_group("busy", owner)
        lookup.post_open_group("busy", owner)
        hosts = _register_hosts(lookup, 64)
        sender_agent = agents[0]
        lookup.register_address("192.168.99.1", KeyPair.generate())
        sender_agent.register_sender("busy", "192.168.99.1")
        # Churn: join/leave across all other SNs.
        for i, host in enumerate(hosts):
            agents[1 + i % (len(agents) - 1)].join("busy", host)
        for i, host in enumerate(hosts[::2]):
            agents[1 + (i * 2) % (len(agents) - 1)].leave("busy", host)
        return sender_agent

    sender_agent = benchmark.pedantic(run, rounds=1, iterations=1)
    # The view matches the core's ground truth after all the churn.
    truth = sender_agent.core.member_sns("busy")
    assert sender_agent.member_sns_in_edomain("busy") == truth


def teardown_module(module):
    if _results:
        report(
            "A-MCAST: membership plane scaling",
            _results,
            ["groups", "members/group", "joins/s", "lookup entries", "core entries"],
        )
