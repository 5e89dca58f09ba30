#!/usr/bin/env python3
"""Enterprise security: ZTNA + operator-imposed firewall (§3.2, §6).

An enterprise combines two InterEdge deployment shapes:

* a **pass-through SN** at its boundary imposes a firewall on *all*
  traffic (third invocation mode, §3.2);
* employees reach the internal wiki through the standardized **ZTNA**
  service at the IESP's SN, with device posture shipped in fragmented ILP
  setup headers (§B.2) and mid-connection cache evictions handled by the
  service's internal connection table.

Run:  python examples/ztna_enterprise.py
"""

from repro import InterEdge, WellKnownService
from repro.core.ilp import Flags
from repro.core.service_node import ServiceNode
from repro.services import standard_registry
from repro.services.firewall import ImposedFirewall, Rule, RuleSet
from repro.services.ztna import PosturePolicy, ZTNAPolicy, make_setup_packets


def main() -> None:
    net = InterEdge(registry=standard_registry())
    net.create_edomain("biz-iesp")
    edge_sn = net.add_sn("biz-iesp", name="iesp-pop")
    dc_sn = net.add_sn("biz-iesp", name="iesp-dc")
    net.peer_all()
    net.deploy_required_services()

    # --- the enterprise boundary: a pass-through SN with an imposed FW ----
    gateway = ServiceNode(net.sim, "corp-gw", "10.50.0.1", edomain_name="biz-iesp")
    gateway.directory = net.directory
    net.directory.register(gateway.address, "biz-iesp", via=edge_sn.address)
    gateway.establish_pipe(edge_sn, latency=0.001)
    rules = RuleSet(default_allow=True)
    rules.add(Rule(allow=False, dst_prefix="203.0.113.0/24"))  # blocked SaaS
    gateway.configure_pass_through(next_hop=edge_sn.address, chain=[ImposedFirewall(rules)])

    laptop = net.add_host(gateway, name="laptop", latency=0.0005)
    wiki = net.add_host(dc_sn, name="wiki", register_name="wiki.corp")

    # --- ZTNA policy at the IESP SN --------------------------------------
    ztna = edge_sn.env.service(WellKnownService.ZTNA)
    ztna.policy = ZTNAPolicy(posture=PosturePolicy(min_os_build=22000, require_agent=True))
    ztna.policy.grant(wiki.address, "erin@corp")

    def open_ztna(identity: str, posture: dict) -> None:
        conn = laptop.connect(
            WellKnownService.ZTNA, dest_addr=wiki.address, allow_direct=False
        )
        packets = make_setup_packets(identity, posture, fragment_size=48)
        for i, tlvs in enumerate(packets):
            last = i == len(packets) - 1
            laptop.send(
                conn,
                b"GET /wiki/runbooks" if last else b"",
                extra_tlvs=dict(tlvs),
                first=(i == 0),
                extra_flags=0 if last else Flags.MORE_HEADER,
            )
        net.run(1.0)

    # A compliant employee gets through...
    open_ztna("erin@corp", {"os_build": 23100, "agent": True, "patches": ["kb1", "kb2"]})
    wiki_got = [p.data for _, p in wiki.delivered if p.data]
    print(f"wiki received from compliant laptop: {wiki_got}")
    assert wiki_got == [b"GET /wiki/runbooks"]

    # ...an out-of-date machine does not...
    open_ztna("erin@corp", {"os_build": 19042, "agent": True})
    assert len([p for _, p in wiki.delivered if p.data]) == 1
    print(f"stale-OS attempt denied (denials={ztna.denials})")

    # ...and the imposed firewall blocks the banned SaaS outright.
    conn = laptop.connect(
        WellKnownService.IP_DELIVERY, dest_addr="203.0.113.9", allow_direct=False
    )
    laptop.send(conn, b"upload")
    net.run(1.0)
    print(
        "imposed firewall drops to banned prefix:",
        gateway.terminus.stats.drops_by_service,
    )
    assert gateway.terminus.stats.drops_by_service == 1


if __name__ == "__main__":
    main()
