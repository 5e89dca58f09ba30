"""Property-based tests: offload engine, QoS specs, media, peering ledger."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core.ilp import ILPHeader
from repro.core.offload import (
    ActionKind,
    Match,
    MatchField,
    OffloadAction,
    OffloadError,
    OffloadQuota,
    TerminusOffloadEngine,
)
from repro.econ import PeeringLedger
from repro.libs.media import MediaLibrary, PROFILES
from repro.services.qos import QoSSpec, StreamClass


class TestOffloadProperties:
    @given(
        installs=st.lists(
            st.integers(min_value=1, max_value=8), min_size=0, max_size=40
        ),
        quota=st.integers(min_value=1, max_value=10),
    )
    def test_quota_never_exceeded(self, installs, quota):
        engine = TerminusOffloadEngine(OffloadQuota(max_rules=quota))
        for service_id in installs:
            try:
                engine.install_rule(
                    service_id,
                    (Match(MatchField.PAYLOAD_LEN_GT, 0),),
                    OffloadAction(ActionKind.DROP),
                )
            except OffloadError:
                pass
        for program in engine.programs():
            assert len(program.rules) <= quota

    @given(
        own=st.integers(min_value=1, max_value=100),
        other=st.integers(min_value=1, max_value=100),
    )
    def test_isolation_is_total(self, own, other):
        if own == other:
            other = own + 1
        engine = TerminusOffloadEngine()
        engine.install_rule(
            own, (Match(MatchField.PAYLOAD_LEN_GT, -1),), OffloadAction(ActionKind.DROP)
        )
        header = ILPHeader(service_id=other, connection_id=1)
        assert engine.process("s", header, 100, 0.0) is None


class TestQoSSpecProperties:
    classes = st.lists(
        st.builds(
            StreamClass,
            name=st.text(min_size=1, max_size=10, alphabet="abcxyz"),
            src_prefix=st.sampled_from(
                ["10.0.0.0/8", "192.168.1.0/24", "172.16.0.0/12"]
            ),
            priority=st.integers(min_value=0, max_value=7),
            weight=st.floats(min_value=0.1, max_value=10.0),
        ),
        min_size=1,
        max_size=5,
        unique_by=lambda c: c.name,
    )

    @given(link=st.floats(min_value=1e4, max_value=1e9), classes=classes)
    def test_json_roundtrip(self, link, classes):
        spec = QoSSpec(link_bps=link, classes=classes)
        restored = QoSSpec.from_json(spec.to_json())
        assert restored.link_bps == pytest.approx(link)
        assert restored.classes == classes


class TestMediaProperties:
    @given(
        size=st.integers(min_value=1, max_value=4096),
        profile=st.sampled_from(sorted(PROFILES)),
    )
    def test_transcode_describe_roundtrip(self, size, profile):
        lib = MediaLibrary()
        encoded = lib.transcode(bytes(size), profile)
        name, original, body = MediaLibrary.describe(encoded)
        assert name == profile
        assert original == size
        assert 1 <= body <= size

    @given(size=st.integers(min_value=10, max_value=4096))
    def test_lower_bitrate_never_bigger(self, size):
        lib = MediaLibrary()
        chunk = bytes(size)
        sizes = {
            p: len(lib.transcode(chunk, p)) for p in ("1080p", "720p", "480p")
        }
        assert sizes["480p"] <= sizes["720p"] <= sizes["1080p"]


class TestLedgerProperties:
    @given(
        flows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=1, max_value=10_000),
            ),
            max_size=60,
        )
    )
    def test_traffic_accounting_is_exact_and_settlement_free(self, flows):
        ledger = PeeringLedger()
        expected: dict[tuple[str, str], int] = {}
        for src, dst, n_bytes in flows:
            if src == dst:
                continue
            ledger.record_traffic(src, dst, n_bytes)
            expected[(src, dst)] = expected.get((src, dst), 0) + n_bytes
        for (src, dst), total in expected.items():
            assert ledger.traffic(src, dst).bytes_sent == total
        assert ledger.interdomain_balance() == 0.0
