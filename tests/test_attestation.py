"""Unit tests for the software TPM and attestation verification."""

import random

import pytest

from repro.core.attestation import (
    AttestationError,
    AttestationVerifier,
    GoldenMeasurements,
    PCR_BOOT,
    PCR_SERVICES,
    SoftwareTPM,
    measure,
    replay_pcrs,
)
from repro.core.crypto import SignatureRegistry
from repro.core.ilp import ILPHeader, TLV
from repro.core.packet import make_payload
from repro.services.attest import (
    OP_QUOTE,
    AttestationClient,
    decode_quote_reply,
    encode_quote_reply,
)


@pytest.fixture
def registry():
    return SignatureRegistry()


@pytest.fixture
def tpm(registry):
    tpm = SoftwareTPM()
    registry.register(tpm.keypair)
    return tpm


class TestPCRs:
    def test_start_zeroed(self):
        assert SoftwareTPM().pcr(0) == b"\x00" * 32

    def test_extend_changes_value(self, tpm):
        before = tpm.pcr(PCR_BOOT)
        tpm.extend(PCR_BOOT, measure(b"bootloader"))
        assert tpm.pcr(PCR_BOOT) != before

    def test_extend_order_matters(self):
        t1, t2 = SoftwareTPM(), SoftwareTPM()
        a, b = measure(b"a"), measure(b"b")
        t1.extend(0, a)
        t1.extend(0, b)
        t2.extend(0, b)
        t2.extend(0, a)
        assert t1.pcr(0) != t2.pcr(0)

    def test_extend_validates_inputs(self, tpm):
        with pytest.raises(AttestationError):
            tpm.extend(99, measure(b"x"))
        with pytest.raises(AttestationError):
            tpm.extend(0, b"not-32-bytes")

    def test_replay_matches_live(self, tpm):
        tpm.extend(0, measure(b"a"))
        tpm.extend(2, measure(b"b"))
        replayed = replay_pcrs(tpm.extend_log)
        assert replayed[0] == tpm.pcr(0)
        assert replayed[2] == tpm.pcr(2)


class TestQuoteVerification:
    def test_valid_quote_verifies(self, tpm, registry):
        tpm.extend(PCR_SERVICES, measure(b"module"))
        quote = tpm.quote(b"nonce-7")
        verifier = AttestationVerifier(registry)
        assert verifier.verify(quote, b"nonce-7", tpm.extend_log)

    def test_wrong_nonce_rejected(self, tpm, registry):
        quote = tpm.quote(b"nonce-7")
        assert not AttestationVerifier(registry).verify(
            quote, b"nonce-8", tpm.extend_log
        )

    def test_forged_signature_rejected(self, tpm, registry):
        quote = tpm.quote(b"n")
        forged = type(quote)(
            tpm_public=quote.tpm_public,
            nonce=quote.nonce,
            pcr_digest=quote.pcr_digest,
            signature=b"\x00" * 32,
        )
        assert not AttestationVerifier(registry).verify(forged, b"n", tpm.extend_log)

    def test_unregistered_tpm_rejected(self, registry):
        rogue = SoftwareTPM()  # never registered
        quote = rogue.quote(b"n")
        assert not AttestationVerifier(registry).verify(quote, b"n", rogue.extend_log)

    def test_log_digest_mismatch_rejected(self, tpm, registry):
        tpm.extend(0, measure(b"real"))
        quote = tpm.quote(b"n")
        fake_log = [(0, measure(b"tampered"))]
        assert not AttestationVerifier(registry).verify(quote, b"n", fake_log)

    def test_selected_pcr_indices(self, tpm, registry):
        tpm.extend(3, measure(b"enclave"))
        quote = tpm.quote(b"n", indices=[3])
        assert AttestationVerifier(registry).verify(
            quote, b"n", tpm.extend_log, indices=[3]
        )

    def test_golden_measurements_enforced(self, tpm, registry):
        good = measure(b"approved-module")
        tpm.extend(PCR_SERVICES, good)
        quote = tpm.quote(b"n")
        golden = GoldenMeasurements()
        golden.allow(PCR_SERVICES, good)
        verifier = AttestationVerifier(registry, golden)
        assert verifier.verify(quote, b"n", tpm.extend_log)

    def test_unapproved_measurement_rejected(self, tpm, registry):
        tpm.extend(PCR_SERVICES, measure(b"malware"))
        quote = tpm.quote(b"n")
        golden = GoldenMeasurements()
        golden.allow(PCR_SERVICES, measure(b"approved-module"))
        verifier = AttestationVerifier(registry, golden)
        assert not verifier.verify(quote, b"n", tpm.extend_log)


class TestQuoteReplyWire:
    """The quote reply crosses the network as typed bytes, never pickle."""

    def _reply(self, tpm):
        tpm.extend(PCR_BOOT, measure(b"boot"))
        tpm.extend(PCR_SERVICES, measure(b"module"))
        quote = tpm.quote(b"nonce-7")
        return quote, encode_quote_reply(quote, tpm.extend_log)

    def test_round_trip(self, tpm, registry):
        quote, wire = self._reply(tpm)
        decoded, extend_log = decode_quote_reply(wire)
        assert decoded == quote
        assert extend_log == tpm.extend_log
        assert AttestationVerifier(registry).verify(decoded, b"nonce-7", extend_log)

    def test_empty_log_round_trips(self):
        quote = SoftwareTPM().quote(b"")
        assert decode_quote_reply(encode_quote_reply(quote, [])) == (quote, [])

    def test_every_truncation_is_rejected(self, tpm):
        _quote, wire = self._reply(tpm)
        for cut in range(len(wire)):
            with pytest.raises(AttestationError):
                decode_quote_reply(wire[:cut])

    def test_trailing_bytes_are_rejected(self, tpm):
        _quote, wire = self._reply(tpm)
        with pytest.raises(AttestationError):
            decode_quote_reply(wire + b"\x00")

    def test_out_of_range_pcr_is_rejected(self, tpm):
        quote, _wire = self._reply(tpm)
        with pytest.raises(AttestationError):
            decode_quote_reply(encode_quote_reply(quote, [(200, measure(b"x"))]))

    def test_garbage_never_escapes_as_another_exception(self):
        rng = random.Random(0x5EED)
        for _ in range(500):
            blob = rng.randbytes(rng.randrange(0, 96))
            try:
                decode_quote_reply(blob)
            except AttestationError:
                pass

    def test_a_pickle_is_just_garbage_to_the_client(self):
        """The old reply format must fail closed, not execute."""
        import pickle

        class _Host:
            def on_service_control(self, service_id, handler):
                self.deliver = handler

        host = _Host()
        client = AttestationClient(
            host=host, verifier=AttestationVerifier(SignatureRegistry())
        )
        client.install()
        header = ILPHeader(service_id=0, connection_id=1, tlvs={TLV.SERVICE_OPTS: OP_QUOTE})
        host.deliver(1, header, make_payload(pickle.dumps({"quote": 1})))
        assert client.results == [False]
