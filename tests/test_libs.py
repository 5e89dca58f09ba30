"""Unit tests for the execution-environment libraries."""

import pytest

from repro.core.crypto import CryptoError
from repro.libs import standard_libraries
from repro.libs.cryptolib import CryptoLibrary
from repro.libs.media import MediaError, MediaLibrary, PROFILES
from repro.libs.regexlib import RegexLibrary


class TestCryptoLibrary:
    def test_encrypt_decrypt(self):
        lib = CryptoLibrary()
        key = lib.random_key()
        blob = lib.encrypt(key, b"payload")
        assert lib.decrypt(key, blob) == b"payload"
        assert b"payload" not in blob

    def test_wrong_key_fails(self):
        lib = CryptoLibrary()
        blob = lib.encrypt(lib.random_key(), b"x")
        with pytest.raises(CryptoError):
            lib.decrypt(lib.random_key(), blob)

    def test_short_blob_rejected(self):
        lib = CryptoLibrary()
        with pytest.raises(CryptoError):
            lib.decrypt(lib.random_key(), b"short")

    def test_onion_wrap_peel(self):
        lib = CryptoLibrary()
        keys = [lib.random_key() for _ in range(3)]
        blob = lib.onion_wrap(keys, b"core")
        for key in keys:
            blob = lib.onion_peel(key, blob)
        assert blob == b"core"

    def test_onion_peel_order_matters(self):
        lib = CryptoLibrary()
        keys = [lib.random_key() for _ in range(2)]
        blob = lib.onion_wrap(keys, b"core")
        with pytest.raises(CryptoError):
            lib.onion_peel(keys[1], blob)  # inner key cannot peel outer layer

    def test_operation_counter(self):
        lib = CryptoLibrary()
        lib.sha256(b"x")
        lib.hmac(lib.random_key(), b"x")
        assert lib.operations == 2


class TestRegexLibrary:
    def test_match_and_hits(self):
        lib = RegexLibrary()
        lib.add_rule("sql-injection", rb"(?i)union\s+select")
        assert lib.match("sql-injection", b"x' UNION SELECT password")
        assert not lib.match("sql-injection", b"ordinary payload")
        assert lib.hits("sql-injection") == 1

    def test_scan_all_rules(self):
        lib = RegexLibrary()
        lib.add_rule("a", rb"AAA")
        lib.add_rule("b", rb"BBB")
        assert lib.scan(b"...AAA...BBB...") == ["a", "b"]
        assert lib.scan(b"nothing") == []

    def test_remove_rule(self):
        lib = RegexLibrary()
        lib.add_rule("a", rb"x")
        assert lib.remove_rule("a") is True
        assert lib.remove_rule("a") is False
        assert lib.rule_names() == []

    def test_string_pattern_accepted(self):
        lib = RegexLibrary()
        lib.add_rule("s", "hello")
        assert lib.match("s", b"say hello")


class TestMediaLibrary:
    def test_transcode_shrinks_by_ratio(self):
        lib = MediaLibrary()
        chunk = bytes(1000)
        encoded = lib.transcode(chunk, "480p")
        profile, original, body = MediaLibrary.describe(encoded)
        assert profile == "480p"
        assert original == 1000
        assert body == int(1000 * PROFILES["480p"].bitrate_ratio)

    def test_unknown_profile_rejected(self):
        with pytest.raises(MediaError):
            MediaLibrary().transcode(b"x", "8k-imax")

    def test_describe_rejects_non_transcoded(self):
        with pytest.raises(MediaError):
            MediaLibrary.describe(b"raw bytes")

    def test_counters(self):
        lib = MediaLibrary()
        lib.transcode(bytes(100), "720p")
        assert lib.chunks_encoded == 1
        assert lib.bytes_in == 100
        assert 0 < lib.bytes_out < 100 + 32

    def test_cpu_cost_scales_with_size(self):
        lib = MediaLibrary()
        assert lib.cpu_cost(2000, "720p") == pytest.approx(
            2 * lib.cpu_cost(1000, "720p")
        )


class TestRegistryIntegration:
    def test_standard_set_complete(self):
        libs = standard_libraries()
        assert set(libs) == {"crypto", "regex", "media"}

    def test_install_into_env(self, single_sn_net):
        sn = next(iter(single_sn_net.edomains["solo"].sns.values()))
        for name in ("crypto", "regex", "media"):
            assert sn.env.libs.has(name)
