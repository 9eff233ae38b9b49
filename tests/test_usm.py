import copy
import hashlib
import hmac as hmac_mod
import sys
import threading

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, modes
from hypothesis import given, settings, strategies as st

from snmpkit import ber, messages, usm
from snmpkit.errors import AuthenticationError, SnmpError
from snmpkit.messages import (
    FLAG_AUTH, FLAG_PRIV, RESPONSE, Pdu, ScopedPdu, UsmParams, V3Message,
    VarBind,
)

# Published key-derivation vectors: passphrase "maplesyrup",
# engine id 00 00 00 00 00 00 00 00 00 00 00 02.
ENGINE_ID = bytes.fromhex("000000000000000000000002")

MD5_KU = bytes.fromhex("9faf3283884e92834ebc9847d8edd963")
MD5_KUL = bytes.fromhex("526f5eed9fcce26f8964c2930787d82b")
SHA1_KU = bytes.fromhex("9fb5cc0381497b3793528939ff788d5d79145211")
SHA1_KUL = bytes.fromhex("6695febc9288e36282235fc7151f128497b38f3f")

try:  # single-DES moved to the decrepit module in newer releases
    from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
except ImportError:  # pragma: no cover
    from cryptography.hazmat.primitives.ciphers.algorithms import TripleDES


class TestKeyDerivation:
    def test_md5_password_to_key(self):
        assert usm.password_to_key("maplesyrup", usm.AUTH_MD5) == MD5_KU

    def test_md5_localize(self):
        assert usm.localize_key(MD5_KU, ENGINE_ID, usm.AUTH_MD5) == MD5_KUL

    def test_sha1_password_to_key(self):
        assert usm.password_to_key("maplesyrup", usm.AUTH_SHA1) == SHA1_KU

    def test_sha1_localize(self):
        assert usm.localize_key(SHA1_KU, ENGINE_ID, usm.AUTH_SHA1) == SHA1_KUL

    def test_empty_passphrase_rejected(self):
        with pytest.raises(SnmpError):
            usm.password_to_key("", usm.AUTH_MD5)

    def test_independent_oracle(self):
        # recompute the 1 MiB digest with plain hashlib as a cross-check
        data = b"maplesyrup"
        repeated = (data * (1024 * 1024 // len(data) + 1))[:1024 * 1024]
        assert hashlib.md5(repeated).digest() == MD5_KU
        assert hashlib.sha1(repeated).digest() == SHA1_KU


class TestSignVerify:
    def test_mac_is_12_octets(self):
        mac = usm.sign(b"msg", MD5_KUL, usm.AUTH_MD5)
        assert len(mac) == usm.MAC_LENGTH == 12

    def test_matches_hmac_oracle(self):
        message = b"some snmp message bytes"
        expected = hmac_mod.new(SHA1_KUL, message,
                                hashlib.sha1).digest()[:12]
        assert usm.sign(message, SHA1_KUL, usm.AUTH_SHA1) == expected

    def test_verify_accepts_and_rejects(self):
        mac = usm.sign(b"payload", MD5_KUL, usm.AUTH_MD5)
        assert usm.verify(b"payload", MD5_KUL, usm.AUTH_MD5, mac)
        assert not usm.verify(b"payloae", MD5_KUL, usm.AUTH_MD5, mac)
        assert not usm.verify(b"payload", SHA1_KUL[:16], usm.AUTH_MD5, mac)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=256),
           st.sampled_from([usm.AUTH_MD5, usm.AUTH_SHA1]))
    def test_sign_verify_property(self, message, proto):
        key = usm.localize_key(usm.password_to_key("pw", proto),
                               ENGINE_ID, proto)
        assert usm.verify(message, key, proto,
                          usm.sign(message, key, proto))


class TestDesPrivacy:
    KEY = MD5_KUL  # any 16-octet localized key works

    def test_round_trip(self):
        ct, priv_params = usm.encrypt_scoped_pdu(b"0\x03\x02\x01\x05",
                                                 self.KEY, 7, salt=123)
        assert len(priv_params) == 8
        assert len(ct) % 8 == 0
        pt = usm.decrypt_scoped_pdu(ct, self.KEY, priv_params)
        assert pt.startswith(b"0\x03\x02\x01\x05")

    def test_priv_params_layout(self):
        _, priv_params = usm.encrypt_scoped_pdu(b"x", self.KEY, 7, salt=9)
        assert priv_params == (7).to_bytes(4, "big") + (9).to_bytes(4, "big")

    def test_different_salts_differ(self):
        a, _ = usm.encrypt_scoped_pdu(b"same plaintext!!", self.KEY, 1, salt=1)
        b, _ = usm.encrypt_scoped_pdu(b"same plaintext!!", self.KEY, 1, salt=2)
        assert a != b

    def test_wrong_key_garbles(self):
        ct, pp = usm.encrypt_scoped_pdu(b"secret material!", self.KEY, 1,
                                        salt=5)
        other = usm.localize_key(usm.password_to_key("other", usm.AUTH_MD5),
                                 ENGINE_ID, usm.AUTH_MD5)
        assert usm.decrypt_scoped_pdu(ct, other, pp)[:16] != \
            b"secret material!"

    def test_bad_ciphertext_length(self):
        with pytest.raises(SnmpError):
            usm.decrypt_scoped_pdu(b"\x00" * 7, self.KEY, b"\x00" * 8)

    def test_short_key_rejected(self):
        with pytest.raises(SnmpError):
            usm.encrypt_scoped_pdu(b"x", b"\x00" * 8, 1)

    def test_decrypt_rejects_a_short_key(self):
        with pytest.raises(SnmpError, match="shorter than 16"):
            usm.decrypt_scoped_pdu(b"\x00" * 8, self.KEY[:8], b"\x00" * 8)

    def test_decrypt_rejects_seven_octet_priv_params(self):
        with pytest.raises(SnmpError, match="8 octets, got 7"):
            usm.decrypt_scoped_pdu(b"\x00" * 8, self.KEY, b"\x00" * 7)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=1, max_size=200), st.integers(0, 2 ** 31),
           st.integers(0, 2 ** 32 - 1))
    def test_encrypt_decrypt_property(self, plaintext, boots, salt):
        ct, pp = usm.encrypt_scoped_pdu(plaintext, self.KEY, boots, salt=salt)
        pt = usm.decrypt_scoped_pdu(ct, self.KEY, pp)
        assert pt[:len(plaintext)] == plaintext
        assert len(pt) - len(plaintext) < 8


def _reference_context(key, priv_params):
    """A fresh DES-CBC context for one message (RFC 3414 section 8.1.1.1):
    key's first 8 octets, and as IV its last 8 XOR priv_params."""
    iv = bytes(a ^ b for a, b in zip(key[8:16], priv_params))
    return Cipher(TripleDES(key[:8] * 3), modes.CBC(iv))


def _reference_encrypt(plaintext, key, priv_params):
    enc = _reference_context(key, priv_params).encryptor()
    return enc.update(plaintext + bytes(-len(plaintext) % 8)) + \
        enc.finalize()


def _reference_decrypt(ciphertext, key, priv_params):
    dec = _reference_context(key, priv_params).decryptor()
    return dec.update(ciphertext) + dec.finalize()


_KEPT_KEYS = st.lists(st.binary(min_size=16, max_size=20), min_size=2,
                      max_size=3, unique_by=lambda k: k[:16])
_DES_CALLS = st.lists(st.tuples(
    st.booleans(), st.integers(0, 2), st.binary(max_size=300),
    st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1)),
    min_size=1, max_size=12)


class TestKeptDesContexts:
    """DES contexts kept open per localized key encrypt and decrypt every
    message as a fresh context with the message's own IV does."""

    @settings(max_examples=150, deadline=None)
    @given(_KEPT_KEYS, _DES_CALLS)
    def test_interleaved_keys_match_fresh_contexts(self, keys, calls):
        for encrypting, which, data, boots, salt in calls:
            key = keys[which % len(keys)]
            if encrypting:
                ct, pp = usm.encrypt_scoped_pdu(data, key, boots, salt=salt)
                assert pp == (boots.to_bytes(4, "big")
                              + salt.to_bytes(4, "big"))
                assert ct == _reference_encrypt(data, key, pp)
                assert usm.decrypt_scoped_pdu(ct, key, pp)[:len(data)] == \
                    data
            else:
                ct = data[:len(data) - len(data) % 8]
                pp = salt.to_bytes(4, "big") + boots.to_bytes(4, "big")
                assert usm.decrypt_scoped_pdu(ct, key, pp) == \
                    _reference_decrypt(ct, key, pp)

    def test_empty_plaintext_and_ciphertext_give_nothing(self):
        ct, pp = usm.encrypt_scoped_pdu(b"", MD5_KUL, 1, salt=2)
        assert ct == b""
        assert usm.decrypt_scoped_pdu(b"", MD5_KUL, pp) == b""

    def test_threads_sharing_a_key(self):
        key = hashlib.sha1(b"kept context shared by threads").digest()
        start = threading.Barrier(4)
        results = [[] for _ in range(4)]

        def encrypt(out, n):
            start.wait()
            for i in range(200):
                plaintext = bytes([n, i]) * (1 + (n * 200 + i) % 150)
                out.append((plaintext, *usm.encrypt_scoped_pdu(
                    plaintext, key, n, salt=i)))
        threads = [threading.Thread(target=encrypt, args=(results[n], n))
                   for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside each call
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert sum(map(len, results)) == 800
        for plaintext, ct, pp in (r for out in results for r in out):
            assert ct == _reference_encrypt(plaintext, key, pp)


class TestCredential:
    def test_priv_requires_auth(self):
        with pytest.raises(SnmpError):
            usm.Credential("u", None, (usm.PRIV_DES, "pw"))

    def test_create_coerces_bare_passphrases(self):
        cred = usm.Credential.create("u", "authpw", "privpw")
        assert cred.auth == (usm.AUTH_MD5, "authpw")
        assert cred.priv == (usm.PRIV_DES, "privpw")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SnmpError):
            usm.Credential.create("u", ("sha512", "pw"))


class TestEngineState:
    def test_adopt_localizes_keys(self):
        cred = usm.Credential.create("u", ("md5", "maplesyrup"))
        state = usm.EngineState()
        assert not state.discovered
        state.adopt(ENGINE_ID, 3, 1000, cred, now=50.0)
        assert state.discovered
        assert state.auth_key == MD5_KUL

    def test_priv_key_uses_auth_protocol(self):
        cred = usm.Credential.create("u", ("md5", "maplesyrup"),
                                     ("des", "maplesyrup"))
        state = usm.EngineState()
        state.adopt(ENGINE_ID, 3, 1000, cred)
        assert state.priv_key == MD5_KUL

    def test_engine_change_relocalizes(self):
        cred = usm.Credential.create("u", ("md5", "maplesyrup"))
        state = usm.EngineState()
        state.adopt(ENGINE_ID, 1, 0, cred)
        first = state.auth_key
        state.adopt(b"\x00" * 11 + b"\x03", 1, 0, cred)
        assert state.auth_key != first

    def test_time_extrapolation(self):
        cred = usm.Credential.create("u")
        state = usm.EngineState()
        state.adopt(ENGINE_ID, 2, 1000, cred, now=100.0)
        assert state.current_time(now=130.0) == 1030

    def test_advance_moves_the_clock_forward_only(self):
        state = usm.EngineState(engine_boots=2, engine_time=1000)
        assert state.advance(2, 1000 - usm.TIME_WINDOW, now=5.0)
        assert (state.engine_boots, state.engine_time) == (2, 1000)
        assert state.advance(2, 1200, now=6.0)
        assert (state.engine_time, state.synced_at) == (1200, 6.0)
        assert not state.advance(2, 1200 - usm.TIME_WINDOW - 1)
        assert not state.advance(1, 5000)
        assert state.advance(3, 7)
        assert (state.engine_boots, state.engine_time) == (3, 7)


class TestKeyCache:
    CRED = usm.Credential.create("u", ("sha1", "cache-auth-pass"),
                                 ("des", "cache-priv-pass"))

    def test_states_sharing_a_credential_derive_each_key_once(
            self, monkeypatch):
        calls = []
        real = usm.password_to_key

        def counting(passphrase, protocol):
            calls.append((protocol, passphrase))
            return real(passphrase, protocol)

        monkeypatch.setattr(usm, "password_to_key", counting)
        usm._cached_key.cache_clear()
        states = []
        for engine_id in (ENGINE_ID, b"\x80" + bytes(11), ENGINE_ID):
            state = usm.EngineState()
            state.adopt(engine_id, 1, 0, self.CRED)
            states.append(state)
        assert sorted(calls) == [(usm.AUTH_SHA1, b"cache-auth-pass"),
                                 (usm.AUTH_SHA1, b"cache-priv-pass")]
        assert states[0].auth_key == states[2].auth_key != states[1].auth_key
        assert states[0].priv_key == usm.localize_key(
            real("cache-priv-pass", usm.AUTH_SHA1), ENGINE_ID, usm.AUTH_SHA1)

    def test_keyed_by_protocol_and_passphrase_octets(self):
        assert usm.master_key("maplesyrup", usm.AUTH_MD5) == MD5_KU
        assert usm.master_key(b"maplesyrup", usm.AUTH_SHA1) == SHA1_KU
        assert usm.master_key("maplesyrup", usm.AUTH_SHA1) == SHA1_KU
        assert usm.master_key("maplesyrup!", usm.AUTH_SHA1) != SHA1_KU

    def test_empty_passphrase_still_rejected(self):
        with pytest.raises(SnmpError):
            usm.master_key("", usm.AUTH_SHA1)


class TestSecuredLength:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([0, FLAG_AUTH, FLAG_AUTH | FLAG_PRIV]),
           st.lists(st.binary(max_size=200), max_size=4),
           st.binary(min_size=1, max_size=32), st.integers(0, 2 ** 31 - 1))
    def test_is_the_length_of_the_secured_octets(self, flags, values,
                                                 engine_id, engine_time):
        keys = usm.EngineState()
        keys.adopt(engine_id, 3, engine_time, usm.Credential.create(
            "user", ("sha1", "authpass"), ("des", "privpass")))
        bindings = [VarBind(ber.Oid((1, 3, 6, 1, 2, 1, 1, i)),
                            ber.OctetString(value))
                    for i, value in enumerate(values)]
        msg = V3Message(7, flags, UsmParams(engine_id, 3, engine_time,
                                            b"user"),
                        ScopedPdu(engine_id, b"", Pdu(RESPONSE, 5,
                                                      bindings=bindings)))
        framed = usm.frame(copy.deepcopy(msg))
        assert len(framed) == len(usm.secure(msg, keys))


class TestUnprotect:
    AUTH = ("sha1", "authpass123")

    def _secured(self, flags):
        """(msg, wire) of a Response secured as flags ask, and the keys
        of its authPriv sender."""
        keys = usm.EngineState()
        keys.adopt(ENGINE_ID, 1, 100, usm.Credential.create(
            "user", self.AUTH, ("des", "privpass123")))
        msg = V3Message(7, flags, UsmParams(ENGINE_ID, 1, 100, b"user"),
                        ScopedPdu(ENGINE_ID, b"", Pdu(RESPONSE, 5)))
        return usm.secure(msg, keys), keys

    def test_privacy_without_a_privacy_key(self):
        """Refused before the MAC is looked at: the auth key alone, which
        would verify it, holds no key to decrypt with."""
        wire, _ = self._secured(FLAG_AUTH | FLAG_PRIV)
        auth_only = usm.EngineState()
        auth_only.adopt(ENGINE_ID, 1, 100,
                        usm.Credential.create("user", self.AUTH))
        msg = messages.decode_message(wire)
        with pytest.raises(SnmpError, match="no privacy key"):
            usm.unprotect(msg, wire, auth_only)

    @pytest.mark.parametrize("length", [0, 11, 13])
    def test_mac_of_the_wrong_length(self, length):
        wire, keys = self._secured(FLAG_AUTH)
        msg = messages.decode_message(wire)
        msg.usm.auth_params = b"\x00" * length
        wire = messages.encode_message(msg)
        msg = messages.decode_message(wire)
        with pytest.raises(AuthenticationError, match="wrong length"):
            usm.unprotect(msg, wire, keys)
