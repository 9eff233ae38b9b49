"""User-based Security Model primitives for SNMPv3.

Key derivation, HMAC message authentication (MD5/SHA1, 96-bit tags) and
DES-CBC privacy.  Engine discovery itself lives in the client since it
needs a transport; this module keeps the per-session engine state.

secure and open (unprotect, once decoded) are the one path by which the
client and the agent protect an outgoing message and check an incoming
one.  Both work on the wire octets: a message is encoded once, and the
offset of its MAC is the one messages recorded while encoding or
decoding it, so a MAC is computed and checked over exactly the octets
that travel.  Password-derived keys are cached per (protocol,
passphrase), so sessions sharing a credential derive them once.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import secrets
import threading
import time
from dataclasses import dataclass, field, replace

from cryptography.hazmat.primitives.ciphers import Cipher, modes
try:  # single-DES moved to the decrepit module in newer releases
    from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
except ImportError:  # pragma: no cover
    from cryptography.hazmat.primitives.ciphers.algorithms import TripleDES

from . import messages
from .errors import (
    AuthenticationError, DecodingError, NotInTimeWindowError, SnmpError,
)
from .messages import FLAG_AUTH, FLAG_PRIV, V3Message

AUTH_MD5 = "md5"
AUTH_SHA1 = "sha1"
PRIV_DES = "des"

MAC_LENGTH = 12
TIME_WINDOW = 150  # seconds of tolerated clock skew before resync

_DIGESTS = {AUTH_MD5: hashlib.md5, AUTH_SHA1: hashlib.sha1}
_MEGABYTE = 1024 * 1024


@dataclass(frozen=True)
class Credential:
    """An SNMPv3 user with optional auth and priv secrets."""

    user: str
    auth: tuple | None = None  # (protocol, passphrase)
    priv: tuple | None = None

    def __post_init__(self):
        if self.priv is not None and self.auth is None:
            raise SnmpError("priv requires auth")

    @property
    def security_level(self):
        if self.priv is not None:
            return "authPriv"
        if self.auth is not None:
            return "authNoPriv"
        return "noAuthNoPriv"

    @property
    def security_flags(self):
        """The msgFlags auth and priv bits of this user's security level."""
        return (FLAG_AUTH if self.auth is not None else 0) | \
            (FLAG_PRIV if self.priv is not None else 0)

    @classmethod
    def create(cls, user, auth=None, priv=None):
        """Accepts bare passphrases; the auth protocol defaults to md5."""
        return cls(user, _coerce_secret(auth, AUTH_MD5, _DIGESTS),
                   _coerce_secret(priv, PRIV_DES, {PRIV_DES: None}))


def _coerce_secret(spec, default_protocol, known):
    if spec is None:
        return None
    if isinstance(spec, str):
        return (default_protocol, spec)
    protocol, passphrase = spec
    if protocol not in known:
        raise SnmpError(f"unsupported protocol {protocol!r}")
    return (protocol, passphrase)


def _octets(passphrase):
    return passphrase.encode("utf-8") if isinstance(passphrase, str) \
        else bytes(passphrase)


def password_to_key(passphrase, protocol):
    """Digest 1 MiB of the cyclically repeated passphrase (RFC 3414 style)."""
    if not passphrase:
        raise SnmpError("empty passphrase")
    digest = _DIGESTS[protocol]()
    data = _octets(passphrase)
    repeated = data * (_MEGABYTE // len(data) + 1)
    digest.update(repeated[:_MEGABYTE])
    return digest.digest()


@functools.lru_cache(maxsize=64)
def _cached_key(protocol, passphrase):
    return password_to_key(passphrase, protocol)


def master_key(passphrase, protocol):
    """password_to_key, computed once per (protocol, passphrase octets)
    while the pair stays among the 64 most recently used."""
    return _cached_key(protocol, _octets(passphrase))


def localize_key(key, engine_id, protocol):
    """Bind a password-derived key to one peer engine."""
    return _DIGESTS[protocol](key + bytes(engine_id) + key).digest()


def sign(message, localized_key, protocol):
    """HMAC over the message (auth_params zero-filled), truncated to 12 octets."""
    return hmac.new(localized_key, message, _DIGESTS[protocol]).digest()[:MAC_LENGTH]


def verify(message, localized_key, protocol, mac):
    return hmac.compare_digest(sign(message, localized_key, protocol), bytes(mac))


class _SaltCounter:
    """Process-wide monotonically increasing 32-bit salt, randomly seeded."""

    def __init__(self):
        self._lock = threading.Lock()
        self._value = secrets.randbelow(2 ** 32)

    def next(self):
        with self._lock:
            self._value = (self._value + 1) % 2 ** 32
            return self._value


_salt_counter = _SaltCounter()


def _des_cipher(localized_priv_key, iv):
    key = localized_priv_key[:8]
    return Cipher(TripleDES(key * 3), modes.CBC(iv))


def encrypt_scoped_pdu(plaintext, localized_priv_key, engine_boots, salt=None):
    """DES-CBC encrypt; returns (ciphertext, 8-octet priv_params)."""
    if len(localized_priv_key) < 16:
        raise SnmpError("priv key material shorter than 16 octets")
    if salt is None:
        salt = _salt_counter.next()
    priv_params = (engine_boots % 2 ** 32).to_bytes(4, "big") + \
        (salt % 2 ** 32).to_bytes(4, "big")
    pre_iv = localized_priv_key[8:16]
    iv = bytes(a ^ b for a, b in zip(pre_iv, priv_params))
    pad = (-len(plaintext)) % 8
    padded = plaintext + bytes(pad)
    enc = _des_cipher(localized_priv_key, iv).encryptor()
    return enc.update(padded) + enc.finalize(), priv_params


def decrypt_scoped_pdu(ciphertext, localized_priv_key, priv_params):
    if len(localized_priv_key) < 16:
        raise SnmpError("priv key material shorter than 16 octets")
    if len(priv_params) != 8:
        raise SnmpError(f"priv_params must be 8 octets, got {len(priv_params)}")
    if len(ciphertext) % 8:
        raise SnmpError("ciphertext length not a multiple of 8")
    pre_iv = localized_priv_key[8:16]
    iv = bytes(a ^ b for a, b in zip(pre_iv, priv_params))
    dec = _des_cipher(localized_priv_key, iv).decryptor()
    # trailing DES padding is delimited away by the inner BER length
    return dec.update(bytes(ciphertext)) + dec.finalize()


@dataclass
class EngineState:
    """Discovered peer engine identity, clock and localized keys.

    clock is the local time source the peer's engine time is extrapolated
    from; methods read it wherever their now is omitted.
    """

    engine_id: bytes = b""
    engine_boots: int = 0
    engine_time: int = 0  # the latest engine time received
    synced_at: float = field(default=0.0, compare=False)

    auth_key: bytes | None = None
    priv_key: bytes | None = None
    auth_protocol: str | None = None
    clock: object = field(default=time.monotonic, compare=False, repr=False)

    @property
    def discovered(self):
        return bool(self.engine_id)

    def adopt(self, engine_id, boots, engine_time, credential, now=None):
        """Take on a (new) engine identity; re-localizes keys when it changes."""
        engine_id = bytes(engine_id)
        if engine_id != self.engine_id:
            self.auth_key = self.priv_key = self.auth_protocol = None
            if credential.auth is not None:
                proto, passphrase = credential.auth
                self.auth_protocol = proto
                self.auth_key = localize_key(
                    master_key(passphrase, proto), engine_id, proto)
            if credential.priv is not None:
                self.priv_key = localize_key(
                    master_key(credential.priv[1], proto), engine_id, proto)
        self.engine_id = engine_id
        self.engine_boots = boots
        self.engine_time = engine_time
        self.synced_at = self.clock() if now is None else now

    def current_time(self, now=None):
        """Extrapolate the peer's engine time from the local clock."""
        if now is None:
            now = self.clock()
        return self.engine_time + int(now - self.synced_at)

    def in_time_window(self, peer_boots, peer_time, now=None):
        return peer_boots == self.engine_boots and \
            abs(peer_time - self.current_time(now)) <= TIME_WINDOW

    def advance(self, boots, engine_time, now=None):
        """Take an authentic message's engine clock, forward only.

        False, changing nothing, when the message is from an earlier boot
        or more than TIME_WINDOW seconds behind the latest time received
        (RFC 3414 section 3.2, step 7(b)).
        """
        if boots < self.engine_boots or boots == self.engine_boots and \
                engine_time < self.engine_time - TIME_WINDOW:
            return False
        if boots > self.engine_boots or engine_time > self.engine_time:
            self.engine_boots = boots
            self.engine_time = engine_time
            self.synced_at = self.clock() if now is None else now
        return True


# ---------------------------------------------------------------------------
# The wire path: one encode to send, one decode to receive


def secure(msg, keys, salt=None):
    """The wire octets of a V3Message, protected as its flags ask.

    keys is an EngineState.  With the priv flag, msg.scoped_pdu is
    encrypted into msg.encrypted_pdu (salt as for encrypt_scoped_pdu).
    With the auth flag, the message is encoded once with a zero MAC, and
    the MAC over those octets is written into them at the msg.mac_offset
    the encoding recorded (RFC 3414 section 6.3.1).
    """
    params = msg.usm
    if msg.flags & FLAG_PRIV:
        msg.encrypted_pdu, params.priv_params = encrypt_scoped_pdu(
            messages.encode_scoped_pdu(msg.scoped_pdu), keys.priv_key,
            params.engine_boots, salt)
    if not msg.flags & FLAG_AUTH:
        return messages.encode_message(msg)
    params.auth_params = bytes(MAC_LENGTH)
    wire = bytearray(messages.encode_message(msg))
    at = msg.mac_offset
    params.auth_params = sign(wire, keys.auth_key, keys.auth_protocol)
    wire[at:at + MAC_LENGTH] = params.auth_params
    return bytes(wire)


def secured_length(msg):
    """len(secure(msg, keys)), found without encrypting or signing."""
    msg = replace(msg, usm=replace(msg.usm))
    if msg.flags & FLAG_AUTH:
        msg.usm.auth_params = bytes(MAC_LENGTH)
    if msg.flags & FLAG_PRIV:
        n = len(messages.encode_scoped_pdu(msg.scoped_pdu))
        msg.encrypted_pdu, msg.usm.priv_params = bytes(n + -n % 8), bytes(8)
    return len(messages.encode_message(msg))


def open(wire, keys):
    """(msg, scoped PDU) of the octets of a v3 message: decode, then
    unprotect.  Raises DecodingError when they are not a v3 message."""
    msg = messages.decode_message(wire)
    if not isinstance(msg, V3Message):
        raise DecodingError("not an SNMPv3 message")
    return msg, unprotect(msg, wire, keys)


def unprotect(msg, wire, keys):
    """The scoped PDU of msg, decode_message(wire), with protection undone.

    keys is an EngineState.  A message asking for privacy when keys hold
    no privacy key raises SnmpError before its MAC or clock is looked at
    (RFC 3414 section 3.2 step 5).  With the auth flag, the MAC is checked
    over a copy of wire with the MAC at msg.mac_offset zeroed (RFC 3414
    section 6.3.2), so a sender's non-minimal BER verifies, and the engine
    clock must pass keys.advance; AuthenticationError, carrying msg, when
    either fails.  With the priv flag, the scoped PDU is decrypted, or
    DecodingError or SnmpError raised.
    """
    params = msg.usm
    if msg.flags & FLAG_PRIV and keys.priv_key is None:
        raise SnmpError("no privacy key to decrypt with")
    if msg.flags & FLAG_AUTH:
        if keys.auth_key is None or params.engine_id != keys.engine_id:
            raise AuthenticationError("no key for the message's engine", msg)
        if len(params.auth_params) != MAC_LENGTH:
            raise AuthenticationError("MAC has the wrong length", msg)
        blanked = bytearray(wire)
        at = msg.mac_offset
        blanked[at:at + MAC_LENGTH] = bytes(MAC_LENGTH)
        if not verify(blanked, keys.auth_key, keys.auth_protocol,
                      params.auth_params):
            raise AuthenticationError("message failed authentication", msg)
        if not keys.advance(params.engine_boots, params.engine_time):
            raise NotInTimeWindowError("message outside the time window", msg)
    if not msg.flags & FLAG_PRIV:
        return msg.scoped_pdu
    plaintext = decrypt_scoped_pdu(msg.encrypted_pdu, keys.priv_key,
                                   params.priv_params)
    return messages.decode_scoped_pdu(plaintext)[0]
