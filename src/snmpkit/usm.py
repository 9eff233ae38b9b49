"""User-based Security Model primitives for SNMPv3.

Key derivation, HMAC message authentication (MD5/SHA1, 96-bit tags) and
DES-CBC privacy.  Engine discovery itself lives in the client since it
needs a transport; this module keeps the per-session engine state.

secure and open (unprotect, once decoded) are the one path by which the
client and the agent protect an outgoing message and check an incoming
one.  Both work on the wire octets: a message is encoded once, and the
offset of its MAC is the one messages recorded while encoding or
decoding it, so a MAC is computed and checked over exactly the octets
that travel.  secure is frame, whose length is the secured length, then
Frame.seal, so a message can be measured before it is protected.
Password-derived keys are cached per (protocol, passphrase), so
sessions sharing a credential derive them once.

DES contexts stay open per localized privacy key: one CBC encryptor and
one decryptor each, built once while the key is among the 64 most
recently used, instead of once per message.  A context chains a message
to the last ciphertext block of the message before, so each message is
re-chained to its own IV by XORing IV ^ that block into its first block,
and encrypts and decrypts octet for octet as under a fresh context.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import secrets
import threading
import time
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.ciphers import Cipher, modes
try:  # single-DES moved to the decrepit module in newer releases
    from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
except ImportError:  # pragma: no cover
    from cryptography.hazmat.primitives.ciphers.algorithms import TripleDES

from . import messages
from .errors import (
    AuthenticationError, DecodingError, NotInTimeWindowError, SnmpError,
    UsmProtocolError,
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


class _DesChain:
    """One localized key's DES-CBC encryptor and decryptor, kept open.

    An open CBC context chains a message's first block to the last
    ciphertext block of the message before, which it records.  XORing
    iv ^ last into the first plaintext block before encrypting, or into
    the first decrypted block after decrypting, chains it to the
    message's own IV instead, so each message comes out as it does under
    a fresh context (RFC 3414 section 8.1.1.1).  Both contexts start from
    a zero IV.  Input must be whole 8-octet blocks.
    """

    def __init__(self, key):
        cipher = Cipher(TripleDES(key[:8] * 3), modes.CBC(bytes(8)))
        self._pre_iv = int.from_bytes(key[8:16], "big")
        self._encryptor = cipher.encryptor()
        self._decryptor = cipher.decryptor()
        self._sent = self._received = 0  # the last ciphertext blocks
        self._lock = threading.Lock()

    def encrypt(self, padded, priv_params):
        if not padded:
            return b""
        iv = self._pre_iv ^ int.from_bytes(priv_params, "big")
        with self._lock:
            first = int.from_bytes(padded[:8], "big") ^ iv ^ self._sent
            out = self._encryptor.update(first.to_bytes(8, "big")
                                         + padded[8:])
            self._sent = int.from_bytes(out[-8:], "big")
        return out

    def decrypt(self, ciphertext, priv_params):
        if not ciphertext:
            return b""
        iv = self._pre_iv ^ int.from_bytes(priv_params, "big")
        with self._lock:
            out = self._decryptor.update(ciphertext)
            mask = iv ^ self._received
            self._received = int.from_bytes(ciphertext[-8:], "big")
        return (int.from_bytes(out[:8], "big") ^ mask).to_bytes(8, "big") \
            + out[8:]


@functools.lru_cache(maxsize=64)
def _des_chain(key):
    """The _DesChain of a localized key's first 16 octets, built once
    while the key stays among the 64 most recently used."""
    return _DesChain(key)


def encrypt_scoped_pdu(plaintext, localized_priv_key, engine_boots, salt=None):
    """DES-CBC encrypt; returns (ciphertext, 8-octet priv_params)."""
    if len(localized_priv_key) < 16:
        raise SnmpError("priv key material shorter than 16 octets")
    if salt is None:
        salt = _salt_counter.next()
    priv_params = (engine_boots % 2 ** 32).to_bytes(4, "big") + \
        (salt % 2 ** 32).to_bytes(4, "big")
    padded = plaintext + bytes(-len(plaintext) % 8)
    return _des_chain(bytes(localized_priv_key[:16])).encrypt(
        padded, priv_params), priv_params


def decrypt_scoped_pdu(ciphertext, localized_priv_key, priv_params):
    if len(localized_priv_key) < 16:
        raise SnmpError("priv key material shorter than 16 octets")
    if len(priv_params) != 8:
        raise SnmpError(f"priv_params must be 8 octets, got {len(priv_params)}")
    if len(ciphertext) % 8:
        raise SnmpError("ciphertext length not a multiple of 8")
    # trailing DES padding is delimited away by the inner BER length
    return _des_chain(bytes(localized_priv_key[:16])).decrypt(
        bytes(ciphertext), priv_params)


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
    """The wire octets of a V3Message, protected as its flags ask: those
    of frame(msg), sealed with keys, an EngineState (salt as for
    encrypt_scoped_pdu)."""
    return frame(msg).seal(keys, salt)


def frame(msg):
    """msg's octets as secure writes them, but with zeros where the MAC,
    the privacy parameters and the ciphertext go, as a Frame to seal.

    Its length is the secured message's, found without encrypting or
    signing, so a message is measured and secured from one encoding.
    msg's protection fields are set to those zeros.
    """
    params, plaintext = msg.usm, None
    if msg.flags & FLAG_AUTH:
        params.auth_params = bytes(MAC_LENGTH)
    if msg.flags & FLAG_PRIV:
        plaintext = messages.encode_scoped_pdu(msg.scoped_pdu)
        msg.encrypted_pdu = bytes(len(plaintext) + -len(plaintext) % 8)
        params.priv_params = bytes(8)
    return Frame(msg, bytearray(messages.encode_message(msg)), plaintext)


class Frame:
    """A V3Message's octets from frame, protected in place by seal."""

    __slots__ = ("msg", "wire", "plaintext")

    def __init__(self, msg, wire, plaintext):
        self.msg, self.wire, self.plaintext = msg, wire, plaintext

    def __len__(self):
        return len(self.wire)

    def seal(self, keys, salt=None):
        """The protected octets.  With the priv flag, the scoped PDU's
        octets are encrypted, and the ciphertext and privacy parameters
        written over their zeros.  With the auth flag, the MAC over the
        octets as they then are, MAC zeroed, is written at the
        msg.mac_offset the encoding recorded (RFC 3414 section 6.3.1)."""
        msg, wire = self.msg, self.wire
        params, at = msg.usm, msg.mac_offset
        if self.plaintext is not None:
            msg.encrypted_pdu, params.priv_params = encrypt_scoped_pdu(
                self.plaintext, keys.priv_key, params.engine_boots, salt)
            wire[len(wire) - len(msg.encrypted_pdu):] = msg.encrypted_pdu
            # the privacy parameters' TLV, 04 08, follows the MAC's
            at_priv = at + MAC_LENGTH + 2
            wire[at_priv:at_priv + 8] = params.priv_params
        if msg.flags & FLAG_AUTH:
            params.auth_params = sign(wire, keys.auth_key, keys.auth_protocol)
            wire[at:at + MAC_LENGTH] = params.auth_params
        return bytes(wire)


def open(wire, keys, registry=None):
    """(msg, scoped PDU) of the octets of a v3 message: decode, then
    unprotect, reading names through registry as decode_message does.
    Raises DecodingError when they are not a v3 message, and
    UsmProtocolError, before any USM check, when its msgSecurityModel is
    not USM (RFC 3412 section 7.2, step 4)."""
    msg = messages.decode_message(wire, registry)
    if not isinstance(msg, V3Message):
        raise DecodingError("not an SNMPv3 message")
    if msg.msg_security_model != messages.SECURITY_MODEL_USM:
        raise UsmProtocolError(
            f"msgSecurityModel {msg.msg_security_model} is not USM")
    return msg, unprotect(msg, wire, keys, registry)


def unprotect(msg, wire, keys, registry=None):
    """The scoped PDU of msg, decode_message(wire, registry), with
    protection undone.

    keys is an EngineState.  A message asking for privacy when keys hold
    no privacy key raises SnmpError before its MAC or clock is looked at
    (RFC 3414 section 3.2 step 5).  With the auth flag, the MAC is checked
    over a copy of wire with the MAC at msg.mac_offset zeroed (RFC 3414
    section 6.3.2), so a sender's non-minimal BER verifies, and the engine
    clock must pass keys.advance; AuthenticationError, carrying msg, when
    either fails.  With the priv flag, the scoped PDU is decrypted, or
    DecodingError or SnmpError raised; its names are read through
    registry.
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
    return messages.decode_scoped_pdu(plaintext, registry)[0]
