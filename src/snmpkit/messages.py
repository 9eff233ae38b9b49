"""PDU and message structures for SNMPv1/v2c/v3 and their BER mapping.

Variable bindings have one codec for every message kind (v1, v2c, v3
scoped PDUs and trap-v1), and it goes in one pass each way.
ber.encode_bindings turns a list of VarBinds into the octets of its
SEQUENCE OF SEQUENCE { name, value }, which the PDU carries as a
ber.Encoded value.  SNMP_REGISTRY decodes each PDU with ber's "pdu" kind,
which reads the bindings straight into (Oid, value) pairs; each pair
becomes a VarBind with no generic list per binding to check again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import ber
from .errors import DecodingError, SnmpError

V1 = 0
V2C = 1
V3 = 3

# PDU type numbers (context-class constructed tags)
GET_REQUEST = 0
GET_NEXT_REQUEST = 1
RESPONSE = 2
SET_REQUEST = 3
TRAP_V1 = 4
GET_BULK_REQUEST = 5
INFORM_REQUEST = 6
SNMPV2_TRAP = 7
REPORT = 8

PDU_TYPE_NAMES = {
    GET_REQUEST: "get-request",
    GET_NEXT_REQUEST: "get-next-request",
    RESPONSE: "response",
    SET_REQUEST: "set-request",
    TRAP_V1: "trap-v1",
    GET_BULK_REQUEST: "get-bulk-request",
    INFORM_REQUEST: "inform-request",
    SNMPV2_TRAP: "snmpv2-trap",
    REPORT: "report",
}

ERROR_STATUS_NAMES = {
    0: "noError", 1: "tooBig", 2: "noSuchName", 3: "badValue", 4: "readOnly",
    5: "genErr", 6: "noAccess", 7: "wrongType", 8: "wrongLength",
    9: "wrongEncoding", 10: "wrongValue", 11: "noCreation",
    12: "inconsistentValue", 13: "resourceUnavailable", 14: "commitFailed",
    15: "undoFailed", 16: "authorizationError", 17: "notWritable",
    18: "inconsistentName",
}

MAX_UDP_PAYLOAD = 65507
DEFAULT_MAX_MSG_SIZE = MAX_UDP_PAYLOAD

# USM statistics OIDs signalled in Report PDUs (RFC 3414 usmStats group)
USM_STATS_PREFIX = (1, 3, 6, 1, 6, 3, 15, 1, 1)
USM_STATS_UNSUPPORTED_SEC_LEVELS = USM_STATS_PREFIX + (1, 0)
USM_STATS_UNKNOWN_ENGINE_IDS = USM_STATS_PREFIX + (4, 0)
USM_STATS_NOT_IN_TIME_WINDOWS = USM_STATS_PREFIX + (2, 0)
USM_STATS_UNKNOWN_USER_NAMES = USM_STATS_PREFIX + (3, 0)
USM_STATS_WRONG_DIGESTS = USM_STATS_PREFIX + (5, 0)


@dataclass
class SnmpDefaults:
    """Process-wide defaults, adjustable at runtime."""

    port: int = 161
    community: str = "public"
    version: int = V2C
    context: str = ""


defaults = SnmpDefaults()


def _snmp_registry():
    r = ber.DEFAULT_REGISTRY.copy()
    for n in range(9):
        r.register(ber.CONTEXT, 1, n, "pdu")
    r.register(ber.CONTEXT, 0, 0, "no-such-object")
    r.register(ber.CONTEXT, 0, 1, "no-such-instance")
    r.register(ber.CONTEXT, 0, 2, "end-of-mib-view")
    return r


SNMP_REGISTRY = _snmp_registry()


@dataclass
class VarBind:
    name: object  # OidRef or ber.Oid
    value: object = ber.NULL

    @property
    def arcs(self):
        return tuple(self.name.arcs)


@dataclass
class Pdu:
    pdu_type: int
    request_id: int
    error_status: int = 0
    error_index: int = 0
    bindings: list = field(default_factory=list)

    # get-bulk reuses the two error slots
    @property
    def non_repeaters(self):
        return self.error_status

    @property
    def max_repetitions(self):
        return self.error_index


@dataclass
class TrapV1Pdu:
    enterprise: object  # OidRef or ber.Oid
    agent_addr: ber.IpAddress
    generic_trap: int
    specific_trap: int
    timestamp: int
    bindings: list = field(default_factory=list)
    pdu_type: int = TRAP_V1


@dataclass
class CommunityMessage:
    version: int  # 0 = v1, 1 = v2c
    community: bytes
    pdu: object  # Pdu or TrapV1Pdu


@dataclass
class UsmParams:
    engine_id: bytes = b""
    engine_boots: int = 0
    engine_time: int = 0
    user_name: bytes = b""
    auth_params: bytes = b""
    priv_params: bytes = b""


@dataclass
class ScopedPdu:
    context_engine_id: bytes = b""
    context_name: bytes = b""
    pdu: Pdu | None = None


FLAG_AUTH = 0x01
FLAG_PRIV = 0x02
FLAG_REPORTABLE = 0x04


@dataclass
class V3Message:
    msg_id: int
    flags: int
    usm: UsmParams
    scoped_pdu: ScopedPdu | None = None
    encrypted_pdu: bytes | None = None  # ciphertext when the priv flag is set
    msg_max_size: int = DEFAULT_MAX_MSG_SIZE
    msg_version: int = V3
    msg_security_model: int = 3  # USM


# ---------------------------------------------------------------------------
# PDU <-> BER


def pdu_to_ber(pdu):
    tag = ber.Tag(ber.CONTEXT, True, pdu.pdu_type)
    if isinstance(pdu, TrapV1Pdu):
        return ber.TaggedSequence(tag, [
            pdu.enterprise, pdu.agent_addr, pdu.generic_trap,
            pdu.specific_trap, ber.TimeTicks(pdu.timestamp),
            ber.encode_bindings(pdu.bindings),
        ])
    return ber.TaggedSequence(tag, [
        pdu.request_id, pdu.error_status, pdu.error_index,
        ber.encode_bindings(pdu.bindings),
    ])


def _fields(value, kinds, what):
    """value, if it is a list of one element of each type in kinds."""
    if not isinstance(value, list) or len(value) != len(kinds) or \
            not all(isinstance(v, k) for v, k in zip(value, kinds)):
        raise DecodingError(f"malformed {what}")
    return value


def pdu_from_ber(ts, version=None):
    if isinstance(ts, ber.Raw):
        raise DecodingError(f"unknown PDU tag {ts.tag!r}")
    if not isinstance(ts, ber.TaggedSequence) or ts.tag.cls != ber.CONTEXT:
        raise DecodingError(f"expected a PDU, got {ts!r}")
    pdu_type = ts.tag.number
    if pdu_type not in PDU_TYPE_NAMES:
        raise DecodingError(f"unknown PDU tag number {pdu_type}")
    els = list(ts.elements)
    if pdu_type == TRAP_V1:
        ent, addr, generic, specific, stamp, bindings = _fields(
            els, (ber.Oid, ber.IpAddress, int, int, int, list),
            "trap-v1 PDU")
        return TrapV1Pdu(ent, addr, int(generic), int(specific), int(stamp),
                         [VarBind(name, value) for name, value in bindings])
    if len(els) != 4:
        raise DecodingError(f"PDU needs 4 elements, got {len(els)}")
    request_id, error_status, error_index, bindings = els
    if not all(isinstance(x, int) for x in (request_id, error_status, error_index)):
        raise DecodingError("malformed PDU header")
    if not isinstance(bindings, list):
        raise DecodingError("malformed variable-bindings list")
    vbs = [VarBind(name, value) for name, value in bindings]
    if version == V1:
        for vb in vbs:
            if vb.value in ber.EXCEPTION_MARKERS:
                raise DecodingError(
                    f"v2 exception value {vb.value!r} in a v1 message")
    return Pdu(pdu_type, int(request_id), int(error_status), int(error_index), vbs)


# ---------------------------------------------------------------------------
# Messages <-> BER


def community_octets(community):
    """A community given as str or bytes, as the octets on the wire."""
    return community if isinstance(community, bytes) \
        else community.encode("utf-8")


def encode_message(msg):
    """Serialize a CommunityMessage or V3Message to wire bytes."""
    if isinstance(msg, CommunityMessage):
        return ber.encode([msg.version,
                           ber.OctetString(community_octets(msg.community)),
                           pdu_to_ber(msg.pdu)])
    if isinstance(msg, V3Message):
        if msg.flags & FLAG_PRIV and not msg.flags & FLAG_AUTH:
            raise SnmpError("priv flag requires the auth flag")
        usm = msg.usm
        sec_params = ber.encode([
            ber.OctetString(usm.engine_id), usm.engine_boots, usm.engine_time,
            ber.OctetString(usm.user_name), ber.OctetString(usm.auth_params),
            ber.OctetString(usm.priv_params),
        ])
        if msg.flags & FLAG_PRIV:
            if msg.encrypted_pdu is None:
                raise SnmpError("priv flag set but no encrypted scoped PDU")
            msg_data = ber.OctetString(msg.encrypted_pdu)
        else:
            msg_data = _scoped_to_ber(msg.scoped_pdu)
        return ber.encode([
            msg.msg_version,
            [msg.msg_id, msg.msg_max_size,
             ber.OctetString(bytes([msg.flags])), msg.msg_security_model],
            ber.OctetString(sec_params),
            msg_data,
        ])
    raise SnmpError(f"cannot encode message of type {type(msg).__name__}")


def _scoped_to_ber(scoped):
    return [ber.OctetString(scoped.context_engine_id),
            ber.OctetString(scoped.context_name), pdu_to_ber(scoped.pdu)]


def _scoped_from_ber(value):
    engine_id, context, pdu_ts = _fields(value, (bytes, bytes, object),
                                         "scoped PDU")
    return ScopedPdu(bytes(engine_id), bytes(context), pdu_from_ber(pdu_ts))


def encode_scoped_pdu(scoped):
    return ber.encode(_scoped_to_ber(scoped))


def decode_scoped_pdu(data):
    value, consumed = ber.decode(data, registry=SNMP_REGISTRY)
    return _scoped_from_ber(value), consumed


def decode_message(data):
    """Parse one complete SNMP message; inverse of encode_message."""
    outer, consumed = ber.decode(data, registry=SNMP_REGISTRY)
    if not isinstance(outer, list) or not outer or not isinstance(outer[0], int):
        raise DecodingError("message is not SEQUENCE { version, ... }")
    version = outer[0]
    if version in (V1, V2C):
        if len(outer) != 3:
            raise DecodingError("community message needs 3 elements")
        _, community, pdu_ts = outer
        if not isinstance(community, bytes):
            raise DecodingError("community is not an OCTET STRING")
        return CommunityMessage(version, bytes(community),
                                pdu_from_ber(pdu_ts, version))
    if version == V3:
        if len(outer) != 4:
            raise DecodingError("v3 message needs 4 elements")
        _, global_data, sec_bytes, msg_data = outer
        msg_id, max_size, flags_octet, sec_model = _fields(
            global_data, (int, int, bytes, int), "msgGlobalData")
        if len(flags_octet) != 1:
            raise DecodingError("malformed msgFlags")
        if not 484 <= max_size <= 2 ** 31 - 1:  # RFC 3412 section 6
            raise DecodingError(f"msgMaxSize {max_size} out of range")
        flags = flags_octet[0]
        if not isinstance(sec_bytes, bytes):
            raise DecodingError("security parameters are not an OCTET STRING")
        sec, _ = ber.decode(sec_bytes, registry=SNMP_REGISTRY)
        sec = _fields(sec, (bytes, int, int, bytes, bytes, bytes),
                      "USM security parameters")
        usm = UsmParams(bytes(sec[0]), int(sec[1]), int(sec[2]),
                        bytes(sec[3]), bytes(sec[4]), bytes(sec[5]))
        msg = V3Message(int(msg_id), flags, usm, msg_max_size=int(max_size),
                        msg_security_model=int(sec_model))
        if flags & FLAG_PRIV:
            if not flags & FLAG_AUTH:
                raise DecodingError("priv flag set without auth flag")
            if not isinstance(msg_data, bytes):
                raise DecodingError("encrypted scoped PDU must be an OCTET STRING")
            if len(usm.priv_params) == 0:
                raise DecodingError("priv flag set but priv_params empty")
            msg.encrypted_pdu = bytes(msg_data)
        else:
            msg.scoped_pdu = _scoped_from_ber(msg_data)
        return msg
    raise DecodingError(f"unsupported SNMP version {version}")


# ---------------------------------------------------------------------------
# Request construction


def make_request_pdu(kind, bindings_spec, registry, request_id):
    """Build a request PDU from OID specs; bare specs get Null values."""
    if not bindings_spec:
        raise SnmpError("empty variable-bindings list")
    bindings = []
    for item in bindings_spec:
        if isinstance(item, (tuple, list)) and len(item) == 2 and \
                not all(isinstance(e, int) for e in item):
            oid_spec, value = item
        else:
            oid_spec, value = item, ber.NULL
        bindings.append(VarBind(registry.resolve(oid_spec), value))
    return Pdu(kind, request_id, bindings=bindings)


def response_for(pdu, bindings, error_status=0, error_index=0):
    return Pdu(RESPONSE, pdu.request_id, error_status, error_index, bindings)
