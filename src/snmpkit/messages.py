"""PDU and message structures for SNMPv1/v2c/v3 and their BER mapping.

Every frame goes in one pass each way: the v1/v2c message, the v3 header
with its USM security parameters, the scoped PDU, the PDU and its
variable bindings.  Encoding concatenates TLVs from ber's precomputed
encoders, with one header encoder per PDU type; each fixed header
field is written directly, an INTEGER by ber.encode_integer in one step
and msgFlags as the octets 04 01 flags, with no list of values to
dispatch on.  Decoding reads the v3 frame headers (msgGlobalData,
msgSecurityParameters, the USM SEQUENCE, the scoped PDU) by ber.header,
which checks the identifier octet and reads any length form.  It reads
the fixed header fields inline when their lengths take the short form,
and by ber.header otherwise.  It reads the PDU here too: its header
fields, then its bindings straight into VarBinds in one pass over their
octets.  A binding's SEQUENCE, name and value headers are read inline
in the short form likewise, and by ber.header, or ber.decode_tlv for
the value, otherwise; a value's decoder comes from ber.DECODERS_BY_OCTET
by its identifier octet.  Given the oids.Registry its caller
holds, decoding reads each binding name through Registry.read, from
the name before it, so a name becomes the registry's kept OidRef;
without one, a ber.Oid; given OCTET_NAMES, a name stays its content
octets and nothing reads it.  A PDU whose type the message's version does
not define, such as a GetBulk in a v1 message or a Trap-v1 in a v2c or
v3 one, does not decode.  Any msgSecurityModel decodes; usm.open and
agent.LocalEngine.open refuse one that is not SECURITY_MODEL_USM.  Both
directions record in V3Message.mac_offset where the MAC lies in the
octets, so usm never walks the headers again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from . import ber
from .errors import DecodingError, EncodingError, SnmpError

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

# Given as a decoder's registry, reads no binding name: each stays its
# content octets, a bytes object, and only the binding's TLV is checked.
OCTET_NAMES = SimpleNamespace(read=None)

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


@dataclass(slots=True)
class VarBind:
    name: object  # OidRef, ber.Oid, or content octets (OCTET_NAMES)
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


@dataclass(slots=True)
class UsmParams:
    engine_id: bytes = b""
    engine_boots: int = 0
    engine_time: int = 0
    user_name: bytes = b""
    auth_params: bytes = b""
    priv_params: bytes = b""


@dataclass(slots=True)
class ScopedPdu:
    context_engine_id: bytes = b""
    context_name: bytes = b""
    pdu: Pdu | None = None


SECURITY_MODEL_USM = 3  # msgSecurityModel (RFC 3411 section 5)

FLAG_AUTH = 0x01
FLAG_PRIV = 0x02
FLAG_REPORTABLE = 0x04


@dataclass(slots=True)
class V3Message:
    msg_id: int
    flags: int
    usm: UsmParams
    scoped_pdu: ScopedPdu | None = None
    encrypted_pdu: bytes | None = None  # ciphertext when the priv flag is set
    msg_max_size: int = DEFAULT_MAX_MSG_SIZE
    msg_version: int = V3
    msg_security_model: int = SECURITY_MODEL_USM
    # where the MAC's content starts in the octets last decoded or encoded
    mac_offset: int | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# PDU <-> BER

_SEQUENCE = ber.tlv_encoder(ber.TAG_SEQUENCE)
_OCTETS = ber.tlv_encoder(ber.TAG_OCTET_STRING)
_INTEGER = ber.encode_integer
_PDU_TLVS = {n: ber.tlv_encoder(ber.Tag(ber.CONTEXT, True, n))
             for n in PDU_TYPE_NAMES}


def pdu_to_ber(pdu):
    """The TLV of pdu, as ber.Encoded octets."""
    tlv = _PDU_TLVS.get(pdu.pdu_type)
    if tlv is None:
        raise EncodingError(f"unknown PDU type {pdu.pdu_type!r}")
    if isinstance(pdu, TrapV1Pdu):
        head = ber.encode_elements((
            pdu.enterprise, pdu.agent_addr, pdu.generic_trap,
            pdu.specific_trap, ber.TimeTicks(pdu.timestamp)))
    else:
        head = _pdu_head(pdu)
    return ber.Encoded(tlv(head + ber.encode_bindings(pdu.bindings)))


def _pdu_head(pdu):
    """A Pdu's request-id, error-status and error-index."""
    return _INTEGER(pdu.request_id) + _INTEGER(pdu.error_status) + \
        _INTEGER(pdu.error_index)


# ---------------------------------------------------------------------------
# Messages <-> BER


def community_octets(community):
    """A community given as str or bytes, as the octets on the wire."""
    return community if isinstance(community, bytes) \
        else community.encode("utf-8")


def encode_message(msg):
    """Serialize a CommunityMessage or V3Message to wire bytes; a
    V3Message's mac_offset is set to where its MAC lies in them."""
    if isinstance(msg, CommunityMessage):
        return _SEQUENCE(_community_head(msg) + pdu_to_ber(msg.pdu))
    if not isinstance(msg, V3Message):
        raise SnmpError(f"cannot encode message of type {type(msg).__name__}")
    if msg.flags & FLAG_PRIV:
        if not msg.flags & FLAG_AUTH:
            raise SnmpError("priv flag requires the auth flag")
        if msg.encrypted_pdu is None:
            raise SnmpError("priv flag set but no encrypted scoped PDU")
        data = _OCTETS(msg.encrypted_pdu)
    else:
        data = _scoped_tlv(msg.scoped_pdu)
    wire = _SEQUENCE(_v3_head(msg) + data)
    # the MAC's content is followed by the privacy parameters and msgData
    usm = msg.usm
    msg.mac_offset = len(wire) - len(data) - len(_OCTETS(usm.priv_params)) \
        - len(usm.auth_params)
    return wire


def _community_head(msg):
    """A CommunityMessage's version and community."""
    return _INTEGER(msg.version) + _OCTETS(community_octets(msg.community))


def _v3_head(msg):
    """A V3Message's msgVersion, msgGlobalData and msgSecurityParameters."""
    usm = msg.usm
    sec_params = _SEQUENCE(
        _OCTETS(usm.engine_id) + _INTEGER(usm.engine_boots)
        + _INTEGER(usm.engine_time) + _OCTETS(usm.user_name)
        + _OCTETS(usm.auth_params) + _OCTETS(usm.priv_params))
    # msgFlags is an OCTET STRING of one octet: 04 01 flags
    return _INTEGER(msg.msg_version) + _SEQUENCE(
        _INTEGER(msg.msg_id) + _INTEGER(msg.msg_max_size)
        + bytes((4, 1, msg.flags)) + _INTEGER(msg.msg_security_model)) \
        + _OCTETS(sec_params)


def _context(scoped):
    """A ScopedPdu's contextEngineID and contextName."""
    return _OCTETS(scoped.context_engine_id) + _OCTETS(scoped.context_name)


def answers_room(msg, limit):
    """The most octets of binding TLVs that msg's PDU may hold for
    encode_message(msg) to take at most limit octets.  The bindings list
    lies in nested TLVs: the message's, after its fields; with the priv
    flag a v3 msgData, whose content is the scoped PDU padded to whole
    blocks of 8 octets, as usm.frame pads it; a scoped PDU's, after its
    context fields; the PDU's, after its request-id, error-status and
    error-index.  None of them depends on the PDU's bindings."""
    if isinstance(msg, CommunityMessage):
        pdu = msg.pdu
        room = _content_room(limit) - len(_community_head(msg))
    else:
        pdu = msg.scoped_pdu.pdu
        room = _content_room(limit) - len(_v3_head(msg))
        if msg.flags & FLAG_PRIV:
            room = _content_room(room)
            room -= room % 8
        room = _content_room(room) - len(_context(msg.scoped_pdu))
    return _content_room(_content_room(room) - len(_pdu_head(pdu)))


def _content_room(n):
    """The most content octets of a TLV with a one-octet identifier that
    is at most n octets long: n less the identifier octet and the length
    octets that n - 3 content octets take.  Exact for any n below 65,539,
    so for every frame of one datagram."""
    c = n - 2
    return c if c < 0x80 else c - ((n - 3).bit_length() + 7) // 8


def _scoped_tlv(scoped):
    return _SEQUENCE(_context(scoped) + pdu_to_ber(scoped.pdu))


def encode_scoped_pdu(scoped):
    return _scoped_tlv(scoped)


def _read(data, pos, end, idents, what):
    """The contents of the TLVs at data[pos:end] whose identifier octets
    are idents, in order, each an int (INTEGER, 0x02) or octets (OCTET
    STRING, 0x04), and where the last one ends.  A short-form header is
    read here; ber.header reads any other and raises what a malformed
    one calls for."""
    values = []
    for ident in idents:
        if pos + 1 < end and data[pos] == ident and \
                (n := data[pos + 1]) < 0x80 and pos + 2 + n <= end:
            start = pos + 2
            pos = start + n
        else:
            start, pos = ber.header(data, pos, end, ident, what)
        if ident == 0x04:
            values.append(data[start:pos])
        elif start == pos:
            raise DecodingError(f"empty INTEGER in {what}")
        else:
            values.append(int.from_bytes(data[start:pos], "big", signed=True))
    return values, pos


# The PDU tags of each version: RFC 1157 defines none of 5-8, and
# RFC 3416, which v3 carries too, does not define 4 (Trap-v1).
_V1_PDUS = frozenset(range(TRAP_V1 + 1))
_V2_PDUS = frozenset(PDU_TYPE_NAMES) - {TRAP_V1}


def _read_pdu(data, pos, end, depth, registry, version=V3):
    """The PDU TLV at data[pos:end] of a message of version, at nesting
    depth depth, and where it ends.  A PDU type the version does not
    define is a DecodingError.  Binding names are read by registry, an
    oids.Registry, are ber.Oids when it is None, and stay content octets
    when it is OCTET_NAMES.  Binding values lie
    three levels deeper; a v1 PDU other than a trap holds no exception
    values."""
    ident = data[pos] if pos < end else 0
    pdu_type = ident - 0xA0
    if pdu_type not in (_V1_PDUS if version == V1 else _V2_PDUS):
        raise DecodingError(f"no PDU tag of the message's version at "
                            f"octet {pos}")
    pos, end = ber.header(data, pos, end, ident, "PDU")
    value_at = ber.decode_tlv
    if pdu_type == TRAP_V1:
        fields = []
        for kind in (ber.Oid, ber.IpAddress, int, int, int):
            value, pos = value_at(data, pos, end, depth + 1)
            if not isinstance(value, kind):
                raise DecodingError("malformed trap-v1 PDU")
            fields.append(value)
    else:
        fields, pos = _read(data, pos, end, b"\x02\x02\x02", "PDU header")
    at, stop = ber.header(data, pos, end, 0x30, "variable-bindings list")
    _last(stop, end, "PDU")
    bindings = []
    append = bindings.append
    read = ber.read_oid if registry is None else registry.read
    by_octet, name = ber.DECODERS_BY_OCTET, None
    depth += 3
    # Each binding is SEQUENCE { OID, value }.  A short-form header is
    # read here; ber.header, or value_at for the value, reads any other
    # and raises what a malformed one calls for.
    while at < stop:
        if at + 1 < stop and data[at] == 0x30 and \
                (n := data[at + 1]) < 0x80 and at + 2 + n <= stop:
            start = at + 2
            at = start + n
        else:
            start, at = ber.header(data, at, stop, 0x30, "variable binding")
        if start + 1 < at and data[start] == 0x06 and \
                (n := data[start + 1]) < 0x80 and start + 2 + n <= at:
            start += 2
            value_pos = start + n
        else:
            start, value_pos = ber.header(data, start, at, 0x06,
                                          "variable binding name")
        name = data[start:value_pos] if read is None else \
            read(data[start:value_pos], name)
        if value_pos + 1 < at and (n := data[value_pos + 1]) < 0x80 and \
                value_pos + 2 + n == at and \
                (decoder := by_octet[data[value_pos]]) is not None:
            value = decoder(data, value_pos + 2, at, depth)
        else:
            value, start = value_at(data, value_pos, at, depth)
            if start != at:
                raise DecodingError("variable binding holds more than a "
                                    "name and a value")
        append(VarBind(name, value))
    if pdu_type == TRAP_V1:
        return TrapV1Pdu(*fields[:2], *map(int, fields[2:]), bindings), end
    if version == V1:
        for vb in bindings:
            if vb.value in ber.EXCEPTION_MARKERS:
                raise DecodingError(
                    f"v2 exception value {vb.value!r} in a v1 message")
    return Pdu(pdu_type, *fields, bindings), end


def _read_scoped(data, pos, end, depth, registry):
    """The scoped PDU TLV, its PDU at nesting depth depth."""
    start, stop = ber.header(data, pos, end, 0x30, "scoped PDU")
    (engine_id, context), at = _read(data, start, stop, b"\x04\x04",
                                     "scoped PDU")
    pdu, at = _read_pdu(data, at, stop, depth, registry)
    _last(at, stop, "scoped PDU")
    return ScopedPdu(engine_id, context, pdu), stop


def _last(pos, end, what):
    if pos != end:
        raise DecodingError(f"{what} has more elements than it needs")


def decode_scoped_pdu(data, registry=None):
    """(scoped PDU, where it ends) of data, its names read as
    decode_message reads them."""
    return _read_scoped(bytes(data), 0, len(data), 1, registry)


def decode_message(data, registry=None):
    """Parse one complete SNMP message; inverse of encode_message.  Each
    binding name is read through registry, an oids.Registry, when it is
    given, as its kept OidRef; it stays its content octets when registry
    is OCTET_NAMES; else it is a ber.Oid.  A v3 message's
    mac_offset is where its MAC lies in data.  Octets after the message's
    SEQUENCE are ignored."""
    data = bytes(data)
    pos, end = ber.header(data, 0, len(data), 0x30, "message")
    (version,), pos = _read(data, pos, end, b"\x02", "msgVersion")
    if version in (V1, V2C):
        (community,), pos = _read(data, pos, end, b"\x04", "community")
        pdu, pos = _read_pdu(data, pos, end, 1, registry, version)
        _last(pos, end, "community message")
        return CommunityMessage(version, community, pdu)
    if version != V3:
        raise DecodingError(f"unsupported SNMP version {version}")
    # msgGlobalData, msgSecurityParameters and the USM SEQUENCE in it
    # (RFC 3414 section 2.4); octets after the USM SEQUENCE in
    # msgSecurityParameters are ignored
    at, stop = ber.header(data, pos, end, 0x30, "msgGlobalData")
    (msg_id, max_size, flags, sec_model), at = _read(
        data, at, stop, b"\x02\x02\x04\x02", "msgGlobalData")
    _last(at, stop, "msgGlobalData")
    if len(flags) != 1:
        raise DecodingError("malformed msgFlags")
    if not 484 <= max_size <= 2 ** 31 - 1:  # RFC 3412 section 6
        raise DecodingError(f"msgMaxSize {max_size} out of range")
    flags = flags[0]
    at, pos = ber.header(data, stop, end, 0x04, "msgSecurityParameters")
    at, stop = ber.header(data, at, pos, 0x30, "USM security parameters")
    fields, at = _read(data, at, stop, b"\x04\x02\x02\x04\x04",
                       "USM security parameters")
    (priv,), last = _read(data, at, stop, b"\x04", "msgPrivacyParameters")
    _last(last, stop, "USM security parameters")
    msg = V3Message(msg_id, flags, UsmParams(*fields, priv),
                    msg_max_size=max_size, msg_security_model=sec_model,
                    mac_offset=at - len(fields[-1]))
    if flags & FLAG_PRIV:
        if not flags & FLAG_AUTH:
            raise DecodingError("priv flag set without auth flag")
        if not priv:
            raise DecodingError("priv flag set but priv_params empty")
        (msg.encrypted_pdu,), pos = _read(data, pos, end, b"\x04",
                                          "encrypted scoped PDU")
    else:
        msg.scoped_pdu, pos = _read_scoped(data, pos, end, 2, registry)
    _last(pos, end, "v3 message")
    return msg


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
