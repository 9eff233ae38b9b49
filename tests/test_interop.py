"""The message codec against an independent implementation: pyasn1.

The message, PDU and value types below are written from RFC 1157
section 4 (Message, Trap-PDU, the application types) and RFC 3416
section 3 (PDUs, BulkPDU, VarBind with its exception values) as pyasn1
types.  They share no code with snmpkit.  The untagged CHOICEs of the
RFCs (ObjectSyntax, SimpleSyntax, ApplicationSyntax) are written as one
flat CHOICE, which puts the same octets on the wire.  A property then
checks that every v1 and v2c message pyasn1 encodes, of each of the nine
PDU types, decodes under messages.decode_message to the same fields when
its version defines that PDU type, and is refused with DecodingError
when it does not: RFC 1157 has no tags 5-8, and RFC 3416 no tag 4.

SNMPv3Message, HeaderData and ScopedPDU are written from RFC 3412
section 6, and UsmSecurityParameters from RFC 3414 section 2.4.  v3
messages that snmpkit frames at each security level, authPriv ones
secured by usm.secure, decode under pyasn1 to the same fields, and v3
messages that pyasn1 encodes decode under snmpkit to the same fields;
either way the MAC lies where pyasn1 finds msgAuthenticationParameters.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from snmpkit import ber, messages, usm
from snmpkit.errors import DecodingError
from snmpkit.messages import (
    FLAG_AUTH, FLAG_PRIV, FLAG_REPORTABLE, TRAP_V1, V1, V2C, V3,
)

pytest.importorskip("pyasn1")
from pyasn1.codec.ber import decoder, encoder  # noqa: E402
from pyasn1.type import constraint, namedtype, tag, univ  # noqa: E402


def _application(number):
    return tag.Tag(tag.tagClassApplication, tag.tagFormatSimple, number)


def _context(number, form=tag.tagFormatSimple):
    return tag.Tag(tag.tagClassContext, form, number)


class IpAddress(univ.OctetString):
    tagSet = univ.OctetString.tagSet.tagImplicitly(_application(0))
    subtypeSpec = constraint.ValueSizeConstraint(4, 4)


class Counter32(univ.Integer):
    tagSet = univ.Integer.tagSet.tagImplicitly(_application(1))
    subtypeSpec = constraint.ValueRangeConstraint(0, 2 ** 32 - 1)


class Gauge32(univ.Integer):
    tagSet = univ.Integer.tagSet.tagImplicitly(_application(2))
    subtypeSpec = constraint.ValueRangeConstraint(0, 2 ** 32 - 1)


class TimeTicks(univ.Integer):
    tagSet = univ.Integer.tagSet.tagImplicitly(_application(3))
    subtypeSpec = constraint.ValueRangeConstraint(0, 2 ** 32 - 1)


class Opaque(univ.OctetString):
    tagSet = univ.OctetString.tagSet.tagImplicitly(_application(4))


class Counter64(univ.Integer):
    tagSet = univ.Integer.tagSet.tagImplicitly(_application(6))
    subtypeSpec = constraint.ValueRangeConstraint(0, 2 ** 64 - 1)


class Value(univ.Choice):
    """The value CHOICE of RFC 3416's VarBind, ObjectSyntax written flat."""

    componentType = namedtype.NamedTypes(
        namedtype.NamedType("integer-value", univ.Integer()),
        namedtype.NamedType("string-value", univ.OctetString()),
        namedtype.NamedType("objectID-value", univ.ObjectIdentifier()),
        namedtype.NamedType("ipAddress-value", IpAddress()),
        namedtype.NamedType("counter-value", Counter32()),
        namedtype.NamedType("unsigned-integer-value", Gauge32()),
        namedtype.NamedType("timeticks-value", TimeTicks()),
        namedtype.NamedType("arbitrary-value", Opaque()),
        namedtype.NamedType("big-counter-value", Counter64()),
        namedtype.NamedType("unSpecified", univ.Null()),
        namedtype.NamedType(
            "noSuchObject", univ.Null().subtype(implicitTag=_context(0))),
        namedtype.NamedType(
            "noSuchInstance", univ.Null().subtype(implicitTag=_context(1))),
        namedtype.NamedType(
            "endOfMibView", univ.Null().subtype(implicitTag=_context(2))),
    )


class VarBind(univ.Sequence):
    componentType = namedtype.NamedTypes(
        namedtype.NamedType("name", univ.ObjectIdentifier()),
        namedtype.NamedType("value", Value()))


class VarBindList(univ.SequenceOf):
    componentType = VarBind()


class PDU(univ.Sequence):
    componentType = namedtype.NamedTypes(
        namedtype.NamedType("request-id", univ.Integer()),
        namedtype.NamedType("error-status", univ.Integer()),
        namedtype.NamedType("error-index", univ.Integer()),
        namedtype.NamedType("variable-bindings", VarBindList()))


class BulkPDU(univ.Sequence):
    componentType = namedtype.NamedTypes(
        namedtype.NamedType("request-id", univ.Integer()),
        namedtype.NamedType("non-repeaters", univ.Integer()),
        namedtype.NamedType("max-repetitions", univ.Integer()),
        namedtype.NamedType("variable-bindings", VarBindList()))


class NetworkAddress(univ.Choice):
    componentType = namedtype.NamedTypes(
        namedtype.NamedType("internet", IpAddress()))


class TrapPDU(univ.Sequence):
    """RFC 1157's Trap-PDU, [4] IMPLICIT SEQUENCE."""

    tagSet = univ.Sequence.tagSet.tagImplicitly(
        _context(4, tag.tagFormatConstructed))
    componentType = namedtype.NamedTypes(
        namedtype.NamedType("enterprise", univ.ObjectIdentifier()),
        namedtype.NamedType("agent-addr", NetworkAddress()),
        namedtype.NamedType("generic-trap", univ.Integer()),
        namedtype.NamedType("specific-trap", univ.Integer()),
        namedtype.NamedType("time-stamp", TimeTicks()),
        namedtype.NamedType("variable-bindings", VarBindList()))


def _tagged(pdu_type, number):
    return pdu_type().subtype(
        implicitTag=_context(number, tag.tagFormatConstructed))


# The PDU CHOICEs of RFC 1157 and RFC 3416 together, by tag number
_PDU_NAMES = ("get-request", "get-next-request", "response", "set-request",
              "trap", "get-bulk-request", "inform-request", "snmpV2-trap",
              "report")


class PDUs(univ.Choice):
    componentType = namedtype.NamedTypes(*(
        namedtype.NamedType(name, TrapPDU() if n == TRAP_V1 else
                            _tagged(BulkPDU if n == 5 else PDU, n))
        for n, name in enumerate(_PDU_NAMES)))


class Message(univ.Sequence):
    componentType = namedtype.NamedTypes(
        namedtype.NamedType("version", univ.Integer()),
        namedtype.NamedType("community", univ.OctetString()),
        namedtype.NamedType("data", PDUs()))


_INT31 = constraint.ValueRangeConstraint(0, 2 ** 31 - 1)


class HeaderData(univ.Sequence):
    componentType = namedtype.NamedTypes(
        namedtype.NamedType("msgID", univ.Integer().subtype(
            subtypeSpec=_INT31)),
        namedtype.NamedType("msgMaxSize", univ.Integer().subtype(
            subtypeSpec=constraint.ValueRangeConstraint(484, 2 ** 31 - 1))),
        namedtype.NamedType("msgFlags", univ.OctetString().subtype(
            subtypeSpec=constraint.ValueSizeConstraint(1, 1))),
        namedtype.NamedType("msgSecurityModel", univ.Integer().subtype(
            subtypeSpec=constraint.ValueRangeConstraint(1, 2 ** 31 - 1))))


class ScopedPDU(univ.Sequence):
    """RFC 3412's ScopedPDU, its data ANY written as RFC 3416's PDUs."""

    componentType = namedtype.NamedTypes(
        namedtype.NamedType("contextEngineID", univ.OctetString()),
        namedtype.NamedType("contextName", univ.OctetString()),
        namedtype.NamedType("data", PDUs()))


class ScopedPduData(univ.Choice):
    componentType = namedtype.NamedTypes(
        namedtype.NamedType("plaintext", ScopedPDU()),
        namedtype.NamedType("encryptedPDU", univ.OctetString()))


class SNMPv3Message(univ.Sequence):
    componentType = namedtype.NamedTypes(
        namedtype.NamedType("msgVersion", univ.Integer().subtype(
            subtypeSpec=_INT31)),
        namedtype.NamedType("msgGlobalData", HeaderData()),
        namedtype.NamedType("msgSecurityParameters", univ.OctetString()),
        namedtype.NamedType("msgData", ScopedPduData()))


class UsmSecurityParameters(univ.Sequence):
    componentType = namedtype.NamedTypes(
        namedtype.NamedType("msgAuthoritativeEngineID", univ.OctetString()),
        namedtype.NamedType("msgAuthoritativeEngineBoots",
                            univ.Integer().subtype(subtypeSpec=_INT31)),
        namedtype.NamedType("msgAuthoritativeEngineTime",
                            univ.Integer().subtype(subtypeSpec=_INT31)),
        namedtype.NamedType("msgUserName", univ.OctetString().subtype(
            subtypeSpec=constraint.ValueSizeConstraint(0, 32))),
        namedtype.NamedType("msgAuthenticationParameters",
                            univ.OctetString()),
        namedtype.NamedType("msgPrivacyParameters", univ.OctetString()))


# --- values: each drawn as (pyasn1 CHOICE name, value, snmpkit value) -------

_u32 = st.integers(0, 2 ** 32 - 1)
_arcs = st.tuples(
    st.one_of(st.tuples(st.integers(0, 1), st.integers(0, 39)),
              st.tuples(st.just(2), st.integers(0, 2 ** 20))),
    st.lists(_u32, max_size=8)).map(lambda t: t[0] + tuple(t[1]))


def _pair(name, values, to_snmpkit):
    return values.map(lambda v: (name, v, to_snmpkit(v)))


_MARKERS = {"noSuchObject": ber.NO_SUCH_OBJECT,
            "noSuchInstance": ber.NO_SUCH_INSTANCE,
            "endOfMibView": ber.END_OF_MIB_VIEW}
_plain_values = st.one_of(
    _pair("integer-value", st.integers(-2 ** 31, 2 ** 31 - 1), int),
    _pair("string-value", st.binary(max_size=140), ber.OctetString),
    _pair("objectID-value", _arcs, ber.Oid),
    _pair("ipAddress-value", st.binary(min_size=4, max_size=4),
          ber.IpAddress),
    _pair("counter-value", _u32, ber.Counter32),
    _pair("unsigned-integer-value", _u32, ber.Gauge32),
    _pair("timeticks-value", _u32, ber.TimeTicks),
    _pair("arbitrary-value", st.binary(max_size=20), ber.Opaque),
    _pair("big-counter-value", st.integers(0, 2 ** 64 - 1), ber.Counter64),
    st.just(("unSpecified", "", ber.NULL)),
)
_exception_values = st.sampled_from(sorted(_MARKERS)).map(
    lambda name: (name, "", _MARKERS[name]))
_bindings = st.lists(st.tuples(_arcs, _plain_values | _exception_values),
                     max_size=6)


@st.composite
def _messages(draw):
    """(octets pyasn1 encodes, snmpkit message they stand for)."""
    version = draw(st.sampled_from([V1, V2C]))
    pdu_type = draw(st.integers(0, 8))
    bindings = draw(_bindings)
    if version == V1 and pdu_type != TRAP_V1:  # RFC 1157 has no exceptions
        bindings = [b for b in bindings if b[1][0] not in _MARKERS]
    community = draw(st.binary(max_size=16))
    msg = Message()
    msg["version"] = version
    msg["community"] = community
    pdu = msg["data"][_PDU_NAMES[pdu_type]]
    vbs = _fill_bindings(pdu, bindings)
    if pdu_type == TRAP_V1:
        enterprise, addr = draw(_arcs), draw(st.binary(min_size=4, max_size=4))
        fields = (draw(st.integers(0, 6)), draw(st.integers(0, 2 ** 31 - 1)),
                  draw(_u32))
        pdu["enterprise"] = enterprise
        pdu["agent-addr"]["internet"] = addr
        for key, value in zip(("generic-trap", "specific-trap", "time-stamp"),
                              fields):
            pdu[key] = value
        expected = messages.TrapV1Pdu(
            ber.Oid(enterprise), ber.IpAddress(addr), *fields, vbs)
    else:
        fields = (draw(st.integers(-2 ** 31, 2 ** 31 - 1)),
                  draw(st.integers(0, 18)), draw(st.integers(0, 2 ** 31 - 1)))
        for position, value in enumerate(fields):
            pdu.setComponentByPosition(position, value)
        expected = messages.Pdu(pdu_type, *fields, vbs)
    return encoder.encode(msg), messages.CommunityMessage(
        version, community, expected)


def _fill_bindings(pdu, bindings):
    """Append the drawn bindings to the pyasn1 pdu; their snmpkit
    VarBinds."""
    for arcs, (name, value, _) in bindings:
        vb = VarBind()
        vb["name"] = arcs
        vb["value"][name] = value
        pdu["variable-bindings"].append(vb)
    return [messages.VarBind(ber.Oid(arcs), value)
            for arcs, (_, _, value) in bindings]


def _same_values(decoded, expected):
    return len(decoded) == len(expected) and all(
        d.name == e.name and type(d.value) is type(e.value)
        and (d.value is e.value or d.value == e.value)
        for d, e in zip(decoded, expected))


class TestPyasn1Interop:
    def test_types_write_the_golden_get_request(self):
        # pyasn1's octets for these types match a captured vector
        msg = Message()
        msg["version"] = V2C
        msg["community"] = b"public"
        pdu = msg["data"]["get-request"]
        for position, value in enumerate((1234, 0, 0)):
            pdu.setComponentByPosition(position, value)
        for arcs in ((1, 3, 6, 1, 2, 1, 1, 1, 0), (1, 3, 6, 1, 2, 1, 1, 3, 0)):
            vb = VarBind()
            vb["name"] = arcs
            vb["value"]["unSpecified"] = ""
            pdu["variable-bindings"].append(vb)
        with open(os.path.join(os.path.dirname(__file__),
                               "golden_wire.json")) as f:
            golden = bytes.fromhex(json.load(f)["v2c_get_request"])
        assert encoder.encode(msg) == golden

    @settings(max_examples=300, deadline=None)
    @given(_messages())
    def test_pyasn1_messages_decode_to_the_same_fields(self, case):
        wire, expected = case
        pdu_type = expected.pdu.pdu_type
        if pdu_type > TRAP_V1 if expected.version == V1 \
                else pdu_type == TRAP_V1:
            with pytest.raises(DecodingError):
                messages.decode_message(wire)
            return
        msg = messages.decode_message(wire)
        assert (msg.version, msg.community) == \
            (expected.version, expected.community)
        pdu, want = msg.pdu, expected.pdu
        assert type(pdu) is type(want) and pdu.pdu_type == want.pdu_type
        if isinstance(want, messages.TrapV1Pdu):
            assert (pdu.enterprise, pdu.agent_addr, pdu.generic_trap,
                    pdu.specific_trap, pdu.timestamp) == \
                (want.enterprise, want.agent_addr, want.generic_trap,
                 want.specific_trap, want.timestamp)
        else:
            assert (pdu.request_id, pdu.error_status, pdu.error_index) == \
                (want.request_id, want.error_status, want.error_index)
        assert _same_values(pdu.bindings, want.bindings)


# --- SNMPv3 ------------------------------------------------------------------

_CREDENTIAL = usm.Credential.create("alice", ("sha1", "authpass123"),
                                    ("des", "privpass123"))
_LEVELS = {"noAuthNoPriv": 0, "authNoPriv": FLAG_AUTH,
           "authPriv": FLAG_AUTH | FLAG_PRIV}
_u31 = st.integers(0, 2 ** 31 - 1)


@st.composite
def _v3_messages(draw, level):
    """(V3Message at level, one of _LEVELS, with a scoped PDU; the drawn
    bindings of its PDU).  Its MAC and privacy parameters are drawn as
    octets of their length at that level."""
    flags = _LEVELS[level] | draw(st.sampled_from([0, FLAG_REPORTABLE]))
    pdu_type = draw(st.sampled_from(
        [n for n in range(len(_PDU_NAMES)) if n != TRAP_V1]))
    bindings = draw(_bindings)
    pdu = messages.Pdu(pdu_type, draw(st.integers(-2 ** 31, 2 ** 31 - 1)),
                       draw(st.integers(0, 18)), draw(_u31),
                       [messages.VarBind(ber.Oid(arcs), value)
                        for arcs, (_, _, value) in bindings])
    params = messages.UsmParams(
        draw(st.binary(min_size=5 if flags & FLAG_AUTH else 0, max_size=32)),
        draw(_u31), draw(_u31),
        draw(st.binary(max_size=32)),
        draw(st.binary(min_size=12, max_size=12) if flags & FLAG_AUTH
             else st.binary(max_size=12)),
        draw(st.binary(min_size=8, max_size=8) if flags & FLAG_PRIV
             else st.binary(max_size=8)))
    msg = messages.V3Message(
        draw(_u31), flags, params, messages.ScopedPdu(
            draw(st.binary(max_size=32)), draw(st.binary(max_size=32)), pdu),
        msg_max_size=draw(st.integers(484, 2 ** 31 - 1)),
        msg_security_model=draw(st.one_of(st.just(3),
                                          st.integers(1, 2 ** 31 - 1))))
    return msg, bindings


def _pyasn1_v3(msg, bindings, encrypted=None):
    """The pyasn1 SNMPv3Message of msg, whose PDU holds the drawn
    bindings; msgData is encrypted, octets, when they are given."""
    out = SNMPv3Message()
    out["msgVersion"] = V3
    header = out["msgGlobalData"]
    header["msgID"] = msg.msg_id
    header["msgMaxSize"] = msg.msg_max_size
    header["msgFlags"] = bytes([msg.flags])
    header["msgSecurityModel"] = msg.msg_security_model
    params = UsmSecurityParameters()
    for position, value in enumerate((
            msg.usm.engine_id, msg.usm.engine_boots, msg.usm.engine_time,
            msg.usm.user_name, msg.usm.auth_params, msg.usm.priv_params)):
        params.setComponentByPosition(position, value)
    out["msgSecurityParameters"] = encoder.encode(params)
    if encrypted is not None:
        out["msgData"]["encryptedPDU"] = encrypted
        return out
    scoped, pdu = out["msgData"]["plaintext"], msg.scoped_pdu.pdu
    scoped["contextEngineID"] = msg.scoped_pdu.context_engine_id
    scoped["contextName"] = msg.scoped_pdu.context_name
    into = scoped["data"][_PDU_NAMES[pdu.pdu_type]]
    for position, value in enumerate((pdu.request_id, pdu.error_status,
                                      pdu.error_index)):
        into.setComponentByPosition(position, value)
    _fill_bindings(into, bindings)
    return out


def _pyasn1_value(choice):
    """(CHOICE name, plain value) of a decoded pyasn1 Value, as drawn."""
    value = choice.getComponent()
    if isinstance(value, univ.Null):
        return choice.getName(), ""
    if isinstance(value, univ.Integer):
        return choice.getName(), int(value)
    if isinstance(value, univ.OctetString):
        return choice.getName(), bytes(value)
    return choice.getName(), tuple(value)


def _content_at(data, pos, spec):
    """Where pyasn1 finds the content of the TLV of spec at data[pos:]."""
    found = []

    def at(value, substrate, length, options):
        found.append(substrate.tell())
        yield value

    decoder.decode(data[pos:], asn1Spec=spec, substrateFun=at)
    return pos + found[0]


def _after(data, pos, spec):
    """Where the TLV of spec at data[pos:] ends, as pyasn1 decodes it."""
    _, rest = decoder.decode(data[pos:], asn1Spec=spec)
    return len(data) - len(rest)


def _mac_offset(wire):
    """Where pyasn1 finds the msgAuthenticationParameters content in
    wire: in the USM SEQUENCE in msgSecurityParameters, after the engine
    id, boots, time and user name."""
    pos = _content_at(wire, 0, SNMPv3Message())
    pos = _after(wire, _after(wire, pos, univ.Integer()), HeaderData())
    pos = _content_at(wire, _content_at(wire, pos, univ.OctetString()),
                      UsmSecurityParameters())
    for spec in (univ.OctetString(), univ.Integer(), univ.Integer(),
                 univ.OctetString()):
        pos = _after(wire, pos, spec)
    return _content_at(wire, pos, univ.OctetString())


class TestPyasn1V3Interop:
    @pytest.mark.parametrize("level", sorted(_LEVELS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_snmpkit_frames_decode_under_pyasn1(self, level, data):
        msg, bindings = data.draw(_v3_messages(level))
        keys = usm.EngineState()
        keys.adopt(msg.usm.engine_id, msg.usm.engine_boots,
                   msg.usm.engine_time, _CREDENTIAL)
        wire = usm.secure(msg, keys) if msg.flags & FLAG_AUTH \
            else messages.encode_message(msg)
        got, rest = decoder.decode(wire, asn1Spec=SNMPv3Message())
        assert not rest
        header = got["msgGlobalData"]
        assert (int(got["msgVersion"]), int(header["msgID"]),
                int(header["msgMaxSize"]), bytes(header["msgFlags"]),
                int(header["msgSecurityModel"])) == \
            (V3, msg.msg_id, msg.msg_max_size, bytes([msg.flags]),
             msg.msg_security_model)
        params, rest = decoder.decode(bytes(got["msgSecurityParameters"]),
                                      asn1Spec=UsmSecurityParameters())
        assert not rest
        assert (bytes(params[0]), int(params[1]), int(params[2]),
                bytes(params[3]), bytes(params[4]), bytes(params[5])) == \
            (msg.usm.engine_id, msg.usm.engine_boots, msg.usm.engine_time,
             msg.usm.user_name, msg.usm.auth_params, msg.usm.priv_params)
        if msg.flags & FLAG_PRIV:
            encrypted = bytes(got["msgData"]["encryptedPDU"])
            assert encrypted == msg.encrypted_pdu
            scoped, _ = decoder.decode(  # the rest is DES padding
                usm.decrypt_scoped_pdu(encrypted, keys.priv_key,
                                       msg.usm.priv_params),
                asn1Spec=ScopedPDU())
        else:
            scoped = got["msgData"]["plaintext"]
        want = msg.scoped_pdu
        assert (bytes(scoped["contextEngineID"]),
                bytes(scoped["contextName"])) == \
            (want.context_engine_id, want.context_name)
        assert scoped["data"].getName() == _PDU_NAMES[want.pdu.pdu_type]
        pdu = scoped["data"].getComponent()
        assert [int(pdu[i]) for i in range(3)] == \
            [want.pdu.request_id, want.pdu.error_status, want.pdu.error_index]
        assert [(tuple(vb["name"]), _pyasn1_value(vb["value"]))
                for vb in pdu["variable-bindings"]] == \
            [(arcs, (name, value)) for arcs, (name, value, _) in bindings]
        assert msg.mac_offset == _mac_offset(wire)

    @pytest.mark.parametrize("level", sorted(_LEVELS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pyasn1_v3_messages_decode_to_the_same_fields(self, level,
                                                          data):
        # pyasn1 0.6.3 writes some negative INTEGERs with a redundant
        # leading octet (-128 as 02 02 ff 80), which X.690 section 8.3.2
        # forbids; snmpkit reads them as their value, and _mac_offset
        # finds offsets by decoding, not by encoding again
        msg, bindings = data.draw(_v3_messages(level))
        if msg.flags & FLAG_PRIV:
            msg.encrypted_pdu = data.draw(st.binary(min_size=8, max_size=96))
            msg.scoped_pdu = None
        wire = encoder.encode(_pyasn1_v3(msg, bindings, msg.encrypted_pdu))
        got = messages.decode_message(wire)
        assert (got.msg_version, got.msg_id, got.flags, got.msg_max_size,
                got.msg_security_model, got.usm, got.encrypted_pdu) == \
            (V3, msg.msg_id, msg.flags, msg.msg_max_size,
             msg.msg_security_model, msg.usm, msg.encrypted_pdu)
        if msg.scoped_pdu is None:
            assert got.scoped_pdu is None
        else:
            scoped, want = got.scoped_pdu, msg.scoped_pdu
            assert (scoped.context_engine_id, scoped.context_name) == \
                (want.context_engine_id, want.context_name)
            assert (scoped.pdu.pdu_type, scoped.pdu.request_id,
                    scoped.pdu.error_status, scoped.pdu.error_index) == \
                (want.pdu.pdu_type, want.pdu.request_id,
                 want.pdu.error_status, want.pdu.error_index)
            assert _same_values(scoped.pdu.bindings, want.pdu.bindings)
        assert got.mac_offset == _mac_offset(wire)
