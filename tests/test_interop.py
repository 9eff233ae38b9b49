"""The PDU reader against an independent encoder: pyasn1.

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
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from snmpkit import ber, messages
from snmpkit.errors import DecodingError
from snmpkit.messages import TRAP_V1, V1, V2C

pytest.importorskip("pyasn1")
from pyasn1.codec.ber import encoder  # noqa: E402
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
    for arcs, (name, value, _) in bindings:
        vb = VarBind()
        vb["name"] = arcs
        vb["value"][name] = value
        pdu["variable-bindings"].append(vb)
    vbs = [messages.VarBind(ber.Oid(arcs), value)
           for arcs, (_, _, value) in bindings]
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
