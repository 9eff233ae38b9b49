import functools
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    TREE_REGISTRY, pdu_from_ber, tree_decode_bindings, tree_decode_message,
    tree_encode_message, walk_mac_offset,
)
from snmpkit import ber, messages
from snmpkit.mibs import load_core
from snmpkit.errors import DecodingError, EncodingError, SnmpError
from snmpkit.messages import (
    CommunityMessage, Pdu, ScopedPdu, TrapV1Pdu, UsmParams, V3Message,
    VarBind, V1, V2C, V3,
    GET_BULK_REQUEST, GET_NEXT_REQUEST, GET_REQUEST, INFORM_REQUEST, REPORT,
    RESPONSE, SET_REQUEST, SNMPV2_TRAP, TRAP_V1,
    FLAG_AUTH, FLAG_PRIV, FLAG_REPORTABLE,
)
from snmpkit.oids import OidRef, Registry


# --- independent TLV oracle ------------------------------------------------
# A from-scratch, minimal BER writer used only to freeze golden message
# bytes; it shares no code with the implementation under test.


def _o_len(n):
    if n < 0x80:
        return bytes([n])
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def _o_int(n, tag=0x02):
    if n == 0:
        body = b"\x00"
    else:
        length = (n.bit_length() // 8) + 1 if n >= 0 else \
            ((-n - 1).bit_length() // 8) + 1
        body = n.to_bytes(length, "big", signed=True)
    return bytes([tag]) + _o_len(len(body)) + body


def _o_str(data, tag=0x04):
    return bytes([tag]) + _o_len(len(data)) + data


def _o_oid(arcs):
    body = bytes([40 * arcs[0] + arcs[1]])
    for arc in arcs[2:]:
        chunk = [arc & 0x7F]
        arc >>= 7
        while arc:
            chunk.append(0x80 | (arc & 0x7F))
            arc >>= 7
        body += bytes(reversed(chunk))
    return bytes([0x06]) + _o_len(len(body)) + body


def _o_seq(parts, tag=0x30):
    body = b"".join(parts)
    return bytes([tag]) + _o_len(len(body)) + body


def oracle_get_request(version, community, request_id, arcs):
    return _o_seq([
        _o_int(version),
        _o_str(community),
        _o_seq([
            _o_int(request_id),
            _o_int(0),
            _o_int(0),
            _o_seq([_o_seq([_o_oid(arcs), b"\x05\x00"])]),
        ], tag=0xA0),
    ])


SYSDESCR_0 = (1, 3, 6, 1, 2, 1, 1, 1, 0)

# frozen from the oracle above, then asserted against the implementation
GOLDEN_V2C_GET = bytes.fromhex(
    "302902010104067075626c6963a01c02047fffffff0201000201003"
    "00e300c06082b060102010101000500")


class TestGoldenMessage:
    def test_oracle_freeze(self):
        assert oracle_get_request(1, b"public", 0x7FFFFFFF, SYSDESCR_0) == \
            GOLDEN_V2C_GET

    def test_encode_matches_golden(self):
        pdu = Pdu(GET_REQUEST, 0x7FFFFFFF,
                  bindings=[VarBind(ber.Oid(SYSDESCR_0))])
        wire = messages.encode_message(CommunityMessage(V2C, b"public", pdu))
        assert wire == GOLDEN_V2C_GET

    def test_decode_matches_golden(self):
        msg = messages.decode_message(GOLDEN_V2C_GET)
        assert msg.version == V2C
        assert msg.community == b"public"
        assert msg.pdu.pdu_type == GET_REQUEST
        assert msg.pdu.request_id == 0x7FFFFFFF
        assert msg.pdu.bindings[0].arcs == SYSDESCR_0
        assert msg.pdu.bindings[0].value is ber.NULL


class TestPduRoundTrip:
    def test_all_pdu_types(self):
        for pdu_type in (GET_REQUEST, GET_NEXT_REQUEST, RESPONSE, SET_REQUEST,
                         GET_BULK_REQUEST, INFORM_REQUEST, SNMPV2_TRAP,
                         REPORT):
            pdu = Pdu(pdu_type, 7, 1, 2,
                      [VarBind(ber.Oid(SYSDESCR_0), ber.OctetString(b"x"))])
            decoded = pdu_from_ber(
                _reparse(messages.pdu_to_ber(pdu)))
            assert decoded.pdu_type == pdu_type
            assert decoded.request_id == 7
            assert decoded.error_status == 1 and decoded.error_index == 2

    def test_trap_v1_layout(self):
        pdu = TrapV1Pdu(ber.Oid((1, 3, 6, 1, 4, 1, 31609)),
                        ber.IpAddress(b"\x7f\x00\x00\x01"), 6, 42, 12345,
                        [VarBind(ber.Oid(SYSDESCR_0), ber.OctetString(b"t"))])
        decoded = pdu_from_ber(_reparse(messages.pdu_to_ber(pdu)))
        assert isinstance(decoded, TrapV1Pdu)
        assert decoded.enterprise.arcs == (1, 3, 6, 1, 4, 1, 31609)
        assert decoded.generic_trap == 6 and decoded.specific_trap == 42
        assert decoded.timestamp == 12345

    def test_bulk_field_aliases(self):
        pdu = Pdu(GET_BULK_REQUEST, 1, 2, 10, [VarBind(ber.Oid(SYSDESCR_0))])
        assert pdu.non_repeaters == 2
        assert pdu.max_repetitions == 10

    def test_v1_rejects_v2_exception_values(self):
        pdu = Pdu(RESPONSE, 1,
                  bindings=[VarBind(ber.Oid(SYSDESCR_0), ber.NO_SUCH_OBJECT)])
        wire = messages.encode_message(CommunityMessage(V1, b"public", pdu))
        with pytest.raises(DecodingError):
            messages.decode_message(wire)
        # the identical bytes are fine as v2c
        wire2 = messages.encode_message(CommunityMessage(V2C, b"public", pdu))
        decoded = messages.decode_message(wire2)
        assert decoded.pdu.bindings[0].value is ber.NO_SUCH_OBJECT


def _reparse(ts):
    decoded, _ = ber.decode(ber.encode(ts), registry=TREE_REGISTRY)
    return decoded


class TestV3Message:
    def _sample(self, flags=FLAG_REPORTABLE):
        pdu = Pdu(GET_REQUEST, 99, bindings=[VarBind(ber.Oid(SYSDESCR_0))])
        usm = UsmParams(b"\x80engine", 3, 1234, b"alice")
        return V3Message(55, flags, usm, ScopedPdu(b"\x80engine", b"", pdu))

    def test_plaintext_round_trip(self):
        wire = messages.encode_message(self._sample())
        decoded = messages.decode_message(wire)
        assert decoded.msg_id == 55
        assert decoded.usm.user_name == b"alice"
        assert decoded.scoped_pdu.pdu.request_id == 99

    def test_priv_requires_auth_on_encode(self):
        msg = self._sample(flags=FLAG_PRIV)
        with pytest.raises(SnmpError):
            messages.encode_message(msg)

    def test_priv_requires_auth_on_decode(self):
        msg = self._sample(flags=FLAG_AUTH | FLAG_PRIV)
        msg.usm.priv_params = b"\x00" * 8
        msg.encrypted_pdu = b"\x00" * 16
        msg.scoped_pdu = None
        wire = messages.encode_message(msg)
        # flip the flags octet so priv is set without auth
        broken = wire.replace(bytes([FLAG_AUTH | FLAG_PRIV]),
                              bytes([FLAG_PRIV]), 1)
        with pytest.raises(DecodingError):
            messages.decode_message(broken)

    def test_empty_priv_params_rejected(self):
        msg = self._sample(flags=FLAG_AUTH | FLAG_PRIV)
        msg.encrypted_pdu = b"\x00" * 16
        msg.scoped_pdu = None
        wire = messages.encode_message(msg)
        with pytest.raises(DecodingError):
            messages.decode_message(wire)

    def test_msg_max_size_is_held_to_its_range(self):
        # msgMaxSize is INTEGER (484..2147483647) (RFC 3412 section 6)
        msg = self._sample()
        for size in (484, 2 ** 31 - 1, 483, 0, -5, 2 ** 31):
            msg.msg_max_size = size
            wire = messages.encode_message(msg)
            if 484 <= size < 2 ** 31:
                assert messages.decode_message(wire).msg_max_size == size
            else:
                with pytest.raises(DecodingError):
                    messages.decode_message(wire)

    def test_encrypted_round_trip(self):
        msg = self._sample(flags=FLAG_AUTH | FLAG_PRIV)
        msg.usm.priv_params = b"\x01" * 8
        msg.encrypted_pdu = b"\xAA" * 24
        msg.scoped_pdu = None
        decoded = messages.decode_message(messages.encode_message(msg))
        assert decoded.encrypted_pdu == b"\xAA" * 24
        assert decoded.scoped_pdu is None


class TestMakeRequestPdu:
    def test_bare_specs_get_null(self, registry):
        pdu = messages.make_request_pdu(GET_REQUEST, ["sysDescr.0"],
                                        registry, 5)
        assert pdu.bindings[0].value is ber.NULL

    def test_pair_specs_carry_values(self, registry):
        pdu = messages.make_request_pdu(SET_REQUEST,
                                        [("sysName.0", ber.OctetString(b"n"))],
                                        registry, 5)
        assert pdu.bindings[0].value == b"n"

    def test_arc_tuple_is_one_oid(self, registry):
        pdu = messages.make_request_pdu(GET_REQUEST, [(1, 3, 6, 1, 2, 1)],
                                        registry, 5)
        assert pdu.bindings[0].arcs == (1, 3, 6, 1, 2, 1)

    def test_empty_bindings_rejected(self, registry):
        with pytest.raises(SnmpError):
            messages.make_request_pdu(GET_REQUEST, [], registry, 5)


_arcs = st.tuples(st.integers(0, 2), st.integers(0, 39)).flatmap(
    lambda head: st.lists(st.integers(0, 2 ** 31), min_size=1, max_size=6).map(
        lambda rest: head + tuple(rest)))

_values = st.one_of(
    st.just(ber.NULL),
    st.integers(-2 ** 31, 2 ** 31 - 1),
    st.binary(max_size=24).map(ber.OctetString),
    st.integers(0, 2 ** 32 - 1).map(ber.Counter32),
    st.integers(0, 2 ** 32 - 1).map(ber.TimeTicks),
    st.integers(0, 2 ** 64 - 1).map(ber.Counter64),
    st.binary(min_size=4, max_size=4).map(ber.IpAddress),
    _arcs.map(ber.Oid),
    st.sampled_from(ber.EXCEPTION_MARKERS),
)

_bindings = st.lists(
    st.tuples(_arcs, _values).map(lambda p: VarBind(ber.Oid(p[0]), p[1])),
    min_size=0, max_size=5)


@st.composite
def _any_message(draw):
    version = draw(st.sampled_from([V1, V2C, V3]))
    community = draw(st.binary(max_size=12))
    if version == V1:
        kind = draw(st.sampled_from(
            [GET_REQUEST, GET_NEXT_REQUEST, RESPONSE, SET_REQUEST, TRAP_V1]))
    else:
        kind = draw(st.integers(0, 8).filter(lambda k: k != TRAP_V1))
    if kind == TRAP_V1:
        pdu = TrapV1Pdu(ber.Oid(draw(_arcs)),
                        ber.IpAddress(draw(st.binary(min_size=4, max_size=4))),
                        draw(st.integers(0, 6)), draw(st.integers(0, 2 ** 16)),
                        draw(st.integers(0, 2 ** 32 - 1)), draw(_bindings))
    else:
        bindings = draw(_bindings)
        if version == V1:
            bindings = [vb for vb in bindings
                        if vb.value not in ber.EXCEPTION_MARKERS]
        pdu = Pdu(kind, draw(st.integers(-2 ** 31, 2 ** 31 - 1)),
                  draw(st.integers(0, 18)), draw(st.integers(0, 2 ** 15)),
                  bindings)
    if version == V3:
        usm = UsmParams(draw(st.binary(max_size=16)),
                        draw(st.integers(0, 2 ** 31 - 1)),
                        draw(st.integers(0, 2 ** 31 - 1)),
                        draw(st.binary(max_size=16)))
        return V3Message(draw(st.integers(0, 2 ** 31 - 1)), FLAG_REPORTABLE,
                         usm, ScopedPdu(draw(st.binary(max_size=16)),
                                        draw(st.binary(max_size=16)), pdu))
    return CommunityMessage(version, community, pdu)


def _pdu_equal(a, b):
    if isinstance(a, TrapV1Pdu):
        return (a.enterprise.arcs == b.enterprise.arcs
                and bytes(a.agent_addr) == bytes(b.agent_addr)
                and a.generic_trap == b.generic_trap
                and a.specific_trap == b.specific_trap
                and a.timestamp == b.timestamp
                and _bindings_equal(a.bindings, b.bindings))
    return (a.pdu_type == b.pdu_type and a.request_id == b.request_id
            and a.error_status == b.error_status
            and a.error_index == b.error_index
            and _bindings_equal(a.bindings, b.bindings))


def _bindings_equal(xs, ys):
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if x.arcs != y.arcs:
            return False
        if isinstance(x.value, ber.Oid):
            if not isinstance(y.value, ber.Oid) or x.value.arcs != y.value.arcs:
                return False
        elif x.value != y.value and x.value is not y.value:
            return False
    return True


class TestMessageProperty:
    @settings(max_examples=400, deadline=None)
    @given(_any_message())
    def test_round_trip(self, msg):
        wire = messages.encode_message(msg)
        decoded = messages.decode_message(wire)
        if isinstance(msg, CommunityMessage):
            assert decoded.version == msg.version
            assert decoded.community == msg.community
            assert _pdu_equal(decoded.pdu, msg.pdu)
        else:
            assert decoded.msg_id == msg.msg_id
            assert decoded.usm == msg.usm
            assert decoded.scoped_pdu.context_engine_id == \
                msg.scoped_pdu.context_engine_id
            assert _pdu_equal(decoded.scoped_pdu.pdu, msg.scoped_pdu.pdu)
        # and re-encoding the decoded form is byte-identical
        assert messages.encode_message(decoded) == wire


# --- the one-pass bindings codec against the generic value tree -------------


class _Arcs:
    """A plain holder of arcs, as a binding name or value."""

    def __init__(self, arcs):
        self.arcs = arcs


_BARE_REGISTRY = Registry()
_SUBIDS = st.one_of(
    st.sampled_from([0, 127, 128, 16383, 16384, 2 ** 32 - 1, 2 ** 32]),
    st.integers(0, 2 ** 32))
_ARCS = st.tuples(
    st.one_of(st.tuples(st.integers(0, 1), st.integers(0, 39)),
              st.tuples(st.just(2), _SUBIDS)),
    st.lists(_SUBIDS, max_size=10)).map(lambda t: t[0] + tuple(t[1]))
# a ref drops a leading 0 arc that the registry reads as its root
_NAMES = st.one_of(_ARCS.map(ber.Oid),
                   _ARCS.filter(lambda arcs: arcs[0]).map(
                       _BARE_REGISTRY.resolve),
                   _ARCS.map(_Arcs))
_VALUES = st.one_of(
    st.integers(),
    st.sampled_from([127, 128, 300]).map(lambda n: ber.OctetString(bytes(n))),
    st.binary(max_size=40).map(ber.OctetString), st.binary(max_size=8),
    st.text(max_size=8),
    st.binary(min_size=4, max_size=4).map(ber.IpAddress),
    st.integers(0, 2 ** 32 - 1).map(ber.Counter32),
    st.integers(0, 2 ** 32 - 1).map(ber.Gauge32),
    st.integers(0, 2 ** 32 - 1).map(ber.TimeTicks),
    st.integers(0, 2 ** 64 - 1).map(ber.Counter64),
    st.binary(max_size=20).map(ber.Opaque),
    st.sampled_from([ber.NULL, None, *ber.EXCEPTION_MARKERS]),
    st.binary(max_size=300).map(
        lambda b: ber.Raw(ber.Tag(ber.PRIVATE, False, 9), b)),
    st.lists(st.integers(), max_size=3),
    _NAMES,
)


def _value_tree(value):
    """value as the generic codec reads it back."""
    return ber.decode(ber.encode(value), registry=TREE_REGISTRY)[0]


def _seq(content):
    return b"\x30" + ber.encode_length(len(content)) + content


_NAME = ber.Oid((1, 3, 6, 1, 2, 1, 1, 5, 0))
_BINDING = ber.encode([_NAME, ber.NULL])
_LAST_ARCS = st.lists(st.one_of(
    st.sampled_from([0, 127, 128, 16383, 16384, 2 ** 32 - 1]),
    st.integers(0, 2 ** 32)), min_size=1, max_size=6)


@st.composite
def _sibling_pairs(draw):
    """(name, value) pairs whose names come in runs that share all but
    their last arc, as a walk's replies do, with one- and two-arc names
    between the runs and the head changing from run to run."""
    names = []
    for _ in range(draw(st.integers(1, 5))):
        names += draw(st.one_of(
            st.tuples(_ARCS, _LAST_ARCS).map(
                lambda run: [run[0] + (last,) for last in run[1]]),
            _LAST_ARCS.map(lambda lasts: [(2, last) for last in lasts]),
            st.tuples(st.integers(0, 2)).map(lambda arcs: [arcs])))
    kinds = st.sampled_from([ber.Oid, _Arcs])
    return [(draw(kinds)(arcs), draw(_VALUES)) for arcs in names]


class TestBindingsCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_NAMES, _VALUES), max_size=6),
           st.sampled_from([GET_REQUEST, RESPONSE, SNMPV2_TRAP]))
    def test_matches_the_value_tree(self, pairs, pdu_type):
        bindings = [VarBind(name, value) for name, value in pairs]
        msg = CommunityMessage(V2C, b"public",
                               Pdu(pdu_type, 5, 0, 0, bindings))
        wire = messages.encode_message(msg)
        assert wire == tree_encode_message(msg)
        decoded = messages.decode_message(wire).pdu.bindings
        assert [(vb.arcs, vb.value) for vb in decoded] == \
            [(tuple(name.arcs), _value_tree(value)) for name, value in pairs]
        assert decoded == tree_decode_bindings(wire)

    @settings(max_examples=200, deadline=None)
    @given(_sibling_pairs(), st.sampled_from([GET_REQUEST, RESPONSE]))
    def test_sibling_runs_match_the_value_tree(self, pairs, pdu_type):
        bindings = [VarBind(name, value) for name, value in pairs]
        msg = CommunityMessage(V2C, b"public",
                               Pdu(pdu_type, 5, 0, 0, bindings))
        wire = messages.encode_message(msg)
        assert wire == tree_encode_message(msg)
        assert messages.decode_message(wire).pdu.bindings == \
            tree_decode_bindings(wire)

    @pytest.mark.parametrize("bindings", [
        [[_NAME]],
        [[_NAME, ber.NULL, ber.NULL]],
        [[5, ber.NULL]],
        [ber.OctetString(b"x"), _NAME],
        [_NAME],
        ber.Encoded(_seq(_BINDING[:-1])),
        ber.Encoded(_seq(_seq(_BINDING[2:] + b"\x00"))),
    ], ids=["one element", "three elements", "name not an OID",
            "name after value", "not a SEQUENCE", "truncated",
            "trailing octet"])
    def test_malformed_binding_is_a_decoding_error(self, bindings):
        wire = ber.encode([V2C, ber.OctetString(b"public"), ber.TaggedSequence(
            ber.Tag(ber.CONTEXT, True, GET_REQUEST), [1, 0, 0, bindings])])
        with pytest.raises(DecodingError):
            messages.decode_message(wire)
        with pytest.raises(DecodingError):
            tree_decode_bindings(wire)


# --- one-pass message frames against the value-tree oracle ------------------

_KINDS = ("v1", "v2c", "trap-v1", "noAuthNoPriv", "authNoPriv", "authPriv")
_FLAGS = {"noAuthNoPriv": 0, "authNoPriv": FLAG_AUTH,
          "authPriv": FLAG_AUTH | FLAG_PRIV}
# Header OCTET STRINGs of 0 to 300 octets, so that their lengths take the
# long form too, and INTEGERs at each boundary of their content length
# as well as anywhere in their range, negative ones for a request-id.
_octets = st.one_of(st.binary(max_size=20),
                    st.binary(min_size=120, max_size=300))
_BOUNDARIES = (0, 127, 128, 255, 256, 32767, 32768, 2 ** 23 - 1, 2 ** 23,
               2 ** 31 - 1)
_int32 = st.one_of(st.sampled_from(_BOUNDARIES),
                   st.integers(0, 2 ** 31 - 1))
_signed32 = st.one_of(
    st.sampled_from(_BOUNDARIES + tuple(-n - 1 for n in _BOUNDARIES)),
    st.integers(-2 ** 31, 2 ** 31 - 1))
_max_size = st.one_of(
    st.sampled_from((484,) + tuple(n for n in _BOUNDARIES if n >= 484)),
    st.integers(484, 2 ** 31 - 1))

with open(os.path.join(os.path.dirname(__file__), "golden_wire.json")) as _f:
    _GOLDEN_WIRE = {name: bytes.fromhex(h)
                    for name, h in json.load(_f).items()}
_GOLDEN = list(_GOLDEN_WIRE.values())


@st.composite
def _framed(draw, kind):
    """A message of kind, one of _KINDS, with any field values."""
    bindings = draw(_bindings)
    if kind in ("v1", "trap-v1"):
        bindings = [vb for vb in bindings
                    if vb.value not in ber.EXCEPTION_MARKERS]
    if kind == "trap-v1":
        return CommunityMessage(V1, draw(_octets), TrapV1Pdu(
            ber.Oid(draw(_arcs)),
            ber.IpAddress(draw(st.binary(min_size=4, max_size=4))),
            draw(st.integers(0, 6)), draw(_int32),
            draw(st.integers(0, 2 ** 32 - 1)), bindings))
    pdu = Pdu(draw(st.sampled_from(
        [k for k in messages.PDU_TYPE_NAMES
         if k < TRAP_V1 or k > TRAP_V1 and kind != "v1"])),
        draw(_signed32), draw(st.integers(0, 18)), draw(_int32), bindings)
    if kind in ("v1", "v2c"):
        return CommunityMessage(V1 if kind == "v1" else V2C, draw(_octets),
                                pdu)
    flags = _FLAGS[kind] | draw(st.sampled_from([0, FLAG_REPORTABLE]))
    msg = V3Message(
        draw(_int32), flags,
        UsmParams(draw(_octets), draw(_int32), draw(_int32), draw(_octets),
                  draw(st.binary(min_size=12, max_size=12) if flags & FLAG_AUTH
                       else _octets),
                  draw(st.binary(min_size=8, max_size=8) if flags & FLAG_PRIV
                       else _octets)),
        msg_max_size=draw(_max_size),
        msg_security_model=draw(_int32))
    if flags & FLAG_PRIV:
        msg.encrypted_pdu = draw(st.binary(max_size=200))
    else:
        msg.scoped_pdu = ScopedPdu(draw(_octets), draw(_octets), pdu)
    return msg


def _mutations(wire):
    return st.tuples(st.integers(0, len(wire) - 1), st.integers(0, 255)).map(
        lambda m: wire[:m[0]] + bytes([m[1]]) + wire[m[0] + 1:])


_any_wire = st.sampled_from(_KINDS).flatmap(_framed).map(
    messages.encode_message)
_suspect_wire = st.one_of(
    st.binary(max_size=200),
    st.one_of(st.sampled_from(_GOLDEN), _any_wire).flatmap(
        lambda w: st.one_of(_mutations(w),
                            st.integers(0, len(w)).map(lambda n: w[:n]))))


class TestOnePassFrames:
    @pytest.mark.parametrize("kind", _KINDS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_tree_oracle(self, kind, data):
        msg = data.draw(_framed(kind))
        wire = messages.encode_message(msg)
        assert wire == tree_encode_message(msg)
        decoded = messages.decode_message(wire)
        assert decoded == tree_decode_message(wire) == msg
        assert messages.encode_message(decoded) == wire
        if isinstance(msg, V3Message):
            assert msg.mac_offset == decoded.mac_offset == \
                walk_mac_offset(wire)
            # a non-minimal outer length moves the MAC
            body = wire[ber.header(wire, 0, len(wire), 0x30, "message")[0]:]
            stretched = b"\x30\x83" + len(body).to_bytes(3, "big") + body
            assert messages.decode_message(stretched).mac_offset == \
                walk_mac_offset(stretched)

    @settings(max_examples=600, deadline=None)
    @given(_suspect_wire)
    def test_accepts_only_what_the_tree_oracle_accepts(self, data):
        try:
            msg = messages.decode_message(data)
        except DecodingError:
            return
        assert tree_decode_message(data) == msg
        if isinstance(msg, V3Message):
            assert msg.mac_offset == walk_mac_offset(data)

    @pytest.mark.parametrize("name, at, tag, field", [
        ("v2c_get_request", 2, 0x41, "msgVersion"),  # Counter32
        ("v2c_get_request", 5, 0x44, "community"),  # Opaque
        ("v3_discovery_probe", 7, 0x41, "msgGlobalData"),  # msgID
        ("v3_discovery_probe", 16, 0x44, "msgGlobalData"),  # msgFlags
    ])
    def test_header_fields_carry_universal_tags(self, name, at, tag, field):
        wire = bytearray(_GOLDEN_WIRE[name])
        wire[at] = tag
        tree_decode_message(bytes(wire))  # the value tree takes it
        with pytest.raises(DecodingError, match=field):
            messages.decode_message(bytes(wire))

    @pytest.mark.parametrize("kind", ["v2c", "noAuthNoPriv", "scoped"])
    def test_pdu_is_read_at_the_tree_nesting_depth(self, kind):
        def accepts(decode, data):
            try:
                decode(data)
            except DecodingError:
                return False
            return True

        verdicts = set()
        for depth in range(56, 66):
            value = []
            for _ in range(depth):
                value = [value]
            pdu = Pdu(RESPONSE, 1, bindings=[VarBind(ber.Oid(SYSDESCR_0),
                                                     value)])
            if kind == "v2c":
                data = messages.encode_message(
                    CommunityMessage(V2C, b"public", pdu))
                oracle = tree_decode_message
            elif kind == "noAuthNoPriv":
                data = messages.encode_message(V3Message(
                    1, 0, UsmParams(), ScopedPdu(b"e", b"", pdu)))
                oracle = tree_decode_message
            else:
                data = messages.encode_scoped_pdu(ScopedPdu(b"e", b"", pdu))
                oracle = functools.partial(
                    ber.decode, registry=TREE_REGISTRY)
            decode = messages.decode_scoped_pdu if kind == "scoped" \
                else messages.decode_message
            verdict = accepts(decode, data)
            assert verdict == accepts(oracle, data)
            verdicts.add(verdict)
        assert verdicts == {True, False}  # the bound lies in the range

    @pytest.mark.parametrize("frame", [
        None, "community message", "v3 message", "msgGlobalData",
        "USM security parameters", "scoped PDU"])
    def test_frame_with_an_element_too_many_is_rejected(self, frame):
        def elements(name, *values):
            return list(values) + ([ber.NULL] if name == frame else [])

        pdu = messages.pdu_to_ber(Pdu(GET_REQUEST, 1))
        empty = ber.OctetString(b"")
        community = ber.encode(elements(
            "community message", V2C, ber.OctetString(b"public"), pdu))
        v3 = ber.encode(elements(
            "v3 message", V3,
            elements("msgGlobalData", 1, 484, ber.OctetString(b"\x04"), 3),
            ber.OctetString(ber.encode(elements(
                "USM security parameters", empty, 0, 0, empty, empty,
                empty))),
            elements("scoped PDU", empty, empty, pdu)))
        if frame is None:
            for wire in (community, v3):
                assert messages.decode_message(wire) == \
                    tree_decode_message(wire)
            return
        wire = community if frame == "community message" else v3
        for decode in (messages.decode_message, tree_decode_message):
            with pytest.raises(DecodingError):
                decode(wire)


# --- the PDU reader ----------------------------------------------------------

_GET = _GOLDEN_WIRE["v2c_get_request"]  # PDU at 13, its fields at 15, 19, 22


def _high_tag(wire, at, *lengths):
    """wire with the one-octet identifier at `at` written in the two-octet
    high-tag form, and the short lengths at `lengths` grown by one."""
    wire = bytearray(wire)
    for n in lengths:
        wire[n] += 1
    wire[at:at + 1] = bytes([wire[at] | 0x1F, wire[at] & 0x1F])
    return bytes(wire)


class TestPduReader:
    @pytest.mark.parametrize("wire, match", [
        # RFC 3416 section 3: request-id, error-status and error-index are
        # INTEGER, which BER tags 0x02
        (_GET[:15] + b"\x41" + _GET[16:], "PDU header"),  # Counter32
        (_GET[:19] + b"\x42" + _GET[20:], "PDU header"),  # Gauge32
        (_GET[:22] + b"\x43" + _GET[23:], "PDU header"),  # TimeTicks
        # X.690 section 8.1.2.2: a tag number of 0 to 30 takes one
        # identifier octet
        (_high_tag(_GET, 13, 1), "PDU"),
        (_high_tag(_GET, 25, 1, 14), "variable-bindings list"),
    ], ids=["request-id", "error-status", "error-index",
            "PDU identifier", "variable-bindings list"])
    def test_header_forms_the_value_tree_took_are_rejected(self, wire, match):
        tree_decode_message(wire)  # the value tree takes it
        with pytest.raises(DecodingError, match=match):
            messages.decode_message(wire)

    def test_trap_time_stamp_tagged_integer_decodes(self):
        wire = _GOLDEN_WIRE["trap_v1"]
        assert wire[39] == 0x43  # the TimeTicks time-stamp
        wire = wire[:39] + b"\x02" + wire[40:]
        msg = messages.decode_message(wire)
        assert msg.pdu.timestamp == 2 ** 32 - 1
        assert msg == tree_decode_message(wire)

    @staticmethod
    def _wire_with_value(value):
        pdu = Pdu(RESPONSE, 1, bindings=[VarBind(
            ber.Oid(SYSDESCR_0), ber.Encoded(value))])
        return messages.encode_message(CommunityMessage(V2C, b"p", pdu))

    @pytest.mark.parametrize("value, expected", [
        (b"\xa2\x00", ber.TaggedSequence(ber.Tag(ber.CONTEXT, True, 2), [])),
        (b"\x30\x05\xa7\x03\x02\x01\x07", [ber.TaggedSequence(
            ber.Tag(ber.CONTEXT, True, 7), [7])]),
    ], ids=["binding value", "in a SEQUENCE"])
    def test_value_under_a_pdu_tag_is_a_tagged_sequence(self, value,
                                                         expected):
        wire = self._wire_with_value(value)
        (vb,) = messages.decode_message(wire).pdu.bindings
        assert vb.value == expected
        assert tree_decode_message(wire).pdu.bindings == [vb]

    @pytest.mark.parametrize("value", [b"\xa3\x01x", b"\x30\x03\xa3\x01x"],
                             ids=["binding value", "in a SEQUENCE"])
    def test_malformed_value_under_a_pdu_tag_is_rejected(self, value):
        wire = self._wire_with_value(value)
        for decode in (messages.decode_message, tree_decode_message):
            with pytest.raises(DecodingError):
                decode(wire)

    @pytest.mark.parametrize("version,pdu_type", [
        (V1, GET_BULK_REQUEST), (V1, INFORM_REQUEST), (V1, SNMPV2_TRAP),
        (V1, REPORT), (V2C, TRAP_V1), (V3, TRAP_V1)])
    def test_pdu_type_the_version_does_not_define_is_refused(
            self, version, pdu_type):
        """RFC 1157 defines no PDU tags 5-8, RFC 3416 no tag 4."""
        pdu = TrapV1Pdu(ber.Oid((1, 3, 6, 1)), ber.IpAddress(bytes(4)), 1, 0,
                        0) if pdu_type == TRAP_V1 else Pdu(pdu_type, 1)
        if version == V3:
            wire = messages.encode_message(V3Message(
                1, 0, UsmParams(), ScopedPdu(b"", b"", pdu)))
            scoped = messages.encode_scoped_pdu(ScopedPdu(b"", b"", pdu))
            with pytest.raises(DecodingError):
                messages.decode_scoped_pdu(scoped)
        else:
            wire = messages.encode_message(
                CommunityMessage(version, b"public", pdu))
        for decode in (messages.decode_message, tree_decode_message):
            with pytest.raises(DecodingError):
                decode(wire)

    @pytest.mark.parametrize("pdu_type", [-1, 9, 12, 31])
    def test_only_known_pdu_types_are_encoded(self, pdu_type):
        with pytest.raises(EncodingError):
            messages.encode_message(
                CommunityMessage(V1, b"p", Pdu(pdu_type, 1)))


# --- the one-pass binding reader against a reference reader -----------------
# Names with multi-octet sub-identifiers, every value kind, long-form
# lengths (128 octets and more) in binding, name and value headers,
# exception markers and unknown tags, read back as Raw.

_SUBID = st.one_of(st.integers(0, 127), st.integers(128, 2 ** 32 - 1))
_HEAD = st.one_of(st.tuples(st.integers(0, 1), st.integers(0, 39)),
                  st.tuples(st.just(2), st.integers(0, 2 ** 32 - 81)))
_LONG_ARCS = st.tuples(_HEAD, st.one_of(
    st.lists(_SUBID, max_size=8),
    st.lists(st.integers(0, 127), min_size=126, max_size=140))).map(
    lambda t: t[0] + tuple(t[1]))
_LONG = st.integers(126, 300)
_READER_VALUES = st.one_of(
    st.sampled_from([ber.NULL, *ber.EXCEPTION_MARKERS]),
    st.integers(-2 ** 63, 2 ** 63),
    st.integers(2 ** 1020, 2 ** 1030), st.integers(-2 ** 1030, -2 ** 1020),
    st.binary(max_size=20).map(ber.OctetString),
    _LONG.map(lambda n: ber.OctetString((bytes(range(256)) * 2)[:n])),
    st.binary(min_size=4, max_size=4).map(ber.IpAddress),
    st.integers(0, 2 ** 32 - 1).map(ber.Counter32),
    st.integers(0, 2 ** 32 - 1).map(ber.Gauge32),
    st.integers(0, 2 ** 32 - 1).map(ber.TimeTicks),
    st.integers(0, 2 ** 64 - 1).map(ber.Counter64),
    st.one_of(st.binary(max_size=8), _LONG.map(bytes)).map(ber.Opaque),
    _LONG_ARCS.map(ber.Oid),
    st.lists(st.integers(), max_size=3),
    st.tuples(st.sampled_from([(ber.APPLICATION, 5), (ber.APPLICATION, 9),
                               (ber.CONTEXT, 3), (ber.PRIVATE, 30),
                               (ber.PRIVATE, 31), (ber.APPLICATION, 200)]),
              st.one_of(st.binary(max_size=8), _LONG.map(bytes))).map(
        lambda t: ber.Raw(ber.Tag(t[0][0], False, t[0][1]), t[1])),
)
_READER_BINDINGS = st.lists(st.builds(VarBind, _LONG_ARCS.map(ber.Oid),
                                      _READER_VALUES), max_size=4)
# identifier and length octets that steer a header read down each path
_STEERING = (0x00, 0x06, 0x30, 0x7F, 0x80, 0x81, 0xFF)


def _reference_bindings(wire):
    """(name, value) pairs of a v1/v2c message's bindings, read with
    ber.decode: the message is SEQUENCE { version, community, PDU }, the
    bindings the PDU's last element."""
    (_, _, pdu), _ = ber.decode(wire)
    return [(name, value) for name, value in pdu.elements[-1]]


def _decodes_or_is_refused(wire):
    """decode_message(wire) raises DecodingError and nothing else, or
    reads a community message's bindings as the reference reader does."""
    try:
        msg = messages.decode_message(wire)
    except DecodingError:
        return
    if isinstance(msg, CommunityMessage):
        assert [(vb.name, vb.value) for vb in msg.pdu.bindings] == \
            _reference_bindings(wire)


def _v2c_wire(bindings, pdu_type=RESPONSE):
    return messages.encode_message(
        CommunityMessage(V2C, b"public", Pdu(pdu_type, 7, 0, 0, bindings)))


def _v2c_wire_of_list(content, pdu_type=RESPONSE):
    """A v2c message whose variable-bindings list holds content, with
    every header around it written to fit."""
    return ber.encode([V2C, ber.OctetString(b"public"), ber.TaggedSequence(
        ber.Tag(ber.CONTEXT, True, pdu_type),
        [7, 0, 0, ber.Encoded(_seq(content))])])


class TestBindingReader:
    @settings(max_examples=40, deadline=None)
    @given(_READER_BINDINGS, st.sampled_from([GET_REQUEST, RESPONSE, REPORT]))
    def test_reads_what_the_reference_reads(self, bindings, pdu_type):
        wire = _v2c_wire(bindings, pdu_type)
        decoded = messages.decode_message(wire).pdu.bindings
        assert [(vb.name, vb.value) for vb in decoded] == \
            _reference_bindings(wire)
        assert messages.encode_message(messages.decode_message(wire)) == wire
        tlvs = [ber.encode([vb.name, vb.value]) for vb in bindings]
        assert _v2c_wire_of_list(b"".join(tlvs), pdu_type) == wire
        # truncations: of the message, of its list, and of each binding
        # as the last in its list, the headers around them fitted
        for n in range(len(wire)):
            with pytest.raises(DecodingError):
                messages.decode_message(wire[:n])
        content = b"".join(tlvs)
        for n in range(len(content)):
            _decodes_or_is_refused(_v2c_wire_of_list(content[:n], pdu_type))
        for i, tlv in enumerate(tlvs):
            start, end = ber.header(tlv, 0, len(tlv), 0x30, "binding")
            for n in range(end - start):
                _decodes_or_is_refused(_v2c_wire_of_list(
                    b"".join(tlvs[:i]) + _seq(tlv[start:start + n]),
                    pdu_type))
        # single-octet changes, to the octets that steer a header read
        for at, octet in enumerate(wire):
            for new in {*_STEERING, octet ^ 0x01}:
                _decodes_or_is_refused(wire[:at] + bytes((new,))
                                       + wire[at + 1:])

    def test_every_single_octet_change(self):
        wire = _v2c_wire([
            VarBind(ber.Oid((1, 3, 6, 1, 4, 1, 300, 2 ** 32 - 1)),
                    ber.OctetString(bytes(130))),
            VarBind(ber.Oid((2, 999, 1)), ber.NO_SUCH_INSTANCE),
            VarBind(ber.Oid((1, 3, 6, 1)), ber.Counter64(2 ** 64 - 1)),
            VarBind(ber.Oid((0, 0)), ber.Raw(ber.Tag(ber.PRIVATE, False, 40),
                                             b"\x01\x02")),
            VarBind(ber.Oid((1, 3)), ber.Oid((1, 3, 6, 1, 2, 1)))])
        for at, octet in enumerate(wire):
            for new in range(256):
                if new != octet:
                    _decodes_or_is_refused(wire[:at] + bytes((new,))
                                           + wire[at + 1:])

    @pytest.mark.parametrize("tail", [
        b"\x30\x81", b"\x30\x02\x06", b"\x30\x03\x06\x01\x2b",
        b"\x30\x04\x06\x01\x2b\x05", b"\x30\x00",
    ], ids=["long length", "name identifier",
            "no value", "value identifier", "empty binding"])
    def test_binding_cut_short_at_the_end_of_the_octets(self, tail):
        # the variable-bindings list ends the message; a binding header
        # read past its end would index past the octets
        wire = _v2c_wire([])
        assert wire.endswith(b"\x30\x00")
        wire = wire[:-1] + bytes((len(tail),)) + tail
        head = bytearray(wire)
        head[1] += len(tail)  # the message SEQUENCE
        head[13 + 1] += len(tail)  # the PDU
        with pytest.raises(DecodingError):
            messages.decode_message(bytes(head))

    def test_lone_sequence_octet_ends_the_list(self):
        # a v2c message whose binding list ends in a lone 0x30 octet
        wire = (b"\x30\x19\x02\x01\x01\x04\x06public"
                b"\xa0\x0c\x02\x01\x07\x02\x01\x00\x02\x01\x00\x30\x01\x30")
        with pytest.raises(DecodingError):
            messages.decode_message(wire)


# --- names read into a registry's refs against plain Oids -------------------
# A loaded registry, shared by every example so that names are read both
# fresh and from its memo, reads each name as the Oid decode would.

_LOADED = load_core(Registry())
_RUN_HEADS = st.one_of(
    st.sampled_from([(0, 0), (1, 3, 6, 1, 2, 1, 1, 1),
                     (1, 3, 6, 1, 2, 1, 2, 2, 1, 2), (1, 3, 6, 1, 4, 1)]),
    _HEAD, _LONG_ARCS)
# a sub-identifier that begins with 0x80, a truncated last one, one of six
# octets, and the empty name, which decodes to no arcs
_ODD_NAMES = st.sampled_from([b"\x2b\x80\x06", b"\x2b\x06\x81",
                              b"\x2b" + b"\x8f" * 5 + b"\x01", b""])


@st.composite
def _wire_names(draw):
    """Name content octets as a reply carries them: runs of names that
    share all but their last arc, one under another, names of more than
    128 octets, and malformed octets."""
    names = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["run", "child", "long", "odd"]))
        head = draw(_RUN_HEADS)
        if kind == "odd":
            names.append(draw(_ODD_NAMES))
        elif kind == "long":
            names.append(ber.Oid((1, 3) + (draw(_SUBID),) * 130).octets)
        elif kind == "child":
            names += [ber.Oid(head[:n]).octets
                      for n in range(2, len(head) + 1)]
        else:
            names += [ber.Oid(head + (last,)).octets
                      for last in draw(st.lists(_SUBID, min_size=1,
                                                max_size=5))]
    return names


def _response_wire(kind, tlvs):
    """The octets of a Response holding the binding TLVs tlvs, as kind
    frames it, and the decoder of those octets."""
    pdu = Pdu(RESPONSE, 7, 0, 0, ber.EncodedBindings(tlvs))
    if kind == "v2c":
        return messages.encode_message(
            CommunityMessage(V2C, b"public", pdu)), messages.decode_message
    scoped = ScopedPdu(b"engine", b"", pdu)
    if kind == "scoped":
        return messages.encode_scoped_pdu(scoped), \
            lambda data, *registry: messages.decode_scoped_pdu(
                data, *registry)[0]
    return messages.encode_message(V3Message(
        9, FLAG_REPORTABLE, UsmParams(), scoped)), messages.decode_message


def _names_and_values(msg):
    """The bindings of a message or scoped PDU as (arcs, octets, value)."""
    pdu = getattr(msg, "pdu", None) or msg.scoped_pdu.pdu
    return [(vb.name.arcs, vb.name.octets, vb.value) for vb in pdu.bindings]


class TestRegistryReadsNames:
    @settings(max_examples=300, deadline=None)
    @given(_wire_names(), st.data(), st.sampled_from(["v2c", "v3", "scoped"]))
    def test_refs_match_the_plain_decode(self, names, data, kind):
        values = data.draw(st.lists(_READER_VALUES, min_size=len(names),
                                    max_size=len(names)))
        tlvs = [_seq(b"\x06" + ber.encode_length(len(name)) + name
                     + ber.encode(value))
                for name, value in zip(names, values)]
        wire, decode = _response_wire(kind, tlvs)
        try:
            plain = decode(wire)
        except DecodingError as exc:
            with pytest.raises(type(exc)) as again:
                decode(wire, _LOADED)
            assert str(again.value) == str(exc)
            return
        read = decode(wire, _LOADED)
        assert _names_and_values(read) == _names_and_values(plain)
        pdu = getattr(read, "pdu", None) or read.scoped_pdu.pdu
        assert all(isinstance(vb.name, OidRef) for vb in pdu.bindings)
