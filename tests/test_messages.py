import pytest
from hypothesis import given, settings, strategies as st

from conftest import tree_decode_bindings, tree_encode_message
from snmpkit import ber, messages
from snmpkit.errors import DecodingError, SnmpError
from snmpkit.messages import (
    CommunityMessage, Pdu, ScopedPdu, TrapV1Pdu, UsmParams, V3Message,
    VarBind, V1, V2C, V3,
    GET_BULK_REQUEST, GET_NEXT_REQUEST, GET_REQUEST, INFORM_REQUEST, REPORT,
    RESPONSE, SET_REQUEST, SNMPV2_TRAP, TRAP_V1,
    FLAG_AUTH, FLAG_PRIV, FLAG_REPORTABLE,
)
from snmpkit.oids import Registry


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
            decoded = messages.pdu_from_ber(
                _reparse(messages.pdu_to_ber(pdu)))
            assert decoded.pdu_type == pdu_type
            assert decoded.request_id == 7
            assert decoded.error_status == 1 and decoded.error_index == 2

    def test_trap_v1_layout(self):
        pdu = TrapV1Pdu(ber.Oid((1, 3, 6, 1, 4, 1, 31609)),
                        ber.IpAddress(b"\x7f\x00\x00\x01"), 6, 42, 12345,
                        [VarBind(ber.Oid(SYSDESCR_0), ber.OctetString(b"t"))])
        decoded = messages.pdu_from_ber(_reparse(messages.pdu_to_ber(pdu)))
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
    decoded, _ = ber.decode(ber.encode(ts), registry=messages.SNMP_REGISTRY)
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
    return ber.decode(ber.encode(value), registry=messages.SNMP_REGISTRY)[0]


def _seq(content):
    return b"\x30" + ber.encode_length(len(content)) + content


_NAME = ber.Oid((1, 3, 6, 1, 2, 1, 1, 5, 0))
_BINDING = ber.encode([_NAME, ber.NULL])


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
