"""Fuzz properties: malformed input is rejected, never raised through.

For any byte string, ``ber.decode`` and ``messages.decode_message`` give
a value or raise ``DecodingError``, ``usm.open`` gives a message or
raises an ``SnmpKitError``, and ``agent.handle_datagram`` gives None or
at most ``messages.MAX_UDP_PAYLOAD`` bytes, with a v3 engine or without.
Inputs are arbitrary bytes, and truncations and single-byte mutations of
valid messages: the golden wire vectors, requests the test agent answers,
GETBULKs with large max-repetitions and authPriv requests.
"""

import functools
import json
import os

from hypothesis import given, settings, strategies as st

from snmpkit import agent, ber, messages, usm
from snmpkit.errors import DecodingError, SnmpKitError
from snmpkit.messages import (
    CommunityMessage, FLAG_AUTH, FLAG_PRIV, FLAG_REPORTABLE,
    GET_BULK_REQUEST, GET_NEXT_REQUEST, GET_REQUEST, Pdu, ScopedPdu,
    SET_REQUEST, UsmParams, V1, V2C, V3Message, VarBind,
)
from snmpkit.mibs import load_core
from snmpkit.oids import Registry

with open(os.path.join(os.path.dirname(__file__), "golden_wire.json")) as _f:
    _GOLDEN_HEX = json.load(_f)
_GOLDEN = [bytes.fromhex(h) for h in _GOLDEN_HEX.values()]
_V3_WIRE = bytes.fromhex(_GOLDEN_HEX["v3_auth_priv"])

SYSTEM = (1, 3, 6, 1, 2, 1, 1)
IF_DESCR_1 = (1, 3, 6, 1, 2, 1, 2, 2, 1, 2, 1)


def _request(version, pdu_type, arcs, value=ber.NULL, a=0, b=0):
    pdu = Pdu(pdu_type, 77, a, b, [VarBind(ber.Oid(arcs), value)])
    return messages.encode_message(CommunityMessage(version, b"public", pdu))


def _v3_plain():
    scoped = ScopedPdu(b"\x80\x00\x1f\x88\x04", b"",
                       Pdu(GET_REQUEST, 5, bindings=[VarBind(ber.Oid(SYSTEM))]))
    params = UsmParams(b"\x80\x00\x1f\x88\x04", 3, 1200, b"user", bytes(12))
    return messages.encode_message(
        V3Message(9, FLAG_AUTH | FLAG_REPORTABLE, params, scoped))


SEEDS = _GOLDEN + [
    _request(V2C, GET_REQUEST, SYSTEM + (1, 0)),
    _request(V1, GET_NEXT_REQUEST, SYSTEM),
    _request(V2C, GET_BULK_REQUEST, IF_DESCR_1, a=0, b=10),
    _request(V2C, SET_REQUEST, SYSTEM + (4, 0), ber.OctetString(b"ops")),
    _v3_plain(),
]


def _mutations(wire):
    return st.tuples(st.integers(0, len(wire) - 1), st.integers(0, 255)).map(
        lambda m: wire[:m[0]] + bytes([m[1]]) + wire[m[0] + 1:])


_inputs = st.one_of(
    st.binary(max_size=300),
    st.sampled_from(SEEDS).flatmap(
        lambda w: st.integers(0, len(w) - 1).map(lambda n: w[:n])),
    st.sampled_from(SEEDS).flatmap(_mutations),
)


@functools.lru_cache(maxsize=None)
def _agent():
    registry = load_core(Registry())
    ctx = agent.AgentContext(registry=registry)
    tree = agent.DispatchTree()
    agent.install_system_group(tree, ctx)
    agent.install_if_table(tree, registry, agent.demo_if_rows())
    return tree, ctx


@functools.lru_cache(maxsize=None)
def _big_agent():
    """The system group and a column of 1,500 40-octet strings, more than
    one datagram holds."""
    registry = load_core(Registry())
    ctx = agent.AgentContext(registry=registry)
    tree = agent.DispatchTree()
    agent.install_system_group(tree, ctx)
    value = ber.OctetString(b"s" * 40)

    def column(ctx, ids):
        if not ids:
            return 1500
        return value if len(ids) == 1 and 1 <= ids[0] <= 1500 else None
    agent.define_table_column(tree, registry, "ifDescr", column)
    return tree, ctx


def _bulk(request):
    names, non_repeaters, max_repetitions = request
    pdu = Pdu(GET_BULK_REQUEST, 77, non_repeaters, max_repetitions,
              [VarBind(ber.Oid(arcs)) for arcs in names])
    return messages.encode_message(CommunityMessage(V2C, b"public", pdu))


_large_bulks = st.tuples(
    st.lists(st.sampled_from([SYSTEM, IF_DESCR_1[:-2], IF_DESCR_1]),
             min_size=1, max_size=3),
    st.integers(0, 3), st.integers(1000, 2 ** 31 - 1)).map(_bulk)


def _v3_keys():
    """The golden authPriv message's engine, as usm.open takes it."""
    keys = usm.EngineState()
    keys.adopt(bytes.fromhex("000000000000000000000002"), 7, 123456,
               usm.Credential.create("authPrivUser", ("sha1", "maplesyrup"),
                                     ("des", "privpassword")))
    return keys


def _signed_with_ciphertext(ciphertext):
    """The golden authPriv message carrying other ciphertext, re-signed so
    that its MAC verifies and usm.open goes on to decrypt."""
    msg = messages.decode_message(_V3_WIRE)
    msg.encrypted_pdu = ciphertext
    msg.usm.auth_params = bytes(12)
    wire = bytearray(messages.encode_message(msg))
    at = msg.mac_offset
    wire[at:at + 12] = usm.sign(wire, _v3_keys().auth_key, "sha1")
    return bytes(wire)


def _v3_engine():
    """A fresh engine that accepts the golden authPriv request, as
    handle_datagram takes it."""
    keys = _v3_keys()
    return agent.LocalEngine(keys.engine_id, usm.Credential.create(
        "authPrivUser", ("sha1", "maplesyrup"), ("des", "privpassword")),
        keys.engine_boots, keys.engine_time)


def _v3_bulk():
    """An authPriv GETBULK to the golden engine that asks for more of the
    big agent's column than one datagram holds."""
    keys = _v3_keys()
    return usm.secure(V3Message(
        9, FLAG_AUTH | FLAG_PRIV | FLAG_REPORTABLE,
        UsmParams(keys.engine_id, keys.engine_boots, keys.engine_time,
                  b"authPrivUser"),
        ScopedPdu(keys.engine_id, b"", Pdu(
            GET_BULK_REQUEST, 5, 0, 2000,
            [VarBind(ber.Oid(IF_DESCR_1[:-2]))]))), keys, salt=1)


_V3_REQUESTS = [_V3_WIRE, _v3_bulk()]


def _value_or_decoding_error(fn, data):
    try:
        fn(data)
    except DecodingError:
        pass


class TestFuzz:
    def test_seeds_are_answered(self):
        tree, ctx = _agent()
        for wire in SEEDS[len(_GOLDEN):-1]:
            assert agent.handle_datagram(tree, ctx, wire) is not None

    @settings(max_examples=600, deadline=None)
    @given(_inputs)
    def test_ber_decode(self, data):
        _value_or_decoding_error(ber.decode, data)

    @settings(max_examples=600, deadline=None)
    @given(_inputs)
    def test_decode_message(self, data):
        _value_or_decoding_error(messages.decode_message, data)

    @settings(max_examples=600, deadline=None)
    @given(_inputs)
    def test_handle_datagram(self, data):
        tree, ctx = _agent()
        reply = agent.handle_datagram(tree, ctx, data)
        assert reply is None or isinstance(reply, bytes)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_inputs, _large_bulks, _large_bulks.flatmap(_mutations)))
    def test_reply_fits_one_datagram(self, data):
        tree, ctx = _big_agent()
        reply = agent.handle_datagram(tree, ctx, data)
        assert reply is None or len(reply) <= messages.MAX_UDP_PAYLOAD

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(_inputs, _mutations(_V3_WIRE),
                     st.binary(max_size=96).map(_signed_with_ciphertext)))
    def test_usm_open(self, data):
        try:
            usm.open(data, _v3_keys())
        except SnmpKitError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=300),
        st.sampled_from(_V3_REQUESTS).flatmap(
            lambda w: st.integers(0, len(w) - 1).map(lambda n: w[:n])),
        st.sampled_from(_V3_REQUESTS).flatmap(_mutations),
        st.binary(max_size=96).map(_signed_with_ciphertext)))
    def test_handle_datagram_with_an_engine(self, data):
        tree, ctx = _big_agent()
        reply = agent.handle_datagram(tree, ctx, data, _v3_engine())
        assert reply is None or isinstance(reply, bytes) and \
            len(reply) <= messages.MAX_UDP_PAYLOAD

    def test_authpriv_seeds_are_answered(self):
        tree, ctx = _big_agent()
        for wire in _V3_REQUESTS:
            engine = _v3_engine()
            assert agent.handle_datagram(tree, ctx, wire, engine) is not None
            assert engine.auth_count == 1
