"""Byte-exact wire vectors and non-minimal length forms.

``golden_wire.json`` holds the hex encodings of three messages as the
earlier, copy-per-level codec produced them: a 25-varbind v2c response
to a GETBULK with sub-identifiers and lengths above 127, a v3 authPriv
message with a fixed salt, and a v1 trap.  Five more were taken from the
tree-based message frames before frames were read and written in one
pass: a v2c GET request, a v1 response carrying an error-status, a v3
discovery probe, a v3 authNoPriv response and a usmStats Report.  The
codec must reproduce them byte for byte.  The second half checks that
long-form lengths a real agent may send (``81 05``, ``82 00 05``)
decode, at every nesting level, to the same value as the minimal form.
"""

import json
import os

import pytest

from conftest import TREE_REGISTRY
from snmpkit import ber, messages, usm
from snmpkit.messages import (
    CommunityMessage, GET_REQUEST, Pdu, REPORT, RESPONSE, ScopedPdu,
    TrapV1Pdu, UsmParams, V1, V2C, V3Message, VarBind,
    FLAG_AUTH, FLAG_PRIV, FLAG_REPORTABLE,
)

with open(os.path.join(os.path.dirname(__file__), "golden_wire.json")) as _f:
    GOLDEN = json.load(_f)

IF_ENTRY = (1, 3, 6, 1, 2, 1, 2, 2, 1)
SYSDESCR_0 = (1, 3, 6, 1, 2, 1, 1, 1, 0)
SYSUPTIME_0 = (1, 3, 6, 1, 2, 1, 1, 3, 0)
ENGINE_ID = bytes.fromhex("000000000000000000000002")


def _bulk_value(i, index):
    if i == 24:
        return ber.END_OF_MIB_VIEW
    if i == 12:
        return ber.OctetString(bytes(range(200)))  # long-form length
    return (
        ber.OctetString(b"eth%d" % index),
        ber.Counter32(index * 1000003 % 2 ** 32),
        ber.Gauge32(index * 7919),
        ber.TimeTicks(index * 360000),
        ber.Counter64(2 ** 63 + index),
        ber.IpAddress(bytes([10, 0, index // 256, index % 256])),
        ber.Oid((1, 3, 6, 1, 4, 1, 31609, index, 2 ** 21)),
        -1000 * index,
        ber.NULL,
    )[i % 9]


def bulk_response():
    bindings = [VarBind(ber.Oid(IF_ENTRY + (2 + i % 3, index)),
                        _bulk_value(i, index))
                for i, index in enumerate(range(120, 145))]
    pdu = Pdu(RESPONSE, 0x1234567, 0, 0, bindings)
    return messages.encode_message(CommunityMessage(V2C, b"public", pdu))


def _v3_keys():
    auth = usm.localize_key(usm.password_to_key("maplesyrup", usm.AUTH_SHA1),
                            ENGINE_ID, usm.AUTH_SHA1)
    priv = usm.localize_key(usm.password_to_key("privpassword", usm.AUTH_SHA1),
                            ENGINE_ID, usm.AUTH_SHA1)
    return auth, priv


def _v3_engine():
    """The golden message's engine as usm.secure and usm.open take it."""
    keys = usm.EngineState()
    keys.adopt(ENGINE_ID, 7, 123456, usm.Credential.create(
        "authPrivUser", (usm.AUTH_SHA1, "maplesyrup"),
        (usm.PRIV_DES, "privpassword")))
    return keys


def v3_auth_priv():
    auth_key, priv_key = _v3_keys()
    scoped = ScopedPdu(ENGINE_ID, b"", Pdu(GET_REQUEST, 4242, bindings=[
        VarBind(ber.Oid(SYSDESCR_0)),
        VarBind(ber.Oid((1, 3, 6, 1, 2, 1, 1, 3, 0)))]))
    params = UsmParams(ENGINE_ID, 7, 123456, b"authPrivUser", bytes(12))
    ciphertext, params.priv_params = usm.encrypt_scoped_pdu(
        messages.encode_scoped_pdu(scoped), priv_key, 7, salt=0x01020304)
    msg = V3Message(31337, FLAG_AUTH | FLAG_PRIV | FLAG_REPORTABLE, params,
                    encrypted_pdu=ciphertext)
    params.auth_params = usm.sign(messages.encode_message(msg), auth_key,
                                  usm.AUTH_SHA1)
    return messages.encode_message(msg)


def trap_v1():
    pdu = TrapV1Pdu(ber.Oid((1, 3, 6, 1, 4, 1, 31609, 1)),
                    ber.IpAddress(b"\xc0\xa8\x01\x80"), 6, 200, 2 ** 32 - 1,
                    [VarBind(ber.Oid(IF_ENTRY + (1, 130)), 130),
                     VarBind(ber.Oid(SYSDESCR_0), ber.OctetString(b"trap"))])
    return messages.encode_message(CommunityMessage(V1, b"public", pdu))


def v2c_get_request():
    pdu = Pdu(GET_REQUEST, 1234, bindings=[VarBind(ber.Oid(SYSDESCR_0)),
                                           VarBind(ber.Oid(SYSUPTIME_0))])
    return messages.encode_message(CommunityMessage(V2C, b"public", pdu))


def v1_error_response():
    pdu = Pdu(RESPONSE, 77, 2, 2, [  # noSuchName at the second binding
        VarBind(ber.Oid(SYSDESCR_0), ber.OctetString(b"snmpkit")),
        VarBind(ber.Oid((1, 3, 6, 1, 2, 1, 1, 99, 0)))])
    return messages.encode_message(CommunityMessage(V1, b"private", pdu))


def v3_discovery_probe():
    return messages.encode_message(V3Message(
        4096, FLAG_REPORTABLE, UsmParams(),
        ScopedPdu(pdu=Pdu(GET_REQUEST, 4095))))


def v3_auth_response():
    keys = usm.EngineState()
    keys.adopt(ENGINE_ID, 7, 123456, usm.Credential.create(
        "authUser", (usm.AUTH_SHA1, "maplesyrup")))
    return usm.secure(V3Message(
        31338, FLAG_AUTH, UsmParams(ENGINE_ID, 7, 123456, b"authUser"),
        ScopedPdu(ENGINE_ID, b"", Pdu(RESPONSE, 4243, bindings=[
            VarBind(ber.Oid(SYSDESCR_0), ber.OctetString(b"snmpkit agent")),
            VarBind(ber.Oid(SYSUPTIME_0), ber.TimeTicks(4200))]))), keys)


def usm_stats_report():
    return messages.encode_message(V3Message(
        4096, 0, UsmParams(ENGINE_ID, 7, 123456, b""),
        ScopedPdu(ENGINE_ID, b"", Pdu(REPORT, 4095, bindings=[VarBind(
            ber.Oid(messages.USM_STATS_UNKNOWN_ENGINE_IDS),
            ber.Counter32(1))]))))


VECTORS = {"bulk_response": bulk_response, "v3_auth_priv": v3_auth_priv,
           "trap_v1": trap_v1, "v2c_get_request": v2c_get_request,
           "v1_error_response": v1_error_response,
           "v3_discovery_probe": v3_discovery_probe,
           "v3_auth_response": v3_auth_response,
           "usm_stats_report": usm_stats_report}


class TestGoldenWire:
    @pytest.mark.parametrize("name", sorted(VECTORS))
    def test_encoder_reproduces_vector(self, name):
        assert VECTORS[name]().hex() == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(VECTORS))
    def test_vector_round_trips(self, name):
        wire = bytes.fromhex(GOLDEN[name])
        msg = messages.decode_message(wire)
        assert messages.encode_message(msg) == wire

    def test_v3_vector_opens(self):
        msg = messages.decode_message(bytes.fromhex(GOLDEN["v3_auth_priv"]))
        auth_key, priv_key = _v3_keys()
        mac = msg.usm.auth_params
        msg.usm.auth_params = bytes(12)
        assert usm.verify(messages.encode_message(msg), auth_key,
                          usm.AUTH_SHA1, mac)
        plain = usm.decrypt_scoped_pdu(msg.encrypted_pdu, priv_key,
                                       msg.usm.priv_params)
        scoped, _ = messages.decode_scoped_pdu(plain)
        assert scoped.pdu.request_id == 4242
        assert [vb.arcs for vb in scoped.pdu.bindings][0] == SYSDESCR_0

    def test_secure_reproduces_v3_vector(self):
        keys = _v3_engine()
        scoped = ScopedPdu(ENGINE_ID, b"", Pdu(GET_REQUEST, 4242, bindings=[
            VarBind(ber.Oid(SYSDESCR_0)),
            VarBind(ber.Oid((1, 3, 6, 1, 2, 1, 1, 3, 0)))]))
        msg = V3Message(31337, FLAG_AUTH | FLAG_PRIV | FLAG_REPORTABLE,
                        UsmParams(ENGINE_ID, 7, 123456, b"authPrivUser"),
                        scoped)
        wire = usm.secure(msg, keys, salt=0x01020304)
        assert wire.hex() == GOLDEN["v3_auth_priv"]
        opened, plain = usm.open(wire, keys)
        assert opened.msg_id == 31337 and plain == scoped

    def test_bulk_vector_values(self):
        msg = messages.decode_message(bytes.fromhex(GOLDEN["bulk_response"]))
        bindings = msg.pdu.bindings
        assert len(bindings) == 25
        assert bindings[0].arcs == IF_ENTRY + (2, 120)
        for i, vb in enumerate(bindings):
            expected = _bulk_value(i, 120 + i)
            assert vb.value == expected
            assert type(vb.value) is type(expected)


# --- non-minimal length forms --------------------------------------------


def _long_length(n, extra):
    """Length n in the long form, padded with extra leading zero octets."""
    body = n.to_bytes(max(1, (n.bit_length() + 7) // 8) + extra, "big")
    return bytes([0x80 | len(body)]) + body


def _stretch(data, level, extra, depth=0):
    """Re-emit every TLV in data, giving those at nesting depth level (or
    at every depth, when level is None) a non-minimal long-form length."""
    out, pos = b"", 0
    while pos < len(data):
        tag, tag_len = ber.decode_tag(data, pos)
        length, len_len = ber.decode_length(data, pos + tag_len)
        start = pos + tag_len + len_len
        content = data[start:start + length]
        if tag.constructed:
            content = _stretch(content, level, extra, depth + 1)
        header = ber.encode_length(len(content))
        if level is None or level == depth:
            header = _long_length(len(content), extra)
        out += data[pos:pos + tag_len] + header + content
        pos = start + length
    return out


def _depth(data, depth=0):
    deepest, pos = depth, 0
    while pos < len(data):
        tag, tag_len = ber.decode_tag(data, pos)
        length, len_len = ber.decode_length(data, pos + tag_len)
        start = pos + tag_len + len_len
        if tag.constructed:
            deepest = max(deepest,
                          _depth(data[start:start + length], depth + 1))
        pos = start + length
    return deepest


class TestNonMinimalLengths:
    def test_forms(self):
        assert _long_length(5, 0) == b"\x81\x05"
        assert _long_length(5, 1) == b"\x82\x00\x05"
        stretched = _stretch(bytes.fromhex("3003020105"), None, 1)
        assert stretched == bytes.fromhex("3082000502820001" "05")

    @pytest.mark.parametrize("name", sorted(VECTORS))
    @pytest.mark.parametrize("extra", [0, 1])
    def test_every_level_decodes_alike(self, name, extra):
        wire = bytes.fromhex(GOLDEN[name])
        expected = ber.decode(wire, registry=TREE_REGISTRY)[0]
        expected_msg = messages.decode_message(wire)
        levels = list(range(_depth(wire) + 1)) + [None]
        for level in levels:
            stretched = _stretch(wire, level, extra)
            value, consumed = ber.decode(stretched,
                                         registry=TREE_REGISTRY)
            assert consumed == len(stretched)
            assert value == expected
            assert messages.decode_message(stretched) == expected_msg
