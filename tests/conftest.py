import pytest

from snmpkit import agent, ber, messages, usm
from snmpkit.errors import DecodingError
from snmpkit.messages import (
    DEFAULT_MAX_MSG_SIZE, FLAG_AUTH, FLAG_PRIV, FLAG_REPORTABLE, PDU_TYPE_NAMES,
    SECURITY_MODEL_USM, TRAP_V1, CommunityMessage, Pdu, ScopedPdu, TrapV1Pdu,
    UsmParams, V1, V2C, V3, V3Message, VarBind,
)
from snmpkit.mibs import load_core
from snmpkit.oids import Registry


def enumerate_instances(tree, ctx):
    """All (full arcs, handler, rest ids) triples of a dispatch tree, sorted
    lexicographically: the brute-force oracle that agent dispatch, which
    probes only the handlers a request reaches, is checked against."""
    out = []
    for base, (handler, _) in tree.snapshot().items():
        try:
            spec = handler(ctx, ())
        except Exception:
            continue
        if spec is None:
            continue
        for rest in agent.expand_children(spec):
            out.append((base + rest, handler, rest))
    out.sort(key=lambda item: item[0])
    return out


def answers(response):
    """A dispatch response's bindings as VarBinds: the binding TLVs of a
    GETBULK answer, ber.EncodedBindings, are read back."""
    if isinstance(response.bindings, ber.EncodedBindings):
        return [VarBind(*ber.decode(tlv)[0]) for tlv in response.bindings]
    return response.bindings


def _tree_oid(name):
    return name if isinstance(name, ber.Oid) else ber.Oid(name.arcs)


def _tree_pdu(pdu):
    bindings = [[_tree_oid(vb.name), vb.value] for vb in pdu.bindings]
    if isinstance(pdu, TrapV1Pdu):
        fields = [pdu.enterprise, pdu.agent_addr, pdu.generic_trap,
                  pdu.specific_trap, ber.TimeTicks(pdu.timestamp)]
    else:
        fields = [pdu.request_id, pdu.error_status, pdu.error_index]
    return ber.TaggedSequence(ber.Tag(ber.CONTEXT, True, pdu.pdu_type),
                              fields + [bindings])


def tree_encode_message(msg):
    """A message's octets as one value tree through the generic ber.encode,
    every binding a [Oid, value] list: the formulation that the one-pass
    frames and bindings codec of messages are checked against."""
    if isinstance(msg, CommunityMessage):
        return ber.encode([msg.version, ber.OctetString(msg.community),
                           _tree_pdu(msg.pdu)])
    params = msg.usm
    sec_params = ber.encode([
        ber.OctetString(params.engine_id), params.engine_boots,
        params.engine_time, ber.OctetString(params.user_name),
        ber.OctetString(params.auth_params),
        ber.OctetString(params.priv_params)])
    scoped = msg.scoped_pdu
    msg_data = ber.OctetString(msg.encrypted_pdu) \
        if msg.flags & FLAG_PRIV else [
            ber.OctetString(scoped.context_engine_id),
            ber.OctetString(scoped.context_name), _tree_pdu(scoped.pdu)]
    return ber.encode([
        msg.msg_version,
        [msg.msg_id, msg.msg_max_size, ber.OctetString(bytes([msg.flags])),
         msg.msg_security_model],
        ber.OctetString(sec_params), msg_data])


def _fields(value, kinds, what):
    if not isinstance(value, list) or len(value) != len(kinds) or \
            not all(isinstance(v, k) for v, k in zip(value, kinds)):
        raise DecodingError(f"malformed {what}")
    return value


def _tree_bindings(items):
    """VarBinds from a variable-bindings list of the value tree, each item
    checked to be a [Oid, value] list."""
    if not isinstance(items, list):
        raise DecodingError("malformed variable-bindings list")
    for item in items:
        if not isinstance(item, list) or len(item) != 2 or \
                not isinstance(item[0], ber.Oid):
            raise DecodingError(f"malformed variable binding {item!r}")
    return [VarBind(name, value) for name, value in items]


def pdu_from_ber(ts, version=None):
    """A Pdu or TrapV1Pdu from the TaggedSequence of its value tree, as
    ber.decode decodes it; v1 rejects exception values outside a trap:
    the formulation that messages' PDU reader is checked against.  Given
    a version, a PDU type it does not define is rejected: RFC 1157 has no
    tags 5-8, RFC 3416 (v2c and v3) no tag 4."""
    if isinstance(ts, ber.Raw):
        raise DecodingError(f"unknown PDU tag {ts.tag!r}")
    if not isinstance(ts, ber.TaggedSequence) or \
            ts.tag.cls != ber.CONTEXT or not ts.tag.constructed:
        raise DecodingError(f"expected a PDU, got {ts!r}")
    pdu_type = ts.tag.number
    if pdu_type not in PDU_TYPE_NAMES:
        raise DecodingError(f"unknown PDU tag number {pdu_type}")
    if version is not None and \
            (pdu_type > TRAP_V1 if version == V1 else pdu_type == TRAP_V1):
        raise DecodingError(f"PDU tag {pdu_type} in a version {version} "
                            "message")
    els = list(ts.elements)
    if pdu_type == TRAP_V1:
        if len(els) != 6 or not all(isinstance(v, k) for v, k in zip(
                els, (ber.Oid, ber.IpAddress, int, int, int, list))):
            raise DecodingError("malformed trap-v1 PDU")
        ent, addr, generic, specific, stamp, bindings = els
        return TrapV1Pdu(ent, addr, int(generic), int(specific), int(stamp),
                         _tree_bindings(bindings))
    if len(els) != 4:
        raise DecodingError(f"PDU needs 4 elements, got {len(els)}")
    request_id, error_status, error_index, bindings = els
    if not all(isinstance(x, int)
               for x in (request_id, error_status, error_index)):
        raise DecodingError("malformed PDU header")
    vbs = _tree_bindings(bindings)
    if version == V1:
        for vb in vbs:
            if vb.value in ber.EXCEPTION_MARKERS:
                raise DecodingError(
                    f"v2 exception value {vb.value!r} in a v1 message")
    return Pdu(pdu_type, int(request_id), int(error_status),
               int(error_index), vbs)


def _tree_scoped(value):
    engine_id, context, pdu_ts = _fields(value, (bytes, bytes, object),
                                         "scoped PDU")
    return ScopedPdu(bytes(engine_id), bytes(context),
                     pdu_from_ber(pdu_ts, V3))


def tree_decode_message(data):
    """A message read from its generic decoded value tree, its security
    parameters decoded again from their OCTET STRING: the formulation
    that messages.decode_message, which reads each frame in one pass, is
    checked against."""
    outer, _ = ber.decode(data)
    if not isinstance(outer, list) or not outer or \
            not isinstance(outer[0], int):
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
    if version != V3:
        raise DecodingError(f"unsupported SNMP version {version}")
    if len(outer) != 4:
        raise DecodingError("v3 message needs 4 elements")
    _, global_data, sec_bytes, msg_data = outer
    msg_id, max_size, flags_octet, sec_model = _fields(
        global_data, (int, int, bytes, int), "msgGlobalData")
    if len(flags_octet) != 1:
        raise DecodingError("malformed msgFlags")
    if not 484 <= max_size <= 2 ** 31 - 1:
        raise DecodingError(f"msgMaxSize {max_size} out of range")
    flags = flags_octet[0]
    if not isinstance(sec_bytes, bytes):
        raise DecodingError("security parameters are not an OCTET STRING")
    sec, _ = ber.decode(sec_bytes)
    sec = _fields(sec, (bytes, int, int, bytes, bytes, bytes),
                  "USM security parameters")
    msg = V3Message(int(msg_id), flags, UsmParams(
        bytes(sec[0]), int(sec[1]), int(sec[2]), bytes(sec[3]),
        bytes(sec[4]), bytes(sec[5])), msg_max_size=int(max_size),
        msg_security_model=int(sec_model))
    if flags & FLAG_PRIV:
        if not flags & FLAG_AUTH:
            raise DecodingError("priv flag set without auth flag")
        if not isinstance(msg_data, bytes):
            raise DecodingError("encrypted scoped PDU must be an OCTET STRING")
        if len(msg.usm.priv_params) == 0:
            raise DecodingError("priv flag set but priv_params empty")
        msg.encrypted_pdu = bytes(msg_data)
    else:
        msg.scoped_pdu = _tree_scoped(msg_data)
    return msg


def _header(wire, pos):
    """(content offset, content length) of the TLV at wire[pos]."""
    _, used = ber.decode_tag(wire, pos)
    length, more = ber.decode_length(wire, pos + used)
    return pos + used + more, length


def walk_mac_offset(wire):
    """Offset of the msgAuthenticationParameters content in an encoded v3
    message, found by walking TLV headers: SEQUENCE { msgVersion,
    msgGlobalData, OCTET STRING { SEQUENCE { engine id, boots, time, user
    name, MAC, ...: the oracle for the offset messages records."""
    pos, _ = _header(wire, 0)
    for _ in range(2):  # msgVersion, msgGlobalData
        start, length = _header(wire, pos)
        pos = start + length
    pos, _ = _header(wire, _header(wire, pos)[0])
    for _ in range(4):  # engine id, boots, time, user name
        start, length = _header(wire, pos)
        pos = start + length
    return _header(wire, pos)[0]


def tree_decode_bindings(wire):
    """The bindings of a v1/v2c message read from its generic decoded tree,
    each checked to be a [Oid, value] list."""
    message, _ = ber.decode(wire)
    return _tree_bindings(message[2].elements[-1])


def v3_request(responder, pdu, user=None, max_size=DEFAULT_MAX_MSG_SIZE,
               security_model=SECURITY_MODEL_USM, context_engine_id=None):
    """(wire, keys): pdu in a v3 request to responder, a v3 engine with
    engine_id, engine and credential, from a client that has discovered
    it and holds keys, at the credential's security level, as user (the
    credential's user by default), with msgMaxSize max_size,
    msgSecurityModel security_model and contextEngineID
    context_engine_id (the engine's id by default).  usm.open opens the
    reply with keys."""
    state, cred = responder.engine, responder.credential
    keys = usm.EngineState()
    keys.adopt(responder.engine_id, state.engine_boots, state.engine_time,
               cred)
    msg = V3Message(
        1, FLAG_REPORTABLE | cred.security_flags,
        UsmParams(responder.engine_id, state.engine_boots, state.engine_time,
                  user or cred.user.encode()),
        ScopedPdu(responder.engine_id if context_engine_id is None
                  else context_engine_id, b"", pdu), msg_max_size=max_size,
        msg_security_model=security_model)
    return usm.secure(msg, keys), keys


@pytest.fixture()
def registry():
    """A fresh registry with the bundled corpus; safe to mutate."""
    return load_core(Registry())


@pytest.fixture()
def loopback_agent(registry):
    """(tree, ctx) serving the system group, enterprise MIB and demo table."""
    ctx = agent.AgentContext(registry=registry)
    tree = agent.DispatchTree()
    agent.install_system_group(tree, ctx)
    agent.install_enterprise_mib(tree, ctx)
    agent.install_if_table(tree, registry, agent.demo_if_rows())
    return tree, ctx
