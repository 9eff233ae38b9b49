import pytest

from snmpkit import agent, ber, usm
from snmpkit.errors import DecodingError
from snmpkit.messages import (
    DEFAULT_MAX_MSG_SIZE, FLAG_REPORTABLE, ScopedPdu, UsmParams, V3Message,
    VarBind,
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


def _tree_oid(name):
    return name if isinstance(name, ber.Oid) else ber.Oid(name.arcs)


def tree_encode_message(msg):
    """A v1/v2c message's octets with every binding a [Oid, value] list
    through the generic ber.encode: the formulation that the one-pass
    bindings codec of messages is checked against."""
    pdu = msg.pdu
    bindings = [[_tree_oid(vb.name), vb.value] for vb in pdu.bindings]
    return ber.encode([msg.version, ber.OctetString(msg.community),
                       ber.TaggedSequence(
                           ber.Tag(ber.CONTEXT, True, pdu.pdu_type),
                           [pdu.request_id, pdu.error_status,
                            pdu.error_index, bindings])])


def _tree_registry():
    r = ber.DEFAULT_REGISTRY.copy()
    for n in range(9):
        r.register(ber.CONTEXT, 1, n, "tagged-sequence")
    for n, kind in enumerate(("no-such-object", "no-such-instance",
                              "end-of-mib-view")):
        r.register(ber.CONTEXT, 0, n, kind)
    return r


_TREE_REGISTRY = _tree_registry()


def tree_decode_bindings(wire):
    """The bindings of a v1/v2c message read from its generic decoded tree,
    each checked to be a [Oid, value] list."""
    message, _ = ber.decode(wire, registry=_TREE_REGISTRY)
    items = message[2].elements[-1]
    if not isinstance(items, list):
        raise DecodingError("malformed variable-bindings list")
    for item in items:
        if not isinstance(item, list) or len(item) != 2 or \
                not isinstance(item[0], ber.Oid):
            raise DecodingError(f"malformed variable binding {item!r}")
    return [VarBind(name, value) for name, value in items]


def v3_request(responder, pdu, user=None, max_size=DEFAULT_MAX_MSG_SIZE):
    """(wire, keys): pdu in a v3 request to responder, a v3 engine with
    engine_id, engine and credential, from a client that has discovered
    it and holds keys, at the credential's security level, as user (the
    credential's user by default) and with msgMaxSize max_size.  usm.open
    opens the reply with keys."""
    state, cred = responder.engine, responder.credential
    keys = usm.EngineState()
    keys.adopt(responder.engine_id, state.engine_boots, state.engine_time,
               cred)
    msg = V3Message(
        1, FLAG_REPORTABLE | cred.security_flags,
        UsmParams(responder.engine_id, state.engine_boots, state.engine_time,
                  user or cred.user.encode()),
        ScopedPdu(responder.engine_id, b"", pdu), msg_max_size=max_size)
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
