import bisect
import functools
import socket
import sys
import threading
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    answers, enumerate_instances, tree_encode_message, v3_request,
)
from snmpkit import agent, ber, client, harness, messages, usm
from snmpkit.errors import SnmpError
from snmpkit.mibs import load_core
from snmpkit.oids import Registry
from snmpkit.messages import (
    CommunityMessage, GET_BULK_REQUEST, GET_NEXT_REQUEST, GET_REQUEST,
    Pdu, SET_REQUEST, ScopedPdu, VarBind, V1, V2C, V3,
)

ALICE = usm.Credential.create("alice", ("sha1", "authpass123"),
                              ("des", "privpass123"))


def _ctx(registry):
    return agent.AgentContext(registry=registry)


def _v3_responder(registry, tree):
    return harness.ScriptedV3Responder(tree, _ctx(registry), ALICE)


class TestChildSpec:
    def test_count_spelling(self):
        assert agent.expand_children(3) == ((1,), (2,), (3,))

    def test_zero_means_scalar_instance(self):
        assert agent.expand_children(0) == ((0,),)

    def test_flat_list_spelling(self):
        assert agent.expand_children([1, 2, 3]) == ((1,), (2,), (3,))

    def test_tuple_list_spelling(self):
        assert agent.expand_children([(1,), (2, 5)]) == ((1,), (2, 5))

    def test_order_preserving_and_duplicate_free(self):
        assert agent.expand_children([3, 1, 3, 2, 1]) == ((3,), (1,), (2,))


class TestDispatchTree:
    def test_longest_prefix_wins(self, registry):
        tree = agent.DispatchTree()
        outer = registry.resolve("system")
        inner = registry.resolve("ifTable")
        tree.register(outer, lambda ctx, ids: None)
        tree.register(inner, lambda ctx, ids: None)
        base, _, _ = tree.find(tuple(inner.arcs) + (1, 1))
        assert base == tuple(inner.arcs)

    def test_nesting_rejected(self, registry):
        tree = agent.DispatchTree()
        tree.register(registry.resolve("system"), lambda ctx, ids: None)
        with pytest.raises(SnmpError):
            tree.register(registry.resolve("sysDescr"), lambda ctx, ids: None)

    def test_reregistration_replaces(self, registry):
        tree = agent.DispatchTree()
        ref = registry.resolve("sysDescr")
        tree.register(ref, lambda ctx, ids: 1)
        tree.register(ref, lambda ctx, ids: 2)
        _, handler, _ = tree.find(tuple(ref.arcs))
        assert handler(None, ()) == 2

    def test_concurrent_registration_loses_none(self):
        tree = agent.DispatchTree()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def register(worker):
                for i in range(50):
                    tree.register(ber.Oid((1, worker, i)), lambda ctx, ids: 0)

            threads = [threading.Thread(target=register, args=(w,))
                       for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(tree.snapshot()) == 8 * 50
        assert all(tree.find((1, w, i, 0))[0] == (1, w, i)
                   for w in range(8) for i in range(50))

class TestGet:
    def test_scalar_get(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        pdu = messages.make_request_pdu(GET_REQUEST, ["sysName.0"],
                                        registry, 1)
        resp = agent.dispatch(tree, pdu, ctx, V2C)
        assert resp.request_id == 1
        assert bytes(resp.bindings[0].value) == ctx.name.encode()

    def test_v2_missing_instance_marker(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        pdu = messages.make_request_pdu(GET_REQUEST, ["sysName.7"],
                                        registry, 2)
        resp = agent.dispatch(tree, pdu, ctx, V2C)
        assert resp.error_status == 0
        assert resp.bindings[0].value is ber.NO_SUCH_INSTANCE

    def test_v2_missing_object_marker(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        pdu = messages.make_request_pdu(GET_REQUEST, ["snmpInPkts.0"],
                                        registry, 3)
        resp = agent.dispatch(tree, pdu, ctx, V2C)
        assert resp.bindings[0].value is ber.NO_SUCH_OBJECT

    def test_v1_missing_is_nosuchname(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        pdu = messages.make_request_pdu(
            GET_REQUEST, ["sysDescr.0", "sysName.7"], registry, 4)
        resp = agent.dispatch(tree, pdu, ctx, V1)
        assert resp.error_status == agent.NO_SUCH_NAME
        assert resp.error_index == 2
        # bindings echoed unchanged on v1 error
        assert resp.bindings[0].value is ber.NULL

    @pytest.mark.parametrize("version", [V1, V2C])
    def test_a_handler_that_raises_reads_no_value(self, registry, version):
        """noSuchInstance under v2c, and noSuchName under v1."""
        def column(ctx, ids):
            if ids == (2,):
                raise RuntimeError("the device went away")
            return 2 if not ids else ids[0] * 10

        tree = agent.DispatchTree()
        agent.define_table_column(tree, registry, "ifMtu", column)
        pdu = messages.make_request_pdu(
            GET_REQUEST, ["ifMtu.1", "ifMtu.2"], registry, 5)
        resp = agent.dispatch(tree, pdu, _ctx(registry), version)
        if version == V1:
            assert (resp.error_status, resp.error_index) == \
                (agent.NO_SUCH_NAME, 2)
        else:
            assert resp.error_status == 0
            assert [vb.value for vb in resp.bindings] == \
                [10, ber.NO_SUCH_INSTANCE]


class TestGetNext:
    def test_walks_in_order(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        arcs = tuple(registry.resolve("system").arcs)
        seen = []
        while True:
            pdu = Pdu(GET_NEXT_REQUEST, 9, bindings=[VarBind(ber.Oid(arcs))])
            resp = agent.dispatch(tree, pdu, ctx, V2C)
            vb = resp.bindings[0]
            if vb.value is ber.END_OF_MIB_VIEW:
                break
            nxt = vb.arcs
            assert nxt > arcs
            sys_arcs = tuple(registry.resolve("system").arcs)
            if nxt[:len(sys_arcs)] != sys_arcs:
                break
            seen.append(nxt)
            arcs = nxt
        assert [a[-2] for a in seen] == [1, 2, 3, 4, 5, 6]

    def test_end_of_mib_view(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        pdu = Pdu(GET_NEXT_REQUEST, 9,
                  bindings=[VarBind(ber.Oid((2, 999)))])
        resp = agent.dispatch(tree, pdu, ctx, V2C)
        assert resp.bindings[0].value is ber.END_OF_MIB_VIEW
        assert resp.bindings[0].arcs == (2, 999)

    def test_v1_end_is_nosuchname(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        pdu = Pdu(GET_NEXT_REQUEST, 9,
                  bindings=[VarBind(ber.Oid((2, 999)))])
        resp = agent.dispatch(tree, pdu, ctx, V1)
        assert resp.error_status == agent.NO_SUCH_NAME


class TestGetBulk:
    def test_non_repeaters_and_repetitions(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        pdu = Pdu(GET_BULK_REQUEST, 9, 1, 3, [
            VarBind(registry.resolve("sysDescr")),
            VarBind(registry.resolve("ifDescr")),
        ])
        bindings = answers(agent.dispatch(tree, pdu, ctx, V2C))
        assert len(bindings) == 1 + 3
        assert bindings[0].arcs[-2:] == (1, 0)  # sysDescr.0
        assert bytes(bindings[1].value) == b"lo"
        assert bytes(bindings[2].value) == b"eth0"

    def test_repetitions_stop_at_view_end(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        last = registry.resolve("appFeatureName")
        pdu = Pdu(GET_BULK_REQUEST, 9, 0, 10 ** 6,
                  [VarBind(ber.Oid((2,)))])
        resp = agent.dispatch(tree, pdu, ctx, V2C)
        assert answers(resp)[-1].value is ber.END_OF_MIB_VIEW

    def test_multi_variable_reply_is_ordered_by_repetition(self, registry):
        tree = agent.DispatchTree()
        agent.define_scalar(tree, registry, "sysDescr",
                            lambda ctx: ber.OctetString(b"ok"))
        for name in ("ifDescr", "ifType"):
            agent.define_table_column(
                tree, registry, name,
                lambda ctx, ids, name=name: 3 if not ids else
                (name, ids[0]) if ids in ((1,), (2,), (3,)) else None)
        pdu = messages.make_request_pdu(
            GET_BULK_REQUEST, ["sysName", "ifType", "ifDescr"], registry, 9)
        pdu.error_status, pdu.error_index = 1, 5
        resp = agent.dispatch(tree, pdu, _ctx(registry), V2C)

        def cell(name, row):
            return tuple(registry.resolve(name).arcs) + (row,), \
                [ber.OctetString(name.encode()), row]
        ended = (cell("ifType", 3)[0], ber.END_OF_MIB_VIEW)
        assert [(vb.arcs, vb.value) for vb in answers(resp)] == [
            cell("ifDescr", 1),                        # the non-repeater
            cell("ifType", 1), cell("ifDescr", 1),     # repetition 1
            cell("ifType", 2), cell("ifDescr", 2),
            cell("ifType", 3), cell("ifDescr", 3),
            ended, cell("ifType", 1),                  # ifType has ended
            ended, cell("ifType", 2),
        ]

    def test_bulk_on_v1_is_generr(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        pdu = Pdu(GET_BULK_REQUEST, 9, 0, 5,
                  [VarBind(registry.resolve("sysDescr"))])
        resp = agent.dispatch(tree, pdu, ctx, V1)
        assert resp.error_status == agent.GEN_ERR


class TestSet:
    def test_read_only_by_default(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        pdu = messages.make_request_pdu(
            SET_REQUEST, [("sysName.0", ber.OctetString(b"x"))], registry, 5)
        resp = agent.dispatch(tree, pdu, ctx, V2C)
        assert resp.error_status == agent.NOT_WRITABLE
        assert resp.error_index == 1

    @pytest.mark.parametrize("version,status", [
        (V1, agent.READ_ONLY), (V2C, agent.NOT_WRITABLE),
        (V3, agent.NOT_WRITABLE)])
    def test_unwritable_names_by_version(self, registry, loopback_agent,
                                         version, status):
        # a read-only scalar, and a name that no handler covers
        tree, ctx = loopback_agent
        for name in ("sysDescr.0", (1, 3, 6, 1, 4, 1, 99, 1)):
            pdu = messages.make_request_pdu(
                SET_REQUEST, [(name, ber.OctetString(b"x"))], registry, 5)
            resp = agent.dispatch(tree, pdu, ctx, version)
            assert (resp.error_status, resp.error_index) == (status, 1)

    def test_writable_handler_extension(self, registry):
        store = {"value": 10}
        tree = agent.DispatchTree()
        ref = registry.resolve("sysContact")

        def handler(ctx, ids, new=None):
            if not ids:
                return 0
            if tuple(ids) != (0,):
                return None
            if new is not None:
                store["value"] = int(new)
            return store["value"]

        agent.register_variable(tree, ref, handler, writable=True)
        ctx = _ctx(registry)
        pdu = messages.make_request_pdu(SET_REQUEST, [("sysContact.0", 42)],
                                        registry, 6)
        resp = agent.dispatch(tree, pdu, ctx, V2C)
        assert resp.error_status == 0
        assert store["value"] == 42


_ECHO_BASE = (1, 3, 6, 1, 4, 1, 31609, 77)
# sub-identifiers at the edges of one, two and five octets, and any other
_SUBIDS = st.sampled_from([0, 1, 127, 128, 16383, 16384, 2 ** 32 - 1]) \
    | st.integers(0, 2 ** 32 - 1)
_HEADS = st.tuples(st.integers(0, 1), st.integers(0, 39)) \
    | st.tuples(st.just(2), _SUBIDS)
_ECHO_NAMES = st.lists(
    st.lists(_SUBIDS, max_size=4).map(lambda rest: _ECHO_BASE + tuple(rest))
    | st.tuples(_HEADS, st.lists(_SUBIDS, max_size=6)).map(
        lambda parts: parts[0] + tuple(parts[1])),
    min_size=1, max_size=6)


class TestEchoedNames:
    """GET and SET replies carry the request's names as they were read."""

    def _tree(self):
        def handler(ctx, ids, *new):
            if not ids:
                return 0
            return new[0] if new else ber.OctetString(repr(ids).encode())

        tree = agent.DispatchTree()
        tree.register(ber.Oid(_ECHO_BASE), handler, writable=True)
        return tree

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([GET_REQUEST, SET_REQUEST]), _ECHO_NAMES,
           st.binary(max_size=8))
    @example(GET_REQUEST, [_ECHO_BASE + (127, 128, 16383, 16384, 2 ** 32 - 1),
                           (2, 2 ** 32 - 1, 128), (1, 3, 16384, 0)], b"")
    @example(SET_REQUEST, [_ECHO_BASE + (2 ** 32 - 1, 16384, 16383, 128, 127),
                           _ECHO_BASE + (0,)], b"v")
    def test_reply_octets_equal_the_value_tree(self, kind, names, value):
        """The agent's reply, whose names are the request's decoded Oids,
        is byte for byte the generic value tree's encoding of the same
        response with each name an Oid built afresh from its arcs."""
        tree, ctx = self._tree(), _ctx(None)
        value = ber.OctetString(value) if kind == SET_REQUEST else ber.NULL

        def request():
            return Pdu(kind, 7, bindings=[VarBind(ber.Oid(arcs), value)
                                          for arcs in names])

        wire = messages.encode_message(CommunityMessage(V2C, b"public",
                                                        request()))
        reply = agent.handle_datagram(tree, ctx, wire)
        expected = agent.dispatch(tree, request(), ctx, V2C)
        assert [vb.name.arcs for vb in expected.bindings] == names
        assert reply == tree_encode_message(
            CommunityMessage(V2C, b"public", expected))


class TestDatagramHandling:
    def _wire(self, registry, version=V2C, community=b"public"):
        pdu = messages.make_request_pdu(GET_REQUEST, ["sysUpTime.0"],
                                        registry, 11)
        return messages.encode_message(
            CommunityMessage(version, community, pdu))

    def test_round_trip(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        reply = agent.handle_datagram(tree, ctx, self._wire(registry))
        msg = messages.decode_message(reply)
        assert msg.pdu.request_id == 11
        assert isinstance(msg.pdu.bindings[0].value, ber.TimeTicks)

    def test_wrong_community_dropped(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        wire = self._wire(registry, community=b"wrong")
        assert agent.handle_datagram(tree, ctx, wire) is None

    def test_garbage_dropped_but_counted(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        before = ctx.in_pkts
        assert agent.handle_datagram(tree, ctx, b"\x00garbage") is None
        assert ctx.in_pkts == before + 1

    def test_response_version_mirrors_request(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        reply = agent.handle_datagram(tree, ctx, self._wire(registry, V1))
        assert messages.decode_message(reply).version == V1

    @pytest.mark.parametrize("pdu_type", [
        messages.RESPONSE, messages.REPORT, messages.SNMPV2_TRAP,
        messages.INFORM_REQUEST], ids=messages.PDU_TYPE_NAMES.get)
    def test_non_requests_dropped(self, registry, loopback_agent, pdu_type):
        """Answering a Response would let two agents answer each other
        for ever; none of these PDUs asks for an answer."""
        tree, ctx = loopback_agent
        pdu = Pdu(pdu_type, 11, 0, 0,
                  [VarBind(registry.resolve("sysUpTime.0"))])
        for version in (V1, V2C):
            wire = messages.encode_message(
                CommunityMessage(version, b"public", pdu))
            assert agent.handle_datagram(tree, ctx, wire) is None
        responder = _v3_responder(registry, tree)
        assert responder(v3_request(responder, pdu)[0]) is None
        assert responder.auth_count == 1

    def test_v3_report_is_not_answered_with_a_report(self, loopback_agent):
        """A Report that reaches another engine fails its engine id check;
        its reportable flag is clear, so no Report answers it."""
        tree, ctx = loopback_agent
        first, second = (harness.ScriptedV3Responder(tree, ctx, ALICE,
                                                     engine_id=engine_id)
                         for engine_id in (b"\x80first", b"\x80second"))
        report = first(messages.encode_message(messages.V3Message(
            1, messages.FLAG_REPORTABLE, messages.UsmParams(),
            ScopedPdu(b"", b"", Pdu(GET_REQUEST, 5)))))
        assert messages.decode_message(report).scoped_pdu.pdu.pdu_type == \
            messages.REPORT
        assert second(report) is None
        assert (first.report_count, second.report_count) == (1, 0)

    def test_v3_request_of_another_security_model_is_dropped(
            self, registry, loopback_agent):
        """A msgSecurityModel other than USM is discarded before any USM
        check, with no Report (RFC 3412 section 7.2, step 4): a discovery
        probe and an authentic authPriv request alike."""
        tree, ctx = loopback_agent
        responder = _v3_responder(registry, tree)
        pdu = Pdu(GET_REQUEST, 5,
                  bindings=[VarBind(registry.resolve("sysName.0"))])
        probe = messages.encode_message(messages.V3Message(
            1, messages.FLAG_REPORTABLE, messages.UsmParams(),
            ScopedPdu(b"", b"", pdu), msg_security_model=99))
        assert responder(probe) is None
        assert responder(v3_request(responder, pdu,
                                    security_model=99)[0]) is None
        assert (responder.report_count, responder.auth_count) == (0, 0)
        assert responder(v3_request(responder, pdu)[0]) is not None
        assert responder.auth_count == 1

    def test_v1_bulk_dropped(self, registry, loopback_agent):
        """RFC 1157 defines no GetBulk PDU, so a v1 message that carries
        one does not decode, and is dropped as any such datagram is."""
        tree, ctx = loopback_agent
        pdu = Pdu(GET_BULK_REQUEST, 11, 0, 5,
                  [VarBind(registry.resolve("sysDescr"))])
        assert agent.handle_datagram(tree, ctx, messages.encode_message(
            CommunityMessage(V1, b"public", pdu))) is None


class TestService:
    def test_enable_disable(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        handle = agent.enable_service(port=0, address="127.0.0.1",
                                      tree=tree, ctx=ctx, registry=registry)
        try:
            host, port = handle.bound_address[:2]
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(2)
            pdu = messages.make_request_pdu(GET_REQUEST, ["sysName.0"],
                                            registry, 21)
            sock.sendto(messages.encode_message(
                CommunityMessage(V2C, b"public", pdu)), (host, port))
            data, _ = sock.recvfrom(65507)
            msg = messages.decode_message(data)
            assert msg.pdu.request_id == 21
            sock.close()
        finally:
            agent.disable_service(handle)
        assert not handle.running
        agent.disable_service(handle)  # idempotent

    def test_given_ctx_keeps_address_and_community(self, registry,
                                                   loopback_agent):
        tree, _ = loopback_agent
        ctx = agent.AgentContext(0, "127.0.0.1", "private", registry)
        handle = agent.enable_service(tree=tree, ctx=ctx)
        try:
            host, port = handle.bound_address[:2]
            assert host == "127.0.0.1"
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(2)
            for rid, community in ((21, b"public"), (22, b"private")):
                pdu = messages.make_request_pdu(GET_REQUEST, ["sysName.0"],
                                                registry, rid)
                sock.sendto(messages.encode_message(
                    CommunityMessage(V2C, community, pdu)), (host, port))
            data, _ = sock.recvfrom(65507)
            sock.close()
            # replies come in request order: the first is not to public
            assert messages.decode_message(data).pdu.request_id == 22
        finally:
            handle.stop()

    def test_stop_at_once_raises_in_no_thread(self, loopback_agent,
                                              monkeypatch):
        tree, ctx = loopback_agent
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        for _ in range(20):
            agent.enable_service(port=0, address="127.0.0.1", tree=tree,
                                 ctx=ctx).stop()
        assert raised == []

    def test_an_error_from_recvfrom_does_not_end_the_service(
            self, registry, loopback_agent):
        """Only stop() ends the service thread: a socket error, such as
        the ICMP port-unreachable some hosts report on a later read, is
        skipped and the next request still gets its reply."""
        tree, ctx = loopback_agent
        handle = agent.enable_service(port=0, address="127.0.0.1",
                                      tree=tree, ctx=ctx)
        failed = threading.Event()

        class FailingOnce:
            def __init__(self, sock):
                self._sock = sock

            def recvfrom(self, size):
                if not failed.is_set():
                    failed.set()
                    raise ConnectionResetError("port unreachable")
                return self._sock.recvfrom(size)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        handle._sock = FailingOnce(handle._sock)
        try:
            assert failed.wait(2)
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(2)
            pdu = messages.make_request_pdu(GET_REQUEST, ["sysName.0"],
                                            registry, 23)
            sock.sendto(messages.encode_message(
                CommunityMessage(V2C, b"public", pdu)),
                handle.bound_address[:2])
            data, _ = sock.recvfrom(65507)
            sock.close()
            assert messages.decode_message(data).pdu.request_id == 23
            assert handle._thread.is_alive()
        finally:
            handle.stop()
        assert not handle._thread.is_alive()

    def test_default_port_constant(self):
        assert agent.DEFAULT_AGENT_PORT == 8161


# ---------------------------------------------------------------------------
# Dispatch against a brute-force oracle, and the cost of a walk


def _make_handler(base, probe, spec, bad_read, modulus):
    """A handler with a fixed ChildSpec whose probe or reads may misbehave."""
    def handler(ctx, ids):
        ids = tuple(ids)
        if not ids:
            if probe == "raise":
                raise RuntimeError("probe failed")
            return None if probe == "none" else spec
        if bad_read and sum(ids) % modulus == 0:
            if bad_read == "raise":
                raise RuntimeError("read failed")
            return None
        return (base, ids)
    return handler


def _oracle_next(instances, arcs, ctx):
    """The first enumerated instance after arcs that reads a value."""
    for i in range(bisect.bisect_right(instances, tuple(arcs),
                                       key=itemgetter(0)), len(instances)):
        full, handler, rest = instances[i]
        try:
            value = handler(ctx, rest)
        except Exception:
            value = None
        if value is not None:
            return full, value
    return None, None


def _oracle_get(tree, arcs, ctx):
    """Longest registered prefix by linear scan, then a read; None if absent."""
    covering = [(base, handler) for base, (handler, _) in tree.snapshot().items()
                if arcs[:len(base)] == base]
    if not covering:
        return None, None
    base, handler = max(covering, key=lambda item: len(item[0]))
    if len(arcs) == len(base):
        return base, None
    try:
        return base, handler(ctx, arcs[len(base):])
    except Exception:
        return base, None


def _oracle_dispatch(tree, pdu, ctx, version):
    """(error-status, error-index, [(arcs, value)]) the way RFC 3416 reads,
    over enumerate_instances, which probes and sorts everything."""
    echoed = [(vb.arcs, vb.value) for vb in pdu.bindings]
    if pdu.pdu_type == GET_REQUEST:
        out = []
        for i, vb in enumerate(pdu.bindings):
            base, value = _oracle_get(tree, vb.arcs, ctx)
            if value is None:
                if version == V1:
                    return agent.NO_SUCH_NAME, i + 1, echoed
                value = ber.NO_SUCH_OBJECT if base is None \
                    else ber.NO_SUCH_INSTANCE
            out.append((vb.arcs, value))
        return 0, 0, out
    instances = enumerate_instances(tree, ctx)
    end = ber.END_OF_MIB_VIEW
    if pdu.pdu_type == GET_NEXT_REQUEST:
        out = []
        for i, vb in enumerate(pdu.bindings):
            full, value = _oracle_next(instances, vb.arcs, ctx)
            if full is None:
                if version == V1:
                    return agent.NO_SUCH_NAME, i + 1, echoed
                out.append((vb.arcs, end))
            else:
                out.append((full, value))
        return 0, 0, out
    if version == V1:
        return agent.GEN_ERR, 0, echoed
    non_repeaters = max(0, pdu.non_repeaters)
    out = []
    for vb in pdu.bindings[:non_repeaters]:
        full, value = _oracle_next(instances, vb.arcs, ctx)
        out.append((vb.arcs, end) if full is None else (full, value))
    # each repeater's run, ending at its first endOfMibView; then the runs
    # side by side, repetition by repetition, an ended run repeating its
    # endOfMibView until the longest run is done
    runs = []
    for vb in pdu.bindings[non_repeaters:]:
        arcs, run = vb.arcs, []
        for _ in range(max(0, pdu.max_repetitions)):
            full, value = _oracle_next(instances, arcs, ctx)
            if full is None:
                run.append((arcs, end))
                break
            run.append((full, value))
            arcs = full
        runs.append(run)
    for r in range(max(map(len, runs), default=0)):
        out.extend(run[min(r, len(run) - 1)] for run in runs)
    return 0, 0, out


def _oracle_encoded(pdu, status, index, pairs):
    """_oracle_dispatch's answer to a GETBULK pdu as dispatch gives it:
    each binding's TLV, its name an Oid built afresh from the arcs; or
    genErr, indexing the first request binding one of whose answers has
    no BER form."""
    head = min(max(0, pdu.non_repeaters), len(pdu.bindings))
    width = max(1, len(pdu.bindings) - head)
    tlvs, failed = [], []
    for k, (arcs, value) in enumerate(pairs):
        try:
            tlvs.append(ber.encode([ber.Oid(arcs), value]))
        except Exception:
            failed.append(k if k < head else head + (k - head) % width)
    if failed:
        return (agent.GEN_ERR, min(failed) + 1,
                [(vb.arcs, vb.value) for vb in pdu.bindings])
    return status, index, tlvs


def _outcome(resp):
    """(error-status, error-index, bindings) of a dispatch response: a
    GETBULK answer's binding TLVs as they are, other bindings as (arcs,
    value) pairs."""
    bindings = resp.bindings
    if not isinstance(bindings, ber.EncodedBindings):
        bindings = [(vb.arcs, vb.value) for vb in bindings]
    return resp.error_status, resp.error_index, list(bindings)


_small_arcs = st.lists(st.integers(-1, 4), max_size=5).map(tuple)
_child_specs = st.one_of(
    st.integers(-2, 12),
    st.lists(st.integers(-1, 12), max_size=8),
    st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=8),
)
_handlers = st.tuples(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
    st.sampled_from(["spec", "spec", "raise", "none"]),
    _child_specs,
    st.sampled_from([None, None, "raise", "none"]),
    st.integers(2, 4),
)
_requests = st.builds(
    Pdu, st.sampled_from([GET_REQUEST, GET_NEXT_REQUEST, GET_BULK_REQUEST]),
    st.just(1), st.integers(-2, 4), st.integers(-2, 6),
    st.lists(_small_arcs.map(lambda arcs: VarBind(ber.Oid(arcs))),
             max_size=4))


class TestDispatchMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_handlers, max_size=7), _requests,
           st.sampled_from([V1, V2C]))
    def test_random_trees(self, handlers, pdu, version):
        tree = agent.DispatchTree()
        for base, probe, spec, bad_read, modulus in handlers:
            try:
                tree.register(ber.Oid(base),
                              _make_handler(base, probe, spec, bad_read,
                                            modulus))
            except SnmpError:
                pass  # nests with a base already registered
        want = _oracle_dispatch(tree, pdu, None, version)
        if pdu.pdu_type == GET_BULK_REQUEST and version != V1:
            want = _oracle_encoded(pdu, *want)
        assert _outcome(agent.dispatch(tree, pdu, None, version)) == want


class TestWalkCostIsFlat:
    """Walking one column probes it once per request, touches nothing
    before the walk's start, and costs the same per varbind at any size."""

    @pytest.mark.parametrize("rows", [100, 1600, 6400])
    def test_column_walk(self, registry, rows):
        calls = Counter()

        def column(name):
            def handler(ctx, ids):
                calls[name, "read" if ids else "probe"] += 1
                if not ids:
                    return rows
                return ids[0] * 10 if len(ids) == 1 and ids[0] <= rows \
                    else None
            return handler

        tree = agent.DispatchTree()
        for name in ("sysDescr", "ifIndex", "ifDescr", "ifType", "ifMtu"):
            tree.register(registry.resolve(name), column(name))
        ctx = _ctx(registry)
        per_request = []

        def responder(data):
            before = sum(calls.values())
            reply = agent.handle_datagram(tree, ctx, data)
            returned = len(messages.decode_message(reply).pdu.bindings)
            per_request.append((sum(calls.values()) - before, returned))
            return reply

        endpoint, channel, clock = harness.connect(responder)
        session = client.open_session(
            "loopback", registry=registry,
            **harness.loopback_session_kwargs(endpoint, clock))
        pairs = client.walk(session, "ifDescr")

        reps = client.WALK_BULK_REPETITIONS
        assert [value for _, value in pairs] == \
            [10 * i for i in range(1, rows + 1)]
        assert len(per_request) == rows // reps + 1
        assert calls["ifDescr", "probe"] == len(per_request)
        assert calls["ifDescr", "read"] == rows
        assert not any(calls[name, kind] for name in ("sysDescr", "ifIndex")
                       for kind in ("probe", "read"))
        # every full request: one probe and one read per varbind; the last
        # one leaves the column and reads the next column's first rows
        assert set(per_request[:-1]) == {(reps + 1, reps)}
        assert per_request[-1] == (reps + 2, reps)


class TestHostileInput:
    def test_deeply_nested_datagram_dropped(self, loopback_agent):
        tree, ctx = loopback_agent
        data = b"\x30\x00"
        for _ in range(4999):
            data = b"\x30" + ber.encode_length(len(data)) + data
        assert agent.handle_datagram(tree, ctx, data) is None

    def test_v3_trap_v1_pdu_is_reported_or_dropped(self, loopback_agent):
        # RFC 3416 defines no trap-v1 PDU, so a v3 message that carries one
        # does not decode: it is dropped before any check could Report it
        tree, ctx = loopback_agent
        responder = harness.ScriptedV3Responder(
            tree, ctx, usm.Credential.create("alice"))
        trap = messages.TrapV1Pdu(ber.Oid((1, 3, 6, 1)),
                                  ber.IpAddress(bytes(4)), 1, 0, 0)
        for engine_id in (b"", responder.engine_id):
            wire = messages.encode_message(messages.V3Message(
                3, messages.FLAG_REPORTABLE,
                messages.UsmParams(engine_id, 1, 1000, b"alice"),
                messages.ScopedPdu(engine_id, b"", trap)))
            assert responder(wire) is None
        assert (responder.report_count, responder.auth_count) == (0, 0)

    def _tree(self, registry, bad):
        """sysDescr.0 and two 3-row columns; the value at bad, a (column,
        row) pair, is True, which has no BER form."""
        def column(name, value):
            def fn(ctx, ids):
                if not ids:
                    return 3
                if ids not in ((1,), (2,), (3,)):
                    return None
                return True if (name, ids[0]) == bad else value
            agent.define_table_column(tree, registry, name, fn)

        tree = agent.DispatchTree()
        agent.define_scalar(tree, registry, "sysDescr",
                            lambda ctx: ber.OctetString(b"ok"))
        column("ifDescr", ber.OctetString(b"if"))
        column("ifType", 6)
        return tree

    def _ask(self, registry, tree, pdu_type, names, a=0, b=0, version=V2C):
        pdu = messages.make_request_pdu(pdu_type, names, registry, 9)
        pdu.error_status, pdu.error_index = a, b
        if version == V3:  # authPriv, through the v3 engine
            responder = _v3_responder(registry, tree)
            wire, keys = v3_request(responder, pdu)
            return pdu, usm.open(responder(wire), keys)[1].pdu
        wire = messages.encode_message(CommunityMessage(version, b"public",
                                                        pdu))
        reply = agent.handle_datagram(tree, _ctx(registry), wire)
        return pdu, messages.decode_message(reply).pdu

    @pytest.mark.parametrize("version", [V1, V2C, V3])
    def test_unencodable_get_value_is_generr(self, registry, version):
        tree = self._tree(registry, ("ifType", 2))
        names = ["sysDescr.0", "ifType.1", "ifType.2", "ifType.3"]
        pdu, resp = self._ask(registry, tree, GET_REQUEST, names,
                              version=version)
        assert (resp.error_status, resp.error_index) == (agent.GEN_ERR, 3)
        assert [vb.arcs for vb in resp.bindings] == \
            [vb.arcs for vb in pdu.bindings]

    @pytest.mark.parametrize("names,reps,bad,index", [
        (["ifDescr", "sysName"], 2, ("ifDescr", 1), 1),   # a non-repeater
        (["sysName", "ifDescr", "ifType"], 4, ("ifType", 3), 3),
        (["sysName", "ifDescr", "ifType"], 4, ("ifType", 1), 2),
        # the ifType run ends early at endOfMibView
        (["sysDescr", "ifType", "ifDescr"], 5, ("ifDescr", 1), 3),
        (["sysName", "ifDescr", "ifType"], 4, None, 0),
    ])
    def test_unencodable_bulk_value_names_its_request_binding(
            self, registry, names, reps, bad, index):
        tree = self._tree(registry, bad)
        _, resp = self._ask(registry, tree, GET_BULK_REQUEST, names,
                            a=1, b=reps)
        assert (resp.error_status, resp.error_index) == \
            ((agent.GEN_ERR, index) if index else (0, 0))

    @pytest.mark.parametrize("pdu_type", [GET_NEXT_REQUEST,
                                          GET_BULK_REQUEST])
    @pytest.mark.parametrize("spec", [["x"], [1, "x"], [1.5], [[1, "a"]]])
    def test_child_spec_with_arcs_not_ints_has_no_instances(
            self, registry, spec, pdu_type):
        tree = agent.DispatchTree()
        agent.define_scalar(tree, registry, "sysDescr",
                            lambda ctx: ber.OctetString(b"ok"))
        agent.register_variable(
            tree, registry.resolve("sysContact"),
            lambda ctx, ids: ber.OctetString(b"bad") if ids else spec)
        agent.define_scalar(tree, registry, "sysName",
                            lambda ctx: ber.OctetString(b"name"))
        _, resp = self._ask(registry, tree, pdu_type, ["sysDescr.0"], b=2)
        name = registry.resolve("sysName.0").arcs
        want = [(name, ber.OctetString(b"name"))]
        if pdu_type == GET_BULK_REQUEST:
            want.append((name, ber.END_OF_MIB_VIEW))
        assert resp.error_status == 0
        assert [(vb.arcs, vb.value) for vb in resp.bindings] == want

    @pytest.mark.parametrize("pdu_type,names,index", [
        (GET_REQUEST, ["sysDescr.0", "sysName.0"], 2),
        (GET_BULK_REQUEST, ["sysDescr", "sysContact", "sysDescr"], 2),
    ])
    def test_value_failing_to_encode_any_way_is_generr(
            self, registry, pdu_type, names, index):
        class BadOid:
            arcs = ("1", "3")  # ber's OID encoder raises TypeError

        tree = agent.DispatchTree()
        agent.define_scalar(tree, registry, "sysDescr",
                            lambda ctx: ber.OctetString(b"ok"))
        agent.define_scalar(tree, registry, "sysName", lambda ctx: BadOid())
        _, resp = self._ask(registry, tree, pdu_type, names, a=1, b=3)
        assert (resp.error_status, resp.error_index) == (agent.GEN_ERR, index)

    @pytest.mark.parametrize("version", [V1, V2C])
    @pytest.mark.parametrize("pdu_type", [GET_NEXT_REQUEST,
                                          GET_BULK_REQUEST])
    @pytest.mark.parametrize("base,spec,named", [
        ((1, 3), [-1], None),    # a negative instance arc
        ((3,), 1, None),         # a base with no BER form
        ((1,), [3], (1, 3)),     # a one-arc base: the instance is 1.3
        ((1,), [-1], None),      # 1.-1 once encoded as 0.39
    ])
    def test_instance_names_with_no_ber_form(self, version, pdu_type, base,
                                             spec, named):
        """An answer whose name has no BER form is genErr naming its
        request binding; handle_datagram does not raise.  A v1 GETBULK
        does not decode, and is dropped."""
        tree = agent.DispatchTree()
        tree.register(ber.Oid(base), lambda ctx, ids:
                      ber.OctetString(b"v") if ids else spec)
        asked = [VarBind(ber.Oid((0, 0)))]
        wire = messages.encode_message(CommunityMessage(
            version, b"public", Pdu(pdu_type, 9, 0, 2, asked)))
        reply = agent.handle_datagram(tree, _ctx(None), wire)
        if version == V1 and pdu_type == GET_BULK_REQUEST:
            assert reply is None
            return
        status, index, bindings = agent.GEN_ERR, 1, asked
        if named is not None:
            status, index = 0, 0
            bindings = [VarBind(ber.Oid(named), ber.OctetString(b"v"))]
            if pdu_type == GET_BULK_REQUEST:
                bindings.append(VarBind(ber.Oid(named), ber.END_OF_MIB_VIEW))
        assert reply == messages.encode_message(CommunityMessage(
            version, b"public",
            Pdu(messages.RESPONSE, 9, status, index, bindings)))


_ANSWER_BASES = st.sampled_from([(1,), (3,), (1, 3), (1, 40), (2, 999),
                                 (1, 3, 6, 1, 4, 1, 31609)])
_ANSWER_RESTS = st.lists(st.lists(
    st.sampled_from([-1, 0, 127, 128, 255, 256, 16383, 16384, 2 ** 32 - 1])
    | st.integers(0, 1000), max_size=3), min_size=1, max_size=5)


class TestAnswerNames:
    """GETNEXT answer names keep the octets a fresh encode of their arcs
    gives, or none, so that they fail to encode as it does.  A GETBULK
    answer is each binding's TLV as a fresh encode of its name's arcs
    writes it, or genErr where that fails."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([GET_NEXT_REQUEST, GET_BULK_REQUEST]),
           _ANSWER_BASES, _ANSWER_RESTS, st.integers(1, 6))
    def test_kept_octets_are_a_fresh_encode(self, pdu_type, base, rests,
                                            reps):
        tree = agent.DispatchTree()
        tree.register(ber.Oid(base), lambda ctx, ids:
                      ber.OctetString(b"v") if ids else rests)
        pdu = Pdu(pdu_type, 1, 0, reps, [VarBind(ber.Oid((0, 0)))])
        resp = agent.dispatch(tree, pdu, _ctx(None), V2C)
        if pdu_type == GET_BULK_REQUEST:
            assert _outcome(resp) == _oracle_encoded(
                pdu, *_oracle_dispatch(tree, pdu, _ctx(None), V2C))
            return
        for vb in resp.bindings:
            arcs, kept = vb.name.arcs, vb.name._octets
            try:
                fresh = ber._encode_oid_content(arcs)
            except ber.EncodingError:
                assert kept is None
                with pytest.raises(ber.EncodingError):
                    vb.name.octets
                continue
            assert kept in (None, fresh)
            assert vb.name.octets == fresh
            if vb.value is not ber.END_OF_MIB_VIEW:
                assert (kept is None) == (len(base) < 2)


class TestReplySize:
    """No reply is longer than messages.MAX_UDP_PAYLOAD (RFC 3416 sections
    4.2.1-4.2.3)."""

    def _tree(self, registry, rows, value):
        tree = agent.DispatchTree()

        def column(ctx, ids):
            if not ids:
                return rows
            return value if len(ids) == 1 and 1 <= ids[0] <= rows else None
        agent.define_table_column(tree, registry, "ifDescr", column)
        agent.register_variable(tree, registry.resolve("sysContact"),
                                lambda ctx, ids, *new: value if ids else 0,
                                writable=True)
        return tree

    def _ask(self, registry, tree, pdu_type, names, a=0, b=0):
        pdu = messages.make_request_pdu(pdu_type, names, registry, 9)
        pdu.error_status, pdu.error_index = a, b
        wire = messages.encode_message(CommunityMessage(V2C, b"public", pdu))
        reply = agent.handle_datagram(tree, _ctx(registry), wire)
        assert len(reply) <= messages.MAX_UDP_PAYLOAD
        return messages.decode_message(reply).pdu

    def test_oversized_bulk_keeps_the_repetitions_that_fit(self, registry):
        value = ber.OctetString(b"s" * 40)
        tree = self._tree(registry, 3000, value)
        names = ["sysContact.0", "ifDescr"]
        resp = self._ask(registry, tree, GET_BULK_REQUEST, names, a=1, b=2000)
        assert (resp.error_status, resp.error_index) == (0, 0)
        column = registry.resolve("ifDescr").arcs
        kept = len(resp.bindings) - 1
        assert 0 < kept < 2000
        assert [vb.arcs for vb in resp.bindings[1:]] == \
            [column + (i,) for i in range(1, kept + 1)]
        assert all(vb.value == value for vb in resp.bindings)
        # one more repetition would not have fitted
        resp.bindings.append(VarBind(ber.Oid(column + (kept + 1,)), value))
        assert len(messages.encode_message(
            CommunityMessage(V2C, b"public", resp))) > messages.MAX_UDP_PAYLOAD

    @pytest.mark.parametrize("pdu_type,name", [
        (GET_REQUEST, "ifDescr.1"), (GET_NEXT_REQUEST, "ifDescr"),
        (SET_REQUEST, ("sysContact.0", ber.OctetString(b"x"))),
        (GET_BULK_REQUEST, "ifDescr"),
    ])
    def test_oversized_value_is_too_big(self, registry, pdu_type, name):
        tree = self._tree(registry, 3, ber.OctetString(bytes(70000)))
        resp = self._ask(registry, tree, pdu_type, [name], b=5)
        assert (resp.error_status, resp.error_index, resp.bindings) == \
            (agent.TOO_BIG, 0, [])

    @pytest.mark.parametrize("max_size", [messages.MAX_UDP_PAYLOAD, 1500])
    def test_v3_bulk_keeps_the_repetitions_that_fit_msg_max_size(
            self, registry, max_size):
        value = ber.OctetString(b"s" * 100)
        responder = _v3_responder(registry, self._tree(registry, 3000, value))
        pdu = messages.make_request_pdu(
            GET_BULK_REQUEST, ["sysContact.0", "ifDescr"], registry, 9)
        pdu.error_status, pdu.error_index = 1, 2000
        wire, keys = v3_request(responder, pdu, max_size=max_size)
        reply = responder(wire)
        assert len(reply) <= max_size
        resp = usm.open(reply, keys)[1].pdu
        assert (resp.error_status, resp.error_index) == (0, 0)
        column = registry.resolve("ifDescr").arcs
        kept = len(resp.bindings) - 1
        assert 0 < kept < 2000
        assert [vb.arcs for vb in resp.bindings[1:]] == \
            [column + (i,) for i in range(1, kept + 1)]
        assert all(vb.value == value for vb in resp.bindings)
        # one more repetition would not have fitted
        resp.bindings.append(VarBind(ber.Oid(column + (kept + 1,)), value))
        request = messages.decode_message(wire)
        assert len(responder.seal(request, ALICE.security_flags, b"",
                                  resp)) > max_size

    def test_v3_generr_longer_than_msg_max_size_is_too_big(self, registry):
        """A genErr reply echoes the request's names, so it is held to the
        request's msgMaxSize as any other reply is."""
        tree = agent.DispatchTree()
        agent.register_variable(
            tree, registry.resolve("sysContact"),
            lambda ctx, ids: True if ids == (1,) else ber.OctetString(b"x"))
        base = registry.resolve("sysContact").arcs
        names = [base + (1,)] + [base + (k,) + (10 ** 6,) * 40
                                 for k in range(2, 8)]
        pdu = messages.make_request_pdu(GET_REQUEST, names, registry, 9)
        responder = _v3_responder(registry, tree)
        wire, keys = v3_request(responder, pdu, max_size=484)
        echoed = messages.response_for(pdu, pdu.bindings, agent.GEN_ERR, 1)
        assert len(responder.seal(messages.decode_message(wire),
                                  ALICE.security_flags, b"", echoed)) > 484
        reply = responder(wire)
        assert len(reply) <= 484
        resp = usm.open(reply, keys)[1].pdu
        assert (resp.error_status, resp.error_index, resp.bindings) == \
            (agent.TOO_BIG, 0, [])

    @pytest.mark.parametrize("max_size", [483, -5])
    def test_v3_request_with_msg_max_size_out_of_range_is_dropped(
            self, registry, max_size):
        responder = _v3_responder(registry, self._tree(registry, 3, 1))
        pdu = messages.make_request_pdu(GET_REQUEST, ["ifDescr.1"],
                                        registry, 9)
        wire, _ = v3_request(responder, pdu, max_size=max_size)
        assert responder(wire) is None
        assert responder.auth_count == 0


@functools.lru_cache(maxsize=None)
def _shared_registry():
    """The bundled corpus, loaded once for the properties below, which only
    resolve names in it."""
    return load_core(Registry())


_CREDENTIALS = {
    "noAuthNoPriv": usm.Credential.create("alice"),
    "authNoPriv": usm.Credential.create("alice", ("md5", "authpass123")),
    "authPriv": ALICE,
}


def _sized_tree(registry, sizes):
    """ifIndex, ifDescr and ifType columns of len(sizes) rows each; row i
    holds an OCTET STRING of sizes[i - 1] octets."""
    tree = agent.DispatchTree()

    def column(ctx, ids):
        if not ids:
            return len(sizes)
        if len(ids) == 1 and 1 <= ids[0] <= len(sizes):
            return ber.OctetString(b"v" * sizes[ids[0] - 1])
        return None
    for name in ("ifIndex", "ifDescr", "ifType"):
        agent.define_table_column(tree, registry, name, column)
    return tree


def _kept_reply(pdu, pairs, limit, frame):
    """The reply to the GETBULK pdu as the agent made it before it encoded
    each answer as it read it, kept here as the oracle.  pairs is the
    unbounded answer, as (arcs, value) pairs, which frame frames in full
    when that encodes and fits limit.  Otherwise each binding is encoded
    once; one with no BER form makes the reply genErr, indexing the first
    request binding one of whose answers has none, and any other reply
    keeps the whole repetitions that fit, found by bisection.  A reply
    that still does not fit, or keeps no repetition, is tooBig."""
    response = messages.response_for(
        pdu, [VarBind(ber.Oid(arcs), value) for arcs, value in pairs])
    try:
        framed = frame(response)
    except Exception:
        framed = None
    if framed is not None and len(framed) <= limit:
        return framed
    head = min(max(0, pdu.non_repeaters), len(pdu.bindings))
    width = max(1, len(pdu.bindings) - head)
    tlvs, failed = [], []
    for k, vb in enumerate(response.bindings):
        try:
            tlvs.append(ber.encode([vb.name, vb.value]))
        except Exception:
            failed.append(k if k < head else head + (k - head) % width)
    if failed:
        framed = frame(messages.response_for(
            pdu, list(pdu.bindings), agent.GEN_ERR, min(failed) + 1))
        if len(framed) <= limit:
            return framed
    else:
        def keep(reps):
            return frame(messages.response_for(
                pdu, ber.EncodedBindings(tlvs[:head + reps * width])))
        fits, over = 0, (len(tlvs) - head) // width  # repetitions
        while over - fits > 1:
            mid = (fits + over) // 2
            if len(keep(mid)) <= limit:
                fits = mid
            else:
                over = mid
        if fits:
            return keep(fits)
    return frame(messages.response_for(pdu, [], agent.TOO_BIG))


def _community_frame(response):
    return messages.encode_message(CommunityMessage(V2C, b"public", response))


def _assert_kept_v3_reply(responder, pdu, wire, keys, pairs):
    """responder's reply to wire, the v3 GETBULK pdu, is the kept
    oracle's: octet for octet when it is not encrypted, and otherwise as
    long, with the same scoped PDU octets, as each encryption draws a new
    salt."""
    reply = responder(wire)
    request = messages.decode_message(wire)
    flags = responder.credential.security_flags
    want = _kept_reply(
        pdu, pairs, min(request.msg_max_size, messages.MAX_UDP_PAYLOAD),
        lambda response: responder.frame(request, flags, b"", response))
    if flags & messages.FLAG_PRIV:
        assert len(reply) == len(want)
        assert messages.encode_scoped_pdu(usm.open(reply, keys)[1]) == \
            want.plaintext
    else:
        assert reply == want.seal(responder.engine)


_bulk_requests = st.tuples(
    st.lists(st.sampled_from(["ifIndex", "ifDescr", "ifType"]), min_size=1,
             max_size=3),
    st.integers(0, 3))


class TestBoundedRepetitions:
    """A GETBULK reply cut down to fit is the kept oracle's, which encodes
    the unbounded answer and bisects, and is secured once."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(2200, 5000), min_size=30, max_size=60),
           _bulk_requests)
    def test_community_reply(self, sizes, request):
        registry = _shared_registry()
        names, non_repeaters = request
        tree = _sized_tree(registry, sizes)
        pdu = messages.make_request_pdu(GET_BULK_REQUEST, names, registry, 9)
        pdu.error_status, pdu.error_index = non_repeaters, len(sizes)
        reply = agent.handle_datagram(tree, _ctx(registry),
                                      _community_frame(pdu))
        pairs = _oracle_dispatch(tree, pdu, _ctx(registry), V2C)[2]
        assert reply == _kept_reply(pdu, pairs, messages.MAX_UDP_PAYLOAD,
                                    _community_frame)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(_CREDENTIALS)),
           st.lists(st.integers(50, 300), min_size=10, max_size=40),
           _bulk_requests, st.integers(484, 3000))
    def test_v3_reply(self, level, sizes, request, max_size):
        registry = _shared_registry()
        names, non_repeaters = request
        tree = _sized_tree(registry, sizes)
        responder = harness.ScriptedV3Responder(tree, _ctx(registry),
                                                _CREDENTIALS[level])
        pdu = messages.make_request_pdu(GET_BULK_REQUEST, names, registry, 9)
        pdu.error_status, pdu.error_index = non_repeaters, len(sizes)
        wire, keys = v3_request(responder, pdu, max_size=max_size)
        _assert_kept_v3_reply(
            responder, pdu, wire, keys,
            _oracle_dispatch(tree, pdu, _ctx(registry), V2C)[2])

    def test_authpriv_reply_is_encrypted_once(self, registry, monkeypatch):
        # 2,000 repetitions of 100-octet values: far more than one datagram
        value = ber.OctetString(b"s" * 100)
        tree = agent.DispatchTree()
        agent.define_table_column(
            tree, registry, "ifDescr",
            lambda ctx, ids: 3000 if not ids else value)
        responder = _v3_responder(registry, tree)
        pdu = messages.make_request_pdu(GET_BULK_REQUEST, ["ifDescr"],
                                        registry, 9)
        pdu.error_index = 2000
        wire, keys = v3_request(responder, pdu)
        calls = Counter()
        encrypt = usm.encrypt_scoped_pdu

        def counting(*args, **kwargs):
            calls["encrypt"] += 1
            return encrypt(*args, **kwargs)
        monkeypatch.setattr(usm, "encrypt_scoped_pdu", counting)
        reply = responder(wire)
        assert len(reply) <= messages.MAX_UDP_PAYLOAD
        assert 0 < len(usm.open(reply, keys)[1].pdu.bindings) < 2000
        assert calls["encrypt"] == 1

    def test_authpriv_reply_that_fits_encodes_its_scoped_pdu_once(
            self, registry, monkeypatch):
        tree = agent.DispatchTree()
        agent.define_scalar(tree, registry, "sysDescr",
                            lambda ctx: ber.OctetString(b"ok"))
        responder = _v3_responder(registry, tree)
        pdu = messages.make_request_pdu(GET_REQUEST, ["sysDescr.0"],
                                        registry, 9)
        wire, keys = v3_request(responder, pdu)
        calls = Counter()
        encode = messages.encode_scoped_pdu

        def counting(scoped):
            calls[scoped.pdu.pdu_type] += 1
            return encode(scoped)
        monkeypatch.setattr(messages, "encode_scoped_pdu", counting)
        reply = responder(wire)
        assert usm.open(reply, keys)[1].pdu.bindings[0].value == \
            ber.OctetString(b"ok")
        assert calls == {messages.RESPONSE: 1}


# ---------------------------------------------------------------------------
# GETBULK reads no more than its reply can hold, and answers as the kept
# oracle does


_DIFF_BASE = (1, 3, 6, 1, 4, 1, 31609, 9)


def _diff_handler(spec, size, gap):
    """A handler of ChildSpec spec whose rows read OCTET STRINGs of size
    to size + 12 octets, except those at a multiple of gap, which read
    None."""
    def handler(ctx, ids):
        if not ids:
            return spec
        if gap and sum(ids) % gap == 0:
            return None
        return ber.OctetString(b"v" * (size + sum(ids) * 7 % 13))
    return handler


_diff_columns = st.lists(st.tuples(
    st.integers(0, 6),
    st.sampled_from([100, 150]) | st.integers(0, 150)
    | st.lists(st.integers(0, 400), max_size=60),
    st.sampled_from([300, 700, 1500]) | st.integers(0, 1500),
    st.sampled_from([0, 0, 3, 50])),
    min_size=1, max_size=4, unique_by=itemgetter(0))
_diff_names = st.lists(
    st.tuples(st.integers(0, 7), st.lists(st.integers(0, 200), max_size=2))
    .map(lambda t: _DIFF_BASE + (t[0],) + tuple(t[1]))
    | st.sampled_from([(1, 3), (1, 3, 6, 1, 4, 1, 31609), (2, 5)]),
    max_size=5)
_diff_repetitions = st.sampled_from([2 ** 31 - 1, 400, 25, 3, 0]) \
    | st.integers(-1, 400)


def _diff_case(columns, names, non_repeaters, repetitions):
    tree = agent.DispatchTree()
    for arc, spec, size, gap in columns:
        tree.register(ber.Oid(_DIFF_BASE + (arc,)),
                      _diff_handler(spec, size, gap))
    pdu = Pdu(GET_BULK_REQUEST, 77, non_repeaters, repetitions,
              [VarBind(ber.Oid(arcs)) for arcs in names])
    return tree, pdu, _oracle_dispatch(tree, pdu, None, V2C)[2]


class TestBulkMatchesTheKeptOracle:
    """Over random trees and GETBULK requests, the reply is the kept
    oracle's octet for octet, under v2c and under v3 with any msgMaxSize."""

    @settings(max_examples=120, deadline=None)
    @given(_diff_columns, _diff_names, st.integers(-1, 6), _diff_repetitions)
    def test_community_reply(self, columns, names, non_repeaters,
                             repetitions):
        tree, pdu, pairs = _diff_case(columns, names, non_repeaters,
                                      repetitions)
        reply = agent.handle_datagram(tree, _ctx(None), _community_frame(pdu))
        assert reply == _kept_reply(pdu, pairs, messages.MAX_UDP_PAYLOAD,
                                    _community_frame)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(sorted(_CREDENTIALS)), _diff_columns, _diff_names,
           st.integers(-1, 6), _diff_repetitions,
           st.integers(484, messages.MAX_UDP_PAYLOAD)
           | st.sampled_from([484, 485, 1500, messages.MAX_UDP_PAYLOAD]))
    def test_v3_reply(self, level, columns, names, non_repeaters,
                      repetitions, max_size):
        tree, pdu, pairs = _diff_case(columns, names, non_repeaters,
                                      repetitions)
        responder = harness.ScriptedV3Responder(tree, _ctx(None),
                                                _CREDENTIALS[level])
        wire, keys = v3_request(responder, pdu, max_size=max_size)
        _assert_kept_v3_reply(responder, pdu, wire, keys, pairs)


class TestBulkWorkIsBounded:
    def test_fifty_repeaters_over_twenty_thousand_rows(self, registry):
        """A 785-octet request with 50 repeaters and max-repetitions
        2^31-1 reads no more than one repetition past those that fit; it
        once read all 1,000,000 instances."""
        calls = Counter()

        def column(ctx, ids):
            calls["read" if ids else "probe"] += 1
            if not ids:
                return 20000
            return ids[0] * 10 if len(ids) == 1 and ids[0] <= 20000 else None

        tree = agent.DispatchTree()
        tree.register(registry.resolve("ifDescr"), column)
        name = registry.resolve("ifDescr")
        pdu = Pdu(GET_BULK_REQUEST, 1, 0, 2 ** 31 - 1, [VarBind(name)] * 50)
        wire = _community_frame(pdu)
        assert len(wire) == 785
        reply = agent.handle_datagram(tree, _ctx(registry), wire)
        kept = len(messages.decode_message(reply).pdu.bindings) // 50
        assert kept > 0
        assert calls["probe"] == 1
        assert calls["read"] <= (kept + 1) * 50
        # the kept oracle's reply: the repetitions that fit lie well within
        # the first 200 of the unbounded answer
        pairs = [(name.arcs + (row,), row * 10)
                 for row in range(1, 201) for _ in range(50)]
        assert reply == _kept_reply(pdu, pairs, messages.MAX_UDP_PAYLOAD,
                                    _community_frame)

    def test_answers_that_all_fail_still_stop_at_the_limit(self, registry):
        """Each answer with no BER form counts as the fewest octets a
        binding takes, so reading stops as it would for answers that
        encode."""
        reads = Counter()

        def column(ctx, ids):
            reads["probe" if not ids else "read"] += 1
            return 20000 if not ids else True

        tree = agent.DispatchTree()
        tree.register(registry.resolve("ifDescr"), column)
        pdu = Pdu(GET_BULK_REQUEST, 1, 0, 2 ** 31 - 1,
                  [VarBind(registry.resolve("ifDescr"))] * 2)
        reply = agent.handle_datagram(tree, _ctx(registry),
                                      _community_frame(pdu))
        resp = messages.decode_message(reply).pdu
        assert (resp.error_status, resp.error_index) == (agent.GEN_ERR, 1)
        assert reads["probe"] == 1
        assert reads["read"] <= messages.MAX_UDP_PAYLOAD // 7 + 2

    @pytest.mark.parametrize("v3", [False, True])
    def test_reads_one_repetition_past_the_reply(self, registry, v3):
        """One repeater with max-repetitions 2^31-1, over a counted column
        of INTEGER 0, under v2c and under v3 authPriv at msgMaxSize 484:
        the frame's own overhead counted, reading stops one repetition
        past what the reply keeps.  It once read up to ten more."""
        reads = Counter()

        def column(ctx, ids):
            reads["read" if ids else "probe"] += 1
            return 0 if ids else 100000

        tree = agent.DispatchTree()
        tree.register(registry.resolve("ifIndex"), column)
        pdu = Pdu(GET_BULK_REQUEST, 1, 0, 2 ** 31 - 1,
                  [VarBind(registry.resolve("ifIndex"))])
        if v3:
            responder = _v3_responder(registry, tree)
            wire, keys = v3_request(responder, pdu, max_size=484)
            reply = usm.open(responder(wire), keys)[1].pdu
        else:
            reply = messages.decode_message(agent.handle_datagram(
                tree, _ctx(registry), _community_frame(pdu))).pdu
        assert reply.error_status == 0 and reply.bindings
        assert reads["probe"] == 1
        assert reads["read"] <= len(reply.bindings) + 1

    @pytest.mark.parametrize("bad", [5, 2500])
    def test_unencodable_value(self, registry, bad):
        """A value with no BER form among the repetitions that fit makes
        the reply genErr, as the kept oracle does.  One past the
        repetition whose answers pass the limit is never read: the reply
        keeps the repetitions that fit, where the kept oracle, which read
        everything, answered genErr."""
        reads = Counter()

        def column(ctx, ids):
            if not ids:
                return 3000
            reads[ids[0]] += 1
            return True if ids[0] == bad else ber.OctetString(b"s" * 100)

        tree = agent.DispatchTree()
        tree.register(registry.resolve("ifDescr"), column)
        name = registry.resolve("ifDescr")
        pdu = Pdu(GET_BULK_REQUEST, 1, 0, 2000, [VarBind(name)])
        reply = agent.handle_datagram(tree, _ctx(registry),
                                      _community_frame(pdu))
        resp = messages.decode_message(reply).pdu
        if bad == 5:
            assert (resp.error_status, resp.error_index) == (agent.GEN_ERR, 1)
            pairs = [(name.arcs + (row,), column(None, (row,)))
                     for row in range(1, 2001)]
            assert reply == _kept_reply(pdu, pairs, messages.MAX_UDP_PAYLOAD,
                                        _community_frame)
        else:
            assert resp.error_status == 0
            assert 0 < len(resp.bindings) < bad - 1
            assert reads[bad] == 0
            assert max(reads) == len(resp.bindings) + 1


class _Measured:
    """A stand-in frame: the response it frames, and a length."""

    def __init__(self, response, length):
        self.response, self.length = response, length

    def __len__(self):
        return self.length


class TestCutSearch:
    """_fitted keeps the most whole repetitions whose frame fits, starting
    from its estimate, however the frame's overhead moves with the
    answers' length, as a v3 reply's padding makes it do."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 4),
           st.lists(st.integers(7, 90), min_size=1, max_size=120),
           st.integers(0, 15), st.integers(0, 7), st.integers(40, 3000))
    @example(0, 1, [30] * 10, 0, 0, 205)  # keeps 6 of 10: frames 9, 8, 7, 6
    @example(2, 3, [30] * 17, 0, 0, 40)  # no repetition fits: tooBig
    def test_most_repetitions_that_fit(self, head, width, lengths, base,
                                       block, limit):
        def frame(response):
            # an overhead that grows with length, and padding to a block
            size = sum(map(len, response.bindings))
            pad = -(size + base) % (block + 1)
            return _Measured(response, size + 20 + base + pad +
                             3 * (size > 127) + 2 * (size > 255))

        tlvs = ber.EncodedBindings(bytes(n) for n in lengths)
        del tlvs[head + (len(tlvs) - head) // width * width:]
        pdu = Pdu(GET_BULK_REQUEST, 1, head, 10,
                  [VarBind(ber.Oid((1, 3)))] * (head + width))
        response = messages.response_for(pdu, tlvs)
        framed = frame(response)
        if len(framed) <= limit or len(tlvs) < head:
            return
        reps = (len(tlvs) - head) // width
        fitting = [r for r in range(1, reps) if len(frame(
            messages.response_for(pdu, tlvs[:head + r * width]))) <= limit]
        got = agent._fitted(pdu, response, limit, frame, framed).response
        if fitting:
            assert got.error_status == 0
            assert list(got.bindings) == tlvs[:head + max(fitting) * width]
        else:
            assert (got.error_status, got.bindings) == (agent.TOO_BIG, [])


class TestCutFrames:
    """An oversized GETBULK reply that reads R repetitions and keeps K is
    framed exactly 1 + R - K times: once in full, then once for each
    repetition the cut drops."""

    @pytest.mark.parametrize("size", [0, 40, 200])
    @pytest.mark.parametrize("v3, context_engine_id, max_size", [
        (False, None, None),
        (True, None, 484), (True, None, 1500),
        (True, None, messages.MAX_UDP_PAYLOAD),
        (True, b"", 484), (True, b"", 1500),
        (True, b"", messages.MAX_UDP_PAYLOAD),
    ])
    def test_one_frame_per_repetition_dropped(
            self, registry, monkeypatch, v3, context_engine_id, max_size,
            size):
        reads = Counter()
        value = ber.OctetString(b"v" * size)

        def column(ctx, ids):
            reads["read" if ids else "probe"] += 1
            return value if ids else 100000

        tree = agent.DispatchTree()
        tree.register(registry.resolve("ifDescr"), column)
        pdu = Pdu(GET_BULK_REQUEST, 1, 0, 2 ** 31 - 1,
                  [VarBind(registry.resolve("ifDescr"))])
        frames = Counter()
        if v3:  # authPriv
            responder = _v3_responder(registry, tree)
            wire, keys = v3_request(responder, pdu, max_size=max_size,
                                    context_engine_id=context_engine_id)
            frame = responder.frame

            def counting(*args):
                frames["frame"] += 1
                return frame(*args)
            monkeypatch.setattr(responder, "frame", counting)
            reply = usm.open(responder(wire), keys)[1].pdu
        else:
            wire, encode = _community_frame(pdu), messages.encode_message

            def counting(msg):
                frames["frame"] += 1
                return encode(msg)
            monkeypatch.setattr(messages, "encode_message", counting)
            reply = messages.decode_message(agent.handle_datagram(
                tree, _ctx(registry), wire)).pdu
        read, kept = reads["read"], len(reply.bindings)
        assert reply.error_status == 0 and 0 < kept < read
        assert frames["frame"] == 1 + read - kept
