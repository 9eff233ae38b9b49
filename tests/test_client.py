import re

import pytest
from hypothesis import given, settings, strategies as st

from snmpkit import agent, ber, client, harness, messages, oids, smi, usm
from snmpkit.errors import (
    AuthenticationError, EndpointClosedError, SnmpError, SnmpStatusError,
    UsmProtocolError,
)
from snmpkit.messages import (
    FLAG_AUTH, FLAG_PRIV, FLAG_REPORTABLE, GET_REQUEST, CommunityMessage, Pdu,
    REPORT, RESPONSE, ScopedPdu, V1, V2C, V3, V3Message, VarBind, defaults,
)
from snmpkit.mibs import load_core


@pytest.fixture()
def fabric(loopback_agent):
    tree, ctx = loopback_agent
    endpoint, channel, clock = harness.connect(
        harness.agent_responder(tree, ctx))
    return endpoint, channel, clock


def _open(registry, fabric, **kwargs):
    endpoint, channel, clock = fabric
    return client.open_session(
        "loopback", registry=registry,
        **harness.loopback_session_kwargs(endpoint, clock), **kwargs)


class TestOpenSession:
    def test_defaults(self, registry, fabric):
        session = _open(registry, fabric)
        assert session.port == defaults.port == 161
        assert session.version == defaults.version == V2C
        assert session.community == defaults.community == "public"

    def test_v3_requires_user(self, registry, fabric):
        with pytest.raises(SnmpError):
            _open(registry, fabric, version=V3)

    def test_user_rejected_on_v2c(self, registry, fabric):
        with pytest.raises(SnmpError):
            _open(registry, fabric, version=V2C, user="alice")

    def test_close_idempotent(self, registry, fabric):
        session = _open(registry, fabric)
        client.close_session(session)
        client.close_session(session)
        with pytest.raises(EndpointClosedError):
            client.get(session, "sysDescr.0")

    def test_with_session_closes_on_unwind(self, registry, fabric):
        endpoint, channel, clock = fabric
        with pytest.raises(RuntimeError):
            with client.with_session(
                    "loopback", registry=registry,
                    **harness.loopback_session_kwargs(endpoint, clock)) as s:
                raise RuntimeError("boom")
        assert endpoint.closed


class _NoisyEndpoint:
    """An endpoint that delivers noise(request) ahead of each reply."""

    closed = False
    local_address = ("127.0.0.1", 0)

    def __init__(self, responder, noise):
        self.responder = responder
        self.noise = noise
        self.sent = 0
        self.queue = []

    def send(self, payload):
        self.sent += 1
        self.queue += self.noise(payload) + [self.responder(payload)]

    def receive(self, timeout):
        return self.queue.pop(0) if self.queue else None

    def close(self):
        self.closed = True


class TestReplyMatching:
    def test_community_session_skips_datagrams_that_are_not_its_reply(
            self, registry, loopback_agent):
        tree, ctx = loopback_agent

        def noise(payload):
            request = messages.decode_message(payload).pdu
            name = request.bindings[0].name
            decoy = [VarBind(name, ber.OctetString(b"decoy"))]
            return [
                messages.encode_message(messages.CommunityMessage(
                    V2C, b"public",
                    Pdu(RESPONSE, request.request_id - 1, bindings=decoy))),
                b"\x30\x03\x02\x01",  # truncated: does not decode
                messages.encode_message(messages.CommunityMessage(
                    V2C, b"public",
                    Pdu(REPORT, request.request_id, bindings=decoy))),
            ]

        endpoint = _NoisyEndpoint(harness.agent_responder(tree, ctx), noise)
        session = client.open_session(
            "loopback", registry=registry,
            **harness.loopback_session_kwargs(endpoint, harness.VirtualClock()))
        assert client.get(session, ["sysName.0", "sysLocation.0"]) == [
            ber.OctetString(ctx.name.encode()), ber.OctetString(b"")]
        assert endpoint.sent == 1 and endpoint.queue == []


class TestGetShapes:
    def test_single_in_single_out(self, registry, fabric):
        session = _open(registry, fabric)
        value = client.get(session, "sysName.0")
        assert isinstance(value, ber.OctetString)

    def test_list_in_list_out(self, registry, fabric):
        session = _open(registry, fabric)
        values = client.get(session, ["sysDescr.0", "sysName.0"])
        assert isinstance(values, list) and len(values) == 2

    def test_one_element_list_stays_list(self, registry, fabric):
        session = _open(registry, fabric)
        values = client.get(session, ["sysName.0"])
        assert isinstance(values, list) and len(values) == 1

    def test_arc_tuple_is_single(self, registry, fabric):
        session = _open(registry, fabric)
        value = client.get(session, (1, 3, 6, 1, 2, 1, 1, 5, 0))
        assert isinstance(value, ber.OctetString)


class TestOperations:
    def test_get_next(self, registry, fabric):
        session = _open(registry, fabric)
        pairs = client.get_next(session, "sysDescr")
        assert pairs[0][0].arcs[-2:] == (1, 0)

    def test_empty_bindings_rejected(self, registry, fabric):
        session = _open(registry, fabric)
        with pytest.raises(SnmpError):
            client.request(session, 0, [])

    def test_error_status_raises(self, registry, fabric):
        session = _open(registry, fabric, version=V1)
        with pytest.raises(SnmpStatusError) as exc:
            client.get(session, "sysName.3")
        assert exc.value.status == 2
        assert exc.value.status_name == "noSuchName"

    def test_a_reply_name_keeps_its_leading_zero(self, registry):
        # 0.1.127.1 lies under itu-t, not under iso (1.127.1)
        tree, ctx = agent.DispatchTree(), agent.AgentContext()
        tree.register(ber.Oid((0, 1, 127)),
                      lambda ctx, ids: ber.OctetString(b"x") if ids else 1)
        session = _open(registry, harness.connect(
            harness.agent_responder(tree, ctx)))
        (name, value), = client.get_next(session, "zeroDotZero")
        assert (name.arcs, str(name), value) == \
            ((0, 1, 127, 1), "0.1.127.1", b"x")
        assert ber.encode(name) == ber.encode(ber.Oid((0, 1, 127, 1)))

    def test_set_rejected_readonly(self, registry, fabric):
        session = _open(registry, fabric)
        with pytest.raises(SnmpStatusError) as exc:
            client.set_values(session, [("sysName.0", ber.OctetString(b"x"))])
        assert exc.value.status_name == "notWritable"

    def test_bulk(self, registry, fabric):
        session = _open(registry, fabric)
        pairs = client.bulk(session, 0, 4, ["ifDescr"])
        assert len(pairs) == 4
        assert bytes(pairs[0][1]) == b"lo"
        assert bytes(pairs[1][1]) == b"eth0"

    def test_bulk_requires_v2c(self, registry, fabric):
        session = _open(registry, fabric, version=V1)
        with pytest.raises(SnmpError):
            client.bulk(session, 0, 5, ["ifDescr"])

    def test_inform_is_acknowledged_in_one_exchange(self, registry):
        """An InformRequest goes out once; the receiver's Response, which
        echoes its bindings, is the answer."""
        informs = []

        def acknowledge(data):
            msg = messages.decode_message(data)
            informs.append(msg.pdu.pdu_type)
            msg.pdu = messages.response_for(msg.pdu, msg.pdu.bindings)
            return messages.encode_message(msg)

        endpoint, channel, clock = harness.connect(acknowledge)
        session = client.open_session(
            "loopback", registry=registry,
            **harness.loopback_session_kwargs(endpoint, clock))
        pairs = client.inform(session, [
            ("sysUpTime.0", ber.TimeTicks(1234)),
            ("sysName.0", ber.OctetString(b"n"))])
        assert informs == [messages.INFORM_REQUEST]
        assert channel.exchanges == session.exchanges == 1
        assert [(ref.arcs, value) for ref, value in pairs] == [
            (registry.resolve("sysUpTime.0").arcs, ber.TimeTicks(1234)),
            (registry.resolve("sysName.0").arcs, ber.OctetString(b"n"))]

    def test_inform_requires_v2c(self, registry, fabric):
        endpoint, channel, clock = fabric
        session = _open(registry, fabric, version=V1)
        with pytest.raises(SnmpError, match="inform requires"):
            client.inform(session, [("sysName.0", ber.OctetString(b"n"))])
        assert channel.client_sent == 0

    def test_trap_v1_requires_v1(self, registry, fabric):
        session = _open(registry, fabric)
        with pytest.raises(SnmpError):
            client.trap_v1(session, "app", 6, 1)

    def test_trap_v1_fire_and_forget(self, registry, fabric):
        endpoint, channel, clock = fabric
        session = _open(registry, fabric, version=V1)
        before = channel.client_sent
        client.trap_v1(session, "app", 6, 1,
                       [("sysName.0", ber.OctetString(b"n"))])
        assert channel.client_sent == before + 1
        assert channel.client_received == 0

    def test_trap_v1_timestamp_follows_the_session_clock(self, registry):
        sent = []
        endpoint, channel, clock = harness.connect(sent.append)
        session = client.open_session(
            "loopback", version=V1, registry=registry,
            **harness.loopback_session_kwargs(endpoint, clock))
        clock.advance(12.34)
        client.trap_v1(session, "app", 6, 1)
        trap, = sent
        assert messages.decode_message(trap).pdu.timestamp == 1234


class TestWalk:
    def test_system_group(self, registry, fabric):
        session = _open(registry, fabric)
        pairs = client.walk(session, "system")
        arcs = [p[0].arcs for p in pairs]
        assert [a[-2:] for a in arcs] == [
            (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)]
        assert arcs == sorted(arcs)

    def test_v1_walk_agrees(self, registry, fabric):
        v2 = _open(registry, fabric)
        v1 = _open(registry, fabric, version=V1)
        as_v2 = [(p[0].arcs, _plain(p[1])) for p in client.walk(v2, "ifTable")]
        as_v1 = [(p[0].arcs, _plain(p[1])) for p in client.walk(v1, "ifTable")]
        assert as_v1 == as_v2

    def test_v1_walk_of_last_subtree_ends(self, registry, fabric):
        v2 = _open(registry, fabric)
        v1 = _open(registry, fabric, version=V1)
        as_v2 = [(p[0].arcs, _plain(p[1]))
                 for p in client.walk(v2, "appFeatureName")]
        as_v1 = [(p[0].arcs, _plain(p[1]))
                 for p in client.walk(v1, "appFeatureName")]
        assert as_v2 and as_v1 == as_v2

    def test_leaf_walk(self, registry, fabric):
        session = _open(registry, fabric)
        pairs = client.walk(session, "sysDescr")
        assert len(pairs) == 1
        assert pairs[0][0].arcs[-2:] == (1, 0)


def _plain(value):
    return bytes(value) if isinstance(value, bytes) else value


class TestSelect:
    def test_rows_and_cells(self, registry, fabric):
        session = _open(registry, fabric)
        rows = client.select("ifTable", session)
        assert [row.index for row in rows] == [(1,), (2,)]
        assert len(rows[0].cells) == 22
        assert bytes(client.value_by_column(rows[1], "ifDescr")) == b"eth0"

    def test_plain_value_order(self, registry, fabric):
        session = _open(registry, fabric)
        rows = client.select("ifTable", session)
        arcs = [ref.arcs for ref, _ in client.plain_value(rows[0])]
        assert arcs == sorted(arcs)
        assert arcs[0][-1] == 1 and arcs[1][-1] == 2  # ifIndex, ifDescr

    def test_unknown_column_errors(self, registry, fabric):
        session = _open(registry, fabric)
        rows = client.select("ifTable", session)
        with pytest.raises(SnmpError):
            client.value_by_column(rows[0], "zzz")

    def test_exchange_bound(self, registry, fabric):
        endpoint, channel, clock = fabric
        session = _open(registry, fabric)
        before = channel.exchanges
        rows = client.select("ifTable", session)
        assert channel.exchanges - before <= len(rows) + 2

    def test_session_counts_exchanges_not_sends(self, registry,
                                                loopback_agent):
        """A retransmitted request is one exchange on the session."""
        tree, ctx = loopback_agent
        endpoint, channel, clock = harness.connect(
            harness.agent_responder(tree, ctx), drop_requests={1})
        session = _open(registry, (endpoint, channel, clock))
        assert session.exchanges == 0
        client.select("ifTable", session)
        assert session.exchanges == channel.exchanges
        assert channel.client_sent == session.exchanges + 1

    def test_agrees_with_walk(self, registry, fabric):
        session = _open(registry, fabric)
        rows = client.select("ifTable", session)
        from_select = sorted(
            (tuple(ref.arcs) + row.index, _plain(v))
            for row in rows for ref, v in row.cells)
        from_walk = sorted((p[0].arcs, _plain(p[1]))
                           for p in client.walk(session, "ifTable"))
        assert from_select == from_walk

    def test_row_gets_resolve_no_names(self, monkeypatch):
        """Registry.resolve calls in a first select, each over a fresh
        registry: the table's, the walk's column and the cursor of each
        of the walk's GETBULKs.  The R per-row GETs resolve no name, and
        the replies' names are read, not resolved.
        A second select finds every name in the registry's memo and
        descends the tree for none.  The agent keeps no names."""
        resolves, descents, counts, again, walks = [], [], {}, {}, {}
        resolve, descend = oids.Registry.resolve, oids._descend

        def counting_resolve(self, spec):
            resolves.append(spec)
            return resolve(self, spec)

        def counting_descend(*args):
            descents.append(args[1])
            return descend(*args)

        monkeypatch.setattr(oids.Registry, "resolve", counting_resolve)
        monkeypatch.setattr(oids, "_descend", counting_descend)
        for rows in (8, 32):
            registry = load_core(oids.Registry())
            tree, ctx = agent.DispatchTree(), agent.AgentContext()
            agent.install_if_table(tree, registry,
                                   agent.demo_if_rows()[1:] * rows)
            endpoint, channel, clock = harness.connect(
                harness.agent_responder(tree, ctx))
            session = _open(registry, (endpoint, channel, clock))
            del resolves[:]
            assert len(client.select("ifTable", session)) == rows
            counts[rows] = len(resolves)
            walks[rows] = channel.exchanges - rows
            del descents[:]
            assert len(client.select("ifTable", session)) == rows
            again[rows] = len(descents)
        assert walks == {8: 1, 32: 2}
        assert counts == {8: 2 + 1, 32: 2 + 2}
        assert again == {8: 0, 32: 0}

    def test_dynamic_table(self, registry, fabric):
        session = _open(registry, fabric)
        rows = client.select("appFeatureTable", session)
        assert rows
        names = [bytes(client.value_by_column(r, "appFeatureName"))
                 for r in rows]
        assert names == sorted(names)


# A table indexed by a not-accessible column, as SMIv2 recommends (RFC 2578
# section 7.7), with an accessible-for-notify column between its two
# readable ones: neither is readable by a GET (section 7.3).
HIDDEN_INDEX_MIB = """
HIDDEN-INDEX-MIB DEFINITIONS ::= BEGIN
IMPORTS OBJECT-TYPE, enterprises FROM SNMPv2-SMI;

hiddenIndex OBJECT IDENTIFIER ::= { enterprises 7701 }

hiTable OBJECT-TYPE
    SYNTAX      SEQUENCE OF HiEntry
    MAX-ACCESS  not-accessible
    STATUS      current
    DESCRIPTION "A table whose index is not readable."
    ::= { hiddenIndex 1 }

hiEntry OBJECT-TYPE
    SYNTAX      HiEntry
    MAX-ACCESS  not-accessible
    STATUS      current
    DESCRIPTION "One row."
    INDEX       { hiIndex }
    ::= { hiTable 1 }

HiEntry ::= SEQUENCE {
    hiIndex     INTEGER,
    hiName      OCTET STRING,
    hiEvent     INTEGER,
    hiCount     INTEGER
}

hiIndex OBJECT-TYPE
    SYNTAX      INTEGER (1..2147483647)
    MAX-ACCESS  not-accessible
    STATUS      current
    DESCRIPTION "Row index."
    ::= { hiEntry 1 }

hiName OBJECT-TYPE
    SYNTAX      OCTET STRING
    MAX-ACCESS  read-only
    STATUS      current
    DESCRIPTION "Row name."
    ::= { hiEntry 2 }

hiEvent OBJECT-TYPE
    SYNTAX      INTEGER
    MAX-ACCESS  accessible-for-notify
    STATUS      current
    DESCRIPTION "Sent only in notifications."
    ::= { hiEntry 3 }

hiCount OBJECT-TYPE
    SYNTAX      INTEGER
    MAX-ACCESS  read-write
    STATUS      current
    DESCRIPTION "Row count."
    ::= { hiEntry 4 }

END
"""

_HIDDEN = load_core(oids.Registry())
smi.load_records(_HIDDEN, smi.compile_text(HIDDEN_INDEX_MIB))
_READABLE = ("hiName", "hiCount")


def _hidden_index_agent(indices):
    """A tree and context serving hiName and hiCount at indices, a list of
    arc tuples: hiIndex and hiEvent are served by no handler."""
    tree, ctx = agent.DispatchTree(), agent.AgentContext(registry=_HIDDEN)
    held = set(indices)
    for name in _READABLE:
        agent.define_table_column(
            tree, _HIDDEN, name,
            lambda ctx, ids, name=name: list(indices) if not ids else
            _cell(name, ids) if ids in held else None)
    return tree, ctx


def _cell(name, index):
    return ber.OctetString(f"{name}{index}".encode()) if name == "hiName" \
        else len(index)


def _hidden_select(indices, tap=None):
    """select of hiTable from an agent serving indices; tap(request data)
    sees every datagram the session sends."""
    serve = harness.agent_responder(*_hidden_index_agent(indices))
    if tap is not None:
        inner = serve

        def serve(data):
            tap(data)
            return inner(data)
    endpoint, channel, clock = harness.connect(serve)
    session = _open(_HIDDEN, (endpoint, channel, clock))
    return client.select("hiTable", session), channel


# Index arcs at every sub-identifier width boundary: one octet below 128,
# two from 128, five from 2^28.
_SUBID = st.sampled_from([0, 1, 127, 128, 16383, 16384, 2 ** 21, 2 ** 28 - 1,
                          2 ** 28, 2 ** 32 - 1]) | st.integers(0, 2 ** 32 - 1)
_INDEX = st.one_of(
    st.tuples(_SUBID),
    st.lists(_SUBID, min_size=2, max_size=6).map(tuple),
    # 25 or more five-octet arcs: every name, and so its binding, is too
    # long for a short-form length
    st.lists(st.integers(2 ** 28, 2 ** 32 - 1), min_size=25,
             max_size=40).map(tuple))


class TestSelectOfHiddenIndex:
    def test_rows_come_from_the_first_readable_column(self):
        rows, channel = _hidden_select([(7,), (130,), (70000,)])
        assert [row.index for row in rows] == [(7,), (130,), (70000,)]
        # one GETBULK of the walk, whose reply passes the column's end
        assert channel.exchanges == len(rows) + 1
        for row in rows:
            assert [ref.node.name for ref, _ in row.cells] == list(_READABLE)
            assert [_plain(value) for _, value in row.cells] == [
                _cell(name, row.index) for name in _READABLE]

    def test_empty_table(self):
        rows, channel = _hidden_select([])
        assert rows == [] and channel.exchanges == 1

    def test_a_table_with_no_readable_column_raises(self):
        registry = load_core(oids.Registry())
        smi.load_records(registry, smi.compile_text(
            HIDDEN_INDEX_MIB.replace("read-only", "not-accessible")
            .replace("read-write", "accessible-for-notify")))
        tree, ctx = agent.DispatchTree(), agent.AgentContext()
        endpoint, channel, clock = harness.connect(
            harness.agent_responder(tree, ctx))
        session = _open(registry, (endpoint, channel, clock))
        with pytest.raises(SnmpError, match="no readable columns"):
            client.select("hiTable", session)
        assert channel.exchanges == 0

    def test_a_row_shows_its_index_and_finds_a_cell_by_arcs(self):
        (row,), _ = _hidden_select([(7, 3)])
        assert repr(row) == "<HiEntry[7.3] hiName=b'hiName(7, 3)', " \
            "hiCount=2...>"
        count = _HIDDEN.resolve("hiCount")
        for column in (count.arcs, list(count.arcs), count):
            assert client.value_by_column(row, column) == 2
        with pytest.raises(SnmpError, match="no column"):
            client.value_by_column(row, _HIDDEN.resolve("hiIndex").arcs)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_INDEX, min_size=1, max_size=3, unique=True))
    def test_row_gets_are_the_per_cell_encoding(self, indices):
        """Each row's GET is, octet for octet, the message of a VarBind per
        cell named by the column's ref and the index below it."""
        sent = []
        rows, _ = _hidden_select(indices, sent.append)
        assert [row.index for row in rows] == sorted(indices)
        gets = [messages.decode_message(data) for data in sent]
        gets = [(data, msg) for data, msg in zip(sent, gets)
                if msg.pdu.pdu_type == GET_REQUEST]
        assert len(gets) == len(rows)
        columns = [_HIDDEN.resolve(name) for name in _READABLE]
        for (data, msg), row in zip(gets, rows):
            assert data == messages.encode_message(CommunityMessage(
                msg.version, msg.community, Pdu(
                    GET_REQUEST, msg.pdu.request_id, bindings=[
                        VarBind(col.child(*row.index)) for col in columns])))


class TestEchoedNames:
    """A GET or SET reply must carry the names asked for, in order."""

    WRITABLE = "1.3.6.1.4.1.31609.9"

    def _session(self, registry, tree, ctx, responder=None, **swap):
        """A session to tree through harness.swapping_responder(**swap),
        or through responder(agent's responder) when it is given."""
        serve = harness.agent_responder(tree, ctx)
        serve = responder(serve) if responder else \
            harness.swapping_responder(serve, **swap)
        return _open(registry, harness.connect(serve))

    def test_get_of_a_swapped_reply_raises(self, registry, loopback_agent):
        session = self._session(registry, *loopback_agent)
        with pytest.raises(SnmpError, match="response binding 1 names"):
            client.get(session, ["sysName.0", "sysDescr.0"])

    def test_select_of_swapped_row_replies_raises(self, registry,
                                                  loopback_agent):
        # the walk's GETBULK reply, swapped, ends the walk after ifIndex.1
        session = self._session(registry, *loopback_agent, first=1, second=2)
        with pytest.raises(SnmpError, match="response binding 2 names"):
            client.select("ifTable", session)

    def test_set_of_a_swapped_reply_raises(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        agent.register_variable(
            tree, registry.resolve(self.WRITABLE),
            lambda ctx, ids, *new: new[0] if new else None, writable=True)
        session = self._session(registry, tree, ctx)
        with pytest.raises(SnmpError, match="response binding 1 names"):
            client.set_values(session, [(self.WRITABLE + ".1", 1),
                                        (self.WRITABLE + ".2", 2)])

    def _rows(self, registry, rows):
        tree, ctx = agent.DispatchTree(), agent.AgentContext(
            registry=registry)
        agent.install_if_table(tree, registry,
                               agent.demo_if_rows()[1:] * rows)
        return tree, ctx

    def test_walk_of_a_reordered_reply_raises(self, registry):
        # the GETBULK reply holds ifDescr.2 before ifDescr.1
        session = self._session(registry, *self._rows(registry, 6))
        column = ".".join(map(str, registry.resolve("ifDescr").arcs))
        with pytest.raises(SnmpError, match=rf"OID not increasing: "
                           rf"{column}\.1 after {column}\.2"):
            client.walk(session, "ifDescr")

    def test_select_of_a_reordered_walk_raises(self, registry):
        session = self._session(registry, *self._rows(registry, 6))
        with pytest.raises(SnmpError, match="OID not increasing"):
            client.select("ifTable", session)

    def test_a_short_reply_raises(self, registry, loopback_agent):
        def short(serve):
            def answer(data):
                msg = messages.decode_message(serve(data))
                del msg.pdu.bindings[-1]
                return messages.encode_message(msg)
            return answer

        session = self._session(registry, *loopback_agent, responder=short)
        with pytest.raises(SnmpError, match="holds 1 bindings for 2"):
            client.get(session, ["sysName.0", "sysDescr.0"])

    @staticmethod
    def _on_row_replies(change):
        """A responder wrapper that applies change to the bindings of each
        reply to a GET, as a list of VarBinds."""
        def wrap(serve):
            def answer(data):
                reply = serve(data)
                if messages.decode_message(data).pdu.pdu_type != GET_REQUEST:
                    return reply
                msg = messages.decode_message(reply)
                change(msg.pdu.bindings)
                return messages.encode_message(msg)
            return answer
        return wrap

    def test_select_of_a_row_reply_with_two_names_swapped_raises(
            self, registry, loopback_agent):
        def swap(bindings):  # ifType's and ifSpeed's cells
            bindings[2], bindings[4] = bindings[4], bindings[2]

        session = self._session(registry, *loopback_agent,
                                responder=self._on_row_replies(swap))
        got = repr(registry.resolve("ifSpeed.1"))
        asked = str(registry.resolve("ifType").child(1))
        assert asked == "1.3.6.1.2.1.2.2.1.3.1"
        with pytest.raises(SnmpError, match=re.escape(
                f"response binding 3 names {got}, not the requested "
                f"{asked}") + "$"):
            client.select("ifTable", session)

    def test_select_of_a_row_reply_without_its_last_binding_raises(
            self, registry, loopback_agent):
        def drop(bindings):
            del bindings[-1]

        session = self._session(registry, *loopback_agent,
                                responder=self._on_row_replies(drop))
        with pytest.raises(SnmpError,
                           match="^response holds 21 bindings for 22 "
                                 "requested$"):
            client.select("ifTable", session)

    def test_get_pairs_hold_the_request_refs(self, registry, fabric):
        session = _open(registry, fabric)
        ref = registry.resolve("sysDescr.0")
        (name, value), = client.request(session, GET_REQUEST, [ref])
        assert name is ref and bytes(value)

    def test_other_replies_are_resolved_as_they_come(self, registry,
                                                     loopback_agent):
        session = self._session(registry, *loopback_agent)
        pairs = client.get_next(session, ["sysDescr", "sysName"])
        assert [str(ref) for ref, _ in pairs] == [
            "1.3.6.1.2.1.1.5.0", "1.3.6.1.2.1.1.1.0"]
        assert len(client.bulk(session, 0, 3, ["sysDescr"])) == 3


class TestV3:
    CRED = dict(user="alice", auth=("sha1", "authpass123"),
                priv=("des", "privpass123"))

    def _fabric(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        cred = usm.Credential.create("alice", ("sha1", "authpass123"),
                                     ("des", "privpass123"))
        responder = harness.ScriptedV3Responder(tree, ctx, cred)
        endpoint, channel, clock = harness.connect(responder)
        return responder, endpoint, channel, clock

    def test_discovery_then_auth(self, registry, loopback_agent):
        responder, endpoint, channel, clock = self._fabric(
            registry, loopback_agent)
        session = client.open_session(
            "loopback", version=V3, registry=registry, **self.CRED,
            **harness.loopback_session_kwargs(endpoint, clock))
        value = client.get(session, "sysName.0")
        assert isinstance(value, ber.OctetString)
        assert responder.report_count == 1
        assert responder.auth_count == 1
        client.get(session, "sysName.0")
        assert responder.report_count == 1
        assert responder.auth_count == 2

    def test_engine_state_adopted(self, registry, loopback_agent):
        responder, endpoint, channel, clock = self._fabric(
            registry, loopback_agent)
        session = client.open_session(
            "loopback", version=V3, registry=registry, **self.CRED,
            **harness.loopback_session_kwargs(endpoint, clock))
        client.get(session, "sysName.0")
        assert session.engine.engine_id == responder.engine_id
        assert session.engine.auth_key == responder.auth_key
        assert session.engine.priv_key == responder.priv_key

    def test_wrong_auth_password_fails(self, registry, loopback_agent):
        responder, endpoint, channel, clock = self._fabric(
            registry, loopback_agent)
        session = client.open_session(
            "loopback", version=V3, user="alice",
            auth=("sha1", "not-the-password"), registry=registry,
            rto_min=0.001, rto_max=0.001, max_retries=0,
            **harness.loopback_session_kwargs(endpoint, clock))
        with pytest.raises(Exception):
            client.get(session, "sysName.0")
        assert responder.auth_count == 0

    def test_unknown_user_gets_a_report(self, registry, loopback_agent):
        # RFC 3414 section 3.2 step 4: before the level and any key
        tree, ctx = loopback_agent
        responder = harness.ScriptedV3Responder(
            tree, ctx, usm.Credential.create(**self.CRED))
        replies = []

        def recording(data):
            replies.append(responder(data))
            return replies[-1]

        endpoint, channel, clock = harness.connect(recording)
        session = client.open_session(
            "loopback", version=V3, registry=registry,
            **dict(self.CRED, user="mallory"),
            **harness.loopback_session_kwargs(endpoint, clock))
        with pytest.raises(UsmProtocolError):
            client.get(session, "sysName.0")
        assert responder.auth_count == 0
        report = messages.decode_message(replies[-1])
        assert report.flags == 0
        assert [vb.arcs for vb in report.scoped_pdu.pdu.bindings] == \
            [messages.USM_STATS_UNKNOWN_USER_NAMES]

    def test_authnopriv(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        cred = usm.Credential.create("bob", ("md5", "bobsecret99"))
        responder = harness.ScriptedV3Responder(tree, ctx, cred)
        endpoint, channel, clock = harness.connect(responder)
        session = client.open_session(
            "loopback", version=V3, user="bob", auth=("md5", "bobsecret99"),
            registry=registry,
            **harness.loopback_session_kwargs(endpoint, clock))
        assert isinstance(client.get(session, "sysName.0"), ber.OctetString)


def _long_form_version(wire):
    """wire with msgVersion's length in the long form: 02 81 01 03."""
    _, used = ber.decode_tag(wire)
    _, more = ber.decode_length(wire, used)
    body = wire[used + more:]
    assert body[:3] == b"\x02\x01\x03"
    body = b"\x02\x81\x01\x03" + body[3:]
    return wire[:used] + ber.encode_length(len(body)) + body


class TestV3WirePath:
    """Replies are authenticated over the octets that arrived and checked
    against the engine clock; sessions share password-derived keys."""

    CRED = TestV3.CRED

    def _engine(self, loopback_agent, **clock):
        tree, ctx = loopback_agent
        return harness.ScriptedV3Responder(
            tree, ctx, usm.Credential.create(
                "alice", ("sha1", "authpass123"), ("des", "privpass123")),
            **clock)

    def _session(self, registry, responder):
        endpoint, channel, clock = harness.connect(responder)
        return client.open_session(
            "loopback", version=V3, registry=registry, **self.CRED,
            **harness.loopback_session_kwargs(endpoint, clock))

    def test_reply_with_long_form_length_verifies(self, registry,
                                                  loopback_agent):
        engine = self._engine(loopback_agent)

        def responder(data):
            reply = engine(data)
            mac = messages.decode_message(reply).usm.auth_params
            if not any(mac):
                return reply  # the discovery Report is not signed
            wire = bytearray(_long_form_version(reply))
            at = wire.index(mac)
            wire[at:at + 12] = bytes(12)
            wire[at:at + 12] = usm.sign(wire, engine.auth_key, usm.AUTH_SHA1)
            return bytes(wire)

        session = self._session(registry, responder)
        assert isinstance(client.get(session, "sysName.0"), ber.OctetString)
        assert engine.auth_count == 1

    @pytest.mark.parametrize("later", [
        {"engine_boots": 2}, {"engine_time": 1000 + 2 * usm.TIME_WINDOW}])
    def test_replayed_older_reply_is_rejected(self, registry, loopback_agent,
                                              later):
        engine = self._engine(loopback_agent)
        moved_on = self._engine(loopback_agent, **later)  # same engine id
        serving, replies, replay = [engine], [], []

        def responder(data):
            reply = replay.pop() if replay else serving[0](data)
            replies.append(reply)
            return reply

        session = self._session(registry, responder)
        client.get(session, "sysName.0")
        old = replies[-1]
        serving[0] = moved_on
        assert isinstance(client.get(session, "sysName.0"), ber.OctetString)
        clock = (session.engine.engine_boots, session.engine.engine_time)

        # the old reply answers a request that reuses its msgID
        session._request_id = messages.decode_message(old).msg_id - 1
        replay.append(old)
        with pytest.raises(AuthenticationError):
            client.get(session, "sysName.0")
        assert (session.engine.engine_boots,
                session.engine.engine_time) == clock
        # the moved-on engine resynchronised the session with one
        # authenticated notInTimeWindow Report
        assert clock == (moved_on.engine.engine_boots,
                         moved_on.engine.engine_time)
        assert moved_on.report_count == 1

    def test_sessions_sharing_a_credential_derive_keys_once(
            self, registry, loopback_agent, monkeypatch):
        calls = []
        real = usm.password_to_key

        def counting(passphrase, protocol):
            calls.append(protocol)
            return real(passphrase, protocol)

        monkeypatch.setattr(usm, "password_to_key", counting)
        usm._cached_key.cache_clear()
        engine = self._engine(loopback_agent)
        for _ in range(3):
            client.get(self._session(registry, engine), "sysName.0")
        assert calls == [usm.AUTH_SHA1, usm.AUTH_SHA1]  # auth and priv

    def test_reply_below_the_request_security_level_is_ignored(
            self, registry, loopback_agent):
        engine = self._engine(loopback_agent)
        forged = []

        def responder(data):
            msg = messages.decode_message(data)
            if not msg.flags & FLAG_AUTH or forged:
                return engine(data)
            # the first authenticated request gets a Response in clear
            forged.append(messages.encode_message(V3Message(
                msg.msg_id, 0, messages.UsmParams(engine.engine_id, 1, 1000),
                ScopedPdu(engine.engine_id, b"", Pdu(RESPONSE, 0, bindings=[
                    VarBind(ber.Oid(registry.resolve("sysName.0").arcs),
                            ber.OctetString(b"forged"))])))))
            return forged[0]

        endpoint, channel, clock = harness.connect(responder)
        session = client.open_session(
            "loopback", version=V3, registry=registry, **self.CRED,
            **harness.loopback_session_kwargs(endpoint, clock))
        value = client.get(session, "sysName.0")
        assert value != b"forged" and engine.auth_count == 1
        assert channel.client_sent == 3  # discovery, the get, its resend

    def test_reply_of_another_security_model_is_ignored(
            self, registry, loopback_agent):
        """A reply whose msgSecurityModel is not USM is skipped as any
        unmatched datagram is (RFC 3412 section 7.2, step 4), even one
        whose MAC verifies and whose msgID is the request's."""
        engine = self._engine(loopback_agent)
        forged = []

        def responder(data):
            msg = messages.decode_message(data)
            if not msg.flags & FLAG_AUTH or forged:
                return engine(data)
            state = engine.engine
            forged.append(usm.secure(V3Message(
                msg.msg_id, msg.flags & ~FLAG_REPORTABLE, messages.UsmParams(
                    engine.engine_id, state.engine_boots, state.engine_time,
                    b"alice"),
                ScopedPdu(engine.engine_id, b"", Pdu(RESPONSE, 0, bindings=[
                    VarBind(registry.resolve("sysName.0"),
                            ber.OctetString(b"forged"))])),
                msg_security_model=99), state))
            return forged[0]

        endpoint, channel, clock = harness.connect(responder)
        session = client.open_session(
            "loopback", version=V3, registry=registry, **self.CRED,
            **harness.loopback_session_kwargs(endpoint, clock))
        value = client.get(session, "sysName.0")
        assert forged and value != b"forged" and engine.auth_count == 1
        assert channel.client_sent == 3  # discovery, the get, its resend

    def test_engine_time_follows_the_session_clock(self, registry,
                                                   loopback_agent):
        engine = self._engine(loopback_agent)
        endpoint, channel, clock = harness.connect(engine)
        session = client.open_session(
            "loopback", version=V3, registry=registry, **self.CRED,
            **harness.loopback_session_kwargs(endpoint, clock))
        client.get(session, "sysName.0")
        sent = session.engine.current_time()
        clock.advance(1000)
        assert session.engine.current_time() == sent + 1000
        assert isinstance(client.get(session, "sysName.0"), ber.OctetString)
        # the responder took the request's engine time as authentic
        assert engine.engine.engine_time == sent + 1000
        assert engine.report_count == 1  # discovery only

    def test_authpriv_for_a_user_without_privacy_gets_reports(
            self, registry, loopback_agent):
        tree, ctx = loopback_agent
        engine = harness.ScriptedV3Responder(
            tree, ctx, usm.Credential.create("bob", ("md5", "bobsecret99")))
        endpoint, channel, clock = harness.connect(engine)
        session = client.open_session(
            "loopback", version=V3, user="bob", auth=("md5", "bobsecret99"),
            priv=("des", "bobprivacy99"), registry=registry,
            **harness.loopback_session_kwargs(endpoint, clock))
        with pytest.raises(UsmProtocolError):
            client.get(session, "sysName.0")
        # discovery, then a usmStatsUnsupportedSecLevels Report for the
        # request and for its one resend
        assert (engine.report_count, engine.auth_count) == (3, 0)
        assert channel.client_sent == channel.agent_sent == 3

    def test_refused_security_level_leaves_the_engine_clock(
            self, registry, loopback_agent):
        # RFC 3414 section 3.2: the level (step 5) is checked before
        # authentication and timeliness (steps 6-7)
        tree, ctx = loopback_agent
        engine = harness.ScriptedV3Responder(
            tree, ctx, usm.Credential.create("bob", ("md5", "bobsecret99")))
        endpoint, channel, clock = harness.connect(engine)
        session = client.open_session(
            "loopback", version=V3, user="bob", auth=("md5", "bobsecret99"),
            priv=("des", "bobprivacy99"), registry=registry,
            **harness.loopback_session_kwargs(endpoint, clock))
        with pytest.raises(UsmProtocolError):
            client.get(session, "sysName.0")  # discovers the engine
        clock.advance(100)
        with pytest.raises(UsmProtocolError):
            client.get(session, "sysName.0")
        assert engine.engine.engine_time == 1000

    def test_request_below_the_user_security_level_gets_a_report(
            self, registry, loopback_agent):
        engine = self._engine(loopback_agent)
        name = ber.Oid(registry.resolve("sysName.0").arcs)
        request = V3Message(
            7, FLAG_REPORTABLE,
            messages.UsmParams(engine.engine_id, 1, 1000, b"alice"),
            ScopedPdu(engine.engine_id, b"",
                      Pdu(GET_REQUEST, 8, bindings=[VarBind(name)])))
        reply = messages.decode_message(
            engine(messages.encode_message(request)))
        pdu = reply.scoped_pdu.pdu
        assert (reply.msg_id, reply.flags, pdu.pdu_type, pdu.request_id) == \
            (7, 0, REPORT, 8)
        assert [vb.arcs for vb in pdu.bindings] == \
            [messages.USM_STATS_UNSUPPORTED_SEC_LEVELS]
        assert engine.auth_count == 0

    def test_reports_follow_the_rfc_3414_order(self, registry,
                                               loopback_agent):
        # each request fails two of the checks of RFC 3414 section 3.2,
        # steps 3-7, and gets the Report of the earlier one
        engine = self._engine(loopback_agent)
        name = ber.Oid(registry.resolve("sysName.0").arcs)
        auth, priv = FLAG_AUTH, FLAG_AUTH | FLAG_PRIV
        cases = [  # (engine id, user, flags, boots): the Report's OID
            ((b"\x80other", b"mallory", 0, 1),
             messages.USM_STATS_UNKNOWN_ENGINE_IDS),
            ((engine.engine_id, b"mallory", 0, 1),
             messages.USM_STATS_UNKNOWN_USER_NAMES),
            ((engine.engine_id, b"alice", auth, 1),  # with a zero MAC
             messages.USM_STATS_UNSUPPORTED_SEC_LEVELS),
            ((engine.engine_id, b"alice", priv, 0),  # and an earlier boot
             messages.USM_STATS_WRONG_DIGESTS),
        ]
        for (engine_id, user, flags, boots), stats in cases:
            request = V3Message(
                7, flags | FLAG_REPORTABLE,
                messages.UsmParams(engine_id, boots, 1000, user,
                                   bytes(12) if flags else b"",
                                   bytes(8) if flags & FLAG_PRIV else b""),
                ScopedPdu(engine_id, b"",
                          Pdu(GET_REQUEST, 8, bindings=[VarBind(name)])))
            if flags & FLAG_PRIV:
                request.encrypted_pdu = bytes(16)
            reply = messages.decode_message(
                engine(messages.encode_message(request)))
            assert [vb.arcs for vb in reply.scoped_pdu.pdu.bindings] == \
                [stats]
        assert (engine.report_count, engine.auth_count) == (4, 0)
        assert engine.engine.engine_time == 1000


class TestReports:
    """A v3 Report is met by its first name: an unknownEngineIDs Report by
    adopting the engine it names, any other by one resend; a second Report
    to the same request raises (RFC 3414 section 4)."""

    def _engines(self, loopback_agent, *options):
        tree, ctx = loopback_agent
        cred = usm.Credential.create(**TestV3.CRED)
        return [harness.ScriptedV3Responder(tree, ctx, cred, **option)
                for option in options]

    def _session(self, registry, serving):
        """A session that has made one get from serving[0], and the
        channel; later datagrams go to whatever serving[0] then is."""
        endpoint, channel, clock = harness.connect(
            lambda data: serving[0](data))
        session = client.open_session(
            "loopback", version=V3, registry=registry, **TestV3.CRED,
            **harness.loopback_session_kwargs(endpoint, clock))
        client.get(session, "sysName.0")
        return session, channel

    def test_a_replaced_engine_is_discovered_again(self, registry,
                                                   loopback_agent):
        old, new = self._engines(
            loopback_agent, {}, {"engine_id": b"\x80\x00\x13\x70\x05new"})
        serving = [old]
        session, channel = self._session(registry, serving)
        serving[0] = new
        before = session.exchanges
        assert isinstance(client.get(session, "sysName.0"), ber.OctetString)
        # an unknownEngineIDs Report naming the new engine, then the resend
        assert session.exchanges - before == 2
        assert session.engine.engine_id == new.engine_id
        assert session.engine.priv_key == new.priv_key
        assert (new.report_count, new.auth_count) == (1, 1)
        client.get(session, "sysName.0")
        assert session.exchanges - before == 3
        assert channel.client_sent == channel.agent_sent == session.exchanges

    def test_an_engine_unknown_after_discovery_raises(self, registry,
                                                      loopback_agent):
        old, new, other = self._engines(
            loopback_agent, {}, {"engine_id": b"\x80\x00\x13\x70\x05new"},
            {"engine_id": b"\x80\x00\x13\x70\x05other"})
        serving = [old]
        session, channel = self._session(registry, serving)

        def inconsistent(data):
            # each Report names an engine other than the one asked for
            asked = messages.decode_message(data).usm.engine_id
            return (other if asked == new.engine_id else new)(data)

        serving[0] = inconsistent
        before, sent = session.exchanges, channel.client_sent
        with pytest.raises(UsmProtocolError):
            client.get(session, "sysName.0")
        # an unknownEngineIDs Report, the resend, a second Report: no loop
        assert session.exchanges - before == 2
        assert channel.client_sent - sent == 2
        assert (new.report_count, other.report_count) == (1, 1)

    def test_a_report_naming_no_engine_raises(self, registry,
                                              loopback_agent):
        old, new = self._engines(
            loopback_agent, {}, {"engine_id": b"\x80\x00\x13\x70\x05new"})
        serving = [old]
        session, _ = self._session(registry, serving)

        def anonymous(data):
            # new's unknownEngineIDs Report, its engine id taken out
            report = messages.decode_message(new(data))
            report.usm.engine_id = b""
            return messages.encode_message(report)

        serving[0] = anonymous
        before = session.exchanges
        with pytest.raises(UsmProtocolError, match="no engine id"):
            client.get(session, "sysName.0")
        assert session.exchanges - before == 1
        assert session.engine.engine_id == old.engine_id

    def test_a_rebooted_engine_is_resent_to_once(self, registry,
                                                 loopback_agent):
        old, rebooted = self._engines(loopback_agent, {}, {"engine_boots": 2})
        serving = [old]
        session, _ = self._session(registry, serving)
        serving[0] = rebooted
        before = session.exchanges
        assert isinstance(client.get(session, "sysName.0"), ber.OctetString)
        # an authenticated notInTimeWindows Report, then the resend
        assert session.exchanges - before == 2
        assert (rebooted.report_count, rebooted.auth_count) == (1, 1)
        assert session.engine.engine_boots == 2
