"""The benchmark's three workloads, each a closed loop of one client session.

Every workload runs in one process on one thread over the loopback
harness (``FakeChannel`` and ``VirtualClock``), so no socket is opened and
exchange counts are exact.  The seed sets the table contents, the values
asked for and the loss pattern.  ``op(i)`` performs one operation and
returns the names of the correctness checks it failed (an empty list when
every check passed).
"""

from __future__ import annotations

import random

from snmpkit import agent, ber, cli, client, harness, mibs, oids, smi, usm
from snmpkit.messages import V2C, V3

POLL_ROWS = 32
POLL_LOSS = 0.01
WALK_ROWS = 1000
V3_RESPONDERS = 4
V3_GETS = 10
WRITABLE_BASE = "1.3.6.1.4.1.31609.9"
SYSTEM_SCALARS = ("sysDescr", "sysObjectID", "sysUpTime", "sysContact",
                  "sysName", "sysLocation")


class CountingEndpoint(harness.LoopbackEndpoint):
    """Loopback endpoint that also counts datagram bytes in both directions.

    Requests are counted when the client sends them, so dropped requests
    and retransmissions add to the count; every reply the agent sends is
    received, because the channel drops requests only.
    """

    def __init__(self, channel):
        super().__init__(channel)
        self.wire_bytes = 0

    def send(self, payload):
        self.wire_bytes += len(payload)
        super().send(payload)

    def receive(self, timeout):
        data = super().receive(timeout)
        if data is not None:
            self.wire_bytes += len(data)
        return data


def _same(got, want):
    return type(got) is type(want) and got == want


class _Checks:
    """Collects the names of failed checks for one operation."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.failed = []

    def expect(self, name, ok):
        if not ok:
            self.failed.append(f"{self.prefix}.{name}")


def _seeded_if_rows(rng, count):
    """ifTable rows with every one of the 22 columns filled from rng."""
    rows = []
    for k in range(1, count + 1):
        rows.append({
            "ifIndex": k,
            "ifDescr": ber.OctetString(b"if-%06d" % rng.randrange(10 ** 6)),
            "ifType": rng.choice((6, 24, 53, 131)),
            "ifMtu": rng.choice((1500, 9000, 65536)),
            "ifSpeed": ber.Gauge32(rng.choice((10 ** 7, 10 ** 8, 10 ** 9))),
            "ifPhysAddress": ber.OctetString(rng.randbytes(6)),
            "ifAdminStatus": rng.choice((1, 2)),
            "ifOperStatus": rng.choice((1, 2, 7)),
            "ifLastChange": ber.TimeTicks(rng.randrange(2 ** 31)),
            "ifInOctets": ber.Counter32(rng.randrange(2 ** 31, 2 ** 32)),
            "ifInUcastPkts": ber.Counter32(rng.randrange(2 ** 31, 2 ** 32)),
            "ifInNUcastPkts": ber.Counter32(rng.randrange(2 ** 31, 2 ** 32)),
            "ifInDiscards": ber.Counter32(rng.randrange(2 ** 16)),
            "ifInErrors": ber.Counter32(rng.randrange(2 ** 16)),
            "ifInUnknownProtos": ber.Counter32(rng.randrange(2 ** 16)),
            "ifOutOctets": ber.Counter32(rng.randrange(2 ** 31, 2 ** 32)),
            "ifOutUcastPkts": ber.Counter32(rng.randrange(2 ** 31, 2 ** 32)),
            "ifOutNUcastPkts": ber.Counter32(rng.randrange(2 ** 31, 2 ** 32)),
            "ifOutDiscards": ber.Counter32(rng.randrange(2 ** 16)),
            "ifOutErrors": ber.Counter32(rng.randrange(2 ** 16)),
            "ifOutQLen": ber.Gauge32(rng.randrange(2 ** 8)),
            "ifSpecific": ber.Oid((0, 0)),
        })
    return rows


def _seeded_context(registry, rng):
    ctx = agent.AgentContext(registry=registry)
    ctx.name = "node-%08d" % rng.randrange(10 ** 8)
    ctx.contact = "noc-%08d@example.net" % rng.randrange(10 ** 8)
    ctx.location = "rack-%04d" % rng.randrange(10 ** 4)
    return ctx


def _writable_scalar(initial):
    """A read-write scalar handler (instance .0) holding one value."""
    state = [initial]

    def handler(ctx, ids, *new_value):
        if not ids:
            return 0
        if tuple(ids) != (0,):
            return None
        if new_value:
            state[0] = new_value[0]
        return state[0]

    return handler


class PollTree:
    """The canonical agent: system group, enterprise MIB, a seeded ifTable
    of POLL_ROWS rows and a writable scalar under the enterprise arc."""

    def __init__(self, registry, rng):
        self.registry = registry
        self.ctx = _seeded_context(registry, rng)
        self.tree = agent.DispatchTree()
        agent.install_system_group(self.tree, self.ctx)
        agent.install_enterprise_mib(self.tree, self.ctx)
        self.rows = _seeded_if_rows(rng, POLL_ROWS)
        agent.install_if_table(self.tree, registry, self.rows)
        self.writable = registry.resolve(WRITABLE_BASE)
        self.writable_initial = ber.OctetString(
            b"init-%08d" % rng.randrange(10 ** 8))
        agent.register_variable(self.tree, self.writable,
                                _writable_scalar(self.writable_initial),
                                writable=True)
        self.sys_object_id = ber.Oid(registry.resolve("appAgent").arcs)

    def system_expected(self):
        """Expected values of the system scalars that do not move."""
        return {
            "sysObjectID": self.sys_object_id,
            "sysContact": ber.OctetString(self.ctx.contact.encode()),
            "sysName": ber.OctetString(self.ctx.name.encode()),
            "sysLocation": ber.OctetString(self.ctx.location.encode()),
        }

    def descr_ok(self, value):
        return isinstance(value, ber.OctetString) and \
            value.endswith(b" on " + self.ctx.name.encode())


def _registry():
    return mibs.load_core(oids.Registry())


class Poll:
    """A v2c manager's polling cycle against the canonical agent, 1% loss."""

    name = "poll"
    exchanges_per_op = 5 + POLL_ROWS + 2

    def __init__(self, seed):
        rng = random.Random(f"poll/{seed}")
        self.registry = _registry()
        self.agent = PollTree(self.registry, rng)
        self.channel = harness.FakeChannel(
            harness.agent_responder(self.agent.tree, self.agent.ctx),
            harness.VirtualClock(), loss_probability=POLL_LOSS,
            seed=rng.randrange(2 ** 32))
        self.endpoint = CountingEndpoint(self.channel)
        self.session = client.open_session(
            "loopback", version=V2C, community="public",
            registry=self.registry,
            **harness.loopback_session_kwargs(self.endpoint,
                                              self.channel.clock))
        self.rng = random.Random(rng.randrange(2 ** 32))
        self.descr_ref = self.registry.resolve("sysDescr.0")
        self.columns = [name for name, _ in
                        smi.table_schema(self.registry, "ifTable")[2].columns]

    def op(self, i):
        session, agent_ = self.session, self.agent
        check = _Checks(self.name)
        expected = agent_.system_expected()
        start = self.channel.exchanges

        check.expect("sysDescr", agent_.descr_ok(client.get(session, "sysDescr.0")))

        five = client.get(session, [
            "sysName.0",
            "SNMPv2-MIB::sysContact.0",
            "1.3.6.1.2.1.1.6.0",
            (1, 3, 6, 1, 2, 1, 1, 2, 0),
            self.descr_ref,
        ])
        check.expect("five_spellings", len(five) == 5
                     and _same(five[0], expected["sysName"])
                     and _same(five[1], expected["sysContact"])
                     and _same(five[2], expected["sysLocation"])
                     and _same(five[3], expected["sysObjectID"])
                     and agent_.descr_ok(five[4]))

        picks = self.rng.sample(range(1, POLL_ROWS + 1), 8)
        octets = client.get(session, [f"ifInOctets.{k}" for k in picks])
        check.expect("ifInOctets", len(octets) == 8 and all(
            _same(v, agent_.rows[k - 1]["ifInOctets"])
            for k, v in zip(picks, octets)))

        value = ber.OctetString(b"set-%08d" % self.rng.randrange(10 ** 8))
        instance = WRITABLE_BASE + ".0"
        echoed = client.set_values(session, [(instance, value)])
        check.expect("set_echo", len(echoed) == 1 and _same(echoed[0][1], value))
        check.expect("set_readback", _same(client.get(session, instance), value))

        before = self.channel.exchanges
        rows = client.select("ifTable", session)
        check.expect("select_exchanges",
                     self.channel.exchanges - before == POLL_ROWS + 2)
        check.expect("select_rows", [r.index for r in rows]
                     == [(k,) for k in range(1, POLL_ROWS + 1)])
        check.expect("select_cells", all(
            [ref.node.name for ref, _ in row.cells] == self.columns
            and all(_same(v, want[ref.node.name]) for ref, v in row.cells)
            for row, want in zip(rows, agent_.rows)))

        check.expect("exchanges", self.channel.exchanges - start
                     == self.exchanges_per_op)
        return check.failed

    def exchanges(self):
        return self.channel.exchanges

    def wire_bytes(self):
        return self.endpoint.wire_bytes


class BulkWalk:
    """A v2c walk of one 1,000-row column, rendered as ``snmpkit walk`` does."""

    name = "bulkwalk"
    exchanges_per_op = -(-WALK_ROWS // client.WALK_BULK_REPETITIONS) + 1

    def __init__(self, seed):
        rng = random.Random(f"bulkwalk/{seed}")
        self.registry = _registry()
        self.ctx = _seeded_context(self.registry, rng)
        self.tree = agent.DispatchTree()
        agent.install_system_group(self.tree, self.ctx)
        self.descr = [ber.OctetString(b"port-%06d" % rng.randrange(10 ** 6))
                      for _ in range(WALK_ROWS)]

        def if_index(ctx, ids):
            if not ids:
                return WALK_ROWS
            if len(ids) == 1 and 1 <= ids[0] <= WALK_ROWS:
                return ids[0]
            return None

        def if_descr(ctx, ids):
            if not ids:
                return WALK_ROWS
            if len(ids) == 1 and 1 <= ids[0] <= WALK_ROWS:
                return self.descr[ids[0] - 1]
            return None

        agent.define_table_column(self.tree, self.registry, "ifIndex", if_index)
        agent.define_table_column(self.tree, self.registry, "ifDescr", if_descr)
        column = tuple(self.registry.resolve("ifDescr").arcs)
        self.expected_arcs = [column + (k,) for k in range(1, WALK_ROWS + 1)]
        self.expected_lines = [
            f"IF-MIB::ifDescr.{k} = STRING: {d.decode()}"
            for k, d in enumerate(self.descr, start=1)]
        self.channel = harness.FakeChannel(
            harness.agent_responder(self.tree, self.ctx), harness.VirtualClock())
        self.endpoint = CountingEndpoint(self.channel)
        self.session = client.open_session(
            "loopback", version=V2C, community="public",
            registry=self.registry,
            **harness.loopback_session_kwargs(self.endpoint,
                                              self.channel.clock))

    def op(self, i):
        check = _Checks(self.name)
        start = self.channel.exchanges
        pairs = client.walk(self.session, "ifDescr")
        lines = [cli.format_binding(ref, value, self.registry)
                 for ref, value in pairs]
        check.expect("walk_oids",
                     [tuple(ref.arcs) for ref, _ in pairs] == self.expected_arcs)
        check.expect("walk_values",
                     all(_same(v, d) for (_, v), d in zip(pairs, self.descr)))
        check.expect("rendered", lines == self.expected_lines)
        check.expect("exchanges", self.channel.exchanges - start
                     == self.exchanges_per_op)
        return check.failed

    def exchanges(self):
        return self.channel.exchanges

    def wire_bytes(self):
        return self.endpoint.wire_bytes


class V3AuthPriv:
    """SHA-1 + DES sessions, one per op, cycling over four engines that
    share one user and credential: discovery, V3_GETS gets, one walk."""

    name = "v3_authpriv"
    exchanges_per_op = 1 + V3_GETS + 1

    def __init__(self, seed):
        rng = random.Random(f"v3_authpriv/{seed}")
        self.registry = _registry()
        self.agent = PollTree(self.registry, rng)
        self.user = "poller-%04d" % rng.randrange(10 ** 4)
        self.auth = ("sha1", "auth-%012d" % rng.randrange(10 ** 12))
        self.priv = ("des", "priv-%012d" % rng.randrange(10 ** 12))
        credential = usm.Credential.create(self.user, self.auth, self.priv)
        self.responders = [
            harness.ScriptedV3Responder(
                self.agent.tree, self.agent.ctx, credential,
                engine_id=b"\x80\x00\x13\x70\x05" + b"bench-%d-%08d" % (
                    k, rng.randrange(10 ** 8)))
            for k in range(V3_RESPONDERS)]
        expected = self.agent.system_expected()
        self.pool = [(f"{name}.0", value) for name, value in expected.items()]
        self.pool.append((WRITABLE_BASE + ".0", self.agent.writable_initial))
        for k, row in enumerate(self.agent.rows, start=1):
            self.pool += [(f"ifDescr.{k}", row["ifDescr"]),
                          (f"ifInOctets.{k}", row["ifInOctets"])]
        self.system_arcs = [tuple(self.registry.resolve(f"{n}.0").arcs)
                            for n in SYSTEM_SCALARS]
        self.rng = random.Random(rng.randrange(2 ** 32))
        self._exchanges = 0
        self._wire_bytes = 0

    def op(self, i):
        check = _Checks(self.name)
        responder = self.responders[i % V3_RESPONDERS]
        reports = responder.report_count
        channel = harness.FakeChannel(responder, harness.VirtualClock())
        endpoint = CountingEndpoint(channel)
        session = client.open_session(
            "loopback", version=V3, user=self.user, auth=self.auth,
            priv=self.priv, registry=self.registry,
            **harness.loopback_session_kwargs(endpoint, channel.clock))
        try:
            picks = self.rng.sample(self.pool, V3_GETS)
            values = [client.get(session, spec) for spec, _ in picks]
            check.expect("gets", all(_same(got, want) for got, (_, want)
                                     in zip(values, picks)))
            pairs = client.walk(session, "system")
        finally:
            client.close_session(session)
            self._exchanges += channel.exchanges
            self._wire_bytes += endpoint.wire_bytes
        expected = self.agent.system_expected()
        check.expect("walk_oids",
                     [tuple(ref.arcs) for ref, _ in pairs] == self.system_arcs)
        check.expect("walk_values", len(pairs) == len(SYSTEM_SCALARS)
                     and self.agent.descr_ok(pairs[0][1])
                     and all(_same(v, expected[n]) for n, (_, v)
                             in zip(SYSTEM_SCALARS, pairs) if n in expected))
        check.expect("one_report", responder.report_count - reports == 1)
        check.expect("exchanges", channel.exchanges == self.exchanges_per_op)
        return check.failed

    def exchanges(self):
        return self._exchanges

    def wire_bytes(self):
        return self._wire_bytes


WORKLOADS = {w.name: w for w in (Poll, BulkWalk, V3AuthPriv)}
