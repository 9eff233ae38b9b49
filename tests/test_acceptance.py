"""End-to-end acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.
"""

import hashlib
import random
import re
import socket
import time

import pytest

from conftest import enumerate_instances
from snmpkit import agent, ber, cli, client, harness, messages, smi, transport, usm
from snmpkit.messages import (
    CommunityMessage, Pdu, ScopedPdu, TrapV1Pdu, UsmParams, V3Message,
    VarBind, V1, V2C, V3, FLAG_REPORTABLE, TRAP_V1,
)
from snmpkit.mibs import CORE_MODULES, compile_bundled, load_core
from snmpkit.oids import Registry, name_list, number_list


def _fresh_registry():
    return load_core(Registry())


def _demo_agent(registry):
    ctx = agent.AgentContext(registry=registry)
    tree = agent.DispatchTree()
    agent.install_system_group(tree, ctx)
    agent.install_enterprise_mib(tree, ctx)
    agent.install_if_table(tree, registry, agent.demo_if_rows())
    return tree, ctx


def _loopback_session(registry, tree, ctx, **kwargs):
    endpoint, channel, clock = harness.connect(
        harness.agent_responder(tree, ctx))
    session = client.open_session(
        "loopback", registry=registry,
        **harness.loopback_session_kwargs(endpoint, clock), **kwargs)
    return session, channel


def test_criterion_01_ber_golden_vectors():
    assert ber.encode(10000) == bytes([2, 2, 39, 16])
    nested = [[100, "abc", ber.NULL]]
    expected = bytes([48, 12, 48, 10, 2, 1, 100, 4, 3, 97, 98, 99, 5, 0])
    assert ber.encode(nested) == expected
    assert ber.decode(bytes([2, 2, 39, 16]))[0] == 10000
    decoded, consumed = ber.decode(expected)
    assert decoded == [[100, b"abc", ber.NULL]] and consumed == len(expected)


def test_criterion_02_oid_resolution_matrix():
    registry = _fresh_registry()
    target = (1, 3, 6, 1, 2, 1, 1, 1, 0)
    sysdescr = registry.resolve("sysDescr")
    forms = [
        "sysDescr.0",
        "SNMPv2-MIB::sysDescr.0",
        "system.sysDescr.0",
        "1.3.6.1.2.1.1.1.0",
        ".1.3.6.1.2.1.1.1.0",
        "0.1.3.6.1.2.1.1.1.0",
        (1, 3, 6, 1, 2, 1, 1, 1, 0),
        [1, 3, 6, 1, 2, 1, 1, 1, 0],
        [sysdescr, 0],
        [sysdescr.node, 0],
    ]
    assert len(forms) == 10
    for form in forms:
        assert number_list(registry.resolve(form)) == target, form
    assert tuple(name_list(registry.resolve("system"))) == (
        "iso", "org", "dod", "internet", "mgmt", "mib-2", "system")


def test_criterion_03_mib_corpus():
    registry = _fresh_registry()
    for name in CORE_MODULES:
        module = compile_bundled(name)
        first = smi.emit_bytes(module)
        second = smi.emit_bytes(smi.read_compiled(first))
        assert first == second, f"emit of {name} not idempotent"
        smi.load_records(Registry(), smi.read_compiled(first)) \
            if name == "SNMPv2-SMI" else None
    assert number_list(registry.resolve("app")) == (1, 3, 6, 1, 4, 1, 31609)
    _, _, schema = smi.table_schema(registry, "ifTable")
    assert len(schema.columns) == 22
    assert schema.column_names()[1] == "ifDescr"
    assert number_list(registry.resolve("ifDescr"))[-1] == 2


def _random_message(rng):
    def arcs():
        head = (rng.randint(0, 2), rng.randint(0, 39))
        return head + tuple(rng.randint(0, 2 ** 31)
                            for _ in range(rng.randint(1, 5)))

    def value():
        pick = rng.randrange(8)
        if pick == 0:
            return ber.NULL
        if pick == 1:
            return rng.randint(-2 ** 31, 2 ** 31 - 1)
        if pick == 2:
            return ber.OctetString(rng.randbytes(rng.randint(0, 24)))
        if pick == 3:
            return ber.Counter32(rng.randint(0, 2 ** 32 - 1))
        if pick == 4:
            return ber.TimeTicks(rng.randint(0, 2 ** 32 - 1))
        if pick == 5:
            return ber.Counter64(rng.randint(0, 2 ** 64 - 1))
        if pick == 6:
            return ber.IpAddress(rng.randbytes(4))
        return ber.Oid(arcs())

    def bindings(allow_markers):
        out = []
        for _ in range(rng.randint(0, 4)):
            if allow_markers and rng.random() < 0.1:
                out.append(VarBind(ber.Oid(arcs()),
                                   rng.choice(ber.EXCEPTION_MARKERS)))
            else:
                out.append(VarBind(ber.Oid(arcs()), value()))
        return out

    version = rng.choice([V1, V2C, V3])
    kind = rng.randrange(9)
    if version == V1 and kind not in (0, 1, 2, 3, 4):
        kind = rng.choice([0, 1, 2, 3, 4])
    if version != V1 and kind == TRAP_V1:
        kind = 7
    if kind == TRAP_V1:
        pdu = TrapV1Pdu(ber.Oid(arcs()), ber.IpAddress(rng.randbytes(4)),
                        rng.randint(0, 6), rng.randint(0, 2 ** 16),
                        rng.randint(0, 2 ** 32 - 1), bindings(False))
    else:
        pdu = Pdu(kind, rng.randint(-2 ** 31, 2 ** 31 - 1),
                  rng.randint(0, 18), rng.randint(0, 2 ** 15),
                  bindings(version != V1))
    if version == V3:
        usm_params = UsmParams(rng.randbytes(rng.randint(0, 16)),
                               rng.randint(0, 2 ** 31 - 1),
                               rng.randint(0, 2 ** 31 - 1),
                               rng.randbytes(rng.randint(0, 12)))
        return V3Message(rng.randint(0, 2 ** 31 - 1), FLAG_REPORTABLE,
                         usm_params,
                         ScopedPdu(rng.randbytes(8), rng.randbytes(4), pdu))
    return CommunityMessage(version, rng.randbytes(rng.randint(0, 12)), pdu)


def test_criterion_04_codec_round_trip():
    rng = random.Random(20260824)
    start = time.monotonic()
    kinds_seen = set()
    for _ in range(10_000):
        msg = _random_message(rng)
        wire = messages.encode_message(msg)
        decoded = messages.decode_message(wire)
        assert messages.encode_message(decoded) == wire
        if isinstance(msg, CommunityMessage):
            assert decoded.version == msg.version
            assert decoded.community == msg.community
            kinds_seen.add(decoded.pdu.pdu_type)
        else:
            assert decoded.msg_id == msg.msg_id
            assert decoded.usm == msg.usm
            kinds_seen.add(decoded.scoped_pdu.pdu.pdu_type)
    assert kinds_seen == set(range(9))
    for _ in range(1_000):
        number = rng.choice([n for n in range(1, 64)
                             if n not in (1, 2, 4, 5, 6, 16, 17)])
        payload = rng.randbytes(rng.randint(0, 40))
        data = ber.encode_tag(ber.Tag(ber.PRIVATE, False, number)) + \
            ber.encode_length(len(payload)) + payload
        decoded, _ = ber.decode(data)
        assert isinstance(decoded, ber.Raw)
        assert ber.encode(decoded) == data
    assert time.monotonic() - start < 30


def test_criterion_05_usm_key_oracle():
    engine_id = bytes.fromhex("000000000000000000000002")
    # independent oracle: plain hashlib over the 1 MiB cyclic passphrase
    repeated = (b"maplesyrup" * (1024 * 1024 // 10 + 1))[:1024 * 1024]
    md5_ku = hashlib.md5(repeated).digest()
    sha_ku = hashlib.sha1(repeated).digest()
    assert md5_ku == bytes.fromhex("9faf3283884e92834ebc9847d8edd963")
    assert sha_ku == bytes.fromhex(
        "9fb5cc0381497b3793528939ff788d5d79145211")
    assert usm.password_to_key("maplesyrup", usm.AUTH_MD5) == md5_ku
    assert usm.password_to_key("maplesyrup", usm.AUTH_SHA1) == sha_ku
    assert usm.localize_key(md5_ku, engine_id, usm.AUTH_MD5) == \
        bytes.fromhex("526f5eed9fcce26f8964c2930787d82b")
    assert usm.localize_key(sha_ku, engine_id, usm.AUTH_SHA1) == \
        bytes.fromhex("6695febc9288e36282235fc7151f128497b38f3f")

    rng = random.Random(5)
    auth_key = usm.localize_key(md5_ku, engine_id, usm.AUTH_MD5)
    for _ in range(1_000):
        message = rng.randbytes(rng.randint(0, 120))
        proto = rng.choice([usm.AUTH_MD5, usm.AUTH_SHA1])
        mac = usm.sign(message, auth_key, proto)
        assert usm.verify(message, auth_key, proto, mac)
        plaintext = rng.randbytes(rng.randint(1, 120))
        ct, pp = usm.encrypt_scoped_pdu(plaintext, auth_key,
                                        rng.randint(0, 2 ** 31),
                                        salt=rng.randint(0, 2 ** 32 - 1))
        assert usm.decrypt_scoped_pdu(ct, auth_key, pp)[:len(plaintext)] == \
            plaintext


def test_criterion_06_v3_discovery_flow():
    registry = _fresh_registry()
    tree, ctx = _demo_agent(registry)
    cred = usm.Credential.create("alice", ("sha1", "authpass123"),
                                 ("des", "privpass123"))
    responder = harness.ScriptedV3Responder(tree, ctx, cred)
    endpoint, channel, clock = harness.connect(responder)
    session = client.open_session(
        "loopback", version=V3, user="alice", auth=("sha1", "authpass123"),
        priv=("des", "privpass123"), registry=registry,
        **harness.loopback_session_kwargs(endpoint, clock))
    client.get(session, "sysDescr.0")
    assert responder.report_count == 1, "first get must do one Report exchange"
    assert responder.auth_count == 1, "then exactly one authenticated exchange"
    assert channel.exchanges == 2
    client.get(session, "sysDescr.0")
    assert responder.report_count == 1
    assert responder.auth_count == 2
    assert channel.exchanges == 3, "second get is a single exchange"


def test_criterion_07_retransmission():
    # drop-first: identical bytes resent, then success, no RTT sample
    clock = harness.VirtualClock()
    sent = []

    def responder(data):
        sent.append(bytes(data))
        return b"ok" + data

    channel = harness.FakeChannel(responder, clock, drop_requests={1})
    raw_sends = []
    original = channel.send

    def spy(data):
        raw_sends.append(bytes(data))
        original(data)

    channel.send = spy
    endpoint = harness.LoopbackEndpoint(channel)
    est = transport.RttEstimator(rto_min=2.0, rto_max=60.0, max_retries=5)
    reply = transport.exchange(endpoint, b"payload", est, lambda d: True,
                               clock=clock)
    assert reply == b"okpayload"
    assert raw_sends == [b"payload", b"payload"], "retransmit identical bytes"
    assert est.srtt is None, "Karn's rule: no sample after a retransmission"

    # total loss: fail after max retries, total wait = sum of clamped rtos
    clock2 = harness.VirtualClock()
    channel2 = harness.FakeChannel(lambda d: None, clock2,
                                   loss_probability=1.0)
    endpoint2 = harness.LoopbackEndpoint(channel2)
    est2 = transport.RttEstimator(rto_min=2.0, rto_max=60.0, max_retries=5)
    start = clock2()
    with pytest.raises(transport.ExchangeTimeout) as exc:
        transport.exchange(endpoint2, b"x", est2, lambda d: True,
                           clock=clock2)
    assert exc.value.attempts == 6
    rtos = []
    rto = 2.0
    for _ in range(6):
        rtos.append(rto)
        rto = min(rto * 2, 60.0)
    assert all(2.0 <= r <= 60.0 for r in rtos)
    assert clock2() - start == pytest.approx(sum(rtos))


def test_criterion_08_loopback_integration():
    registry = _fresh_registry()
    ctx = agent.AgentContext(8161, "127.0.0.1", "public", registry)
    tree = agent.DispatchTree()
    agent.install_system_group(tree, ctx)
    agent.install_enterprise_mib(tree, ctx)
    handle = agent.ServiceHandle(tree, ctx)
    try:
        session = client.open_session("127.0.0.1", port=8161,
                                      registry=registry,
                                      rto_min=2.0, rto_max=5.0)
        try:
            descr = client.get(session, "sysDescr.0")
            import platform
            assert descr.text().startswith(platform.python_implementation())
            pairs = client.walk(session, "system")
            suffixes = [p[0].arcs[-2:] for p in pairs]
            assert suffixes == [(1, 0), (2, 0), (3, 0),
                                (4, 0), (5, 0), (6, 0)], \
                "walk must list sysDescr.0 .. sysLocation.0 in order"
            arcs = [p[0].arcs for p in pairs]
            assert arcs == sorted(arcs)
        finally:
            client.close_session(session)
    finally:
        handle.stop()


def test_criterion_09_table_select_efficiency():
    registry = _fresh_registry()
    tree, ctx = _demo_agent(registry)

    # efficient path: select through harness counters
    session, channel = _loopback_session(registry, tree, ctx)
    rows = client.select("ifTable", session)
    select_exchanges = channel.exchanges
    select_packets = channel.total_packets
    assert len(rows) == 2
    assert select_exchanges <= 4
    assert select_packets == 2 * select_exchanges

    # naive path: per-column get-next touching each of the 22 columns
    session2, channel2 = _loopback_session(registry, tree, ctx)
    _, entry, _ = smi.table_schema(registry, "ifTable")
    naive = []
    for arc in range(1, 23):
        column = tuple(entry.arcs) + (arc,)
        pairs = client.get_next(session2, [ber.Oid(column),
                                           ber.Oid(column + (1,))])
        naive.extend(pairs)
    assert channel2.exchanges == 22
    assert channel2.total_packets == 44

    def key(arcs, value):
        rendered = bytes(value) if isinstance(value, bytes) else \
            value.arcs if isinstance(value, ber.Oid) else value
        return (tuple(arcs), rendered)

    from_select = sorted(key(tuple(ref.arcs) + row.index, v)
                         for row in rows for ref, v in row.cells)
    from_naive = sorted(key(ref.arcs, v) for ref, v in naive)
    assert from_select == from_naive, "both strategies fetch the same cells"


def test_criterion_10_getnext_totality():
    registry = _fresh_registry()
    base = registry.resolve("sysORLastChange")  # any spare column-ish node

    def make_agent(spelling):
        ctx = agent.AgentContext(registry=registry)
        tree = agent.DispatchTree()
        agent.install_system_group(tree, ctx)
        agent.install_enterprise_mib(tree, ctx)

        def column(ctx_, ids):
            if not ids:
                return spelling
            if len(ids) == 1 and 1 <= ids[0] <= 9:
                return ber.TimeTicks(ids[0] * 100)
            return None

        agent.register_variable(tree, base, column)
        return tree, ctx

    spellings = [9, [1, 2, 3, 4, 5, 6, 7, 8, 9],
                 [(i,) for i in range(1, 10)]]
    walks = []
    for spelling in spellings:
        tree, ctx = make_agent(spelling)
        assert len(tree.snapshot()) >= 3

        # brute force: enumerate every registered instance and sort
        expected = sorted(
            arcs for arcs, _, _ in enumerate_instances(tree, ctx))

        # iterated get-next from the root of the numbering tree
        session, _ = _loopback_session(registry, tree, ctx)
        seen = []
        cursor = (1, 3)
        while True:
            pairs = client.get_next(session, [ber.Oid(cursor)])
            (ref, value), = pairs
            if value is ber.END_OF_MIB_VIEW:
                break
            assert tuple(ref.arcs) > cursor
            seen.append(tuple(ref.arcs))
            cursor = tuple(ref.arcs)
        # time-dependent values aside, the visited OIDs must match exactly
        assert seen == expected, "get-next enumeration must be total"
        walks.append(seen)
    assert walks[0] == walks[1] == walks[2], \
        "the three ChildSpec spellings are behaviorally equivalent"

    # and the spellings are indistinguishable through get/get-bulk too
    probes = [tuple(base.arcs) + (i,) for i in (1, 5, 9)]
    results = []
    for spelling in spellings:
        tree, ctx = make_agent(spelling)
        session, _ = _loopback_session(registry, tree, ctx)
        got = client.get(session, [ber.Oid(p) for p in probes])
        bulked = client.bulk(session, 0, 9, [ber.Oid(tuple(base.arcs))])
        results.append((got, [(r.arcs, v) for r, v in bulked]))
    assert results[0] == results[1] == results[2]


def test_criterion_11_cli_conformance(capsys):
    registry = _fresh_registry()
    ctx = agent.AgentContext(0, "127.0.0.1", "public", registry)
    tree = agent.DispatchTree()
    agent.install_system_group(tree, ctx)
    agent.install_enterprise_mib(tree, ctx)
    handle = agent.ServiceHandle(tree, ctx)
    host, port = handle.bound_address[:2]
    address = f"{host}:{port}"
    try:
        # exit 0 + canonical line shape
        code = cli.main(["get", "-v", "2c", "-c", "public", address,
                         "sysDescr.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert re.fullmatch(r"SNMPv2-MIB::sysDescr\.0 = STRING: .+\n", out)

        # exit 1: SNMP error-status
        assert cli.main(["get", "-v", "1", address, "sysDescr.9"]) == 1
        capsys.readouterr()

        # exit 2: timeout against a silent socket
        silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        silent.bind(("127.0.0.1", 0))
        try:
            assert cli.main(["get", "-t", "0.05", "-r", "0",
                             f"127.0.0.1:{silent.getsockname()[1]}",
                             "sysDescr.0"]) == 2
        finally:
            silent.close()
        capsys.readouterr()

        # exit 3: usage error
        assert cli.main(["get", address]) == 3
        capsys.readouterr()
    finally:
        handle.stop()
