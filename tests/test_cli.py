import enum
import pathlib
import re
import shlex
import socket

import pytest
from hypothesis import example, given, settings, strategies as st

from snmpkit import agent, ber, cli, smi
from snmpkit.errors import (
    DecodingError, EncodingError, OidConflictError, OidResolutionError,
)
from snmpkit.mibs import load_core
from snmpkit.oids import OidRef, Registry
from test_client import HIDDEN_INDEX_MIB, _hidden_index_agent


@pytest.fixture(scope="module")
def live_agent():
    """A real UDP agent on an ephemeral loopback port, shared per module."""
    registry = load_core(Registry())
    ctx = agent.AgentContext(0, "127.0.0.1", "public", registry)
    tree = agent.DispatchTree()
    agent.install_system_group(tree, ctx)
    agent.install_enterprise_mib(tree, ctx)
    agent.install_if_table(tree, registry, agent.demo_if_rows())
    handle = agent.ServiceHandle(tree, ctx)
    host, port = handle.bound_address[:2]
    yield f"{host}:{port}", ctx
    handle.stop()


class TestRendering:
    def test_format_oid_named(self, registry):
        assert cli.format_oid(registry.resolve("sysDescr.0")) == \
            "SNMPv2-MIB::sysDescr.0"

    def test_format_oid_numeric_fallback(self, registry):
        assert cli.format_oid(registry.resolve((2, 99, 1))) == ".2.99.1"

    def test_value_tags(self, registry):
        assert cli.format_value(ber.OctetString(b"hi")) == "STRING: hi"
        assert cli.format_value(7) == "INTEGER: 7"
        assert cli.format_value(ber.Counter32(9)) == "Counter32: 9"
        assert cli.format_value(ber.Gauge32(9)) == "Gauge32: 9"
        assert cli.format_value(ber.Counter64(9)) == "Counter64: 9"
        assert cli.format_value(
            ber.IpAddress(b"\x7f\x00\x00\x01")) == "IpAddress: 127.0.0.1"
        assert cli.format_value(ber.NULL) == "NULL"

    def test_binary_string_hex_dumped(self):
        out = cli.format_value(ber.OctetString(b"\x02\x42\xac"))
        assert out.startswith("Hex-STRING: 02 42 AC")

    def test_timeticks_rendering(self):
        out = cli.format_value(ber.TimeTicks(8640000 + 360000 + 150))
        assert out == "Timeticks: (9000150) 1 day, 1:00:01.50"

    def test_oid_value_uses_registry(self, registry):
        out = cli.format_value(ber.Oid((1, 3, 6, 1, 4, 1, 31609, 2, 1)),
                               registry)
        assert out == "OID: APP-MIB::appAgent"


    def test_wire_zero_dot_zero_renders_by_name(self, registry):
        # RFC 2578 section 2 places zeroDotZero at 0.0
        name = registry.read(ber.Oid((0, 0)).octets)
        assert cli.format_oid(name) == "SNMPv2-SMI::zeroDotZero"
        assert cli.format_value(ber.Oid((0, 0)), registry) == \
            "OID: SNMPv2-SMI::zeroDotZero"


def _walked(ref):
    """format_oid as it was before a named node kept its label, kept here
    as the oracle: the parent walk, with `MODULE::name` made each call."""
    node = getattr(ref, "node", None)
    rest = tuple(getattr(ref, "rest", ()))
    while node is not None and node.name is None:
        rest = (node.value,) + rest
        node = node.parent
    if node is None or node.parent is None or node.name is None:
        return "." + ".".join(str(a) for a in ref.arcs)
    text = f"{node.module or '?'}::{node.name}"
    if rest:
        text += "." + ".".join(str(a) for a in rest)
    return text


# (arcs, name, module): a node registered at arcs, its parents made
# unnamed when absent.  Few arcs and names, so that registrations meet
# the same nodes, name unnamed ones, fill in modules and conflict.
_REGISTRATIONS = st.lists(st.tuples(
    st.lists(st.integers(0, 3), min_size=1, max_size=5).map(tuple),
    st.none() | st.sampled_from(["a", "b", "c"]),
    st.none() | st.sampled_from(["M", "N"])), max_size=12)


def _register(registry, registrations):
    for arcs, name, module in registrations:
        try:
            registry.register(module, name, arcs[:-1], arcs[-1])
        except OidConflictError:
            pass


def _spellings(registry, arcs):
    """The refs and non-refs that name arcs: resolved, read from the wire
    when arcs have a BER form, and a ber.Oid."""
    yield registry.resolve(arcs)
    yield ber.Oid(arcs)
    try:
        yield registry.read(ber.Oid(arcs).octets)
    except (EncodingError, DecodingError):
        pass


class TestLabels:
    """format_oid renders every name as the parent walk does, also once a
    later register names a node or fills in its module."""

    @settings(max_examples=200, deadline=None)
    @given(_REGISTRATIONS,
           st.lists(st.lists(st.integers(0, 4), max_size=7).map(tuple),
                    min_size=1, max_size=8),
           _REGISTRATIONS)
    @example([((1, 2, 3), "a", None)], [(1, 2, 3, 4), (1, 2)],
             [((1, 2), "b", "M"), ((1, 2, 3), None, "N")])
    def test_matches_the_parent_walk(self, before, names, after):
        registry = Registry()
        _register(registry, before)
        refs = [OidRef(registry.root)] + [
            ref for arcs in names for ref in _spellings(registry, arcs)]
        for ref in refs:
            assert cli.format_oid(ref) == _walked(ref)
        _register(registry, after)
        for ref in refs:
            assert cli.format_oid(ref) == _walked(ref)

    def test_a_label_follows_a_later_register(self):
        registry = Registry()
        registry.register(None, "a", (1, 2), 3)
        ref = registry.resolve((1, 2, 3, 4))
        name = registry.resolve((1, 2))
        assert (cli.format_oid(ref), cli.format_oid(name)) == \
            ("?::a.4", "?::iso.2")
        registry.register("M", None, (1,), 2)
        registry.register("N", "a", (1, 2), 3)
        assert (cli.format_oid(ref), cli.format_oid(name)) == \
            ("N::a.4", "?::iso.2")
        registry.register("M", "b", (1,), 2)
        assert (cli.format_oid(ref), cli.format_oid(name)) == \
            ("N::a.4", "M::b")


class _Unresolving:
    """A registry that resolves nothing."""

    def resolve(self, spec):
        raise OidResolutionError(f"cannot resolve {spec!r}")


_RAW = ber.Raw(ber.Tag(ber.PRIVATE, False, 9), b"x")


class TestFormatValueOutput:
    """The rendering of every kind of value, pinned."""

    @pytest.mark.parametrize("value, names, expected", [
        (ber.NO_SUCH_OBJECT, None,
         "No Such Object available on this agent at this OID"),
        (ber.NO_SUCH_INSTANCE, None,
         "No Such Instance currently exists at this OID"),
        (ber.END_OF_MIB_VIEW, None, "No more variables left in this MIB "
         "View (It is past the end of the MIB tree)"),
        (ber.NULL, None, "NULL"),
        (ber.TimeTicks(2 * 8640000 + 150), None,
         "Timeticks: (17280150) 2 days, 0:00:01.50"),
        (ber.TimeTicks(0), None, "Timeticks: (0) 0 days, 0:00:00.00"),
        (ber.Counter64(2 ** 64 - 1), None,
         "Counter64: 18446744073709551615"),
        (ber.Counter32(2 ** 32 - 1), None, "Counter32: 4294967295"),
        (ber.Gauge32(7), None, "Gauge32: 7"),
        (ber.IpAddress("10.0.255.1"), None, "IpAddress: 10.0.255.1"),
        (ber.Opaque(b"\x01\xab"), None, "Opaque: 0x01ab"),
        (ber.Oid((1, 3, 6, 1, 2, 1, 1, 1, 0)), "core",
         "OID: SNMPv2-MIB::sysDescr.0"),
        (ber.Oid((1, 3, 6, 1, 2, 1, 1, 1, 0)), "unresolving",
         "OID: .1.3.6.1.2.1.1.1.0"),
        (ber.Oid((1, 3, 6, 1, 2, 1, 1, 1, 0)), None,
         "OID: .1.3.6.1.2.1.1.1.0"),
        (ber.OctetString(b"a\tb\nc\r d~"), None, "STRING: a\tb\nc\r d~"),
        (ber.OctetString(b""), None, "STRING: "),
        (ber.OctetString(b"ab\x7f"), None, "Hex-STRING: 61 62 7F"),
        (ber.OctetString(b"\x00\x1f"), None, "Hex-STRING: 00 1F"),
        (True, None, "INTEGER: 1"),
        (-12, None, "INTEGER: -12"),
        (b"\xff\xfeab", None, "STRING: \ufffd\ufffdab"),
        (_RAW, None, f"UNKNOWN: {_RAW!r}"),
        ("text", None, "UNKNOWN: 'text'"),
        (None, None, "UNKNOWN: None"),
    ], ids=[
        "noSuchObject", "noSuchInstance", "endOfMibView", "NULL",
        "TimeTicks", "TimeTicks zero", "Counter64", "Counter32", "Gauge32",
        "IpAddress", "Opaque", "OID resolved", "OID unresolvable",
        "OID without registry", "OctetString with tab newline return",
        "empty OctetString", "OctetString with 0x7F",
        "OctetString with controls", "bool", "int", "non-UTF-8 bytes",
        "Raw", "str", "None"])
    def test_rendering(self, registry, value, names, expected):
        names = {"core": registry, "unresolving": _Unresolving()}.get(names)
        assert cli.format_value(value, names) == expected

    def test_int_subclass_renders_as_integer(self):
        class Level(enum.IntEnum):
            HIGH = 3

        assert cli.format_value(Level.HIGH) == "INTEGER: 3"
        assert cli.format_binding(ber.Oid((1, 3, 6)), Level.HIGH) == \
            ".1.3.6 = INTEGER: 3"


class TestCommands:
    def test_get_line_shape(self, live_agent, capsys):
        address, ctx = live_agent
        code = cli.main(["get", "-v", "2c", "-c", "public", address,
                        "sysDescr.0"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert re.fullmatch(r"SNMPv2-MIB::sysDescr\.0 = STRING: .+\n", out)

    def test_getnext(self, live_agent, capsys):
        address, _ = live_agent
        assert cli.main(["getnext", address, "sysDescr"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("SNMPv2-MIB::sysDescr.0 =")

    def test_walk_ordered(self, live_agent, capsys):
        address, _ = live_agent
        assert cli.main(["walk", address, "system"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        names = [line.split(" = ")[0] for line in lines]
        assert names == [
            "SNMPv2-MIB::sysDescr.0", "SNMPv2-MIB::sysObjectID.0",
            "SNMPv2-MIB::sysUpTime.0", "SNMPv2-MIB::sysContact.0",
            "SNMPv2-MIB::sysName.0", "SNMPv2-MIB::sysLocation.0"]

    def test_bulk(self, live_agent, capsys):
        address, _ = live_agent
        assert cli.main(["bulk", "-m", "2", address, "ifDescr"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["IF-MIB::ifDescr.1 = STRING: lo",
                         "IF-MIB::ifDescr.2 = STRING: eth0"]

    def test_table(self, live_agent, capsys):
        address, _ = live_agent
        code = cli.main(["table", address, "ifTable", "--count-exchanges"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[0].split()[0:2] == ["ifIndex", "ifDescr"]
        assert len(lines) == 4  # header + 2 rows + exchange count
        count = int(lines[-1].split(":")[1])
        assert count <= 4


class TestTableIndex:
    """snmpkit table over HIDDEN-INDEX-MIB, whose index column hiIndex is
    not-accessible and whose hiEvent is accessible-for-notify."""

    @staticmethod
    def _table(tmp_path, capsys, indices):
        module = smi.compile_text(HIDDEN_INDEX_MIB)
        (tmp_path / "HIDDEN-INDEX-MIB.cmib").write_bytes(
            smi.emit_bytes(module))
        tree, ctx = _hidden_index_agent(indices)
        ctx.address, ctx.port = "127.0.0.1", 0
        handle = agent.ServiceHandle(tree, ctx)
        try:
            host, port = handle.bound_address[:2]
            code = cli.main(["table", "-M", str(tmp_path), f"{host}:{port}",
                             "hiTable"])
        finally:
            handle.stop()
        assert code == cli.EXIT_OK
        return [line.split() for line in capsys.readouterr().out.splitlines()]

    def test_rows_show_their_index(self, tmp_path, capsys):
        assert self._table(tmp_path, capsys, [(7,), (130, 2)]) == [
            ["index", "hiName", "hiCount"],
            ["7", "hiName(7,)", "1"],
            ["130.2", "hiName(130,", "2)", "2"]]

    def test_an_empty_table_is_headed_alike(self, tmp_path, capsys):
        assert self._table(tmp_path, capsys, []) == [
            ["index", "hiName", "hiCount"]]


class TestSetCommand:
    @pytest.fixture()
    def writable_agent(self):
        """(address, store, registry): a UDP agent whose sysContact,
        sysServices and sysObjectID scalars are written into store."""
        registry = load_core(Registry())
        ctx = agent.AgentContext(0, "127.0.0.1", "public", registry)
        tree = agent.DispatchTree()
        store = {}

        def scalar(name):
            def handler(ctx, ids, *new):
                if not ids:
                    return 0
                if tuple(ids) != (0,):
                    return None
                if new:
                    store[name] = new[0]
                return store.get(name)
            agent.register_variable(tree, registry.resolve(name), handler,
                                    writable=True)

        for name in ("sysContact", "sysServices", "sysObjectID"):
            scalar(name)
        handle = agent.ServiceHandle(tree, ctx)
        host, port = handle.bound_address[:2]
        yield f"{host}:{port}", store, registry
        handle.stop()

    def test_string_and_integer(self, writable_agent, capsys):
        address, store, _ = writable_agent
        code = cli.main(["set", address, "sysContact.0", "s", "ops desk",
                         "sysServices.0", "i", "72"])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "SNMPv2-MIB::sysContact.0 = STRING: ops desk",
            "SNMPv2-MIB::sysServices.0 = INTEGER: 72"]
        assert store == {"sysContact": ber.OctetString(b"ops desk"),
                         "sysServices": 72}

    def test_oid_value_is_stored_as_an_oid(self, writable_agent, capsys):
        address, store, registry = writable_agent
        code = cli.main(["set", address, "sysObjectID.0", "o", "appAgent"])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out == \
            "SNMPv2-MIB::sysObjectID.0 = OID: APP-MIB::appAgent\n"
        value = store["sysObjectID"]
        assert isinstance(value, ber.Oid)
        assert value.arcs == registry.resolve("appAgent").arcs

    @pytest.mark.parametrize("assignments", [
        ["sysContact.0", "s"],
        ["sysContact.0", "s", "x", "sysServices.0"],
        ["sysContact.0", "q", "x"],
    ])
    def test_bad_assignments_are_usage(self, writable_agent, capsys,
                                       assignments):
        address, store, _ = writable_agent
        assert cli.main(["set", address, *assignments]) == cli.EXIT_USAGE
        assert capsys.readouterr().err
        assert store == {}


class TestDocumentedCommands:
    @pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
    def test_command_line_examples_parse(self, doc):
        text = (pathlib.Path(__file__).parent.parent / doc).read_text()
        block = text.split("### Command line", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line) for line in block.splitlines()
                 if line.startswith("snmpkit ")]
        assert len(lines) == 7
        for argv in lines:
            args = cli.build_parser().parse_args(argv[1:])
            assert args.command == argv[1]


class TestExitCodes:
    def test_success_is_zero(self, live_agent):
        address, _ = live_agent
        assert cli.main(["get", address, "sysName.0"]) == 0

    def test_snmp_error_is_one(self, live_agent, capsys):
        address, _ = live_agent
        assert cli.main(["get", "-v", "1", address, "sysName.9"]) == 1
        assert "noSuchName" in capsys.readouterr().err

    def test_timeout_is_two(self, capsys):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))  # bound but never answering
        port = sock.getsockname()[1]
        try:
            code = cli.main(["get", "-t", "0.05", "-r", "0",
                             f"127.0.0.1:{port}", "sysName.0"])
        finally:
            sock.close()
        assert code == 2
        assert "timeout" in capsys.readouterr().err

    def test_usage_is_three(self, capsys):
        assert cli.main(["get"]) == 3
        assert cli.main(["get", "localhost", ]) == 3
        capsys.readouterr()

    def test_unknown_oid_is_usage(self, live_agent, capsys):
        address, _ = live_agent
        assert cli.main(["get", address, "noSuchObjectName.0"]) == 3
        assert "resolve" in capsys.readouterr().err


class TestMibCompilerCommand:
    def test_compile_and_reuse(self, tmp_path, capsys):
        source = tmp_path / "X-MIB.txt"
        source.write_text("""X-MIB DEFINITIONS ::= BEGIN
IMPORTS enterprises FROM SNMPv2-SMI;
xroot OBJECT IDENTIFIER ::= { enterprises 7701 }
END
""")
        code = cli.main(["mibc", str(source), "-o", str(tmp_path)])
        assert code == 0
        out_path = tmp_path / "X-MIB.cmib"
        assert out_path.exists()
        first = out_path.read_bytes()
        cli.main(["mibc", str(source), "-o", str(tmp_path)])
        assert out_path.read_bytes() == first  # recompile byte-identical
        capsys.readouterr()

    def test_bad_syntax_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "BAD.txt"
        bad.write_text("BAD DEFINITIONS ::= BEGIN\nx ::= { }\nEND\n")
        assert cli.main(["mibc", str(bad), "-o", str(tmp_path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_non_decimal_digit_is_a_mib_error(self, tmp_path, capsys):
        bad = tmp_path / "DIGIT.txt"
        bad.write_text("DIGIT DEFINITIONS ::= BEGIN\n"
                       "a OBJECT IDENTIFIER ::= { b \u00b2 }\nEND\n",
                       encoding="utf-8")
        assert cli.main(["mibc", str(bad), "-o", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "unexpected character" in err and "line 2" in err

    def test_undecodable_file_is_reported_and_others_compile(self, tmp_path,
                                                             capsys):
        latin = tmp_path / "LATIN.txt"
        latin.write_bytes("-- caf\u00e9\nLATIN DEFINITIONS ::= BEGIN\nEND\n"
                          .encode("latin-1"))
        good = tmp_path / "Z-MIB.txt"
        good.write_text("Z-MIB DEFINITIONS ::= BEGIN\nEND\n")
        assert cli.main(["mibc", str(latin), str(good),
                         "-o", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{latin}: ") and "utf-8" in err
        assert (tmp_path / "Z-MIB.cmib").exists()

    def test_source_that_ends_after_assign_is_reported(self, tmp_path,
                                                        capsys):
        bad = tmp_path / "CUT.txt"
        bad.write_text("CUT DEFINITIONS ::= BEGIN\na ::=")
        assert cli.main(["mibc", str(bad), "-o", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            f"{bad}: unexpected end of module\n"

    def test_malformed_compiled_file_on_mib_path(self, tmp_path, capsys):
        (tmp_path / "BAD.cmib").write_bytes(b"CMIB 1\nMODULE X\nIMP\n")
        assert cli.main(["walk", "-M", str(tmp_path), "127.0.0.1:9",
                         "system"]) == 1
        assert capsys.readouterr().err == \
            "malformed record 'IMP' at line 3\n"

    def test_mib_path_loads_extra_modules(self, tmp_path, live_agent,
                                          monkeypatch, capsys):
        source = tmp_path / "Y-MIB.txt"
        source.write_text("""Y-MIB DEFINITIONS ::= BEGIN
IMPORTS enterprises FROM SNMPv2-SMI;
yroot OBJECT IDENTIFIER ::= { enterprises 7702 }
END
""")
        cli.main(["mibc", str(source), "-o", str(tmp_path)])
        capsys.readouterr()
        monkeypatch.setenv("SNMP_MIB_PATH", str(tmp_path))
        registry = cli.build_registry()
        assert registry.resolve("yroot").arcs[-1] == 7702
