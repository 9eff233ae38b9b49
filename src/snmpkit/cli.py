"""Command-line front end: get/getnext/walk/set/bulk, table select, the
MIB compiler, and a standalone agent.

Flag spelling and output follow the familiar net-management tool
conventions: `-v 2c -c public host:port oid` and one
`MODULE::name.instance = TYPE: value` line per binding.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import agent as agent_mod, ber, client, smi
from .errors import (
    ExchangeTimeout, MibError, OidResolutionError, SnmpKitError,
    SnmpStatusError, TransportError,
)
from .messages import V1, V2C, V3, defaults
from .oids import Registry

EXIT_OK = 0
EXIT_SNMP_ERROR = 1
EXIT_TIMEOUT = 2
EXIT_USAGE = 3

VERSION_FLAGS = {"1": V1, "2c": V2C, "3": V3}


class _UsageError(SnmpKitError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Output rendering


def format_oid(ref):
    """`MODULE::name.instance` when a named node covers the OID, else dotted;
    the node keeps `MODULE::name` as its label, so only arcs are formatted."""
    node = getattr(ref, "node", None)
    rest = getattr(ref, "rest", ())
    while node is not None and node.name is None:
        rest = (node.value,) + rest
        node = node.parent
    if node is None or node.parent is None:
        return "." + ".".join(map(str, ref.arcs))
    text = node.label
    if text is None:
        text = node.label = f"{node.module or '?'}::{node.name}"
    if len(rest) == 1:
        return f"{text}.{rest[0]}"
    return f"{text}.{'.'.join(map(str, rest))}" if rest else text


def _format_ticks(ticks):
    centis = int(ticks)
    days, rem = divmod(centis, 8640000)
    hours, rem = divmod(rem, 360000)
    minutes, rem = divmod(rem, 6000)
    seconds, hundredths = divmod(rem, 100)
    return (f"({centis}) {days} day{'s' if days != 1 else ''}, "
            f"{hours}:{minutes:02d}:{seconds:02d}.{hundredths:02d}")


_EXCEPTION_TEXT = {
    ber.NO_SUCH_OBJECT: "No Such Object available on this agent at this OID",
    ber.NO_SUCH_INSTANCE: "No Such Instance currently exists at this OID",
    ber.END_OF_MIB_VIEW: "No more variables left in this MIB View "
                         "(It is past the end of the MIB tree)",
}
_PRINTABLE = bytes(range(32, 127)) + b"\t\n\r"


def _format_oid_value(value, registry):
    if registry is not None:
        try:
            return "OID: " + format_oid(registry.resolve(value))
        except OidResolutionError:
            pass
    return "OID: ." + ".".join(str(a) for a in value.arcs)


# The rendering of each type of value, as f(value, registry); a type not
# listed here takes that of its nearest listed base class, object at last.
_VALUE_FORMATS = {
    type(ber.NULL): lambda v, r: "NULL",
    type(ber.NO_SUCH_OBJECT): lambda v, r: _EXCEPTION_TEXT[v],
    ber.TimeTicks: lambda v, r: "Timeticks: " + _format_ticks(v),
    ber.Counter64: lambda v, r: f"Counter64: {int(v)}",
    ber.Counter32: lambda v, r: f"Counter32: {int(v)}",
    ber.Gauge32: lambda v, r: f"Gauge32: {int(v)}",
    ber.IpAddress: lambda v, r: "IpAddress: " + v.text(),
    ber.Opaque: lambda v, r: "Opaque: 0x" + v.hex(),
    ber.Oid: _format_oid_value,
    ber.OctetString: lambda v, r: ("Hex-STRING: " + v.hex(" ").upper()
                                   if v.translate(None, _PRINTABLE)
                                   else "STRING: " + v.decode("ascii")),
    bool: lambda v, r: f"INTEGER: {int(v)}",
    int: lambda v, r: f"INTEGER: {v}",
    bytes: lambda v, r: "STRING: " + v.decode("utf-8", "replace"),
    object: lambda v, r: f"UNKNOWN: {v!r}",
}


def format_value(value, registry=None):
    """Net-management style `TYPE: rendering` of one binding value."""
    render = _VALUE_FORMATS.get(type(value)) or next(
        _VALUE_FORMATS[t] for t in type(value).__mro__ if t in _VALUE_FORMATS)
    return render(value, registry)


def format_binding(ref, value, registry=None):
    return f"{format_oid(ref)} = {format_value(value, registry)}"


# ---------------------------------------------------------------------------
# Configuration plumbing


def _add_common_options(parser):
    parser.add_argument("-v", "--version", dest="snmp_version",
                        choices=sorted(VERSION_FLAGS), default=None,
                        help="protocol version (default 2c)")
    parser.add_argument("-c", "--community", default=None)
    parser.add_argument("-u", "--user", default=None, help="v3 user name")
    parser.add_argument("-a", "--auth", default=None, metavar="PROTO:PASS",
                        help="v3 authentication, e.g. sha1:secret")
    parser.add_argument("-x", "--priv", default=None, metavar="PROTO:PASS",
                        help="v3 privacy, e.g. des:secret")
    parser.add_argument("-t", "--timeout", type=float, default=None,
                        help="fixed per-attempt timeout in seconds")
    parser.add_argument("-r", "--retries", type=int, default=None)
    parser.add_argument("-M", "--mib-path", default=None,
                        help="directories of compiled MIBs (also SNMP_MIB_PATH)")
    parser.add_argument("host", help="peer as host or host:port")


def _split_host(text):
    if ":" in text:
        host, _, port = text.rpartition(":")
        return host, int(port)
    return text, None


def _split_secret(text):
    if text is None:
        return None
    if ":" in text:
        proto, _, passphrase = text.partition(":")
        return (proto.lower(), passphrase)
    return text


def build_registry(mib_path=None):
    """The bundled corpus plus any compiled modules on the MIB path."""
    from .mibs import load_core

    registry = load_core(Registry())
    path = mib_path if mib_path is not None else os.environ.get("SNMP_MIB_PATH")
    if path:
        for directory in path.split(os.pathsep):
            if not os.path.isdir(directory):
                continue
            for entry in sorted(os.listdir(directory)):
                if entry.endswith(".cmib"):
                    with open(os.path.join(directory, entry), "rb") as fh:
                        smi.load_compiled(registry, fh)
    return registry


def _session(args, registry):
    """A with_session context for the peer and options in args."""
    host, port = _split_host(args.host)
    version = VERSION_FLAGS[args.snmp_version] if args.snmp_version else None
    kwargs = {"port": port, "version": version, "community": args.community,
              "registry": registry}
    if (defaults.version if version is None else version) == V3:
        kwargs.update(user=args.user, auth=_split_secret(args.auth),
                      priv=_split_secret(args.priv))
    if args.timeout is not None:
        kwargs.update(rto_min=args.timeout, rto_max=args.timeout)
    if args.retries is not None:
        kwargs["max_retries"] = args.retries
    return client.with_session(host, **kwargs)


# ---------------------------------------------------------------------------
# Commands


def _print_pairs(pairs, registry):
    for ref, value in pairs:
        print(format_binding(ref, value, registry))


def cmd_get(args, registry):
    with _session(args, registry) as session:
        specs = list(args.oids)
        pairs = client.request(session, 0, specs)
        _print_pairs(pairs, registry)
    return EXIT_OK


def cmd_getnext(args, registry):
    with _session(args, registry) as session:
        _print_pairs(client.get_next(session, list(args.oids)), registry)
    return EXIT_OK


def cmd_walk(args, registry):
    with _session(args, registry) as session:
        _print_pairs(client.walk(session, args.oid), registry)
    return EXIT_OK


_SET_CASTS = {
    "i": int,
    "s": lambda text: ber.OctetString(text.encode()),
    "o": str,  # resolved by the registry at request time
    "a": lambda text: ber.IpAddress(bytes(int(p) for p in text.split("."))),
    "t": lambda text: ber.TimeTicks(int(text)),
    "c": lambda text: ber.Counter32(int(text)),
    "g": lambda text: ber.Gauge32(int(text)),
    "u": lambda text: ber.Gauge32(int(text)),
}


def cmd_set(args, registry):
    if len(args.assignments) % 3:
        raise _UsageError("set needs OID TYPE VALUE triples")
    pairs = []
    for i in range(0, len(args.assignments), 3):
        oid, kind, text = args.assignments[i:i + 3]
        if kind not in _SET_CASTS:
            raise _UsageError(f"unknown value type {kind!r} "
                              f"(one of {''.join(sorted(_SET_CASTS))})")
        value = _SET_CASTS[kind](text)
        if kind == "o":
            value = ber.Oid(registry.resolve(value).arcs)
        pairs.append((oid, value))
    with _session(args, registry) as session:
        _print_pairs(client.set_values(session, pairs), registry)
    return EXIT_OK


def cmd_bulk(args, registry):
    with _session(args, registry) as session:
        pairs = client.bulk(session, args.non_repeaters,
                            args.max_repetitions, list(args.oids))
        _print_pairs(pairs, registry)
    return EXIT_OK


def cmd_table(args, registry):
    with _session(args, registry) as session:
        rows = client.select(args.table, session)
        _, entry, _ = smi.table_schema(registry, args.table)
        nodes = [node for _, node in sorted(entry.children.items())]
        # a not-accessible column is an index (RFC 2578 section 7.7),
        # which no cell shows, so row.index is shown in its stead
        index = any(n.max_access == "not-accessible" for n in nodes)
        lines = [["index"] * index + [n.name for n in nodes
                                      if n.max_access not in client.UNREADABLE]]
        for row in rows:
            lines.append([".".join(map(str, row.index))] * index + [
                format_value(v, registry).split(": ", 1)[-1]
                for _, v in row.cells])
        widths = [max(map(len, column)) for column in zip(*lines)]
        for line in lines:
            print("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
        if args.count_exchanges:
            print(f"exchanges: {session.exchanges}")
    return EXIT_OK


def cmd_mibc(args, _registry):
    failures = 0
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                module = smi.compile_text(fh.read())
        except (OSError, UnicodeDecodeError, MibError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        for warning in module.warnings:
            print(f"{path}: warning: {warning}", file=sys.stderr)
        out_name = f"{module.header.name}.cmib"
        out_path = os.path.join(args.output_dir, out_name)
        with open(out_path, "wb") as fh:
            fh.write(smi.emit_bytes(module))
        print(f"{path} -> {out_path}")
    return EXIT_SNMP_ERROR if failures else EXIT_OK


def cmd_agent(args, registry):
    ctx = agent_mod.AgentContext(args.port, args.address,
                                 args.community or defaults.community,
                                 registry)
    tree = agent_mod.DispatchTree()
    agent_mod.install_system_group(tree, ctx)
    agent_mod.install_enterprise_mib(tree, ctx)
    if args.demo_table:
        agent_mod.install_if_table(tree, registry, agent_mod.demo_if_rows())
    try:
        handle = agent_mod.enable_service(tree=tree, ctx=ctx)
    except TransportError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SNMP_ERROR
    host, port = handle.bound_address[:2]
    print(f"agent listening on {host}:{port}")
    try:
        while True:
            handle._thread.join(1)
    except KeyboardInterrupt:
        pass
    finally:
        agent_mod.disable_service(handle)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser():
    parser = _Parser(prog="snmpkit",
                     description="SNMP client, agent and MIB compiler")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("get", help="fetch exact instances")
    _add_common_options(p)
    p.add_argument("oids", nargs="+")
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("getnext", help="fetch lexicographic successors")
    _add_common_options(p)
    p.add_argument("oids", nargs="+")
    p.set_defaults(func=cmd_getnext)

    p = sub.add_parser("walk", help="enumerate a subtree")
    _add_common_options(p)
    p.add_argument("oid", nargs="?", default="mib-2")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("set", help="write values (OID TYPE VALUE ...)")
    _add_common_options(p)
    p.add_argument("assignments", nargs="+")
    p.set_defaults(func=cmd_set)

    p = sub.add_parser("bulk", help="get-bulk retrieval")
    _add_common_options(p)
    p.add_argument("-n", "--non-repeaters", type=int, default=0)
    p.add_argument("-m", "--max-repetitions", type=int, default=10)
    p.add_argument("oids", nargs="+")
    p.set_defaults(func=cmd_bulk)

    p = sub.add_parser("table", help="fetch a conceptual table")
    _add_common_options(p)
    p.add_argument("table")
    p.add_argument("--count-exchanges", action="store_true",
                   help="append the request/response exchange count")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("mibc", help="compile SMI modules to .cmib files")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output-dir", default=".")
    p.add_argument("-M", "--mib-path", default=None)
    p.set_defaults(func=cmd_mibc)

    p = sub.add_parser("agent", help="run a standalone agent")
    p.add_argument("--port", type=int, default=agent_mod.DEFAULT_AGENT_PORT)
    p.add_argument("--address", default="0.0.0.0")
    p.add_argument("-c", "--community", default=None)
    p.add_argument("-M", "--mib-path", default=None)
    p.add_argument("--demo-table", action="store_true",
                   help="also serve the bundled two-row interface table")
    p.set_defaults(func=cmd_agent)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        registry = build_registry(getattr(args, "mib_path", None))
        return args.func(args, registry)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except OidResolutionError as exc:
        print(f"cannot resolve OID: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExchangeTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except (SnmpStatusError, SnmpKitError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SNMP_ERROR
    except KeyboardInterrupt:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
