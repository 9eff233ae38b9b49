"""Session-oriented SNMP manager API.

Sessions wrap an endpoint plus per-peer protocol state (community or v3
credential and discovered engine).  Every request, and a v3 engine
discovery probe, goes out through one _exchange, framed for the session's
version; a v3 Report is met from one table.  The reply to a GET or SET
is decoded with its names left as content octets, which _answer compares
with the request's, so they never enter the session's registry; the
replies to other requests are read through it.  On top of send_pdu sit
get/get-next/set/bulk/inform, the compound walk, and the table-oriented
select; trap_v1 sends without waiting for a reply.
"""

from __future__ import annotations

import contextlib
import secrets
import time

from . import ber, messages, transport, usm
from .errors import (
    AuthenticationError, DecodingError, SnmpError, SnmpKitError,
    SnmpStatusError, UsmProtocolError,
)
from .messages import (
    FLAG_AUTH, FLAG_PRIV, FLAG_REPORTABLE,
    GET_BULK_REQUEST, GET_NEXT_REQUEST, GET_REQUEST, INFORM_REQUEST, REPORT,
    RESPONSE, SET_REQUEST,
    CommunityMessage, Pdu, ScopedPdu, TrapV1Pdu, UsmParams, V3Message,
    VarBind, V1, V2C, V3, defaults,
)
from .oids import OidRef
from .smi import table_schema

WALK_BULK_REPETITIONS = 25

# the MAX-ACCESS of columns that a GET cannot read (RFC 2578 section 7.3)
UNREADABLE = frozenset(("not-accessible", "accessible-for-notify"))

_NULL = ber.encode(ber.NULL)  # a NULL's TLV, 05 00


class Session:
    """One SNMP peer: endpoint, protocol version and security state.

    A session supports one outstanding request at a time and must not be
    shared between threads; independent sessions are fully concurrent.
    """

    def __init__(self, host, port, version, community, credential,
                 registry, endpoint, estimator, context="",
                 clock=time.monotonic):
        self.host = host
        self.port = port
        self.version = version
        self.community = community
        self.credential = credential
        self.registry = registry
        self.endpoint = endpoint
        self.estimator = estimator
        self.context = context
        self.clock = clock
        self.engine = usm.EngineState(clock=clock)
        self.exchanges = 0  # completed request/response exchanges
        self._request_id = secrets.randbelow(2 ** 31 - 1) + 1
        self._opened_at = clock()

    def next_request_id(self):
        rid = self._request_id
        self._request_id = self._request_id % (2 ** 31 - 1) + 1
        return rid

    def __repr__(self):
        return (f"<Session {self.host}:{self.port} "
                f"v{ {V1: '1', V2C: '2c', V3: '3'}[self.version] }>")


def open_session(host, port=None, version=None, community=None, user=None,
                 auth=None, priv=None, registry=None, transport_factory=None,
                 rto_min=transport.RTO_MIN, rto_max=transport.RTO_MAX,
                 max_retries=transport.DEFAULT_MAX_RETRIES, context=None,
                 clock=time.monotonic):
    """Open a session to a peer; omitted arguments take process defaults."""
    port = defaults.port if port is None else port
    version = defaults.version if version is None else version
    community = defaults.community if community is None else community
    context = defaults.context if context is None else context
    if version not in (V1, V2C, V3):
        raise SnmpError(f"unsupported SNMP version {version!r}")
    credential = None
    if version == V3:
        if user is None:
            raise SnmpError("v3 session requires an explicit user")
        credential = usm.Credential.create(user, auth, priv)
    elif user is not None:
        raise SnmpError("user/auth/priv only apply to v3 sessions")
    if registry is None:
        from .mibs import default_registry
        registry = default_registry()
    factory = transport_factory or transport.open_endpoint
    endpoint = factory(host, port)
    estimator = transport.RttEstimator(rto_min, rto_max, max_retries)
    return Session(host, port, version, community, credential,
                   registry, endpoint, estimator, context, clock)


def close_session(session):
    """Close the session's endpoint; safe to call twice."""
    session.endpoint.close()


@contextlib.contextmanager
def with_session(host, **kwargs):
    session = open_session(host, **kwargs)
    try:
        yield session
    finally:
        close_session(session)


def _session_for(session_or_host, **kwargs):
    """The session given, or a throwaway one to a hostname, as a context."""
    if isinstance(session_or_host, str):
        return with_session(session_or_host, **kwargs)
    return contextlib.nullcontext(session_or_host)


# ---------------------------------------------------------------------------
# The core request primitive


def request(session, pdu_kind, bindings_spec):
    """Issue one request and return the response (OidRef, value) pairs.

    A non-zero error-status in the response raises SnmpStatusError, and a
    GET or SET response that does not echo the request's names SnmpError;
    the pairs of a GET or SET hold the request's refs, its reply's names
    compared as octets, and those of any other request the refs the
    session's registry read the reply's names into, shared with every
    other caller.
    """
    pdu = messages.make_request_pdu(pdu_kind, bindings_spec, session.registry,
                                    session.next_request_id())
    if pdu_kind not in (GET_REQUEST, SET_REQUEST):
        return [(vb.name, vb.value) for vb in _answer(session, pdu)]
    names = [vb.name for vb in pdu.bindings]
    got = _answer(session, pdu, [ref.octets for ref in names],
                  names.__getitem__)
    return [(ref, vb.value) for ref, vb in zip(names, got)]


def _answer(session, pdu, asked=None, name=None):
    """Send pdu; the response's bindings.  A non-zero error-status raises
    SnmpStatusError.

    When asked, the content octets of a GET or SET request's names, is
    given, the response's names, content octets as send_pdu leaves them,
    must be those, in order, or SnmpError is raised naming name(i), the
    request's i-th name, and the name found as _shown makes it."""
    response = send_pdu(session, pdu)
    status = response.error_status
    if status:
        label = messages.ERROR_STATUS_NAMES.get(status, str(status))
        raise SnmpStatusError(status, response.error_index, label)
    got = response.bindings
    if asked is not None and [vb.name for vb in got] != asked:
        for i, (mine, theirs) in enumerate(zip(asked, got)):
            if theirs.name != mine:
                raise SnmpError(f"response binding {i + 1} names "
                                f"{_shown(session, theirs.name)!r}, "
                                f"not the requested {name(i)}")
        raise SnmpError(f"response holds {len(got)} bindings for "
                        f"{len(asked)} requested")
    return got


def _shown(session, name):
    """A reply's name as an error message shows it: when it was left as
    content octets, the ref of their arcs, made without entering the
    session's memo, or the octets themselves when they are malformed."""
    if not isinstance(name, bytes):
        return name
    try:
        return session.registry.resolve(ber.read_oid(name))
    except DecodingError:
        return name


def send_pdu(session, pdu):
    """Transmit a prebuilt PDU, framed as _FRAMES says for the session's
    version, and return the matched response PDU, whose names are read as
    _names says.
    A v3 Report has the request sent once more, after adopting the
    engine an unknownEngineIDs Report names, as a discovery Report does
    (RFC 3414 section 4); a second Report raises UsmProtocolError."""
    frame = _FRAMES[session.version]
    reply, response = _exchange(session, *frame(session, pdu))
    if response.pdu_type == REPORT:
        first = response.bindings[0].name if response.bindings else None
        if getattr(first, "octets", first) == _UNKNOWN_ENGINE_IDS:
            _adopt(session, reply)
        pdu.request_id = session.next_request_id()
        _, response = _exchange(session, *frame(session, pdu))
        if response.pdu_type == REPORT:
            raise UsmProtocolError("peer keeps reporting: " + repr([
                VarBind(_shown(session, vb.name), vb.value)
                for vb in response.bindings]))
    return response


def _exchange(session, payload, accept):
    """Send payload, retransmitting as transport.exchange does, and return
    the first (message, PDU) reply accept makes of a datagram; accept
    returns None for a datagram to skip, and may raise to end the
    exchange.  A completed exchange adds one to session.exchanges, however
    many sends it took."""
    reply = None

    def match(data):
        nonlocal reply
        reply = accept(data)
        return reply is not None

    transport.exchange(session.endpoint, payload, session.estimator, match,
                       clock=session.clock)
    session.exchanges += 1
    return reply


def _names(session, pdu):
    """What reads the names of a reply to pdu: none for a GET or SET, whose
    reply's names stay content octets for _answer to compare; else the
    session's registry."""
    return messages.OCTET_NAMES if pdu.pdu_type in (GET_REQUEST, SET_REQUEST) \
        else session.registry


def _community_frame(session, pdu):
    """pdu's octets in a community message, and the accept of its reply."""
    names = _names(session, pdu)

    def accept(data):
        try:
            msg = messages.decode_message(data, names)
        except SnmpKitError:
            return None
        if isinstance(msg, CommunityMessage) and isinstance(msg.pdu, Pdu) \
                and msg.pdu.pdu_type == RESPONSE \
                and msg.pdu.request_id == pdu.request_id:
            return msg, msg.pdu
        return None

    return messages.encode_message(
        CommunityMessage(session.version, session.community, pdu)), accept


def _v3_frame(session, pdu):
    """pdu's octets in a V3Message secured for the peer engine, which is
    discovered first when it is not known, and the accept of its reply."""
    if not session.engine.discovered:
        _discover(session)
    cred, engine = session.credential, session.engine
    name = session.context
    scoped = ScopedPdu(engine.engine_id,
                       name.encode() if isinstance(name, str) else name, pdu)
    usm_params = UsmParams(engine.engine_id, engine.engine_boots,
                           engine.current_time(), cred.user.encode())
    msg = V3Message(session.next_request_id(),
                    FLAG_REPORTABLE | cred.security_flags, usm_params, scoped)
    return _secured(session, msg, pdu.request_id)


def _secured(session, msg, request_id=None):
    """msg's octets secured by the session's engine keys, and the accept
    of its reply.  A reply that echoes msg's id but fails authentication
    or the time window ends the exchange with AuthenticationError.  Other
    undecodable or unauthentic datagrams are ignored, and so is a reply
    other than a Report whose security level differs from msg's (RFC 3412
    section 7.2, step 13), such as a forged one in clear."""
    names = _names(session, msg.scoped_pdu.pdu)

    def accept(data):
        try:
            reply, scoped = usm.open(data, session.engine, names)
        except AuthenticationError as exc:
            if exc.msg.msg_id == msg.msg_id:
                raise
            return None
        except SnmpKitError:
            return None
        if (reply.flags ^ msg.flags) & (FLAG_AUTH | FLAG_PRIV) and \
                scoped.pdu.pdu_type != REPORT:
            return None
        # engines echo msg_id; reports about our request also match on the
        # inner request id
        if reply.msg_id == msg.msg_id or request_id is not None \
                and scoped.pdu.request_id == request_id:
            return reply, scoped.pdu
        return None

    return usm.secure(msg, session.engine), accept


def _discover(session):
    """Adopt the peer engine id and clock from the Report to a probe."""
    probe = Pdu(GET_REQUEST, session.next_request_id())
    reply, report = _exchange(session, *_secured(session, V3Message(
        session.next_request_id(), FLAG_REPORTABLE, UsmParams(),
        ScopedPdu(pdu=probe))))
    if report.pdu_type != REPORT:
        raise UsmProtocolError("engine discovery did not yield a Report")
    _adopt(session, reply)


def _adopt(session, reply):
    """Adopt the engine id and clock in the USM header of a Report."""
    usm_params = reply.usm
    if not usm_params.engine_id:
        raise UsmProtocolError("Report carries no engine id")
    session.engine.adopt(usm_params.engine_id, usm_params.engine_boots,
                         usm_params.engine_time, session.credential)


_FRAMES = {V1: _community_frame, V2C: _community_frame, V3: _v3_frame}

_UNKNOWN_ENGINE_IDS = ber.Oid(messages.USM_STATS_UNKNOWN_ENGINE_IDS).octets


# ---------------------------------------------------------------------------
# Operations


def get(session_or_host, oids, **session_kwargs):
    """Fetch values; the output shape mirrors the input shape.

    A single OID spec yields a single value, a list yields a list.  A
    hostname string in place of a session opens a temporary one.
    """
    single = _is_single_spec(oids)
    with _session_for(session_or_host, **session_kwargs) as session:
        pairs = request(session, GET_REQUEST, [oids] if single else list(oids))
    values = [value for _, value in pairs]
    return values[0] if single else values


def _is_single_spec(oids):
    if isinstance(oids, str):
        return True
    if isinstance(oids, (list, tuple)):
        # a bare arc tuple like (1,3,6,...) is one OID, not many
        return bool(oids) and all(isinstance(x, int) for x in oids)
    return True  # OidRef / OidNode / Oid


def get_next(session, oids):
    """One get-next step; returns (OidRef, value) pairs."""
    specs = [oids] if _is_single_spec(oids) else list(oids)
    return request(session, GET_NEXT_REQUEST, specs)


def set_values(session, pairs):
    """Set request from (oid-spec, value) pairs; returns the echoed pairs."""
    return request(session, SET_REQUEST, list(pairs))


def bulk(session, non_repeaters, max_repetitions, oids):
    """Get-bulk; requires v2c or later."""
    if session.version == V1:
        raise SnmpError("get-bulk requires SNMPv2c or later")
    specs = [oids] if _is_single_spec(oids) else list(oids)
    pdu = messages.make_request_pdu(GET_BULK_REQUEST, specs,
                                    session.registry,
                                    session.next_request_id())
    pdu.error_status = int(non_repeaters)
    pdu.error_index = int(max_repetitions)
    return [(vb.name, vb.value) for vb in _answer(session, pdu)]


def inform(session, bindings):
    """Inform-request (acknowledged notification); v2c or later."""
    if session.version == V1:
        raise SnmpError("inform requires SNMPv2c or later")
    return request(session, INFORM_REQUEST, list(bindings))


def trap_v1(session, enterprise, generic, specific, bindings=()):
    """Fire-and-forget SNMPv1 trap; only defined for v1 sessions."""
    if session.version != V1:
        raise SnmpError("trap-v1 is only defined for SNMPv1 sessions")
    try:
        local_ip = session.endpoint.local_address[0]
        addr = ber.IpAddress(bytes(int(p) for p in local_ip.split(".")))
    except Exception:
        addr = ber.IpAddress(b"\x00\x00\x00\x00")
    ticks = int((session.clock() - session._opened_at) * 100)
    vbs = [messages.VarBind(session.registry.resolve(spec), value)
           for spec, value in bindings]
    pdu = TrapV1Pdu(session.registry.resolve(enterprise), addr,
                    int(generic), int(specific), ticks, vbs)
    session.endpoint.send(_community_frame(session, pdu)[0])


def walk(session_or_host, subtree, **session_kwargs):
    """All (OidRef, value) pairs under a subtree, in lexicographic order.

    A reply name under the subtree that is not greater than the one before
    it raises SnmpError naming both ("OID not increasing")."""
    with _session_for(session_or_host, **session_kwargs) as session:
        return _walk(session, subtree)


def _walk(session, subtree):
    cursor = session.registry.resolve(subtree)
    prefix = cursor.arcs
    out = []
    done = False
    while not done:
        if session.version == V1:
            try:
                step = get_next(session, [cursor])
            except SnmpStatusError as exc:
                if exc.status_name != "noSuchName":
                    raise
                break  # a v1 agent's way of saying end of MIB view
        else:
            step = bulk(session, 0, WALK_BULK_REPETITIONS, [cursor])
        if not step:
            break
        for name, value in step:
            arcs = name.arcs
            if value is ber.END_OF_MIB_VIEW or arcs[:len(prefix)] != prefix:
                done = True
                break
            if arcs <= cursor.arcs:
                raise SnmpError(f"OID not increasing: {name} after {cursor}")
            out.append((name, value))
            cursor = name
    return out


# ---------------------------------------------------------------------------
# Table select


class TableRow:
    """One conceptual row: index arcs plus the ordered column cells."""

    def __init__(self, schema, index, cells):
        self.schema = schema
        self.index = tuple(index)
        self.cells = list(cells)  # [(column OidRef, value)] in column order

    def __repr__(self):
        idx = ".".join(map(str, self.index))
        head = ", ".join(f"{_leaf_name(ref)}={value!r}"
                         for ref, value in self.cells[:3])
        return f"<{self.schema.type_name}[{idx}] {head}...>"


def _leaf_name(ref):
    node = getattr(ref, "node", None)
    if node is not None and node.name:
        return node.name
    return ".".join(map(str, ref.arcs))


def plain_value(row):
    """The ordered (column OidRef, value) pairs of a row."""
    return list(row.cells)


def value_by_column(row, column):
    """Cell value by column name, OidRef or arcs."""
    want_arcs = None
    if not isinstance(column, str):
        want_arcs = tuple(getattr(column, "arcs", column))
    for ref, value in row.cells:
        if want_arcs is not None:
            base = tuple(ref.arcs)[:len(want_arcs)]
            if base == want_arcs:
                return value
        elif _leaf_name(ref) == column:
            return value
    raise SnmpError(f"row has no column {column!r}")


def select(table_name, from_, **session_kwargs):
    """Fetch a conceptual table as TableRow objects.

    Its readable columns are those whose MAX-ACCESS is neither
    not-accessible nor accessible-for-notify (RFC 2578 section 7.3); a
    table with none raises SnmpError.  Row indices are discovered by
    walking the first readable column only; each row is then fetched with
    a single multi-binding get of its readable columns, so a table of R
    rows costs at most R + 2 exchanges regardless of column count.  An
    index column that is not-accessible is in row.index, not in
    row.cells.  Each row's GET is written from one template per length
    of the index's octets: the octets between the index's in its
    bindings, joined by them, with no ref made for a cell.  A row's reply
    must carry those names, in order, or SnmpError is raised; they are
    compared as octets.
    """
    with _session_for(from_, **session_kwargs) as session:
        _, entry, schema = table_schema(session.registry, table_name)
        columns = [OidRef(node) for _, node in sorted(entry.children.items())
                   if node.max_access not in UNREADABLE]
        if not columns:
            raise SnmpError(f"table {table_name!r} has no readable columns")

        skip = len(columns[0].arcs)
        indices = [name.arcs[skip:] for name, _ in _walk(session, columns[0])]
        heads = [col.octets for col in columns]
        templates, rows = {}, []
        for index in indices:
            tail = ber.subid_octets(index)
            parts = templates.get(len(tail))
            if parts is None:
                parts = templates[len(tail)] = _row_template(heads, tail)
            pdu = Pdu(GET_REQUEST, session.next_request_id(),
                      bindings=ber.EncodedBindings([tail.join(parts)]))
            got = _answer(session, pdu, [head + tail for head in heads],
                          lambda i: columns[i].child(*index))
            rows.append(TableRow(schema, index, [
                (col, vb.value) for col, vb in zip(columns, got)]))
        return rows


def _row_template(heads, tail):
    """The octets between the index's in the bindings of a row GET of the
    columns whose content octets are heads, for any index whose octets are
    as long as tail's: for each column, the previous binding's NULL, then
    the binding's SEQUENCE and OID headers and the column's octets; last,
    the NULL.  Each is cut from the whole binding, so a long-form length
    comes out as encode_binding writes it."""
    cut = len(tail) + len(_NULL)
    parts = [ber.encode_binding(head + tail, ber.NULL)[:-cut]
             for head in heads]
    return [parts[0], *(_NULL + part for part in parts[1:]), _NULL]
