"""Embeddable SNMP agent: dispatch tree, message path and UDP service.

handle_datagram, the one message path, answers v1/v2c by community and
v3 through a LocalEngine, which writes its replies and Reports alike.
Each reply is framed once; one that does not encode or fit is replaced
in one place, _fitted.  enable_service serves v1/v2c over UDP.

GETBULK encodes each answer as it reads it, and stops reading at the
first repetition whose answers pass the room that the reply's frame
leaves at its limit, messages.answers_room (usm.answers_room under v3);
it drops that repetition and keeps the whole ones before it, which fit,
so its work is bounded by what one reply can hold.  Instances that read
None are no answer, and are stepped over with no bound, by GETNEXT and
GETBULK alike.

Variables are served by handler functions attached at base OIDs.  Called
with an empty rest-id list a handler enumerates its children (a ChildSpec:
a count, a flat arc list, or a list of arc lists); called with rest ids it
returns the value for that instance or None.

Bases are kept sorted, so one bisect finds the handler that covers an OID
or the next one after it.  GETNEXT and GETBULK ask a handler for its
ChildSpec at most once per request, and only when the request reaches
that handler.  A count N steps to the next instance in O(1); a list is
expanded and sorted once per request, so a large table should answer
with a count.
"""

from __future__ import annotations

import bisect
import platform
import socket
import threading
import time
from itertools import chain, islice, repeat

from . import ber, messages, usm
from .errors import (
    AuthenticationError, EncodingError, NotInTimeWindowError, SnmpError,
    SnmpKitError, TransportError,
)
from .messages import (
    FLAG_AUTH, FLAG_PRIV, FLAG_REPORTABLE, GET_BULK_REQUEST,
    GET_NEXT_REQUEST, GET_REQUEST, MAX_UDP_PAYLOAD, REPORT, SET_REQUEST,
    Pdu, ScopedPdu, UsmParams, V3Message, VarBind, V1, V2C, V3,
)

DEFAULT_AGENT_PORT = 8161

# error-status codes
TOO_BIG = 1
NO_SUCH_NAME = 2
READ_ONLY = 4
GEN_ERR = 5
NOT_WRITABLE = 17


def expand_children(spec):
    """Expand a ChildSpec into an ordered, duplicate-free tuple of arc tuples.

    An integer N means instances 1..N, except N=0 which denotes the single
    scalar instance 0.
    """
    if isinstance(spec, int):
        if spec == 0:
            return ((0,),)
        return tuple((i,) for i in range(1, spec + 1))
    out = []
    seen = set()
    for item in spec:
        arcs = (item,) if isinstance(item, int) else tuple(item)
        if arcs not in seen:
            seen.add(arcs)
            out.append(arcs)
    return tuple(out)


class AgentContext:
    """Mutable per-agent state handlers may consult."""

    def __init__(self, port=DEFAULT_AGENT_PORT, address="0.0.0.0",
                 community="public", registry=None):
        self.port = port
        self.address = address
        self.community = community
        self.registry = registry
        self.start_time = time.monotonic()
        self.in_pkts = 0
        self.contact = ""
        self.name = socket.gethostname()
        self.location = ""

    def uptime_ticks(self):
        return ber.TimeTicks(int((time.monotonic() - self.start_time) * 100))


class DispatchTree:
    """Registered variable handlers keyed by base OID arcs.

    The view is one immutable pair: the sorted bases and the matching
    (base, handler, writable) entries.  register swaps in a new view under
    the lock; readers take the current one without locking or copying.
    """

    def __init__(self):
        self._view = ((), ())
        self._lock = threading.Lock()

    def register(self, oid_ref, handler, writable=False):
        """Attach handler at a base OID; re-registration replaces.

        Nesting one base under another is rejected -- the longest-prefix
        dispatch would shadow one of them.
        """
        base = tuple(oid_ref.arcs)
        with self._lock:
            bases, entries = self._view
            for existing in bases:
                if existing == base:
                    continue
                shorter, longer = sorted((existing, base), key=len)
                if longer[:len(shorter)] == shorter:
                    raise SnmpError(
                        f"base {'.'.join(map(str, base))} nests with "
                        f"registered {'.'.join(map(str, existing))}")
            table = {entry[0]: entry for entry in entries}
            table[base] = (base, handler, writable)
            bases = tuple(sorted(table))
            self._view = (bases, tuple(table[b] for b in bases))

    def snapshot(self):
        return {base: (handler, writable)
                for base, handler, writable in self._view[1]}

    def find(self, arcs):
        """Registered base prefix of arcs -> (base, handler, writable).

        arcs is a tuple of ints.  Bases never nest, so the only candidate
        is the greatest base <= arcs.
        """
        bases, entries = self._view
        i = bisect.bisect_right(bases, arcs) - 1
        if i >= 0 and arcs[:len(bases[i])] == bases[i]:
            return entries[i]
        return None


def register_variable(tree, oid_ref, handler, writable=False):
    tree.register(oid_ref, handler, writable)


def define_scalar(tree, registry, name, supplier):
    """Serve a scalar: instance 0, value recomputed on every query."""
    ref = registry.resolve(name)

    def handler(ctx, rest_ids):
        if not rest_ids:
            return 0
        if tuple(rest_ids) == (0,):
            return supplier(ctx)
        return None

    tree.register(ref, handler)
    return ref


def define_table_column(tree, registry, name, fn):
    """Serve one table column; fn follows the ChildSpec protocol."""
    ref = registry.resolve(name)
    tree.register(ref, fn)
    return ref


def _read(handler, ctx, rest):
    """handler's value for the instance at rest ids, or None."""
    try:
        return handler(ctx, rest)
    except Exception:
        return None


def _children(handler, ctx):
    """A handler's instances for one request, as sorted rest-id tuples.

    A count N > 0 stays a range of the single arcs 1..N, never expanded.
    None when the handler has no instances, its probe raises or its
    ChildSpec holds an arc that is not an int.
    """
    try:
        spec = handler(ctx, ())
        if spec is None:
            return None
        if isinstance(spec, int) and spec:
            return range(1, spec + 1)
        children = expand_children(spec)
    except Exception:
        return None
    if not all(isinstance(a, int) for rest in children for a in rest):
        return None
    return sorted(children)


def _children_after(children, key):
    """Rest ids in children greater than key, in order; all if key is None."""
    if isinstance(children, range):
        start = max(children.start, key[0] + 1) if key else children.start
        return zip(range(start, children.stop))  # as 1-tuples
    start = 0 if key is None else bisect.bisect_right(children, key)
    return islice(children, start, None)


def dispatch(tree, pdu, ctx, version=V2C, limit=MAX_UDP_PAYLOAD):
    """Process one request PDU and build the response PDU.

    Errors are in-band: v1 sets error-status/index, v2c uses per-binding
    exception values.  GETBULK under v1 answers genErr, and so does a PDU
    that is not a request (Response, Report, SNMPv2-Trap, InformRequest),
    which handle_datagram drops before it gets here.  limit is the most
    octets the reply's answers may take; GETBULK cuts its answer to the
    whole repetitions that fit it, and answers tooBig when none does.
    """
    handler = _DISPATCH.get(pdu.pdu_type)
    if handler is None or version == V1 and pdu.pdu_type == GET_BULK_REQUEST:
        return messages.response_for(pdu, list(pdu.bindings), GEN_ERR, 0)
    return handler(tree, pdu, ctx, version, limit)


def _dispatch_get(tree, pdu, ctx, version, limit):
    out = []
    for i, vb in enumerate(pdu.bindings):
        arcs = vb.name.arcs
        found = tree.find(arcs)
        value = None
        if found is not None:
            base, handler, _ = found
            rest = arcs[len(base):]
            if rest:  # the base itself is not an instance
                value = _read(handler, ctx, rest)
        if value is None:
            if version == V1:
                return messages.response_for(pdu, list(pdu.bindings),
                                             NO_SUCH_NAME, i + 1)
            marker = ber.NO_SUCH_INSTANCE if found else ber.NO_SUCH_OBJECT
            out.append(VarBind(vb.name, marker))
        else:
            out.append(VarBind(vb.name, value))
    return messages.response_for(pdu, out)


def _instances_after(tree, arcs, ctx, memo):
    """The instances after arcs that read a value, in order, as
    (base, rest, octets, value): the handler's base, the rest ids, the
    name's content octets and the value.

    Starts at the base covering arcs, or else the next base.  memo maps
    each base probed during this request to its _children and its content
    octets, so a request probes a handler and encodes a base at most once.
    The name's octets are the base's and then the rest ids'; they are
    None, so that the name is encoded from its arcs, when the base has
    fewer than two arcs or no BER form, or a rest id is negative.
    """
    arcs = tuple(arcs)
    bases, entries = tree._view
    i = bisect.bisect_right(bases, arcs)
    if i and arcs[:len(bases[i - 1])] == bases[i - 1]:
        i -= 1
    for base, handler, _ in entries[i:]:
        if base not in memo:
            try:  # a one-arc base's octets hold a second arc, 0
                head = ber._encode_oid_content(base) if len(base) > 1 \
                    else None
            except EncodingError:
                head = None
            memo[base] = _children(handler, ctx), head
        children, head = memo[base]
        if children is None:
            continue
        key = arcs[len(base):] if arcs[:len(base)] == base else None
        for rest in _children_after(children, key):
            value = _read(handler, ctx, rest)
            if value is not None:
                try:
                    octets = head and head + ber.subid_octets(rest)
                except EncodingError:  # a negative rest id
                    octets = None
                yield base, rest, octets, value


def _dispatch_next(tree, pdu, ctx, version, limit):
    """Each binding's answer: the first instance after it that reads a
    value, or endOfMibView under the binding's own name past the end of
    the view.  Under v1 the end of the view is noSuchName, and no later
    binding is read."""
    memo, out = {}, []
    for i, vb in enumerate(pdu.bindings):
        found = next(_instances_after(tree, vb.name.arcs, ctx, memo), None)
        if found is not None:
            base, rest, octets, value = found
            out.append(VarBind(ber._oid(base + rest, octets), value))
        elif version == V1:
            return messages.response_for(pdu, list(pdu.bindings),
                                         NO_SUCH_NAME, i + 1)
        else:
            out.append(VarBind(vb.name, ber.END_OF_MIB_VIEW))
    return messages.response_for(pdu, out)


# The fewest octets a binding's TLV takes: SEQUENCE, a one-octet OID and
# NULL.  An answer with no BER form counts as this many, so that answers
# that all fail still pass a reply's limit.
_LEAST_BINDING = 7


def _dispatch_bulk(tree, pdu, ctx, version, limit):
    """Non-repeaters first, then the repeaters' answers repetition by
    repetition (r1v1, r1v2, r2v1, ...; RFC 3416 section 4.2.3), each
    encoded as it is read, as ber.EncodedBindings.

    Each binding steps one live _instances_after.  A binding past the end
    of the view answers endOfMibView under the name it answered last, a
    repeater in every later repetition; the reply ends with the repetition
    in which the last repeater reaches the end.  No handler is called
    after the first repetition whose answers pass limit octets: that
    repetition is dropped, and the reply keeps the whole ones before it,
    or is tooBig when it keeps none.  An answer with no BER form, the
    dropped repetition's included, makes the reply genErr, indexing the
    first request binding one of whose answers read failed."""
    memo = {}
    names = [vb.name for vb in pdu.bindings]
    head = min(max(0, pdu.non_repeaters), len(names))
    steps = [_instances_after(tree, name.arcs, ctx, memo) for name in names]
    out, size, failed = ber.EncodedBindings(), 0, len(names)
    kept = 0  # the answers up to the end of the last row that fits
    binding, append = ber.encode_binding, out.append
    live = len(names) - head  # repeaters not yet past the end of the view
    for row in chain([range(head)], repeat(range(head, len(names)),
                                           max(0, pdu.max_repetitions))):
        for j in row:
            step = steps[j]
            found = step and next(step, None)
            if found:
                base, rest, octets, value = found
                names[j] = octets or ber._oid(base + rest)
            else:
                if step is not None and j >= head:
                    live -= 1
                steps[j] = None
                value = ber.END_OF_MIB_VIEW
            try:
                tlv = binding(names[j], value)
            except Exception:  # no BER form
                failed = min(failed, j)
                size += _LEAST_BINDING
            else:
                append(tlv)
                size += len(tlv)
        if size > limit:
            break
        kept = len(out)
        if not live:
            break
    if failed < len(names):
        return messages.response_for(pdu, list(pdu.bindings), GEN_ERR,
                                     failed + 1)
    if size > limit:
        if kept <= head:  # no repetition fits
            return messages.response_for(pdu, [], TOO_BIG)
        del out[kept:]
    return messages.response_for(pdu, out)


def _dispatch_set(tree, pdu, ctx, version, limit):
    """A name that no writable handler covers answers notWritable (RFC
    3416 section 4.2.5, steps 2 and 9), or readOnly under v1."""
    found = [tree.find(vb.name.arcs) for vb in pdu.bindings]
    for i, entry in enumerate(found):
        if entry is None or not entry[2]:
            return messages.response_for(
                pdu, list(pdu.bindings),
                READ_ONLY if version == V1 else NOT_WRITABLE, i + 1)
    out = []
    for i, (vb, (base, handler, _)) in enumerate(zip(pdu.bindings, found)):
        rest = vb.name.arcs[len(base):]
        try:
            value = handler(ctx, rest, vb.value)
        except Exception:  # error-index names the binding that failed
            return messages.response_for(pdu, list(pdu.bindings), GEN_ERR,
                                         i + 1)
        out.append(VarBind(vb.name, value))
    return messages.response_for(pdu, out)


_DISPATCH = {
    GET_REQUEST: _dispatch_get,
    GET_NEXT_REQUEST: _dispatch_next,
    GET_BULK_REQUEST: _dispatch_bulk,
    SET_REQUEST: _dispatch_set,
}


class LocalEngine:
    """An SNMPv3 engine with one user.  engine, a usm.EngineState, holds
    the user's keys and the engine clock, which authentic requests alone
    move forward.  report_count and auth_count count the Reports sent and
    the requests that passed every check."""

    def __init__(self, engine_id, credential, boots, engine_time):
        self.engine_id = bytes(engine_id)
        self.credential = credential
        self.engine = usm.EngineState()
        self.engine.adopt(engine_id, boots, engine_time, credential)
        self.report_count = 0
        self.auth_count = 0

    def open(self, msg, wire):
        """msg's scoped PDU, its names left as content octets
        (messages.OCTET_NAMES), or the octets of the Report that refuses
        it, after the checks of RFC 3414 section 3.2 in its order: engine
        id (step 3), user (4), security level (5), digest (6), time window
        (7).  A refused msg whose reportable flag is clear gets None, no
        Report (RFC 3412 section 7.2), and so, before any check, does one
        whose msgSecurityModel is not USM (step 4 there).  Raises
        SnmpKitError when the scoped PDU does not decrypt."""
        if msg.msg_security_model != messages.SECURITY_MODEL_USM:
            return None
        params, flags = msg.usm, 0
        if params.engine_id != self.engine_id:
            stats = messages.USM_STATS_UNKNOWN_ENGINE_IDS
        elif params.user_name != self.credential.user.encode():
            stats = messages.USM_STATS_UNKNOWN_USER_NAMES
        elif msg.flags & (FLAG_AUTH | FLAG_PRIV) != \
                self.credential.security_flags:
            stats = messages.USM_STATS_UNSUPPORTED_SEC_LEVELS
        else:
            try:
                scoped = usm.unprotect(msg, wire, self.engine,
                                       messages.OCTET_NAMES)
            except NotInTimeWindowError:  # an authenticated Report
                stats = messages.USM_STATS_NOT_IN_TIME_WINDOWS
                flags = FLAG_AUTH
            except AuthenticationError:
                stats = messages.USM_STATS_WRONG_DIGESTS
            else:
                self.auth_count += 1
                return scoped
        if not msg.flags & FLAG_REPORTABLE:
            return None
        self.report_count += 1
        request_id = getattr(msg.scoped_pdu and msg.scoped_pdu.pdu,
                             "request_id", 0)
        return self.seal(msg, flags, b"", Pdu(REPORT, request_id, bindings=[
            VarBind(ber.Oid(stats), ber.Counter32(1))]))

    def frame(self, msg, flags, context_name, pdu):
        """The usm.Frame of a reply to msg carrying pdu, to be secured as
        flags ask: measured as it will go out, and not yet secured."""
        return usm.frame(self._reply(msg, flags, context_name, pdu))

    def _reply(self, msg, flags, context_name, pdu):
        params = UsmParams(self.engine_id, self.engine.engine_boots,
                           self.engine.engine_time, msg.usm.user_name)
        return V3Message(msg.msg_id, flags, params, ScopedPdu(
            self.engine_id, context_name, pdu))

    def seal(self, msg, flags, context_name, pdu):
        """The octets of a reply to msg carrying pdu, secured as flags ask."""
        return self.frame(msg, flags, context_name, pdu).seal(self.engine)


def handle_datagram(tree, ctx, data, engine=None):
    """Full message-level handling of one inbound datagram.

    Returns the reply bytes, or None when the datagram is dropped: it does
    not decode or decrypt, its community is wrong, its PDU is not a
    request, or it is v3 and engine, the LocalEngine that answers v3, is
    None.  Request names are decoded as content octets, and read through
    ctx.registry, which keeps them, or as ber.Oids when it is None, only
    once the community or engine.open has passed the request, so a sender
    that fails those checks leaves no name in ctx.registry.  The limit is
    MAX_UDP_PAYLOAD, or a v3 request's smaller msgMaxSize; a GETBULK
    answer is cut in dispatch, to the room that messages.answers_room (or
    usm.answers_room under v3) gives the reply's frame at that limit.  The
    response is framed once and sent as it is when it encodes and is no
    longer than the limit; _fitted makes any other genErr or tooBig.  A v3
    reply is engine._reply's message, framed by usm.frame as engine.frame
    frames Reports, and measured before it is secured once.
    """
    ctx.in_pkts += 1
    try:
        msg = messages.decode_message(data, messages.OCTET_NAMES)
        if isinstance(msg, messages.CommunityMessage):
            if msg.community != messages.community_octets(ctx.community):
                return None
            pdu, version, limit = msg.pdu, msg.version, MAX_UDP_PAYLOAD
            encode, answers_room, seal = \
                messages.encode_message, messages.answers_room, bytes

            def reply(response):
                return messages.CommunityMessage(
                    msg.version, msg.community, response)
        elif engine is None:
            return None
        else:
            scoped = engine.open(msg, data)
            if not isinstance(scoped, ScopedPdu):  # a Report, or None
                return scoped
            pdu, version = scoped.pdu, V3
            limit = min(msg.msg_max_size, MAX_UDP_PAYLOAD)
            flags = engine.credential.security_flags
            encode, answers_room = usm.frame, usm.answers_room

            def reply(response):
                return engine._reply(msg, flags, scoped.context_name, response)

            def seal(framed):
                return framed.seal(engine.engine)
        if not isinstance(pdu, Pdu) or pdu.pdu_type not in _DISPATCH:
            return None  # a trap, an inform, a response or a report
        read = ber.read_oid if ctx.registry is None else ctx.registry.read
        near = None
        for vb in pdu.bindings:
            vb.name = near = read(vb.name, near)
    except SnmpKitError:
        return None

    def frame(response):
        return encode(reply(response))
    room = limit
    if pdu.pdu_type == GET_BULK_REQUEST:
        room = answers_room(reply(messages.response_for(pdu, [])), limit)
    response = dispatch(tree, pdu, ctx, version, room)
    try:
        framed = frame(response)
    except Exception:  # a handler's value has no BER form
        framed = None
    if framed is None or len(framed) > limit:
        framed = _fitted(pdu, response, limit, frame, framed)
    return seal(framed)


def _fitted(pdu, response, limit, frame, framed):
    """The frame of the reply to pdu that replaces response, which does
    not encode, or whose frame, framed, is longer than limit octets
    (RFC 3416 sections 4.2.1-4.2.3): genErr, indexing the request binding
    of response's first answer with no BER form, when that fits, and
    otherwise tooBig."""
    if framed is None:  # an answer has no BER form
        for k, vb in enumerate(response.bindings):
            try:
                ber.encode_binding(vb.name, vb.value)
            except Exception:
                framed = frame(messages.response_for(
                    pdu, list(pdu.bindings), GEN_ERR, k + 1))
                if len(framed) <= limit:
                    return framed
                break
    return frame(messages.response_for(pdu, [], TOO_BIG))


class ServiceHandle:
    """A running background SNMP service.  Only stop(), which is
    idempotent, ends it; a socket error is skipped."""

    def __init__(self, tree, ctx):
        self.tree = tree
        self.ctx = ctx
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.bind((ctx.address, ctx.port))
        except OSError as exc:
            self._sock.close()
            raise TransportError(
                f"cannot bind {ctx.address}:{ctx.port}: {exc}") from exc
        self.bound_address = self._sock.getsockname()
        self._sock.settimeout(0.2)
        self._running = True
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name=f"snmp-agent:{ctx.port}")
        self._thread.start()

    def _loop(self):
        while self._running:
            try:
                data, peer = self._sock.recvfrom(messages.MAX_UDP_PAYLOAD)
            except OSError:  # a timeout, a socket error, or stop()
                continue
            reply = handle_datagram(self.tree, self.ctx, data)
            if reply is not None and self._running:
                try:
                    self._sock.sendto(reply, peer)
                except OSError:
                    pass

    @property
    def running(self):
        return self._running

    def stop(self):
        if self._running:
            self._running = False
            self._sock.close()
            self._thread.join(timeout=2)

    def __repr__(self):
        host, port = self.bound_address[:2]
        return f"<SnmpService at {host}:{port}>"


def enable_service(port=None, address=None, community=None, tree=None,
                   ctx=None, registry=None):
    """Start a background v1/v2c service; returns a stoppable handle.

    A given ctx keeps its port, address and community, except those passed
    here; without one, a new AgentContext's defaults apply.
    """
    if ctx is None:
        if registry is None:
            from .mibs import default_registry
            registry = default_registry()
        ctx = AgentContext(registry=registry)
    for attr, value in (("port", port), ("address", address),
                        ("community", community)):
        if value is not None:
            setattr(ctx, attr, value)
    if tree is None:
        tree = DispatchTree()
        install_system_group(tree, ctx)
        install_enterprise_mib(tree, ctx)
    return ServiceHandle(tree, ctx)


def disable_service(handle):
    handle.stop()


# ---------------------------------------------------------------------------
# Built-in variable groups


def install_system_group(tree, ctx):
    """The six system-group scalars every walkable agent answers."""
    registry = ctx.registry

    def impl_descr(ctx):
        return ber.OctetString(
            f"{platform.python_implementation()} {platform.python_version()} "
            f"on {ctx.name}".encode())

    agent_oid = registry.resolve("appAgent")
    define_scalar(tree, registry, "sysDescr", impl_descr)
    define_scalar(tree, registry, "sysObjectID",
                  lambda ctx: ber.Oid(agent_oid.arcs))
    define_scalar(tree, registry, "sysUpTime", lambda ctx: ctx.uptime_ticks())
    define_scalar(tree, registry, "sysContact",
                  lambda ctx: ber.OctetString(ctx.contact.encode()))
    define_scalar(tree, registry, "sysName",
                  lambda ctx: ber.OctetString(ctx.name.encode()))
    define_scalar(tree, registry, "sysLocation",
                  lambda ctx: ber.OctetString(ctx.location.encode()))


def _feature_names():
    import sys
    return sorted(name for name in sys.modules if "." not in name)


def install_enterprise_mib(tree, ctx):
    """Runtime info of the host process under the enterprise subtree."""
    registry = ctx.registry
    define_scalar(tree, registry, "appImplementationType",
                  lambda ctx: ber.OctetString(
                      platform.python_implementation().encode()))
    define_scalar(tree, registry, "appImplementationVersion",
                  lambda ctx: ber.OctetString(platform.python_version().encode()))
    define_scalar(tree, registry, "appHostName",
                  lambda ctx: ber.OctetString(socket.gethostname().encode()))
    define_scalar(tree, registry, "appUptime", lambda ctx: ctx.uptime_ticks())
    define_scalar(tree, registry, "appUniversalTime",
                  lambda ctx: ber.OctetString(
                      time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()).encode()))

    def feature_column(as_name):
        def column(ctx, ids):
            names = _feature_names()
            if not ids:
                return len(names)
            if len(ids) == 1 and 1 <= ids[0] <= len(names):
                return ber.OctetString(names[ids[0] - 1].encode()) \
                    if as_name else ids[0]
            return None
        return column

    for name, as_name in (("appFeatureIndex", False), ("appFeatureName", True)):
        define_table_column(tree, registry, name, feature_column(as_name))


def install_if_table(tree, registry, rows):
    """Serve an ifTable from static row dicts (demo/test data).

    Each row maps column names (ifIndex, ifDescr, ...) to values; row
    indices are 1..len(rows).
    """
    from .smi import table_schema

    _, entry, schema = table_schema(registry, "ifTable")

    def make_handler(column):
        def handler(ctx, ids):
            if not ids:
                return len(rows)
            if len(ids) == 1 and 1 <= ids[0] <= len(rows):
                return rows[ids[0] - 1].get(column)
            return None
        return handler

    for column, _syntax in schema.columns:
        define_table_column(tree, registry, column, make_handler(column))


def demo_if_rows():
    """Two plausible interfaces for the bundled demo/test table."""
    zero = ber.Oid((0, 0))
    base = {
        "ifType": 6, "ifMtu": 1500, "ifAdminStatus": 1, "ifOperStatus": 1,
        "ifLastChange": ber.TimeTicks(0), "ifInOctets": ber.Counter32(0),
        "ifInUcastPkts": ber.Counter32(0), "ifInNUcastPkts": ber.Counter32(0),
        "ifInDiscards": ber.Counter32(0), "ifInErrors": ber.Counter32(0),
        "ifInUnknownProtos": ber.Counter32(0),
        "ifOutOctets": ber.Counter32(0), "ifOutUcastPkts": ber.Counter32(0),
        "ifOutNUcastPkts": ber.Counter32(0), "ifOutDiscards": ber.Counter32(0),
        "ifOutErrors": ber.Counter32(0), "ifOutQLen": ber.Gauge32(0),
        "ifSpecific": zero,
    }
    lo = dict(base, ifIndex=1, ifDescr=ber.OctetString(b"lo"),
              ifType=24, ifMtu=65536, ifSpeed=ber.Gauge32(10000000),
              ifPhysAddress=ber.OctetString(b""))
    eth = dict(base, ifIndex=2, ifDescr=ber.OctetString(b"eth0"),
               ifSpeed=ber.Gauge32(1000000000),
               ifPhysAddress=ber.OctetString(bytes.fromhex("0242ac110002")),
               ifInOctets=ber.Counter32(123456), ifOutOctets=ber.Counter32(654321))
    return [lo, eth]
