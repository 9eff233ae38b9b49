"""Span tracing of snmpkit from outside, for the traced benchmark run.

``Tracer.install`` replaces public functions of snmpkit's modules, and
methods of ``Registry``, ``DispatchTree``, ``FakeChannel`` and
``ScriptedV3Responder``, with wrappers that record one span per call:
(name, start, end, parent span, op id).  Handlers registered while the
tracer is installed are wrapped through ``DispatchTree.register``.
``uninstall`` puts every original back.  Spans stay in memory until the
run ends; ``layer_metrics`` turns them into the per-layer metrics.

Nothing in snmpkit is edited, and untraced runs never call ``install``.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

from snmpkit import agent, ber, cli, client, harness, messages, mibs, oids, \
    smi, transport, usm
from snmpkit.errors import ExchangeTimeout

SETUP_OP = -1
WARMUP_OP = -2

_DISPATCH_NAMES = {
    messages.GET_REQUEST: "agent.dispatch.get",
    messages.GET_NEXT_REQUEST: "agent.dispatch.getnext",
    messages.GET_BULK_REQUEST: "agent.dispatch.getbulk",
    messages.SET_REQUEST: "agent.dispatch.set",
}

# (module, attribute, span name, outermost only).  The recursive codec
# and resolver are traced at their outermost call only.
_FUNCTIONS = [
    (ber, "encode", "ber.encode", True),
    (ber, "decode", "ber.decode", True),
    (messages, "make_request_pdu", "messages.make_request_pdu", False),
    (messages, "response_for", "messages.response_for", False),
    (mibs, "load_core", "mibs.load_core", False),
    (smi, "compile_text", "smi.compile_text", False),
    (smi, "table_schema", "smi.table_schema", False),
    (usm, "password_to_key", "usm.password_to_key", False),
    (usm, "localize_key", "usm.localize_key", False),
    (usm, "sign", "usm.sign", False),
    (usm, "verify", "usm.verify", False),
    (usm, "encrypt_scoped_pdu", "usm.encrypt_scoped_pdu", False),
    (usm, "decrypt_scoped_pdu", "usm.decrypt_scoped_pdu", False),
    (agent, "handle_datagram", "agent.handle_datagram", False),
    (cli, "format_binding", "cli.format_binding", False),
] + [(client, name, f"client.{name}", False) for name in (
    "open_session", "close_session", "get", "get_next", "set_values",
    "bulk", "walk", "select", "request", "send_pdu")]

_METHODS = [
    (oids.Registry, "resolve", "oids.Registry.resolve", True),
    (agent.DispatchTree, "find", "agent.DispatchTree.find", False),
    (harness.FakeChannel, "send", "harness.FakeChannel.send", False),
    (harness.FakeChannel, "receive", "harness.FakeChannel.receive", False),
    (harness.ScriptedV3Responder, "__call__",
     "harness.ScriptedV3Responder", False),
]


def _bindings_of(msg):
    """The variable bindings a message or scoped PDU carries in clear."""
    pdu = getattr(msg, "pdu", None)
    if pdu is None:
        scoped = getattr(msg, "scoped_pdu", None)
        pdu = scoped.pdu if scoped is not None else None
    return len(getattr(pdu, "bindings", ()))


def _child_count(spec):
    """How many instances a handler's enumeration answer (ChildSpec) names."""
    if spec is None:
        return 0
    return len(agent.expand_children(spec))


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans = []   # (name, start_ns, end_ns, parent index, op id)
        self.stack = []
        self.op = SETUP_OP
        self.counts = Counter()
        self._saved = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, outermost=False, after=None):
        """A traced stand-in for fn.  name may be a function of the call's
        arguments; after(args, result) runs once the span has closed."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        active = [False]
        named = callable(name)

        def traced(*args, **kwargs):
            if outermost and active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[0] = False
                spans[index] = (name(args) if named else name, start, end,
                                parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr, name, outermost=False,
                        after=None):
        """Trace a function everywhere snmpkit bound it, by-name imports too."""
        original = getattr(module, attr)
        traced = self._wrap(name, original, outermost, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("snmpkit") and \
                    mod.__dict__.get(attr) is original:
                self._patch(mod, attr, traced)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        counts = self.counts
        for module, attr, name, outermost in _FUNCTIONS:
            self._patch_function(module, attr, name, outermost)
        for cls, attr, name, outermost in _METHODS:
            self._patch(cls, attr, self._wrap(name, getattr(cls, attr),
                                              outermost))

        # the codec's per-varbind figures need the bindings each message
        # carried in clear
        def encoded(args, result):
            counts["varbinds.encoded"] += _bindings_of(args[0])

        def decoded(args, result):
            counts["varbinds.decoded"] += _bindings_of(
                result[0] if isinstance(result, tuple) else result)

        for attr, after in (("encode_message", encoded),
                            ("encode_scoped_pdu", encoded),
                            ("decode_message", decoded),
                            ("decode_scoped_pdu", decoded)):
            self._patch_function(messages, attr, f"messages.{attr}",
                                 after=after)

        def dispatched(args, response):
            counts["agent.requests"] += 1
            counts["agent.varbinds_returned"] += len(response.bindings)

        self._patch_function(
            agent, "dispatch",
            lambda args: _DISPATCH_NAMES.get(args[1].pdu_type,
                                             "agent.dispatch.other"),
            after=dispatched)

        traced_exchange = self._wrap("transport.exchange", transport.exchange)

        def exchange(endpoint, payload, estimator, match, *args, **kwargs):
            sent = endpoint.channel.client_sent

            def counting_match(data):
                if match(data):
                    return True
                counts["transport.discarded_replies"] += 1
                return False
            try:
                return traced_exchange(endpoint, payload, estimator,
                                       counting_match, *args, **kwargs)
            except ExchangeTimeout:
                counts["transport.timeouts"] += 1
                raise
            finally:
                counts["transport.retransmits"] += \
                    endpoint.channel.client_sent - sent - 1
        self._patch(transport, "exchange", exchange)

        def handled(args, result):
            if len(args) > 2:
                counts["agent.handler_writes"] += 1
            elif args[1]:
                counts["agent.handler_reads"] += 1
            else:
                counts["agent.handler_probes"] += 1
                counts["agent.instances_enumerated"] += _child_count(result)

        register = agent.DispatchTree.register

        def register_traced(tree, oid_ref, handler, writable=False):
            return register(tree, oid_ref,
                            self._wrap("agent.handler", handler, after=handled),
                            writable)
        self._patch(agent.DispatchTree, "register", register_traced)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_op(self, op_id, fn, *args):
        """Run fn as the root span of operation op_id."""
        self.op = op_id
        try:
            return self._wrap("op", fn)(*args)
        finally:
            self.op = SETUP_OP

    # -- results -------------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive and self time (ns), over the
        spans of timed ops (set-up and warm-up spans are left out)."""
        spans = self.spans
        child_time = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        calls, total, own = Counter(), Counter(), Counter()
        for index, (name, start, end, _, op) in enumerate(spans):
            if op < 0:
                continue
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[index]
        return calls, total, own

    def setup_figures(self):
        """Median ms of load_core, and of the compile_text calls inside it."""
        load, compile_ = [], defaultdict(int)
        for name, start, end, parent, op in self.spans:
            if op != SETUP_OP:
                continue
            if name == "mibs.load_core":
                load.append((end - start) / 1e6)
            elif name == "smi.compile_text" and parent >= 0 and \
                    self.spans[parent][0] == "mibs.load_core":
                compile_[parent] += end - start
        return (statistics.median(load) if load else 0.0,
                statistics.median(compile_.values()) / 1e6 if compile_ else 0.0)

    def write(self, path):
        """Write every span as JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(tracer, ops, exchanges):
    """The per-layer metrics of a traced run of `ops` ops and `exchanges`
    request/response pairs.  Per-call figures over zero calls read 0."""
    calls, total, own = tracer.totals()
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call_us(name, table):
        return ratio(table[name], calls[name]) / 1e3

    requests = counts["agent.requests"]
    load_core_ms, compile_ms = tracer.setup_figures()
    return {
        "ber.encode.self_us_per_op": ratio(own["ber.encode"], ops) / 1e3,
        "ber.decode.self_us_per_op": ratio(own["ber.decode"], ops) / 1e3,
        "ber.decode.us_per_varbind":
            ratio(own["ber.decode"], counts["varbinds.decoded"]) / 1e3,
        "ber.encode.us_per_varbind":
            ratio(own["ber.encode"], counts["varbinds.encoded"]) / 1e3,
        "messages.encode_message.calls_per_op":
            ratio(calls["messages.encode_message"], ops),
        "messages.encode_message.self_us_per_call":
            per_call_us("messages.encode_message", own),
        "messages.decode_message.calls_per_op":
            ratio(calls["messages.decode_message"], ops),
        "messages.decode_message.self_us_per_call":
            per_call_us("messages.decode_message", own),
        "messages.make_request_pdu.us_per_call":
            per_call_us("messages.make_request_pdu", total),
        "oids.Registry.resolve.calls_per_op":
            ratio(calls["oids.Registry.resolve"], ops),
        "oids.Registry.resolve.us_per_call":
            per_call_us("oids.Registry.resolve", total),
        "mibs.load_core.ms": load_core_ms,
        "smi.compile_text.ms": compile_ms,
        "smi.table_schema.us_per_call": per_call_us("smi.table_schema", total),
        "usm.password_to_key.calls_per_op":
            ratio(calls["usm.password_to_key"], ops),
        "usm.password_to_key.ms_per_call":
            per_call_us("usm.password_to_key", total) / 1e3,
        "usm.localize_key.calls_per_op": ratio(calls["usm.localize_key"], ops),
        "usm.sign.us_per_call": per_call_us("usm.sign", total),
        "usm.verify.us_per_call": per_call_us("usm.verify", total),
        "usm.encrypt_scoped_pdu.us_per_call":
            per_call_us("usm.encrypt_scoped_pdu", total),
        "usm.decrypt_scoped_pdu.us_per_call":
            per_call_us("usm.decrypt_scoped_pdu", total),
        "transport.exchange.calls_per_op":
            ratio(calls["transport.exchange"], ops),
        "transport.exchange.self_us_per_call":
            per_call_us("transport.exchange", own),
        "transport.retransmits_per_op":
            ratio(counts["transport.retransmits"], ops),
        "transport.timeouts_per_op": ratio(counts["transport.timeouts"], ops),
        "transport.discarded_replies_per_op":
            ratio(counts["transport.discarded_replies"], ops),
        "harness.FakeChannel.self_us_per_exchange":
            ratio(own["harness.FakeChannel.send"]
                  + own["harness.FakeChannel.receive"], exchanges) / 1e3,
        "agent.handle_datagram.us_per_call":
            per_call_us("agent.handle_datagram", total),
        "agent.dispatch.get.self_us": per_call_us("agent.dispatch.get", own),
        "agent.dispatch.getbulk.self_us":
            per_call_us("agent.dispatch.getbulk", own),
        "agent.dispatch.set.self_us": per_call_us("agent.dispatch.set", own),
        "agent.DispatchTree.find.calls_per_request":
            ratio(calls["agent.DispatchTree.find"], requests),
        "agent.handler_probes_per_request":
            ratio(counts["agent.handler_probes"], requests),
        "agent.handler_reads_per_request":
            ratio(counts["agent.handler_reads"], requests),
        "agent.instances_enumerated_per_varbind":
            ratio(counts["agent.instances_enumerated"],
                  counts["agent.varbinds_returned"]),
        "client.self_us_per_op": ratio(sum(
            t for name, t in own.items() if name.startswith("client.")),
            ops) / 1e3,
        "client.requests_per_op": ratio(calls["client.send_pdu"], ops),
        "cli.format_binding.us_per_varbind":
            per_call_us("cli.format_binding", total),
    }
