"""Deterministic in-process test fabric.

A virtual clock, a lossy loopback channel with packet counters, a
scripted SNMPv3 responder and a responder that reorders replies.
Transport-level behavior (retransmission, timeouts, exchange counts)
becomes observable and reproducible without real sockets or sleeping.
"""

from __future__ import annotations

import random

from . import agent as agent_mod, messages
from .errors import EndpointClosedError


class VirtualClock:
    """Explicitly advanced monotonic time source."""

    def __init__(self, start=0.0):
        self.now = float(start)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        if seconds < 0:
            raise ValueError("the clock only moves forward")
        self.now += seconds


class FakeChannel:
    """Loopback datagram path from a client endpoint into a responder.

    Requests may be dropped by ordinal (drop_requests, 1-based) or with a
    seeded probability; delivery is otherwise FIFO and exact.  Counters
    satisfy client_sent == agent_received + dropped.
    """

    def __init__(self, responder, clock=None, drop_requests=(),
                 loss_probability=0.0, seed=0, delay=0.0):
        self.responder = responder
        self.clock = clock or VirtualClock()
        self.drop_requests = set(drop_requests)
        self.loss_probability = loss_probability
        self._rng = random.Random(seed)
        self.delay = delay
        self._queue = []  # [(ready_time, datagram)]
        self.client_sent = 0
        self.client_received = 0
        self.agent_received = 0
        self.agent_sent = 0
        self.dropped = 0

    @property
    def exchanges(self):
        """Completed request/response pairs."""
        return self.agent_sent

    @property
    def total_packets(self):
        """Datagrams put on the wire in either direction."""
        return self.client_sent + self.agent_sent

    def _drop(self):
        if self.client_sent in self.drop_requests:
            return True
        return self.loss_probability > 0 and \
            self._rng.random() < self.loss_probability

    def send(self, data):
        self.client_sent += 1
        if self._drop():
            self.dropped += 1
            return
        self.agent_received += 1
        reply = self.responder(data)
        if reply is not None:
            self.agent_sent += 1
            self._queue.append((self.clock() + self.delay, reply))

    def receive(self, timeout):
        """Next queued datagram within timeout virtual seconds, else None.

        The clock advances to the delivery instant, or by the full
        timeout when nothing arrives — no real time passes either way.
        """
        if self._queue and self._queue[0][0] <= self.clock() + timeout:
            ready, data = self._queue.pop(0)
            if ready > self.clock():
                self.clock.advance(ready - self.clock())
            self.client_received += 1
            return data
        self.clock.advance(timeout)
        return None


class LoopbackEndpoint:
    """Endpoint facade over a FakeChannel; plugs into the exchange loop."""

    def __init__(self, channel):
        self.channel = channel
        self.closed = False
        self.local_address = ("127.0.0.1", 0)

    def send(self, payload):
        if self.closed:
            raise EndpointClosedError("send on closed endpoint")
        self.channel.send(bytes(payload))

    def receive(self, timeout):
        if self.closed:
            raise EndpointClosedError("receive on closed endpoint")
        return self.channel.receive(timeout)

    def close(self):
        self.closed = True


def agent_responder(tree, ctx):
    """Adapt an agent dispatch tree to the channel's responder contract."""
    return lambda data: agent_mod.handle_datagram(tree, ctx, data)


def swapping_responder(responder, first=0, second=1):
    """responder, a v1/v2c one, with bindings first and second of each
    reply that holds both swapped: an agent that reorders its replies."""
    def swap(data):
        reply = responder(data)
        if reply is None:
            return None
        msg = messages.decode_message(reply)
        bindings = msg.pdu.bindings
        if max(first, second) < len(bindings):
            bindings[first], bindings[second] = \
                bindings[second], bindings[first]
        return messages.encode_message(msg)
    return swap


def connect(responder, clock=None, **channel_options):
    """Wire a responder behind a loopback endpoint.

    Returns (endpoint, channel, clock); pass the endpoint to a session
    via transport_factory and share the clock with it.
    """
    clock = clock or VirtualClock()
    channel = FakeChannel(responder, clock, **channel_options)
    return LoopbackEndpoint(channel), channel, clock


def loopback_session_kwargs(endpoint, clock, **extra):
    """Session options that route through the harness deterministically."""
    kwargs = {"transport_factory": lambda host, port: endpoint,
              "clock": clock}
    kwargs.update(extra)
    return kwargs


class ScriptedV3Responder(agent_mod.LocalEngine):
    """A v3 agent over a dispatch tree, as a channel responder: wiring
    over agent.handle_datagram with this engine.  Its counts let tests
    assert the discovery flow (one Report, then authenticated traffic
    only); see LocalEngine.open for the Reports it sends."""

    def __init__(self, tree, ctx, credential,
                 engine_id=b"\x80\x00\x13\x70\x05harness",
                 engine_boots=1, engine_time=1000):
        super().__init__(engine_id, credential, engine_boots, engine_time)
        self.tree = tree
        self.ctx = ctx

    @property
    def auth_key(self):
        return self.engine.auth_key

    @property
    def priv_key(self):
        return self.engine.priv_key

    def __call__(self, data):
        return agent_mod.handle_datagram(self.tree, self.ctx, data, self)
