"""The loopback harness itself: the virtual clock, a FakeChannel's fixed
delay, a closed LoopbackEndpoint and swapping_responder."""

import pytest

from snmpkit import ber, client, harness
from snmpkit.errors import EndpointClosedError


def _echo(data):
    return b"re:" + data


class TestVirtualClock:
    def test_only_moves_forward(self):
        clock = harness.VirtualClock(5.0)
        with pytest.raises(ValueError, match="only moves forward"):
            clock.advance(-0.5)
        assert clock() == 5.0
        clock.advance(0)
        assert clock() == 5.0


class TestDelay:
    def test_get_completes_after_the_delay(self, registry, loopback_agent):
        tree, ctx = loopback_agent
        endpoint, channel, clock = harness.connect(
            harness.agent_responder(tree, ctx), delay=0.05)
        session = client.open_session(
            "loopback", registry=registry,
            **harness.loopback_session_kwargs(endpoint, clock))
        assert client.get(session, "sysName.0") == \
            ber.OctetString(ctx.name.encode())
        assert clock() == 0.05
        assert (channel.client_sent, channel.exchanges,
                channel.client_received) == (1, 1, 1)

    def test_receive_before_delivery_waits_out_its_timeout(self):
        clock = harness.VirtualClock()
        channel = harness.FakeChannel(_echo, clock, delay=0.05)
        channel.send(b"ping")
        assert channel.receive(0.02) is None
        assert clock() == 0.02
        assert channel.client_received == 0
        assert channel.receive(1.0) == b"re:ping"
        assert clock() == pytest.approx(0.05)
        assert channel.client_received == 1


class TestLoopbackEndpoint:
    def test_closed_endpoint_refuses_send_and_receive(self):
        endpoint, channel, clock = harness.connect(_echo)
        endpoint.close()
        with pytest.raises(EndpointClosedError, match="send"):
            endpoint.send(b"ping")
        with pytest.raises(EndpointClosedError, match="receive"):
            endpoint.receive(1.0)
        assert (channel.client_sent, clock()) == (0, 0.0)


class TestSwappingResponder:
    def test_a_dropped_reply_stays_dropped(self):
        seen = []

        def silent(data):
            seen.append(data)

        swap = harness.swapping_responder(silent)
        assert swap(b"request") is None
        assert seen == [b"request"]
