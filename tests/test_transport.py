import socket
import threading

import pytest

from snmpkit import transport
from snmpkit.errors import EndpointClosedError, ExchangeTimeout, TransportError
from snmpkit.harness import FakeChannel, LoopbackEndpoint, VirtualClock


class TestRttEstimator:
    def test_first_sample(self):
        est = transport.RttEstimator()
        est.update(8.0)
        assert est.srtt == 8.0
        assert est.rttvar == 4.0
        assert est.rto == min(60.0, 8.0 + 16.0)

    def test_jacobson_update(self):
        est = transport.RttEstimator()
        est.update(8.0)
        est.update(4.0)
        # rttvar' = 3/4*4 + 1/4*|8-4| = 4 ; srtt' = 7/8*8 + 1/8*4 = 7.5
        assert est.rttvar == pytest.approx(4.0)
        assert est.srtt == pytest.approx(7.5)
        assert est.rto == pytest.approx(7.5 + 16.0)

    def test_rto_clamped_low(self):
        est = transport.RttEstimator()
        est.update(0.01)
        assert est.rto == transport.RTO_MIN == 2.0

    def test_rto_clamped_high(self):
        est = transport.RttEstimator()
        est.update(100.0)
        assert est.rto == transport.RTO_MAX == 60.0

    def test_non_positive_sample_rejected(self):
        est = transport.RttEstimator()
        with pytest.raises(TransportError):
            est.update(0)

    def test_bad_bounds(self):
        with pytest.raises(TransportError):
            transport.RttEstimator(rto_min=5, rto_max=1)


def _echo_responder(data):
    return b"echo:" + data


class TestExchangeWithHarness:
    def _fabric(self, **opts):
        clock = VirtualClock()
        channel = FakeChannel(_echo_responder, clock, **opts)
        return LoopbackEndpoint(channel), channel, clock

    def test_clean_exchange(self):
        endpoint, channel, clock = self._fabric()
        est = transport.RttEstimator()
        reply = transport.exchange(endpoint, b"ping", est,
                                   lambda d: d.startswith(b"echo:"),
                                   clock=clock)
        assert reply == b"echo:ping"
        assert channel.client_sent == 1
        assert channel.exchanges == 1

    def test_drop_first_retransmits_identical_bytes(self):
        endpoint, channel, clock = self._fabric(drop_requests={1})
        seen = []
        channel_send = channel.send

        def spy(data):
            seen.append(bytes(data))
            channel_send(data)

        channel.send = spy
        est = transport.RttEstimator()
        reply = transport.exchange(endpoint, b"ping", est, lambda d: True,
                                   clock=clock)
        assert reply == b"echo:ping"
        assert seen == [b"ping", b"ping"]
        assert channel.dropped == 1

    def test_karns_rule(self):
        endpoint, channel, clock = self._fabric(drop_requests={1})
        est = transport.RttEstimator()
        transport.exchange(endpoint, b"x", est, lambda d: True, clock=clock)
        assert est.srtt is None  # retransmitted exchange takes no sample

    def test_total_loss_timing_and_backoff(self):
        endpoint, channel, clock = self._fabric(loss_probability=1.0)
        est = transport.RttEstimator(rto_min=2.0, rto_max=60.0, max_retries=5)
        start = clock()
        with pytest.raises(ExchangeTimeout) as exc:
            transport.exchange(endpoint, b"x", est, lambda d: True,
                               clock=clock)
        assert exc.value.attempts == 6
        # waits are 2,4,8,16,32,60(clamped): every rto within [2,60]
        expected = 2 + 4 + 8 + 16 + 32 + min(64, 60)
        assert clock() - start == pytest.approx(expected)

    def test_non_matching_datagrams_discarded(self):
        endpoint, channel, clock = self._fabric()
        channel._queue.append((0.0, b"noise"))
        est = transport.RttEstimator()
        reply = transport.exchange(endpoint, b"ping", est,
                                   lambda d: d.startswith(b"echo:"),
                                   clock=clock)
        assert reply == b"echo:ping"

    def test_counter_conservation(self):
        endpoint, channel, clock = self._fabric(loss_probability=0.5, seed=7)
        est = transport.RttEstimator(rto_min=2, rto_max=60, max_retries=10)
        transport.exchange(endpoint, b"a", est, lambda d: True, clock=clock)
        assert channel.client_sent == channel.agent_received + channel.dropped

    def test_seeded_loss_reproducible(self):
        def run(seed):
            endpoint, channel, clock = self._fabric(loss_probability=0.5,
                                                    seed=seed)
            est = transport.RttEstimator(max_retries=10)
            transport.exchange(endpoint, b"a", est, lambda d: True,
                               clock=clock)
            return (channel.client_sent, channel.dropped, clock())

        assert run(3) == run(3)

    def test_oversize_payload_rejected(self):
        endpoint, channel, clock = self._fabric()
        with pytest.raises(TransportError):
            transport.exchange(endpoint, b"x" * 70000,
                               transport.RttEstimator(), lambda d: True,
                               clock=clock)

    def test_closed_endpoint(self):
        endpoint, channel, clock = self._fabric()
        endpoint.close()
        with pytest.raises(EndpointClosedError):
            transport.exchange(endpoint, b"x", transport.RttEstimator(),
                               lambda d: True, clock=clock)


class TestUdpEndpoint:
    def test_round_trip_over_real_socket(self):
        server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        server.bind(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def serve():
            data, peer = server.recvfrom(65507)
            server.sendto(b"pong:" + data, peer)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        endpoint = transport.open_endpoint("127.0.0.1", port)
        try:
            est = transport.RttEstimator(rto_min=2, rto_max=60)
            reply = transport.exchange(endpoint, b"ping", est,
                                       lambda d: d.startswith(b"pong:"))
            assert reply == b"pong:ping"
            assert est.srtt is not None and est.srtt > 0
        finally:
            endpoint.close()
            server.close()

    def test_close_idempotent(self):
        endpoint = transport.open_endpoint("127.0.0.1", 19)
        endpoint.close()
        endpoint.close()
        with pytest.raises(EndpointClosedError):
            endpoint.send(b"x")

    def test_unresolvable_host(self):
        with pytest.raises(TransportError):
            transport.open_endpoint("host.invalid.", 161)
