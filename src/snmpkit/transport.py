"""Portable UDP endpoint with RTT-adaptive retransmission.

The exchange loop is written against a small endpoint interface
(send/receive/close) plus an injectable clock, so the deterministic
loopback harness can drive it without real sockets or sleeping.
"""

from __future__ import annotations

import socket
import time

from .errors import EndpointClosedError, ExchangeTimeout, TransportError
from .messages import MAX_UDP_PAYLOAD

RTO_MIN = 2.0
RTO_MAX = 60.0
DEFAULT_MAX_RETRIES = 5

ALPHA = 1 / 8
BETA = 1 / 4


class RttEstimator:
    """Smoothed RTT / RTT variance with a clamped retransmission timeout."""

    def __init__(self, rto_min=RTO_MIN, rto_max=RTO_MAX,
                 max_retries=DEFAULT_MAX_RETRIES):
        if rto_min > rto_max:
            raise TransportError("rto_min exceeds rto_max")
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.max_retries = max_retries
        self.srtt = None
        self.rttvar = None
        self.rto = rto_min

    def _clamp(self, value):
        return min(self.rto_max, max(self.rto_min, value))

    def update(self, sample):
        """Feed one round-trip sample (seconds, > 0)."""
        if sample <= 0:
            raise TransportError(f"non-positive RTT sample {sample}")
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = (1 - BETA) * self.rttvar + BETA * abs(self.srtt - sample)
            self.srtt = (1 - ALPHA) * self.srtt + ALPHA * sample
        self.rto = self._clamp(self.srtt + 4 * self.rttvar)


class UdpEndpoint:
    """A datagram socket associated with one peer."""

    def __init__(self, host, port):
        try:
            infos = socket.getaddrinfo(host, port, type=socket.SOCK_DGRAM)
        except socket.gaierror as exc:
            raise TransportError(f"cannot resolve {host!r}: {exc}") from exc
        family, kind, proto, _, addr = infos[0]
        self.peer = (host, port)
        self._sock = socket.socket(family, kind, proto)
        try:
            self._sock.connect(addr)
        except OSError as exc:
            self._sock.close()
            raise TransportError(f"cannot open endpoint to {host}:{port}: {exc}") from exc
        self.closed = False

    @property
    def local_address(self):
        return self._sock.getsockname()

    def send(self, payload):
        if self.closed:
            raise EndpointClosedError("send on closed endpoint")
        try:
            self._sock.send(payload)
        except ConnectionRefusedError:
            pass  # ICMP port-unreachable: same as silence, let the RTO run

    def receive(self, timeout):
        """One datagram within timeout seconds, or None."""
        if self.closed:
            raise EndpointClosedError("receive on closed endpoint")
        deadline = time.monotonic() + max(timeout, 0.0001)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self._sock.settimeout(remaining)
            try:
                return self._sock.recv(MAX_UDP_PAYLOAD)
            except socket.timeout:
                return None
            except (ConnectionRefusedError, ConnectionResetError):
                continue  # ICMP unreachable: keep waiting out the timeout
            except OSError as exc:
                if self.closed:
                    raise EndpointClosedError("endpoint closed mid-wait") from exc
                raise

    def close(self):
        if not self.closed:
            self.closed = True
            self._sock.close()


def open_endpoint(host, port):
    return UdpEndpoint(host, port)


def exchange(endpoint, payload, estimator, match, clock=time.monotonic):
    """Send payload and wait for a matching datagram, retransmitting on timeout.

    The identical bytes are resent up to max_retries times with the timeout
    doubled (and clamped) per retry.  Non-matching datagrams are discarded.
    RTT samples are only taken from exchanges that needed no retransmission
    (Karn's rule).
    """
    if len(payload) > MAX_UDP_PAYLOAD:
        raise TransportError(f"payload of {len(payload)} bytes exceeds UDP limit")
    rto = estimator.rto
    attempts = estimator.max_retries + 1
    for attempt in range(attempts):
        if getattr(endpoint, "closed", False):
            raise EndpointClosedError("exchange on closed endpoint")
        endpoint.send(payload)
        sent_at = clock()
        deadline = sent_at + rto
        while True:
            remaining = deadline - clock()
            if remaining <= 0:
                break
            data = endpoint.receive(remaining)
            if data is None:
                break
            if match(data):
                if attempt == 0:
                    sample = clock() - sent_at
                    if sample > 0:
                        estimator.update(sample)
                return data
        rto = min(rto * 2, estimator.rto_max)
    raise ExchangeTimeout(attempts)
