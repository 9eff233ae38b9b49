"""Exception hierarchy shared by all snmpkit layers."""


class SnmpKitError(Exception):
    """Base class for every error raised by snmpkit."""


class EncodingError(SnmpKitError):
    """A value cannot be serialized to BER."""


class DecodingError(SnmpKitError):
    """An octet stream cannot be parsed back into values."""


class TruncatedError(DecodingError):
    """A length field promises more bytes than the input holds."""

    def __init__(self, needed, have):
        super().__init__(f"truncated input: need {needed} bytes, have {have}")
        self.needed = needed
        self.have = have


class UnsupportedFormError(DecodingError):
    """Indefinite-length (or otherwise unsupported) BER form."""


class OidResolutionError(SnmpKitError):
    """A textual or structured OID spec could not be resolved."""

    def __init__(self, message, segment=None):
        super().__init__(message)
        self.segment = segment


class OidConflictError(SnmpKitError):
    """Registration clashes with a differently-named node at the same arc."""


class MibError(SnmpKitError):
    """Base for SMI compiler problems."""


class MibLexError(MibError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class MibParseError(MibError):
    def __init__(self, message, line=None, column=None, expected=None):
        where = f" at line {line}, column {column}" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line
        self.column = column
        self.expected = expected or ()


class MibLoadError(MibError):
    """A compiled-MIB file cannot be loaded into the registry."""


class NotATableError(MibError):
    """A name does not denote a SEQUENCE OF conceptual table."""


class TransportError(SnmpKitError):
    """Base for datagram endpoint problems."""


class EndpointClosedError(TransportError):
    """I/O attempted on a closed endpoint."""


class ExchangeTimeout(TransportError):
    """All (re)transmissions went unanswered."""

    def __init__(self, attempts):
        super().__init__(f"no response after {attempts} attempt(s)")
        self.attempts = attempts


class SnmpError(SnmpKitError):
    """Base for protocol-level failures."""


class SnmpStatusError(SnmpError):
    """The peer answered with a non-zero error-status."""

    def __init__(self, status, index, status_name):
        super().__init__(f"SNMP error-status {status_name} ({status}) at index {index}")
        self.status = status
        self.index = index
        self.status_name = status_name


class AuthenticationError(SnmpError):
    """An SNMPv3 message failed authentication: its MAC does not verify
    (key mismatch, not loss) or it lies outside the time window.

    msg is the decoded message that failed, so a caller can still tell
    whose message it was.
    """

    def __init__(self, text, msg=None):
        super().__init__(text)
        self.msg = msg


class NotInTimeWindowError(AuthenticationError):
    """An authentic SNMPv3 message is older than the engine clock allows
    (RFC 3414 section 3.2, step 7)."""


class UsmProtocolError(SnmpError):
    """Malformed or unexpected USM/Report traffic during discovery."""
