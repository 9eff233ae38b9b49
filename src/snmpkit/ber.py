"""BER (Basic Encoding Rules) codec for the SNMP subset of ASN.1.

Values are plain Python objects where possible (int, bytes, list) plus a
few thin wrapper types for the application-tagged SNMP kinds.

Decoding is a single pass over one buffer.  The input becomes ``bytes``
once; each constructed value decodes its children through (start, end)
offsets into that buffer, so no level copies its payload.  One fixed
value table, DECODERS, maps (class, constructed, number) tag triples to
decoder functions: the universal and application types, the three
exception markers and the nine PDU tags, each a TaggedSequence of its
elements.  DECODERS_BY_OCTET is the same table indexed by identifier
octet, and decode_tlv reads any TLV through them.  Triples with no
decoder decode to Raw, which keeps the original bytes so re-encoding is
byte-identical.  Input nested deeper than MAX_NESTING constructed levels
is a DecodingError.  header reads one TLV header, checking its
identifier octet; messages reads its frames and PDUs with it, a
binding's value by DECODERS_BY_OCTET, and any other value by
decode_tlv.  oid_arcs builds the arcs of an OID whose sub-identifiers
all take one octet from a table of the first two arcs and the other
octets as they are; read_oid makes an Oid of them.  ber keeps no name
between calls: an oids.Registry keeps the names it reads.

Encoding looks up the exact type of a value in a table of encoder
functions, each holding its precomputed tag octets; tlv_encoder builds
one for any tag, _integer_encoder one that writes an int's header and
content in one step (encode_integer for INTEGER), and encode_elements
concatenates the TLVs of several values.  Subclasses, objects with an
``arcs`` attribute, and the rejection of bool go through an isinstance
fallback.  An Encoded value is octets encoded already, written out as
they are; encode_bindings builds one from a list of variable bindings
in one pass, with no [Oid, value] list per binding, and encode_binding
the TLV of one binding, so that EncodedBindings, a list of those, need
only be joined.
An OID whose sub-identifiers all fit one octet becomes its content with
one bytes() call and an isascii() check; otherwise sub-identifiers below
16384 take two octets in one step.

An Oid keeps its content octets: a decoded one the octets it was read
from, one built from arcs those its first encode computes.  Every OID
name and value is written by one rule: from its ``octets`` when it has
them, as an Oid and an oids.OidRef do, else from its ``arcs``.  Decoding
refuses a sub-identifier that begins with a 0x80 octet (X.690 section
8.19.2), so kept octets are always those an encode of the arcs writes,
and equal octets mean equal arcs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from .errors import DecodingError, EncodingError, TruncatedError, UnsupportedFormError

# Tag classes
UNIVERSAL = 0
APPLICATION = 1
CONTEXT = 2
PRIVATE = 3

_CLASS_NAMES = {0: "universal", 1: "application", 2: "context", 3: "private"}


@dataclass(frozen=True)
class Tag:
    cls: int
    constructed: bool
    number: int

    def __post_init__(self):
        if not (0 <= self.cls <= 3):
            raise EncodingError(f"bad tag class {self.cls}")
        if not (0 <= self.number < 2 ** 31):
            raise EncodingError(f"bad tag number {self.number}")

    @property
    def triple(self):
        return (self.cls, 1 if self.constructed else 0, self.number)

    def __repr__(self):
        pc = "constructed" if self.constructed else "primitive"
        return f"Tag({_CLASS_NAMES[self.cls]}, {pc}, {self.number})"


# ---------------------------------------------------------------------------
# Value types

class OctetString(bytes):
    """OCTET STRING; a byte sequence with a text view."""

    def text(self, encoding="utf-8", errors="replace"):
        return self.decode(encoding, errors)


class IpAddress(bytes):
    """Four network-order octets."""

    def __new__(cls, value):
        if isinstance(value, str):
            value = bytes(int(p) for p in value.split("."))
        b = super().__new__(cls, value)
        if len(b) != 4:
            raise EncodingError(f"IpAddress needs 4 octets, got {len(b)}")
        return b

    def text(self):
        return ".".join(str(b) for b in self)


class Opaque(bytes):
    pass


class _Unsigned32(int):
    _limit = 2 ** 32

    def __new__(cls, value):
        v = super().__new__(cls, value)
        if not (0 <= v < cls._limit):
            raise EncodingError(f"{cls.__name__} out of range: {int(v)}")
        return v


class Counter32(_Unsigned32):
    pass


class Gauge32(_Unsigned32):
    pass


class TimeTicks(_Unsigned32):
    def __repr__(self):
        cs = int(self)
        return f"TimeTicks({cs}) {cs // 360000}:{cs // 6000 % 60:02d}:{cs // 100 % 60:02d}.{cs % 100:02d}"


class Counter64(_Unsigned32):
    _limit = 2 ** 64


class _Null:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NULL"

    def __bool__(self):
        return False


NULL = _Null()


class _Marker:
    """Valueless v2c exception marker (noSuchObject and friends)."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


NO_SUCH_OBJECT = _Marker("noSuchObject")
NO_SUCH_INSTANCE = _Marker("noSuchInstance")
END_OF_MIB_VIEW = _Marker("endOfMibView")

EXCEPTION_MARKERS = (NO_SUCH_OBJECT, NO_SUCH_INSTANCE, END_OF_MIB_VIEW)


class Oid:
    """OBJECT IDENTIFIER as a bare arc tuple (registry-free).

    An Oid also keeps its BER content octets: a decoded one the octets it
    was read from, one built from arcs those its first encode computes.
    Equality, hash and repr are the arcs'.  An Oid is immutable: arcs is
    read-only, and no other attribute can be added."""

    __slots__ = ("_arcs", "_octets")

    def __init__(self, arcs):
        self._arcs = tuple(int(a) for a in arcs)
        self._octets = None

    arcs = property(attrgetter("_arcs"), doc="The arcs, a tuple of ints.")

    @property
    def octets(self):
        """The content octets of the OID's TLV, computed at most once."""
        if self._octets is None:
            self._octets = _encode_oid_content(self._arcs)
        return self._octets

    def __reduce__(self):  # copy, deepcopy and pickle rebuild from the arcs
        return Oid, (self._arcs,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._arcs == other._arcs

    def __hash__(self):
        return hash(self._arcs)

    def __repr__(self):
        return "Oid(%s)" % ".".join(str(a) for a in self._arcs)


def _oid(arcs, octets=None):
    """An Oid over a tuple of ints, skipping __init__'s per-arc int(), and
    keeping octets, its content octets when they are known."""
    oid = object.__new__(Oid)
    oid._arcs = arcs
    oid._octets = octets
    return oid


@dataclass(frozen=True)
class TaggedSequence:
    """A constructed value under a non-universal tag (e.g. an SNMP PDU)."""

    tag: Tag
    elements: tuple

    def __init__(self, tag, elements):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "elements", tuple(elements))


class Encoded(bytes):
    """Octets of complete TLVs, which encode writes out as they are."""


class EncodedBindings(list):
    """Variable bindings encoded already, which encode_bindings joins as
    they are: one binding's TLV per item, or, in a request, any run of
    them per item."""


@dataclass(frozen=True)
class Raw:
    """Undecodable TLV kept verbatim; re-encoding returns the exact bytes."""

    tag: Tag
    payload: bytes
    encoded: bytes = field(compare=False, default=b"")


# ---------------------------------------------------------------------------
# Length and tag primitives

_MAX_TAG_NUMBER = 2 ** 31


def encode_length(n):
    """Definite-length field: short form for n <= 127, else minimal long form."""
    if n < 0:
        raise EncodingError(f"negative length {n}")
    if n <= 0x7F:
        return bytes([n])
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def decode_length(data, offset=0):
    """Return (length, consumed).  Rejects the indefinite form 0x80."""
    n, start = _length_at(data, offset, len(data))
    return n, start - offset


def _length_at(data, pos, end):
    """(content length, content start) of the length at data[pos:end]."""
    if pos >= end:
        raise TruncatedError(1, 0)
    n = data[pos]
    pos += 1
    if n & 0x80:
        if n == 0x80:
            raise UnsupportedFormError(
                "indefinite lengths are not used by SNMP")
        k = n & 0x7F
        if pos + k > end:
            raise TruncatedError(k, end - pos)
        n = int.from_bytes(data[pos:pos + k], "big")
        pos += k
    return n, pos


def encode_tag(tag):
    first = (tag.cls << 6) | (0x20 if tag.constructed else 0)
    if tag.number <= 30:
        return bytes([first | tag.number])
    out = [first | 0x1F]
    n = tag.number
    chunk = [n & 0x7F]
    n >>= 7
    while n:
        chunk.append(0x80 | (n & 0x7F))
        n >>= 7
    out.extend(reversed(chunk))
    return bytes(out)


def decode_tag(data, offset=0):
    """Return (Tag, consumed); supports the multi-byte high-tag form."""
    number, consumed = _tag_number(data, offset, len(data))
    first = data[offset]
    return Tag(first >> 6, bool(first & 0x20), number), consumed


def header(data, pos, end, ident, what):
    """(content start, content end) of the TLV at data[pos:end], whose
    identifier octet must be ident; what names it in the DecodingError."""
    if end - pos < 2:
        raise TruncatedError(2, max(0, end - pos))
    if data[pos] != ident:
        raise DecodingError(f"{what} is not tagged {ident:#04x}")
    n, start = data[pos + 1], pos + 2
    if n & 0x80:
        n, start = _length_at(data, pos + 1, end)
    if start + n > end:
        raise TruncatedError(n, end - start)
    return start, start + n


def _tag_number(data, pos, end):
    """(tag number, octets used) of the identifier at data[pos:end]."""
    if pos >= end:
        raise TruncatedError(1, 0)
    number = data[pos] & 0x1F
    consumed = 1
    if number == 0x1F:
        number = 0
        while True:
            if pos + consumed >= end:
                raise TruncatedError(consumed + 1, consumed)
            b = data[pos + consumed]
            consumed += 1
            number = (number << 7) | (b & 0x7F)
            if number >= _MAX_TAG_NUMBER:
                raise DecodingError("tag number does not fit 31 bits")
            if not b & 0x80:
                break
    return number, consumed


def _encode_oid_content(arcs):
    if not arcs:
        return b""
    if len(arcs) == 1:  # as the arc and a 0, so 1 encodes as 1.0
        arcs = (arcs[0], 0)
    if not 0 <= arcs[0] <= 2 or arcs[1] < 0 or \
            (arcs[0] < 2 and arcs[1] > 39):
        raise EncodingError(f"invalid leading OID arcs {arcs[:2]}")
    return subid_octets((arcs[0] * 40 + arcs[1], *arcs[2:]))


def subid_octets(subids):
    """The octets of a tuple of OID sub-identifiers, as in an OID's
    content after its first two arcs."""
    if len(subids) == 1:  # a table row's index, often above 255
        return _encode_subid(subids[0])
    try:
        octets = bytes(subids)
    except ValueError:  # a sub-identifier is negative or above 255
        pass
    else:
        if octets.isascii():  # every sub-identifier fits one octet
            return octets
    if min(subids) < 0:
        raise EncodingError(f"negative OID arc {min(subids)}")
    out = bytearray()
    for sub in subids:
        if sub < 0x80:
            out.append(sub)
        else:
            out += _encode_subid(sub)
    return bytes(out)


def _encode_subid(sub):
    """The octets of one sub-identifier, base 128, high groups first."""
    if sub < 0x80:
        if sub < 0:
            raise EncodingError(f"negative OID arc {sub}")
        return bytes((sub,))
    if sub < 0x4000:
        return bytes((0x80 | sub >> 7, sub & 0x7F))
    chunk = [sub & 0x7F]
    sub >>= 7
    while sub:
        chunk.append(0x80 | (sub & 0x7F))
        sub >>= 7
    return bytes(reversed(chunk))


_MAX_SUBID_OCTETS = 5  # enough for 32 bits; longer ones cost quadratic time


# The first two arcs of each one-octet first sub-identifier (X.690
# section 8.19.4)
_FIRST_ARCS = [(0, b) if b < 40 else (1, b - 40) if b < 80 else (2, b - 80)
               for b in range(0x80)]


def _decode_oid_content(payload):
    """The arcs of OID content octets; oid_arcs reads those whose
    sub-identifiers all take one octet itself."""
    if not payload:
        return ()
    if payload[-1] & 0x80:
        raise DecodingError("truncated OID sub-identifier")
    subids = []
    cur = used = 0
    for b in payload:
        if b < 0x80:
            subids.append(cur | b)
            cur = used = 0
        else:
            if b == 0x80 and not used:  # X.690 section 8.19.2
                raise DecodingError("OID sub-identifier begins with a "
                                    "0x80 octet")
            used += 1
            if used == _MAX_SUBID_OCTETS:
                raise DecodingError("OID sub-identifier longer than "
                                    f"{_MAX_SUBID_OCTETS} octets")
            cur = (cur | b & 0x7F) << 7
    first = subids[0]
    head = _FIRST_ARCS[first] if first < 0x80 else (2, first - 80)
    return head + tuple(subids[1:])


# ---------------------------------------------------------------------------
# Decoders.  Each takes (data, start, end, depth) and returns the value
# whose content is data[start:end]; depth matters only to constructed kinds.

MAX_NESTING = 64  # constructed levels; an SNMP message uses at most six


def _decode_integer(data, start, end, depth):
    if start == end:
        raise DecodingError("empty INTEGER payload")
    return int.from_bytes(data[start:end], "big", signed=True)


def _decode_octet_string(data, start, end, depth):
    return OctetString(data[start:end])


def decode_oid(data, start, end, depth=0):
    """The Oid whose content octets are data[start:end]."""
    return read_oid(data[start:end])


def oid_arcs(octets):
    """The arcs of OID content octets, a bytes object.  When every
    sub-identifier takes one octet, they are the first octet's two from
    _FIRST_ARCS and then the other octets as they are."""
    if octets.isascii() and octets:
        return _FIRST_ARCS[octets[0]] + tuple(octets[1:])
    return _decode_oid_content(octets)


def read_oid(octets, near=None):
    """The Oid of content octets, a bytes object, which it keeps as its
    octets.  near is not used: it lets messages call read_oid and
    oids.Registry.read alike."""
    return _oid(oid_arcs(octets), octets)


def _decode_ip_address(data, start, end, depth):
    if end - start != 4:
        raise DecodingError(f"IpAddress payload of {end - start} octets")
    return bytes.__new__(IpAddress, data[start:end])


def _decode_opaque(data, start, end, depth):
    return Opaque(data[start:end])


def _unsigned_decoder(cls):
    limit = cls._limit

    def decode_unsigned(data, start, end, depth):
        value = int.from_bytes(data[start:end], "big")
        if value >= limit:
            raise DecodingError(f"{cls.__name__} out of range: {value}")
        return int.__new__(cls, value)
    return decode_unsigned


def _constant_decoder(value):
    def decode_constant(data, start, end, depth):
        return value
    return decode_constant


def _raw(data, pos, start, end):
    tag, _ = decode_tag(data, pos)
    return Raw(tag, data[start:end], data[pos:end])


def _decode_sequence(data, pos, end, depth):
    if depth >= MAX_NESTING:
        raise DecodingError(f"nested deeper than {MAX_NESTING} levels")
    depth += 1
    out = []
    append = out.append
    while pos < end:
        value, pos = decode_tlv(data, pos, end, depth)
        append(value)
    return out


def _tagged_sequence_decoder(tag):
    def decode_tagged(data, start, end, depth):
        return TaggedSequence(tag, _decode_sequence(data, start, end, depth))
    return decode_tagged


def decode_tlv(data, pos, end, depth):
    """(value, end of that TLV) of the TLV at data[pos:end], a bytes
    object, at nesting depth depth.  Its decoder comes from
    DECODERS_BY_OCTET by a one-octet identifier, from DECODERS by the
    triple of a high-tag one; a tag in neither reads as Raw."""
    if end - pos < 2:
        raise TruncatedError(2, max(0, end - pos))
    ident = data[pos]
    n = data[pos + 1]
    if ident & 0x1F == 0x1F or n & 0x80:  # a high tag or a long length
        number, used = _tag_number(data, pos, end)
        decoder = DECODERS_BY_OCTET[ident] if used == 1 else \
            DECODERS.get((ident >> 6, ident >> 5 & 1, number))
        n, start = _length_at(data, pos + used, end)
    else:
        decoder, start = DECODERS_BY_OCTET[ident], pos + 2
    stop = start + n
    if stop > end:
        raise TruncatedError(n, end - start)
    if decoder is None:
        return _raw(data, pos, start, stop), stop
    return decoder(data, start, stop, depth), stop


# ---------------------------------------------------------------------------
# The value table

TAG_INTEGER = Tag(UNIVERSAL, False, 2)
TAG_OCTET_STRING = Tag(UNIVERSAL, False, 4)
TAG_NULL = Tag(UNIVERSAL, False, 5)
TAG_OID = Tag(UNIVERSAL, False, 6)
TAG_SEQUENCE = Tag(UNIVERSAL, True, 16)
TAG_IPADDRESS = Tag(APPLICATION, False, 0)
TAG_COUNTER32 = Tag(APPLICATION, False, 1)
TAG_GAUGE32 = Tag(APPLICATION, False, 2)
TAG_TIMETICKS = Tag(APPLICATION, False, 3)
TAG_OPAQUE = Tag(APPLICATION, False, 4)
TAG_COUNTER64 = Tag(APPLICATION, False, 6)

# The decoder of each (class, constructed, number) tag triple that reads
# as a value: the universal and application types, the three exception
# markers and the nine PDU tags, each a TaggedSequence of its elements.
DECODERS = {
    TAG_INTEGER.triple: _decode_integer,
    TAG_OCTET_STRING.triple: _decode_octet_string,
    TAG_NULL.triple: _constant_decoder(NULL),
    TAG_OID.triple: decode_oid,
    TAG_SEQUENCE.triple: _decode_sequence,
    TAG_IPADDRESS.triple: _decode_ip_address,
    TAG_COUNTER32.triple: _unsigned_decoder(Counter32),
    TAG_GAUGE32.triple: _unsigned_decoder(Gauge32),
    TAG_TIMETICKS.triple: _unsigned_decoder(TimeTicks),
    TAG_OPAQUE.triple: _decode_opaque,
    TAG_COUNTER64.triple: _unsigned_decoder(Counter64),
    (CONTEXT, 0, 0): _constant_decoder(NO_SUCH_OBJECT),
    (CONTEXT, 0, 1): _constant_decoder(NO_SUCH_INSTANCE),
    (CONTEXT, 0, 2): _constant_decoder(END_OF_MIB_VIEW),
    **{(CONTEXT, 1, n): _tagged_sequence_decoder(Tag(CONTEXT, True, n))
       for n in range(9)},
}

# DECODERS by identifier octet, None where that octet's tag has no
# decoder; every tag in DECODERS takes one octet, and an octet whose
# number bits are all set (a high tag) maps to none.
DECODERS_BY_OCTET = [DECODERS.get((i >> 6, i >> 5 & 1, i & 0x1F))
                     for i in range(256)]


# ---------------------------------------------------------------------------
# Encoding.  Each encoder takes one value and returns its whole TLV.

def _headers(tag):
    """Tag and length octets for each content length below 128."""
    octets = encode_tag(tag)
    return [octets + bytes((n,)) for n in range(0x80)]


def _long_header(headers, n):
    return headers[0][:-1] + encode_length(n)


def _tlv(tag, content):
    return encode_tag(tag) + encode_length(len(content)) + content


def tlv_encoder(tag):
    """The encoder of TLVs under tag: content octets to the whole TLV."""
    headers = _headers(tag)

    def encode_octets(value):
        n = len(value)
        return (headers[n] if n < 0x80 else _long_header(headers, n)) + value
    return encode_octets


def _integer_encoder(tag):
    """The encoder of INTEGER-kind TLVs under tag: an int to the whole
    TLV, its content the fewest two's-complement octets, header and
    content in one step."""
    headers = _headers(tag)

    def encode_integer(value):
        n = (value if value >= 0 else ~value).bit_length() // 8 + 1
        return (headers[n] if n < 0x80 else _long_header(headers, n)) + \
            value.to_bytes(n, "big", signed=True)
    return encode_integer


encode_integer = _integer_encoder(TAG_INTEGER)
_oid_tlv = tlv_encoder(TAG_OID)
_sequence_tlv = tlv_encoder(TAG_SEQUENCE)
_NULL_TLV = _tlv(TAG_NULL, b"")
_MARKER_TLVS = {
    id(NO_SUCH_OBJECT): _tlv(Tag(CONTEXT, False, 0), b""),
    id(NO_SUCH_INSTANCE): _tlv(Tag(CONTEXT, False, 1), b""),
    id(END_OF_MIB_VIEW): _tlv(Tag(CONTEXT, False, 2), b""),
}
_encode_octet_string = tlv_encoder(TAG_OCTET_STRING)


def _oid_octets(name):
    """The content octets of an OID name or value: the octets it keeps,
    as an Oid and an oids.OidRef do, else those of its arcs."""
    octets = getattr(name, "octets", None)
    if octets is None:
        return _encode_oid_content(tuple(name.arcs))
    return octets


def _encode_oid(value):
    return _oid_tlv(_oid_octets(value))


def encode_elements(values):
    """The TLVs of values, concatenated."""
    get = _ENCODERS.get
    return b"".join([(get(type(v)) or _fallback_encoder(v))(v)
                     for v in values])


def _encode_sequence(value):
    return _sequence_tlv(encode_elements(value))


def _encode_raw(value):
    if value.encoded:
        return bytes(value.encoded)
    return _tlv(value.tag, value.payload)


_ENCODERS = {
    type(None): lambda value: _NULL_TLV,
    _Null: lambda value: _NULL_TLV,
    _Marker: lambda value: _MARKER_TLVS[id(value)],
    int: encode_integer,
    Counter32: _integer_encoder(TAG_COUNTER32),
    Gauge32: _integer_encoder(TAG_GAUGE32),
    TimeTicks: _integer_encoder(TAG_TIMETICKS),
    Counter64: _integer_encoder(TAG_COUNTER64),
    bytes: _encode_octet_string,
    OctetString: _encode_octet_string,
    IpAddress: tlv_encoder(TAG_IPADDRESS),
    Opaque: tlv_encoder(TAG_OPAQUE),
    str: lambda value: _encode_octet_string(value.encode("utf-8")),
    Oid: _encode_oid,
    list: _encode_sequence,
    tuple: _encode_sequence,
    TaggedSequence: lambda value: _tlv(value.tag,
                                       encode_elements(value.elements)),
    Raw: _encode_raw,
    Encoded: bytes,
}


def _fallback_encoder(value):
    """The encoder for a value whose exact type is not in _ENCODERS."""
    if isinstance(value, bool):
        raise EncodingError("cannot encode value kind 'bool'")
    for kind in (int, bytes, str, list, tuple):
        if isinstance(value, kind):
            return _ENCODERS[kind]
    if getattr(value, "arcs", None) is not None:
        return _encode_oid
    raise EncodingError(f"cannot encode value kind {type(value).__name__!r}")


def encode(value):
    """Encode one abstract value into a complete TLV octet string."""
    return (_ENCODERS.get(type(value)) or _fallback_encoder(value))(value)


def encode_binding(name, value):
    """One variable binding's TLV, SEQUENCE { OID, value }.  name is the
    OID's content octets, or an OID name as encode_bindings takes."""
    if not isinstance(name, bytes):
        name = _oid_octets(name)
    return _sequence_tlv(_oid_tlv(name) + (
        _ENCODERS.get(type(value)) or _fallback_encoder(value))(value))


def encode_bindings(bindings):
    """A variable-bindings list, SEQUENCE OF SEQUENCE { OID, value }, as
    Encoded octets built in one pass.  Each binding has a name, written
    from the octets it keeps (an Oid, an oids.OidRef) or else from its
    arcs, and a value, as messages.VarBind does; EncodedBindings are
    joined as they are."""
    if isinstance(bindings, EncodedBindings):
        return Encoded(_sequence_tlv(b"".join(bindings)))
    get = _ENCODERS.get
    tlvs = []
    for vb in bindings:  # encode_binding's work, without a call per binding
        value = vb.value
        tlvs.append(_sequence_tlv(_oid_tlv(_oid_octets(vb.name)) + (
            get(type(value)) or _fallback_encoder(value))(value)))
    return Encoded(_sequence_tlv(b"".join(tlvs)))


# ---------------------------------------------------------------------------
# Decoding

def decode(data, offset=0):
    """Decode one TLV starting at offset; return (value, consumed).

    Malformed input of any kind raises DecodingError.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    value, end = decode_tlv(data, offset, len(data), 0)
    return value, end - offset
