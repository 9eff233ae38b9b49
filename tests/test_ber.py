import copy
import enum
import pickle
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from snmpkit import ber
from snmpkit.oids import Registry
from snmpkit.errors import (
    DecodingError, EncodingError, TruncatedError, UnsupportedFormError,
)


class TestGoldenVectors:
    def test_integer_10000(self):
        assert ber.encode(10000) == bytes([0x02, 0x02, 0x27, 0x10])

    def test_nested_sequence(self):
        value = [[100, "abc", ber.NULL]]
        expected = bytes([0x30, 0x0C, 0x30, 0x0A, 0x02, 0x01, 0x64,
                          0x04, 0x03, 0x61, 0x62, 0x63, 0x05, 0x00])
        assert ber.encode(value) == expected

    def test_decode_inverts_integer(self):
        value, consumed = ber.decode(bytes([0x02, 0x02, 0x27, 0x10]))
        assert value == 10000 and consumed == 4

    def test_decode_inverts_sequence(self):
        data = ber.encode([[100, "abc", ber.NULL]])
        value, consumed = ber.decode(data)
        assert value == [[100, b"abc", ber.NULL]]
        assert consumed == len(data)

    @pytest.mark.parametrize("n,octets", [
        (0, [0x02, 0x01, 0x00]),
        (127, [0x02, 0x01, 0x7F]),
        (128, [0x02, 0x02, 0x00, 0x80]),
        (256, [0x02, 0x02, 0x01, 0x00]),
        (-1, [0x02, 0x01, 0xFF]),
        (-128, [0x02, 0x01, 0x80]),
        (-129, [0x02, 0x02, 0xFF, 0x7F]),
    ])
    def test_minimal_integer_encodings(self, n, octets):
        assert ber.encode(n) == bytes(octets)


class TestLength:
    def test_short_form(self):
        assert ber.encode_length(0) == b"\x00"
        assert ber.encode_length(127) == b"\x7f"

    def test_long_form(self):
        assert ber.encode_length(128) == b"\x81\x80"
        assert ber.encode_length(300) == b"\x82\x01\x2c"

    def test_round_trip(self):
        for n in (0, 1, 127, 128, 255, 256, 65535, 10 ** 9):
            encoded = ber.encode_length(n)
            value, consumed = ber.decode_length(encoded)
            assert value == n and consumed == len(encoded)

    def test_negative_length_refused(self):
        with pytest.raises(EncodingError, match="negative length -1"):
            ber.encode_length(-1)

    def test_indefinite_form_rejected(self):
        with pytest.raises(UnsupportedFormError):
            ber.decode_length(b"\x80")
        with pytest.raises(UnsupportedFormError):
            ber.decode(b"\x30\x80\x02\x01\x01\x00\x00")


class TestTags:
    def test_high_tag_numbers(self):
        tag = ber.Tag(ber.CONTEXT, False, 1000)
        data = ber.encode_tag(tag)
        decoded, consumed = ber.decode_tag(data)
        assert decoded == tag and consumed == len(data)

    def test_low_tag_round_trip(self):
        for cls in range(4):
            for number in range(31):
                for constructed in (False, True):
                    tag = ber.Tag(cls, constructed, number)
                    decoded, _ = ber.decode_tag(ber.encode_tag(tag))
                    assert decoded == tag

    @pytest.mark.parametrize("cls,number,what", [
        (-1, 0, "class"), (4, 0, "class"),
        (ber.CONTEXT, -1, "number"), (ber.CONTEXT, 2 ** 31, "number")])
    def test_bad_class_or_number_refused(self, cls, number, what):
        with pytest.raises(EncodingError, match=f"bad tag {what}"):
            ber.Tag(cls, False, number)

    @pytest.mark.parametrize("data", [b"", b"\x9f", b"\x9f\x81"])
    def test_decode_tag_of_a_cut_identifier_is_truncated(self, data):
        with pytest.raises(TruncatedError):
            ber.decode_tag(data)


class TestApplicationTypes:
    @pytest.mark.parametrize("value,tag_byte", [
        (ber.IpAddress(b"\xc0\xa8\x01\x01"), 0x40),
        (ber.Counter32(1), 0x41),
        (ber.Gauge32(1), 0x42),
        (ber.TimeTicks(1), 0x43),
        (ber.Opaque(b"x"), 0x44),
        (ber.Counter64(1), 0x46),
    ])
    def test_tag_assignment(self, value, tag_byte):
        assert ber.encode(value)[0] == tag_byte

    def test_round_trip_preserves_type(self):
        for value in (ber.Counter32(42), ber.Gauge32(7),
                      ber.TimeTicks(123456), ber.Counter64(2 ** 63),
                      ber.IpAddress(b"\x0a\x00\x00\x01"), ber.Opaque(b"abc")):
            decoded, _ = ber.decode(ber.encode(value))
            assert type(decoded) is type(value)
            assert decoded == value

    def test_counter64_high_bit_padded(self):
        data = ber.encode(ber.Counter64(2 ** 64 - 1))
        # content must carry a leading zero pad so it reads back unsigned
        assert data[2] == 0x00
        decoded, _ = ber.decode(data)
        assert decoded == 2 ** 64 - 1

    def test_unsigned_range_checked(self):
        with pytest.raises(EncodingError):
            ber.Counter32(2 ** 32)
        with pytest.raises(EncodingError):
            ber.Counter32(-1)
        with pytest.raises(EncodingError):
            ber.Counter64(2 ** 64)

    def test_ipaddress_must_be_4_octets(self):
        with pytest.raises(EncodingError):
            ber.IpAddress(b"\x01\x02\x03")


class TestOidContent:
    def test_known_oid(self):
        data = ber.encode(ber.Oid((1, 3, 6, 1, 2, 1, 1, 1, 0)))
        assert data == bytes([0x06, 0x08, 0x2b, 6, 1, 2, 1, 1, 1, 0])

    def test_multibyte_arcs(self):
        oid = ber.Oid((1, 3, 6, 1, 4, 1, 31609, 1))
        decoded, _ = ber.decode(ber.encode(oid))
        assert decoded == oid

    def test_zero_dot_zero(self):
        decoded, _ = ber.decode(ber.encode(ber.Oid((0, 0))))
        assert decoded.arcs == (0, 0)

    @pytest.mark.parametrize("arcs", [(0,), (1,), (2,)])
    def test_one_arc_reads_back_with_a_zero(self, arcs):
        decoded, _ = ber.decode(ber.encode(ber.Oid(arcs)))
        assert decoded.arcs == arcs + (0,)

    @pytest.mark.parametrize("arcs", [(3,), (7,), (3, 1)])
    def test_first_arc_above_two_is_refused(self, arcs):
        # (3,) once encoded as 06 01 78, which reads back as 2.40
        with pytest.raises(EncodingError, match="invalid leading OID arcs"):
            ber.encode(ber.Oid(arcs))

    @pytest.mark.parametrize("arcs", [(1, -1), (2, -1), (0, -1), (-1,),
                                      (-1, 45)])
    def test_negative_leading_arc_is_refused(self, arcs):
        # (1, -1) once encoded as 06 01 27, which reads back as 0.39
        with pytest.raises(EncodingError, match="invalid leading OID arcs"):
            ber.encode(ber.Oid(arcs))


class TestNullAndMarkers:
    def test_null_singleton(self):
        decoded, _ = ber.decode(ber.encode(ber.NULL))
        assert decoded is ber.NULL
        assert not ber.NULL

    def test_exception_markers(self):
        for marker, tag_byte in ((ber.NO_SUCH_OBJECT, 0x80),
                                 (ber.NO_SUCH_INSTANCE, 0x81),
                                 (ber.END_OF_MIB_VIEW, 0x82)):
            data = ber.encode(marker)
            assert data == bytes([tag_byte, 0x00])

    def test_exception_markers_decode_by_default(self):
        for marker, tag_byte in ((ber.NO_SUCH_OBJECT, 0x80),
                                 (ber.NO_SUCH_INSTANCE, 0x81),
                                 (ber.END_OF_MIB_VIEW, 0x82)):
            assert ber.decode(bytes([tag_byte, 0x00]))[0] is marker

    def test_bool_rejected(self):
        with pytest.raises(EncodingError):
            ber.encode(True)


class TestRaw:
    def test_unknown_tag_decodes_to_raw(self):
        data = bytes([0xC5, 0x03, 1, 2, 3])  # private class, number 5
        decoded, consumed = ber.decode(data)
        assert isinstance(decoded, ber.Raw)
        assert consumed == len(data)
        assert decoded.payload == bytes([1, 2, 3])

    def test_raw_reencodes_byte_identically(self):
        data = bytes([0xC5, 0x03, 1, 2, 3])
        decoded, _ = ber.decode(data)
        assert ber.encode(decoded) == data

    def test_raw_inside_sequence(self):
        inner = bytes([0x9F, 0x51, 0x02, 0xAA, 0xBB])  # high-tag unknown
        data = bytes([0x30, len(inner)]) + inner
        decoded, _ = ber.decode(data)
        assert isinstance(decoded, list) and isinstance(decoded[0], ber.Raw)
        assert ber.encode(decoded) == data


class TestErrors:
    def test_truncated_content(self):
        with pytest.raises(TruncatedError) as exc:
            ber.decode(bytes([0x04, 0x05, 0x61]))
        assert exc.value.needed > exc.value.have

    def test_empty_input(self):
        with pytest.raises(DecodingError):
            ber.decode(b"")

    def test_int_subclass_encodes_as_an_integer(self):
        class Status(enum.IntEnum):
            UP = 1
            DOWN = 300

        assert ber.encode(Status.UP) == b"\x02\x01\x01"
        assert ber.encode(Status.DOWN) == b"\x02\x02\x01\x2c"

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_any_buffer_decodes_as_its_bytes(self, kind):
        data = ber.encode([ber.Oid((1, 3, 6)), b"ab"]) + b"\xc5\x01\x07"
        for offset in (0, len(data) - 3):
            value, consumed = ber.decode(kind(data), offset)
            assert (value, consumed) == ber.decode(data, offset)
        # decoded from bytes, so a Raw hashes and an Oid keeps bytes
        raw = ber.decode(kind(data), len(data) - 3)[0]
        assert hash(raw) == hash(ber.decode(data, len(data) - 3)[0])
        oid = ber.decode(kind(data))[0][0]
        assert type(oid.octets) is bytes

    def test_unencodable_value(self):
        with pytest.raises(EncodingError):
            ber.encode(3.14)


def _oid_arcs():
    return st.tuples(st.integers(0, 2), st.integers(0, 39)).flatmap(
        lambda head: st.lists(st.integers(0, 2 ** 32), max_size=8).map(
            lambda rest: head + tuple(rest)))


_scalars = st.one_of(
    st.integers(-2 ** 63, 2 ** 63),
    st.binary(max_size=64).map(ber.OctetString),
    st.just(ber.NULL),
    st.integers(0, 2 ** 32 - 1).map(ber.Counter32),
    st.integers(0, 2 ** 32 - 1).map(ber.Gauge32),
    st.integers(0, 2 ** 32 - 1).map(ber.TimeTicks),
    st.integers(0, 2 ** 64 - 1).map(ber.Counter64),
    st.binary(min_size=4, max_size=4).map(ber.IpAddress),
    st.binary(max_size=32).map(ber.Opaque),
    _oid_arcs().map(ber.Oid),
)

_values = st.recursive(_scalars, lambda children:
                       st.lists(children, max_size=5), max_leaves=20)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_encode_decode_round_trip(self, value):
        decoded, consumed = ber.decode(ber.encode(value))
        assert consumed == len(ber.encode(value))
        assert decoded == value
        assert type(decoded) is type(value) or isinstance(value, list)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30).filter(lambda n: n not in
                                     {1, 2, 4, 5, 6, 16, 17}),
           st.binary(max_size=32))
    def test_raw_fidelity(self, number, payload):
        data = ber.encode_tag(ber.Tag(ber.PRIVATE, False, number)) + \
            ber.encode_length(len(payload)) + payload
        decoded, _ = ber.decode(data)
        assert isinstance(decoded, ber.Raw)
        assert ber.encode(decoded) == data


def _nested_sequences(levels):
    data = b"\x30\x00"
    for _ in range(levels - 1):
        data = b"\x30" + ber.encode_length(len(data)) + data
    return data


class TestNesting:
    def test_deep_nesting_is_a_decoding_error(self):
        data = _nested_sequences(5000)
        assert 15000 < len(data) < 25000
        with pytest.raises(DecodingError):
            ber.decode(data)

    def test_nesting_bound(self):
        value, _ = ber.decode(_nested_sequences(ber.MAX_NESTING))
        for _ in range(ber.MAX_NESTING - 1):
            value, = value
        assert value == []
        with pytest.raises(DecodingError):
            ber.decode(_nested_sequences(ber.MAX_NESTING + 1))


class TestOutOfRangeInput:
    @pytest.mark.parametrize("data", [
        bytes([0x41, 0x05, 0x01, 0, 0, 0, 0]),        # Counter32 = 2**32
        bytes([0x46, 0x09, 0x01] + [0] * 8),           # Counter64 = 2**64
        bytes([0x9F, 0x88, 0x80, 0x80, 0x80, 0x00, 0x00]),  # tag 2**31
    ])
    def test_rejected_as_decoding_errors(self, data):
        with pytest.raises(DecodingError):
            ber.decode(data)


class TestLongSubIdentifier:
    def test_sub_identifier_octet_limit(self):
        five = bytes([0x06, 0x06, 0x2B, 0x8F, 0xFF, 0xFF, 0xFF, 0x7F])
        assert ber.decode(five)[0] == ber.Oid((1, 3, 2 ** 32 - 1))
        with pytest.raises(DecodingError):
            ber.decode(bytes([0x06, 0x07, 0x2B, 0x81, 0x80, 0x80, 0x80,
                              0x80, 0x00]))

    def test_60000_octet_sub_identifier_is_rejected_fast(self):
        content = b"\x2b" + b"\x81" * 59999 + b"\x01"
        data = b"\x06" + ber.encode_length(len(content)) + content
        start = time.perf_counter()
        with pytest.raises(DecodingError):
            ber.decode(data)
        assert time.perf_counter() - start < 0.01


# Octets that OID contents are made of: the edges of one-octet and
# continued sub-identifiers, a common first sub-identifier, and any octet.
_oid_octets = st.lists(
    st.sampled_from([0x00, 0x01, 0x2B, 0x7F, 0x80, 0x81, 0xFF])
    | st.integers(0, 255), max_size=12).map(bytes)


class TestKeptOctets:
    @pytest.mark.parametrize("content", [
        b"\x2b\x80\x06",          # once read as 1.3.6
        b"\x2b\x80\x80\x01",
        b"\x80\x2b",              # in the first sub-identifier
        b"\x2b\x06\x80\x7f",
    ])
    def test_leading_0x80_sub_identifier_is_refused(self, content):
        data = bytes([0x06, len(content)]) + content
        with pytest.raises(DecodingError, match="0x80"):
            ber.decode(data)

    def test_0x80_inside_a_sub_identifier_is_read(self):
        oid, _ = ber.decode(bytes([0x06, 0x04, 0x2B, 0x81, 0x80, 0x00]))
        assert oid.arcs == (1, 3, 16384)

    @settings(max_examples=500, deadline=None)
    @given(_oid_octets)
    @example(bytes([0x2B, 0x80, 0x06]))
    def test_decoded_octets_are_those_a_fresh_encode_writes(self, content):
        data = bytes([0x06, len(content)]) + content
        try:
            oid, _ = ber.decode(data)
        except DecodingError:
            return
        assert oid.octets == content == ber._encode_oid_content(oid.arcs)
        assert ber.encode(oid) == data == ber.encode(ber.Oid(oid.arcs))

    def test_octets_of_arcs_are_computed_once(self):
        oid = ber.Oid((1, 3, 6, 1, 4, 1, 31609, 16384))
        assert oid.octets is oid.octets
        assert ber.encode(oid) == bytes([0x06, len(oid.octets)]) + oid.octets

    @settings(max_examples=100, deadline=None)
    @given(_oid_arcs())
    def test_equal_octets_mean_equal_arcs(self, arcs):
        oid = ber.Oid(arcs)
        decoded, _ = ber.decode(ber.encode(oid))
        assert decoded.octets == oid.octets and decoded == oid


class TestReadOnce:
    """read_oid makes an Oid of content octets, which it keeps as the
    Oid's own, and ber keeps no name; malformed octets raise each time."""

    @staticmethod
    def _read(content):
        try:
            return ber.decode(bytes([0x06, len(content)]) + content)[0]
        except DecodingError as exc:
            return type(exc), str(exc)

    @settings(max_examples=500, deadline=None)
    @given(_oid_octets)
    @example(b"")
    @example(bytes([0x2B, 0x80, 0x06]))
    @example(bytes([0x2B, 0x06, 0x81]))
    def test_reading_twice_gives_one_oid_or_raises_twice(self, content):
        first, second = self._read(content), self._read(content)
        if isinstance(first, ber.Oid):
            assert second == first and first.octets == content
            assert first == ber.Oid(ber._decode_oid_content(content))
        else:
            assert second == first

    def test_malformed_octets_are_not_kept(self):
        # nor by a registry, which reads names with read_oid's checks
        content = bytes([0x2B, 0x80, 0x06])
        registry = Registry()
        for read in (ber.read_oid, registry.read) * 2:
            with pytest.raises(DecodingError, match="0x80"):
                read(content)
        assert not registry._refs


class TestOidObject:
    def _both(self):
        built = ber.Oid((1, 3, 6, 1, 2, 1, 2, 2, 1, 2, 2 ** 32 - 1))
        decoded, _ = ber.decode(ber.encode(built))
        return built, decoded

    def test_equality_and_hash_are_the_arcs(self):
        built, decoded = self._both()
        assert built == decoded and hash(built) == hash(decoded)
        assert len({built, decoded}) == 1
        assert built != ber.Oid((1, 3, 6))
        assert built != built.arcs

    def test_repr(self):
        assert repr(ber.decode(ber.encode(ber.Oid((1, 3, 128))))[0]) == \
            "Oid(1.3.128)"

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        lambda oid: pickle.loads(pickle.dumps(oid)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_and_encode_alike(self, clone):
        for oid in self._both():
            twin = clone(oid)
            assert twin == oid and hash(twin) == hash(oid)
            assert ber.encode(twin) == ber.encode(oid)
        assert copy.deepcopy([self._both()]) == [self._both()]

    def test_immutable(self):
        for oid in self._both():
            with pytest.raises(AttributeError):
                oid.arcs = (1, 3)
            with pytest.raises(AttributeError):
                del oid.arcs
            with pytest.raises(AttributeError):
                oid.other = 1
