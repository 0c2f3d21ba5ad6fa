import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homemesh import wire
from homemesh.errors import InvalidInput

from reference_impls import cid_checksum_brute, crc32_bitwise

# frozen: header a5 5a 01 05 00.. plus CRC-32 of those ten bytes
HEARTBEAT_FRAME = bytes.fromhex("a55a0105000000000000d5154d32")


def heartbeat():
    return wire.Datagram(wire.MsgType.HEARTBEAT, 0, 0)


datagrams = st.builds(
    wire.Datagram,
    msg_type=st.sampled_from(list(wire.MsgType)),
    seq=st.integers(min_value=0, max_value=0xFFFF),
    src_node=st.integers(min_value=0, max_value=0xFFFF),
    payload=st.binary(max_size=wire.MAX_PAYLOAD),
)


def test_heartbeat_frame_bytes():
    encoded = wire.encode_datagram(heartbeat())
    assert encoded == HEARTBEAT_FRAME
    assert len(encoded) == 14
    # CRC verified against an independent bitwise implementation
    assert encoded[10:] == struct.pack(">I", crc32_bitwise(encoded[:10]))


def test_frame_length_is_header_plus_payload():
    d = wire.Datagram(wire.MsgType.SENSOR_DATA, 1, 2, bytes(10))
    assert len(wire.encode_datagram(d)) == 24


def test_round_trip_heartbeat():
    assert wire.decode_datagram(HEARTBEAT_FRAME) == heartbeat()


@given(datagrams)
@settings(max_examples=200)
def test_round_trip_any_datagram(d):
    assert wire.decode_datagram(wire.encode_datagram(d)) == d


def test_payload_too_large():
    with pytest.raises(wire.PayloadTooLarge):
        wire.encode_datagram(wire.Datagram(wire.MsgType.SENSOR_DATA, 0, 0, bytes(1025)))


@pytest.mark.parametrize("field, value", [("seq", -1), ("seq", 70000), ("src_node", -2)])
def test_encode_range_checks(field, value):
    kwargs = {"msg_type": wire.MsgType.ACK, "seq": 0, "src_node": 0, field: value}
    with pytest.raises(InvalidInput):
        wire.encode_datagram(wire.Datagram(**kwargs))


@pytest.mark.parametrize("msg_type", [0, 8, 0x7F, "ACK", [3]])
def test_encode_refuses_an_unknown_type_as_the_enum_does(msg_type):
    with pytest.raises(ValueError) as by_enum:
        wire.MsgType(msg_type)
    with pytest.raises(ValueError) as by_encode:
        wire.encode_datagram(wire.Datagram(msg_type, 0, 0))
    assert type(by_encode.value) is type(by_enum.value)
    assert str(by_encode.value) == str(by_enum.value)


@pytest.mark.parametrize("msg_type", [3, wire.MsgType.ACK])
def test_encode_takes_a_type_by_value(msg_type):
    assert wire.encode_datagram(wire.Datagram(msg_type, 1, 2)) == wire.encode_datagram(
        wire.Datagram(wire.MsgType.ACK, 1, 2))


def test_truncated_below_minimum():
    with pytest.raises(wire.Truncated) as excinfo:
        wire.decode_datagram(HEARTBEAT_FRAME[:13])
    assert excinfo.value.offset == 13


def test_truncated_missing_payload():
    d = wire.Datagram(wire.MsgType.SENSOR_DATA, 5, 6, b"0123456789")
    encoded = wire.encode_datagram(d)
    with pytest.raises(wire.Truncated):
        wire.decode_datagram(encoded[:-5])


def test_bad_magic():
    frame = b"\xff" + HEARTBEAT_FRAME[1:]
    with pytest.raises(wire.BadMagic) as excinfo:
        wire.decode_datagram(frame)
    assert excinfo.value.offset == 0


def test_unsupported_version():
    frame = bytearray(HEARTBEAT_FRAME)
    frame[2] = 0x02
    with pytest.raises(wire.UnsupportedVersion) as excinfo:
        wire.decode_datagram(bytes(frame))
    assert excinfo.value.offset == 2


def test_unknown_type():
    frame = bytearray(HEARTBEAT_FRAME)
    frame[3] = 0x7F
    with pytest.raises(wire.UnknownType) as excinfo:
        wire.decode_datagram(bytes(frame))
    assert excinfo.value.offset == 3


def test_length_mismatch_trailing_bytes():
    with pytest.raises(wire.LengthMismatch):
        wire.decode_datagram(HEARTBEAT_FRAME + b"\x00")


def test_length_mismatch_oversized_declaration():
    frame = bytearray(HEARTBEAT_FRAME)
    struct.pack_into(">H", frame, 8, 2000)
    with pytest.raises(wire.LengthMismatch) as excinfo:
        wire.decode_datagram(bytes(frame))
    assert excinfo.value.offset == 8


def test_bad_crc_last_byte_flipped():
    frame = bytearray(HEARTBEAT_FRAME)
    frame[-1] ^= 0xFF
    with pytest.raises(wire.BadCrc) as excinfo:
        wire.decode_datagram(bytes(frame))
    assert excinfo.value.offset == 10


@given(st.binary(max_size=64))
@settings(max_examples=300)
def test_decoder_accepts_arbitrary_bytes_without_crashing(data):
    try:
        decoded = wire.decode_datagram(data)
    except wire.ProtocolError:
        return
    assert wire.encode_datagram(decoded) == data


def test_every_single_bit_flip_is_detected():
    d = wire.Datagram(wire.MsgType.SENSOR_DATA, 4660, 7, b"hello mesh")
    encoded = bytearray(wire.encode_datagram(d))
    for index in range(len(encoded) * 8):
        corrupted = bytearray(encoded)
        corrupted[index // 8] ^= 1 << (index % 8)
        with pytest.raises(wire.ProtocolError):
            wire.decode_datagram(bytes(corrupted))


# --- stream decoding ------------------------------------------------------------


def test_stream_yields_concatenated_frames_in_order():
    frames = [
        wire.Datagram(wire.MsgType.SENSOR_DATA, i, i, bytes([i] * i)) for i in range(5)
    ]
    blob = b"".join(wire.encode_datagram(f) for f in frames)
    decoder = wire.StreamDecoder()
    assert decoder.feed(blob) == frames
    assert decoder.pending == 0


def test_stream_handles_byte_by_byte_delivery():
    d = wire.Datagram(wire.MsgType.ALARM_CID, 9, 3, b"1234181131010158")
    decoder = wire.StreamDecoder()
    out = []
    for byte in wire.encode_datagram(d):
        out.extend(decoder.feed(bytes([byte])))
    assert out == [d]


def test_stream_raises_on_garbage():
    decoder = wire.StreamDecoder()
    with pytest.raises(wire.BadMagic):
        decoder.feed(b"this is not a frame at all")


def test_stream_raises_on_corrupt_crc_mid_stream():
    good = wire.encode_datagram(heartbeat())
    bad = bytearray(good)
    bad[-1] ^= 0x01
    decoder = wire.StreamDecoder()
    assert decoder.feed(good) == [heartbeat()]
    with pytest.raises(wire.BadCrc):
        decoder.feed(bytes(bad))


def _pieces(blob, cuts):
    """blob split at the sorted cut points; each piece comes with the number of
    bytes fed once it has been fed."""
    return [(stop, blob[start:stop]) for start, stop in zip([0, *cuts], [*cuts, len(blob)])]


@given(st.lists(datagrams, min_size=1, max_size=5), st.data())
@settings(max_examples=100)
def test_stream_agrees_with_decode_datagram(frames, data):
    encoded = [wire.encode_datagram(d) for d in frames]
    starts = [sum(map(len, encoded[:i])) for i in range(len(encoded) + 1)]
    blob = b"".join(encoded)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(blob)), max_size=6)))

    decoder = wire.StreamDecoder()
    out = []
    for fed, piece in _pieces(blob, cuts):
        out.extend(decoder.feed(piece))
        complete = max(i for i, end in enumerate(starts) if end <= fed)
        assert out == frames[:complete]
        assert decoder.pending == fed - starts[complete]
    assert out == frames

    # one flipped byte; the length field is left alone, since a new length
    # re-frames the stream and the stream then sees a different frame
    bad = data.draw(st.integers(0, len(frames) - 1))
    position = data.draw(st.integers(0, len(encoded[bad]) - 1).filter(lambda i: i not in (8, 9)))
    corrupt = bytearray(encoded[bad])
    corrupt[position] ^= data.draw(st.integers(1, 0xFF))
    with pytest.raises(wire.ProtocolError) as alone:
        wire.decode_datagram(bytes(corrupt))
    blob = b"".join([*encoded[:bad], bytes(corrupt), *encoded[bad + 1:]])

    decoder = wire.StreamDecoder()
    with pytest.raises(wire.ProtocolError) as streamed:
        for fed, piece in _pieces(blob, cuts):
            decoder.feed(piece)
    assert type(streamed.value) is type(alone.value)
    assert streamed.value.offset == alone.value.offset
    # the frames before the bad one are consumed; it stays buffered
    assert decoder.pending == fed - starts[bad]


@given(st.lists(datagrams, max_size=6), st.data())
@settings(max_examples=100)
def test_stream_hands_out_each_datagrams_encoded_bytes(frames, data):
    # the store logs these bytes as they are, so they must be what it would encode
    blob = b"".join(wire.encode_datagram(d) for d in frames)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(blob)), max_size=8)))
    plain, handing = wire.StreamDecoder(), wire.StreamDecoder()
    remaining = list(frames)
    for _, piece in _pieces(blob, cuts):
        chunk, checked = handing.take(piece)
        out = plain.feed(piece)
        assert out == remaining[:len(checked)]
        del remaining[:len(out)]
        assert type(chunk) is bytes
        assert chunk == b"".join(wire.encode_datagram(d) for d in out)
        assert [chunk[start:end] for *_, start, end in checked] == \
            [wire.encode_datagram(d) for d in out]
        assert [tuple(fields) for *fields, _, _ in checked] == \
            [(d.msg_type, d.seq, d.src_node) for d in out]
    assert remaining == [] and handing.pending == 0


# --- command payloads ------------------------------------------------------------


def test_command_payload_round_trip():
    payload = wire.encode_command_payload(10, wire.SwitchOpcode.SWITCH_ON)
    assert payload == b"\x0a\x01"
    assert wire.decode_command_payload(payload) == (10, wire.SwitchOpcode.SWITCH_ON)


def test_command_payload_errors():
    with pytest.raises(InvalidInput):
        wire.encode_command_payload(300, wire.SwitchOpcode.SWITCH_ON)
    with pytest.raises(InvalidInput):
        wire.decode_command_payload(b"\x0a")
    with pytest.raises(InvalidInput):
        wire.decode_command_payload(b"\x0a\x7f")


# --- Contact-ID -------------------------------------------------------------------


def test_decode_cid_example():
    # checksum '8' is the unique digit completing this message (brute-forced)
    assert cid_checksum_brute("123418113101015") == ["8"]
    event = wire.decode_cid("1234181131010158")
    assert event.account == "1234"
    assert event.message_type == "18"
    assert event.qualifier == 1
    assert event.event_code == "131"
    assert event.partition == "01"
    assert event.zone == "015"
    assert event.checksum == "8"


def test_decode_cid_length_guard():
    with pytest.raises(wire.BadLength):
        wire.decode_cid("123418113101015")


def test_decode_cid_digit_guard():
    with pytest.raises(wire.BadDigit):
        wire.decode_cid("12341811310101x8")


def test_decode_cid_message_type_guard():
    # account 1234, bogus type 55; checksum fixed so only the type is wrong
    digits15 = "1234551131010158"[:15]
    with pytest.raises(wire.BadMessageType):
        wire.decode_cid(digits15 + "1")


def test_decode_cid_qualifier_guard():
    base = "1234" + "18" + "2" + "131" + "01" + "015"
    with pytest.raises(wire.BadQualifier):
        wire.decode_cid(base + "1")


def test_checksum_unreachable_all_fives():
    # fifteen '5's sum to 75, a multiple of 15 already; no digit supplies 15
    assert cid_checksum_brute("5" * 15) == []
    with pytest.raises(wire.NoValidChecksum):
        wire.cid_checksum("5" * 15)


def test_checksum_sum_fifty_yields_zero_digit():
    digits = "8" * 5 + "1" * 10  # digit values sum to 50
    assert cid_checksum_brute(digits) == ["0"]
    assert wire.cid_checksum(digits) == "0"


def test_checksum_sum_fifty_one_yields_nine():
    digits = "8" * 5 + "1" * 9 + "2"  # digit values sum to 51
    assert cid_checksum_brute(digits) == ["9"]
    assert wire.cid_checksum(digits) == "9"


def test_checksum_length_and_digit_guards():
    with pytest.raises(wire.BadLength):
        wire.cid_checksum("123")
    with pytest.raises(wire.BadDigit):
        wire.cid_checksum("12341811310101x")


digit_strings15 = st.text(alphabet="0123456789", min_size=15, max_size=15)


@given(digit_strings15)
@settings(max_examples=200)
def test_checksum_decode_duality(digits):
    try:
        check = wire.cid_checksum(digits)
    except wire.NoValidChecksum:
        for candidate in "0123456789":
            with pytest.raises(wire.CidError):
                wire.decode_cid(digits + candidate)
        return
    assert cid_checksum_brute(digits) == [check]
    message = digits + check
    try:
        wire.decode_cid(message)
    except (wire.BadMessageType, wire.BadQualifier):
        pass  # structure may still be invalid; the checksum itself is right
    total = sum(wire.cid_digit_value(ch) for ch in message)
    assert total % 15 == 0


def test_single_substitution_always_rejected():
    message = "1234181131010158"
    assert wire.decode_cid(message)
    for index in range(16):
        for candidate in "0123456789":
            if candidate == message[index]:
                continue
            mutated = message[:index] + candidate + message[index + 1 :]
            with pytest.raises(wire.CidError):
                wire.decode_cid(mutated)
