"""Uplink datagram codec and Contact-ID digit-string handling.

Frame layout, big-endian throughout:

    offset  size  field
    0       2     magic 0xA5 0x5A
    2       1     version (0x01)
    3       1     msg_type
    4       2     seq
    6       2     src_node
    8       2     payload_len (<= 1024)
    10      n     payload
    10+n    4     CRC-32 (IEEE polynomial) over bytes 0 .. 10+n-1

Minimum frame is 14 bytes. ALARM_CID payloads are the 16 ASCII digits of a
Contact-ID message; COMMAND payloads are one target-node byte (low 8 bits)
plus one opcode byte.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

from .errors import HomemeshError, InvalidInput

MAGIC = b"\xa5\x5a"
VERSION = 1
MAX_PAYLOAD = 1024
HEADER = struct.Struct(">2sBBHHH")
CRC = struct.Struct(">I")
# module ints: every frame checked or split reads them, and a Struct's `size`
# is an attribute lookup each time
_HEADER_SIZE, _CRC_SIZE = HEADER.size, CRC.size
MIN_FRAME = _HEADER_SIZE + _CRC_SIZE


class MsgType(IntEnum):
    SENSOR_DATA = 0x01
    COMMAND = 0x02
    ACK = 0x03
    ALARM_CID = 0x04
    HEARTBEAT = 0x05
    DISCOVERY_REPORT = 0x06
    NACK = 0x07


class SwitchOpcode(IntEnum):
    SWITCH_ON = 0x01
    SWITCH_OFF = 0x02
    QUERY_SWITCH = 0x03


@dataclass(frozen=True)
class Datagram:
    """One framed uplink message between coordinator and monitoring center."""

    msg_type: MsgType
    seq: int
    src_node: int
    payload: bytes = b""


_MSG_TYPES = MsgType._value2member_map_

_new, _set_field = object.__new__, object.__setattr__


def _build(cls, fields: dict):
    """An instance of the frozen dataclass `cls` holding `fields`, which must
    name every field; then its `__post_init__`, if it has one.

    This is what the generated `__init__` does, except that the fields are set
    at once, not with one `object.__setattr__` call each. The package builds
    each message it derives from fields already known this way.
    """
    obj = _new(cls)
    _set_field(obj, "__dict__", fields)
    post_init = getattr(obj, "__post_init__", None)
    if post_init is not None:
        post_init()
    return obj


class PayloadTooLarge(HomemeshError):
    pass


class ProtocolError(HomemeshError):
    """Malformed frame; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class BadMagic(ProtocolError):
    pass


class UnsupportedVersion(ProtocolError):
    pass


class UnknownType(ProtocolError):
    pass


class LengthMismatch(ProtocolError):
    pass


class BadCrc(ProtocolError):
    pass


class Truncated(ProtocolError):
    pass


def encode_datagram(d: Datagram) -> bytes:
    """Serialize a datagram; output length is always 14 + len(payload)."""
    if len(d.payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload of {len(d.payload)} bytes exceeds {MAX_PAYLOAD}")
    if not 0 <= d.seq <= 0xFFFF:
        raise InvalidInput(f"seq {d.seq} outside 16-bit range")
    if not 0 <= d.src_node <= 0xFFFF:
        raise InvalidInput(f"src_node {d.src_node} outside 16-bit range")
    try:
        msg_type = _MSG_TYPES[d.msg_type]
    except (KeyError, TypeError):
        msg_type = MsgType(d.msg_type)  # raises the enum's own ValueError
    return pack_frame(msg_type, d.seq, d.src_node, d.payload)


def pack_frame(msg_type: MsgType, seq: int, src_node: int, payload: bytes = b"") -> bytes:
    """The frame holding these fields, which the caller has put in range:
    one header pack, the payload, one CRC."""
    body = HEADER.pack(MAGIC, VERSION, msg_type, seq, src_node, len(payload)) + payload
    return body + CRC.pack(zlib.crc32(body))


def check_frame(data, start: int, stop: int,
                stream: bool = False) -> tuple[MsgType, int, int, int, int] | None:
    """Check the frame that begins at data[start]; error offsets are frame-relative.

    Validates magic, version, type, declared length and CRC where the frame
    lies, without building a Datagram. The header is checked as soon as its
    10 bytes are present. Without `stream`, the frame must end exactly at
    `stop`. With it, the bytes up to `stop` past the frame are the next
    frames', and None means the frame is not complete yet. Returns
    (msg_type, seq, src_node, start, end), where end is the offset just past
    the frame.
    """
    if stop - start < MIN_FRAME and not stream:
        raise Truncated(f"frame of {stop - start} bytes is below the {MIN_FRAME}-byte minimum",
                        offset=stop - start)
    magic, version, msg_type, seq, src_node, payload_len = HEADER.unpack_from(data, start)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic.hex()}", offset=0)
    if version != VERSION:
        raise UnsupportedVersion(f"unsupported version {version:#04x}", offset=2)
    kind = _MSG_TYPES.get(msg_type)
    if kind is None:
        raise UnknownType(f"unknown msg_type {msg_type:#04x}", offset=3)
    if payload_len > MAX_PAYLOAD:
        raise LengthMismatch(f"declared payload length {payload_len} exceeds {MAX_PAYLOAD}",
                             offset=8)
    body_end = start + _HEADER_SIZE + payload_len
    end = body_end + _CRC_SIZE
    if end > stop:
        if stream:
            return None
        raise Truncated(f"frame needs {end - start} bytes, got {stop - start}",
                        offset=stop - start)
    if end < stop and not stream:
        raise LengthMismatch(f"{stop - end} trailing bytes after a {end - start}-byte frame",
                             offset=end - start)
    (crc,) = CRC.unpack_from(data, body_end)
    computed = zlib.crc32(data[start:body_end])
    if crc != computed:
        raise BadCrc(f"crc {crc:#010x} != computed {computed:#010x}", offset=body_end - start)
    return kind, seq, src_node, start, end


def decode_datagram(data: bytes) -> Datagram:
    """Parse exactly one frame, validating magic, version, type, length, CRC."""
    kind, seq, src_node, _, end = check_frame(data, 0, len(data))
    return _build(Datagram, {"msg_type": kind, "seq": seq, "src_node": src_node,
                             "payload": bytes(data[_HEADER_SIZE:end - _CRC_SIZE])})


class StreamDecoder:
    """Incremental frame splitter for a byte stream; confine to one thread.

    take() checks every complete frame buffered so far with `check_frame`
    before it returns any: it returns the consumed bytes, as one bytes
    object, and each frame's (msg_type, seq, src_node, start, end) in them,
    so a caller handles the frames where they lie and builds no Datagram.
    A frame's bytes, chunk[start:end], equal `encode_datagram` of its
    datagram. feed() is take() with a Datagram built per frame. Both raise
    the usual decode errors as soon as a malformed header or body is
    visible. The frames before a malformed one are consumed, and the
    malformed one stays buffered.
    """

    def __init__(self):
        self._buf = b""  # the bytes of the incomplete frame at the end, if any

    def take(self, data: bytes) -> tuple[bytes, list[tuple[MsgType, int, int, int, int]]]:
        data = self._buf + data if self._buf else bytes(data)
        frames = []
        start, stop = 0, len(data)
        try:
            while stop - start >= _HEADER_SIZE:
                checked = check_frame(data, start, stop, True)
                if checked is None:
                    break
                frames.append(checked)
                start = checked[4]
        finally:
            self._buf = data[start:]
        return data[:start], frames

    def feed(self, data: bytes) -> list[Datagram]:
        chunk, frames = self.take(data)
        return [_build(Datagram, {"msg_type": kind, "seq": seq, "src_node": src_node,
                                  "payload": chunk[start + _HEADER_SIZE:end - _CRC_SIZE]})
                for kind, seq, src_node, start, end in frames]

    @property
    def pending(self) -> int:
        return len(self._buf)


def encode_command_payload(target_node: int, opcode: SwitchOpcode) -> bytes:
    if not 0 <= target_node <= 0xFF:
        raise InvalidInput(f"target node {target_node} does not fit the one-byte field")
    try:
        opcode = SwitchOpcode(opcode)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from exc
    return bytes([target_node, opcode])


def decode_command_payload(payload: bytes) -> tuple[int, SwitchOpcode]:
    if len(payload) != 2:
        raise InvalidInput(f"command payload must be 2 bytes, got {len(payload)}")
    target, opcode = payload[0], payload[1]
    if opcode not in SwitchOpcode._value2member_map_:
        raise InvalidInput(f"unknown switch opcode {opcode:#04x}")
    return target, SwitchOpcode(opcode)


# --- Contact-ID digit strings ---------------------------------------------
#
# 16 digits: account(4) message_type(2) qualifier(1) event_code(3)
# partition(2) zone(3) checksum(1). The checksum makes the digit-value sum a
# multiple of 15, where '0' is worth 10 and '1'..'9' their face value.

CID_LENGTH = 16
CID_MESSAGE_TYPES = ("18", "98")
CID_QUALIFIERS = (1, 3, 6)  # new event, restore, status report


class CidError(HomemeshError):
    pass


class BadLength(CidError):
    pass


class BadDigit(CidError):
    pass


class BadMessageType(CidError):
    pass


class BadQualifier(CidError):
    pass


class BadChecksum(CidError):
    pass


class NoValidChecksum(CidError):
    """No single digit can complete the message: the required value is
    0 mod 15 (only reachable as 15) or lies in 11..14, none of which a
    decimal digit can carry."""


@dataclass(frozen=True)
class CidEvent:
    """A decoded Contact-ID alarm event."""

    account: str
    message_type: str
    qualifier: int
    event_code: str
    partition: str
    zone: str
    checksum: str


def cid_digit_value(ch: str) -> int:
    """Checksum value of one digit: '0' counts as 10, the rest face value."""
    if ch == "0":
        return 10
    if "1" <= ch <= "9":
        return int(ch)
    raise BadDigit(f"not a decimal digit: {ch!r}")


def decode_cid(digits: str) -> CidEvent:
    """Split and validate a 16-digit Contact-ID message."""
    if len(digits) != CID_LENGTH:
        raise BadLength(f"expected {CID_LENGTH} digits, got {len(digits)}")
    if not (digits.isascii() and digits.isdigit()):
        for ch in digits:
            cid_digit_value(ch)  # raises at the first character that is not a digit
    message_type = digits[4:6]
    if message_type not in CID_MESSAGE_TYPES:
        raise BadMessageType(f"message type {message_type!r} not in {CID_MESSAGE_TYPES}")
    qualifier = int(digits[6])
    if qualifier not in CID_QUALIFIERS:
        raise BadQualifier(f"qualifier {qualifier} not in {CID_QUALIFIERS}")
    # the cid_digit_value sum: face values from the ASCII codes, plus 10 per '0'
    total = sum(digits.encode("ascii")) - ord("0") * CID_LENGTH + 10 * digits.count("0")
    if total % 15 != 0:
        raise BadChecksum(f"digit values sum to {total}, not a multiple of 15")
    return CidEvent(
        account=digits[0:4],
        message_type=message_type,
        qualifier=qualifier,
        event_code=digits[7:10],
        partition=digits[10:12],
        zone=digits[12:15],
        checksum=digits[15],
    )


def cid_checksum(digits: str) -> str:
    """The unique digit completing a 15-digit message so decode_cid accepts it.

    Raises NoValidChecksum when the required value cannot be carried by any
    decimal digit (required 15, or in 11..14).
    """
    if len(digits) != CID_LENGTH - 1:
        raise BadLength(f"expected {CID_LENGTH - 1} digits, got {len(digits)}")
    total = sum(cid_digit_value(ch) for ch in digits)
    required = (-total) % 15
    if required == 0 or required > 10:
        raise NoValidChecksum(
            f"digit values sum to {total}; no single digit supplies {required or 15} (mod 15)"
        )
    return "0" if required == 10 else str(required)
