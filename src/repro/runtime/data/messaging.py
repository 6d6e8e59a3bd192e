"""Message-passing wire formats (dialects).

Paper section 2.3.2: "Since user tasks can be programmed in various
message-passing tools, the VDCE Runtime System supports multiple
message-passing libraries such as P4, PVM, MPI, NCS."

The dead 1990s libraries are substituted by *wire dialects*: each dialect
is a self-describing binary framing with its own header layout and byte
order convention, capturing the interoperability problem those libraries
posed (a PVM task and an MPI task exchanging arrays across machines of
different endianness).  NumPy arrays are serialised explicitly (dtype,
shape, raw bytes in the dialect's wire order); plain Python structures
travel as JSON.  Every dialect round-trips every payload; arrays cross
endianness boundaries intact, which the tests assert bit-exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.util.errors import ConfigurationError, DataConversionError

MAGIC = b"VDCE"
_KIND_ARRAY = 1
_KIND_JSON = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Per-message timeout with bounded exponential backoff.

    Attempt *n* (1-based) waits ``min(timeout_s * backoff_factor**(n-1),
    max_timeout_s)`` for an answer before resending; after
    ``max_attempts`` unanswered sends the exchange is abandoned.  The
    defaults give a ~15 s total budget (1 + 2 + 4 + 8), sized so a
    handshake can ride out the short link partitions chaos plans inject
    (see ``docs/faults.md``).
    """

    timeout_s: float = 1.0
    max_attempts: int = 4
    backoff_factor: float = 2.0
    max_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.max_timeout_s < self.timeout_s:
            raise ConfigurationError(
                "max_timeout_s must be >= timeout_s "
                f"({self.max_timeout_s} < {self.timeout_s})")

    def timeout_for(self, attempt: int) -> float:
        """Wait budget for the *attempt*-th send (1-based)."""
        if attempt < 1:
            raise ConfigurationError(f"attempt is 1-based, got {attempt}")
        return min(self.timeout_s * self.backoff_factor ** (attempt - 1),
                   self.max_timeout_s)

    def schedule(self) -> list[float]:
        """The timeout ladder, one entry per attempt."""
        return [self.timeout_for(n) for n in
                range(1, self.max_attempts + 1)]

    @property
    def total_wait_s(self) -> float:
        """Worst-case total time spent waiting before giving up."""
        return sum(self.schedule())


@dataclass(frozen=True)
class Dialect:
    """One message-passing library's wire convention."""

    name: str
    wire_byte_order: str  # "big" (network order) or "little"
    header_pad: int = 0   # extra header bytes (library envelope overhead)


#: The four libraries the paper names, plus the native format.
DIALECTS: dict[str, Dialect] = {
    "vdce": Dialect("vdce", wire_byte_order="big"),
    "p4": Dialect("p4", wire_byte_order="big", header_pad=8),
    "pvm": Dialect("pvm", wire_byte_order="big", header_pad=16),
    "mpi": Dialect("mpi", wire_byte_order="little", header_pad=4),
    "ncs": Dialect("ncs", wire_byte_order="little", header_pad=12),
}


def get_dialect(name: str) -> Dialect:
    try:
        return DIALECTS[name]
    except KeyError:
        raise DataConversionError(
            f"unknown message-passing dialect {name!r}; expected one of "
            f"{sorted(DIALECTS)}") from None


class MessageCodec:
    """Encode/decode payloads in a dialect's wire format."""

    def __init__(self, dialect: str | Dialect = "vdce") -> None:
        self.dialect = (dialect if isinstance(dialect, Dialect)
                        else get_dialect(dialect))
        self._endian = ">" if self.dialect.wire_byte_order == "big" else "<"

    # -- encoding -----------------------------------------------------------
    def encode(self, value: Any) -> bytes:
        """Serialise *value*; arrays go typed, everything else as JSON."""
        if isinstance(value, np.ndarray):
            kind = _KIND_ARRAY
            body = self._encode_array(value)
        else:
            kind = _KIND_JSON
            try:
                body = json.dumps(value).encode("utf-8")
            except TypeError as exc:
                raise DataConversionError(
                    f"payload is neither ndarray nor JSON-serialisable: "
                    f"{exc}") from exc
        header = struct.pack(
            f"{self._endian}4sB B I",
            MAGIC, kind, self.dialect.header_pad, len(body))
        return header + b"\x00" * self.dialect.header_pad + body

    def _encode_array(self, arr: np.ndarray) -> bytes:
        wire = arr.astype(arr.dtype.newbyteorder(self._endian), copy=False)
        dtype_tag = arr.dtype.str.lstrip("<>=|").encode("ascii")
        shape = arr.shape
        meta = struct.pack(f"{self._endian}B B", len(dtype_tag), len(shape))
        meta += dtype_tag
        meta += struct.pack(f"{self._endian}{len(shape)}q", *shape)
        return meta + np.ascontiguousarray(wire).tobytes()

    # -- decoding -------------------------------------------------------------
    def decode(self, data: bytes) -> Any:
        """Deserialise to native byte order (the receiver's format)."""
        if len(data) < 10 or data[:4] != MAGIC:
            raise DataConversionError("not a VDCE-framed message")
        magic, kind, pad, length = struct.unpack(
            f"{self._endian}4sB B I", data[:10])
        body = data[10 + pad:10 + pad + length]
        if len(body) != length:
            raise DataConversionError(
                f"truncated message: expected {length} body bytes, got "
                f"{len(body)}")
        if kind == _KIND_JSON:
            return json.loads(body.decode("utf-8"))
        if kind == _KIND_ARRAY:
            return self._decode_array(body)
        raise DataConversionError(f"unknown payload kind {kind}")

    def _decode_array(self, body: bytes) -> np.ndarray:
        dlen, ndim = struct.unpack(f"{self._endian}B B", body[:2])
        offset = 2
        dtype_tag = body[offset:offset + dlen].decode("ascii")
        offset += dlen
        shape = struct.unpack(f"{self._endian}{ndim}q",
                              body[offset:offset + 8 * ndim])
        offset += 8 * ndim
        wire_dtype = np.dtype(dtype_tag).newbyteorder(self._endian)
        arr = np.frombuffer(body[offset:], dtype=wire_dtype).reshape(shape)
        # hand the receiver a native-order array
        return arr.astype(arr.dtype.newbyteorder("="), copy=True)

    # -- framing for stream transports ------------------------------------------
    def frame(self, value: Any) -> bytes:
        """Length-prefixed encoding for stream (socket) transports."""
        payload = self.encode(value)
        return struct.pack(f"{self._endian}I", len(payload)) + payload

    def read_frame(self, buffer: bytes) -> tuple[Any, bytes] | None:
        """Try to consume one frame; returns (value, rest) or None."""
        if len(buffer) < 4:
            return None
        (length,) = struct.unpack(f"{self._endian}I", buffer[:4])
        if len(buffer) < 4 + length:
            return None
        value = self.decode(buffer[4:4 + length])
        return value, buffer[4 + length:]


def translate(data: bytes, src_dialect: str, dst_dialect: str) -> bytes:
    """Re-encode a message from one library's format to another's.

    This is the interoperability shim the paper's Data Manager provides
    between tasks written against different message-passing tools.
    """
    value = MessageCodec(src_dialect).decode(data)
    return MessageCodec(dst_dialect).encode(value)
