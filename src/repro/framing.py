"""CRC record framing for the run's durable files.

One byte format backs the coordinator's run journal
(:mod:`repro.explore.checkpoint`), the trace file
(:mod:`repro.obs.trace`) and the deterministic disk faults
(:mod:`repro.explore.faults`). A file starts with an 8-byte magic +
format-version header and then frames records as
``u32 length | u32 crc32(payload) | payload``.

Corruption tolerance is the design center. :func:`scan_frames` salvages
the valid *prefix* of a file: a truncated tail, a torn final write, or a
flipped byte stops the scan at the damage (the CRC catches it) and
everything before it is kept; an unreadable or version-mismatched
header salvages nothing. :func:`write_segment` produces a file whole —
temp file, fsync, atomic rename — so readers never see a half-written
one.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

#: Segment/journal header: magic, one format-version byte, newline.
MAGIC = b"ACHSEG"
FORMAT_VERSION = 1
HEADER = MAGIC + bytes([FORMAT_VERSION]) + b"\n"
HEADER_SIZE = len(HEADER)

#: Frame header: payload length, crc32 of the payload.
_FRAME = struct.Struct("<II")
FRAME_HEADER_SIZE = _FRAME.size


def frame_record(payload: bytes) -> bytes:
    """One framed record: length, crc32, payload."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class SegmentScan:
    """Result of scanning one segment (or journal) file's bytes.

    ``valid_end`` is the offset just past the last intact frame — what a
    resuming writer truncates to before appending. ``damaged`` is True
    whenever anything after that offset had to be abandoned.
    """

    payloads: list[bytes] = field(default_factory=list)
    spans: list[tuple[int, int]] = field(default_factory=list)
    valid_end: int = 0
    damaged: bool = False
    reason: str | None = None


def scan_frames(data: bytes) -> SegmentScan:
    """Salvage the valid prefix of a framed file.

    Stops at the first bad frame (short header, length past EOF, CRC
    mismatch) — the length field of a corrupted frame cannot be trusted,
    so nothing after the damage can be re-framed reliably. A bad or
    version-mismatched file header salvages nothing.
    """
    scan = SegmentScan()
    if len(data) < HEADER_SIZE or data[:len(MAGIC)] != MAGIC:
        scan.damaged = True
        scan.reason = "unrecognized header"
        return scan
    if data[:HEADER_SIZE] != HEADER:
        scan.damaged = True
        scan.reason = (f"format version {data[len(MAGIC)]} "
                       f"(this build reads {FORMAT_VERSION})")
        return scan
    offset = HEADER_SIZE
    scan.valid_end = offset
    total = len(data)
    while offset < total:
        if offset + FRAME_HEADER_SIZE > total:
            scan.damaged = True
            scan.reason = "truncated frame header"
            return scan
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + FRAME_HEADER_SIZE
        end = start + length
        if end > total:
            scan.damaged = True
            scan.reason = "torn final record"
            return scan
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            scan.damaged = True
            scan.reason = "checksum mismatch"
            return scan
        scan.payloads.append(payload)
        scan.spans.append((offset, FRAME_HEADER_SIZE + length))
        offset = end
        scan.valid_end = offset
    return scan


def record_spans(path: str | Path) -> list[tuple[int, int]]:
    """(offset, byte length) of every intact frame in ``path`` — the
    coordinates the deterministic disk faults aim at."""
    return scan_frames(Path(path).read_bytes()).spans


def _fsync_directory(directory: Path) -> None:
    """Make a rename durable; best-effort where dirs can't be opened."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_segment(path: Path, payloads: list[bytes]) -> None:
    """Write a whole segment atomically: temp file, fsync, rename."""
    tmp = path.with_name(f".tmp-{path.name}.{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(HEADER)
        for payload in payloads:
            handle.write(frame_record(payload))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)
