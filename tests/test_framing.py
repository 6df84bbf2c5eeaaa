"""The CRC record framing behind run journals and trace files.

The salvage matrix is the heart: every damage position the scan
distinguishes (file header, format version, first record, mid-record
payload, truncated tail, torn final write) is applied via the
deterministic disk faults, and the scan must keep exactly the intact
prefix — never a crash, never a record past the damage.
"""

import struct
import zlib

from repro.explore.faults import (
    CorruptRecord,
    TornWrite,
    TruncateSegment,
    apply_disk_fault,
)
from repro.framing import (
    FORMAT_VERSION,
    FRAME_HEADER_SIZE,
    HEADER,
    HEADER_SIZE,
    MAGIC,
    frame_record,
    record_spans,
    scan_frames,
    write_segment,
)

PAYLOADS = [b"alpha", b"bravo-bravo", b"charlie", b"delta-delta-delta"]


def _segment(tmp_path, payloads=PAYLOADS):
    path = tmp_path / "framed.seg"
    write_segment(path, list(payloads))
    return path


def _scan(path):
    return scan_frames(path.read_bytes())


class TestSalvage:
    def test_clean_file_scans_whole(self, tmp_path):
        path = _segment(tmp_path)
        scan = _scan(path)
        assert not scan.damaged and scan.reason is None
        assert scan.payloads == PAYLOADS
        assert scan.valid_end == len(path.read_bytes())

    def test_header_corruption_drops_the_file(self, tmp_path):
        path = _segment(tmp_path)
        apply_disk_fault(path, CorruptRecord(record=-1))
        scan = _scan(path)
        assert scan.damaged and scan.reason == "unrecognized header"
        assert scan.payloads == []
        assert scan.valid_end == 0

    def test_version_mismatch_drops_the_file(self, tmp_path):
        path = _segment(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(bytes(data))
        scan = _scan(path)
        assert scan.damaged
        assert scan.reason.startswith(f"format version {FORMAT_VERSION + 1}")
        assert scan.payloads == []
        assert scan.valid_end == 0

    def test_first_record_corruption_salvages_nothing(self, tmp_path):
        path = _segment(tmp_path)
        apply_disk_fault(path, CorruptRecord(record=0))
        scan = _scan(path)
        assert scan.damaged and scan.reason == "checksum mismatch"
        assert scan.payloads == []
        assert scan.valid_end == HEADER_SIZE

    def test_mid_record_corruption_salvages_the_prefix(self, tmp_path):
        path = _segment(tmp_path)
        spans = record_spans(path)
        apply_disk_fault(path, CorruptRecord(record=2, offset=1))
        scan = _scan(path)
        # Records 0-1 precede the damage; 2 fails its CRC; 3 sits behind
        # an untrustworthy length field and is abandoned with it.
        assert scan.damaged and scan.reason == "checksum mismatch"
        assert scan.payloads == PAYLOADS[:2]
        assert scan.valid_end == spans[2][0]

    def test_truncated_tail_salvages_the_prefix(self, tmp_path):
        path = _segment(tmp_path)
        spans = record_spans(path)
        apply_disk_fault(path, TruncateSegment(drop_bytes=1))
        scan = _scan(path)
        assert scan.damaged and scan.reason == "torn final record"
        assert scan.payloads == PAYLOADS[:-1]
        assert scan.valid_end == spans[-1][0]

    def test_torn_final_write_salvages_the_prefix(self, tmp_path):
        path = _segment(tmp_path)
        spans = record_spans(path)
        apply_disk_fault(path, TornWrite())
        scan = _scan(path)
        assert scan.damaged and scan.reason == "torn final record"
        assert scan.payloads == PAYLOADS[:-1]
        assert scan.valid_end == spans[-1][0]


    def test_truncated_frame_header_salvages_the_prefix(self, tmp_path):
        path = _segment(tmp_path)
        clean_size = len(path.read_bytes())
        with open(path, "ab") as handle:
            handle.write(b"\x05\x00\x00")  # 3 of a frame header's 8 bytes
        scan = _scan(path)
        assert scan.damaged and scan.reason == "truncated frame header"
        assert scan.payloads == PAYLOADS
        assert scan.valid_end == clean_size

    def test_length_past_end_of_file_is_a_torn_record(self, tmp_path):
        path = _segment(tmp_path)
        clean_size = len(path.read_bytes())
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", 100, 0) + b"xy")
        scan = _scan(path)
        assert scan.damaged and scan.reason == "torn final record"
        assert scan.payloads == PAYLOADS
        assert scan.valid_end == clean_size

    def test_damage_never_warps_payloads(self, tmp_path):
        """Flip any single byte of the file: whatever the scan keeps is
        a prefix of what was written, never an altered record."""
        clean = _segment(tmp_path).read_bytes()
        for position in range(len(clean)):
            data = bytearray(clean)
            data[position] ^= 0xFF
            scan = scan_frames(bytes(data))
            assert scan.damaged, position
            assert scan.payloads == PAYLOADS[:len(scan.payloads)], position

    def test_append_after_valid_end_resumes_the_file(self, tmp_path):
        """A writer that truncates to ``valid_end`` and appends (how a
        resumed run journal reopens) leaves a file that scans clean."""
        path = _segment(tmp_path)
        apply_disk_fault(path, TornWrite())
        scan = _scan(path)
        with open(path, "rb+") as handle:
            handle.truncate(scan.valid_end)
        with open(path, "ab") as handle:
            handle.write(frame_record(b"echo"))
        resumed = _scan(path)
        assert not resumed.damaged
        assert resumed.payloads == PAYLOADS[:-1] + [b"echo"]


class TestByteFormat:
    """Run journals and trace files written by earlier builds must keep
    scanning, so the on-disk bytes are pinned."""

    def test_header_bytes(self):
        assert HEADER == b"ACHSEG\x01\n"
        assert HEADER_SIZE == 8
        assert FORMAT_VERSION == 1

    def test_frame_is_length_crc_payload(self):
        payload = b"trojan"
        assert frame_record(payload) == (
            struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)
        assert FRAME_HEADER_SIZE == 8

    def test_segment_is_header_then_frames(self, tmp_path):
        path = _segment(tmp_path)
        assert path.read_bytes() == HEADER + b"".join(
            frame_record(payload) for payload in PAYLOADS)


class TestWriteSegment:
    def test_segment_bytes_are_deterministic(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = _segment(tmp_path / "a")
        b = _segment(tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_rewrite_replaces_the_whole_file(self, tmp_path):
        path = _segment(tmp_path)
        write_segment(path, [b"only"])
        assert _scan(path).payloads == [b"only"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_awkward_payloads_round_trip(self, tmp_path):
        """Empty payloads and payloads that look like headers or frames
        are opaque bytes to the scan."""
        payloads = [b"", HEADER, frame_record(b"inner"), bytes(range(256)),
                    b"\x00" * 70_000]
        path = _segment(tmp_path, payloads)
        scan = _scan(path)
        assert not scan.damaged
        assert scan.payloads == payloads


class TestFraming:
    def test_scan_frames_empty_file(self):
        scan = scan_frames(b"")
        assert scan.damaged and scan.payloads == []

    def test_scan_frames_header_only(self):
        scan = scan_frames(HEADER)
        assert not scan.damaged
        assert scan.valid_end == len(HEADER)

    def test_record_spans_match_scan(self, tmp_path):
        path = _segment(tmp_path, PAYLOADS[:3])
        spans = record_spans(path)
        assert len(spans) == 3
        assert spans[0][0] == len(HEADER)

    def test_record_spans_tile_the_file(self, tmp_path):
        path = _segment(tmp_path)
        spans = record_spans(path)
        assert [length for _, length in spans] == [
            FRAME_HEADER_SIZE + len(payload) for payload in PAYLOADS]
        for (offset, length), (next_offset, _) in zip(spans, spans[1:]):
            assert offset + length == next_offset
        last_offset, last_length = spans[-1]
        assert last_offset + last_length == len(path.read_bytes())
