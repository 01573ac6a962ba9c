"""Framing: length prefixes, CRC32, sequence numbers, corruption."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.channel import FrameCorruption, ProtocolDesync
from repro.net.frame import (
    FRAME_ABORT,
    FRAME_DATA,
    FRAME_HEARTBEAT,
    MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    frame_tag,
)


class TestRoundTrip:
    def test_single_frame(self):
        blob = encode_frame(FRAME_DATA, 7, "tables", b"payload")
        (frame,) = FrameDecoder().feed(blob)
        assert frame.ftype == FRAME_DATA
        assert frame.seq == 7
        assert frame.tag == "tables"
        assert frame.payload == b"payload"
        assert frame.wire_size == len(blob)

    def test_heartbeat_and_abort_frames(self):
        dec = FrameDecoder()
        frames = dec.feed(
            encode_frame(FRAME_HEARTBEAT, 0, "") + encode_frame(FRAME_ABORT, 0, "")
        )
        assert [f.ftype for f in frames] == [FRAME_HEARTBEAT, FRAME_ABORT]

    def test_arbitrary_chunk_boundaries(self):
        """TCP may split frames anywhere; the decoder reassembles."""
        blob = encode_frame(FRAME_DATA, 1, "x", b"A" * 100) + encode_frame(
            FRAME_DATA, 2, "y", b"B" * 50
        )
        for cut in (1, 3, 5, 17, len(blob) - 1):
            dec = FrameDecoder()
            frames = dec.feed(blob[:cut])
            frames += dec.feed(blob[cut:])
            assert [(f.seq, f.tag) for f in frames] == [(1, "x"), (2, "y")]
            assert dec.pending_bytes == 0

    def test_byte_at_a_time(self):
        blob = encode_frame(FRAME_DATA, 1, "t", b"data")
        dec = FrameDecoder()
        frames = []
        for i in range(len(blob)):
            frames += dec.feed(blob[i : i + 1])
        assert len(frames) == 1 and frames[0].payload == b"data"

    def test_tag_peek(self):
        blob = encode_frame(FRAME_DATA, 9, "ot-setup", b"\x00" * 32)
        assert frame_tag(blob) == "ot-setup"
        assert frame_tag(b"\x00\x00") == ""  # cut short: no crash

    def test_overlong_tag_rejected_at_encode(self):
        with pytest.raises(ValueError, match="tag too long"):
            encode_frame(FRAME_DATA, 1, "x" * 256)


class TestCorruption:
    def test_crc_mismatch(self):
        blob = bytearray(encode_frame(FRAME_DATA, 1, "x", b"hello"))
        blob[-1] ^= 0x01  # flip a CRC bit
        with pytest.raises(FrameCorruption, match="CRC"):
            FrameDecoder().feed(bytes(blob))

    def test_payload_corruption_caught_by_crc(self):
        blob = bytearray(encode_frame(FRAME_DATA, 1, "x", b"hello"))
        blob[-6] ^= 0x80  # flip a payload bit
        with pytest.raises(FrameCorruption, match="CRC"):
            FrameDecoder().feed(bytes(blob))

    def test_oversized_length_prefix(self):
        bad = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\x00" * 16
        with pytest.raises(FrameCorruption, match="MAX_FRAME_BYTES"):
            FrameDecoder().feed(bad)

    def test_undersized_length_prefix(self):
        with pytest.raises(FrameCorruption, match="below minimum"):
            FrameDecoder().feed((1).to_bytes(4, "big") + b"\x00" * 8)

    def test_unknown_frame_type(self):
        import struct
        import zlib

        body = struct.pack(">BIB", 0x7F, 1, 1) + b"x" + b"payload"
        blob = (
            struct.pack(">I", len(body) + 4)
            + body
            + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)
        )
        with pytest.raises(FrameCorruption, match="unknown frame type"):
            FrameDecoder().feed(blob)

    def test_decoder_poisons_after_corruption(self):
        """No resynchronization after a bad length: the stream is dead."""
        dec = FrameDecoder()
        blob = bytearray(encode_frame(FRAME_DATA, 1, "x", b"hello"))
        blob[-1] ^= 0x01
        with pytest.raises(FrameCorruption):
            dec.feed(bytes(blob))
        with pytest.raises(FrameCorruption, match="poisoned"):
            dec.feed(encode_frame(FRAME_DATA, 2, "y", b"fine"))

    def test_corruption_is_a_retryable_desync(self):
        """The resume layer keys on this hierarchy: corruption is a
        desync (the streams disagree) but specifically the retryable
        transport-integrity kind."""
        assert issubclass(FrameCorruption, ProtocolDesync)


def _run(chunks):
    """Feed ``chunks`` to one decoder: the frames it yields and the
    corruption message that stopped it, if any."""
    dec = FrameDecoder()
    frames, error = [], None
    for chunk in chunks:
        try:
            frames += dec.feed(chunk)
        except FrameCorruption as exc:
            error = str(exc)
            break
        assert dec.pending_bytes < 4 + MAX_FRAME_BYTES
    return frames, error


def _stream(frames, flip, at, to, tail_len, tail):
    """Encoded ``frames``, one byte optionally overwritten, then a tail
    that starts with an arbitrary 4-byte length prefix."""
    blob = b"".join(encode_frame(*f) for f in frames)
    if flip and blob:
        at %= len(blob)
        blob = blob[:at] + bytes([to]) + blob[at + 1:]
    return blob + tail_len.to_bytes(4, "big") + tail


_streams = st.builds(
    _stream,
    st.lists(st.tuples(
        st.sampled_from((FRAME_DATA, FRAME_HEARTBEAT, FRAME_ABORT)),
        st.integers(0, 2**32 - 1), st.text(max_size=6),
        st.binary(max_size=24),
    ), max_size=4),
    st.booleans(), st.integers(0, 2**16), st.integers(0, 255),
    st.one_of(st.integers(0, 64), st.integers(0, 2**32 - 1)),
    st.binary(max_size=24),
)


class TestFuzz:
    """Fixed-seed split-point properties, to the standard of the serve
    hello parser: a structured outcome and a bounded buffer."""

    @settings(derandomize=True, max_examples=120, deadline=None,
              database=None)
    @given(blob=_streams)
    def test_every_split_point_gives_the_same_outcome(self, blob):
        """Fed whole-then-rest at any cut, a stream yields the frames it
        yields byte by byte, or stops at the same FrameCorruption having
        yielded a prefix of them."""
        ref_frames, ref_error = _run([blob[i:i + 1] for i in range(len(blob))])
        for cut in range(len(blob) + 1):
            frames, error = _run([blob[:cut], blob[cut:]])
            assert error == ref_error
            if error is None:
                assert frames == ref_frames
            else:
                assert frames == ref_frames[: len(frames)]
