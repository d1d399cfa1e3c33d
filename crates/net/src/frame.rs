//! The wire frame: length-prefixed, checksummed, timestamped.
//!
//! Every message on a `kvs-net` connection travels inside one frame:
//!
//! ```text
//! offset  size  field
//!      0     2  magic        0x4B56 ("KV")
//!      2     1  version      3 (any other value is refused)
//!      3     1  kind         1 = request, 2 = response, 3 = busy,
//!                            4 = expired, 5 = write, 6 = write-ack,
//!                            7 = rmw
//!      4     1  flags        bit 0: payload encoded with the compact codec
//!      5     8  id           request id (present even in busy frames, so
//!                            the master can retry without decoding bodies)
//!     13     4  len          payload length in bytes
//!     17    32  stamps[4]    wall-clock nanoseconds since the UNIX epoch;
//!                            meaning depends on `kind` (see below)
//!     49     8  deadline     absolute wall-clock deadline in nanoseconds
//!                            since the UNIX epoch; 0 = no deadline
//!     57     4  checksum     CRC-32 (IEEE) over bytes [0, 57) + payload
//!     61   len  payload      codec-encoded body (empty for busy and
//!                            expired frames)
//! ```
//!
//! Integers are big-endian. The CRC covers the header (minus the checksum
//! field itself) and the payload, so any single-bit corruption anywhere
//! in the frame is detected.
//!
//! A frame is a transport unit: request and response frames carry one or
//! more *entries*, one per partition, and everything else about a
//! sub-request — its queue slot, its refusal, its answer — stays per
//! entry. The header's `id` and stamps are the first entry's:
//! * request payload — request bodies back to back
//!   ([`kvs_cluster::Codec::next_request`] takes one off the front); every
//!   entry shares the header's stamps and deadline. One entry is exactly
//!   `Codec::encode_request`'s bytes.
//! * response payload — the first entry's response body, then for every
//!   further entry its own `[sent echo, dequeued, in-db end]` (3 × u64,
//!   [`ENTRY_STAMPS_LEN`] bytes) and its body. The header's first three
//!   stamps are the first entry's, `stamps[3]` the frame's send time. One
//!   entry is exactly `Codec::encode_response`'s bytes.
//!
//! Where frames are cut: the master puts every request its issue pass
//! releases for one node into one frame (at most the pass's burst of 64)
//! and starts a new one only where the deadline differs; a slave worker
//! appends each answer to its connection's open response frame and seals
//! it where it flushes (queue empty, or an answer held `REPLY_HOLD`).
//! Refusals, writes and write-acks carry one entry each.
//!
//! Timestamp conventions:
//! * request — `stamps[0]` query issue time, `stamps[1]` master send time,
//!   `stamps[2]` the master's monotone send sequence number (not a
//!   timestamp: it counts every request frame the master has written, so
//!   interposers like [`crate::chaos::ChaosProxy`] can audit per-connection
//!   send ordering);
//! * response — `stamps[0]` echoes the request's send time, `stamps[1]`
//!   worker dequeue (= in-db start), `stamps[2]` in-db end, `stamps[3]`
//!   slave send time;
//! * busy — `stamps[0]` echoes the request's send time, `stamps[2]` the
//!   slave's work-queue capacity (not a timestamp: it is the credit window
//!   the master may keep in flight on this node; 0 = not advertised, which
//!   the master reads as unlimited);
//! * expired — `stamps[0]` echoes the request's send time, `stamps[1]`
//!   the slave-side wall clock when the deadline was found to have passed;
//! * write / rmw — same convention as request (`stamps[0]` issue,
//!   `stamps[1]` coordinator send, `stamps[2]` send sequence number); the
//!   LWW timestamp travels in the payload, not the stamps;
//! * write-ack — same convention as response (`stamps[0]` echoes the
//!   write's send time, `stamps[1]` worker dequeue, `stamps[2]` store
//!   apply end, `stamps[3]` slave send time).
//!
//! The carried wall-clock stamps are comparable across processes on the
//! same host (the loopback deployments this crate targets); the master
//! turns them into the four methodology stages.

use bytes::Bytes;
use kvs_cluster::Codec;
use std::io::{self, Read, Write};

/// Frame magic, "KV".
pub const MAGIC: u16 = 0x4B56;
/// The one wire protocol version: the encoder emits it and the decoder
/// refuses anything else.
pub const VERSION: u8 = 3;
/// Fixed header size in bytes, checksum included.
pub const HEADER_LEN: usize = 61;
/// Offset of the checksum field: the last four header bytes.
const CRC_OFFSET: usize = HEADER_LEN - 4;
/// Header bytes through the `len` field: enough to refuse an oversized
/// declared length before the rest of the header has arrived.
const LEN_FIELD_END: usize = 17;
/// Bytes of the stamps every response entry after the first carries
/// ahead of its body: `[sent echo, dequeued, in-db end]`, big-endian.
pub const ENTRY_STAMPS_LEN: usize = 24;
/// Upper bound on payload size — malformed length prefixes fail fast
/// instead of provoking giant allocations.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Flag bit 0: the payload was encoded with the compact codec.
pub const FLAG_COMPACT: u8 = 0b0000_0001;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Master → slave query request.
    Request,
    /// Slave → master query response.
    Response,
    /// Slave → master refusal: the work queue was full. The master should
    /// back off and retry the id.
    Busy,
    /// Slave → master refusal: the request's deadline had already passed
    /// before the DB stage ran. The master should not retry the id — the
    /// deadline will not un-expire.
    Expired,
    /// Master → slave replicated write (payload: `WriteRequest` with an
    /// LWW timestamp).
    Write,
    /// Slave → master write acknowledgement (payload: `WriteAck`).
    WriteAck,
    /// Master → slave read-modify-write: the slave reads the partition
    /// pre-image, then applies the write under the same LWW rule. Same
    /// payload as [`FrameKind::Write`], answered with a write-ack.
    Rmw,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Busy => 3,
            FrameKind::Expired => 4,
            FrameKind::Write => 5,
            FrameKind::WriteAck => 6,
            FrameKind::Rmw => 7,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            3 => Some(FrameKind::Busy),
            4 => Some(FrameKind::Expired),
            5 => Some(FrameKind::Write),
            6 => Some(FrameKind::WriteAck),
            7 => Some(FrameKind::Rmw),
            _ => None,
        }
    }
}

/// Why a byte sequence is not a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes are not [`MAGIC`].
    BadMagic,
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// The CRC does not match: the frame was corrupted in flight.
    BadChecksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds the cap"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One wire frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Codec and future option bits.
    pub flags: u8,
    /// The request id this frame belongs to.
    pub id: u64,
    /// Wall-clock nanosecond stamps (see the module docs for semantics).
    pub stamps: [u64; 4],
    /// Absolute wall-clock deadline in nanoseconds since the UNIX epoch;
    /// `0` means the request has no deadline.
    pub deadline: u64,
    /// The codec-encoded body.
    pub payload: Bytes,
}

impl Frame {
    /// Serializes the frame: header + checksum + payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the serialized frame to `out`, so a connection can collect
    /// several frames in one reused buffer and write them with one call.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(HEADER_LEN + self.payload.len());
        self.encode_with(out, |out| out.extend_from_slice(&self.payload));
    }

    /// Appends the frame to `out` with a payload written in place: this
    /// frame's header, then whatever `body` appends (a codec encoding
    /// straight into the connection's buffer), then the length and
    /// checksum that payload calls for. The frame's own `payload` is not
    /// read: in-place senders leave it empty. Returns the payload length.
    pub fn encode_with(&self, out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> usize {
        let at = self.begin(out);
        body(out);
        Frame::seal(out, at)
    }

    /// Appends this frame's header to `out` with its length and checksum
    /// left open, and returns where it starts: whatever is appended to
    /// `out` from here on is its payload, until [`Frame::seal`]. This is
    /// how a sender adds entries to a frame as it releases them.
    pub fn begin(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.extend_from_slice(&MAGIC.to_be_bytes());
        out.push(VERSION);
        out.push(self.kind.to_byte());
        out.push(self.flags);
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&[0; 4]); // len, known once the body is written
        for s in self.stamps {
            out.extend_from_slice(&s.to_be_bytes());
        }
        out.extend_from_slice(&self.deadline.to_be_bytes());
        out.extend_from_slice(&[0; 4]); // checksum, likewise
        start
    }

    /// Closes the frame [`Frame::begin`] started at `at`: everything after
    /// its header is its payload. Fills in the length and the checksum and
    /// returns the payload length.
    pub fn seal(out: &mut [u8], at: usize) -> usize {
        let payload_at = at + HEADER_LEN;
        let len = out.len() - payload_at;
        out[at + 13..at + LEN_FIELD_END].copy_from_slice(&(len as u32).to_be_bytes());
        let mut crc = Crc32::new();
        crc.update(&out[at..at + CRC_OFFSET]);
        crc.update(&out[payload_at..]);
        out[at + CRC_OFFSET..payload_at].copy_from_slice(&crc.finish().to_be_bytes());
        len
    }

    /// Walks the entries of a response frame (see the module docs), each
    /// with its request id, its `[sent echo, dequeued, in-db end]` stamps
    /// and its body, and returns how many there are. A frame is taken
    /// whole or not at all: every entry is checked before `each` sees the
    /// first, and `None` — with `each` never called — answers a payload
    /// that is cut short or does not parse anywhere.
    pub fn answers<'a>(&'a self, codec: &Codec, mut each: impl FnMut(Answer<'a>)) -> Option<usize> {
        self.walk_answers(codec, &mut |_| {})?;
        self.walk_answers(codec, &mut each)
    }

    fn walk_answers<'a>(
        &'a self,
        codec: &Codec,
        each: &mut dyn FnMut(Answer<'a>),
    ) -> Option<usize> {
        let mut rest: &'a [u8] = &self.payload;
        let mut stamps = [self.stamps[0], self.stamps[1], self.stamps[2]];
        let mut entries = 0;
        loop {
            let (id, body) = codec.next_response(&mut rest)?;
            each(Answer { id, stamps, body });
            entries += 1;
            if rest.is_empty() {
                return Some(entries);
            }
            let (head, tail) = rest.split_first_chunk::<ENTRY_STAMPS_LEN>()?;
            for (stamp, bytes) in stamps.iter_mut().zip(head.as_chunks::<8>().0) {
                *stamp = u64::from_be_bytes(*bytes);
            }
            rest = tail;
        }
    }

    /// Tries to decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(Some((frame, consumed)))` on success,
    /// `Ok(None)` when `buf` is a (possibly empty) prefix of a frame and
    /// more bytes are needed, and `Err` when the bytes can never become a
    /// valid frame. Never panics, whatever the input.
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
        // Validate what we can see so garbage fails fast even on a prefix.
        if buf.len() >= 2 && buf[..2] != MAGIC.to_be_bytes() {
            return Err(FrameError::BadMagic);
        }
        if buf.len() >= 3 && buf[2] != VERSION {
            return Err(FrameError::BadVersion(buf[2]));
        }
        if buf.len() >= 4 && FrameKind::from_byte(buf[3]).is_none() {
            return Err(FrameError::BadKind(buf[3]));
        }
        if buf.len() < LEN_FIELD_END {
            return Ok(None);
        }
        let len = u32::from_be_bytes(buf[13..17].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Err(FrameError::TooLarge(len));
        }
        let total = HEADER_LEN + len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let kind = FrameKind::from_byte(buf[3]).expect("kind validated above");
        let flags = buf[4];
        let id = u64::from_be_bytes(buf[5..13].try_into().expect("8 bytes"));
        let mut stamps = [0u64; 4];
        for (i, s) in stamps.iter_mut().enumerate() {
            *s = u64::from_be_bytes(buf[17 + i * 8..25 + i * 8].try_into().expect("8 bytes"));
        }
        let deadline = u64::from_be_bytes(buf[49..57].try_into().expect("8 bytes"));
        let declared = u32::from_be_bytes(buf[CRC_OFFSET..HEADER_LEN].try_into().expect("4 bytes"));
        let mut crc = Crc32::new();
        crc.update(&buf[..CRC_OFFSET]);
        crc.update(&buf[HEADER_LEN..total]);
        if crc.finish() != declared {
            return Err(FrameError::BadChecksum);
        }
        Ok(Some((
            Frame {
                kind,
                flags,
                id,
                stamps,
                deadline,
                payload: Bytes::copy_from_slice(&buf[HEADER_LEN..total]),
            },
            total,
        )))
    }

    /// Writes the frame to a stream in one call.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Reads exactly one frame from a stream, blocking as needed.
    /// Malformed bytes surface as `InvalidData`.
    pub fn read_from(r: &mut impl Read) -> io::Result<Frame> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        if let Err(e) = Frame::decode(&header) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, e));
        }
        let declared_len = u32::from_be_bytes(header[13..17].try_into().expect("4 bytes"));
        // Validate the wire-declared length BEFORE sizing any buffer
        // from it: `decode` on the header above checks it too, but this
        // path must bound the allocation on its own — a hostile peer
        // sends the length, and an unchecked `with_capacity` from it is
        // a remote OOM.
        if declared_len > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                FrameError::TooLarge(declared_len),
            ));
        }
        let len = declared_len as usize;
        let mut buf = Vec::with_capacity(HEADER_LEN + len);
        buf.extend_from_slice(&header);
        buf.resize(HEADER_LEN + len, 0);
        r.read_exact(&mut buf[HEADER_LEN..])?;
        match Frame::decode(&buf) {
            Ok(Some((frame, consumed))) => {
                debug_assert_eq!(consumed, buf.len());
                Ok(frame)
            }
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame decoder made no progress",
            )),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }
}

/// One partition's answer in a response frame ([`Frame::answers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer<'a> {
    /// The request id its body answers.
    pub id: u64,
    /// `[sent echo, dequeued, in-db end]`: the header's first three stamps
    /// for the first entry, its own for every later one.
    pub stamps: [u64; 3],
    /// Its codec-encoded response body.
    pub body: &'a [u8],
}

/// The codec a frame's flags declare: peers answer in kind.
pub fn codec_of(flags: u8) -> Codec {
    if flags & FLAG_COMPACT != 0 {
        Codec::compact()
    } else {
        Codec::verbose()
    }
}

/// Appends the stamps of a response entry after the first, ahead of its
/// body (see the module docs).
pub fn put_entry_stamps(out: &mut Vec<u8>, stamps: [u64; 3]) {
    for s in stamps {
        out.extend_from_slice(&s.to_be_bytes());
    }
}

/// Bytes a [`Deframer`] asks the stream for at a time.
const READ_CHUNK: usize = 16 * 1024;

/// The stream side of [`Frame::decode`]: one `read` per [`Deframer::fill`]
/// however many frames it brings, then [`Deframer::next_frame`] until it
/// answers `None`. Consumed bytes are skipped with a cursor and the
/// unconsumed tail moves to the front once per `fill`, not once per frame.
/// A `fill` that fails (a read timeout, say) loses nothing already
/// received. Both ends of a connection deframe with this: the master's
/// reader threads and the slave's connection readers.
pub struct Deframer {
    buf: Vec<u8>,
    /// `buf[start..end]` is received and not yet returned as a frame.
    start: usize,
    end: usize,
}

impl Default for Deframer {
    fn default() -> Self {
        Deframer {
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
        }
    }
}

impl Deframer {
    /// An empty deframer.
    pub fn new() -> Deframer {
        Deframer::default()
    }

    /// Reads once from `r` behind what is already buffered and returns
    /// the byte count; `Ok(0)` is the end of the stream.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.end == self.buf.len() {
            // One frame larger than the buffer is arriving. `next_frame`
            // has already refused a length over MAX_PAYLOAD, so doubling
            // stops short of twice the largest legal frame.
            let doubled = self.buf.len() * 2;
            self.buf.resize(doubled, 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete frame, `Ok(None)` when more bytes are needed, or
    /// the reason the stream can never be deframed again.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        Ok(
            Frame::decode(&self.buf[self.start..self.end])?.map(|(frame, used)| {
                self.start += used;
                frame
            }),
        )
    }
}

/// `CRC_TABLES[k][b]`: the CRC-32 state after byte `b` and then `k` zero
/// bytes. Row 0 is the classic one-byte-at-a-time table.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut state = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (state & 1).wrapping_neg();
            state = (state >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][byte] = state;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// Incremental CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven
/// eight bytes a step (slice-by-8) and dependency-free: about a nanosecond
/// per byte, so the checksum is a small part of what a frame costs rather
/// than most of it.
struct Crc32 {
    state: u32,
}

impl Crc32 {
    fn new() -> Self {
        Crc32 { state: !0 }
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let (words, tail) = bytes.as_chunks::<8>();
        for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
            let [s0, s1, s2, s3] = state.to_le_bytes();
            state = CRC_TABLES[7][(b0 ^ s0) as usize]
                ^ CRC_TABLES[6][(b1 ^ s1) as usize]
                ^ CRC_TABLES[5][(b2 ^ s2) as usize]
                ^ CRC_TABLES[4][(b3 ^ s3) as usize]
                ^ CRC_TABLES[3][b4 as usize]
                ^ CRC_TABLES[2][b5 as usize]
                ^ CRC_TABLES[1][b6 as usize]
                ^ CRC_TABLES[0][b7 as usize];
        }
        for &b in tail {
            let [s0, ..] = state.to_le_bytes();
            state = (state >> 8) ^ CRC_TABLES[0][(b ^ s0) as usize];
        }
        self.state = state;
    }

    fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame {
            kind: FrameKind::Response,
            flags: FLAG_COMPACT,
            id: 0xDEAD_BEEF,
            stamps: [1, 2, 3, u64::MAX],
            deadline: 0x0102_0304_0506_0708,
            payload: Bytes::copy_from_slice(b"hello frames"),
        }
    }

    /// Hand-assembles a well-formed frame of the retired version 1
    /// (53-byte header, no deadline field).
    fn encode_v1(kind: u8, flags: u8, id: u64, stamps: [u64; 4], payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_be_bytes());
        out.push(1);
        out.push(kind);
        out.push(flags);
        out.extend_from_slice(&id.to_be_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        for s in stamps {
            out.extend_from_slice(&s.to_be_bytes());
        }
        let mut crc = Crc32::new();
        crc.update(&out);
        crc.update(payload);
        out.extend_from_slice(&crc.finish().to_be_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 — the standard check value.
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_length_and_split() {
        let bitwise = |bytes: &[u8]| {
            !bytes.iter().fold(!0u32, |mut state, &b| {
                state ^= b as u32;
                for _ in 0..8 {
                    state = (state >> 1) ^ (0xEDB8_8320 & (state & 1).wrapping_neg());
                }
                state
            })
        };
        let bytes: Vec<u8> = (0..150u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=bytes.len() {
            let want = bitwise(&bytes[..len]);
            for split in [0, 1, 7, 8, 9, 57, len] {
                let mut c = Crc32::new();
                c.update(&bytes[..split.min(len)]);
                c.update(&bytes[split.min(len)..len]);
                assert_eq!(c.finish(), want, "length {len}, split {split}");
            }
        }
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let bytes = f.encode();
        let (decoded, consumed) = Frame::decode(&bytes).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, f);
    }

    #[test]
    fn v1_frames_are_refused_at_every_prefix() {
        let wire = encode_v1(2, FLAG_COMPACT, 0xABCD, [10, 20, 30, 40], b"legacy");
        for cut in 0..=wire.len() {
            let want = if cut < 3 {
                Ok(None)
            } else {
                Err(FrameError::BadVersion(1))
            };
            assert_eq!(
                Frame::decode(&wire[..cut]),
                want,
                "v1 prefix of {cut} bytes"
            );
        }
        // The streaming paths refuse it too, whatever follows it.
        let mut stream = wire.clone();
        stream.extend_from_slice(&sample().encode());
        let err = Frame::read_from(&mut &stream[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut deframer = Deframer::new();
        deframer.fill(&mut &stream[..]).unwrap();
        assert_eq!(deframer.next_frame(), Err(FrameError::BadVersion(1)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // A hostile peer declares a payload beyond MAX_PAYLOAD. The
        // streaming path must reject the frame from the 17-byte prefix
        // alone — never sizing a buffer from the declared length.
        let mut wire = sample().encode();
        wire[13..17].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = &wire[..];
        let err = Frame::read_from(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("exceeds the cap"),
            "want TooLarge, got: {err}"
        );
        // One past the cap is rejected too; exactly at the cap the
        // declared length passes the bound (and then fails on missing
        // payload bytes, not on the length itself).
        wire[13..17].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        let err = Frame::read_from(&mut &wire[..]).unwrap_err();
        assert!(err.to_string().contains("exceeds the cap"), "got: {err}");
        wire[13..17].copy_from_slice(&MAX_PAYLOAD.to_be_bytes());
        let err = Frame::read_from(&mut &wire[..]).unwrap_err();
        assert!(!err.to_string().contains("exceeds the cap"), "got: {err}");
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = sample().encode();
        for version in [2, 4] {
            bytes[2] = version;
            assert_eq!(Frame::decode(&bytes), Err(FrameError::BadVersion(version)));
            assert_eq!(
                Frame::decode(&bytes[..3]),
                Err(FrameError::BadVersion(version))
            );
        }
    }

    #[test]
    fn decode_from_concatenated_stream() {
        let a = sample();
        let b = Frame {
            kind: FrameKind::Busy,
            flags: 0,
            id: 7,
            stamps: [9, 0, 0, 0],
            deadline: 0,
            payload: Bytes::new(),
        };
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());
        let (da, used) = Frame::decode(&stream).unwrap().unwrap();
        assert_eq!(da, a);
        let (db, used_b) = Frame::decode(&stream[used..]).unwrap().unwrap();
        assert_eq!(db, b);
        assert_eq!(used + used_b, stream.len());
    }

    #[test]
    fn every_prefix_wants_more_bytes() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Frame::decode(&bytes[..cut]),
                Ok(None),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn single_byte_corruption_never_yields_a_frame() {
        // A flipped length byte may legitimately turn into "need more
        // bytes" (`Ok(None)`); what corruption must never produce is a
        // successfully decoded frame.
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                !matches!(Frame::decode(&bad), Ok(Some(_))),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn expired_kind_roundtrips() {
        let f = Frame {
            kind: FrameKind::Expired,
            flags: 0,
            id: 11,
            stamps: [100, 200, 0, 0],
            deadline: 150,
            payload: Bytes::new(),
        };
        let wire = f.encode();
        assert_eq!(wire.len(), HEADER_LEN);
        let (decoded, _) = Frame::decode(&wire).unwrap().unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn write_path_kinds_roundtrip() {
        for (kind, byte) in [
            (FrameKind::Write, 5u8),
            (FrameKind::WriteAck, 6),
            (FrameKind::Rmw, 7),
        ] {
            let f = Frame {
                kind,
                flags: FLAG_COMPACT,
                id: 21,
                stamps: [100, 200, 3, 0],
                deadline: 900,
                payload: Bytes::copy_from_slice(b"write body"),
            };
            let wire = f.encode();
            assert_eq!(wire[3], byte);
            let (decoded, consumed) = Frame::decode(&wire).unwrap().unwrap();
            assert_eq!(consumed, wire.len());
            assert_eq!(decoded, f);
        }
    }

    #[test]
    fn oversized_length_rejected() {
        let mut bytes = sample().encode();
        bytes[13..17].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(FrameError::TooLarge(MAX_PAYLOAD + 1))
        );
        // Fails fast even before the full header has arrived.
        assert_eq!(
            Frame::decode(&bytes[..LEN_FIELD_END]),
            Err(FrameError::TooLarge(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn stream_read_write() {
        let mut wire = Vec::new();
        sample().write_to(&mut wire).unwrap();
        let mut cursor = &wire[..];
        let got = Frame::read_from(&mut cursor).unwrap();
        assert_eq!(got, sample());
        assert!(cursor.is_empty());
    }

    #[test]
    fn deframer_grows_for_a_frame_larger_than_its_buffer() {
        let big = Frame {
            payload: Bytes::from(vec![0xAB; 5 * READ_CHUNK / 2]),
            ..sample()
        };
        let mut wire = sample().encode();
        wire.extend_from_slice(&big.encode());
        wire.extend_from_slice(&sample().encode());
        let mut stream = &wire[..];
        let mut deframer = Deframer::new();
        let mut got = Vec::new();
        while deframer.fill(&mut stream).unwrap() > 0 {
            while let Some(frame) = deframer.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, [sample(), big, sample()]);
    }

    #[test]
    fn stream_read_empty_payload() {
        let busy = Frame {
            kind: FrameKind::Busy,
            flags: 0,
            id: 42,
            stamps: [5, 0, 0, 0],
            deadline: 0,
            payload: Bytes::new(),
        };
        let wire = busy.encode();
        assert_eq!(wire.len(), HEADER_LEN);
        let mut cursor = &wire[..];
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), busy);
    }
}
