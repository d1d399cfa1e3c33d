//! Truncation/corruption safety of the wire frame, in the same spirit as
//! `kvs-cluster`'s codec property tests: whatever bytes arrive, the
//! decoder returns "need more", an error, or a valid frame — it never
//! panics, and corrupted input never decodes successfully. The stream
//! side — the one [`Deframer`] both ends of a connection read through —
//! gets the same treatment: however the bytes are cut into reads, the
//! frames come out whole and in order, and a corrupted byte stops it.

use bytes::Bytes;
use kvs_net::frame::{Deframer, Frame, FrameError, FrameKind};
use proptest::prelude::*;
use std::io::{self, Read};

fn build(kind_sel: u8, flags: u8, id: u64, stamps: (u64, u64, u64, u64), payload: &[u8]) -> Frame {
    let kind = match kind_sel % 4 {
        0 => FrameKind::Request,
        1 => FrameKind::Response,
        2 => FrameKind::Busy,
        _ => FrameKind::Expired,
    };
    Frame {
        kind,
        flags,
        id,
        stamps: [stamps.0, stamps.1, stamps.2, stamps.3],
        deadline: id ^ stamps.0, // arbitrary but deterministic
        payload: Bytes::copy_from_slice(payload),
    }
}

/// A stream that hands out `data` in reads of the sizes `cuts` lists
/// (cycled), however much room the reader offers.
struct CutStream<'a> {
    data: &'a [u8],
    cuts: &'a [usize],
    reads: usize,
}

impl Read for CutStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.cuts[self.reads % self.cuts.len()]
            .min(self.data.len())
            .min(buf.len());
        self.reads += 1;
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Deframes `wire` read in `cuts`-sized pieces, as the connection readers
/// do: fill once, take every frame that is complete, fill again. Returns
/// the frames and what ended the stream — `None` for end of input.
fn deframe(wire: &[u8], cuts: &[usize]) -> (Vec<Frame>, Option<FrameError>) {
    let mut stream = CutStream {
        data: wire,
        cuts,
        reads: 0,
    };
    let mut deframer = Deframer::new();
    let mut frames = Vec::new();
    while deframer.fill(&mut stream).expect("in-memory read") > 0 {
        loop {
            match deframer.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => return (frames, Some(e)),
            }
        }
    }
    (frames, None)
}

/// Frame ingredients as [`build`] takes them.
fn frame_parts() -> impl Strategy<Value = (u8, u8, u64, Vec<u8>)> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..300),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn deframer_yields_the_frames_however_the_stream_is_cut(
        parts in proptest::collection::vec(frame_parts(), 1..12),
        // Down to single bytes, so cuts land inside the 17-byte prefix,
        // the stamps, the checksum and the payload alike.
        cuts in proptest::collection::vec(1usize..200, 1..24),
    ) {
        let frames: Vec<Frame> = parts
            .iter()
            .map(|(kind, flags, id, payload)| build(*kind, *flags, *id, (1, 2, 3, 4), payload))
            .collect();
        let wire: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        let (got, stopped) = deframe(&wire, &cuts);
        prop_assert_eq!(stopped, None);
        prop_assert_eq!(got, frames);
    }

    #[test]
    fn deframer_stops_at_a_corrupted_byte(
        parts in proptest::collection::vec(frame_parts(), 1..8),
        cuts in proptest::collection::vec(1usize..200, 1..24),
        pos in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let frames: Vec<Frame> = parts
            .iter()
            .map(|(kind, flags, id, payload)| build(*kind, *flags, *id, (9, 8, 7, 6), payload))
            .collect();
        let mut wire: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        let pos = pos % wire.len();
        wire[pos] ^= mask;
        let (got, stopped) = deframe(&wire, &cuts);
        // Every frame before the damaged one, none from it on: the reader
        // either gets the error that makes it drop the connection, or —
        // a length field that grew — waits for bytes until the stream
        // ends. It never resynchronizes past the damage.
        let mut end = 0;
        let intact = frames
            .iter()
            .take_while(|f| {
                end += f.encode().len();
                end <= pos
            })
            .count();
        prop_assert_eq!(&got[..], &frames[..intact]);
        if stopped.is_none() {
            prop_assert!(intact < frames.len());
        }
    }

    #[test]
    fn roundtrips(kind_sel in any::<u8>(),
                  flags in any::<u8>(),
                  id in any::<u64>(),
                  stamps in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                  payload in proptest::collection::vec(any::<u8>(), 0..300)) {
        let frame = build(kind_sel, flags, id, stamps, &payload);
        let wire = frame.encode();
        let (decoded, used) = Frame::decode(&wire).expect("valid").expect("complete");
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn any_prefix_asks_for_more_never_panics(kind_sel in any::<u8>(),
                                             id in any::<u64>(),
                                             payload in proptest::collection::vec(any::<u8>(), 0..200),
                                             cut in 0usize..600) {
        let wire = build(kind_sel, 0, id, (1, 2, 3, 4), &payload).encode();
        let cut = cut.min(wire.len() - 1);
        // A strict prefix of a valid frame is always "need more bytes".
        prop_assert_eq!(Frame::decode(&wire[..cut]), Ok(None));
    }

    #[test]
    fn corruption_never_decodes(kind_sel in any::<u8>(),
                                id in any::<u64>(),
                                payload in proptest::collection::vec(any::<u8>(), 0..200),
                                pos in any::<usize>(),
                                mask in 1u8..=255) {
        let mut wire = build(kind_sel, 7, id, (9, 8, 7, 6), &payload).encode();
        let pos = pos % wire.len();
        wire[pos] ^= mask;
        // The CRC (or the header validation) must reject the flip — the
        // worst acceptable outcome is "need more bytes" after a length
        // field grew.
        prop_assert!(!matches!(Frame::decode(&wire), Ok(Some(_))),
                     "corruption at byte {} accepted", pos);
    }

    #[test]
    fn arbitrary_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        // Any outcome is fine; reaching this line without a panic is the
        // property.
        let _ = Frame::decode(&data);
        prop_assert!(true);
    }

    #[test]
    fn truncated_streams_error_cleanly(kind_sel in any::<u8>(),
                                       payload in proptest::collection::vec(any::<u8>(), 1..200),
                                       cut in 0usize..600) {
        let wire = build(kind_sel, 1, 42, (1, 2, 3, 4), &payload).encode();
        let cut = cut.min(wire.len().saturating_sub(1));
        let mut stream = &wire[..cut];
        // A stream that ends mid-frame is an io error, not a panic.
        prop_assert!(Frame::read_from(&mut stream).is_err());
    }
}
