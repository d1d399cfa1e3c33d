//! Truncation/corruption safety of the wire frame, in the same spirit as
//! `kvs-cluster`'s codec property tests: whatever bytes arrive, the
//! decoder returns "need more", an error, or a valid frame — it never
//! panics, and corrupted input never decodes successfully. The stream
//! side — the one [`Deframer`] both ends of a connection read through —
//! gets the same treatment: however the bytes are cut into reads, the
//! frames come out whole and in order, and a corrupted byte stops it.
//! Frames that carry many partitions round-trip under both codecs, and the
//! master takes a response frame's answers whole or not at all.

use bytes::Bytes;
use kvs_cluster::{Codec, QueryRequest, QueryResponse, Totals};
use kvs_net::frame::{
    put_entry_stamps, Deframer, Frame, FrameError, FrameKind, ENTRY_STAMPS_LEN, FLAG_COMPACT,
};
use kvs_store::PartitionKey;
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

// ---- Frames that carry many partitions (see `kvs_net::frame`). ----

/// One partition's answer: its request id, its `[sent echo, dequeued,
/// in-db end]` stamps and the kind of every cell it counted.
type Answered = (u64, (u64, u64, u64), Vec<u8>);

fn answered() -> impl Strategy<Value = Answered> {
    (
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec(any::<u8>(), 0..12),
    )
}

/// Either codec, with the flags a frame of it carries.
fn codec(sel: u8) -> (Codec, u8) {
    if sel.is_multiple_of(2) {
        (Codec::compact(), FLAG_COMPACT)
    } else {
        (Codec::verbose(), 0)
    }
}

/// The response body `answer` is, decoded.
fn response(answer: &Answered) -> QueryResponse {
    let (id, _, kinds) = answer;
    QueryResponse::from_kinds(*id, kinds.iter().copied()).with_version(id ^ 7)
}

/// A response frame carrying `answers`, laid out as a slave's worker
/// writes one, and where each entry's body ends in its payload.
fn response_frame(codec: &Codec, flags: u8, answers: &[Answered]) -> (Frame, Vec<usize>) {
    let (mut payload, mut ends) = (Vec::new(), Vec::new());
    for (i, answer) in answers.iter().enumerate() {
        let (_, (echo, dequeued, db_end), _) = *answer;
        if i > 0 {
            put_entry_stamps(&mut payload, [echo, dequeued, db_end]);
        }
        payload.extend_from_slice(&codec.encode_response(&response(answer)));
        ends.push(payload.len());
    }
    let (id, (echo, dequeued, db_end), _) = answers[0];
    let frame = Frame {
        kind: FrameKind::Response,
        flags,
        id,
        stamps: [echo, dequeued, db_end, 99],
        deadline: 5,
        payload: Bytes::from(payload),
    };
    (frame, ends)
}

/// Walks `frame` as the master does — every answer folded into `acc` —
/// and returns what [`Frame::answers`] said and how many answers it
/// handed over.
fn fold(codec: &Codec, frame: &Frame, acc: &mut Totals) -> (Option<usize>, usize) {
    let mut handed = 0;
    let walked = frame.answers(codec, |answer| {
        handed += 1;
        codec
            .fold_response(answer.body, acc)
            .expect("an answer the walk handed over folds");
    });
    (walked, handed)
}

/// `frame` with its payload replaced: what a slave that cut or garbled
/// its own frame would send — the checksum is right, the body is not.
fn reframed(frame: &Frame, payload: Vec<u8>) -> Frame {
    let wire = Frame {
        payload: Bytes::from(payload),
        ..frame.clone()
    }
    .encode();
    Frame::decode(&wire).expect("valid").expect("whole").0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn many_partition_frames_roundtrip_under_both_codecs(
        sel in any::<u8>(),
        answers in proptest::collection::vec(answered(), 1..=64),
    ) {
        let (codec, flags) = codec(sel);
        // A request frame: the requests back to back, as the master writes
        // them; the slave takes them off the front one at a time.
        let mut payload = Vec::new();
        for (id, _, _) in &answers {
            codec.append_request(&mut payload, *id, &PartitionKey::from_id(id ^ 3));
        }
        let request = Frame {
            kind: FrameKind::Request,
            flags,
            id: answers[0].0,
            stamps: [1, 2, 3, 0],
            deadline: 0,
            payload: Bytes::from(payload),
        };
        let wire = request.encode();
        let (decoded, used) = Frame::decode(&wire).expect("valid").expect("whole");
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(&decoded, &request);
        let mut rest = &decoded.payload[..];
        for (id, _, _) in &answers {
            let (got, key) = codec.next_request(&mut rest).expect("a whole request");
            prop_assert_eq!(got, *id);
            prop_assert_eq!(key, PartitionKey::from_id(id ^ 3).as_bytes());
        }
        prop_assert!(rest.is_empty());

        // A response frame: every answer comes back with its own stamps.
        let (response_frame, _) = response_frame(&codec, flags, &answers);
        let wire = response_frame.encode();
        let (decoded, _) = Frame::decode(&wire).expect("valid").expect("whole");
        let mut got = Vec::new();
        let entries = decoded.answers(&codec, |answer| {
            let body = codec.decode_response(Bytes::copy_from_slice(answer.body));
            got.push((answer.id, answer.stamps, body.expect("a whole body")));
        });
        prop_assert_eq!(entries, Some(answers.len()));
        let want: Vec<(u64, [u64; 3], QueryResponse)> = answers
            .iter()
            .map(|a| (a.0, [a.1 .0, a.1 .1, a.1 .2], response(a)))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn a_one_key_payload_is_the_codec_body(sel in any::<u8>(), answer in answered()) {
        let (codec, flags) = codec(sel);
        let (id, key) = (answer.0, PartitionKey::from_id(answer.0 ^ 3));
        let mut payload = Vec::new();
        codec.append_request(&mut payload, id, &key);
        let request = QueryRequest { request_id: id, partition: key };
        prop_assert_eq!(&payload[..], &codec.encode_request(&request)[..]);
        let (frame, _) = response_frame(&codec, flags, std::slice::from_ref(&answer));
        prop_assert_eq!(&frame.payload[..], &codec.encode_response(&response(&answer))[..]);
    }

    #[test]
    fn a_response_frame_cut_or_corrupted_answers_no_entry(
        sel in any::<u8>(),
        answers in proptest::collection::vec(answered(), 2..=64),
        cut in any::<usize>(),
        pos in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let (codec, flags) = codec(sel);
        let (frame, ends) = response_frame(&codec, flags, &answers);
        let mut before = Totals {
            cells: 3,
            ..Totals::default()
        };
        (before.kinds[1], before.kinds[9]) = (2, 1);

        // On the wire, a cut or a flipped byte never becomes a frame, so
        // nothing of it is answered.
        let wire = frame.encode();
        let mut flipped = wire.clone();
        flipped[pos % wire.len()] ^= mask;
        for bytes in [&wire[..cut % wire.len()], &flipped[..]] {
            let (frames, _) = deframe(bytes, &[bytes.len().max(1)]);
            prop_assert!(frames.is_empty());
        }

        // A slave that cut its own payload inside an entry, checksum and
        // all, is answered for no entry: the master folds a frame whole or
        // not at all. A cut at an entry's end is a frame of fewer entries.
        let cut = cut % frame.payload.len();
        let mut acc = before.clone();
        let (walked, handed) = fold(&codec, &reframed(&frame, frame.payload[..cut].to_vec()), &mut acc);
        match ends.iter().position(|&end| end == cut) {
            Some(whole) => {
                prop_assert_eq!(walked, Some(whole + 1));
                prop_assert_eq!(handed, whole + 1);
            }
            None => {
                prop_assert_eq!(walked, None);
                prop_assert_eq!(handed, 0);
                prop_assert_eq!(&acc, &before);
            }
        }

        // A garbled byte anywhere in the payload: every entry or none.
        let mut garbled = frame.payload.to_vec();
        let at = pos % garbled.len();
        garbled[at] ^= mask;
        let mut acc = before.clone();
        let (walked, handed) = fold(&codec, &reframed(&frame, garbled), &mut acc);
        match walked {
            Some(entries) => prop_assert_eq!(handed, entries),
            None => {
                prop_assert_eq!(handed, 0);
                prop_assert_eq!(&acc, &before);
            }
        }
        // The class byte of a later entry is never a valid one garbled:
        // that frame is refused whole, its first entries with it.
        let mut garbled = frame.payload.to_vec();
        let later = ends[pos % (ends.len() - 1)] + ENTRY_STAMPS_LEN;
        garbled[later] ^= 0x80;
        let mut acc = before.clone();
        let (walked, handed) = fold(&codec, &reframed(&frame, garbled), &mut acc);
        prop_assert_eq!(walked, None);
        prop_assert_eq!(handed, 0);
        prop_assert_eq!(&acc, &before);
    }
}
