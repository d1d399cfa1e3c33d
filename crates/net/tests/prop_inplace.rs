//! A frame whose payload is written in place ([`Frame::encode_with`]) is
//! the frame [`Frame::encode_into`] would have produced from the same
//! header and an owned payload: the same bytes, checksum included, after
//! whatever the buffer already held, and so the same [`Frame`] decoded. So
//! is a frame filled entry by entry between [`Frame::begin`] and
//! [`Frame::seal`], as the master fills a request frame, and the frame a
//! master sends for one key carries exactly `Codec::encode_request`'s
//! bytes.

use bytes::Bytes;
use kvs_cluster::{Codec, QueryRequest, QueryResponse};
use kvs_net::clock::wall_ns;
use kvs_net::frame::{Frame, FrameKind, HEADER_LEN};
use kvs_net::{NetConfig, NetMaster, Route};
use kvs_store::PartitionKey;
use proptest::prelude::*;
use std::net::TcpListener;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_frame_written_in_place_is_the_frame_encoded_whole(
        kind_sel in any::<u8>(),
        flags in any::<u8>(),
        id in any::<u64>(),
        stamps in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        deadline in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        pieces in 1usize..5,
        prefix in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let kind = [
            FrameKind::Request,
            FrameKind::Response,
            FrameKind::Busy,
            FrameKind::Expired,
            FrameKind::Write,
            FrameKind::WriteAck,
            FrameKind::Rmw,
        ][kind_sel as usize % 7];
        let header = Frame {
            kind,
            flags,
            id,
            stamps: [stamps.0, stamps.1, stamps.2, stamps.3],
            deadline,
            payload: Bytes::new(),
        };
        let whole = Frame {
            payload: Bytes::copy_from_slice(&payload),
            ..header.clone()
        };

        let mut expected = prefix.clone();
        whole.encode_into(&mut expected);
        let mut in_place = prefix.clone();
        // The body arrives in several appends, as a codec writes it.
        let written = header.encode_with(&mut in_place, |out| {
            for piece in payload.chunks(payload.len().div_ceil(pieces).max(1)) {
                out.extend_from_slice(piece);
            }
        });
        prop_assert_eq!(written, payload.len());
        prop_assert_eq!(&in_place, &expected);

        let (decoded, used) = Frame::decode(&in_place[prefix.len()..])
            .expect("a valid frame")
            .expect("a whole frame");
        prop_assert_eq!(used, HEADER_LEN + payload.len());
        prop_assert_eq!(decoded, whole);
    }

    #[test]
    fn a_frame_filled_entry_by_entry_is_the_frame_encoded_whole(
        id in any::<u64>(),
        stamps in (any::<u64>(), any::<u64>(), any::<u64>()),
        entries in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..20),
        prefix in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let header = Frame {
            kind: FrameKind::Request,
            flags: 1,
            id,
            stamps: [stamps.0, stamps.1, stamps.2, 0],
            deadline: stamps.0 ^ stamps.2,
            payload: Bytes::new(),
        };
        let whole = Frame {
            payload: Bytes::from(entries.concat()),
            ..header.clone()
        };
        let mut expected = prefix.clone();
        whole.encode_into(&mut expected);

        let mut filled = prefix.clone();
        let at = header.begin(&mut filled);
        prop_assert_eq!(at, prefix.len());
        for entry in &entries {
            filled.extend_from_slice(entry);
        }
        prop_assert_eq!(Frame::seal(&mut filled, at), whole.payload.len());
        prop_assert_eq!(&filled, &expected);
    }
}

/// A master asked for one key sends one frame whose payload is exactly
/// `Codec::encode_request`'s bytes for it — so a peer that knows only the
/// one-key layout reads it — under either codec.
#[test]
fn a_one_key_request_is_the_codec_request_on_the_wire() {
    for codec in [Codec::compact(), Codec::verbose()] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let key = PartitionKey::from_id(0xC0FFEE);
        let slave = std::thread::spawn(move || {
            let (mut conn, _peer) = listener.accept().expect("master connects");
            let frame = Frame::read_from(&mut conn).expect("one request frame");
            let answer = QueryResponse::from_kinds(frame.id, [1u8, 2]);
            let now = wall_ns();
            Frame {
                kind: FrameKind::Response,
                flags: frame.flags,
                id: frame.id,
                stamps: [frame.stamps[1], now, now, wall_ns()],
                deadline: frame.deadline,
                payload: codec.encode_response(&answer),
            }
            .write_to(&mut conn)
            .expect("answer written");
            frame
        });
        let cfg = NetConfig {
            codec,
            ..NetConfig::default()
        };
        let mut master = NetMaster::connect(&[addr], cfg).expect("master connects");
        let report = master
            .run_query(&[Route::single(key.clone(), 0)])
            .expect("query answered");
        assert_eq!(report.result.total_cells, 2);
        assert_eq!((report.request_frames, report.response_frames), (1, 1));
        master.shutdown();
        let frame = slave.join().expect("fake slave exits");
        let request = QueryRequest {
            request_id: 0,
            partition: key,
        };
        assert_eq!(frame.kind, FrameKind::Request);
        assert_eq!(frame.id, 0);
        assert_eq!(
            frame.payload,
            codec.encode_request(&request),
            "{:?}",
            codec.kind
        );
    }
}
